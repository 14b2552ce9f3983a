//! Quickstart: plan the paper's cluster and simulate its peak hour.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Reproduces the headline pipeline of Zhou & Xu (ICPP 2002): 8 servers
//! with 1.8 Gbps links, 200 videos at 4 Mbps, Zipf(1.0) popularity,
//! storage for a replication degree of 1.2 — replicate optimally (bounded
//! Adams), place with smallest-load-first, then replay a Poisson peak
//! hour at the cluster's capacity rate.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = 200;
    let theta = 1.0;
    let replica_slots_per_server = 30; // degree 1.2 across 8 servers

    let planner = ClusterPlanner::builder()
        .catalog(Catalog::paper_default(m)?)
        .cluster(ClusterSpec::paper_default(replica_slots_per_server))
        .popularity(Popularity::zipf(m, theta)?)
        .demand_requests(3_600.0) // λT at the 40 req/min capacity rate
        .build()?;

    println!("== planning ==");
    for (repl, plc) in [
        (ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst),
        (
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        ),
        (ReplicationAlgo::Classification, PlacementAlgo::RoundRobin),
    ] {
        let plan = planner.plan(repl, plc)?;
        println!(
            "{:>7}+{:<4} degree {:.2}  max replicas {}  bound {:>6.1} req  \
             static L_cv {:.3}",
            repl.name(),
            plc.name(),
            plan.scheme.degree(),
            plan.scheme.replicas().iter().max().unwrap(),
            plan.imbalance_bound,
            plan.measured_imbalance_cv,
        );
    }

    // A closer look at the optimal plan.
    let best = planner.plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)?;
    println!("\n== adams+slf plan ==");
    print!("{}", vod_model::summary::scheme_summary(&best.scheme, 8));
    print!(
        "{}",
        vod_model::summary::layout_summary(&best.layout, &best.weights)
    );

    println!("\n== simulating the peak hour (λ = 40 req/min, 90 min) ==");
    let mut rng = ChaCha8Rng::seed_from_u64(2002);
    for (repl, plc) in [
        (ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst),
        (ReplicationAlgo::Classification, PlacementAlgo::RoundRobin),
    ] {
        let plan = planner.plan(repl, plc)?;
        let report = planner.simulate(&plan, 40.0, SimConfig::default(), &mut rng)?;
        println!(
            "{:>7}+{:<4} arrivals {:>5}  rejected {:>4} ({:>6.2}%)  \
             peak streams {:>5}  avg L {:.1}%",
            repl.name(),
            plc.name(),
            report.arrivals,
            report.rejected,
            report.rejection_rate * 100.0,
            report.peak_concurrent_streams,
            report.mean_imbalance_cv * 100.0,
        );
        assert!(report.is_conservative());
    }
    Ok(())
}
