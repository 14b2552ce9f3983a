//! Capacity planning: how much replica storage does a target SLO need?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```
//!
//! The scenario the paper's introduction motivates: an operator runs a
//! 12-server cluster with a 500-title catalog and wants the **cheapest
//! storage provisioning** that keeps the peak-hour rejection rate under
//! 1%. Storage is the knob (replication degree); the algorithms are the
//! paper's best combination (Adams + smallest-load-first). The example
//! sweeps the degree, simulates each provisioning at the expected peak
//! rate, and reports the recommendation.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_servers = 12;
    let m = 500;
    let theta = 0.8;
    let duration_s = 90 * 60;
    let bitrate = BitRate::MPEG2;
    let bandwidth_kbps = 1_000_000u64; // 1 Gbps links: 250 streams each

    // Expected peak: 98% of the cluster's 3000-stream link capacity —
    // rush hour, where balance decides who rejects (paper, Sec. 1: "The
    // objective of load balancing is to improve system throughput in
    // rush-hours and hence reduce the rejection rate").
    let peak_lambda = 0.98 * (n_servers as f64 * 250.0) / 90.0; // req/min
    let demand = peak_lambda * 90.0;
    let slo = 0.01;

    println!(
        "cluster: {n_servers} servers × 1 Gbps; catalog: {m} titles; \
         peak λ = {peak_lambda:.1} req/min; SLO: rejection < {:.0}%",
        slo * 100.0
    );
    println!();
    println!("degree  storage/server  rejection  avg L    verdict");

    let per_replica_gb = bitrate.storage_bytes(duration_s) as f64 / 1e9;
    let mut recommended = None;

    for step in 0..=10 {
        let degree = 1.0 + 0.1 * step as f64;
        let slots = ((degree * m as f64) / n_servers as f64).ceil() as u64;
        let cluster = ClusterSpec::homogeneous(
            n_servers,
            ServerSpec {
                storage_bytes: slots * bitrate.storage_bytes(duration_s),
                bandwidth_kbps,
            },
        )?;
        let planner = ClusterPlanner::builder()
            .catalog(Catalog::fixed_rate(m, bitrate, duration_s)?)
            .cluster(cluster)
            .popularity(Popularity::zipf(m, theta)?)
            .demand_requests(demand)
            .build()?;
        let plan = planner.plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)?;

        // Average a few seeded peak hours.
        let mut rejections = Vec::new();
        let mut imbalance = Vec::new();
        for seed in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(1_000 + seed);
            let r = planner.simulate(&plan, peak_lambda, SimConfig::default(), &mut rng)?;
            rejections.push(r.rejection_rate);
            imbalance.push(r.mean_imbalance_cv);
        }
        let mean_rej = rejections.iter().sum::<f64>() / rejections.len() as f64;
        let mean_l = imbalance.iter().sum::<f64>() / imbalance.len() as f64;

        let meets = mean_rej < slo;
        println!(
            "{:>6.1}  {:>11.1} GB  {:>8.2}%  {:>5.1}%  {}",
            degree,
            slots as f64 * per_replica_gb,
            mean_rej * 100.0,
            mean_l * 100.0,
            if meets { "meets SLO" } else { "-" }
        );
        if meets && recommended.is_none() {
            recommended = Some((degree, slots));
        }
    }

    println!();
    match recommended {
        Some((degree, slots)) => println!(
            "recommendation: provision degree {degree:.1} \
             ({slots} replica slots ≈ {:.0} GB per server)",
            slots as f64 * per_replica_gb
        ),
        None => println!(
            "no provisioning in the swept range meets the SLO — \
             the bottleneck is outgoing bandwidth, not storage"
        ),
    }
    Ok(())
}
