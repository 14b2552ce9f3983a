//! Cross-crate integration: the full plan → place → simulate pipeline on
//! the paper's setup, exercising every algorithm combination.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_core::prelude::*;

fn planner(m: usize, theta: f64, slots: u64) -> ClusterPlanner {
    ClusterPlanner::builder()
        .catalog(Catalog::paper_default(m).unwrap())
        .cluster(ClusterSpec::paper_default(slots))
        .popularity(Popularity::zipf(m, theta).unwrap())
        .demand_requests(3_600.0)
        .build()
        .unwrap()
}

#[test]
fn every_combo_plans_and_simulates_cleanly() {
    let p = planner(80, 1.0, 15);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for repl in [
        ReplicationAlgo::Adams,
        ReplicationAlgo::ZipfInterval,
        ReplicationAlgo::Classification,
        ReplicationAlgo::Uniform,
    ] {
        for plc in [PlacementAlgo::RoundRobin, PlacementAlgo::SmallestLoadFirst] {
            let plan = p.plan(repl, plc).unwrap();
            // Structural constraints.
            plan.scheme.validate(8).unwrap();
            plan.layout
                .validate_storage(p.catalog(), p.cluster())
                .unwrap();
            for v in 0..plan.layout.n_videos() {
                let servers = plan.layout.replicas_of(VideoId(v as u32));
                let mut sorted = servers.to_vec();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), servers.len(), "{repl:?}+{plc:?} v{v}");
            }
            // Simulation conservation.
            let report = p
                .simulate(&plan, 30.0, SimConfig::default(), &mut rng)
                .unwrap();
            assert!(report.is_conservative(), "{repl:?}+{plc:?}");
        }
    }
}

#[test]
fn layout_scheme_is_the_planned_scheme() {
    let p = planner(60, 0.8, 12);
    let plan = p
        .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    assert_eq!(plan.layout.scheme(), plan.scheme);
}

#[test]
fn expected_loads_sum_to_total_demand() {
    let p = planner(60, 0.8, 12);
    for repl in [ReplicationAlgo::Adams, ReplicationAlgo::Classification] {
        let plan = p.plan(repl, PlacementAlgo::SmallestLoadFirst).unwrap();
        let total: f64 = plan.expected_loads.iter().sum();
        // Every video's full demand (p_i · λT) is carried somewhere.
        assert!((total - 3_600.0).abs() < 1e-6, "{repl:?}: {total}");
    }
}

#[test]
fn adams_and_zipf_schemes_agree_in_quality() {
    // Paper, Sec. 5: "the Zipf replication and the Adams replication
    // achieved nearly the same results in most test cases".
    let p = planner(200, 0.75, 35);
    let adams = p
        .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    let zipf = p
        .plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )
        .unwrap();
    assert_eq!(adams.scheme.total(), zipf.scheme.total());
    let wa = adams.imbalance_bound;
    let wz = zipf.imbalance_bound;
    assert!(wz <= wa * 1.5 + 1e-9, "zipf bound {wz} vs adams {wa}");
}

#[test]
fn slf_statically_dominates_rr_across_setups() {
    for theta in [0.271, 0.5, 1.0] {
        for slots in [10u64, 15, 20] {
            let p = planner(80, theta, slots);
            for repl in [ReplicationAlgo::Adams, ReplicationAlgo::Classification] {
                let slf = p.plan(repl, PlacementAlgo::SmallestLoadFirst).unwrap();
                let rr = p.plan(repl, PlacementAlgo::RoundRobin).unwrap();
                assert!(
                    slf.measured_imbalance_cv <= rr.measured_imbalance_cv + 1e-9,
                    "θ={theta} slots={slots} {repl:?}: slf {} > rr {}",
                    slf.measured_imbalance_cv,
                    rr.measured_imbalance_cv
                );
            }
        }
    }
}

#[test]
fn simulated_rejection_orders_like_the_paper() {
    // zipf+slf should not reject more than class+rr at the capacity rate
    // (averaged over a few seeds).
    let p = planner(100, 1.0, 18); // degree 1.44
    let good = p
        .plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )
        .unwrap();
    let base = p
        .plan(ReplicationAlgo::Classification, PlacementAlgo::RoundRobin)
        .unwrap();
    let mut good_sum = 0.0;
    let mut base_sum = 0.0;
    for seed in 0..6u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
        good_sum += p
            .simulate(&good, 40.0, SimConfig::default(), &mut rng)
            .unwrap()
            .rejection_rate;
        let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
        base_sum += p
            .simulate(&base, 40.0, SimConfig::default(), &mut rng)
            .unwrap()
            .rejection_rate;
    }
    assert!(
        good_sum <= base_sum + 0.01,
        "zipf+slf {good_sum} vs class+rr {base_sum}"
    );
}

#[test]
fn heterogeneous_cluster_extension_works() {
    // Two big + two small servers; pipeline must respect per-server slots.
    use vod_model::ServerSpec;
    use vod_placement::traits::PlacementInput;
    use vod_placement::{PlacementPolicy, SmallestLoadFirstPlacement};
    use vod_replication::{BoundedAdamsReplication, ReplicationPolicy};

    let m = 30;
    let pop = Popularity::zipf(m, 0.8).unwrap();
    let per_replica = BitRate::MPEG2.storage_bytes(5_400);
    let cluster = ClusterSpec::heterogeneous(vec![
        ServerSpec {
            storage_bytes: 12 * per_replica,
            bandwidth_kbps: 1_800_000,
        },
        ServerSpec {
            storage_bytes: 12 * per_replica,
            bandwidth_kbps: 1_800_000,
        },
        ServerSpec {
            storage_bytes: 6 * per_replica,
            bandwidth_kbps: 900_000,
        },
        ServerSpec {
            storage_bytes: 6 * per_replica,
            bandwidth_kbps: 900_000,
        },
    ])
    .unwrap();
    let capacities: Vec<u64> = cluster
        .servers()
        .iter()
        .map(|s| s.replica_slots(BitRate::MPEG2, 5_400))
        .collect();
    // Leave slack: the greedy SLF has no lookahead, so an exactly-full
    // heterogeneous cluster can strand a multi-replica video on servers
    // that already hold it (documented limitation in vod-placement).
    let scheme = BoundedAdamsReplication
        .replicate(&pop, 4, capacities.iter().sum::<u64>() - 2)
        .unwrap();
    let weights = scheme.weights(&pop, 1_000.0).unwrap();
    let layout = SmallestLoadFirstPlacement
        .place(&PlacementInput {
            scheme: &scheme,
            weights: &weights,
            n_servers: 4,
            capacities: &capacities,
        })
        .unwrap();
    let counts = layout.replicas_per_server();
    for (j, (&c, &cap)) in counts.iter().zip(&capacities).enumerate() {
        assert!(c as u64 <= cap, "server {j}: {c} > {cap}");
    }
}
