//! JSON round-trips for every serializable planning artifact — plans,
//! traces and reports are archived by the experiment harness, so their
//! encodings must be stable and lossless.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_core::prelude::*;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn popularity_roundtrip() {
    let pop = Popularity::zipf(30, 0.73).unwrap();
    assert_eq!(roundtrip(&pop), pop);
}

#[test]
fn catalog_and_cluster_roundtrip() {
    let catalog = Catalog::paper_default(10).unwrap();
    assert_eq!(roundtrip(&catalog), catalog);
    let cluster = ClusterSpec::paper_default(5);
    assert_eq!(roundtrip(&cluster), cluster);
}

#[test]
fn scheme_and_layout_roundtrip() {
    let scheme = ReplicationScheme::new(vec![3, 2, 1, 1]).unwrap();
    assert_eq!(roundtrip(&scheme), scheme);
    let layout = Layout::new(
        3,
        vec![
            vec![ServerId(0), ServerId(1), ServerId(2)],
            vec![ServerId(1), ServerId(2)],
            vec![ServerId(0)],
            vec![ServerId(2)],
        ],
    )
    .unwrap();
    assert_eq!(roundtrip(&layout), layout);
}

#[test]
fn full_plan_roundtrip() {
    let planner = ClusterPlanner::builder()
        .catalog(Catalog::paper_default(20).unwrap())
        .cluster(ClusterSpec::paper_default(5))
        .popularity(Popularity::zipf(20, 1.0).unwrap())
        .demand_requests(500.0)
        .build()
        .unwrap();
    let plan = planner
        .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    let back: vod_core::Plan = roundtrip(&plan);
    assert_eq!(back.scheme, plan.scheme);
    assert_eq!(back.layout, plan.layout);
    assert_eq!(back.weights, plan.weights);
    assert_eq!(back.imbalance_bound, plan.imbalance_bound);
}

#[test]
fn trace_roundtrip() {
    let pop = Popularity::zipf(15, 0.8).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let trace = TraceGenerator::new(20.0, &pop, 30.0)
        .unwrap()
        .generate(&mut rng);
    assert_eq!(roundtrip(&trace), trace);
}

#[test]
fn sim_report_roundtrip() {
    let planner = ClusterPlanner::builder()
        .catalog(Catalog::paper_default(15).unwrap())
        .cluster(ClusterSpec::paper_default(4))
        .popularity(Popularity::zipf(15, 1.0).unwrap())
        .demand_requests(500.0)
        .build()
        .unwrap();
    let plan = planner
        .plan(ReplicationAlgo::ZipfInterval, PlacementAlgo::RoundRobin)
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let config = SimConfig {
        horizon_min: 45.0,
        ..SimConfig::default()
    };
    let report = planner.simulate(&plan, 15.0, config, &mut rng).unwrap();
    assert_eq!(roundtrip(&report), report);
}

#[test]
fn failure_plan_roundtrip() {
    use vod_sim::{FailurePlan, Outage};
    let plan = FailurePlan::new(vec![
        Outage {
            server: ServerId(2),
            down_at_min: 10.0,
            up_at_min: Some(20.0),
        },
        Outage {
            server: ServerId(0),
            down_at_min: 40.0,
            up_at_min: None,
        },
    ])
    .unwrap();
    assert_eq!(roundtrip(&plan), plan);
}

#[test]
fn scalable_state_roundtrip() {
    use vod_anneal::{MultiRateState, RatedReplica, ScalableState};
    let s = ScalableState {
        rates: vec![BitRate::MPEG1, BitRate::MPEG2],
        assignments: vec![vec![ServerId(0)], vec![ServerId(1), ServerId(0)]],
    };
    assert_eq!(roundtrip(&s), s);
    let m = MultiRateState {
        replicas: vec![vec![
            RatedReplica {
                server: ServerId(0),
                rate: BitRate::MPEG1,
            },
            RatedReplica {
                server: ServerId(1),
                rate: BitRate::STUDIO,
            },
        ]],
    };
    assert_eq!(roundtrip(&m), m);
}

#[test]
fn day_report_roundtrip() {
    let d = vod_core::DayReport {
        day: 3,
        rejection_rate: 0.05,
        imbalance_cv: 0.12,
        migrated_replicas: 17,
        estimate_tv: 0.3,
    };
    assert_eq!(roundtrip(&d), d);
}
