//! Differential and property tests for the streaming arrival pipeline.
//!
//! Two contracts, each locked by proptest over randomized worlds:
//!
//! 1. **Draw-for-draw identity** — the streaming source
//!    ([`vod_workload::StreamingThinned`]) yields *exactly* the request
//!    sequence its materialized twin ([`ThinnedWorkload::generate`])
//!    produces from the same seed: identical videos and bit-identical
//!    arrival times, across random rates, skews, horizons,
//!    diurnal/pulse shapes and churn periods. This is the property that
//!    lets the engine swap a multi-GiB trace for an O(catalog) source
//!    without moving a single golden byte.
//!
//! 2. **Engine equivalence** — pulling a streaming source through
//!    [`vod_sim::Simulation::run_streaming`] produces a [`SimReport`]
//!    JSON-equal to materializing the same workload and replaying it
//!    with [`vod_sim::Simulation::run`], at `shards = 1` (serial pull)
//!    and `shards = 8` (one pull routed to the decoupled workers on pod
//!    worlds, the serial loop on bridged ones).
//!
//! Two fixed-seed tests cover what callers rely on besides identity: a
//! source cloned mid-stream replays the same suffix (a benchmark clones
//! one fresh source per pass), and a constant [`RateModel`] streams
//! homogeneous Poisson arrivals.
//!
//! [`SimReport`]: vod_sim::SimReport

use proptest::prelude::*;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, Popularity, ServerId, ServerSpec};
use vod_sim::{SimConfig, Simulation};
use vod_workload::{
    ArrivalSource, CatalogChurn, DiurnalCycle, RateModel, RatePulse, Request, ThinnedWorkload,
};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn collect<S: ArrivalSource>(mut source: S) -> Vec<Request> {
    let mut out = Vec::new();
    while let Some(r) = source.next_request() {
        out.push(r);
    }
    out
}

/// Arrival times must match bit for bit (the engine orders events by
/// them), so compare with `==`, not a tolerance.
fn assert_identical(materialized: &[Request], streamed: &[Request]) {
    assert_eq!(materialized.len(), streamed.len(), "length diverged");
    for (i, (m, s)) in materialized.iter().zip(streamed).enumerate() {
        assert!(
            m.arrival_min == s.arrival_min && m.video == s.video,
            "request {i} diverged: materialized {m:?} vs streamed {s:?}"
        );
    }
}

proptest! {
    // 64 novel cases per property (the CI `PROPTEST_CASES` env caps
    // this further when set).
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_thinned_is_draw_identical(
        lambda in 0.5f64..40.0,
        m in 2usize..64,
        theta in 0.0f64..1.4,
        horizon in 10.0f64..180.0,
        diurnal_period in prop::option::of(20.0f64..200.0),
        diurnal_amplitude in 0.05f64..0.95,
        pulse_at in prop::option::of(0.0f64..0.8),
        pulse_duration in 5.0f64..40.0,
        pulse_multiplier in 1.5f64..5.0,
        churn_period in prop::option::of(10.0f64..60.0),
        churn_step in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rate = RateModel::constant(lambda).unwrap();
        if let Some(period_min) = diurnal_period {
            rate = rate
                .with_diurnal(DiurnalCycle { period_min, amplitude: diurnal_amplitude })
                .unwrap();
        }
        if let Some(start_frac) = pulse_at {
            rate = rate
                .with_pulses(vec![RatePulse {
                    start_min: start_frac * horizon,
                    duration_min: pulse_duration,
                    multiplier: pulse_multiplier,
                }])
                .unwrap();
        }
        let mut workload =
            ThinnedWorkload::new(rate, Popularity::zipf(m, theta).unwrap(), horizon).unwrap();
        if let Some(period_min) = churn_period {
            workload = workload
                .with_churn(CatalogChurn { period_min, step: churn_step })
                .unwrap();
        }
        let materialized = workload.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let streamed = collect(workload.stream(ChaCha8Rng::seed_from_u64(seed)).unwrap());
        assert_identical(materialized.requests(), &streamed);
    }

    #[test]
    fn streaming_engine_reports_match_materialized_at_shards_1_and_8(
        n_pods in 2usize..6,
        lambda in 2.0f64..25.0,
        theta in 0.0f64..1.2,
        horizon in 10.0f64..45.0,
        bridge in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Pod world: `n_pods` independent 4-server groups, 8 videos per
        // pod on 2-replica in-pod sets. `bridge` adds one video
        // replicated across pods, gluing the replica graph so shards=8
        // takes the serial loop instead of the decoupled worker path.
        const PER_POD: usize = 4;
        const VIDEOS_PER_POD: usize = 8;
        let n_servers = n_pods * PER_POD;
        let n_videos = n_pods * VIDEOS_PER_POD + usize::from(bridge);
        let catalog = Catalog::fixed_rate(n_videos, BitRate::MPEG2, 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            n_servers,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 40_000,
            },
        )
        .unwrap();
        let mut replicas: Vec<Vec<ServerId>> = (0..n_pods * VIDEOS_PER_POD)
            .map(|v| {
                let pod = v / VIDEOS_PER_POD;
                let w = v % VIDEOS_PER_POD;
                vec![
                    ServerId((pod * PER_POD + w % PER_POD) as u32),
                    ServerId((pod * PER_POD + (w + 1) % PER_POD) as u32),
                ]
            })
            .collect();
        if bridge {
            replicas.push(vec![ServerId(0), ServerId((n_servers - 1) as u32)]);
        }
        let layout = Layout::new(n_servers, replicas).unwrap();

        let rate = RateModel::constant(lambda)
            .unwrap()
            .with_diurnal(DiurnalCycle { period_min: horizon, amplitude: 0.5 })
            .unwrap();
        let workload =
            ThinnedWorkload::new(rate, Popularity::zipf(n_videos, theta).unwrap(), horizon)
                .unwrap();
        let trace = workload.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();

        let mut reports = Vec::new();
        for shards in [1usize, 8] {
            let sim = Simulation::new(
                &catalog,
                &cluster,
                &layout,
                SimConfig {
                    horizon_min: horizon,
                    shards,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            let materialized = sim.run(&trace).unwrap();
            let streamed = sim
                .run_streaming(workload.stream(ChaCha8Rng::seed_from_u64(seed)).unwrap())
                .unwrap();
            reports.push((shards, materialized, streamed));
        }
        let json = |r| serde_json::to_string(r).unwrap();
        let baseline = json(&reports[0].1);
        for (shards, materialized, streamed) in &reports {
            prop_assert_eq!(
                &json(materialized),
                &json(streamed),
                "streaming vs materialized diverged at shards={}",
                shards
            );
            prop_assert_eq!(
                &json(materialized),
                &baseline,
                "shards={} diverged from shards=1",
                shards
            );
        }
    }
}

#[test]
fn streaming_sources_are_cloneable_midstream() {
    // A cloned source replays the identical suffix from where it was
    // cloned: both RNG clones, the thinning clock and the churn epoch's
    // sampler travel with it.
    let rate = RateModel::constant(30.0)
        .unwrap()
        .with_diurnal(DiurnalCycle {
            period_min: 60.0,
            amplitude: 0.5,
        })
        .unwrap();
    let workload = ThinnedWorkload::new(rate, Popularity::zipf(20, 1.0).unwrap(), 90.0)
        .unwrap()
        .with_churn(CatalogChurn {
            period_min: 20.0,
            step: 3,
        })
        .unwrap();
    let mut a = workload.stream(ChaCha8Rng::seed_from_u64(12)).unwrap();
    for _ in 0..1_000 {
        a.next_request().unwrap();
    }
    let b = a.clone();
    let suffix = collect(a);
    assert!(!suffix.is_empty());
    assert_identical(&suffix, &collect(b));
}

#[test]
fn constant_rate_streams_a_homogeneous_poisson_hour() {
    // N(0, T) ~ Poisson(λT): the mean of `RUNS` counts has standard
    // deviation sqrt(λT / RUNS). Each quarter of the hour is Poisson
    // with a quarter of the mean, so a rate that drifted within the hour
    // would show there. Five standard deviations keeps the fixed seeds
    // far from the edge.
    const LAMBDA: f64 = 40.0;
    const HOUR: f64 = 60.0;
    const RUNS: u64 = 200;
    let workload = ThinnedWorkload::new(
        RateModel::constant(LAMBDA).unwrap(),
        Popularity::zipf(50, 1.0).unwrap(),
        HOUR,
    )
    .unwrap();
    let mut quarters = [0usize; 4];
    for seed in 0..RUNS {
        let requests = collect(workload.stream(ChaCha8Rng::seed_from_u64(seed)).unwrap());
        assert!(requests
            .windows(2)
            .all(|w| w[0].arrival_min <= w[1].arrival_min));
        for r in &requests {
            assert!(
                (0.0..HOUR).contains(&r.arrival_min),
                "{r:?} outside the hour"
            );
            quarters[(r.arrival_min / (HOUR / 4.0)) as usize] += 1;
        }
    }
    let within = |count: usize, expected: f64| {
        let mean = count as f64 / RUNS as f64;
        let tolerance = 5.0 * (expected / RUNS as f64).sqrt();
        assert!(
            (mean - expected).abs() < tolerance,
            "mean {mean} vs λT {expected} (tolerance {tolerance})"
        );
    };
    within(quarters.iter().sum(), LAMBDA * HOUR);
    for &q in &quarters {
        within(q, LAMBDA * HOUR / 4.0);
    }
}
