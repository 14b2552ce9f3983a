//! Differential property tests for the streaming arrival pipeline.
//!
//! Two contracts, each locked by proptest over randomized worlds:
//!
//! 1. **Draw-for-draw identity** — every streaming source
//!    ([`vod_workload::StreamingTrace`], [`vod_workload::StreamingDrift`],
//!    [`vod_workload::StreamingThinned`]) yields *exactly* the request
//!    sequence its materialized twin produces from the same seed:
//!    identical videos and bit-identical arrival times, across random
//!    rates, skews, horizons, segment schedules, diurnal/pulse shapes
//!    and churn periods. This is the property that lets the engine swap
//!    a multi-GiB trace for an O(catalog) source without moving a
//!    single golden byte.
//!
//! 2. **Engine equivalence** — pulling a streaming source through
//!    [`vod_sim::Simulation::run_streaming`] produces a [`SimReport`]
//!    JSON-equal to materializing the same workload and replaying it
//!    with [`vod_sim::Simulation::run`], at `shards = 1` (serial pull)
//!    and `shards = 8` (one pull routed to the decoupled workers on pod
//!    worlds, the serial loop on bridged ones).

use proptest::prelude::*;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, Popularity, ServerId, ServerSpec, VideoId};
use vod_sim::{SimConfig, Simulation};
use vod_workload::{
    ArrivalSource, CatalogChurn, DiurnalCycle, DriftingWorkload, FlashCrowd, RateModel, RatePulse,
    Request, ThinnedWorkload, TraceGenerator,
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
    fn streaming_trace_is_draw_identical(
        lambda in 0.5f64..60.0,
        m in 2usize..64,
        theta in 0.0f64..1.4,
        horizon in 5.0f64..120.0,
        seed in any::<u64>(),
    ) {
        let pop = Popularity::zipf(m, theta).unwrap();
        let generator = TraceGenerator::new(lambda, &pop, horizon).unwrap();
        let materialized = generator.generate(&mut ChaCha8Rng::seed_from_u64(seed));
        let streamed = collect(generator.stream(ChaCha8Rng::seed_from_u64(seed)));
        assert_identical(materialized.requests(), &streamed);
    }

    #[test]
    fn streaming_drift_is_draw_identical(
        lambda in 0.5f64..30.0,
        m in 4usize..48,
        horizon in 20.0f64..90.0,
        n_segments in 1usize..7,
        swaps in 0u32..9,
        flash_at in prop::option::of(0.1f64..0.9),
        flash_boost in 1.5f64..8.0,
        seed in any::<u64>(),
    ) {
        let base = Popularity::zipf(m, 1.0).unwrap();
        let mut workload = DriftingWorkload::new(
            base,
            horizon,
            horizon / n_segments as f64,
            swaps,
            seed ^ 0xD21F7,
        )
        .unwrap();
        if let Some(at_frac) = flash_at {
            workload = workload
                .with_flash_crowds(vec![FlashCrowd {
                    at_min: at_frac * horizon,
                    video: VideoId((m - 1) as u32),
                    boost: flash_boost,
                }])
                .unwrap();
        }
        let materialized = workload
            .generate(lambda, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        let streamed = collect(workload.stream(lambda, ChaCha8Rng::seed_from_u64(seed)).unwrap());
        assert_identical(materialized.requests(), &streamed);
    }

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
