//! Cross-crate integration: failure injection and adaptive re-replication
//! (the availability and run-time-dynamics extensions of DESIGN.md).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_core::prelude::*;
use vod_core::{AdaptiveConfig, AdaptiveRunner, ReplanStrategy};
use vod_model::ServerId;
use vod_sim::{
    AdmissionConfig, BrownoutModel, FailoverPolicy, FailureModel, FailurePlan, Outage, QueuePolicy,
    RepairConfig,
};
use vod_workload::drift::{RankRotation, Stationary};

fn planner(m: usize, slots: u64) -> ClusterPlanner {
    ClusterPlanner::builder()
        .catalog(Catalog::paper_default(m).unwrap())
        .cluster(ClusterSpec::paper_default(slots))
        .popularity(Popularity::zipf(m, 1.0).unwrap())
        .demand_requests(3_600.0)
        .build()
        .unwrap()
}

fn outage_at(server: u32, down: f64, up: Option<f64>) -> FailurePlan {
    FailurePlan::new(vec![Outage {
        server: ServerId(server),
        down_at_min: down,
        up_at_min: up,
    }])
    .unwrap()
}

#[test]
fn failure_increases_rejections_and_counts_disruptions() {
    let p = planner(80, 15);
    let plan = p
        .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(500);
        TraceGenerator::new(30.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };

    let run = |failures: FailurePlan| {
        let config = SimConfig {
            failures,
            ..SimConfig::default()
        };
        Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap()
    };

    let healthy = run(FailurePlan::none());
    let failed = run(outage_at(0, 20.0, None));
    assert_eq!(healthy.disrupted, 0);
    assert!(failed.disrupted > 0, "streams on s0 must be killed");
    assert!(
        failed.rejected > healthy.rejected,
        "losing 1/8 of capacity must cost admissions: {} vs {}",
        failed.rejected,
        healthy.rejected
    );
    assert!(failed.is_conservative());
}

#[test]
fn recovery_limits_the_damage() {
    let p = planner(80, 15);
    let plan = p
        .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(501);
        TraceGenerator::new(30.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    let run = |failures: FailurePlan| {
        let config = SimConfig {
            failures,
            ..SimConfig::default()
        };
        Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap()
    };
    let permanent = run(outage_at(0, 20.0, None));
    let transient = run(outage_at(0, 20.0, Some(35.0)));
    assert!(
        transient.rejected <= permanent.rejected,
        "a 15-minute outage cannot reject more than a permanent one: {} vs {}",
        transient.rejected,
        permanent.rejected
    );
}

#[test]
fn failover_policy_exploits_replicas_during_outage() {
    let p = planner(80, 20); // degree 2; uniform replication => exactly 2 each
    let plan = p
        .plan(ReplicationAlgo::Uniform, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    assert!(plan.scheme.replicas().iter().all(|&r| r >= 2));
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(502);
        TraceGenerator::new(20.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    let run = |policy: AdmissionPolicy| {
        let config = SimConfig {
            policy,
            failures: outage_at(3, 10.0, None),
            ..SimConfig::default()
        };
        Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap()
    };
    let strict = run(AdmissionPolicy::StaticRoundRobin);
    let failover = run(AdmissionPolicy::RoundRobinFailover);
    // At 50% load with full 2x replication, failover should absorb nearly
    // everything the dead server would have served.
    assert!(
        failover.rejected < strict.rejected / 2,
        "failover {} vs strict {}",
        failover.rejected,
        strict.rejected
    );
}

#[test]
fn multiple_staggered_outages_stay_conservative() {
    let p = planner(60, 12);
    let plan = p
        .plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )
        .unwrap();
    let failures = FailurePlan::new(vec![
        Outage {
            server: ServerId(1),
            down_at_min: 10.0,
            up_at_min: Some(25.0),
        },
        Outage {
            server: ServerId(1),
            down_at_min: 50.0,
            up_at_min: Some(55.0),
        },
        Outage {
            server: ServerId(4),
            down_at_min: 30.0,
            up_at_min: None,
        },
    ])
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(503);
    let trace = TraceGenerator::new(40.0, p.popularity(), 90.0)
        .unwrap()
        .generate(&mut rng);
    let config = SimConfig {
        failures,
        ..SimConfig::default()
    };
    let report = Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
        .unwrap()
        .run(&trace)
        .unwrap();
    assert!(report.is_conservative());
    assert!(report.disrupted > 0);
}

#[test]
fn adaptive_runner_beats_static_under_sustained_drift() {
    let m = 80;
    let base = Popularity::zipf(m, 1.0).unwrap();
    let drift = RankRotation::new(base.clone(), 8).unwrap();
    let run = |strategy: ReplanStrategy| {
        let runner = AdaptiveRunner::new(
            Catalog::paper_default(m).unwrap(),
            ClusterSpec::paper_default(14), // degree 1.4
            base.p().to_vec(),
            AdaptiveConfig {
                replication: ReplicationAlgo::Adams,
                placement: PlacementAlgo::SmallestLoadFirst,
                replan_placement: Default::default(),
                strategy,
                lambda_per_min: 36.0,
                horizon_min: 90.0,
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(504);
        runner.run_days(&drift, 6, &mut rng).unwrap()
    };
    let sum =
        |days: &[vod_core::DayReport]| -> f64 { days[1..].iter().map(|d| d.rejection_rate).sum() };
    let static_total = sum(&run(ReplanStrategy::Static));
    let oracle_total = sum(&run(ReplanStrategy::Oracle));
    assert!(
        oracle_total < static_total,
        "oracle {oracle_total} must beat static {static_total} under drift"
    );
}

#[test]
fn adaptive_runner_is_harmless_without_drift() {
    // With a correct prior and no drift, re-planning cannot help — and
    // its observed-counts estimate must stay close to the truth.
    let m = 60;
    let base = Popularity::zipf(m, 1.0).unwrap();
    let drift = Stationary::new(base.clone());
    let runner = AdaptiveRunner::new(
        Catalog::paper_default(m).unwrap(),
        ClusterSpec::paper_default(11),
        base.p().to_vec(),
        AdaptiveConfig {
            replication: ReplicationAlgo::Adams,
            placement: PlacementAlgo::SmallestLoadFirst,
            replan_placement: Default::default(),
            strategy: ReplanStrategy::Adaptive { smoothing: 0.5 },
            lambda_per_min: 30.0,
            horizon_min: 90.0,
        },
    )
    .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(505);
    let days = runner.run_days(&drift, 4, &mut rng).unwrap();
    for d in &days[1..] {
        // Sampling noise only: the EWMA estimate stays near the truth.
        assert!(d.estimate_tv < 0.15, "day {} tv {}", d.day, d.estimate_tv);
    }
}

#[test]
fn failure_model_runs_are_byte_identical_across_reruns() {
    // Identical seeds must give bit-identical reports even with the full
    // recovery stack engaged: stochastic faults, failover with
    // degradation, and active repair.
    let p = planner(60, 16);
    let plan = p
        .plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(506);
        TraceGenerator::new(30.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    // Roomier storage than the exact-fit plan so repair can place copies.
    let sim_cluster = ClusterSpec::paper_default(20);
    let config = SimConfig {
        policy: AdmissionPolicy::RoundRobinFailover,
        failure_model: Some(FailureModel::exponential(45.0, 12.0, 0xF00D)),
        repair: RepairConfig {
            bandwidth_kbps: 80_000,
            max_concurrent: 4,
        },
        failover: FailoverPolicy::ResumeOrDegrade,
        ..SimConfig::default()
    };
    let run = || {
        Simulation::new(p.catalog(), &sim_cluster, &plan.layout, config.clone())
            .unwrap()
            .run(&trace)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    assert!(a.disrupted + a.resumed + a.degraded > 0);
    assert!(a.repair_bytes_copied > 0, "repair must engage in this run");
    assert!(a.is_conservative());
}

#[test]
fn zero_repair_bandwidth_is_exactly_the_passive_run() {
    // bandwidth_kbps = 0 must reproduce the no-repair engine behavior
    // byte for byte, whatever the concurrency knob says.
    let p = planner(60, 14);
    let plan = p
        .plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(507);
        TraceGenerator::new(30.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    let run = |repair: RepairConfig| {
        let config = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failure_model: Some(FailureModel::exponential(60.0, 15.0, 0xBEEF)),
            repair,
            failover: FailoverPolicy::Resume,
            ..SimConfig::default()
        };
        let report = Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap();
        serde_json::to_string(&report).unwrap()
    };
    let passive = run(RepairConfig::default());
    assert_eq!(
        passive,
        run(RepairConfig {
            bandwidth_kbps: 0,
            max_concurrent: 1
        })
    );
    assert_eq!(
        passive,
        run(RepairConfig {
            bandwidth_kbps: 0,
            max_concurrent: 64
        })
    );
}

#[test]
fn failover_strictly_beats_unconditional_kill() {
    let p = planner(80, 20); // uniform degree 2: every video has a backup
    let plan = p
        .plan(ReplicationAlgo::Uniform, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(508);
        TraceGenerator::new(20.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    let run = |failover: FailoverPolicy| {
        let config = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failures: outage_at(2, 30.0, Some(60.0)),
            failover,
            ..SimConfig::default()
        };
        Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap()
    };
    let kill = run(FailoverPolicy::Kill);
    let rescue = run(FailoverPolicy::ResumeOrDegrade);
    assert!(kill.disrupted > 0);
    assert_eq!(kill.resumed + kill.degraded, 0);
    assert!(rescue.resumed + rescue.degraded > 0);
    assert!(
        rescue.disrupted < kill.disrupted,
        "failover {} must beat kill {}",
        rescue.disrupted,
        kill.disrupted
    );
}

// ---- overload resilience (admission pipeline + brownouts) ----

/// Golden pre-pipeline reports (seed 509, λ = 45/min): serialized by the
/// engine *before* the admission pipeline and brownout fault type
/// existed. The admission-era fields a current report adds are absent
/// here and fill in via serde defaults; [`assert_matches_golden`]
/// compares only the pre-existing fields, pinning the passive engine
/// byte-for-byte to its pre-pipeline behavior.
const GOLDEN_PLAIN: &str = r#"{"arrivals":3953,"admitted":3600,"rejected":353,"redirected":0,"disrupted":0,"resumed":0,"degraded":0,"repair_bytes_copied":0,"repair_copies":0,"time_to_redundancy_min":0.0,"redundancy_deficit_video_min":0.0,"unavailability_video_min":0.0,"rejection_rate":0.08929926637996459,"mean_imbalance_cv":0.031968854952146505,"mean_imbalance_maxdev_rel":0.05263091038760992,"mean_imbalance_maxdev_streams":7.350274725274725,"peak_concurrent_streams":3600,"mean_concurrent_streams":1971.9222222222222,"per_video_arrivals":[858,407,296,230,160,157,131,108,91,70,76,63,62,57,59,51,42,45,52,44,37,44,39,29,30,34,29,38,30,27,20,27,20,21,24,24,20,21,19,26,25,19,20,16,19,18,18,18,18,12,18,16,7,9,16,23,14,15,17,17],"per_video_rejections":[78,43,22,18,11,12,14,7,10,5,5,6,3,8,2,8,4,8,3,4,3,5,7,3,2,4,1,2,2,1,3,2,1,4,3,4,0,3,1,2,2,2,2,3,3,2,2,0,1,2,1,0,1,0,0,2,1,2,1,2],"series":[]}"#;

const GOLDEN_RECOV: &str = r#"{"arrivals":3953,"admitted":3033,"rejected":920,"redirected":0,"disrupted":1018,"resumed":683,"degraded":0,"repair_bytes_copied":75600000000,"repair_copies":28,"time_to_redundancy_min":72.12871666666666,"redundancy_deficit_video_min":1411.7601833333333,"unavailability_video_min":593.2588166666666,"rejection_rate":0.23273463192512017,"mean_imbalance_cv":0.5939335329428566,"mean_imbalance_maxdev_rel":0.5823345877828479,"mean_imbalance_maxdev_streams":114.2239010989011,"peak_concurrent_streams":2700,"mean_concurrent_streams":1538.3666666666666,"per_video_arrivals":[858,407,296,230,160,157,131,108,91,70,76,63,62,57,59,51,42,45,52,44,37,44,39,29,30,34,29,38,30,27,20,27,20,21,24,24,20,21,19,26,25,19,20,16,19,18,18,18,18,12,18,16,7,9,16,23,14,15,17,17],"per_video_rejections":[144,73,56,41,39,25,21,21,27,16,17,18,12,20,13,14,11,12,9,18,13,12,13,6,15,14,14,15,8,4,8,7,5,11,8,9,3,9,10,10,5,7,4,6,10,6,7,7,7,6,5,3,3,4,5,14,4,4,7,5],"series":[]}"#;

/// Asserts every pre-pipeline field of `got` equals the golden record
/// (exact float equality: the runs are deterministic and the golden JSON
/// round-trips bit-exactly).
fn assert_matches_golden(got: &vod_sim::SimReport, golden: &str) {
    let want: vod_sim::SimReport = serde_json::from_str(golden).unwrap();
    assert_eq!(got.arrivals, want.arrivals);
    assert_eq!(got.admitted, want.admitted);
    assert_eq!(got.rejected, want.rejected);
    assert_eq!(got.redirected, want.redirected);
    assert_eq!(got.disrupted, want.disrupted);
    assert_eq!(got.resumed, want.resumed);
    assert_eq!(got.degraded, want.degraded);
    assert_eq!(got.repair_bytes_copied, want.repair_bytes_copied);
    assert_eq!(got.repair_copies, want.repair_copies);
    assert_eq!(got.time_to_redundancy_min, want.time_to_redundancy_min);
    assert_eq!(
        got.redundancy_deficit_video_min,
        want.redundancy_deficit_video_min
    );
    assert_eq!(got.unavailability_video_min, want.unavailability_video_min);
    assert_eq!(got.rejection_rate, want.rejection_rate);
    assert_eq!(got.mean_imbalance_cv, want.mean_imbalance_cv);
    assert_eq!(
        got.mean_imbalance_maxdev_rel,
        want.mean_imbalance_maxdev_rel
    );
    assert_eq!(
        got.mean_imbalance_maxdev_streams,
        want.mean_imbalance_maxdev_streams
    );
    assert_eq!(got.peak_concurrent_streams, want.peak_concurrent_streams);
    assert_eq!(got.mean_concurrent_streams, want.mean_concurrent_streams);
    assert_eq!(got.per_video_arrivals, want.per_video_arrivals);
    assert_eq!(got.per_video_rejections, want.per_video_rejections);
    assert_eq!(got.series, want.series);
}

fn golden_scenario() -> (ClusterPlanner, vod_core::Plan, vod_workload::Trace) {
    let p = planner(60, 14);
    let plan = p
        .plan(
            ReplicationAlgo::ZipfInterval,
            PlacementAlgo::SmallestLoadFirst,
        )
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(509);
        TraceGenerator::new(45.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    (p, plan, trace)
}

#[test]
fn default_config_reproduces_pre_pipeline_golden_reports() {
    let (p, plan, trace) = golden_scenario();
    // Plain blocking run, all resilience features at their defaults.
    let plain = Simulation::new(p.catalog(), p.cluster(), &plan.layout, SimConfig::default())
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_matches_golden(&plain, GOLDEN_PLAIN);

    // The full recovery stack (crashes, failover, repair) with the
    // admission pipeline left passive.
    let config = SimConfig {
        policy: AdmissionPolicy::RoundRobinFailover,
        failure_model: Some(FailureModel::exponential(45.0, 12.0, 0xF00D)),
        repair: RepairConfig {
            bandwidth_kbps: 80_000,
            max_concurrent: 4,
        },
        failover: FailoverPolicy::ResumeOrDegrade,
        ..SimConfig::default()
    };
    let sim_cluster = ClusterSpec::paper_default(20);
    let recov = Simulation::new(p.catalog(), &sim_cluster, &plan.layout, config)
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_matches_golden(&recov, GOLDEN_RECOV);
}

#[test]
fn golden_reports_hold_at_eight_shards() {
    // The same two golden scenarios, replayed through the sharded
    // engine: `shards: 8` must reproduce every golden field exactly.
    let (p, plan, trace) = golden_scenario();
    let plain = Simulation::new(
        p.catalog(),
        p.cluster(),
        &plan.layout,
        SimConfig {
            shards: 8,
            ..SimConfig::default()
        },
    )
    .unwrap()
    .run(&trace)
    .unwrap();
    assert_matches_golden(&plain, GOLDEN_PLAIN);

    let config = SimConfig {
        policy: AdmissionPolicy::RoundRobinFailover,
        failure_model: Some(FailureModel::exponential(45.0, 12.0, 0xF00D)),
        repair: RepairConfig {
            bandwidth_kbps: 80_000,
            max_concurrent: 4,
        },
        failover: FailoverPolicy::ResumeOrDegrade,
        shards: 8,
        ..SimConfig::default()
    };
    let sim_cluster = ClusterSpec::paper_default(20);
    let recov = Simulation::new(p.catalog(), &sim_cluster, &plan.layout, config)
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_matches_golden(&recov, GOLDEN_RECOV);
}

/// The full report of one A-7-style controller run (see
/// [`drift_golden_run`]): pins the controller's apportionment, the
/// actuator's replanning, copy scheduling and retirement, and their
/// interplay with repair and failover, field for field.
const GOLDEN_DRIFT: &str = r#"{"arrivals":2970,"admitted":2858,"rejected":112,"redirected":0,"disrupted":127,"resumed":422,"degraded":0,"queued":0,"retried":0,"abandoned":0,"degraded_served":0,"mean_wait_min":0.0,"wait_p50_min":0.0,"wait_p95_min":0.0,"goodput":0.9280630670283078,"brownout_active_min":0.0,"repair_bytes_copied":5400000000,"repair_copies":2,"time_to_redundancy_min":87.0,"redundancy_deficit_video_min":2950.1015666666663,"unavailability_video_min":1843.1792,"controller_ticks":90,"controller_backoffs":50,"controller_promotions":37,"controller_demotions":22,"controller_retired":52,"controller_copies":87,"controller_bytes_copied":234900000000,"rejection_rate":0.03771043771043771,"mean_imbalance_cv":0.42616109944859376,"mean_imbalance_maxdev_rel":0.4131589408941083,"mean_imbalance_maxdev_streams":60.739010989010985,"peak_concurrent_streams":2731,"mean_concurrent_streams":1397.9333333333334,"per_video_arrivals":[347,150,126,100,61,108,63,28,48,26,52,26,41,25,32,25,18,25,15,23,18,24,18,16,18,15,15,11,10,11,16,14,13,4,12,14,7,9,11,9,10,10,2,6,8,7,8,4,9,5,8,6,7,6,7,4,4,8,9,8,5,10,4,4,7,8,5,10,3,8,8,5,5,5,5,1,6,6,4,8,3,3,4,3,2,3,2,2,3,2,4,2,1,6,8,5,3,2,4,2,8,10,3,4,5,5,3,3,1,2,3,1,4,1,1,2,4,7,1,2,4,4,2,3,1,6,4,4,3,3,1,3,4,2,2,2,2,0,6,1,5,3,4,1,4,1,1,0,5,1,2,3,3,1,3,2,1,4,3,5,2,1,3,2,4,2,1,1,2,5,3,5,3,3,1,2,4,1,0,0,1,1,3,4,3,5,1,5,0,0,2,2,3,1,4,1,2,1,204,582],"per_video_rejections":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,5,0,0,0,0,0,0,0,0,0,6,0,0,0,0,0,0,3,0,0,0,0,0,0,0,0,0,0,0,2,2,0,0,5,2,0,0,0,3,1,0,1,0,0,1,0,0,1,0,0,5,0,3,0,0,0,2,0,3,0,0,0,0,3,0,0,2,0,0,0,1,0,1,3,0,0,0,1,3,0,0,0,1,0,0,2,0,0,0,0,3,0,0,0,0,0,0,2,0,0,0,0,0,2,1,0,0,0,0,1,0,0,0,0,0,1,0,0,1,0,0,1,0,0,0,0,0,0,0,1,0,0,0,0,0,1,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,34,0],"series":[]}"#;

/// A-7's controller cell with faults on the paper cluster
/// ([`vod_experiments::controller::DriftWorld`] under
/// `controller::cell_config`): a zipf+slf plan at degree 1.4 on
/// degree-1.6 storage, drifting demand with two flash crowds at 85 % of
/// capacity drawn from A-7's base seed, the controller on a 1-min tick,
/// metered 200 Mbps repair, exponential faults from run seed 0, resume
/// failover and least-loaded dispatch. Instruments record into
/// `telemetry`.
fn drift_golden_run(shards: usize, telemetry: &vod_telemetry::Telemetry) -> vod_sim::SimReport {
    use vod_experiments::config::PaperSetup;
    use vod_experiments::controller::{cell_config, DriftWorld, SEED};

    let setup = PaperSetup::default();
    let a7 = DriftWorld::new(&setup).unwrap();
    let trace = a7
        .workload
        .generate(a7.lambda_per_min, &mut ChaCha8Rng::seed_from_u64(SEED))
        .unwrap();
    let config = SimConfig {
        horizon_min: setup.horizon_min,
        shards,
        ..cell_config(1, 0, true, true)
    };
    Simulation::new(&a7.catalog, &a7.cluster, &a7.layout, config)
        .unwrap()
        .run_with_telemetry(&trace, telemetry)
        .unwrap()
}

#[test]
fn controller_golden_holds_at_one_and_eight_shards() {
    for shards in [1, 8] {
        let r = drift_golden_run(shards, &vod_telemetry::Telemetry::disabled());
        // The controller only demotes to fund a raise once the free
        // slots are spent, so demotions prove the slot budget filled up.
        assert!(r.controller_demotions > 0 && r.controller_retired > 0);
        assert!(r.controller_copies > 0 && r.repair_copies > 0);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            GOLDEN_DRIFT,
            "shards = {shards}"
        );
    }
}

#[test]
fn sharded_runs_are_byte_identical_across_policy_combos() {
    // Every policy combination this suite covers, replayed at shards=1
    // and shards=8: the serialized reports must match byte for byte.
    let (p, plan, trace) = golden_scenario();
    let combos: Vec<(&str, SimConfig)> = vec![
        ("plain", SimConfig::default()),
        (
            "recovery",
            SimConfig {
                policy: AdmissionPolicy::RoundRobinFailover,
                failure_model: Some(FailureModel::exponential(45.0, 12.0, 0xF00D)),
                repair: RepairConfig {
                    bandwidth_kbps: 80_000,
                    max_concurrent: 4,
                },
                failover: FailoverPolicy::ResumeOrDegrade,
                ..SimConfig::default()
            },
        ),
        (
            "queueing",
            SimConfig {
                admission: AdmissionConfig {
                    policy: QueuePolicy::Queue { patience_min: 2.0 },
                    max_retries: 2,
                    ..AdmissionConfig::default()
                },
                ..SimConfig::default()
            },
        ),
        (
            "brownout+degrade+audit",
            SimConfig {
                policy: AdmissionPolicy::RoundRobinFailover,
                failure_model: Some(FailureModel::brownouts_only(
                    BrownoutModel {
                        mtbf_min: 40.0,
                        mttr_min: 12.0,
                        min_capacity_frac: 0.3,
                        max_capacity_frac: 0.7,
                    },
                    0xB120,
                )),
                failover: FailoverPolicy::ResumeOrDegrade,
                admission: AdmissionConfig {
                    policy: QueuePolicy::QueueOrDegrade { patience_min: 1.0 },
                    max_retries: 2,
                    ..AdmissionConfig::default()
                },
                audit: true,
                ..SimConfig::default()
            },
        ),
        (
            "backbone",
            SimConfig {
                policy: AdmissionPolicy::BackboneRedirect {
                    backbone_capacity_kbps: 400_000,
                },
                ..SimConfig::default()
            },
        ),
    ];
    for (name, base) in combos {
        let run = |shards: usize| {
            let config = SimConfig {
                shards,
                ..base.clone()
            };
            let report = Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
                .unwrap()
                .run(&trace)
                .unwrap();
            serde_json::to_string(&report).unwrap()
        };
        assert_eq!(run(1), run(8), "combo `{name}` diverged at shards=8");
    }
}

#[test]
fn passive_admission_configs_are_byte_identical_to_block() {
    let (p, plan, trace) = golden_scenario();
    let run = |admission: AdmissionConfig, audit: bool| {
        let config = SimConfig {
            admission,
            audit,
            ..SimConfig::default()
        };
        let report = Simulation::new(p.catalog(), p.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap();
        serde_json::to_string(&report).unwrap()
    };
    let block = run(AdmissionConfig::default(), false);
    // Zero-patience queueing degenerates to blocking...
    assert_eq!(
        block,
        run(
            AdmissionConfig {
                policy: QueuePolicy::Queue { patience_min: 0.0 },
                ..AdmissionConfig::default()
            },
            false
        )
    );
    // ...the admission seed is inert while the pipeline is passive...
    assert_eq!(
        block,
        run(
            AdmissionConfig {
                seed: 0xDEAD_BEEF,
                ..AdmissionConfig::default()
            },
            false
        )
    );
    // ...and the invariant auditor observes without perturbing.
    assert_eq!(block, run(AdmissionConfig::default(), true));
}

#[test]
fn brownout_runs_are_deterministic_conservative_and_audited() {
    let p = planner(80, 20); // uniform degree 2: shedding can rescue
    let plan = p
        .plan(ReplicationAlgo::Uniform, PlacementAlgo::SmallestLoadFirst)
        .unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(510);
        TraceGenerator::new(30.0, p.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    let config = SimConfig {
        policy: AdmissionPolicy::RoundRobinFailover,
        failure_model: Some(FailureModel::brownouts_only(
            BrownoutModel {
                mtbf_min: 40.0,
                mttr_min: 12.0,
                min_capacity_frac: 0.3,
                max_capacity_frac: 0.7,
            },
            0xB120,
        )),
        failover: FailoverPolicy::ResumeOrDegrade,
        admission: AdmissionConfig {
            policy: QueuePolicy::QueueOrDegrade { patience_min: 1.0 },
            max_retries: 2,
            ..AdmissionConfig::default()
        },
        audit: true, // auditor checks every event even in release builds
        ..SimConfig::default()
    };
    let run = || {
        Simulation::new(p.catalog(), p.cluster(), &plan.layout, config.clone())
            .unwrap()
            .run(&trace)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    assert!(a.brownout_active_min > 0.0, "brownouts must strike");
    assert!(a.goodput > 0.0 && a.goodput <= 1.0, "{}", a.goodput);
    assert!(a.is_conservative());
}

#[test]
fn overload_experiment_is_reproducible() {
    use vod_experiments::{overload, PaperSetup};
    use vod_telemetry::Telemetry;
    let setup = PaperSetup {
        n_videos: 40,
        runs: 2,
        ..PaperSetup::default()
    };
    let run = || {
        let telemetry = Telemetry::enabled();
        let rows = overload::compute(&setup, &telemetry).unwrap();
        (serde_json::to_string(&rows).unwrap(), telemetry.snapshot())
    };
    let (rows_a, snap_a) = run();
    let (rows_b, snap_b) = run();
    assert_eq!(rows_a, rows_b, "A-6 rows must replay bit-identically");
    assert_eq!(
        snap_a.counters, snap_b.counters,
        "A-6 instrument counters must replay bit-identically"
    );
    // The sweep must actually exercise the whole pipeline.
    for name in [
        "sim.admission.queued",
        "sim.admission.retried",
        "sim.admission.abandoned",
        "sim.admission.degraded",
        "sim.brownout.active_min",
    ] {
        assert!(snap_a.counter(name) > 0, "counter {name} never fired");
    }
}

#[test]
fn all_replicated_redundancy_map_reproduces_goldens() {
    // Attaching an explicit all-`Replicated` redundancy map to the
    // golden layout must change nothing: the coded-serving machinery
    // stays disengaged and both golden scenarios reproduce byte for
    // byte, at one shard and at eight.
    use vod_model::redundancy::{RedundancyMap, RedundancyScheme};
    use vod_model::Layout;

    let (p, plan, trace) = golden_scenario();
    let assignments = plan.layout.assignments().to_vec();
    let map = RedundancyMap::new(
        assignments
            .iter()
            .map(|a| RedundancyScheme::Replicated { r: a.len() as u32 })
            .collect(),
    )
    .unwrap();
    let layout = Layout::with_redundancy(plan.layout.n_servers(), assignments, map).unwrap();
    assert!(!layout.any_coded());

    for shards in [1usize, 8] {
        let plain = Simulation::new(
            p.catalog(),
            p.cluster(),
            &layout,
            SimConfig {
                shards,
                ..SimConfig::default()
            },
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        assert_matches_golden(&plain, GOLDEN_PLAIN);

        let config = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failure_model: Some(FailureModel::exponential(45.0, 12.0, 0xF00D)),
            repair: RepairConfig {
                bandwidth_kbps: 80_000,
                max_concurrent: 4,
            },
            failover: FailoverPolicy::ResumeOrDegrade,
            shards,
            ..SimConfig::default()
        };
        let sim_cluster = ClusterSpec::paper_default(20);
        let recov = Simulation::new(p.catalog(), &sim_cluster, &layout, config)
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_matches_golden(&recov, GOLDEN_RECOV);
    }
}

#[test]
fn coded_layout_survives_failures_end_to_end() {
    // A uniformly (2, 1)-coded catalog under the exponential failure
    // model with coded repair: streams ride out single-fragment losses
    // as degraded reads, the run stays conservative, and the report is
    // byte-identical across reruns and shard counts.
    use vod_model::redundancy::{RedundancyMap, RedundancyScheme};
    use vod_placement::place_coded;
    use vod_telemetry::Telemetry;

    let catalog = Catalog::paper_default(40).unwrap();
    let cluster = ClusterSpec::paper_default(30);
    let map = RedundancyMap::uniform(40, RedundancyScheme::Coded { k: 2, m: 1 }).unwrap();
    let layout = place_coded(cluster.len(), &map).unwrap();
    let pop = Popularity::zipf(40, 1.0).unwrap();
    let trace = {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0DED);
        TraceGenerator::new(20.0, &pop, 90.0)
            .unwrap()
            .generate(&mut rng)
    };
    let run = |shards: usize| {
        let config = SimConfig {
            failure_model: Some(FailureModel::exponential(60.0, 12.0, 0xF00D)),
            repair: RepairConfig {
                bandwidth_kbps: 80_000,
                max_concurrent: 8,
            },
            failover: FailoverPolicy::ResumeOrDegrade,
            shards,
            ..SimConfig::default()
        };
        let tel = Telemetry::enabled();
        let r = Simulation::new(&catalog, &cluster, &layout, config)
            .unwrap()
            .run_with_telemetry(&trace, &tel)
            .unwrap();
        (r, tel.snapshot())
    };
    let (r, snap) = run(1);
    assert!(r.admitted > 0);
    assert!(r.is_conservative());
    // Fragment losses were survived, not fatal: shares re-attached.
    assert!(r.resumed > 0, "no degraded-read failover fired");
    assert!(snap.counter("sim.coded.degraded_reads") > 0);
    assert!(
        snap.counter("sim.repair.coded.reconstructions") > 0,
        "coded repair never completed a reconstruction"
    );
    let (r1, _) = run(1);
    assert_eq!(
        serde_json::to_string(&r).unwrap(),
        serde_json::to_string(&r1).unwrap(),
        "coded runs must replay byte-identically"
    );
    let (r8, _) = run(8);
    assert_eq!(
        serde_json::to_string(&r).unwrap(),
        serde_json::to_string(&r8).unwrap(),
        "coded runs must be shard-invariant"
    );
}

/// The deterministic part of a telemetry snapshot, one line per
/// instrument: every counter's value, every histogram's observation
/// count, and sum/min/max of the histograms that observe simulation
/// figures rather than wall-clock times.
fn telemetry_fingerprint(snap: &vod_telemetry::Snapshot) -> String {
    const SIMULATED: [&str; 3] = [
        "sim.admission.wait_min_pctl",
        "sim.queue.peak_len",
        "sim.repair.time_to_redundancy_min",
    ];
    let mut lines: Vec<String> = snap
        .counters
        .iter()
        .map(|(name, v)| format!("counter {name} {v}"))
        .collect();
    for (name, h) in &snap.histograms {
        let mut line = format!("histogram {name} count={}", h.count);
        if SIMULATED.contains(&name.as_str()) {
            line += &format!(" sum={:?} min={:?} max={:?}", h.sum, h.min, h.max);
        }
        lines.push(line);
    }
    lines.join("\n")
}

/// A (2, 1)-coded catalog under crashes *and* brownouts with coded
/// repair, degrading failover and a queueing admission pipeline with
/// retries, loaded hard enough that every one of those layers acts.
fn coded_overload_run(shards: usize, telemetry: &vod_telemetry::Telemetry) -> vod_sim::SimReport {
    use vod_model::redundancy::{RedundancyMap, RedundancyScheme};
    use vod_placement::place_coded;

    let catalog = Catalog::paper_default(40).unwrap();
    let cluster = ClusterSpec::paper_default(30);
    let map = RedundancyMap::uniform(40, RedundancyScheme::Coded { k: 2, m: 1 }).unwrap();
    let layout = place_coded(cluster.len(), &map).unwrap();
    let pop = Popularity::zipf(40, 1.0).unwrap();
    let trace = TraceGenerator::new(45.0, &pop, 90.0)
        .unwrap()
        .generate(&mut ChaCha8Rng::seed_from_u64(0xC0DED));
    let config = SimConfig {
        policy: AdmissionPolicy::RoundRobinFailover,
        failure_model: Some(FailureModel {
            brownouts: Some(BrownoutModel {
                mtbf_min: 40.0,
                mttr_min: 12.0,
                min_capacity_frac: 0.3,
                max_capacity_frac: 0.7,
            }),
            ..FailureModel::exponential(60.0, 12.0, 0xF00D)
        }),
        repair: RepairConfig {
            bandwidth_kbps: 80_000,
            max_concurrent: 8,
        },
        failover: FailoverPolicy::ResumeOrDegrade,
        admission: AdmissionConfig {
            policy: QueuePolicy::QueueOrDegrade { patience_min: 1.0 },
            max_retries: 2,
            ..AdmissionConfig::default()
        },
        audit: true,
        shards,
        ..SimConfig::default()
    };
    Simulation::new(&catalog, &cluster, &layout, config)
        .unwrap()
        .run_with_telemetry(&trace, telemetry)
        .unwrap()
}

#[test]
fn counter_goldens_hold_at_one_and_eight_shards() {
    use vod_telemetry::Telemetry;
    for shards in [1, 8] {
        let telemetry = Telemetry::enabled();
        drift_golden_run(shards, &telemetry);
        assert_eq!(
            telemetry_fingerprint(&telemetry.snapshot()),
            GOLDEN_COUNTERS_DRIFT,
            "drift scenario, shards = {shards}"
        );

        let telemetry = Telemetry::enabled();
        let r = coded_overload_run(shards, &telemetry);
        assert!(r.queued > 0 && r.retried > 0 && r.abandoned > 0 && r.degraded_served > 0);
        assert!(r.brownout_active_min > 0.0 && r.disrupted > 0 && r.resumed > 0);
        assert!(r.wait_p95_min > 0.0);
        assert_eq!(
            telemetry_fingerprint(&telemetry.snapshot()),
            GOLDEN_COUNTERS_CODED,
            "coded overload scenario, shards = {shards}"
        );
    }
}

#[test]
fn concurrent_runs_sharing_one_telemetry_count_events_exactly() {
    // Replications split over two threads that record into one shared
    // registry (as the experiment runner does) must publish exactly
    // what the same runs publish on one thread, and `sim.events` must
    // stay the sum of its six parts.
    use std::sync::Barrier;
    use vod_telemetry::{Snapshot, Telemetry};
    const RUNS: u64 = 64;
    let (p, plan, _) = golden_scenario();
    let traces: Vec<_> = (0..RUNS)
        .map(|seed| {
            TraceGenerator::new(45.0, p.popularity(), 90.0)
                .unwrap()
                .generate(&mut ChaCha8Rng::seed_from_u64(0x5EED + seed))
        })
        .collect();
    let config = SimConfig {
        failures: outage_at(2, 20.0, Some(50.0)),
        admission: AdmissionConfig {
            policy: QueuePolicy::Queue { patience_min: 1.0 },
            max_retries: 1,
            ..AdmissionConfig::default()
        },
        ..SimConfig::default()
    };
    let sim = Simulation::new(p.catalog(), p.cluster(), &plan.layout, config).unwrap();
    // With a barrier, the two threads start each of their runs together,
    // so every shared-handle run overlaps the other thread's.
    let run_all =
        |traces: &[vod_workload::Trace], telemetry: &Telemetry, barrier: Option<&Barrier>| {
            for trace in traces {
                if let Some(barrier) = barrier {
                    barrier.wait();
                }
                sim.run_with_telemetry(trace, telemetry).unwrap();
            }
        };
    let parts = |snap: &Snapshot| {
        [
            "sim.arrivals",
            "sim.departures",
            "sim.transitions",
            "sim.samples",
            "sim.admission.retried",
            "sim.admission.abandoned",
        ]
        .iter()
        .map(|name| snap.counter(name))
        .sum::<u64>()
    };

    let serial = Telemetry::enabled();
    run_all(&traces, &serial, None);
    let serial = serial.snapshot();
    let shared = Telemetry::enabled();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for half in traces.chunks(traces.len() / 2) {
            let (shared, barrier) = (&shared, &barrier);
            scope.spawn(move || run_all(half, shared, Some(barrier)));
        }
    });
    let shared = shared.snapshot();

    assert!(serial.counter("sim.transitions") > 0 && serial.counter("sim.admission.retried") > 0);
    assert!(serial.counter("sim.admission.abandoned") > 0);
    assert_eq!(serial.counter("sim.events"), parts(&serial));
    assert_eq!(shared.counter("sim.events"), parts(&shared));
    assert_eq!(shared.counters, serial.counters);
}

/// [`telemetry_fingerprint`] of the [`drift_golden_run`] scenario: the
/// instrument names and values one run publishes, pinned.
const GOLDEN_COUNTERS_DRIFT: &str = "\
counter sim.admission.abandoned 0
counter sim.admission.degraded 0
counter sim.admission.queued 0
counter sim.admission.retried 0
counter sim.admission_probes 14687
counter sim.admitted 2858
counter sim.arrivals 2970
counter sim.controller.backoffs 50
counter sim.controller.bytes_copied 234900000000
counter sim.controller.copies 87
counter sim.controller.demotions 22
counter sim.controller.promotions 37
counter sim.controller.retired 52
counter sim.controller.ticks 90
counter sim.departures 2858
counter sim.disrupted 127
counter sim.events 5925
counter sim.redirected 0
counter sim.rejected 112
counter sim.repair.bytes_copied 5400000000
counter sim.repair.copies 2
counter sim.samples 91
counter sim.streams.degraded 0
counter sim.streams.resumed 422
counter sim.transitions 6
histogram sim.admission.wait_min_pctl count=2858 sum=0.0 min=0.0 max=0.0
histogram sim.engine.bytes_per_active_stream count=1
histogram sim.phase.control_tick_s count=1
histogram sim.phase.copy_completion_s count=1
histogram sim.phase.transition_s count=1
histogram sim.queue.peak_len count=1 sum=2858.0 min=2858.0 max=2858.0
histogram sim.repair.time_to_redundancy_min count=1 sum=87.0 min=87.0 max=87.0
histogram sim.run count=1";

/// [`telemetry_fingerprint`] of the [`coded_overload_run`] scenario.
const GOLDEN_COUNTERS_CODED: &str = "\
counter sim.admission.abandoned 613
counter sim.admission.degraded 5
counter sim.admission.queued 2023
counter sim.admission.retried 1318
counter sim.admission_probes 0
counter sim.admitted 3346
counter sim.arrivals 3959
counter sim.brownout.active_min 91
counter sim.coded.degraded_reads 3084
counter sim.coded.shares_reattached 2213
counter sim.departures 4272
counter sim.disrupted 1902
counter sim.events 10282
counter sim.redirected 0
counter sim.rejected 0
counter sim.repair.bytes_copied 81000000000
counter sim.repair.coded.bytes 162000000000
counter sim.repair.coded.reconstructions 60
counter sim.repair.copies 60
counter sim.samples 91
counter sim.streams.degraded 0
counter sim.streams.resumed 2213
counter sim.transitions 29
histogram sim.admission.wait_min_pctl count=3346 sum=455.1902166666666 min=0.0 max=12.224183333333333
histogram sim.engine.bytes_per_active_stream count=1
histogram sim.phase.copy_completion_s count=1
histogram sim.phase.transition_s count=1
histogram sim.queue.peak_len count=1 sum=5213.0 min=5213.0 max=5213.0
histogram sim.repair.time_to_redundancy_min count=1 sum=46.09063333333333 min=46.09063333333333 max=46.09063333333333
histogram sim.run count=1";
