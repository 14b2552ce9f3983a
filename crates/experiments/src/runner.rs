//! Parallel multi-run simulation driver.
//!
//! Every simulated data point in the paper is "an average of runs"; this
//! module builds the plan once (planning is deterministic), then fans the
//! independent replications out over OS threads with [`replicate`] — one
//! seed per run, results folded in run order so the aggregate is
//! identical regardless of scheduling. Every experiment's replications
//! go through it.

use crate::config::PaperSetup;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vod_core::{ClusterPlanner, PlacementAlgo, Plan, ReplicationAlgo};
use vod_model::ModelError;
use vod_sim::{AdmissionPolicy, SimConfig, SimReport, Simulation};
use vod_telemetry::Telemetry;
use vod_workload::{stats, TraceGenerator};

/// A replication × placement algorithm pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Combo {
    /// The replication algorithm.
    pub replication: ReplicationAlgo,
    /// The placement algorithm.
    pub placement: PlacementAlgo,
}

impl Combo {
    /// The paper's headline combination.
    pub const ZIPF_SLF: Combo = Combo {
        replication: ReplicationAlgo::ZipfInterval,
        placement: PlacementAlgo::SmallestLoadFirst,
    };
    /// The paper's baseline combination.
    pub const CLASS_RR: Combo = Combo {
        replication: ReplicationAlgo::Classification,
        placement: PlacementAlgo::RoundRobin,
    };
    /// Upgrade-the-placement-only combination.
    pub const CLASS_SLF: Combo = Combo {
        replication: ReplicationAlgo::Classification,
        placement: PlacementAlgo::SmallestLoadFirst,
    };
    /// Upgrade-the-replication-only combination.
    pub const ZIPF_RR: Combo = Combo {
        replication: ReplicationAlgo::ZipfInterval,
        placement: PlacementAlgo::RoundRobin,
    };

    /// The four combinations Figure 5 compares.
    pub const FIGURE_5: [Combo; 4] = [
        Combo::CLASS_RR,
        Combo::CLASS_SLF,
        Combo::ZIPF_RR,
        Combo::ZIPF_SLF,
    ];

    /// `"zipf+slf"`-style label.
    pub fn label(&self) -> String {
        format!("{}+{}", self.replication.name(), self.placement.name())
    }
}

/// Averaged simulation outcomes at one parameter point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointStats {
    /// Arrival rate λ (requests/min).
    pub lambda_per_min: f64,
    /// Mean rejection rate over the runs.
    pub rejection_rate: f64,
    /// 95% CI half-width of the rejection rate.
    pub rejection_ci95: f64,
    /// Mean time-averaged Eq. (3) imbalance (coefficient of variation),
    /// in percent.
    pub imbalance_cv_pct: f64,
    /// 95% CI half-width of the CV imbalance.
    pub imbalance_ci95_pct: f64,
    /// Mean time-averaged absolute Eq. (2) imbalance as a percentage of
    /// one server's stream capacity — Figure 6's axis (rises with load,
    /// peaks below saturation, falls when everything is full). Filled by
    /// [`run_point`]; zero from [`aggregate`], which does not know the
    /// capacity.
    pub imbalance_maxdev_pct_capacity: f64,
    /// Mean redirected-stream share of admissions (backbone ablation).
    pub redirected_share: f64,
    /// Runs averaged.
    pub runs: u32,
}

/// A plan bound to its planner, reusable across a λ sweep.
pub struct PlannedPoint {
    planner: ClusterPlanner,
    /// The computed plan (scheme + layout + predictions).
    pub plan: Plan,
}

impl PlannedPoint {
    /// The planner (catalog/cluster/popularity) behind this plan.
    pub fn planner(&self) -> &ClusterPlanner {
        &self.planner
    }
}

/// Builds the plan for `(combo, theta, degree)` under `setup`.
pub fn build_plan(
    setup: &PaperSetup,
    combo: Combo,
    theta: f64,
    degree: f64,
) -> Result<PlannedPoint, ModelError> {
    let planner = ClusterPlanner::builder()
        .catalog(setup.catalog()?)
        .cluster(setup.cluster(degree))
        .popularity(setup.popularity(theta)?)
        .demand_requests(setup.capacity_demand())
        .build()?;
    let plan = planner.plan(combo.replication, combo.placement)?;
    Ok(PlannedPoint { planner, plan })
}

/// Runs `setup.runs` seeded replications at arrival rate `lambda_per_min`
/// in parallel and averages. Every replication records its `sim.*`
/// engine instruments into `telemetry` (shared across the worker
/// threads, so counters accumulate over all runs of the point).
pub fn run_point(
    setup: &PaperSetup,
    point: &PlannedPoint,
    lambda_per_min: f64,
    policy: AdmissionPolicy,
    base_seed: u64,
    telemetry: &Telemetry,
) -> Result<PointStats, ModelError> {
    let reports = run_replications(setup, point, lambda_per_min, policy, base_seed, telemetry)?;
    Ok(aggregate_with_capacity(
        lambda_per_min,
        &reports,
        setup.streams_per_server(),
    ))
}

/// Runs the replications and returns the raw per-run reports, recording
/// engine instruments into `telemetry`.
pub fn run_replications(
    setup: &PaperSetup,
    point: &PlannedPoint,
    lambda_per_min: f64,
    policy: AdmissionPolicy,
    base_seed: u64,
    telemetry: &Telemetry,
) -> Result<Vec<SimReport>, ModelError> {
    let generator = TraceGenerator::new(
        lambda_per_min,
        point.planner.popularity(),
        setup.horizon_min,
    )?;
    let config = SimConfig {
        policy,
        horizon_min: setup.horizon_min,
        shards: setup.shards,
        ..SimConfig::default()
    };
    let sim = Simulation::new(
        point.planner.catalog(),
        point.planner.cluster(),
        &point.plan.layout,
        config,
    )?;
    replicate(setup.runs, base_seed, |seed| {
        let trace = generator.generate(&mut ChaCha8Rng::seed_from_u64(seed));
        sim.run_with_telemetry(&trace, telemetry)
    })
}

/// Runs `runs` independent replications in parallel, run `r` as
/// `run(base_seed ^ r·0x9E37_79B9_7F4A_7C15)`, and returns the reports
/// in run order — or the first error in run order — so the result never
/// depends on scheduling.
pub fn replicate<E: Send>(
    runs: u32,
    base_seed: u64,
    run: impl Fn(u64) -> Result<SimReport, E> + Sync,
) -> Result<Vec<SimReport>, E> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(runs as usize)
        .max(1);
    let (tx, rx) = crossbeam::channel::unbounded();
    std::thread::scope(|scope| {
        for worker in 0..threads as u32 {
            let (tx, run) = (tx.clone(), &run);
            scope.spawn(move || {
                for r in (worker..runs).step_by(threads) {
                    let seed = base_seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    tx.send((r, run(seed))).expect("receiver alive");
                }
            });
        }
    });
    drop(tx);
    let mut results: Vec<(u32, Result<SimReport, E>)> = rx.iter().collect();
    results.sort_by_key(|(r, _)| *r);
    results.into_iter().map(|(_, report)| report).collect()
}

/// Folds raw reports into a [`PointStats`]; `stream_capacity` (streams
/// per server link, 450 in the paper's setting) normalizes the absolute
/// Eq. (2) imbalance for the Figure 6 axis.
fn aggregate_with_capacity(
    lambda_per_min: f64,
    reports: &[SimReport],
    stream_capacity: u64,
) -> PointStats {
    let mut stats = aggregate(lambda_per_min, reports);
    if stream_capacity > 0 {
        let maxdev: Vec<f64> = reports
            .iter()
            .map(|r| r.mean_imbalance_maxdev_streams / stream_capacity as f64 * 100.0)
            .collect();
        stats.imbalance_maxdev_pct_capacity = stats::sample_mean(&maxdev);
    }
    stats
}

/// Folds raw reports into a [`PointStats`].
pub fn aggregate(lambda_per_min: f64, reports: &[SimReport]) -> PointStats {
    let rejections: Vec<f64> = reports.iter().map(|r| r.rejection_rate).collect();
    let imbalances: Vec<f64> = reports
        .iter()
        .map(|r| r.mean_imbalance_cv * 100.0)
        .collect();
    let redirected: Vec<f64> = reports
        .iter()
        .map(|r| {
            if r.admitted == 0 {
                0.0
            } else {
                r.redirected as f64 / r.admitted as f64
            }
        })
        .collect();
    PointStats {
        lambda_per_min,
        rejection_rate: stats::sample_mean(&rejections),
        rejection_ci95: stats::ci95_half_width(&rejections),
        imbalance_cv_pct: stats::sample_mean(&imbalances),
        imbalance_ci95_pct: stats::ci95_half_width(&imbalances),
        redirected_share: stats::sample_mean(&redirected),
        imbalance_maxdev_pct_capacity: 0.0,
        runs: reports.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RR: AdmissionPolicy = AdmissionPolicy::StaticRoundRobin;

    fn tiny_setup() -> PaperSetup {
        PaperSetup {
            n_videos: 40,
            runs: 4,
            ..PaperSetup::default()
        }
    }

    #[test]
    fn plan_and_run_roundtrip() {
        let setup = tiny_setup();
        let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.2).unwrap();
        let stats = run_point(&setup, &point, 20.0, RR, 42, &Telemetry::disabled()).unwrap();
        assert_eq!(stats.runs, 4);
        assert!(stats.rejection_rate >= 0.0 && stats.rejection_rate <= 1.0);
        assert!(stats.imbalance_cv_pct >= 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let setup = tiny_setup();
        let point = build_plan(&setup, Combo::CLASS_RR, 0.5, 1.4).unwrap();
        let a = run_point(&setup, &point, 30.0, RR, 7, &Telemetry::disabled()).unwrap();
        let b = run_point(&setup, &point, 30.0, RR, 7, &Telemetry::disabled()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn overload_rejects_heavily() {
        let setup = tiny_setup();
        let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.6).unwrap();
        let light = run_point(&setup, &point, 8.0, RR, 1, &Telemetry::disabled()).unwrap();
        let heavy = run_point(&setup, &point, 60.0, RR, 1, &Telemetry::disabled()).unwrap();
        assert!(heavy.rejection_rate > light.rejection_rate);
        assert!(heavy.rejection_rate > 0.2, "{}", heavy.rejection_rate);
    }

    #[test]
    fn combo_labels() {
        assert_eq!(Combo::ZIPF_SLF.label(), "zipf+slf");
        assert_eq!(Combo::CLASS_RR.label(), "class+rr");
        assert_eq!(Combo::FIGURE_5.len(), 4);
    }
}
