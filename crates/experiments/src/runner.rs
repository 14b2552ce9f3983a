//! Parallel multi-run simulation driver.
//!
//! Every simulated data point in the paper is "an average of runs". One
//! point of any experiment is a *cell*: `run_cell` runs `setup.runs`
//! seeded replications of one world — the per-seed `SimConfig` and trace
//! are the caller's, the seed schedule, horizon, shard count, bind and
//! telemetry are the cell's — fanned out over OS threads and returned in
//! run order, so the reports never depend on scheduling. `mean` averages
//! one field over a cell, [`aggregate`] folds it into [`PointStats`], and
//! [`run_point`] does both for a planned point under a Poisson trace.
//! Figures 4–6 sweep such points over λ with `lambda_sweep`.

use crate::config::PaperSetup;
use crate::report::{Reporter, Table};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vod_core::{ClusterPlanner, PlacementAlgo, Plan, ReplicationAlgo};
use vod_model::{Catalog, ClusterSpec, Layout, ModelError};
use vod_sim::{AdmissionPolicy, SimConfig, SimReport, Simulation};
use vod_telemetry::Telemetry;
use vod_workload::{stats, Trace, TraceGenerator};

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
    /// The bounded-Adams pairing: SA-1's fixed-rate reference, C-2's
    /// plans and A-3's re-plans.
    pub const ADAMS_SLF: Combo = Combo {
        replication: ReplicationAlgo::Adams,
        placement: PlacementAlgo::SmallestLoadFirst,
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

    /// The planned world: the planner's catalog and cluster with the
    /// plan's layout.
    pub(crate) fn world(&self) -> World<'_> {
        World {
            catalog: self.planner.catalog(),
            cluster: self.planner.cluster(),
            layout: &self.plan.layout,
        }
    }
}

/// What every run of a cell simulates on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct World<'a> {
    /// The titles.
    pub(crate) catalog: &'a Catalog,
    /// The servers.
    pub(crate) cluster: &'a ClusterSpec,
    /// Which servers hold which titles.
    pub(crate) layout: &'a Layout,
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

/// Runs one cell: `setup.runs` replications of `world`, run `r` seeded
/// `base_seed ^ r·0x9E37_79B9_7F4A_7C15`. Each run binds `config(seed)`
/// with `setup`'s horizon and shard count, replays `trace` drawn from a
/// ChaCha8 RNG seeded with `seed`, and records its `sim.*` instruments
/// into `telemetry` (shared across the worker threads, so counters
/// accumulate over the cell). Returns the reports in run order, or the
/// first error in run order.
pub(crate) fn run_cell(
    setup: &PaperSetup,
    world: World<'_>,
    base_seed: u64,
    config: impl Fn(u64) -> SimConfig + Sync,
    trace: impl Fn(&mut ChaCha8Rng) -> Result<Trace, ModelError> + Sync,
    telemetry: &Telemetry,
) -> Result<Vec<SimReport>, ModelError> {
    replicate(setup.runs, base_seed, |seed| {
        let config = SimConfig {
            horizon_min: setup.horizon_min,
            shards: setup.shards,
            ..config(seed)
        };
        let sim = Simulation::new(world.catalog, world.cluster, world.layout, config)?;
        sim.run_with_telemetry(&trace(&mut ChaCha8Rng::seed_from_u64(seed))?, telemetry)
    })
}

/// The mean of `f` over a cell's reports.
pub(crate) fn mean(reports: &[SimReport], f: impl Fn(&SimReport) -> f64) -> f64 {
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

/// Runs one cell of `point` under `policy` at arrival rate
/// `lambda_per_min` (a Poisson trace over `point`'s popularity) and
/// averages it into a [`PointStats`].
pub fn run_point(
    setup: &PaperSetup,
    point: &PlannedPoint,
    lambda_per_min: f64,
    policy: AdmissionPolicy,
    base_seed: u64,
    telemetry: &Telemetry,
) -> Result<PointStats, ModelError> {
    let generator = TraceGenerator::new(
        lambda_per_min,
        point.planner.popularity(),
        setup.horizon_min,
    )?;
    let reports = run_cell(
        setup,
        point.world(),
        base_seed,
        |_| SimConfig {
            policy,
            ..SimConfig::default()
        },
        |rng| Ok(generator.generate(rng)),
        telemetry,
    )?;
    Ok(aggregate_with_capacity(
        lambda_per_min,
        &reports,
        setup.streams_per_server(),
    ))
}

/// Regenerates one λ-sweep subplot of Figures 4–6: a row per rate of
/// `setup.lambda_sweep()`, a column per `(header, label, point)` run at
/// the paper's static round-robin admission with base seed
/// `seed ^ (k << 8)` for column `k`. The table shows `cell` of each
/// point's stats and is written as `<name>.csv`; every `(label, stats)`
/// pair goes to `<name>.json` in row-major order.
pub(crate) fn lambda_sweep<L: Serialize>(
    setup: &PaperSetup,
    reporter: &Reporter,
    name: &str,
    title: &str,
    seed: u64,
    columns: Vec<(String, L, PlannedPoint)>,
    cell: impl Fn(&PointStats) -> String,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut header = vec!["lambda/min"];
    header.extend(columns.iter().map(|(h, _, _)| h.as_str()));
    let mut table = Table::new(title, &header);
    let mut json_rows = Vec::new();
    for lambda in setup.lambda_sweep() {
        let mut cells = vec![format!("{lambda:.0}")];
        for (k, (_, label, point)) in columns.iter().enumerate() {
            let stats = run_point(
                setup,
                point,
                lambda,
                AdmissionPolicy::StaticRoundRobin,
                seed ^ ((k as u64) << 8),
                reporter.telemetry(),
            )?;
            cells.push(cell(&stats));
            json_rows.push((label, stats));
        }
        table.row(cells);
    }
    reporter.emit_table(name, &table)?;
    reporter.emit_json(name, &json_rows)?;
    Ok(())
}

/// Runs `runs` independent replications in parallel, run `r` as
/// `run(base_seed ^ r·0x9E37_79B9_7F4A_7C15)`, and returns the reports
/// in run order — or the first error in run order — so the result never
/// depends on scheduling.
fn replicate<E: Send>(
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
    fn run_cell_owns_the_horizon() {
        let setup = PaperSetup {
            horizon_min: 45.0,
            ..tiny_setup()
        };
        let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.2).unwrap();
        let generator = TraceGenerator::new(30.0, point.planner().popularity(), 45.0).unwrap();
        let cell = |horizon_min| {
            let config = |_| SimConfig {
                horizon_min,
                ..SimConfig::default()
            };
            let trace = |rng: &mut ChaCha8Rng| Ok(generator.generate(rng));
            let off = Telemetry::disabled();
            run_cell(&setup, point.world(), 5, config, trace, &off).unwrap()
        };
        let reports = cell(90.0);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports, cell(45.0));
        assert_eq!(reports, cell(1.0));
    }

    #[test]
    fn combo_labels() {
        assert_eq!(Combo::ZIPF_SLF.label(), "zipf+slf");
        assert_eq!(Combo::CLASS_RR.label(), "class+rr");
        assert_eq!(Combo::FIGURE_5.len(), 4);
    }
}
