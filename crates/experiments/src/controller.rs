//! A-7 — the online replication controller under intra-run drift.
//!
//! The drift experiment (A-3) re-plans *between* days; this one closes
//! the loop *within* a single 90-minute peak period. The workload is a
//! piecewise-stationary [`DriftingWorkload`]: the Zipf ranking churns by
//! adjacent-rank swaps every 15 minutes, and two scheduled flash crowds
//! pin cold "new release" titles above the head mid-run — exactly the
//! demand a layout planned at t = 0 cannot have anticipated.
//!
//! Three operating modes run on identical traces (and, in the failure
//! variant, identical fault draws):
//!
//! * **static** — the paper's zipf+slf plan from the segment-0
//!   popularity, never changed (the baseline a planned-once cluster
//!   actually exhibits under drift);
//! * **controller** — the same starting plan with the online controller
//!   ([`vod_sim::ControllerConfig`]) sensing observed arrivals and
//!   re-replicating mid-run through the metered repair-bandwidth budget;
//! * **oracle** — a clairvoyant from-scratch re-plan: one layout
//!   computed from the run's true time-averaged segment weights (the
//!   drift trajectory is known to the workload generator, so the oracle
//!   reads it directly). Mid-run layout swaps cannot be represented in
//!   one simulation — streams span segment boundaries — so the oracle
//!   gets its recomputed plan instantly and for free at t = 0. It is
//!   therefore an upper bound the controller cannot meet: the controller
//!   pays sensing latency (EWMA warm-up), copy bandwidth and hysteresis
//!   on every move the oracle gets gratis.
//!
//! All modes simulate on a cluster provisioned with spare storage
//! (degree 1.6 slots for a degree-1.4 plan), as a real deployment
//! provisions headroom for rebuilds; the plans themselves stay at
//! degree 1.4, so the controller's ability to *use* the spare slots
//! online — and to fund further raises by retiring cooled replicas
//! once the spare pool is spent — is part of what is being measured.
//! Reported per cell: the served-request ratio, controller activity
//! (ticks, promotions, demotions, retirements, backoffs), and the
//! re-replication bandwidth bill — drift copies separate from
//! failure-repair copies.
//!
//! The control cadence matters twice over: a flash crowd saturates its
//! sole holder's link in minutes, after which no copy of that video can
//! even start (a copy reserves bandwidth on the *source* too — the
//! video becomes too hot to copy); and under faults the QoS guard
//! forfeits roughly every other tick to outages and failure repair, so
//! the cadence must leave enough acting ticks between outages. The
//! 1-minute tick satisfies both; a 3-minute tick still wins fault-free
//! but drops four points in the failure variant.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{build_plan, mean, run_cell, Combo, World};
use serde::Serialize;
use vod_core::{AdaptiveConfig, AdaptiveRunner, ReplanPlacement, ReplanStrategy};
use vod_model::{Catalog, ClusterSpec, Layout, ModelError, VideoId};
use vod_sim::{
    AdmissionPolicy, ControllerConfig, FailoverPolicy, FailureModel, RepairConfig, SimConfig,
};
use vod_telemetry::Telemetry;
use vod_workload::{DriftingWorkload, FlashCrowd};

/// A-7's base seed, shared by every cell: all three modes replay
/// identical traces and, with faults, identical fault draws.
pub const SEED: u64 = 0xC0A7;

/// Replication degree of the t = 0 plans.
const PLAN_DEGREE: f64 = 1.4;

/// Storage provisioning degree of the simulated cluster (spare slots
/// beyond the plan, available to online re-replication). Deliberately
/// modest: once the spare pool is spent the controller must *retire*
/// cooled replicas to fund new raises, which is the interesting regime
/// — a lavish budget would let it blanket-copy warm titles whose extra
/// replicas buy nothing but copy interference.
const STORAGE_DEGREE: f64 = 1.6;

/// Control-tick cadence, minutes. Two clocks bound it: the flash-crowd
/// saturation time-constant (≈ 8 min — once the crowd saturates its
/// sole holder's link, a copy can no longer reserve source bandwidth
/// and re-replication locks out) and, tighter, the fault regime — the
/// QoS guard forfeits every tick spent in an outage or behind failure
/// repair, about half of them here, so a 3-min tick leaves too few
/// acting ticks to chase the drift between outages.
const TICK_MIN: f64 = 1.0;

/// Per-copy re-replication bandwidth, kbps (shared with failure
/// repair): 200 Mbps moves one 2.7 GB replica in ~108 s.
const REPAIR_KBPS: u64 = 200_000;

/// Mean time between failures per server in the failure variant,
/// minutes.
const MTBF_MIN: f64 = 180.0;

/// Mean outage length in the failure variant, minutes.
const MTTR_MIN: f64 = 15.0;

/// One measured cell: an operating mode × failure regime.
#[derive(Debug, Clone, Serialize)]
pub struct ControllerRow {
    /// `"static"`, `"controller"` or `"oracle"`.
    pub mode: &'static str,
    /// Whether stochastic server faults were injected.
    pub failures: bool,
    /// Mean admitted/arrivals over the runs — the QoS headline.
    pub served_ratio_mean: f64,
    /// Mean rejection rate (1 − served ratio, kept for symmetry with
    /// the other experiment tables).
    pub rejection_rate_mean: f64,
    /// Mean control ticks per run.
    pub ticks_mean: f64,
    /// Mean ticks that backed off (outage, repair in flight, overload).
    pub backoffs_mean: f64,
    /// Mean replication-target raises per run.
    pub promotions_mean: f64,
    /// Mean replication-target lowerings per run.
    pub demotions_mean: f64,
    /// Mean replicas retired by demotions per run.
    pub retired_mean: f64,
    /// Mean bytes copied by controller re-replication per run — the
    /// bandwidth bill of chasing the drift.
    pub rebalance_bytes_mean: f64,
    /// Mean bytes copied by failure repair per run (failure variant).
    pub repair_bytes_mean: f64,
    /// Runs averaged.
    pub runs: u32,
}

/// A-7's world on one paper cluster, which every cell replays and
/// perf-smoke's drift measurement tiles into pods.
#[derive(Debug, Clone)]
pub struct DriftWorld {
    /// The paper catalog.
    pub catalog: Catalog,
    /// The simulated cluster, at storage degree 1.6.
    pub cluster: ClusterSpec,
    /// The static plan: zipf+slf at degree 1.4 from the segment-0 truth
    /// (= the base popularity, as everywhere else: video id = rank at
    /// t = 0).
    pub layout: Layout,
    /// The drifting workload every run samples from: 15-minute
    /// segments, one adjacent-rank swap per title per boundary, and two
    /// flash crowds on the two coldest titles (2× the head weight at
    /// t = 25, 1.5× at t = 55).
    pub workload: DriftingWorkload,
    /// 85% of capacity: hot enough that a mislaid replica visibly costs
    /// admissions, cool enough that the controller's overload backoff
    /// does not pin it down.
    pub lambda_per_min: f64,
}

impl DriftWorld {
    /// A-7's world under `setup`.
    pub fn new(setup: &PaperSetup) -> Result<Self, ModelError> {
        let m = setup.n_videos as u32;
        let point = build_plan(setup, Combo::ZIPF_SLF, 1.0, PLAN_DEGREE)?;
        let drift =
            DriftingWorkload::new(setup.popularity(1.0)?, setup.horizon_min, 15.0, m, 0xD21F)?;
        let crowds = vec![
            FlashCrowd {
                at_min: 25.0,
                video: VideoId(m - 1),
                boost: 2.0,
            },
            FlashCrowd {
                at_min: 55.0,
                video: VideoId(m - 2),
                boost: 1.5,
            },
        ];
        Ok(DriftWorld {
            catalog: setup.catalog()?,
            cluster: setup.cluster(STORAGE_DEGREE),
            layout: point.plan.layout,
            workload: drift.with_flash_crowds(crowds)?,
            lambda_per_min: 0.85 * setup.capacity_lambda_per_min(),
        })
    }
}

/// One A-7 run's engine settings on `pods` tiled copies of its cluster:
/// least-loaded dispatch, resume failover and metered repair; with
/// `failures`, exponential faults drawn from `seed ^ 0xFA`; with
/// `controlled`, the online controller. Each pod keeps A-7's repair
/// concurrency and per-tick change budget, and the whole tiled cluster
/// fails at one A-7 cluster's rate: the controller's QoS guard backs off
/// while any server is down, so a per-pod fault rate would pin it down.
pub fn cell_config(pods: usize, seed: u64, failures: bool, controlled: bool) -> SimConfig {
    let on = ControllerConfig {
        tick_min: TICK_MIN,
        ewma_window_ticks: 6,
        cooldown_ticks: 12,
        max_changes_per_tick: 8 * pods,
    };
    let off = ControllerConfig::default();
    SimConfig {
        policy: AdmissionPolicy::LeastLoadedReplica,
        failure_model: failures
            .then(|| FailureModel::exponential(MTBF_MIN * pods as f64, MTTR_MIN, seed ^ 0xFA)),
        repair: RepairConfig {
            bandwidth_kbps: REPAIR_KBPS,
            max_concurrent: 8 * pods,
        },
        controller: if controlled { on } else { off },
        failover: FailoverPolicy::Resume,
        ..SimConfig::default()
    }
}

/// The true time-averaged demand over the horizon, weighted by segment
/// length — what a clairvoyant planner would plan for.
fn mean_true_weights(w: &DriftingWorkload) -> Vec<f64> {
    let mut mean = vec![0.0; w.n_videos()];
    let mut total = 0.0;
    for k in 0..w.n_segments() {
        let (_, len) = w.segment_span(k);
        for (m, x) in mean.iter_mut().zip(w.segment_weights(k)) {
            *m += len * x;
        }
        total += len;
    }
    mean.iter_mut().for_each(|x| *x /= total);
    mean
}

/// Computes the six cells: {static, controller, oracle} × {fault-free,
/// stochastic faults}. Every cell runs `setup.runs` replications, each
/// with its own drifting trace (and fault draws in the failure variant);
/// all cells share one base seed, so modes differ only in layout and
/// controller knobs, never in demand.
/// Records every run's `sim.*` instruments (including the
/// `sim.controller.*` family) into `telemetry`.
pub fn compute(
    setup: &PaperSetup,
    telemetry: &Telemetry,
) -> Result<Vec<ControllerRow>, Box<dyn std::error::Error>> {
    let a7 = DriftWorld::new(setup)?;
    // Clairvoyant plan from the true time-averaged weights, at the same
    // planned degree (the planning cluster caps its slots; the sim
    // cluster's spare slots stay spare).
    let oracle_planner = AdaptiveRunner::new(
        a7.catalog.clone(),
        setup.cluster(PLAN_DEGREE),
        setup.popularity(1.0)?.p().to_vec(),
        AdaptiveConfig {
            replication: Combo::ZIPF_SLF.replication,
            placement: Combo::ZIPF_SLF.placement,
            replan_placement: ReplanPlacement::Fresh,
            strategy: ReplanStrategy::Oracle,
            lambda_per_min: a7.lambda_per_min,
            horizon_min: setup.horizon_min,
        },
    )?;
    let oracle_layout = oracle_planner.plan_from_weights(&mean_true_weights(&a7.workload))?;

    let mut rows = Vec::new();
    for failures in [false, true] {
        for (mode, layout, controlled) in [
            ("static", &a7.layout, false),
            ("controller", &a7.layout, true),
            ("oracle", &oracle_layout, false),
        ] {
            let world = World {
                catalog: &a7.catalog,
                cluster: &a7.cluster,
                layout,
            };
            let reports = run_cell(
                setup,
                world,
                SEED,
                |seed| cell_config(1, seed, failures, controlled),
                |rng| a7.workload.generate(a7.lambda_per_min, rng),
                telemetry,
            )?;
            rows.push(ControllerRow {
                mode,
                failures,
                served_ratio_mean: mean(&reports, |r| {
                    if r.arrivals == 0 {
                        1.0
                    } else {
                        r.admitted as f64 / r.arrivals as f64
                    }
                }),
                rejection_rate_mean: mean(&reports, |r| r.rejection_rate),
                ticks_mean: mean(&reports, |r| r.controller_ticks as f64),
                backoffs_mean: mean(&reports, |r| r.controller_backoffs as f64),
                promotions_mean: mean(&reports, |r| r.controller_promotions as f64),
                demotions_mean: mean(&reports, |r| r.controller_demotions as f64),
                retired_mean: mean(&reports, |r| r.controller_retired as f64),
                rebalance_bytes_mean: mean(&reports, |r| r.controller_bytes_copied as f64),
                repair_bytes_mean: mean(&reports, |r| r.repair_bytes_copied as f64),
                runs: setup.runs,
            });
        }
    }
    Ok(rows)
}

/// Regenerates the A-7 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup, reporter.telemetry())?;
    let mut table = Table::new(
        "A-7: online replication controller under intra-run drift \
         (zipf+slf plan at degree 1.4, storage degree 1.6, λ = 85% of \
         capacity, 15-min drift segments + two flash crowds)",
        &[
            "mode",
            "faults",
            "served",
            "ticks",
            "backoff",
            "promote",
            "demote",
            "retired",
            "rebal-copied",
            "repair-copied",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.mode.to_string(),
            if r.failures { "yes" } else { "no" }.to_string(),
            pct(r.served_ratio_mean),
            format!("{:.0}", r.ticks_mean),
            format!("{:.0}", r.backoffs_mean),
            format!("{:.1}", r.promotions_mean),
            format!("{:.1}", r.demotions_mean),
            format!("{:.1}", r.retired_mean),
            format!("{:.2} GB", r.rebalance_bytes_mean / 1e9),
            format!("{:.2} GB", r.repair_bytes_mean / 1e9),
        ]);
    }
    reporter.emit_table("controller", &table)?;
    reporter.emit_json("controller", &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PaperSetup {
        PaperSetup {
            n_videos: 40,
            runs: 2,
            ..PaperSetup::default()
        }
    }

    #[test]
    fn controller_sits_between_static_and_oracle() {
        let rows = compute(&tiny(), &Telemetry::disabled()).unwrap();
        assert_eq!(rows.len(), 6);
        let get = |mode: &str, failures: bool| {
            rows.iter()
                .find(|r| r.mode == mode && r.failures == failures)
                .unwrap()
        };

        for failures in [false, true] {
            let s = get("static", failures);
            let c = get("controller", failures);
            let o = get("oracle", failures);
            // The headline: sensing + re-replication strictly beats the
            // stale static plan on served requests.
            assert!(
                c.served_ratio_mean > s.served_ratio_mean,
                "faults={failures}: controller {} !> static {}",
                c.served_ratio_mean,
                s.served_ratio_mean
            );
            // …and sits within a small documented gap of the clairvoyant
            // from-scratch re-plan (which pays nothing for its moves).
            assert!(
                o.served_ratio_mean >= c.served_ratio_mean - 0.02,
                "faults={failures}: oracle {} vs controller {}",
                o.served_ratio_mean,
                c.served_ratio_mean
            );
            // The controller actually acted, and billed its bandwidth.
            assert!(c.ticks_mean > 0.0);
            assert!(c.promotions_mean >= 1.0);
            assert!(c.rebalance_bytes_mean > 0.0);
            // Modes without the controller never rebalance.
            assert_eq!(s.rebalance_bytes_mean, 0.0);
            assert_eq!(o.rebalance_bytes_mean, 0.0);
            assert_eq!(s.ticks_mean, 0.0);
        }

        // Failure repair is a separate bill, and only the fault variant
        // pays it.
        for r in rows.iter().filter(|r| !r.failures) {
            assert_eq!(r.repair_bytes_mean, 0.0, "{}", r.mode);
        }
        let faulty_repair: f64 = rows
            .iter()
            .filter(|r| r.failures)
            .map(|r| r.repair_bytes_mean)
            .sum();
        assert!(faulty_repair > 0.0);

        // The controller's QoS guard fired at least once under faults
        // (ticks inside an outage or during repair back off).
        assert!(get("controller", true).backoffs_mean >= 1.0);
    }
}
