//! A-6 — overload resilience: admission queueing, retries, brownouts.
//!
//! The paper's admission control is pure loss: at overload, every request
//! beyond capacity is rejected instantly and the rejection-rate curves of
//! Figures 4–5 tell the whole story. This experiment asks what the same
//! cluster looks like as a *delay* system: requests join a FIFO wait
//! queue, clients abandon after an exponential patience interval, player
//! software retries with exponential backoff, and a session may start at
//! a thinner encoding when only a partial slot exists
//! ([`vod_sim::QueuePolicy::QueueOrDegrade`]).
//!
//! The sweep is offered load {80, 100, 120}% of cluster capacity ×
//! mean patience {0 s, 30 s, 120 s} × retry budget {0, 3}, each cell run
//! with and without bandwidth *brownouts* (partial, seeded capacity loss
//! on individual servers — the failure mode between healthy and crashed).
//! Patience 0 degenerates to the paper's blocking model, so the first
//! patience column doubles as the loss-system baseline at identical
//! traces.
//!
//! Reported per cell: rejection rate, queue entries, wait-time p50/p95
//! among served requests, abandonment rate, share of sessions started
//! below their requested rate, goodput (delivered ÷ offered
//! bandwidth-time), and browned-out server·minutes. All cells at equal
//! load share one base seed, so rows differ only in the swept knobs.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{aggregate, build_plan, mean, run_cell, Combo, PointStats, World};
use serde::Serialize;
use vod_sim::{
    AdmissionConfig, AdmissionPolicy, BrownoutModel, FailoverPolicy, FailureModel, QueuePolicy,
    SimConfig,
};
use vod_telemetry::Telemetry;
use vod_workload::TraceGenerator;

/// A-6's base seed, shared by every cell: cells at equal load share
/// identical traces, so rows differ only in the swept knobs.
pub const SEED: u64 = 0x0AD6;

/// Mean time between brownouts per server, minutes. At 45 minutes over a
/// 90-minute horizon on 8 servers, ~10–16 partial degradations per run.
const BROWNOUT_MTBF_MIN: f64 = 45.0;

/// Mean brownout duration, minutes.
const BROWNOUT_MTTR_MIN: f64 = 10.0;

/// Surviving-capacity range drawn per brownout: a browned-out server
/// keeps 30–70% of its link.
const BROWNOUT_CAPACITY_FRAC: (f64, f64) = (0.3, 0.7);

/// One measured cell of the overload sweep.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadRow {
    /// Offered load as a fraction of cluster streaming capacity.
    pub load_frac: f64,
    /// Mean client patience, minutes (0 = the paper's blocking model).
    pub patience_min: f64,
    /// Retry budget per request.
    pub max_retries: u32,
    /// Whether seeded bandwidth brownouts were injected.
    pub brownouts: bool,
    /// Averaged rejection/imbalance stats.
    pub stats: PointStats,
    /// Mean requests that entered the wait queue per run.
    pub queued_mean: f64,
    /// Mean retry attempts scheduled per run.
    pub retried_mean: f64,
    /// Mean `abandoned / arrivals` — requests whose patience (and retry
    /// budget) ran out, plus requests still pending at the horizon.
    pub abandonment_rate: f64,
    /// Mean `degraded_served / admitted` — sessions started below their
    /// requested bit rate.
    pub degraded_share: f64,
    /// Mean per-run median wait of served requests, minutes.
    pub wait_p50_min: f64,
    /// Mean per-run 95th-percentile wait of served requests, minutes.
    pub wait_p95_min: f64,
    /// Mean delivered ÷ offered bandwidth-time.
    pub goodput: f64,
    /// Mean browned-out server·minutes per run.
    pub brownout_active_min_mean: f64,
}

/// Computes the sweep: load × patience × retry budget × brownouts.
/// Every cell runs `setup.runs` replications, each with its own trace,
/// patience draws and (when enabled) brownout draws. Records every run's
/// `sim.*` instruments into `telemetry`.
pub fn compute(
    setup: &PaperSetup,
    telemetry: &Telemetry,
) -> Result<Vec<OverloadRow>, Box<dyn std::error::Error>> {
    let point = build_plan(setup, Combo::ZIPF_SLF, 1.0, 1.2)?;
    let cluster = setup.cluster(1.2);
    let world = World {
        cluster: &cluster,
        ..point.world()
    };
    let mut rows = Vec::new();
    for load_frac in [0.8, 1.0, 1.2] {
        let lambda = load_frac * setup.capacity_lambda_per_min();
        let generator =
            TraceGenerator::new(lambda, point.planner().popularity(), setup.horizon_min)?;
        for patience_min in [0.0, 0.5, 2.0] {
            for max_retries in [0u32, 3] {
                let admission = AdmissionConfig {
                    policy: if patience_min > 0.0 {
                        QueuePolicy::QueueOrDegrade { patience_min }
                    } else {
                        QueuePolicy::Block
                    },
                    max_retries,
                    ..AdmissionConfig::default()
                };
                for brownouts in [false, true] {
                    let reports = run_cell(
                        setup,
                        world,
                        SEED,
                        |seed| SimConfig {
                            policy: AdmissionPolicy::RoundRobinFailover,
                            admission: AdmissionConfig {
                                seed,
                                ..admission.clone()
                            },
                            failure_model: brownouts.then(|| {
                                FailureModel::brownouts_only(
                                    BrownoutModel {
                                        mtbf_min: BROWNOUT_MTBF_MIN,
                                        mttr_min: BROWNOUT_MTTR_MIN,
                                        min_capacity_frac: BROWNOUT_CAPACITY_FRAC.0,
                                        max_capacity_frac: BROWNOUT_CAPACITY_FRAC.1,
                                    },
                                    seed,
                                )
                            }),
                            failover: FailoverPolicy::ResumeOrDegrade,
                            ..SimConfig::default()
                        },
                        |rng| Ok(generator.generate(rng)),
                        telemetry,
                    )?;
                    rows.push(OverloadRow {
                        load_frac,
                        patience_min,
                        max_retries,
                        brownouts,
                        stats: aggregate(lambda, &reports),
                        queued_mean: mean(&reports, |r| r.queued as f64),
                        retried_mean: mean(&reports, |r| r.retried as f64),
                        abandonment_rate: mean(&reports, |r| {
                            r.abandoned as f64 / (r.arrivals.max(1)) as f64
                        }),
                        degraded_share: mean(&reports, |r| {
                            r.degraded_served as f64 / (r.admitted.max(1)) as f64
                        }),
                        wait_p50_min: mean(&reports, |r| r.wait_p50_min),
                        wait_p95_min: mean(&reports, |r| r.wait_p95_min),
                        goodput: mean(&reports, |r| r.goodput),
                        brownout_active_min_mean: mean(&reports, |r| r.brownout_active_min),
                    });
                }
            }
        }
    }
    Ok(rows)
}

/// Regenerates the A-6 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup, reporter.telemetry())?;
    let mut table = Table::new(
        "A-6: overload resilience — admission queueing, retries, brownouts \
         (zipf+slf plan, degree 1.2, θ = 1.0, backoff 0.5 min, \
         brownouts MTBF 45 min / MTTR 10 min / 30–70% capacity)",
        &[
            "load",
            "patience",
            "retries",
            "brownout",
            "rejection",
            "queued",
            "wait-p50",
            "wait-p95",
            "abandon",
            "degraded",
            "goodput",
            "bo-min",
        ],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.0}%", r.load_frac * 100.0),
            format!("{:.0}s", r.patience_min * 60.0),
            format!("{}", r.max_retries),
            if r.brownouts { "on" } else { "off" }.to_string(),
            pct(r.stats.rejection_rate),
            format!("{:.0}", r.queued_mean),
            format!("{:.2}m", r.wait_p50_min),
            format!("{:.2}m", r.wait_p95_min),
            pct(r.abandonment_rate),
            pct(r.degraded_share),
            pct(r.goodput),
            format!("{:.0}", r.brownout_active_min_mean),
        ]);
    }
    reporter.emit_table("overload", &table)?;
    reporter.emit_json("overload", &rows)?;
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
    fn overload_sweep_trends() {
        let rows = compute(&tiny(), &Telemetry::disabled()).unwrap();
        assert_eq!(rows.len(), 3 * 3 * 2 * 2);
        let get = |load: f64, patience: f64, retries: u32, brownouts: bool| {
            rows.iter()
                .find(|r| {
                    r.load_frac == load
                        && r.patience_min == patience
                        && r.max_retries == retries
                        && r.brownouts == brownouts
                })
                .unwrap()
        };

        for r in &rows {
            assert!(r.goodput > 0.0 && r.goodput <= 1.0 + 1e-12, "{}", r.goodput);
            // Blocking cells never queue or start sessions degraded.
            // (With a retry budget they can still wait — a retried
            // request is served late — and still abandon: retries
            // pending at the horizon flush as abandoned.)
            if r.patience_min == 0.0 {
                assert_eq!(r.queued_mean, 0.0);
                assert_eq!(r.degraded_share, 0.0);
                if r.max_retries == 0 {
                    assert_eq!(r.abandonment_rate, 0.0);
                    assert_eq!(r.wait_p95_min, 0.0);
                }
            }
            // Brownout minutes appear exactly when brownouts are injected.
            if r.brownouts {
                assert!(r.brownout_active_min_mean > 0.0);
            } else {
                assert_eq!(r.brownout_active_min_mean, 0.0);
            }
            // No retry budget, no retries.
            if r.max_retries == 0 {
                assert_eq!(r.retried_mean, 0.0);
            }
        }

        // At overload, queueing engages and some clients run out of
        // patience.
        let q = get(1.2, 2.0, 0, false);
        assert!(q.queued_mean > 0.0);
        assert!(q.abandonment_rate > 0.0);

        // A retry budget schedules retries when the queue path is on.
        assert!(get(1.2, 2.0, 3, false).retried_mean > 0.0);

        // Queueing turns instant rejections into waits or abandonments:
        // final rejection drops relative to the blocking cell at
        // identical traces.
        let block = get(1.2, 0.0, 0, false);
        assert!(
            q.stats.rejection_rate < block.stats.rejection_rate,
            "queueing must absorb rejections: {} !< {}",
            q.stats.rejection_rate,
            block.stats.rejection_rate
        );

        // Brownout ends restore capacity mid-run and drain the queue:
        // with patience and retries on, some served requests waited.
        let drained = get(1.2, 2.0, 3, true);
        assert!(drained.wait_p95_min > 0.0, "{}", drained.wait_p95_min);

        // Degradation needs partial slots. Healthy links hold exact
        // multiples of the 4 Mbps stream rate, so only brownouts (which
        // leave fractional effective capacities) start thin sessions.
        let browned = get(1.0, 2.0, 0, true);
        assert!(browned.degraded_share > 0.0);
        for r in rows.iter().filter(|r| !r.brownouts) {
            assert_eq!(r.degraded_share, 0.0);
        }

        // Brownouts shrink effective capacity: goodput can only suffer.
        let healthy = get(1.0, 2.0, 0, false);
        assert!(
            browned.goodput < healthy.goodput,
            "brownouts must cost goodput: {} !< {}",
            browned.goodput,
            healthy.goodput
        );
    }
}
