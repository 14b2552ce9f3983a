//! A-4 — online failure recovery under stochastic faults.
//!
//! The availability experiment (A-2) shows replication absorbing a single
//! injected failure. This experiment exercises the full recovery stack
//! under *stochastic* fault injection: every server fails and recovers by
//! an exponential MTBF/MTTR renewal process (deterministic per run seed),
//! active streams fail over to surviving replica holders — degrading down
//! the bit-rate ladder when full-rate headroom is gone — and the repair
//! controller re-replicates lost redundancy at a configurable copy
//! bandwidth that competes with streaming.
//!
//! The sweep is MTTR × repair bandwidth × replication degree. Reported
//! per cell: rejection, mean disrupted/resumed/degraded streams per run,
//! time to full redundancy (minutes any video sat below its replication
//! target), unavailability (video·minutes at zero servable replicas), and
//! repaired bytes — plus the disrupted count of an unconditional-kill
//! baseline at identical parameters, to price the failover policy itself.
//!
//! Unlike the exact-fit clusters of the placement experiments, every
//! server here carries one extra catalog-share of spare storage slots:
//! repair needs somewhere to put replacement copies, exactly as a real
//! deployment provisions spare capacity for rebuilds. All cells share one
//! base seed, so rows differ only in the swept parameters.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{aggregate, build_plan, mean, run_cell, Combo, PointStats, World};
use serde::Serialize;
use vod_sim::{AdmissionPolicy, FailoverPolicy, FailureModel, RepairConfig, SimConfig};
use vod_telemetry::Telemetry;
use vod_workload::TraceGenerator;

/// Mean time between failures per server, in minutes. At 120 minutes over
/// a 90-minute horizon on 8 servers, ~4–6 failures strike per run.
const MTBF_MIN: f64 = 120.0;

/// One measured cell of the recovery sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryRow {
    /// Replication degree planned.
    pub degree: f64,
    /// Mean time to repair (server outage length), minutes.
    pub mttr_min: f64,
    /// Per-copy repair bandwidth, kbps (0 = repair off).
    pub repair_kbps: u64,
    /// Averaged stats (rejection etc.) under resume-or-degrade failover.
    pub stats: PointStats,
    /// Mean streams disrupted per run (failover on).
    pub disrupted_mean: f64,
    /// Mean streams resumed at full rate per run.
    pub resumed_mean: f64,
    /// Mean streams continued at a reduced rate per run.
    pub degraded_mean: f64,
    /// Mean streams disrupted per run under unconditional kill, same
    /// parameters and traces.
    pub kill_disrupted_mean: f64,
    /// Mean minutes any video sat below its replication target. The
    /// zipf-interval plans leave a single-replica cold tail at every
    /// average degree, and those videos cannot be rebuilt while their
    /// only holder is down — so this union tracks the outage union; the
    /// discriminating number is [`Self::redundancy_deficit_video_min_mean`].
    pub time_to_redundancy_min_mean: f64,
    /// Mean video·minutes below replication target (the replica-deficit
    /// integral repair drains copy by copy).
    pub redundancy_deficit_video_min_mean: f64,
    /// Mean video·minutes at zero servable replicas.
    pub unavailability_video_min_mean: f64,
    /// Mean bytes of replica data re-copied per run.
    pub repair_bytes_mean: f64,
}

/// Computes the sweep: MTTR × repair bandwidth × replication degree.
/// Every cell runs `setup.runs` replications, each with its own trace
/// *and* its own fault draws (the model seed varies per run, the whole
/// cell is deterministic per base seed). Records every run's `sim.*`
/// instruments into `telemetry`.
pub fn compute(
    setup: &PaperSetup,
    telemetry: &Telemetry,
) -> Result<Vec<RecoveryRow>, Box<dyn std::error::Error>> {
    // 60% of capacity: enough load that failover visibly packs the
    // survivors, enough headroom that repair copies can still fit on
    // their links mid-outage.
    let lambda = 0.6 * setup.capacity_lambda_per_min();
    // One seed for every cell: cells at equal degree share identical
    // traces and fault draws, so rows differ only in the swept knobs.
    let base_seed = 0x4EC0;
    let mut rows = Vec::new();
    for degree in [1.0, 1.5, 2.0] {
        let point = build_plan(setup, Combo::ZIPF_SLF, 1.0, degree)?;
        let generator =
            TraceGenerator::new(lambda, point.planner().popularity(), setup.horizon_min)?;
        // Spare storage for rebuilds: one extra catalog-share of slots
        // per server beyond the exact-fit capacity the plan was made
        // for, as a real deployment provisions spare disk for repair.
        let cluster = setup.cluster(degree + 1.0);
        let world = World {
            cluster: &cluster,
            ..point.world()
        };
        for mttr_min in [15.0f64, 45.0] {
            for repair_kbps in [0u64, 50_000, 250_000] {
                let cell = |failover| {
                    run_cell(
                        setup,
                        world,
                        base_seed,
                        |seed| SimConfig {
                            policy: AdmissionPolicy::RoundRobinFailover,
                            failure_model: Some(FailureModel::exponential(
                                MTBF_MIN, mttr_min, seed,
                            )),
                            repair: RepairConfig {
                                bandwidth_kbps: repair_kbps,
                                max_concurrent: 8,
                            },
                            failover,
                            ..SimConfig::default()
                        },
                        |rng| Ok(generator.generate(rng)),
                        telemetry,
                    )
                };
                let reports = cell(FailoverPolicy::ResumeOrDegrade)?;
                // Unconditional-kill baseline: identical traces and fault
                // draws, no stream rescue.
                let kill = cell(FailoverPolicy::Kill)?;
                rows.push(RecoveryRow {
                    degree,
                    mttr_min,
                    repair_kbps,
                    stats: aggregate(lambda, &reports),
                    disrupted_mean: mean(&reports, |r| r.disrupted as f64),
                    resumed_mean: mean(&reports, |r| r.resumed as f64),
                    degraded_mean: mean(&reports, |r| r.degraded as f64),
                    kill_disrupted_mean: mean(&kill, |r| r.disrupted as f64),
                    time_to_redundancy_min_mean: mean(&reports, |r| r.time_to_redundancy_min),
                    redundancy_deficit_video_min_mean: mean(&reports, |r| {
                        r.redundancy_deficit_video_min
                    }),
                    unavailability_video_min_mean: mean(&reports, |r| r.unavailability_video_min),
                    repair_bytes_mean: mean(&reports, |r| r.repair_bytes_copied as f64),
                });
            }
        }
    }
    Ok(rows)
}

/// Regenerates the A-4 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup, reporter.telemetry())?;
    let mut table = Table::new(
        "A-4: online failure recovery under stochastic faults \
         (zipf+slf plan, MTBF = 120 min, λ = 60% of capacity, θ = 1.0)",
        &[
            "degree",
            "mttr",
            "repair",
            "rejection",
            "disrupt",
            "resume",
            "degrade",
            "kill-disrupt",
            "t-redund",
            "deficit",
            "unavail",
            "copied",
        ],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.1}", r.degree),
            format!("{:.0}m", r.mttr_min),
            format!("{} Mbps", r.repair_kbps / 1_000),
            pct(r.stats.rejection_rate),
            format!("{:.1}", r.disrupted_mean),
            format!("{:.1}", r.resumed_mean),
            format!("{:.1}", r.degraded_mean),
            format!("{:.1}", r.kill_disrupted_mean),
            format!("{:.1}m", r.time_to_redundancy_min_mean),
            format!("{:.1}", r.redundancy_deficit_video_min_mean),
            format!("{:.1}", r.unavailability_video_min_mean),
            format!("{:.2} GB", r.repair_bytes_mean / 1e9),
        ]);
    }
    reporter.emit_table("recovery", &table)?;
    reporter.emit_json("recovery", &rows)?;
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
    fn recovery_sweep_trends() {
        let rows = compute(&tiny(), &Telemetry::disabled()).unwrap();
        assert_eq!(rows.len(), 3 * 2 * 3);
        let get = |degree: f64, mttr: f64, kbps: u64| {
            rows.iter()
                .find(|r| r.degree == degree && r.mttr_min == mttr && r.repair_kbps == kbps)
                .unwrap()
        };

        // Failover rescues streams, and strictly beats unconditional kill
        // where replicas exist.
        let total_rescued: f64 = rows.iter().map(|r| r.resumed_mean + r.degraded_mean).sum();
        assert!(total_rescued > 0.0);
        for (mttr, kbps) in [(15.0, 0), (45.0, 250_000)] {
            let r = get(2.0, mttr, kbps);
            assert!(
                r.disrupted_mean < r.kill_disrupted_mean,
                "failover must strictly reduce disruptions at degree 2.0 \
                 (mttr {mttr}, repair {kbps}): {} vs {}",
                r.disrupted_mean,
                r.kill_disrupted_mean
            );
        }

        // Zero repair bandwidth never copies anything.
        for r in rows.iter().filter(|r| r.repair_kbps == 0) {
            assert_eq!(r.repair_bytes_mean, 0.0);
        }

        // Higher replication degree shrinks the replica-deficit integral
        // and the unavailability integral (with repair on, lost replicas
        // rebuild from surviving copies instead of waiting out the MTTR).
        for mttr in [15.0, 45.0] {
            let low = get(1.0, mttr, 250_000);
            let high = get(2.0, mttr, 250_000);
            assert!(
                high.redundancy_deficit_video_min_mean < low.redundancy_deficit_video_min_mean,
                "mttr {mttr}: deficit {} !< {}",
                high.redundancy_deficit_video_min_mean,
                low.redundancy_deficit_video_min_mean
            );
            assert!(
                high.unavailability_video_min_mean < low.unavailability_video_min_mean,
                "mttr {mttr}: unavailability {} !< {}",
                high.unavailability_video_min_mean,
                low.unavailability_video_min_mean
            );
        }

        // Repair bandwidth drains the deficit integral at fixed degree.
        let passive = get(2.0, 45.0, 0);
        let active = get(2.0, 45.0, 250_000);
        assert!(active.repair_bytes_mean > 0.0);
        assert!(
            active.redundancy_deficit_video_min_mean < passive.redundancy_deficit_video_min_mean,
            "repair must drain the deficit: {} !< {}",
            active.redundancy_deficit_video_min_mean,
            passive.redundancy_deficit_video_min_mean
        );
    }
}
