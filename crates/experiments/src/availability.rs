//! A-2 — availability under server failure.
//!
//! The paper's case for replication is availability as much as balance:
//! "Replication … can … enhance scalability and reliability of the
//! clusters" (Sec. 1). This experiment injects the failure of one server
//! at minute 30 of the peak period (permanent for the run) and sweeps the
//! replication degree: with a single copy of each video, 1/N of the
//! catalog simply disappears; with replicas plus a failover policy, the
//! survivors absorb the load.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{aggregate, build_plan, mean, run_cell, Combo, PointStats};
use serde::Serialize;
use vod_model::ServerId;
use vod_sim::{AdmissionPolicy, FailurePlan, Outage, SimConfig};
use vod_telemetry::Telemetry;
use vod_workload::TraceGenerator;

/// A-2's base seed: degree `d`'s cells run from `SEED ^ d.to_bits()`.
pub const SEED: u64 = 0xFA11;

/// One measured cell of the availability sweep.
#[derive(Debug, Clone, Serialize)]
pub struct AvailabilityRow {
    /// Replication degree planned.
    pub degree: f64,
    /// Admission policy label.
    pub policy: &'static str,
    /// Averaged stats.
    pub stats: PointStats,
    /// Mean disrupted streams per run.
    pub disrupted_mean: f64,
}

/// Computes the sweep: degree × policy, one server down at minute 30.
/// Records every run's `sim.*` instruments into `telemetry`.
pub fn compute(
    setup: &PaperSetup,
    telemetry: &Telemetry,
) -> Result<Vec<AvailabilityRow>, Box<dyn std::error::Error>> {
    let lambda = 0.75 * setup.capacity_lambda_per_min();
    let failures = FailurePlan::new(vec![Outage {
        server: ServerId(0),
        down_at_min: 30.0,
        up_at_min: None,
    }])?;
    let policies: [(&'static str, AdmissionPolicy); 2] = [
        ("static-rr", AdmissionPolicy::StaticRoundRobin),
        ("rr-failover", AdmissionPolicy::RoundRobinFailover),
    ];
    let mut rows = Vec::new();
    for degree in [1.0, 1.2, 1.6, 2.0] {
        let point = build_plan(setup, Combo::ZIPF_SLF, 1.0, degree)?;
        let generator =
            TraceGenerator::new(lambda, point.planner().popularity(), setup.horizon_min)?;
        for (name, policy) in policies {
            let reports = run_cell(
                setup,
                point.world(),
                SEED ^ degree.to_bits(),
                |_| SimConfig {
                    policy,
                    failures: failures.clone(),
                    ..SimConfig::default()
                },
                |rng| Ok(generator.generate(rng)),
                telemetry,
            )?;
            rows.push(AvailabilityRow {
                degree,
                policy: name,
                stats: aggregate(lambda, &reports),
                disrupted_mean: mean(&reports, |r| r.disrupted as f64),
            });
        }
    }
    Ok(rows)
}

/// Regenerates the A-2 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup, reporter.telemetry())?;
    let mut table = Table::new(
        "A-2: rejection under a server failure at minute 30 \
         (zipf+slf plan, λ = 75% of capacity, θ = 1.0)",
        &["degree", "policy", "rejection", "disrupted/run"],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.1}", r.degree),
            r.policy.to_string(),
            pct(r.stats.rejection_rate),
            format!("{:.1}", r.disrupted_mean),
        ]);
    }
    reporter.emit_table("availability", &table)?;
    reporter.emit_json("availability", &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_plus_replicas_beats_singleton_static() {
        let setup = PaperSetup {
            n_videos: 40,
            runs: 3,
            ..PaperSetup::default()
        };
        let rows = compute(&setup, &Telemetry::disabled()).unwrap();
        let get = |degree: f64, policy: &str| {
            rows.iter()
                .find(|r| r.degree == degree && r.policy == policy)
                .unwrap()
                .stats
                .rejection_rate
        };
        // With failover and real replication, the failure hurts far less
        // than the unreplicated static baseline.
        assert!(get(2.0, "rr-failover") < get(1.0, "static-rr"));
        // Failover never rejects more than static at equal degree (same
        // traces, strictly more admission options).
        for degree in [1.0, 1.2, 1.6, 2.0] {
            assert!(
                get(degree, "rr-failover") <= get(degree, "static-rr") + 0.02,
                "degree {degree}"
            );
        }
    }
}
