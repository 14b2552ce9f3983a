//! A-5 — striping vs. replication, the paper's architectural argument.
//!
//! The paper's Sections 1–2 justify the distributed-storage + replication
//! design over shared-storage wide striping: striping wins on balance and
//! disk utilization but "can induce high scheduling and extension
//! overhead" and couples every stream to every server, so "as the number
//! of disks increases, so do the controlling overhead and the probability
//! of a failure". This experiment puts numbers behind the argument on our
//! common substrate:
//!
//! * **healthy sweep** — rejection vs. λ for the striped cluster at 0%,
//!   10% and 25% coordination overhead against the replicated zipf+slf
//!   plan (degree 1.2): striping's perfect balance wins slightly at 0%
//!   overhead; any realistic overhead hands the advantage back;
//! * **failure case** — one server out for minutes 30–60: the striped
//!   cluster loses *all* service (and every active stream), the
//!   replicated one degrades gracefully.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{aggregate, build_plan, replicate, run_point_with_telemetry, Combo};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use vod_model::ServerId;
use vod_sim::{AdmissionPolicy, FailurePlan, Outage, StripedConfig, StripedSimulation};
use vod_telemetry::Telemetry;
use vod_workload::TraceGenerator;

/// One striped measurement cell.
#[derive(Debug, Clone, Serialize)]
pub struct StripedCell {
    /// Arrival rate, requests/min.
    pub lambda: f64,
    /// Coordination overhead used.
    pub overhead: f64,
    /// Mean rejection rate.
    pub rejection_rate: f64,
    /// Mean disrupted streams per run.
    pub disrupted_mean: f64,
}

fn run_striped(
    setup: &PaperSetup,
    lambda: f64,
    overhead: f64,
    failures: FailurePlan,
    base_seed: u64,
    telemetry: &Telemetry,
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let catalog = setup.catalog()?;
    // Same aggregate hardware as the replicated runs at degree 1.2.
    let cluster = setup.cluster(1.2);
    let pop = setup.popularity(1.0)?;
    let config = StripedConfig {
        overhead,
        horizon_min: setup.horizon_min,
        failures,
    };
    let sim = StripedSimulation::new(&catalog, &cluster, config)?;
    let generator = TraceGenerator::new(lambda, &pop, setup.horizon_min)?;
    let reports = replicate(setup.runs, base_seed, |seed| {
        let trace = generator.generate(&mut ChaCha8Rng::seed_from_u64(seed));
        sim.run_with_telemetry(&trace, telemetry)
    })?;
    let disrupted = reports.iter().map(|r| r.disrupted as f64).sum::<f64>() / reports.len() as f64;
    Ok((aggregate(lambda, &reports).rejection_rate, disrupted))
}

/// Regenerates the A-5 tables.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    // Healthy sweep.
    let replicated = build_plan(setup, Combo::ZIPF_SLF, 1.0, 1.2)?;
    let overheads = [0.0, 0.1, 0.25];
    let mut table = Table::new(
        "A-5: striping vs replication — rejection rate, healthy cluster (θ = 1.0)",
        &[
            "lambda/min",
            "replicated (zipf+slf d1.2)",
            "striped 0% ovh",
            "striped 10% ovh",
            "striped 25% ovh",
        ],
    );
    let mut cells = Vec::new();
    for lambda in setup.lambda_sweep() {
        let rep = run_point_with_telemetry(
            setup,
            &replicated,
            lambda,
            AdmissionPolicy::StaticRoundRobin,
            0xA4,
            reporter.telemetry(),
        )?;
        let mut row = vec![format!("{lambda:.0}"), pct(rep.rejection_rate)];
        for &ovh in &overheads {
            let (rej, dis) = run_striped(
                setup,
                lambda,
                ovh,
                FailurePlan::none(),
                0xA4,
                reporter.telemetry(),
            )?;
            row.push(pct(rej));
            cells.push(StripedCell {
                lambda,
                overhead: ovh,
                rejection_rate: rej,
                disrupted_mean: dis,
            });
        }
        table.row(row);
    }
    reporter.emit_table("striping_healthy", &table)?;
    reporter.emit_json("striping_healthy", &cells)?;

    // Failure case: server 0 down 30–60 min, λ = 75% capacity.
    let lambda = 0.75 * setup.capacity_lambda_per_min();
    let outage = FailurePlan::new(vec![Outage {
        server: ServerId(0),
        down_at_min: 30.0,
        up_at_min: Some(60.0),
    }])?;
    let (striped_rej, striped_dis) = run_striped(
        setup,
        lambda,
        0.1,
        outage.clone(),
        0xA5,
        reporter.telemetry(),
    )?;

    // Replicated counterpart under the identical outage (failover).
    let generator =
        TraceGenerator::new(lambda, replicated.planner().popularity(), setup.horizon_min)?;
    let config = vod_sim::SimConfig {
        policy: AdmissionPolicy::RoundRobinFailover,
        failures: outage,
        shards: setup.shards,
        ..vod_sim::SimConfig::default()
    };
    let sim = vod_sim::Simulation::new(
        replicated.planner().catalog(),
        replicated.planner().cluster(),
        &replicated.plan.layout,
        config,
    )?;
    let rep_reports = replicate(setup.runs, 0xA5, |seed| {
        let trace = generator.generate(&mut ChaCha8Rng::seed_from_u64(seed));
        sim.run_with_telemetry(&trace, reporter.telemetry())
    })?;
    let rep_rej = aggregate(lambda, &rep_reports).rejection_rate;
    let rep_dis =
        rep_reports.iter().map(|r| r.disrupted as f64).sum::<f64>() / rep_reports.len() as f64;

    let mut fail_table = Table::new(
        "A-5: one server down 30–60 min (λ = 75% capacity)",
        &["architecture", "rejection", "disrupted/run"],
    );
    fail_table.row(vec![
        "replicated d1.2 + failover".into(),
        pct(rep_rej),
        format!("{rep_dis:.1}"),
    ]);
    fail_table.row(vec![
        "striped (10% ovh)".into(),
        pct(striped_rej),
        format!("{striped_dis:.1}"),
    ]);
    reporter.emit_table("striping_failure", &fail_table)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_loses_under_overhead_and_failure() {
        let setup = PaperSetup {
            n_videos: 40,
            runs: 3,
            ..PaperSetup::default()
        };
        // At the capacity rate, a 25%-overhead striped cluster rejects
        // far more than a 0%-overhead one.
        let lambda = setup.capacity_lambda_per_min();
        let (r0, _) = run_striped(
            &setup,
            lambda,
            0.0,
            FailurePlan::none(),
            1,
            &Telemetry::disabled(),
        )
        .unwrap();
        let (r25, _) = run_striped(
            &setup,
            lambda,
            0.25,
            FailurePlan::none(),
            1,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(r25 > r0 + 0.05, "25% ovh {r25} vs 0% {r0}");

        // Under an outage, the striped cluster loses service entirely
        // for its duration: ~1/3 of the peak period here.
        let outage = FailurePlan::new(vec![Outage {
            server: ServerId(0),
            down_at_min: 30.0,
            up_at_min: Some(60.0),
        }])
        .unwrap();
        let (rej, dis) = run_striped(
            &setup,
            0.75 * lambda,
            0.1,
            outage,
            2,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(rej > 0.25, "outage rejection {rej} should cover the window");
        assert!(dis > 0.0);
    }
}
