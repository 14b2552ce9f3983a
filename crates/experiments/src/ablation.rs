//! A-1 — admission-policy ablation.
//!
//! The paper's conclusions point to its follow-up work: "we have given a
//! request redirection strategy that utilizes the internal backbone
//! bandwidth to balance the outgoing network traffic between the servers
//! during the runtime \[19\]". This ablation quantifies how much each
//! dynamic policy recovers over the paper's strict static round-robin
//! admission, on the same zipf+slf plan (degree 1.2, θ = 1.0).

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{build_plan, run_point, Combo};
use vod_sim::AdmissionPolicy;

/// A-1's base seed: policy `k` runs each λ from `SEED ^ (k << 8)`.
pub const SEED: u64 = 0xAB;

/// The policies compared.
pub fn policies() -> Vec<(&'static str, AdmissionPolicy)> {
    vec![
        ("static-rr", AdmissionPolicy::StaticRoundRobin),
        ("rr-failover", AdmissionPolicy::RoundRobinFailover),
        ("least-loaded", AdmissionPolicy::LeastLoadedReplica),
        (
            "backbone-2g",
            AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 2_000_000,
            },
        ),
    ]
}

/// Regenerates the ablation table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let point = build_plan(setup, Combo::ZIPF_SLF, 1.0, 1.2)?;

    let names: Vec<String> = {
        let mut v = vec!["lambda/min".to_string()];
        v.extend(policies().iter().map(|(n, _)| n.to_string()));
        v.push("redirected@backbone".to_string());
        v
    };
    let header_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "A-1: rejection rate by admission policy (zipf+slf, degree 1.2, θ = 1.0)",
        &header_refs,
    );

    let mut json_rows = Vec::new();
    for lambda in setup.lambda_sweep() {
        let mut cells = vec![format!("{lambda:.0}")];
        let mut redirected_share = 0.0;
        for (k, (name, policy)) in policies().into_iter().enumerate() {
            let stats = run_point(
                setup,
                &point,
                lambda,
                policy,
                SEED ^ ((k as u64) << 8),
                reporter.telemetry(),
            )?;
            cells.push(pct(stats.rejection_rate));
            if name.starts_with("backbone") {
                redirected_share = stats.redirected_share;
            }
            json_rows.push((name, stats));
        }
        cells.push(pct(redirected_share));
        table.row(cells);
    }
    reporter.emit_table("ablation", &table)?;
    reporter.emit_json("ablation", &json_rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_telemetry::Telemetry;

    #[test]
    fn dynamic_policies_never_reject_more() {
        let setup = PaperSetup {
            n_videos: 40,
            runs: 3,
            ..PaperSetup::default()
        };
        let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.2).unwrap();
        let lambda = 44.0; // just past capacity: policies differentiate
        let rejection = |policy| {
            run_point(&setup, &point, lambda, policy, 3, &Telemetry::disabled())
                .unwrap()
                .rejection_rate
        };
        let strict = rejection(AdmissionPolicy::StaticRoundRobin);
        let failover = rejection(AdmissionPolicy::RoundRobinFailover);
        // Failover admits whenever strict would (same trace), so it should
        // not reject meaningfully more; admission-order effects permit tiny
        // wobble, hence the slack.
        assert!(failover <= strict + 0.02);
    }
}
