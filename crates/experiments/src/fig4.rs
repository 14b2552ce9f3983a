//! Figure 4 — "Impact of different replication degrees on rejection rate".
//!
//! Four subplots: (a) Zipf replication + smallest-load-first at θ = 1.0,
//! (b) classification + round-robin at θ = 1.0, (c) and (d) the same at
//! θ = 0.5. Each subplot sweeps the arrival rate with one curve per
//! replication degree {1.0, 1.2, 1.4, 1.6, 1.8, 2.0} (1.0 being the
//! paper's "non-replication" reference).
//!
//! Expected shape (paper, Sec. 5.1): rejection falls monotonically with
//! the degree, with the largest drop from 1.0 to 1.2; the Zipf+SLF combo
//! uses storage more efficiently than class+RR; the effect shrinks as θ
//! falls.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{build_plan, run_point, Combo};
use vod_sim::AdmissionPolicy;

/// Regenerates the four Figure 4 subplots.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let degrees = setup.degrees();
    let subplots = [
        ("fig4a", Combo::ZIPF_SLF, 1.0),
        ("fig4b", Combo::CLASS_RR, 1.0),
        ("fig4c", Combo::ZIPF_SLF, 0.5),
        ("fig4d", Combo::CLASS_RR, 0.5),
    ];

    for (name, combo, theta) in subplots {
        // One plan per degree, reused across the λ sweep.
        let points: Vec<_> = degrees
            .iter()
            .map(|&d| build_plan(setup, combo, theta, d))
            .collect::<Result<_, _>>()?;

        let mut header: Vec<String> = vec!["lambda/min".into()];
        header.extend(degrees.iter().map(|d| format!("deg {d:.1}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            &format!(
                "Figure 4{}: rejection rate, {} (θ = {theta})",
                &name[4..],
                combo.label()
            ),
            &header_refs,
        );

        let mut json_rows = Vec::new();
        for lambda in setup.lambda_sweep() {
            let mut cells = vec![format!("{lambda:.0}")];
            for (k, point) in points.iter().enumerate() {
                let stats = run_point(
                    setup,
                    point,
                    lambda,
                    AdmissionPolicy::StaticRoundRobin,
                    0xF164 ^ ((k as u64) << 8),
                    reporter.telemetry(),
                )?;
                cells.push(pct(stats.rejection_rate));
                json_rows.push((degrees[k], stats));
            }
            table.row(cells);
        }
        reporter.emit_table(name, &table)?;
        reporter.emit_json(name, &json_rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_telemetry::Telemetry;

    #[test]
    fn fast_subplot_runs() {
        // Shrunken sweep: only verifies the pipeline wiring end-to-end.
        let setup = PaperSetup {
            n_videos: 24,
            runs: 2,
            ..PaperSetup::default()
        };
        let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.2).unwrap();
        let policy = AdmissionPolicy::StaticRoundRobin;
        let s = run_point(&setup, &point, 40.0, policy, 1, &Telemetry::disabled()).unwrap();
        assert!(s.rejection_rate <= 1.0);
    }
}
