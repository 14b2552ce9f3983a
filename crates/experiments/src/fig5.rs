//! Figure 5 — "Impact of different replication and placement algorithms
//! on rejection rate".
//!
//! Four subplots: replication degree 1.2 and 1.6, each at θ = 1.0 and
//! θ = 0.5, comparing the four combinations class+rr, class+slf, zipf+rr,
//! zipf+slf across the arrival-rate sweep.
//!
//! Expected shape (paper, Sec. 5.2): combos with either the Zipf
//! replication or SLF placement beat class+rr significantly; zipf+rr and
//! zipf+slf differ only nominally; gaps shrink as the degree grows and as
//! θ falls.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{build_plan, run_point, Combo};
use vod_sim::AdmissionPolicy;

/// Regenerates the four Figure 5 subplots.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let subplots = [
        ("fig5a", 1.2, 1.0),
        ("fig5b", 1.6, 1.0),
        ("fig5c", 1.2, 0.5),
        ("fig5d", 1.6, 0.5),
    ];

    for (name, degree, theta) in subplots {
        let points: Vec<_> = Combo::FIGURE_5
            .iter()
            .map(|&combo| build_plan(setup, combo, theta, degree))
            .collect::<Result<_, _>>()?;

        let mut header: Vec<String> = vec!["lambda/min".into()];
        header.extend(Combo::FIGURE_5.iter().map(|c| c.label()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            &format!(
                "Figure 5{}: rejection rate by algorithm combo (degree {degree}, θ = {theta})",
                &name[4..]
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
                    0xF165 ^ ((k as u64) << 8),
                    reporter.telemetry(),
                )?;
                cells.push(pct(stats.rejection_rate));
                json_rows.push((Combo::FIGURE_5[k].label(), stats));
            }
            table.row(cells);
        }
        reporter.emit_table(name, &table)?;
        reporter.emit_json(name, &json_rows)?;
    }
    Ok(())
}
