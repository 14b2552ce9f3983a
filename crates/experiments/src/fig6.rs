//! Figure 6 — "Impact of different replication and placement algorithms
//! on load imbalance degree".
//!
//! Two subplots at replication degree 1.2: θ = 1.0 and θ = 0.5. Each
//! sweeps the arrival rate and reports the time-averaged Eq. (3)
//! imbalance L in percent for the four algorithm combinations.
//!
//! Expected shape (paper, Sec. 5.3): class+rr's L moves strongly with λ;
//! the Zipf/SLF combos stay flatter; L rises under light load, peaks
//! below the capacity rate, then falls and the curves merge once every
//! server saturates (≈10% beyond capacity).
//!
//! Metric note: the reported L is the time-averaged absolute Eq. (2)
//! deviation in streams, as a percentage of one link's stream capacity.
//! The Eq. (3) coefficient of variation (also collected, in the JSON) is
//! dominated by small-sample noise at light load and *decreases*
//! monotonically in λ — it cannot produce the figure's rise-and-fall
//! shape, so the paper's plotted quantity must be the capacity-normalized
//! absolute deviation (see EXPERIMENTS.md).

use crate::config::PaperSetup;
use crate::report::{f3, Reporter, Table};
use crate::runner::{build_plan, run_point, Combo};
use vod_sim::AdmissionPolicy;

/// Regenerates the two Figure 6 subplots.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let degree = 1.2;
    let subplots = [("fig6a", 1.0), ("fig6b", 0.5)];

    for (name, theta) in subplots {
        let points: Vec<_> = Combo::FIGURE_5
            .iter()
            .map(|&combo| build_plan(setup, combo, theta, degree))
            .collect::<Result<_, _>>()?;

        let mut header: Vec<String> = vec!["lambda/min".into()];
        header.extend(Combo::FIGURE_5.iter().map(|c| format!("{} L%", c.label())));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            &format!(
                "Figure 6{}: load-imbalance degree L(%) (degree {degree}, θ = {theta})",
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
                    0xF166 ^ ((k as u64) << 8),
                    reporter.telemetry(),
                )?;
                cells.push(f3(stats.imbalance_maxdev_pct_capacity));
                json_rows.push((Combo::FIGURE_5[k].label(), stats));
            }
            table.row(cells);
        }
        reporter.emit_table(name, &table)?;
        reporter.emit_json(name, &json_rows)?;
    }
    Ok(())
}
