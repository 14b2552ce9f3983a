//! C-2 — Theorem 4.2/4.3 bound tightness.
//!
//! For each replication degree, plan with Adams + smallest-load-first and
//! compare the measured static Eq. (2) imbalance of the expected loads
//! against the theorem's bound `max w − min w`; the bound itself must be
//! non-increasing in the degree (Theorem 4.3).

use crate::config::PaperSetup;
use crate::report::{f3, Reporter, Table};
use crate::runner::{build_plan, Combo};
use serde::Serialize;

/// One row of the bound-tightness table.
#[derive(Debug, Clone, Serialize)]
pub struct BoundRow {
    /// Replication degree.
    pub degree: f64,
    /// Zipf skew θ.
    pub theta: f64,
    /// Theorem 4.2 bound (requests).
    pub bound: f64,
    /// Measured Eq. (2) imbalance of the planned loads (requests).
    pub measured: f64,
    /// `measured / bound` (tightness; ≤ 1 by the theorem).
    pub tightness: f64,
}

/// Computes the table rows.
pub fn compute(setup: &PaperSetup) -> Result<Vec<BoundRow>, Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    for theta in setup.thetas() {
        for degree in setup.degrees() {
            let point = build_plan(setup, Combo::ADAMS_SLF, theta, degree)?;
            let bound = point.plan.imbalance_bound;
            let measured = point.plan.measured_imbalance_eq2;
            rows.push(BoundRow {
                degree,
                theta,
                bound,
                measured,
                tightness: if bound > 0.0 { measured / bound } else { 0.0 },
            });
        }
    }
    Ok(rows)
}

/// Regenerates the C-2 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup)?;
    let mut table = Table::new(
        "C-2: Theorem 4.2 bound vs measured static imbalance (Adams + SLF)",
        &[
            "theta",
            "degree",
            "bound (req)",
            "measured (req)",
            "tightness",
        ],
    );
    for r in &rows {
        table.row(vec![
            format!("{:.2}", r.theta),
            format!("{:.1}", r.degree),
            f3(r.bound),
            f3(r.measured),
            f3(r.tightness),
        ]);
    }
    reporter.emit_table("bound", &table)?;
    reporter.emit_json("bound", &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_holds_and_bound_monotone() {
        let setup = PaperSetup {
            n_videos: 48,
            runs: 1,
            ..PaperSetup::default()
        };
        let rows = compute(&setup).unwrap();
        for r in &rows {
            assert!(
                r.measured <= r.bound + 1e-9,
                "θ={} d={}: measured {} > bound {}",
                r.theta,
                r.degree,
                r.measured,
                r.bound
            );
        }
        // Theorem 4.3 within each θ block.
        for theta_rows in rows.chunks(setup.degrees().len()) {
            for w in theta_rows.windows(2) {
                assert!(w[1].bound <= w[0].bound + 1e-9);
            }
        }
    }
}
