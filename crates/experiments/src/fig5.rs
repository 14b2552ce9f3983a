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
use crate::report::{pct, Reporter};
use crate::runner::{build_plan, lambda_sweep, Combo};

/// Figure 5's base seed: each subplot's λ sweep draws from it.
pub const SEED: u64 = 0xF165;

/// Regenerates the four Figure 5 subplots.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let subplots = [
        ("fig5a", 1.2, 1.0),
        ("fig5b", 1.6, 1.0),
        ("fig5c", 1.2, 0.5),
        ("fig5d", 1.6, 0.5),
    ];
    for (name, degree, theta) in subplots {
        let columns = Combo::FIGURE_5
            .iter()
            .map(|&c| Ok((c.label(), c.label(), build_plan(setup, c, theta, degree)?)))
            .collect::<Result<_, vod_model::ModelError>>()?;
        let title = format!(
            "Figure 5{}: rejection rate by algorithm combo (degree {degree}, θ = {theta})",
            &name[4..]
        );
        lambda_sweep(setup, reporter, name, &title, SEED, columns, |s| {
            pct(s.rejection_rate)
        })?;
    }
    Ok(())
}
