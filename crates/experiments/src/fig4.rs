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
use crate::report::{pct, Reporter};
use crate::runner::{build_plan, lambda_sweep, Combo};

/// Figure 4's base seed: each subplot's λ sweep draws from it.
pub const SEED: u64 = 0xF164;

/// Regenerates the four Figure 4 subplots.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let subplots = [
        ("fig4a", Combo::ZIPF_SLF, 1.0),
        ("fig4b", Combo::CLASS_RR, 1.0),
        ("fig4c", Combo::ZIPF_SLF, 0.5),
        ("fig4d", Combo::CLASS_RR, 0.5),
    ];
    for (name, combo, theta) in subplots {
        // One plan per degree, reused across the λ sweep.
        let columns = setup
            .degrees()
            .into_iter()
            .map(|d| {
                Ok((
                    format!("deg {d:.1}"),
                    d,
                    build_plan(setup, combo, theta, d)?,
                ))
            })
            .collect::<Result<_, vod_model::ModelError>>()?;
        let title = format!(
            "Figure 4{}: rejection rate, {} (θ = {theta})",
            &name[4..],
            combo.label()
        );
        lambda_sweep(setup, reporter, name, &title, SEED, columns, |s| {
            pct(s.rejection_rate)
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_point;
    use vod_sim::AdmissionPolicy;
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
