//! SA-2 — the multi-rate-replica extension (paper future work).
//!
//! Compares annealed solutions of three formulations on the same cluster
//! and demand:
//!
//! 1. **single-rate** — the paper's Sec. 4.3 problem (all replicas of a
//!    video share one rate);
//! 2. **multi-rate, Eq. (1) quality** — per-replica rates, quality term
//!    still the unweighted mean over videos;
//! 3. **multi-rate, popularity-weighted quality** — the variant that
//!    optimizes what viewers actually receive.
//!
//! The report shows the objective components plus the *viewer-weighted*
//! delivered quality `Σ p_i · delivered_i` for all three, making the
//! objective ablation visible: Eq. (1)'s unweighted mean happily leaves
//! the hottest titles at low rates (upgrading an unpopular video is
//! bandwidth-cheap), while the weighted variant spends its bandwidth on
//! the head of the distribution.

use crate::config::PaperSetup;
use crate::report::{f3, Reporter, Table};
use crate::sa;
use serde::Serialize;
use vod_anneal::{anneal_parallel_with_telemetry, MultiRateProblem};
use vod_model::Popularity;
use vod_telemetry::Telemetry;

/// SA-2's base seed: the single-rate arm anneals from it, the two
/// multi-rate arms from `SEED + 1` and `SEED + 2`.
pub const SEED: u64 = 0x5A21;

/// Comparable summary of one formulation's annealed solution.
#[derive(Debug, Clone, Serialize)]
pub struct FormulationSummary {
    /// Formulation label.
    pub name: &'static str,
    /// Its own objective value (not comparable across formulations).
    pub objective: f64,
    /// Unweighted mean delivered rate (Mbps).
    pub mean_delivered_mbps: f64,
    /// Popularity-weighted delivered rate (Mbps) — what a random viewer
    /// receives in expectation.
    pub viewer_mbps: f64,
    /// Mean delivered rate of the top 10% of titles (Mbps).
    pub head_mbps: f64,
    /// Mean replication degree.
    pub degree: f64,
}

/// One formulation's row from its objective, the rate each title
/// delivers (Mbps, by rank) under `pop` and its mean degree.
fn row(
    name: &'static str,
    objective: f64,
    delivered: &[f64],
    pop: &Popularity,
    degree: f64,
) -> FormulationSummary {
    let head = (delivered.len() / 10).max(1);
    FormulationSummary {
        name,
        objective,
        mean_delivered_mbps: delivered.iter().sum::<f64>() / delivered.len() as f64,
        viewer_mbps: delivered
            .iter()
            .enumerate()
            .map(|(v, &d)| pop.get(v) * d)
            .sum(),
        head_mbps: delivered.iter().take(head).sum::<f64>() / head as f64,
        degree,
    }
}

/// Runs the three formulations on SA-1's problem at θ = 1 and SA-1's
/// annealer settings. Records the annealer's `anneal.*` instruments into
/// `telemetry`.
pub fn compute(
    setup: &PaperSetup,
    telemetry: &Telemetry,
) -> Result<Vec<FormulationSummary>, Box<dyn std::error::Error>> {
    let m = setup.n_videos;
    let pop = setup.popularity(1.0)?;

    // 1. Single-rate (paper Sec. 4.3).
    let problem = sa::problem(setup, 1.0)?;
    let params = sa::params(setup, SEED);
    let result =
        anneal_parallel_with_telemetry(&problem, problem.initial_search(), &params, telemetry);
    let best = result.best_state.into_state();
    let delivered: Vec<f64> = best.rates.iter().map(|r| r.mbps()).collect();
    let degree = best.assignments.iter().map(|a| a.len() as f64).sum::<f64>() / m as f64;
    let objective = problem.objective(&best);
    let mut out = vec![row("single-rate", objective, &delivered, &pop, degree)];

    // Warm start for the multi-rate runs: the single-rate optimum is a
    // valid multi-rate state. The cold start converges to replica-heavy
    // storage-saturated plateaus that dominate the walk (a real SA
    // finding, recorded in EXPERIMENTS.md); starting inside the
    // single-rate basin turns SA-2 into the clean question "does
    // per-replica rate freedom improve on the paper's formulation?".
    let warm_start = vod_anneal::MultiRateState {
        replicas: best
            .assignments
            .iter()
            .enumerate()
            .map(|(v, servers)| {
                servers
                    .iter()
                    .map(|&server| vod_anneal::RatedReplica {
                        server,
                        rate: best.rates[v],
                    })
                    .collect()
            })
            .collect(),
    };

    // 2 & 3. Multi-rate, both quality conventions.
    for (name, weighted, seed) in [
        ("multi-rate eq1", false, SEED + 1),
        ("multi-rate weighted", true, SEED + 2),
    ] {
        let problem =
            sa::problem_with(setup, 1.0, |pop, cluster, duration_s, ladder, demand, w| {
                MultiRateProblem::new(pop, cluster, duration_s, ladder, demand, w, weighted)
            })?;
        debug_assert!(problem.is_feasible(&warm_start));
        let result = anneal_parallel_with_telemetry(
            &problem,
            problem.search_state(warm_start.clone()),
            &sa::params(setup, seed),
            telemetry,
        );
        let s = result.best_state.state();
        let delivered: Vec<f64> = (0..m).map(|v| s.delivered_mbps(v)).collect();
        let objective = problem.objective(s);
        out.push(row(name, objective, &delivered, &pop, s.degree()));
    }
    Ok(out)
}

/// Regenerates the SA-2 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup, reporter.telemetry())?;
    let mut table = Table::new(
        "SA-2: multi-rate replicas (future work) — delivered quality by formulation \
         (θ = 1.0, degree budget 1.4, demand 60% capacity)",
        &[
            "formulation",
            "objective",
            "mean Mbps",
            "viewer Mbps",
            "top-10% Mbps",
            "degree",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.name.to_string(),
            f3(r.objective),
            f3(r.mean_delivered_mbps),
            f3(r.viewer_mbps),
            f3(r.head_mbps),
            f3(r.degree),
        ]);
    }
    reporter.emit_table("sa_multirate", &table)?;
    reporter.emit_json("sa_multirate", &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multirate_relaxation_never_loses_to_single_rate() {
        // The guaranteed invariant (warm start + elitist exchange): on
        // the *shared* Eq. (1) objective, the multi-rate relaxation ends
        // at least as well as the single-rate solution it starts from.
        // The viewer-quality ordering of the weighted variant is a
        // full-scale claim, verified by the `sa2` experiment at M = 200
        // and recorded in EXPERIMENTS.md — at toy scale the storage cap
        // (degree <= 1.5 at M = 32) changes the economics entirely.
        let setup = PaperSetup {
            n_videos: 32,
            runs: 1,
            ..PaperSetup::default()
        };
        let rows = compute(&setup, &Telemetry::disabled()).unwrap();
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        let single = get("single-rate");
        let eq1 = get("multi-rate eq1");
        assert!(
            eq1.objective >= single.objective - 1e-9,
            "relaxation {} lost to single-rate {}",
            eq1.objective,
            single.objective
        );
        // Everything stays within the ladder.
        for r in &rows {
            assert!(r.mean_delivered_mbps >= 1.5 - 1e-9);
            assert!(r.mean_delivered_mbps <= 8.0 + 1e-9);
            assert!(r.viewer_mbps >= 1.5 - 1e-9);
            assert!(r.degree >= 1.0 - 1e-9);
        }
    }
}
