//! SA-1 — the simulated-annealing evaluation the paper omitted
//! ("Due to the space limitation, the results of the simulated annealing
//! algorithm are omitted", Sec. 5).
//!
//! We run the Sec. 4.3 scalable-bit-rate problem on the parallel annealer
//! and report: the objective trajectory, the initial vs final objective
//! components (mean rate, replication degree, imbalance), and a
//! comparison against the fixed-rate Adams+SLF plan evaluated under the
//! same Eq. (1) objective.

use crate::config::PaperSetup;
use crate::report::{f3, Reporter, Table};
use crate::runner::{build_plan, Combo};
use serde::Serialize;
use vod_anneal::{
    anneal_parallel_with_telemetry, CoolingSchedule, ParallelParams, ScalableProblem,
};
use vod_model::{load, BitRate, ClusterSpec, ModelError, ObjectiveWeights, Popularity};
use vod_telemetry::Telemetry;

/// SA-1's base seed, which every chain's RNG is split from.
pub const SEED: u64 = 0x5A;

/// Storage degree of SA-1's cluster and of its fixed-rate reference.
const STORAGE_DEGREE: f64 = 1.4;

/// Builds SA-1's problem at skew `theta` through `new`, handed
/// `ScalableProblem::new`'s arguments (SA-2's multi-rate arms pass them
/// on to `MultiRateProblem::new`): Zipf(θ), the paper cluster at storage
/// degree 1.4, the rate ladder, demand at 60 % of link capacity and the
/// default Eq. (1) weights.
pub(crate) fn problem_with<P>(
    setup: &PaperSetup,
    theta: f64,
    new: impl FnOnce(
        Popularity,
        ClusterSpec,
        u64,
        Vec<BitRate>,
        f64,
        ObjectiveWeights,
    ) -> Result<P, ModelError>,
) -> Result<P, ModelError> {
    new(
        setup.popularity(theta)?,
        setup.cluster(STORAGE_DEGREE),
        setup.duration_s,
        BitRate::LADDER.to_vec(),
        // Demand at 60% of link capacity so the lowest-rate initial
        // solution is feasible even under θ = 1 skew (constraint 5 is a
        // planning constraint — the paper plans for an expected peak,
        // not overload).
        setup.capacity_demand() * 0.6,
        ObjectiveWeights::default(),
    )
}

/// SA-1's scalable-bit-rate problem at skew `theta`.
pub fn problem(setup: &PaperSetup, theta: f64) -> Result<ScalableProblem, ModelError> {
    problem_with(setup, theta, ScalableProblem::new)
}

/// SA-1's cooling over `n_videos` = M titles: geometric from
/// `t0 = 20/M`, by 0.93 per epoch, down to `t0·1e-4`. Temperature must
/// be commensurate with per-move objective deltas, which scale as 1/M
/// (one video's rate step or one replica changes the Eq. (1) averages by
/// O(1/M)); a size-blind t0 turns the walk into noise until the very
/// last epochs.
pub fn schedule(n_videos: usize) -> CoolingSchedule {
    let t0 = 20.0 / n_videos as f64;
    CoolingSchedule::Geometric {
        t0,
        alpha: 0.93,
        t_min: t0 * 1e-4,
    }
}

/// SA-1's annealer: 4 chains × 12 rounds × 12 epochs × 700 steps on
/// [`schedule`], every chain's RNG split from `seed`.
pub(crate) fn params(setup: &PaperSetup, seed: u64) -> ParallelParams {
    ParallelParams {
        chains: 4,
        epochs_per_round: 12,
        rounds: 12,
        steps_per_epoch: 700,
        schedule: schedule(setup.n_videos),
        seed,
    }
}

/// Summary of one SA experiment.
#[derive(Debug, Clone, Serialize)]
pub struct SaSummary {
    /// Objective of the paper's initial solution.
    pub initial_objective: f64,
    /// Objective of the annealed solution.
    pub final_objective: f64,
    /// Mean encoding rate (Mbps) of the annealed solution.
    pub final_mean_rate_mbps: f64,
    /// Mean replication degree of the annealed solution.
    pub final_degree: f64,
    /// Eq. (3) imbalance of the annealed expected loads.
    pub final_imbalance: f64,
    /// Objective of the fixed-rate Adams+SLF plan under the same weights.
    pub fixed_rate_objective: f64,
    /// Best-energy trajectory (negated objectives), one entry per epoch.
    pub trajectory: Vec<f64>,
}

/// Runs the SA experiment at skew `theta`, recording the annealer's
/// `anneal.*` instruments into `telemetry`.
pub fn evaluate(
    setup: &PaperSetup,
    theta: f64,
    telemetry: &Telemetry,
) -> Result<SaSummary, Box<dyn std::error::Error>> {
    let problem = problem(setup, theta)?;
    let initial = problem.initial_state();
    let initial_objective = problem.objective(&initial);
    let result = anneal_parallel_with_telemetry(
        &problem,
        problem.search_state(initial),
        &params(setup, SEED),
        telemetry,
    );
    let best = result.best_state.state();
    let final_objective = problem.objective(best);
    let m = problem.n_videos() as f64;
    let final_mean_rate_mbps = best.rates.iter().map(|r| r.mbps()).sum::<f64>() / m;
    let final_degree = best.assignments.iter().map(|a| a.len() as f64).sum::<f64>() / m;
    let weights = ObjectiveWeights::default();
    let final_imbalance = load::imbalance(&problem.bandwidth_load(best), weights.metric);

    // Fixed-rate reference: Adams + SLF at the paper's 4 Mbps, evaluated
    // under the same objective (its rate term is the fixed 4.0 Mbps).
    let fixed = build_plan(setup, Combo::ADAMS_SLF, theta, STORAGE_DEGREE)?;
    let fixed_rate_objective = weights.evaluate_components(
        4.0,
        fixed.plan.scheme.degree(),
        fixed.plan.measured_imbalance_cv,
    );

    Ok(SaSummary {
        initial_objective,
        final_objective,
        final_mean_rate_mbps,
        final_degree,
        final_imbalance,
        fixed_rate_objective,
        trajectory: result.trajectory,
    })
}

/// Regenerates the SA-1 tables.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(
        "SA-1: scalable-bit-rate simulated annealing (Eq. 1 objective, α = β = 1)",
        &[
            "theta",
            "initial O",
            "annealed O",
            "mean rate",
            "degree",
            "imbalance",
            "fixed-rate O",
        ],
    );
    let mut summaries = Vec::new();
    for theta in setup.thetas() {
        let s = evaluate(setup, theta, reporter.telemetry())?;
        table.row(vec![
            format!("{theta:.2}"),
            f3(s.initial_objective),
            f3(s.final_objective),
            format!("{:.2} Mbps", s.final_mean_rate_mbps),
            f3(s.final_degree),
            f3(s.final_imbalance),
            f3(s.fixed_rate_objective),
        ]);
        summaries.push((theta, s));
    }
    reporter.emit_table("sa", &table)?;

    let mut traj = Table::new(
        "SA-1: objective trajectory (θ = 1.0, best objective per epoch)",
        &["epoch", "objective"],
    );
    if let Some((_, s)) = summaries.first() {
        for (k, e) in s.trajectory.iter().enumerate() {
            if k % 5 == 0 || k + 1 == s.trajectory.len() {
                traj.row(vec![k.to_string(), f3(-e)]);
            }
        }
    }
    reporter.emit_table("sa_trajectory", &traj)?;
    reporter.emit_json("sa", &summaries)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa_improves_over_initial() {
        let setup = PaperSetup {
            n_videos: 32,
            runs: 1,
            ..PaperSetup::default()
        };
        let s = evaluate(&setup, 0.75, &Telemetry::disabled()).unwrap();
        assert!(
            s.final_objective >= s.initial_objective,
            "annealed {} < initial {}",
            s.final_objective,
            s.initial_objective
        );
        assert!(s.final_mean_rate_mbps >= 1.5);
    }
}
