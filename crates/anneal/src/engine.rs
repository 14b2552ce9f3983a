//! The generic Metropolis annealer, delta-evaluated.
//!
//! Problem-agnostic: anything exposing reversible in-place moves with an
//! incrementally maintainable energy ([`AnnealProblem`]:
//! `propose_move` / `evaluate_move` / `apply` / `revert`) can be
//! annealed without cloning the state at every step. Problems that cache
//! per-state aggregates (see `vod-anneal::problem` and
//! `vod-anneal::multirate`) evaluate a move in O(affected) instead of
//! O(M·N), which is what makes millions of Metropolis steps cheap. The
//! engine is deterministic given the caller's RNG, making every SA
//! experiment reproducible from a seed.

use crate::schedule::CoolingSchedule;
use rand::Rng;
use vod_telemetry::Telemetry;

/// A problem to minimize by simulated annealing, expressed as reversible
/// in-place moves with delta evaluation.
///
/// # Calling protocol
///
/// The engine drives a state through steps of:
///
/// 1. [`propose_move`](AnnealProblem::propose_move) — draw a candidate
///    move (`None` = nothing to propose at this draw; the step is
///    rejected without consuming further randomness);
/// 2. [`evaluate_move`](AnnealProblem::evaluate_move) — tentatively
///    apply it in place and return the *candidate's total energy*
///    (`None` = the move cannot be made feasible; the state is rolled
///    back internally and the step is rejected);
/// 3. exactly one of [`apply`](AnnealProblem::apply) (commit the
///    tentative application) or [`revert`](AnnealProblem::revert)
///    (discard it, restoring the state bit-for-bit).
///
/// `apply` may also be called without a preceding `evaluate_move` (a
/// "fresh" application, used by differential tests); `revert` then
/// undoes that application. `revert` after a call that left the state
/// unchanged is a no-op.
///
/// `propose_move` and `evaluate_move` take `&mut State` so problems can
/// reuse scratch buffers owned by the state (keeping the hot path
/// allocation-free); both must leave the state *observably* unchanged —
/// `evaluate_move`'s tentative application is resolved by the mandatory
/// `apply`/`revert` that follows.
pub trait AnnealProblem {
    /// The search-space point (including any cached aggregates).
    type State: Clone;

    /// A reversible elementary move.
    type Move;

    /// Energy of a state, recomputed from scratch; the annealer
    /// minimizes this. Used at initialization and by differential
    /// tests — the hot loop goes through
    /// [`evaluate_move`](AnnealProblem::evaluate_move).
    fn energy(&self, state: &Self::State) -> f64;

    /// The state's current energy as the problem tracks it — O(1) for
    /// problems carrying cached aggregates. Defaults to a from-scratch
    /// recompute. Must equal [`energy`](AnnealProblem::energy) up to
    /// incremental float drift (the differential suite bounds it at
    /// 1e-9).
    fn state_energy(&self, state: &Self::State) -> f64 {
        self.energy(state)
    }

    /// Proposes a random move. `None` means no move is available at
    /// this draw (e.g. the drawn server is saturated); the engine
    /// counts the step as rejected without consuming more randomness.
    fn propose_move<R: Rng + ?Sized>(
        &self,
        state: &mut Self::State,
        rng: &mut R,
    ) -> Option<Self::Move>;

    /// Tentatively applies `mv` in place and returns the resulting
    /// total energy. Returns `None` (with the state rolled back) when
    /// the move cannot be made feasible. The caller must follow up
    /// with [`apply`](AnnealProblem::apply) or
    /// [`revert`](AnnealProblem::revert).
    fn evaluate_move(&self, state: &mut Self::State, mv: &Self::Move) -> Option<f64>;

    /// Applies `mv`: commits a pending tentative application, or
    /// applies from scratch when none is pending. Returns `false`
    /// (state unchanged) when the move cannot be applied.
    fn apply(&self, state: &mut Self::State, mv: &Self::Move) -> bool;

    /// Undoes the most recent `evaluate_move`/`apply` of `mv`,
    /// restoring the state (and caches) bit-for-bit. No-op if that
    /// call left the state unchanged.
    fn revert(&self, state: &mut Self::State, mv: &Self::Move);
}

/// Annealer knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnnealParams {
    /// Cooling schedule.
    pub schedule: CoolingSchedule,
    /// Number of temperature epochs.
    pub epochs: u32,
    /// Metropolis steps per epoch.
    pub steps_per_epoch: u32,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            schedule: CoolingSchedule::default_geometric(1.0),
            epochs: 100,
            steps_per_epoch: 100,
        }
    }
}

/// Outcome of an annealing run.
#[derive(Debug, Clone)]
pub struct AnnealResult<S> {
    /// The best state visited.
    pub best_state: S,
    /// Its energy.
    pub best_energy: f64,
    /// Best energy at the end of each epoch (the convergence trajectory
    /// plotted by the SA experiment).
    pub trajectory: Vec<f64>,
    /// Moves accepted (including downhill).
    pub accepted: u64,
    /// Moves rejected.
    pub rejected: u64,
    /// Rejected moves that never reached the Metropolis test: no
    /// candidate was available at the draw, or the candidate could not
    /// be made feasible (subset of `rejected`).
    pub infeasible: u64,
}

impl<S> AnnealResult<S> {
    /// Acceptance ratio over the whole run.
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.accepted as f64 / total as f64
        }
    }
}

/// Minimizes `problem` starting from `initial`.
pub fn anneal<P: AnnealProblem, R: Rng + ?Sized>(
    problem: &P,
    initial: P::State,
    params: &AnnealParams,
    rng: &mut R,
) -> AnnealResult<P::State> {
    anneal_with_telemetry(problem, initial, params, rng, &Telemetry::disabled())
}

/// [`anneal`], recording engine counters and timings into `telemetry`.
/// With a disabled handle the instrumentation reduces to branches on
/// `None` and this is identical to [`anneal`].
///
/// Instruments: counters `anneal.proposed`, `anneal.accepted`,
/// `anneal.rejected`, `anneal.epochs` (temperature steps),
/// `anneal.evaluations` (energy evaluations), and the move-level
/// mirror `anneal.moves.{proposed,accepted,infeasible}`; span
/// `anneal.run` (seconds).
pub fn anneal_with_telemetry<P: AnnealProblem, R: Rng + ?Sized>(
    problem: &P,
    initial: P::State,
    params: &AnnealParams,
    rng: &mut R,
    telemetry: &Telemetry,
) -> AnnealResult<P::State> {
    let _span = telemetry.span("anneal.run");
    let mut current = initial;
    let mut current_energy = problem.state_energy(&current);
    let mut best_state = current.clone();
    let mut best_energy = current_energy;
    let mut trajectory = Vec::with_capacity(params.epochs as usize);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut infeasible = 0u64;

    for epoch in 0..params.epochs {
        let temp = params.schedule.temperature(epoch);
        for _ in 0..params.steps_per_epoch {
            let Some(mv) = problem.propose_move(&mut current, rng) else {
                rejected += 1;
                infeasible += 1;
                continue;
            };
            let Some(candidate_energy) = problem.evaluate_move(&mut current, &mv) else {
                rejected += 1;
                infeasible += 1;
                continue;
            };
            let delta = candidate_energy - current_energy;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept && problem.apply(&mut current, &mv) {
                current_energy = candidate_energy;
                accepted += 1;
                if current_energy < best_energy {
                    best_energy = current_energy;
                    best_state = current.clone();
                }
            } else {
                // Rejected by Metropolis, or (vanishingly rare) accepted
                // but unappliable — e.g. a penalized move kept only for
                // RNG parity with the clone-path reference. Either way
                // the tentative application (if any) is rolled back.
                problem.revert(&mut current, &mv);
                rejected += 1;
            }
        }
        trajectory.push(best_energy);
    }

    if telemetry.is_enabled() {
        let proposed = accepted + rejected;
        // One evaluation for the initial state plus one per proposal.
        let evaluations = proposed + 1;
        telemetry.counter("anneal.proposed").add(proposed);
        telemetry.counter("anneal.accepted").add(accepted);
        telemetry.counter("anneal.rejected").add(rejected);
        telemetry.counter("anneal.moves.proposed").add(proposed);
        telemetry.counter("anneal.moves.accepted").add(accepted);
        telemetry.counter("anneal.moves.infeasible").add(infeasible);
        telemetry
            .counter("anneal.epochs")
            .add(u64::from(params.epochs));
        telemetry.counter("anneal.evaluations").add(evaluations);
    }

    AnnealResult {
        best_state,
        best_energy,
        trajectory,
        accepted,
        rejected,
        infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// 1-D quadratic over integers: minimum at x = 17. A move is the
    /// `(from, to)` pair of a ±1 step, so `revert` can restore `from`.
    #[derive(Clone, Copy)]
    struct Quadratic;

    impl AnnealProblem for Quadratic {
        type State = i64;
        type Move = (i64, i64);
        fn energy(&self, s: &i64) -> f64 {
            let d = (*s - 17) as f64;
            d * d
        }
        fn propose_move<R: Rng + ?Sized>(&self, s: &mut i64, rng: &mut R) -> Option<(i64, i64)> {
            Some((*s, *s + if rng.gen::<bool>() { 1 } else { -1 }))
        }
        fn evaluate_move(&self, _: &mut i64, &(_, to): &(i64, i64)) -> Option<f64> {
            Some(self.energy(&to))
        }
        fn apply(&self, s: &mut i64, &(_, to): &(i64, i64)) -> bool {
            *s = to;
            true
        }
        fn revert(&self, s: &mut i64, &(from, _): &(i64, i64)) {
            *s = from;
        }
    }

    #[test]
    fn finds_quadratic_minimum() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let result = anneal(
            &Quadratic,
            -50,
            &AnnealParams {
                schedule: CoolingSchedule::default_geometric(100.0),
                epochs: 200,
                steps_per_epoch: 50,
            },
            &mut rng,
        );
        assert_eq!(result.best_state, 17);
        assert_eq!(result.best_energy, 0.0);
    }

    #[test]
    fn trajectory_is_monotone_non_increasing() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let result = anneal(&Quadratic, 1000, &AnnealParams::default(), &mut rng);
        assert_eq!(result.trajectory.len(), 100);
        assert!(result.trajectory.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            anneal(&Quadratic, -5, &AnnealParams::default(), &mut rng).best_state
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn telemetry_counters_match_result() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let telemetry = Telemetry::enabled();
        let params = AnnealParams {
            schedule: CoolingSchedule::default_geometric(100.0),
            epochs: 20,
            steps_per_epoch: 30,
        };
        let result = anneal_with_telemetry(&Quadratic, -50, &params, &mut rng, &telemetry);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("anneal.proposed"), 600);
        assert_eq!(snap.counter("anneal.accepted"), result.accepted);
        assert_eq!(snap.counter("anneal.rejected"), result.rejected);
        assert_eq!(snap.counter("anneal.moves.proposed"), 600);
        assert_eq!(snap.counter("anneal.moves.accepted"), result.accepted);
        // Every step has a candidate, so nothing is infeasible.
        assert_eq!(snap.counter("anneal.moves.infeasible"), 0);
        assert_eq!(result.infeasible, 0);
        assert_eq!(snap.counter("anneal.epochs"), 20);
        assert_eq!(snap.counter("anneal.evaluations"), 601);
        assert_eq!(snap.histogram("anneal.run").count, 1);
    }

    #[test]
    fn telemetry_does_not_change_the_search() {
        let run = |telemetry: &Telemetry| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            anneal_with_telemetry(
                &Quadratic,
                -30,
                &AnnealParams::default(),
                &mut rng,
                telemetry,
            )
        };
        let plain = run(&Telemetry::disabled());
        let instrumented = run(&Telemetry::enabled());
        assert_eq!(plain.best_state, instrumented.best_state);
        assert_eq!(plain.accepted, instrumented.accepted);
        assert_eq!(plain.trajectory, instrumented.trajectory);
    }

    #[test]
    fn hot_chain_accepts_uphill() {
        // At very high temperature nearly everything is accepted.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let result = anneal(
            &Quadratic,
            0,
            &AnnealParams {
                schedule: CoolingSchedule::Geometric {
                    t0: 1e9,
                    alpha: 1.0 - f64::EPSILON,
                    t_min: 1e8,
                },
                epochs: 10,
                steps_per_epoch: 100,
            },
            &mut rng,
        );
        assert!(result.acceptance_ratio() > 0.95);
    }

    #[test]
    fn cold_chain_is_greedy() {
        // Near-zero temperature: only downhill moves accepted, so from the
        // minimum nothing moves.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let result = anneal(
            &Quadratic,
            17,
            &AnnealParams {
                schedule: CoolingSchedule::Geometric {
                    t0: 1e-12,
                    alpha: 0.5,
                    t_min: 1e-15,
                },
                epochs: 5,
                steps_per_epoch: 200,
            },
            &mut rng,
        );
        assert_eq!(result.best_state, 17);
        assert!(result.acceptance_ratio() < 0.05);
    }
}
