//! Parallel multi-chain annealing.
//!
//! The paper ran its SA on the `parsa` library, whose "parallelization and
//! generic decisions … are transparent to users". This module supplies the
//! same transparency: K independent Metropolis chains run on OS threads
//! over synchronized rounds; after every round the chains' results are
//! gathered over a crossbeam channel and the globally best state is
//! re-seeded into every chain (elitist exchange). Given the per-chain
//! seeds, the whole procedure is deterministic regardless of thread
//! interleaving, because exchange happens only at round barriers.

use crate::engine::{anneal_with_telemetry, AnnealParams, AnnealProblem, AnnealResult};
use crate::schedule::CoolingSchedule;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_telemetry::Telemetry;

/// Parallel-run knobs.
#[derive(Debug, Clone, Copy)]
pub struct ParallelParams {
    /// Number of chains (threads).
    pub chains: u32,
    /// Epochs per exchange round.
    pub epochs_per_round: u32,
    /// Number of exchange rounds.
    pub rounds: u32,
    /// Metropolis steps per epoch, per chain.
    pub steps_per_epoch: u32,
    /// Cooling schedule (advanced across rounds: round `r` starts at
    /// epoch `r · epochs_per_round`).
    pub schedule: CoolingSchedule,
    /// Base RNG seed; chain `c` in round `r` uses
    /// `seed ⊕ (r · chains + c)` splits.
    pub seed: u64,
}

impl Default for ParallelParams {
    fn default() -> Self {
        ParallelParams {
            chains: 4,
            epochs_per_round: 10,
            rounds: 10,
            steps_per_epoch: 100,
            schedule: CoolingSchedule::default_geometric(1.0),
            seed: 0,
        }
    }
}

/// Shifts a schedule so epoch 0 of a round corresponds to global epoch
/// `offset`.
fn shifted(schedule: CoolingSchedule, offset: u32) -> CoolingSchedule {
    let CoolingSchedule::Geometric { alpha, t_min, .. } = schedule;
    CoolingSchedule::Geometric {
        t0: schedule.temperature(offset),
        alpha,
        t_min,
    }
}

/// Minimizes `problem` with `params.chains` exchanging chains, starting
/// every chain from `initial`.
pub fn anneal_parallel<P>(
    problem: &P,
    initial: P::State,
    params: &ParallelParams,
) -> AnnealResult<P::State>
where
    P: AnnealProblem + Sync,
    P::State: Send + Sync,
{
    anneal_parallel_with_telemetry(problem, initial, params, &Telemetry::disabled())
}

/// [`anneal_parallel`], with every chain recording its `anneal.*`
/// engine instruments into `telemetry` (the handle is shared, so
/// counters accumulate across chains and rounds), plus the coordinator's
/// own `anneal.rounds` counter and `anneal.parallel_run` span.
pub fn anneal_parallel_with_telemetry<P>(
    problem: &P,
    initial: P::State,
    params: &ParallelParams,
    telemetry: &Telemetry,
) -> AnnealResult<P::State>
where
    P: AnnealProblem + Sync,
    P::State: Send + Sync,
{
    let span = telemetry.span("anneal.parallel_run");
    let mut global_best = initial.clone();
    let mut global_energy = problem.energy(&global_best);
    let mut trajectory = Vec::with_capacity((params.rounds * params.epochs_per_round) as usize);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut infeasible = 0u64;

    for round in 0..params.rounds {
        let round_params = AnnealParams {
            schedule: shifted(params.schedule, round * params.epochs_per_round),
            epochs: params.epochs_per_round,
            steps_per_epoch: params.steps_per_epoch,
        };
        // One slot per chain: every worker sends exactly once, so a
        // bounded channel never blocks but caps the fan-in buffer.
        let (tx, rx) = crossbeam::channel::bounded(params.chains as usize);
        std::thread::scope(|scope| {
            for chain in 0..params.chains {
                let tx = tx.clone();
                let start = global_best.clone();
                let seed = params
                    .seed
                    .wrapping_add((round as u64) * params.chains as u64 + chain as u64 + 1);
                let chain_telemetry = telemetry.clone();
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let result = anneal_with_telemetry(
                        problem,
                        start,
                        &round_params,
                        &mut rng,
                        &chain_telemetry,
                    );
                    tx.send((chain, result)).expect("coordinator alive");
                });
            }
        });
        drop(tx);

        // Deterministic merge: order by chain id, not arrival order.
        let mut results: Vec<(u32, AnnealResult<P::State>)> = rx.iter().collect();
        results.sort_by_key(|(chain, _)| *chain);
        let mut round_traj: Vec<f64> = vec![f64::INFINITY; params.epochs_per_round as usize];
        for (_, r) in results {
            accepted += r.accepted;
            rejected += r.rejected;
            infeasible += r.infeasible;
            for (slot, &e) in round_traj.iter_mut().zip(&r.trajectory) {
                *slot = slot.min(e);
            }
            if r.best_energy < global_energy {
                global_energy = r.best_energy;
                global_best = r.best_state;
            }
        }
        // Trajectory records the global best-so-far per epoch.
        let mut running = trajectory.last().copied().unwrap_or(f64::INFINITY);
        for e in round_traj {
            running = running.min(e);
            trajectory.push(running);
        }
    }

    telemetry
        .counter("anneal.rounds")
        .add(u64::from(params.rounds));
    drop(span);

    AnnealResult {
        best_state: global_best,
        best_energy: global_energy,
        trajectory,
        accepted,
        rejected,
        infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Rastrigin-flavored 1-D integer landscape with many local minima;
    /// global minimum at x = 0. A move is the `(from, to)` pair of a
    /// step of at most 3.
    #[derive(Clone, Copy)]
    struct BumpyLandscape;

    impl AnnealProblem for BumpyLandscape {
        type State = i64;
        type Move = (i64, i64);
        fn energy(&self, s: &i64) -> f64 {
            let x = *s as f64 / 10.0;
            x * x + 5.0 * (1.0 - (2.0 * std::f64::consts::PI * x).cos())
        }
        fn propose_move<R: Rng + ?Sized>(&self, s: &mut i64, rng: &mut R) -> Option<(i64, i64)> {
            Some((*s, *s + rng.gen_range(-3i64..=3)))
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
    fn parallel_finds_global_minimum() {
        let params = ParallelParams {
            chains: 4,
            epochs_per_round: 20,
            rounds: 5,
            steps_per_epoch: 200,
            schedule: CoolingSchedule::default_geometric(20.0),
            seed: 1,
        };
        let result = anneal_parallel(&BumpyLandscape, 500, &params);
        assert_eq!(result.best_state, 0, "energy {}", result.best_energy);
    }

    #[test]
    fn deterministic_given_seed() {
        let params = ParallelParams {
            chains: 3,
            rounds: 3,
            ..Default::default()
        };
        let a = anneal_parallel(&BumpyLandscape, 100, &params);
        let b = anneal_parallel(&BumpyLandscape, 100, &params);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn merge_is_byte_identical_across_reruns_for_any_chain_count() {
        // Regression guard for the chain-id merge: results must not
        // depend on thread arrival order, so repeated runs are
        // bit-identical whether one chain or eight feed the channel.
        for chains in [1u32, 8] {
            let params = ParallelParams {
                chains,
                epochs_per_round: 5,
                rounds: 3,
                steps_per_epoch: 50,
                schedule: CoolingSchedule::default_geometric(5.0),
                seed: 9,
            };
            let a = anneal_parallel(&BumpyLandscape, 250, &params);
            let b = anneal_parallel(&BumpyLandscape, 250, &params);
            assert_eq!(a.best_state, b.best_state, "chains={chains}");
            assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits());
            let bits = |t: &[f64]| t.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.trajectory), bits(&b.trajectory));
            assert_eq!(
                (a.accepted, a.rejected, a.infeasible),
                (b.accepted, b.rejected, b.infeasible)
            );
        }
    }

    #[test]
    fn trajectory_length_and_monotonicity() {
        let params = ParallelParams {
            chains: 2,
            epochs_per_round: 5,
            rounds: 4,
            steps_per_epoch: 50,
            ..Default::default()
        };
        let r = anneal_parallel(&BumpyLandscape, 200, &params);
        assert_eq!(r.trajectory.len(), 20);
        assert!(r.trajectory.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn move_budget_scales_with_chains() {
        let base = ParallelParams {
            chains: 1,
            epochs_per_round: 10,
            rounds: 4,
            steps_per_epoch: 100,
            schedule: CoolingSchedule::default_geometric(10.0),
            seed: 5,
        };
        let single = anneal_parallel(&BumpyLandscape, 300, &base);
        let multi = anneal_parallel(&BumpyLandscape, 300, &ParallelParams { chains: 4, ..base });
        assert_eq!(single.accepted + single.rejected, 4_000);
        assert_eq!(multi.accepted + multi.rejected, 16_000);
        // Elitist exchange: the result can never be worse than the start.
        assert!(multi.best_energy <= BumpyLandscape.energy(&300));
    }

    #[test]
    fn parallel_telemetry_accumulates_across_chains() {
        let params = ParallelParams {
            chains: 2,
            epochs_per_round: 5,
            rounds: 3,
            steps_per_epoch: 40,
            ..Default::default()
        };
        let telemetry = Telemetry::enabled();
        let r = anneal_parallel_with_telemetry(&BumpyLandscape, 200, &params, &telemetry);
        let snap = telemetry.snapshot();
        // 2 chains × 3 rounds × 5 epochs × 40 steps.
        assert_eq!(snap.counter("anneal.proposed"), 1_200);
        assert_eq!(snap.counter("anneal.proposed"), r.accepted + r.rejected);
        assert_eq!(snap.counter("anneal.rounds"), 3);
        // One engine span per chain per round.
        assert_eq!(snap.histogram("anneal.run").count, 6);
        assert_eq!(snap.histogram("anneal.parallel_run").count, 1);
    }

    #[test]
    fn shifted_geometric_matches_direct() {
        let s = CoolingSchedule::Geometric {
            t0: 8.0,
            alpha: 0.5,
            t_min: 1e-9,
        };
        let sh = shifted(s, 2);
        assert!((sh.temperature(0) - s.temperature(2)).abs() < 1e-12);
        assert!((sh.temperature(3) - s.temperature(5)).abs() < 1e-12);
    }
}
