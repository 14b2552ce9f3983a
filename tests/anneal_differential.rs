//! Differential harness for the delta-evaluated annealing kernel.
//!
//! The library anneals through one protocol: in-place moves over cached
//! per-server aggregates (`AnnealProblem`). This file keeps the
//! clone-per-step reference it must equal: each problem's Sec. 4.3
//! neighbourhood written plainly against the public API (clone the
//! state, raise a rate or add a replica, repair by rescanning, recompute
//! the energy from scratch), driven by a plain Metropolis loop. From the
//! same seed both walks visit the same states, and the incrementally
//! maintained energy must track a from-scratch recompute within 1e-9 at
//! every step. Reverts must restore search states bit-for-bit —
//! floating-point caches included — which is what makes the equivalence
//! hold over arbitrarily long walks. Fixed-seed goldens pin the annealed
//! results across builds.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vod_anneal::{
    anneal, anneal_parallel, AnnealParams, AnnealProblem, CoolingSchedule, MultiRateProblem,
    MultiRateState, ParallelParams, RatedReplica, ScalableProblem, ScalableState,
};
use vod_model::{BitRate, ClusterSpec, ObjectiveWeights, Popularity, ServerId, ServerSpec};

const DURATION_S: u64 = 5_400;

/// Four servers with 1.8 Gbps links and storage for `copies`
/// lowest-rate copies each.
fn cluster(copies: u64) -> ClusterSpec {
    let low_bytes = BitRate::LADDER[0].storage_bytes(DURATION_S);
    ClusterSpec::homogeneous(
        4,
        ServerSpec {
            storage_bytes: copies * low_bytes,
            bandwidth_kbps: 1_800_000,
        },
    )
    .unwrap()
}

fn scalable(m: usize, theta: f64, demand: f64) -> ScalableProblem {
    ScalableProblem::new(
        Popularity::zipf(m, theta).unwrap(),
        cluster(m as u64), // ~4x the single-copy need
        DURATION_S,
        BitRate::LADDER.to_vec(),
        demand,
        ObjectiveWeights::default(),
    )
    .unwrap()
}

fn multirate(m: usize, theta: f64, demand: f64, weighted: bool) -> MultiRateProblem {
    MultiRateProblem::new(
        Popularity::zipf(m, theta).unwrap(),
        cluster(m as u64), // ~4x the single-copy need
        DURATION_S,
        BitRate::LADDER.to_vec(),
        demand,
        ObjectiveWeights::default(),
        weighted,
    )
    .unwrap()
}

fn walk_params() -> AnnealParams {
    AnnealParams {
        schedule: CoolingSchedule::default_geometric(0.5),
        epochs: 20,
        steps_per_epoch: 40,
    }
}

/// The clone-per-step reference of one problem.
trait CloneReference {
    /// The plain search-space point.
    type Plain: Clone;

    /// `−O` recomputed from scratch, plus 1e9 when a constraint fails.
    fn reference_energy(&self, state: &Self::Plain) -> f64;

    /// A repaired random neighbour of `state`, or `state` itself when
    /// the server is saturated or the move cannot be made feasible.
    fn neighbor(&self, state: &Self::Plain, rng: &mut ChaCha8Rng) -> Self::Plain;
}

/// `−O`, plus 1e9 for an infeasible state.
fn penalized(objective: f64, feasible: bool) -> f64 {
    let mut e = -objective;
    if !feasible {
        e += 1e9;
    }
    e
}

/// Whether `server` meets storage (4) and bandwidth (5), given every
/// server's stored bytes and expected load.
fn fits(cluster: &ClusterSpec, server: usize, storage: &[u64], load: &[f64]) -> bool {
    let spec = &cluster.servers()[server];
    storage[server] <= spec.storage_bytes && load[server] <= spec.bandwidth_kbps as f64 + 1e-6
}

/// Sec. 4.3's repair on `server`: while it violates (4)/(5), step the
/// lowest-rate video on it (the least popular among ties) down the
/// ladder, or drop one of its replicas; a video's last replica at the
/// lowest rate gives way to the first other video on the server that
/// can shrink. False when stuck.
fn scalable_repair(p: &ScalableProblem, state: &mut ScalableState, server: usize) -> bool {
    let sid = ServerId(server as u32);
    let mut guard = 0;
    while !fits(
        &p.cluster,
        server,
        &p.storage_used(state),
        &p.bandwidth_load(state),
    ) {
        guard += 1;
        if guard > 10_000 {
            return false;
        }
        let victim = (0..state.assignments.len())
            .filter(|&v| state.assignments[v].contains(&sid))
            .min_by(|&a, &b| state.rates[a].cmp(&state.rates[b]).then(b.cmp(&a)));
        let Some(v) = victim else {
            return false;
        };
        let shrinkable = |u: usize, state: &ScalableState| {
            state.rates[u].step_down(&p.ladder).is_some() || state.assignments[u].len() > 1
        };
        let u = if shrinkable(v, state) {
            v
        } else {
            match (0..state.assignments.len())
                .find(|&u| u != v && state.assignments[u].contains(&sid) && shrinkable(u, state))
            {
                Some(u) => u,
                None => return false,
            }
        };
        if let Some(down) = state.rates[u].step_down(&p.ladder) {
            state.rates[u] = down;
        } else {
            state.assignments[u].retain(|&s| s != sid);
        }
    }
    true
}

impl CloneReference for ScalableProblem {
    type Plain = ScalableState;

    fn reference_energy(&self, state: &ScalableState) -> f64 {
        penalized(self.objective(state), self.is_feasible(state))
    }

    /// Draw a server; on a coin, raise the rate of a random video it
    /// hosts, otherwise (or at the top rung) place a random absent
    /// video on it; then repair that server and every other one the
    /// move overloaded.
    fn neighbor(&self, state: &ScalableState, rng: &mut ChaCha8Rng) -> ScalableState {
        let mut next = state.clone();
        let n = self.n_servers();
        let server = rng.gen_range(0..n);
        let sid = ServerId(server as u32);
        let mut moved = false;
        if rng.gen::<bool>() {
            let hosted: Vec<usize> = (0..next.assignments.len())
                .filter(|&v| next.assignments[v].contains(&sid))
                .collect();
            if !hosted.is_empty() {
                let v = hosted[rng.gen_range(0..hosted.len())];
                if let Some(up) = next.rates[v].step_up(&self.ladder) {
                    next.rates[v] = up;
                    moved = true;
                }
            }
        }
        if !moved {
            let absent: Vec<usize> = (0..next.assignments.len())
                .filter(|&v| !next.assignments[v].contains(&sid) && next.assignments[v].len() < n)
                .collect();
            if absent.is_empty() {
                return next;
            }
            let v = absent[rng.gen_range(0..absent.len())];
            next.assignments[v].push(sid);
        }
        let ok = scalable_repair(self, &mut next, server)
            && (0..n)
                .filter(|&j| j != server)
                .all(|j| scalable_repair(self, &mut next, j));
        if ok && self.is_feasible(&next) {
            next
        } else {
            state.clone()
        }
    }
}

/// The multi-rate repair on `server`: while it violates (4)/(5), step
/// its lowest-rate downgradable replica down a rung, else drop its
/// lowest-rate replica of a video with spare copies (the first video
/// among equal rates). False when stuck.
fn multirate_repair(p: &MultiRateProblem, state: &mut MultiRateState, server: usize) -> bool {
    let sid = ServerId(server as u32);
    let mut guard = 0;
    while !fits(
        &p.cluster,
        server,
        &p.storage_used(state),
        &p.bandwidth_load(state),
    ) {
        guard += 1;
        if guard > 10_000 {
            return false;
        }
        let mut downgrade: Option<(BitRate, usize, usize)> = None;
        let mut droppable: Option<(BitRate, usize, usize)> = None;
        for (v, reps) in state.replicas.iter().enumerate() {
            for (k, r) in reps.iter().enumerate().filter(|(_, r)| r.server == sid) {
                if r.rate.step_down(&p.ladder).is_some()
                    && downgrade.is_none_or(|(best, _, _)| r.rate < best)
                {
                    downgrade = Some((r.rate, v, k));
                }
                if reps.len() > 1 && droppable.is_none_or(|(best, _, _)| r.rate < best) {
                    droppable = Some((r.rate, v, k));
                }
            }
        }
        if let Some((rate, v, k)) = downgrade {
            state.replicas[v][k].rate = rate.step_down(&p.ladder).expect("checked");
        } else if let Some((_, v, k)) = droppable {
            state.replicas[v].remove(k);
        } else {
            return false;
        }
    }
    true
}

impl CloneReference for MultiRateProblem {
    type Plain = MultiRateState;

    fn reference_energy(&self, state: &MultiRateState) -> f64 {
        penalized(self.objective(state), self.is_feasible(state))
    }

    /// Draw a server and a 0..10 die: on 0 drop a random spare replica
    /// it hosts, unrepaired (an overloading drop is penalized away); on
    /// 1–4 raise the rate of a random replica it hosts; otherwise (or at
    /// the top rung) add a lowest-rate replica of a random absent video;
    /// then repair every server.
    fn neighbor(&self, state: &MultiRateState, rng: &mut ChaCha8Rng) -> MultiRateState {
        let mut next = state.clone();
        let n = self.n_servers();
        let server = rng.gen_range(0..n);
        let sid = ServerId(server as u32);
        let on_server = |next: &MultiRateState, spare_only: bool| -> Vec<(usize, usize)> {
            next.replicas
                .iter()
                .enumerate()
                .filter(|(_, reps)| !spare_only || reps.len() > 1)
                .flat_map(|(v, reps)| {
                    reps.iter()
                        .enumerate()
                        .filter(|(_, r)| r.server == sid)
                        .map(move |(k, _)| (v, k))
                })
                .collect()
        };
        let dice = rng.gen_range(0..10);
        if dice == 0 {
            let droppable = on_server(&next, true);
            if droppable.is_empty() {
                return next;
            }
            let (v, k) = droppable[rng.gen_range(0..droppable.len())];
            next.replicas[v].remove(k);
            return next;
        }
        let mut moved = false;
        if dice < 5 {
            let hosted = on_server(&next, false);
            if !hosted.is_empty() {
                let (v, k) = hosted[rng.gen_range(0..hosted.len())];
                if let Some(up) = next.replicas[v][k].rate.step_up(&self.ladder) {
                    next.replicas[v][k].rate = up;
                    moved = true;
                }
            }
        }
        if !moved {
            let absent: Vec<usize> = (0..next.replicas.len())
                .filter(|&v| {
                    let reps = &next.replicas[v];
                    reps.len() < n && !reps.iter().any(|r| r.server == sid)
                })
                .collect();
            if absent.is_empty() {
                return next;
            }
            let v = absent[rng.gen_range(0..absent.len())];
            next.replicas[v].push(RatedReplica {
                server: sid,
                rate: self.ladder[0],
            });
        }
        let ok = multirate_repair(self, &mut next, server)
            && (0..n)
                .filter(|&j| j != server)
                .all(|j| multirate_repair(self, &mut next, j));
        if ok && self.is_feasible(&next) {
            next
        } else {
            state.clone()
        }
    }
}

/// `anneal`'s Metropolis loop on the clone path: every step clones a
/// neighbour and recomputes its energy from scratch, and an accepted
/// neighbour replaces the current state outright. Returns the best
/// state, its energy and the per-epoch trajectory.
fn reference_anneal<P: CloneReference>(
    p: &P,
    initial: P::Plain,
    params: &AnnealParams,
    rng: &mut ChaCha8Rng,
) -> (P::Plain, f64, Vec<f64>) {
    let mut current_energy = p.reference_energy(&initial);
    let mut current = initial;
    let mut best_state = current.clone();
    let mut best_energy = current_energy;
    let mut trajectory = Vec::with_capacity(params.epochs as usize);
    for epoch in 0..params.epochs {
        let temp = params.schedule.temperature(epoch);
        for _ in 0..params.steps_per_epoch {
            let next = p.neighbor(&current, rng);
            let next_energy = p.reference_energy(&next);
            let delta = next_energy - current_energy;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                current = next;
                current_energy = next_energy;
                if current_energy < best_energy {
                    best_energy = current_energy;
                    best_state = current.clone();
                }
            }
        }
        trajectory.push(best_energy);
    }
    (best_state, best_energy, trajectory)
}

/// Runs the clone-path reference and the delta path in lockstep through
/// an identical Metropolis loop and asserts that both chains visit the
/// *same state* at every step — the strongest form of search
/// equivalence. Energies are compared within 1e-9 (the caches are
/// incrementally maintained, so the last ULP may differ), but the
/// visited chain must match exactly: proposal draws, acceptance draws,
/// and acceptance decisions all line up.
macro_rules! assert_lockstep_walk {
    ($p:expr, $seed:expr, $params:expr) => {{
        let p = $p;
        let params = $params;
        let mut rng_reference = ChaCha8Rng::seed_from_u64($seed);
        let mut rng_delta = ChaCha8Rng::seed_from_u64($seed);
        let mut cur = p.initial_state();
        let mut e_cur = p.reference_energy(&cur);
        let mut search = p.initial_search();
        let mut e_search = p.state_energy(&search);
        for epoch in 0..params.epochs {
            let temp = params.schedule.temperature(epoch);
            for _ in 0..params.steps_per_epoch {
                // Reference: clone a neighbor, recompute energy from scratch.
                let next = p.neighbor(&cur, &mut rng_reference);
                let e_next = p.reference_energy(&next);
                let d = e_next - e_cur;
                if d <= 0.0 || rng_reference.gen::<f64>() < (-d / temp).exp() {
                    cur = next;
                    e_cur = e_next;
                }
                // Delta: in-place move over cached aggregates.
                if let Some(mv) = p.propose_move(&mut search, &mut rng_delta) {
                    if let Some(cand) = p.evaluate_move(&mut search, &mv) {
                        let d = cand - e_search;
                        let accept = d <= 0.0 || rng_delta.gen::<f64>() < (-d / temp).exp();
                        if accept && p.apply(&mut search, &mv) {
                            e_search = cand;
                        } else {
                            p.revert(&mut search, &mv);
                        }
                    }
                }
                prop_assert_eq!(search.state(), &cur, "chains diverged at epoch {}", epoch);
                prop_assert!(
                    (e_search - e_cur).abs() < 1e-9,
                    "cached energy {} drifted from scratch {}",
                    e_search,
                    e_cur
                );
            }
        }
    }};
}

/// Runs `anneal` and `reference_anneal` from the same seed and asserts
/// that their best energies (the engine's also recomputed from scratch)
/// and trajectories agree within 1e-9. Evaluates to the engine's and
/// the reference's best states, which may differ only where several
/// visited states tie in energy to the last ULP: the argmin among exact
/// ties is the one place cache drift can show.
macro_rules! assert_engine_matches_reference {
    ($p:expr, $seed:expr, $params:expr) => {{
        let p = $p;
        let params = $params;
        let mut rng_reference = ChaCha8Rng::seed_from_u64($seed);
        let (best_state, best_energy, trajectory) =
            reference_anneal(p, p.initial_state(), &params, &mut rng_reference);
        let mut rng_delta = ChaCha8Rng::seed_from_u64($seed);
        let delta = anneal(p, p.initial_search(), &params, &mut rng_delta);
        prop_assert!((delta.best_energy - best_energy).abs() < 1e-9);
        let best_scratch = p.reference_energy(delta.best_state.state());
        prop_assert!((best_scratch - best_energy).abs() < 1e-9);
        for (a, b) in delta.trajectory.iter().zip(&trajectory) {
            prop_assert!((a - b).abs() < 1e-9, "trajectory diverged: {} vs {}", a, b);
        }
        (delta.best_state, best_state)
    }};
}

/// Drives a delta-path walk by hand, asserting after every applied move
/// that the cached energy matches a from-scratch recompute, and that a
/// speculative evaluate + revert restores the search bit-for-bit.
fn assert_differential_walk<P>(problem: &P, mut search: P::State, seed: u64, steps: usize)
where
    P: AnnealProblem,
    P::State: Clone + PartialEq + std::fmt::Debug,
{
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for step in 0..steps {
        let Some(mv) = problem.propose_move(&mut search, &mut rng) else {
            continue;
        };
        // Speculative evaluate + revert must be a perfect no-op.
        let before = search.clone();
        let evaluated = problem.evaluate_move(&mut search, &mv);
        problem.revert(&mut search, &mv);
        assert!(
            search == before,
            "step {step}: evaluate+revert failed to restore the search state"
        );
        if evaluated.is_none() {
            continue;
        }
        // Now commit it and check the cache against a full recompute.
        if !problem.apply(&mut search, &mv) {
            continue; // penalized candidate: not appliable by design
        }
        let cached = problem.state_energy(&search);
        let scratch = problem.energy(&search);
        assert!(
            (cached - scratch).abs() < 1e-9,
            "step {step}: cached energy {cached} drifted from scratch {scratch}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scalable problem: delta and reference walks are identical from
    /// any seed, across random problem shapes.
    #[test]
    fn scalable_delta_walk_equals_legacy_walk(
        m in 8usize..24,
        theta in 0.2f64..1.2,
        demand in 200.0f64..1200.0,
        seed in any::<u64>(),
    ) {
        let p = scalable(m, theta, demand);
        assert_lockstep_walk!(&p, seed, walk_params());
        // End-to-end through the engine: same trajectory,
        // energy-equivalent best.
        assert_engine_matches_reference!(&p, seed, walk_params());
    }

    /// Scalable problem: the cached energy tracks a from-scratch
    /// recompute along the walk, and revert is exact.
    #[test]
    fn scalable_cached_energy_matches_scratch(
        m in 8usize..24,
        theta in 0.2f64..1.2,
        demand in 200.0f64..1200.0,
        seed in any::<u64>(),
    ) {
        let p = scalable(m, theta, demand);
        assert_differential_walk(&p, p.initial_search(), seed, 400);
    }

    /// Multi-rate problem: delta and reference walks are identical from
    /// any seed, in both quality conventions — including penalized
    /// infeasible drops, which must consume the same Metropolis draw.
    #[test]
    fn multirate_delta_walk_equals_legacy_walk(
        m in 8usize..20,
        theta in 0.2f64..1.2,
        demand in 200.0f64..1200.0,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = multirate(m, theta, demand, weighted);
        assert_lockstep_walk!(&p, seed, walk_params());
        assert_engine_matches_reference!(&p, seed, walk_params());
    }

    /// Multi-rate problem: cached energy vs scratch recompute, and exact
    /// revert, along the walk.
    #[test]
    fn multirate_cached_energy_matches_scratch(
        m in 8usize..20,
        theta in 0.2f64..1.2,
        demand in 200.0f64..1200.0,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p = multirate(m, theta, demand, weighted);
        assert_differential_walk(&p, p.initial_search(), seed, 400);
    }
}

/// The tight shapes sit outside the proptests' ranges: 12 titles on
/// four servers with storage for only 6 (scalable) or 8 (multi-rate)
/// lowest-rate copies each, demand of 2,000 or 1,500 requests, and a
/// 40 × 60-step walk.
fn tight_params() -> AnnealParams {
    AnnealParams {
        schedule: CoolingSchedule::default_geometric(0.5),
        epochs: 40,
        steps_per_epoch: 60,
    }
}

/// Scalable problem in a tight shape: the walks match step for step,
/// and the engine lands on the reference's best state exactly.
#[test]
fn scalable_tight_walk_matches_reference() -> Result<(), prop::TestCaseError> {
    let p = ScalableProblem::new(
        Popularity::zipf(12, 0.75).unwrap(),
        cluster(6),
        DURATION_S,
        BitRate::LADDER.to_vec(),
        2_000.0,
        ObjectiveWeights::default(),
    )
    .unwrap();
    assert_lockstep_walk!(&p, 11, tight_params());
    let (delta_best, reference_best) = assert_engine_matches_reference!(&p, 11, tight_params());
    prop_assert_eq!(delta_best.state(), &reference_best);
    Ok(())
}

/// Multi-rate problem in a tight shape, in both quality conventions:
/// the walks match step for step — penalized infeasible drops included
/// — and the engine lands on the reference's best state exactly.
#[test]
fn multirate_tight_walk_matches_reference() -> Result<(), prop::TestCaseError> {
    for weighted in [false, true] {
        let p = MultiRateProblem::new(
            Popularity::zipf(12, 1.0).unwrap(),
            cluster(8),
            DURATION_S,
            BitRate::LADDER.to_vec(),
            1_500.0,
            ObjectiveWeights::default(),
            weighted,
        )
        .unwrap();
        assert_lockstep_walk!(&p, 31, tight_params());
        let (delta_best, reference_best) = assert_engine_matches_reference!(&p, 31, tight_params());
        prop_assert_eq!(delta_best.state(), &reference_best);
    }
    Ok(())
}

/// Bit-for-bit revert: after wandering into a non-trivial state, every
/// evaluate/apply followed by revert must reproduce the exact prior
/// search state — cached floats compared by equality, not tolerance.
/// (Snapshot-based undo makes this exact; arithmetic inverses would not.)
#[test]
fn revert_is_bit_for_bit_after_wandering() {
    let p = scalable(16, 0.9, 900.0);
    let mut search = p.initial_search();
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF);
    for _ in 0..300 {
        if let Some(mv) = p.propose_move(&mut search, &mut rng) {
            p.apply(&mut search, &mv);
        }
    }
    let mut reverted = 0;
    for _ in 0..200 {
        let Some(mv) = p.propose_move(&mut search, &mut rng) else {
            continue;
        };
        let before = search.clone();
        if p.apply(&mut search, &mv) {
            p.revert(&mut search, &mv);
            reverted += 1;
        }
        assert!(search == before, "revert failed to restore the search");
        // And the walk continues from the restored state.
        p.apply(&mut search, &mv);
    }
    assert!(
        reverted > 50,
        "walk too stuck to exercise revert ({reverted})"
    );

    let q = multirate(12, 1.0, 900.0, true);
    let mut search = q.initial_search();
    for _ in 0..300 {
        if let Some(mv) = q.propose_move(&mut search, &mut rng) {
            q.apply(&mut search, &mv);
        }
    }
    let mut reverted = 0;
    for _ in 0..200 {
        let Some(mv) = q.propose_move(&mut search, &mut rng) else {
            continue;
        };
        let before = search.clone();
        if q.apply(&mut search, &mv) {
            q.revert(&mut search, &mv);
            reverted += 1;
        }
        assert!(search == before, "revert failed to restore the search");
        q.apply(&mut search, &mv);
    }
    assert!(
        reverted > 50,
        "walk too stuck to exercise revert ({reverted})"
    );
}

/// `best_energy` followed by the per-epoch trajectory, as bit patterns.
fn result_bits(best_energy: f64, trajectory: &[f64]) -> Vec<u64> {
    std::iter::once(best_energy)
        .chain(trajectory.iter().copied())
        .map(f64::to_bits)
        .collect()
}

/// Fixed-seed annealed results, serial and parallel, pinned bit for
/// bit. The lockstep suite above tolerates 1e-9 of cache drift; these
/// catch any change to the delta kernel's arithmetic or draw order,
/// down to the last ULP, in either build profile.
#[test]
fn annealed_results_are_pinned_across_builds() {
    let serial = AnnealParams {
        schedule: CoolingSchedule::default_geometric(0.5),
        epochs: 8,
        steps_per_epoch: 50,
    };
    let parallel = ParallelParams {
        chains: 2,
        epochs_per_round: 4,
        rounds: 2,
        steps_per_epoch: 50,
        schedule: CoolingSchedule::default_geometric(0.5),
        seed: 0x5A,
    };

    let p = scalable(24, 0.9, 900.0);
    let r = anneal(
        &p,
        p.initial_search(),
        &serial,
        &mut ChaCha8Rng::seed_from_u64(0x60),
    );
    assert_eq!(
        result_bits(r.best_energy, &r.trajectory),
        [
            0xc0113aa3ed9adc0f,
            0xc00f82acc76bb28b,
            0xc0113aa3ed9adc0f,
            0xc0113aa3ed9adc0f,
            0xc0113aa3ed9adc0f,
            0xc0113aa3ed9adc0f,
            0xc0113aa3ed9adc0f,
            0xc0113aa3ed9adc0f,
            0xc0113aa3ed9adc0f,
        ]
    );
    assert_eq!((r.accepted, r.rejected, r.infeasible), (389, 11, 0));
    let r = anneal_parallel(&p, p.initial_search(), &parallel);
    assert_eq!(
        result_bits(r.best_energy, &r.trajectory),
        [
            0xc0131e23a37b6703,
            0xc011f34918f6d072,
            0xc0129c9d2bd6478f,
            0xc0129c9d2bd6478f,
            0xc0129c9d2bd6478f,
            0xc0131e23a37b6703,
            0xc0131e23a37b6703,
            0xc0131e23a37b6703,
            0xc0131e23a37b6703,
        ]
    );
    assert_eq!((r.accepted, r.rejected, r.infeasible), (753, 47, 0));

    let q = multirate(24, 0.9, 900.0, true);
    let r = anneal(
        &q,
        q.initial_search(),
        &serial,
        &mut ChaCha8Rng::seed_from_u64(0x61),
    );
    assert_eq!(
        result_bits(r.best_energy, &r.trajectory),
        [
            0xc016000000000001,
            0xc00d102018f233e0,
            0xc0131cf057dea77e,
            0xc0147a8dc35cb749,
            0xc01557b7f7aa983e,
            0xc015cd3920f1e8a2,
            0xc016000000000001,
            0xc016000000000001,
            0xc016000000000001,
        ]
    );
    assert_eq!((r.accepted, r.rejected, r.infeasible), (312, 88, 79));
    let r = anneal_parallel(&q, q.initial_search(), &parallel);
    assert_eq!(
        result_bits(r.best_energy, &r.trajectory),
        [
            0xc015fffffffffffe,
            0xc0109868694f339f,
            0xc0132c566c6c1830,
            0xc0147619aae2554e,
            0xc015d70c185331fb,
            0xc015fffffffffffe,
            0xc015fffffffffffe,
            0xc015fffffffffffe,
            0xc015fffffffffffe,
        ]
    );
    assert_eq!((r.accepted, r.rejected, r.infeasible), (602, 198, 191));
}
