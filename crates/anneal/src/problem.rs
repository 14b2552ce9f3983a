//! The paper's scalable-bit-rate replication/placement problem (Sec. 4.3).
//!
//! "We consider the general case that the encoding bit rate is scalable and
//! different videos can have different bit rates. The encoding bit rate is
//! a discrete variable and its set is given." A state assigns every video
//! a rung on the rate ladder and a set of distinct servers; the annealer
//! maximizes the Eq. (1) objective (implemented as minimizing its
//! negation). The three problem-specific pieces follow the paper exactly:
//!
//! 1. **Cost function** — `−O` from Eq. (1);
//! 2. **Initial solution** — "place the videos encoded with the lowest
//!    possible bit rate to servers in a round-robin way";
//! 3. **Neighborhood** — "a server in the cluster is identified by random.
//!    The bit rate of one video that has been placed on this server is
//!    increased or one new video is placed on the server", followed by
//!    constraint repair: "the algorithm will decrease the bit rate of one
//!    or more videos that have been placed on the server, or delete one or
//!    more videos that are placed with the lowest bit rate so that the
//!    storage and communication constraints can be satisfied" (we delete
//!    *replicas*, never a video's last copy, preserving constraint 7).
//!
//! Expected bandwidth load: one replica of video `i` carries
//! `w_i · b_i = (p_i · demand / r_i) · b_i` kbps of expected outgoing
//! traffic, compared against the server's link capacity (constraint 5).
//!
//! # Search path
//!
//! The problem implements [`AnnealProblem`] over [`ScalableSearch`], the
//! delta-evaluated path: the state carries per-server aggregates
//! (storage used, expected bandwidth load, hosted-video lists, and the
//! Eq. (1) component sums) that moves update incrementally, so one
//! Metropolis step costs O(replicas touched) + O(N) for the imbalance
//! term instead of an O(M·N) full rescan.
//!
//! The workspace's `tests/anneal_differential.rs` keeps the plain
//! clone-and-recompute neighborhood over [`ScalableState`] as the
//! *reference* and checks that both walk identical trajectories from the
//! same seed. Proposals draw the reference's RNG sequence (hosted lists
//! are kept in ascending video order, absent videos are rank-selected
//! from the complement), and repair reproduces its victim order. Where
//! the reference returns the unchanged state as a "no-op neighbor"
//! (saturated server, unrepairable move) — an accepted move that
//! changes nothing and consumes no Metropolis draw — the delta path
//! rejects the proposal instead, which is the same search with
//! different bookkeeping.

use crate::delta::{nth_absent, sorted_insert, sorted_remove, SnapLog, TxnStatus};
use crate::engine::AnnealProblem;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vod_model::{load, BitRate, ClusterSpec, ModelError, ObjectiveWeights, Popularity, ServerId};

/// Problem data (immutable across the search).
#[derive(Debug, Clone)]
pub struct ScalableProblem {
    /// Video popularities (rank-ordered).
    pub pop: Popularity,
    /// The cluster's capacities.
    pub cluster: ClusterSpec,
    /// Video duration in seconds (uniform, per the paper).
    pub duration_s: u64,
    /// The discrete bit-rate ladder, ascending.
    pub ladder: Vec<BitRate>,
    /// Expected peak-period demand `λT`, in requests.
    pub demand: f64,
    /// Objective weights `α`, `β` and the `L` metric of Eq. (1).
    pub weights: ObjectiveWeights,
}

/// A search-space point: per-video bit rate and replica servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalableState {
    /// Encoding rate of each video (shared by all its replicas).
    pub rates: Vec<BitRate>,
    /// Replica servers of each video (pairwise distinct per video).
    pub assignments: Vec<Vec<ServerId>>,
}

impl ScalableProblem {
    /// Validates the inputs and checks the lowest-rate single-copy
    /// catalog fits the cluster at all.
    pub fn new(
        pop: Popularity,
        cluster: ClusterSpec,
        duration_s: u64,
        ladder: Vec<BitRate>,
        demand: f64,
        weights: ObjectiveWeights,
    ) -> Result<Self, ModelError> {
        if ladder.is_empty() {
            return Err(ModelError::Empty);
        }
        if !ladder.windows(2).all(|w| w[0] < w[1]) {
            return Err(ModelError::InvalidParameter {
                name: "ladder (must ascend)",
                value: ladder.len() as f64,
            });
        }
        if !demand.is_finite() || demand <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "demand",
                value: demand,
            });
        }
        let problem = ScalableProblem {
            pop,
            cluster,
            duration_s,
            ladder,
            demand,
            weights,
        };
        let initial = problem.initial_state();
        if !problem.is_feasible(&initial) {
            return Err(ModelError::InsufficientStorage {
                required: problem.pop.len() as u64,
                capacity: problem
                    .cluster
                    .total_replica_slots(problem.ladder[0], problem.duration_s),
            });
        }
        Ok(problem)
    }

    /// Number of videos.
    pub fn n_videos(&self) -> usize {
        self.pop.len()
    }

    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.cluster.len()
    }

    /// The paper's initial solution: every video at the lowest rate, one
    /// replica each, dealt round-robin.
    pub fn initial_state(&self) -> ScalableState {
        let n = self.n_servers();
        ScalableState {
            rates: vec![self.ladder[0]; self.n_videos()],
            assignments: (0..self.n_videos())
                .map(|v| vec![ServerId((v % n) as u32)])
                .collect(),
        }
    }

    /// Per-server storage use in bytes.
    pub fn storage_used(&self, state: &ScalableState) -> Vec<u64> {
        let mut used = vec![0u64; self.n_servers()];
        for (v, servers) in state.assignments.iter().enumerate() {
            let bytes = state.rates[v].storage_bytes(self.duration_s);
            for &s in servers {
                used[s.index()] += bytes;
            }
        }
        used
    }

    /// Per-server expected outgoing load in kbps.
    pub fn bandwidth_load(&self, state: &ScalableState) -> Vec<f64> {
        let mut loads = vec![0.0f64; self.n_servers()];
        for (v, servers) in state.assignments.iter().enumerate() {
            let r = servers.len() as f64;
            let per_replica = self.pop.get(v) * self.demand / r * state.rates[v].kbps() as f64;
            for &s in servers {
                loads[s.index()] += per_replica;
            }
        }
        loads
    }

    /// Whether every constraint holds: storage (4), bandwidth (5),
    /// distinct servers (6), `1 ≤ r_i ≤ N` (7), ladder membership.
    pub fn is_feasible(&self, state: &ScalableState) -> bool {
        let n = self.n_servers();
        for (v, servers) in state.assignments.iter().enumerate() {
            if servers.is_empty() || servers.len() > n {
                return false;
            }
            for (i, &s) in servers.iter().enumerate() {
                if s.index() >= n || servers[..i].contains(&s) {
                    return false;
                }
            }
            if !state.rates[v].in_ladder(&self.ladder) {
                return false;
            }
        }
        let used = self.storage_used(state);
        let loads = self.bandwidth_load(state);
        self.cluster
            .servers()
            .iter()
            .zip(used.iter().zip(&loads))
            .all(|(spec, (&u, &l))| {
                u <= spec.storage_bytes && l <= spec.bandwidth_kbps as f64 + 1e-6
            })
    }

    /// The Eq. (1) objective `O` of a state (higher is better).
    pub fn objective(&self, state: &ScalableState) -> f64 {
        let m = self.n_videos() as f64;
        let mean_rate_mbps = state.rates.iter().map(|r| r.mbps()).sum::<f64>() / m;
        let degree = state
            .assignments
            .iter()
            .map(|s| s.len() as f64)
            .sum::<f64>()
            / m;
        let loads = self.bandwidth_load(state);
        let l = load::imbalance(&loads, self.weights.metric);
        self.weights.evaluate_components(mean_rate_mbps, degree, l)
    }

    /// Energy (`−O`, plus a 1e9 penalty if infeasible) from a full
    /// recompute — what the cached energy must agree with.
    fn scratch_energy(&self, state: &ScalableState) -> f64 {
        let mut e = -self.objective(state);
        if !self.is_feasible(state) {
            e += 1e9;
        }
        e
    }

    /// Wraps a feasible state into the delta-evaluated search
    /// representation, building all cached aggregates from scratch.
    pub fn search_state(&self, state: ScalableState) -> ScalableSearch {
        debug_assert!(
            self.is_feasible(&state),
            "search_state expects a feasible state"
        );
        let n = self.n_servers();
        let storage = self.storage_used(&state);
        let load = self.bandwidth_load(&state);
        let mut hosted = vec![Vec::new(); n];
        for (v, servers) in state.assignments.iter().enumerate() {
            for &s in servers {
                hosted[s.index()].push(v as u32);
            }
        }
        for h in &mut hosted {
            h.sort_unstable();
        }
        let rate_sum_mbps = state.rates.iter().map(|r| r.mbps()).sum::<f64>();
        let replica_total = state.assignments.iter().map(|a| a.len() as u64).sum();
        let mut search = ScalableSearch {
            state,
            cache: ScalableCache {
                storage,
                load,
                hosted,
                rate_sum_mbps,
                replica_total,
                energy: 0.0,
            },
            txn: ScalableTxn::default(),
        };
        search.recompute_energy(self);
        search
    }

    /// [`search_state`](ScalableProblem::search_state) of the paper's
    /// initial solution.
    pub fn initial_search(&self) -> ScalableSearch {
        self.search_state(self.initial_state())
    }
}

/// Cached per-server aggregates of a [`ScalableSearch`]. All values are
/// maintained incrementally by moves and restored bit-for-bit on
/// revert; the differential test suite pins them against a from-scratch
/// rebuild.
#[derive(Debug, Clone, PartialEq)]
struct ScalableCache {
    /// Bytes stored per server.
    storage: Vec<u64>,
    /// Expected outgoing kbps per server.
    load: Vec<f64>,
    /// Videos hosted per server, ascending — the proposal candidate
    /// lists (ascending order keeps RNG draws aligned with the
    /// reference's filter-in-index-order scans).
    hosted: Vec<Vec<u32>>,
    /// `Σ_i b_i` in Mbps (quality component numerator).
    rate_sum_mbps: f64,
    /// `Σ_i r_i` (replication-degree numerator).
    replica_total: u64,
    /// Energy (`−O`) of the current state.
    energy: f64,
}

/// Structural undo record for one elementary mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalableUndo {
    /// `rates[video]` was `old`.
    Rate { video: u32, old: BitRate },
    /// A replica was appended to `assignments[video]`.
    PushedReplica { video: u32 },
    /// `assignments[video][pos]` (on `server`) was removed.
    RemovedReplica { video: u32, server: u32, pos: u32 },
}

/// Scratch transaction state: undo logs and pre-move snapshots.
#[derive(Debug, Clone, Default)]
struct ScalableTxn {
    status: TxnStatus,
    pending: Option<ScalableMove>,
    undo: Vec<ScalableUndo>,
    load_snap: SnapLog<f64>,
    storage_snap: SnapLog<u64>,
    rate_sum_snap: f64,
    replica_total_snap: u64,
    energy_snap: f64,
}

/// The delta-evaluated search representation: a [`ScalableState`] plus
/// its cached aggregates and reusable move scratch. Build one with
/// [`ScalableProblem::search_state`]; equality compares state and
/// caches (not scratch).
#[derive(Debug, Clone)]
pub struct ScalableSearch {
    state: ScalableState,
    cache: ScalableCache,
    txn: ScalableTxn,
}

impl PartialEq for ScalableSearch {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state && self.cache == other.cache
    }
}

impl ScalableSearch {
    /// The underlying search-space point.
    pub fn state(&self) -> &ScalableState {
        &self.state
    }

    /// Unwraps into the underlying search-space point.
    pub fn into_state(self) -> ScalableState {
        self.state
    }

    /// Opens a move transaction.
    fn begin(&mut self, n_servers: usize) {
        debug_assert!(
            matches!(self.txn.status, TxnStatus::Idle | TxnStatus::Committed),
            "begin over an unresolved tentative move"
        );
        self.txn.undo.clear();
        self.txn.load_snap.begin(n_servers);
        self.txn.storage_snap.begin(n_servers);
        self.txn.rate_sum_snap = self.cache.rate_sum_mbps;
        self.txn.replica_total_snap = self.cache.replica_total;
        self.txn.energy_snap = self.cache.energy;
        self.txn.status = TxnStatus::Idle;
        self.txn.pending = None;
    }

    /// Undoes the open (or still-logged) transaction, restoring state
    /// and caches bit-for-bit.
    fn rollback(&mut self) {
        while let Some(entry) = self.txn.undo.pop() {
            match entry {
                ScalableUndo::Rate { video, old } => {
                    self.state.rates[video as usize] = old;
                }
                ScalableUndo::PushedReplica { video } => {
                    let sid = self.state.assignments[video as usize]
                        .pop()
                        .expect("pushed replica present");
                    sorted_remove(&mut self.cache.hosted[sid.index()], video);
                }
                ScalableUndo::RemovedReplica { video, server, pos } => {
                    self.state.assignments[video as usize].insert(pos as usize, ServerId(server));
                    sorted_insert(&mut self.cache.hosted[server as usize], video);
                }
            }
        }
        self.txn.load_snap.rollback(&mut self.cache.load);
        self.txn.storage_snap.rollback(&mut self.cache.storage);
        self.cache.rate_sum_mbps = self.txn.rate_sum_snap;
        self.cache.replica_total = self.txn.replica_total_snap;
        self.cache.energy = self.txn.energy_snap;
        self.txn.status = TxnStatus::Idle;
        self.txn.pending = None;
    }

    /// Cached constraint check for one server — the O(1) replacement
    /// for the reference's per-server rescan.
    fn server_ok(&self, p: &ScalableProblem, server: usize) -> bool {
        let spec = &p.cluster.servers()[server];
        self.cache.storage[server] <= spec.storage_bytes
            && self.cache.load[server] <= spec.bandwidth_kbps as f64 + 1e-6
    }

    /// Re-rates `video`, updating storage and load on every server
    /// holding a replica.
    fn set_rate(&mut self, p: &ScalableProblem, video: usize, new: BitRate) {
        let old = self.state.rates[video];
        self.txn.undo.push(ScalableUndo::Rate {
            video: video as u32,
            old,
        });
        let old_bytes = old.storage_bytes(p.duration_s);
        let new_bytes = new.storage_bytes(p.duration_s);
        let w = p.pop.get(video) * p.demand / self.state.assignments[video].len() as f64;
        let old_term = w * old.kbps() as f64;
        let new_term = w * new.kbps() as f64;
        for k in 0..self.state.assignments[video].len() {
            let s = self.state.assignments[video][k].index();
            self.txn.storage_snap.touch(s, self.cache.storage[s]);
            self.cache.storage[s] = self.cache.storage[s] - old_bytes + new_bytes;
            self.txn.load_snap.touch(s, self.cache.load[s]);
            self.cache.load[s] = self.cache.load[s] - old_term + new_term;
        }
        self.state.rates[video] = new;
        self.cache.rate_sum_mbps += new.mbps() - old.mbps();
    }

    /// Adds a replica of `video` on `server`, redistributing the
    /// per-replica request share `p_v · demand / r_v`.
    fn add_replica(&mut self, p: &ScalableProblem, video: usize, server: usize) {
        let rate = self.state.rates[video];
        let bytes = rate.storage_bytes(p.duration_s);
        let kbps = rate.kbps() as f64;
        let pd = p.pop.get(video) * p.demand;
        let r_old = self.state.assignments[video].len() as f64;
        let old_term = pd / r_old * kbps;
        let new_term = pd / (r_old + 1.0) * kbps;
        for k in 0..self.state.assignments[video].len() {
            let s = self.state.assignments[video][k].index();
            self.txn.load_snap.touch(s, self.cache.load[s]);
            self.cache.load[s] = self.cache.load[s] - old_term + new_term;
        }
        self.txn
            .storage_snap
            .touch(server, self.cache.storage[server]);
        self.cache.storage[server] += bytes;
        self.txn.load_snap.touch(server, self.cache.load[server]);
        self.cache.load[server] += new_term;
        self.state.assignments[video].push(ServerId(server as u32));
        sorted_insert(&mut self.cache.hosted[server], video as u32);
        self.cache.replica_total += 1;
        self.txn.undo.push(ScalableUndo::PushedReplica {
            video: video as u32,
        });
    }

    /// Removes `video`'s replica on `server` (not its last one).
    fn remove_replica(&mut self, p: &ScalableProblem, video: usize, server: usize) {
        let sid = ServerId(server as u32);
        let pos = self.state.assignments[video]
            .iter()
            .position(|&s| s == sid)
            .expect("replica hosted on server");
        let rate = self.state.rates[video];
        let bytes = rate.storage_bytes(p.duration_s);
        let kbps = rate.kbps() as f64;
        let pd = p.pop.get(video) * p.demand;
        let r_old = self.state.assignments[video].len() as f64;
        let old_term = pd / r_old * kbps;
        let new_term = pd / (r_old - 1.0) * kbps;
        for k in 0..self.state.assignments[video].len() {
            let s = self.state.assignments[video][k].index();
            self.txn.load_snap.touch(s, self.cache.load[s]);
            if k == pos {
                self.cache.load[s] -= old_term;
            } else {
                self.cache.load[s] = self.cache.load[s] - old_term + new_term;
            }
        }
        self.txn
            .storage_snap
            .touch(server, self.cache.storage[server]);
        self.cache.storage[server] -= bytes;
        self.state.assignments[video].remove(pos);
        sorted_remove(&mut self.cache.hosted[server], video as u32);
        self.cache.replica_total -= 1;
        self.txn.undo.push(ScalableUndo::RemovedReplica {
            video: video as u32,
            server: server as u32,
            pos: pos as u32,
        });
    }

    /// The paper's constraint repair on `server`, over the cached
    /// aggregates: while the server violates (4)/(5), step the
    /// lowest-rate video on it (the highest video index among ties)
    /// down the ladder, or drop one of its replicas; a video's last
    /// replica at the lowest rate gives way to the first other video on
    /// the server that can shrink. Returns false if stuck.
    fn repair(&mut self, p: &ScalableProblem, server: usize) -> bool {
        let mut guard = 0;
        while !self.server_ok(p, server) {
            guard += 1;
            if guard > 10_000 {
                return false;
            }
            let mut victim: Option<(BitRate, u32)> = None;
            for &v in &self.cache.hosted[server] {
                let rate = self.state.rates[v as usize];
                // `<=` keeps the last (highest-index) video among
                // rate ties, matching the reference's comparator.
                if victim.is_none_or(|(best, _)| rate <= best) {
                    victim = Some((rate, v));
                }
            }
            let Some((rate, v)) = victim else {
                return false; // nothing on the server yet it violates: impossible
            };
            let v = v as usize;
            if let Some(down) = rate.step_down(&p.ladder) {
                self.set_rate(p, v, down);
            } else if self.state.assignments[v].len() > 1 {
                self.remove_replica(p, v, server);
            } else {
                // Last replica at the lowest rate: first *other* video
                // on the server (ascending index) that can shrink.
                let mut other = None;
                for &u in &self.cache.hosted[server] {
                    if u as usize == v {
                        continue;
                    }
                    if self.state.rates[u as usize].step_down(&p.ladder).is_some()
                        || self.state.assignments[u as usize].len() > 1
                    {
                        other = Some(u as usize);
                        break;
                    }
                }
                let Some(u) = other else {
                    return false;
                };
                if let Some(down) = self.state.rates[u].step_down(&p.ladder) {
                    self.set_rate(p, u, down);
                } else {
                    self.remove_replica(p, u, server);
                }
            }
        }
        true
    }

    /// Recomputes the cached energy from the cached Eq. (1) component
    /// aggregates — O(N) for the imbalance term, nothing touches the
    /// per-video dimension.
    fn recompute_energy(&mut self, p: &ScalableProblem) {
        let m = p.n_videos() as f64;
        let mean_rate_mbps = self.cache.rate_sum_mbps / m;
        let degree = self.cache.replica_total as f64 / m;
        let l = load::imbalance(&self.cache.load, p.weights.metric);
        self.cache.energy = -p.weights.evaluate_components(mean_rate_mbps, degree, l);
    }

    /// Whether the open transaction's net effect on the *state* is the
    /// identity — e.g. an upgrade that repair stepped straight back
    /// down, or an added replica that repair immediately dropped. The
    /// reference saw two equal states there and got an exactly-zero
    /// energy delta (accepting without a Metropolis draw); the caller
    /// must reproduce that by rolling back the (drifted) caches and
    /// reporting the current energy unchanged.
    fn txn_is_identity(&self) -> bool {
        let undo = &self.txn.undo;
        // At most one push per move (the primary op); repair only
        // removes. `pushed` tracks whether it is still uncancelled.
        let mut pushed: Option<u32> = None;
        for (i, e) in undo.iter().enumerate() {
            match *e {
                ScalableUndo::Rate { video, old } => {
                    // Only a slot's first record holds its original value.
                    let first = !undo[..i]
                        .iter()
                        .any(|p| matches!(*p, ScalableUndo::Rate { video: v, .. } if v == video));
                    if first && self.state.rates[video as usize] != old {
                        return false;
                    }
                }
                ScalableUndo::PushedReplica { video } => pushed = Some(video),
                ScalableUndo::RemovedReplica { video, pos, .. } => {
                    // Cancels the push only if it removed the appended
                    // replica itself (always the last slot); any other
                    // removal is irreversible within one move.
                    if pushed == Some(video)
                        && pos as usize == self.state.assignments[video as usize].len()
                    {
                        pushed = None;
                    } else {
                        return false;
                    }
                }
            }
        }
        pushed.is_none()
    }
}

/// One elementary move of the delta-evaluated scalable search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalableMove {
    kind: ScalableMoveKind,
    video: u32,
    server: u32,
}

/// What a [`ScalableMove`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalableMoveKind {
    /// Step `video`'s rate up one ladder rung.
    Upgrade,
    /// Place a new replica of `video` on `server`.
    AddReplica,
}

/// Delta-evaluated search path.
impl AnnealProblem for ScalableProblem {
    type State = ScalableSearch;
    type Move = ScalableMove;

    fn energy(&self, search: &ScalableSearch) -> f64 {
        self.scratch_energy(&search.state)
    }

    fn state_energy(&self, search: &ScalableSearch) -> f64 {
        search.cache.energy
    }

    /// Draws the reference neighborhood's RNG sequence: server, upgrade
    /// coin, then an index into the hosted (ascending) or absent
    /// (rank-selected) candidate list. Returns `None` exactly where the
    /// reference returns the unchanged state (saturated server).
    fn propose_move<R: Rng + ?Sized>(
        &self,
        search: &mut ScalableSearch,
        rng: &mut R,
    ) -> Option<ScalableMove> {
        let n = self.n_servers();
        let server = rng.gen_range(0..n);
        let try_upgrade = rng.gen::<bool>();
        if try_upgrade {
            let hosted = &search.cache.hosted[server];
            if !hosted.is_empty() {
                let v = hosted[rng.gen_range(0..hosted.len())];
                if search.state.rates[v as usize]
                    .step_up(&self.ladder)
                    .is_some()
                {
                    return Some(ScalableMove {
                        kind: ScalableMoveKind::Upgrade,
                        video: v,
                        server: server as u32,
                    });
                }
                // Already at the top rung: fall through to add-replica,
                // like the reference's `moved = false` path.
            }
        }
        let hosted = &search.cache.hosted[server];
        let absent = self.n_videos() - hosted.len();
        if absent == 0 {
            return None; // saturated server: no move
        }
        let v = nth_absent(hosted, rng.gen_range(0..absent));
        Some(ScalableMove {
            kind: ScalableMoveKind::AddReplica,
            video: v,
            server: server as u32,
        })
    }

    fn evaluate_move(&self, search: &mut ScalableSearch, mv: &ScalableMove) -> Option<f64> {
        let n = self.n_servers();
        search.begin(n);
        let video = mv.video as usize;
        let server = mv.server as usize;
        match mv.kind {
            ScalableMoveKind::Upgrade => {
                let up = search.state.rates[video]
                    .step_up(&self.ladder)
                    .expect("proposed upgrade has ladder headroom");
                search.set_rate(self, video, up);
            }
            ScalableMoveKind::AddReplica => search.add_replica(self, video, server),
        }
        let mut ok = search.repair(self, server);
        if ok {
            for j in 0..n {
                if j != server && !search.server_ok(self, j) {
                    ok = search.repair(self, j);
                    if !ok {
                        break;
                    }
                }
            }
        }
        // Repairing a later server can re-load an earlier one (dropping
        // a replica shifts its request share onto the survivors), so
        // sweep all headrooms once more — the cached equivalent of the
        // reference's full `is_feasible` recheck.
        ok = ok && (0..n).all(|j| search.server_ok(self, j));
        if !ok {
            search.rollback();
            return None;
        }
        if search.txn_is_identity() {
            // Net no-op: restore the caches bit-for-bit (incremental
            // updates drift even over an identity cycle) and commit an
            // empty transaction, so the candidate energy equals the
            // current energy exactly and the engine accepts without a
            // Metropolis draw — just like the clone-path reference.
            search.rollback();
            search.txn.status = TxnStatus::Tentative;
            search.txn.pending = Some(*mv);
            return Some(search.cache.energy);
        }
        search.recompute_energy(self);
        search.txn.status = TxnStatus::Tentative;
        search.txn.pending = Some(*mv);
        Some(search.cache.energy)
    }

    fn apply(&self, search: &mut ScalableSearch, mv: &ScalableMove) -> bool {
        if search.txn.status == TxnStatus::Tentative {
            debug_assert_eq!(search.txn.pending, Some(*mv));
            search.txn.status = TxnStatus::Committed;
            return true;
        }
        self.evaluate_move(search, mv);
        if search.txn.status == TxnStatus::Tentative {
            search.txn.status = TxnStatus::Committed;
            true
        } else {
            false
        }
    }

    fn revert(&self, search: &mut ScalableSearch, mv: &ScalableMove) {
        if search.txn.status != TxnStatus::Idle {
            debug_assert_eq!(search.txn.pending, Some(*mv));
            search.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{anneal, AnnealParams};
    use crate::schedule::CoolingSchedule;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vod_model::ServerSpec;

    fn small_problem() -> ScalableProblem {
        let pop = Popularity::zipf(12, 0.75).unwrap();
        // 4 servers; storage for ~6 low-rate replicas each; generous links.
        let low_bytes = BitRate::LADDER[0].storage_bytes(5_400);
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 6 * low_bytes,
                bandwidth_kbps: 1_800_000,
            },
        )
        .unwrap();
        ScalableProblem::new(
            pop,
            cluster,
            5_400,
            BitRate::LADDER.to_vec(),
            2_000.0,
            ObjectiveWeights::default(),
        )
        .unwrap()
    }

    #[test]
    fn initial_state_is_feasible_round_robin() {
        let p = small_problem();
        let s = p.initial_state();
        assert!(p.is_feasible(&s));
        assert!(s.rates.iter().all(|&r| r == BitRate::LADDER[0]));
        assert_eq!(s.assignments[0], vec![ServerId(0)]);
        assert_eq!(s.assignments[5], vec![ServerId(1)]);
    }

    #[test]
    fn walk_preserves_feasibility() {
        let p = small_problem();
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..500 {
            if let Some(mv) = p.propose_move(&mut search, &mut rng) {
                p.apply(&mut search, &mv);
            }
            assert!(p.is_feasible(search.state()));
        }
    }

    #[test]
    fn walk_never_drops_a_video() {
        let p = small_problem();
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..500 {
            if let Some(mv) = p.propose_move(&mut search, &mut rng) {
                p.apply(&mut search, &mv);
            }
            assert!(search.state().assignments.iter().all(|a| !a.is_empty()));
        }
    }

    #[test]
    fn annealing_improves_objective() {
        let p = small_problem();
        let initial = p.initial_state();
        let o0 = p.objective(&initial);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let result = anneal(
            &p,
            p.search_state(initial),
            &AnnealParams {
                schedule: CoolingSchedule::default_geometric(0.5),
                epochs: 60,
                steps_per_epoch: 50,
            },
            &mut rng,
        );
        let o_best = p.objective(result.best_state.state());
        assert!(
            o_best > o0,
            "SA failed to improve: {o_best} vs initial {o0}"
        );
        assert!(p.is_feasible(result.best_state.state()));
    }

    #[test]
    fn cached_energy_tracks_recompute_over_walk() {
        let p = small_problem();
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut applied = 0;
        for _ in 0..600 {
            let Some(mv) = p.propose_move(&mut search, &mut rng) else {
                continue;
            };
            if p.apply(&mut search, &mv) {
                applied += 1;
            }
            let cached = p.state_energy(&search);
            let full = AnnealProblem::energy(&p, &search);
            assert!(
                (cached - full).abs() < 1e-9,
                "cache drifted: {cached} vs {full}"
            );
            assert!(p.is_feasible(search.state()));
        }
        assert!(applied > 100, "walk applied too few moves: {applied}");
    }

    #[test]
    fn revert_restores_state_and_caches_bit_for_bit() {
        let p = small_problem();
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        // Wander into a non-trivial state first.
        for _ in 0..200 {
            if let Some(mv) = p.propose_move(&mut search, &mut rng) {
                p.apply(&mut search, &mv);
            }
        }
        for _ in 0..300 {
            let Some(mv) = p.propose_move(&mut search, &mut rng) else {
                continue;
            };
            let before = search.clone();
            if p.apply(&mut search, &mv) {
                p.revert(&mut search, &mv);
            }
            assert!(search == before, "revert failed to restore the search");
            assert_eq!(
                search.cache.load, before.cache.load,
                "load cache bits differ"
            );
            // Re-apply so the walk makes progress.
            p.apply(&mut search, &mv);
        }
    }

    #[test]
    fn objective_components_make_sense() {
        let p = small_problem();
        let s = p.initial_state();
        // Initial: 1.5 Mbps mean rate, degree 1, some imbalance >= 0.
        let o = p.objective(&s);
        assert!(o <= 1.5 + 1.0);
        assert!(o > 0.0);
    }

    #[test]
    fn storage_and_bandwidth_accounting() {
        let p = small_problem();
        let s = p.initial_state();
        let used = p.storage_used(&s);
        let low_bytes = BitRate::LADDER[0].storage_bytes(5_400);
        // 12 videos round-robin on 4 servers: 3 replicas each.
        assert!(used.iter().all(|&u| u == 3 * low_bytes));
        let loads = p.bandwidth_load(&s);
        let total: f64 = loads.iter().sum();
        // Total expected load = demand * mean rate = 2000 * 1500 kbps.
        assert!((total - 2_000.0 * 1_500.0).abs() < 1.0);
    }

    #[test]
    fn infeasible_state_penalized() {
        let p = small_problem();
        let mut s = p.initial_state();
        // Cram every video onto server 0 at the top rate: infeasible.
        for (v, a) in s.assignments.iter_mut().enumerate() {
            *a = vec![ServerId(0)];
            s.rates[v] = BitRate::STUDIO;
        }
        assert!(!p.is_feasible(&s));
        assert!(p.scratch_energy(&s) > 1e8);
    }

    #[test]
    fn rejects_bad_construction() {
        let pop = Popularity::zipf(4, 0.5).unwrap();
        let cluster = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: 1, // can't hold anything
                bandwidth_kbps: 1_000_000,
            },
        )
        .unwrap();
        assert!(ScalableProblem::new(
            pop.clone(),
            cluster.clone(),
            5_400,
            BitRate::LADDER.to_vec(),
            100.0,
            ObjectiveWeights::default(),
        )
        .is_err());
        // Unsorted ladder rejected.
        let big = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: 1_000_000,
            },
        )
        .unwrap();
        assert!(ScalableProblem::new(
            pop,
            big,
            5_400,
            vec![BitRate::MPEG2, BitRate::MPEG1],
            100.0,
            ObjectiveWeights::default(),
        )
        .is_err());
    }

    #[test]
    fn constraint_7_respected_after_long_walk() {
        let p = small_problem();
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..300 {
            if let Some(mv) = p.propose_move(&mut search, &mut rng) {
                p.apply(&mut search, &mv);
            }
        }
        for servers in &search.state().assignments {
            assert!(servers.len() <= p.n_servers());
            let mut sorted = servers.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), servers.len());
        }
    }
}
