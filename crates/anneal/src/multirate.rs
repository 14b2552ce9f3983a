//! Multi-rate replicas — the paper's future-work extension.
//!
//! "The replication and placement framework in this article provides a
//! flexible way to maintain multiple replicas of a video with different
//! encoding bit rates. The flexibility can facilitate providing different
//! qualities to requests for various videos or to requests from various
//! clients/devices. We will report our experience in future work"
//! (paper, Sec. 6). The authors never published that follow-up; this
//! module builds the natural formulation on top of the same annealing
//! substrate.
//!
//! Differences from [`crate::problem::ScalableProblem`]:
//!
//! * each replica carries its **own** bit rate (constraint "all replicas
//!   share one rate" is dropped);
//! * the quality term of Eq. (1) becomes the *delivered* quality: under
//!   static round-robin each replica serves an equal share of its video's
//!   requests, so video `i` delivers the mean of its replica rates; the
//!   configurable objective averages that per video either unweighted
//!   (the paper's Eq. 1 convention) or weighted by popularity (the
//!   variant that makes hot titles sharp — see the SA-2 experiment for
//!   the contrast);
//! * the neighborhood upgrades a single replica, or adds a lowest-rate
//!   replica, with the same decrease-or-drop repair discipline, plus an
//!   occasional explicit replica drop.
//!
//! Like the scalable problem, it anneals through [`AnnealProblem`] over
//! [`MultiRateSearch`] with incrementally maintained per-server
//! aggregates, and the workspace's `tests/anneal_differential.rs` keeps
//! the clone-per-step neighborhood as the reference it must walk in
//! lockstep with. One quirk of that reference is reproduced
//! deliberately: an explicit drop is returned *without* repair, so a
//! drop that overloads the survivors yields an infeasible candidate
//! whose 1e9-penalized energy goes through a Metropolis draw (and is
//! rejected for any sane temperature). The delta path proposes the same
//! drop, detects the violation against cached headroom, and returns the
//! same penalized candidate energy while keeping the state feasible —
//! consuming the identical RNG draw, so both walk the same trajectory
//! from the same seed.

use crate::delta::{nth_absent, sorted_insert, sorted_remove, SnapLog, TxnStatus};
use crate::engine::AnnealProblem;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vod_model::{load, BitRate, ClusterSpec, ModelError, ObjectiveWeights, Popularity, ServerId};

/// One placed replica: where it lives and how it is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RatedReplica {
    /// Host server.
    pub server: ServerId,
    /// This replica's encoding rate.
    pub rate: BitRate,
}

/// A search-space point: per-video list of rated replicas (servers
/// pairwise distinct per video).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiRateState {
    /// Replicas of each video.
    pub replicas: Vec<Vec<RatedReplica>>,
}

impl MultiRateState {
    /// Mean delivered rate of video `v` in Mbps (replicas serve equal
    /// request shares under static round robin).
    pub fn delivered_mbps(&self, v: usize) -> f64 {
        let reps = &self.replicas[v];
        reps.iter().map(|r| r.rate.mbps()).sum::<f64>() / reps.len() as f64
    }

    /// Mean replication degree.
    pub fn degree(&self) -> f64 {
        self.replicas.iter().map(|r| r.len() as f64).sum::<f64>() / self.replicas.len() as f64
    }
}

/// The multi-rate replication/placement problem.
#[derive(Debug, Clone)]
pub struct MultiRateProblem {
    /// Video popularities (rank-ordered; video id = rank).
    pub pop: Popularity,
    /// The cluster's capacities.
    pub cluster: ClusterSpec,
    /// Video duration in seconds.
    pub duration_s: u64,
    /// The discrete rate ladder, ascending.
    pub ladder: Vec<BitRate>,
    /// Expected peak-period demand `λT`, in requests.
    pub demand: f64,
    /// Objective weights `α`, `β`.
    pub weights: ObjectiveWeights,
    /// When true, the quality term is `Σ_i p_i · delivered_i` (popularity
    /// weighted); when false, `Σ_i delivered_i / M` (the paper's Eq. 1
    /// convention).
    pub popularity_weighted_quality: bool,
}

impl MultiRateProblem {
    /// Validates inputs; requires the lowest-rate single-copy deployment
    /// to fit.
    pub fn new(
        pop: Popularity,
        cluster: ClusterSpec,
        duration_s: u64,
        ladder: Vec<BitRate>,
        demand: f64,
        weights: ObjectiveWeights,
        popularity_weighted_quality: bool,
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
        let problem = MultiRateProblem {
            pop,
            cluster,
            duration_s,
            ladder,
            demand,
            weights,
            popularity_weighted_quality,
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

    /// Lowest-rate one-replica-each round-robin deployment.
    pub fn initial_state(&self) -> MultiRateState {
        let n = self.n_servers();
        MultiRateState {
            replicas: (0..self.n_videos())
                .map(|v| {
                    vec![RatedReplica {
                        server: ServerId((v % n) as u32),
                        rate: self.ladder[0],
                    }]
                })
                .collect(),
        }
    }

    /// Per-server storage use in bytes.
    pub fn storage_used(&self, state: &MultiRateState) -> Vec<u64> {
        let mut used = vec![0u64; self.n_servers()];
        for reps in &state.replicas {
            for r in reps {
                used[r.server.index()] += r.rate.storage_bytes(self.duration_s);
            }
        }
        used
    }

    /// Per-server expected outgoing load in kbps: replica `k` of video
    /// `v` carries `p_v · demand / r_v` requests at its own rate.
    pub fn bandwidth_load(&self, state: &MultiRateState) -> Vec<f64> {
        let mut loads = vec![0.0f64; self.n_servers()];
        for (v, reps) in state.replicas.iter().enumerate() {
            let share = self.pop.get(v) * self.demand / reps.len() as f64;
            for r in reps {
                loads[r.server.index()] += share * r.rate.kbps() as f64;
            }
        }
        loads
    }

    /// Whether every constraint holds.
    pub fn is_feasible(&self, state: &MultiRateState) -> bool {
        let n = self.n_servers();
        for reps in &state.replicas {
            if reps.is_empty() || reps.len() > n {
                return false;
            }
            for (i, r) in reps.iter().enumerate() {
                if r.server.index() >= n
                    || !r.rate.in_ladder(&self.ladder)
                    || reps[..i].iter().any(|q| q.server == r.server)
                {
                    return false;
                }
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

    /// The adapted Eq. (1) objective (higher is better).
    pub fn objective(&self, state: &MultiRateState) -> f64 {
        let m = self.n_videos();
        let quality = if self.popularity_weighted_quality {
            (0..m)
                .map(|v| self.pop.get(v) * state.delivered_mbps(v))
                .sum::<f64>()
        } else {
            (0..m).map(|v| state.delivered_mbps(v)).sum::<f64>() / m as f64
        };
        let loads = self.bandwidth_load(state);
        let l = load::imbalance(&loads, self.weights.metric);
        self.weights.evaluate_components(quality, state.degree(), l)
    }

    /// Energy (`−O`, plus a 1e9 penalty if infeasible) from a full
    /// recompute — what the cached energy must agree with.
    fn scratch_energy(&self, state: &MultiRateState) -> f64 {
        let mut e = -self.objective(state);
        if !self.is_feasible(state) {
            e += 1e9;
        }
        e
    }

    /// Wraps a feasible state into the delta-evaluated search
    /// representation, building all cached aggregates from scratch.
    pub fn search_state(&self, state: MultiRateState) -> MultiRateSearch {
        debug_assert!(
            self.is_feasible(&state),
            "search_state expects a feasible state"
        );
        let n = self.n_servers();
        let m = self.n_videos();
        let storage = self.storage_used(&state);
        let load = self.bandwidth_load(&state);
        let mut hosted = vec![Vec::new(); n];
        for (v, reps) in state.replicas.iter().enumerate() {
            for r in reps {
                hosted[r.server.index()].push(v as u32);
            }
        }
        for h in &mut hosted {
            h.sort_unstable();
        }
        let vsum: Vec<f64> = state
            .replicas
            .iter()
            .map(|reps| reps.iter().map(|r| r.rate.mbps()).sum())
            .collect();
        let q_sum = (0..m)
            .map(|v| self.quality_weight(v) * (vsum[v] / state.replicas[v].len() as f64))
            .sum();
        let replica_total = state.replicas.iter().map(|r| r.len() as u64).sum();
        let mut search = MultiRateSearch {
            state,
            cache: MultiRateCache {
                storage,
                load,
                hosted,
                vsum,
                q_sum,
                replica_total,
                energy: 0.0,
            },
            txn: MultiRateTxn::default(),
        };
        search.recompute_energy(self);
        search
    }

    /// [`search_state`](MultiRateProblem::search_state) of the initial
    /// deployment.
    pub fn initial_search(&self) -> MultiRateSearch {
        self.search_state(self.initial_state())
    }

    /// Per-video weight of the delivered-quality term: `p_v` when
    /// popularity-weighted, otherwise 1 (the `1/M` normalization is
    /// folded in at energy time).
    fn quality_weight(&self, v: usize) -> f64 {
        if self.popularity_weighted_quality {
            self.pop.get(v)
        } else {
            1.0
        }
    }
}

/// Cached aggregates of a [`MultiRateSearch`]; maintained incrementally
/// by moves and restored bit-for-bit on revert.
#[derive(Debug, Clone, PartialEq)]
struct MultiRateCache {
    /// Bytes stored per server.
    storage: Vec<u64>,
    /// Expected outgoing kbps per server.
    load: Vec<f64>,
    /// Videos hosted per server, ascending (at most one replica of a
    /// video per server).
    hosted: Vec<Vec<u32>>,
    /// Per-video sum of replica rates in Mbps (`delivered_i` numerator).
    vsum: Vec<f64>,
    /// `Σ_i w_i · delivered_i` with `w_i` from
    /// [`MultiRateProblem::quality_weight`].
    q_sum: f64,
    /// `Σ_i r_i`.
    replica_total: u64,
    /// Energy (`−O`) of the current state.
    energy: f64,
}

/// Structural undo record for one elementary mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MultiRateUndo {
    /// `replicas[video][idx].rate` was `old`.
    ReplicaRate { video: u32, idx: u32, old: BitRate },
    /// A replica was appended to `replicas[video]`.
    PushedReplica { video: u32 },
    /// `replicas[video][pos]` was removed (`replica` holds its data).
    RemovedReplica {
        video: u32,
        pos: u32,
        replica: RatedReplica,
    },
}

/// Scratch transaction state: undo logs and pre-move snapshots.
#[derive(Debug, Clone, Default)]
struct MultiRateTxn {
    status: TxnStatus,
    pending: Option<MultiRateMove>,
    undo: Vec<MultiRateUndo>,
    load_snap: SnapLog<f64>,
    storage_snap: SnapLog<u64>,
    vsum_snap: SnapLog<f64>,
    q_sum_snap: f64,
    replica_total_snap: u64,
    energy_snap: f64,
}

/// The delta-evaluated search representation of the multi-rate problem.
/// Build one with [`MultiRateProblem::search_state`]; equality compares
/// state and caches (not scratch).
#[derive(Debug, Clone)]
pub struct MultiRateSearch {
    state: MultiRateState,
    cache: MultiRateCache,
    txn: MultiRateTxn,
}

impl PartialEq for MultiRateSearch {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state && self.cache == other.cache
    }
}

impl MultiRateSearch {
    /// The underlying search-space point.
    pub fn state(&self) -> &MultiRateState {
        &self.state
    }

    /// Unwraps into the underlying search-space point.
    pub fn into_state(self) -> MultiRateState {
        self.state
    }

    /// Opens a move transaction.
    fn begin(&mut self, n_servers: usize, n_videos: usize) {
        debug_assert!(
            matches!(self.txn.status, TxnStatus::Idle | TxnStatus::Committed),
            "begin over an unresolved tentative move"
        );
        self.txn.undo.clear();
        self.txn.load_snap.begin(n_servers);
        self.txn.storage_snap.begin(n_servers);
        self.txn.vsum_snap.begin(n_videos);
        self.txn.q_sum_snap = self.cache.q_sum;
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
                MultiRateUndo::ReplicaRate { video, idx, old } => {
                    self.state.replicas[video as usize][idx as usize].rate = old;
                }
                MultiRateUndo::PushedReplica { video } => {
                    let rep = self.state.replicas[video as usize]
                        .pop()
                        .expect("pushed replica present");
                    sorted_remove(&mut self.cache.hosted[rep.server.index()], video);
                }
                MultiRateUndo::RemovedReplica {
                    video,
                    pos,
                    replica,
                } => {
                    self.state.replicas[video as usize].insert(pos as usize, replica);
                    sorted_insert(&mut self.cache.hosted[replica.server.index()], video);
                }
            }
        }
        self.txn.load_snap.rollback(&mut self.cache.load);
        self.txn.storage_snap.rollback(&mut self.cache.storage);
        self.txn.vsum_snap.rollback(&mut self.cache.vsum);
        self.cache.q_sum = self.txn.q_sum_snap;
        self.cache.replica_total = self.txn.replica_total_snap;
        self.cache.energy = self.txn.energy_snap;
        self.txn.status = TxnStatus::Idle;
        self.txn.pending = None;
    }

    /// Cached constraint check for one server.
    fn server_ok(&self, p: &MultiRateProblem, server: usize) -> bool {
        let spec = &p.cluster.servers()[server];
        self.cache.storage[server] <= spec.storage_bytes
            && self.cache.load[server] <= spec.bandwidth_kbps as f64 + 1e-6
    }

    /// Updates the cached quality sum after `video`'s replica set or
    /// rates changed: `vsum` must already hold the *new* rate sum.
    fn requality(&mut self, p: &MultiRateProblem, video: usize, old_delivered: f64) {
        let new_delivered = self.cache.vsum[video] / self.state.replicas[video].len() as f64;
        self.cache.q_sum += p.quality_weight(video) * (new_delivered - old_delivered);
    }

    /// Current delivered quality of `video` from the cache.
    fn delivered(&self, video: usize) -> f64 {
        self.cache.vsum[video] / self.state.replicas[video].len() as f64
    }

    /// Re-rates replica `idx` of `video` in place.
    fn set_replica_rate(&mut self, p: &MultiRateProblem, video: usize, idx: usize, new: BitRate) {
        let old = self.state.replicas[video][idx].rate;
        let server = self.state.replicas[video][idx].server.index();
        self.txn.undo.push(MultiRateUndo::ReplicaRate {
            video: video as u32,
            idx: idx as u32,
            old,
        });
        let share = p.pop.get(video) * p.demand / self.state.replicas[video].len() as f64;
        self.txn.load_snap.touch(server, self.cache.load[server]);
        self.cache.load[server] =
            self.cache.load[server] - share * old.kbps() as f64 + share * new.kbps() as f64;
        self.txn
            .storage_snap
            .touch(server, self.cache.storage[server]);
        self.cache.storage[server] = self.cache.storage[server] - old.storage_bytes(p.duration_s)
            + new.storage_bytes(p.duration_s);
        let old_delivered = self.delivered(video);
        self.txn.vsum_snap.touch(video, self.cache.vsum[video]);
        self.cache.vsum[video] += new.mbps() - old.mbps();
        self.state.replicas[video][idx].rate = new;
        self.requality(p, video, old_delivered);
    }

    /// Adds a lowest-available `rate` replica of `video` on `server`.
    fn add_replica(&mut self, p: &MultiRateProblem, video: usize, server: usize, rate: BitRate) {
        let pd = p.pop.get(video) * p.demand;
        let r_old = self.state.replicas[video].len() as f64;
        let old_share = pd / r_old;
        let new_share = pd / (r_old + 1.0);
        for k in 0..self.state.replicas[video].len() {
            let rep = self.state.replicas[video][k];
            let s = rep.server.index();
            let kbps = rep.rate.kbps() as f64;
            self.txn.load_snap.touch(s, self.cache.load[s]);
            self.cache.load[s] = self.cache.load[s] - old_share * kbps + new_share * kbps;
        }
        self.txn
            .storage_snap
            .touch(server, self.cache.storage[server]);
        self.cache.storage[server] += rate.storage_bytes(p.duration_s);
        self.txn.load_snap.touch(server, self.cache.load[server]);
        self.cache.load[server] += new_share * rate.kbps() as f64;
        let old_delivered = self.delivered(video);
        self.txn.vsum_snap.touch(video, self.cache.vsum[video]);
        self.cache.vsum[video] += rate.mbps();
        self.state.replicas[video].push(RatedReplica {
            server: ServerId(server as u32),
            rate,
        });
        sorted_insert(&mut self.cache.hosted[server], video as u32);
        self.cache.replica_total += 1;
        self.txn.undo.push(MultiRateUndo::PushedReplica {
            video: video as u32,
        });
        self.requality(p, video, old_delivered);
    }

    /// Removes replica `pos` of `video` (not its last one).
    fn remove_replica(&mut self, p: &MultiRateProblem, video: usize, pos: usize) {
        let removed = self.state.replicas[video][pos];
        let pd = p.pop.get(video) * p.demand;
        let r_old = self.state.replicas[video].len() as f64;
        let old_share = pd / r_old;
        let new_share = pd / (r_old - 1.0);
        for k in 0..self.state.replicas[video].len() {
            let rep = self.state.replicas[video][k];
            let s = rep.server.index();
            let kbps = rep.rate.kbps() as f64;
            self.txn.load_snap.touch(s, self.cache.load[s]);
            if k == pos {
                self.cache.load[s] -= old_share * kbps;
            } else {
                self.cache.load[s] = self.cache.load[s] - old_share * kbps + new_share * kbps;
            }
        }
        let server = removed.server.index();
        self.txn
            .storage_snap
            .touch(server, self.cache.storage[server]);
        self.cache.storage[server] -= removed.rate.storage_bytes(p.duration_s);
        let old_delivered = self.delivered(video);
        self.txn.vsum_snap.touch(video, self.cache.vsum[video]);
        self.cache.vsum[video] -= removed.rate.mbps();
        self.state.replicas[video].remove(pos);
        sorted_remove(&mut self.cache.hosted[server], video as u32);
        self.cache.replica_total -= 1;
        self.txn.undo.push(MultiRateUndo::RemovedReplica {
            video: video as u32,
            pos: pos as u32,
            replica: removed,
        });
        self.requality(p, video, old_delivered);
    }

    /// Position of `video`'s replica on `server` within its replica
    /// list (unique: servers are pairwise distinct per video).
    fn replica_pos(&self, video: usize, server: usize) -> usize {
        let sid = ServerId(server as u32);
        self.state.replicas[video]
            .iter()
            .position(|r| r.server == sid)
            .expect("replica hosted on server")
    }

    /// Repairs `server` after a load-increasing move, over the cached
    /// aggregates: while it violates (4)/(5), step its lowest-rate
    /// downgradable replica down a rung, else drop its lowest-rate
    /// replica of a video with spare copies (strictly-lowest rate, first
    /// video among ties), never a video's last replica. Returns false if
    /// stuck.
    fn repair(&mut self, p: &MultiRateProblem, server: usize) -> bool {
        let sid = ServerId(server as u32);
        let mut guard = 0;
        while !self.server_ok(p, server) {
            guard += 1;
            if guard > 10_000 {
                return false;
            }
            let mut downgrade: Option<(BitRate, u32, u32)> = None; // rate, video, idx
            let mut droppable: Option<(BitRate, u32, u32)> = None;
            for &v in &self.cache.hosted[server] {
                let reps = &self.state.replicas[v as usize];
                let k = reps
                    .iter()
                    .position(|r| r.server == sid)
                    .expect("hosted list consistent");
                let rate = reps[k].rate;
                if rate.step_down(&p.ladder).is_some()
                    && downgrade.is_none_or(|(best, _, _)| rate < best)
                {
                    downgrade = Some((rate, v, k as u32));
                }
                if reps.len() > 1 && droppable.is_none_or(|(best, _, _)| rate < best) {
                    droppable = Some((rate, v, k as u32));
                }
            }
            if let Some((rate, v, k)) = downgrade {
                let down = rate.step_down(&p.ladder).expect("checked");
                self.set_replica_rate(p, v as usize, k as usize, down);
            } else if let Some((_, v, k)) = droppable {
                self.remove_replica(p, v as usize, k as usize);
            } else {
                return false;
            }
        }
        true
    }

    /// Recomputes the cached energy from the cached Eq. (1) component
    /// aggregates.
    fn recompute_energy(&mut self, p: &MultiRateProblem) {
        let m = p.n_videos() as f64;
        let quality = if p.popularity_weighted_quality {
            self.cache.q_sum
        } else {
            self.cache.q_sum / m
        };
        let degree = self.cache.replica_total as f64 / m;
        let l = load::imbalance(&self.cache.load, p.weights.metric);
        self.cache.energy = -p.weights.evaluate_components(quality, degree, l);
    }

    /// Whether the open transaction's net effect on the *state* is the
    /// identity — e.g. an added replica that repair immediately dropped,
    /// or an upgrade stepped straight back down. The reference saw
    /// two equal states there and got an exactly-zero energy delta
    /// (accepting without a Metropolis draw); the caller must reproduce
    /// that by rolling back the (drifted) caches and reporting the
    /// current energy unchanged.
    fn txn_is_identity(&self) -> bool {
        let undo = &self.txn.undo;
        // At most one push per move (the primary op); repair only
        // downgrades or removes. `pushed` tracks whether it is still
        // uncancelled.
        let mut pushed: Option<u32> = None;
        for (i, e) in undo.iter().enumerate() {
            match *e {
                MultiRateUndo::ReplicaRate { video, idx, old } => {
                    // Only a slot's first record holds its original value.
                    let first = !undo[..i].iter().any(|p| {
                        matches!(*p, MultiRateUndo::ReplicaRate { video: v, idx: k, .. }
                            if v == video && k == idx)
                    });
                    if first && self.state.replicas[video as usize][idx as usize].rate != old {
                        return false;
                    }
                }
                MultiRateUndo::PushedReplica { video } => pushed = Some(video),
                MultiRateUndo::RemovedReplica { video, pos, .. } => {
                    // Cancels the push only if it removed the appended
                    // replica itself (always the last slot); any other
                    // removal is irreversible within one move.
                    if pushed == Some(video)
                        && pos as usize == self.state.replicas[video as usize].len()
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

/// One elementary move of the delta-evaluated multi-rate search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiRateMove {
    kind: MultiRateMoveKind,
    video: u32,
    server: u32,
}

/// What a [`MultiRateMove`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MultiRateMoveKind {
    /// Drop `video`'s replica on `server` (an explicit load-shedding
    /// move; applied without repair, like the reference).
    Drop,
    /// Step the rate of `video`'s replica on `server` up one rung.
    Upgrade,
    /// Add a lowest-rate replica of `video` on `server`.
    Add,
}

/// Delta-evaluated search path.
impl AnnealProblem for MultiRateProblem {
    type State = MultiRateSearch;
    type Move = MultiRateMove;

    fn energy(&self, search: &MultiRateSearch) -> f64 {
        self.scratch_energy(&search.state)
    }

    fn state_energy(&self, search: &MultiRateSearch) -> f64 {
        search.cache.energy
    }

    /// Draws the reference neighborhood's RNG sequence: server, the 0..10
    /// move die, then an index into the relevant candidate list —
    /// counted and rank-selected from the cached hosted lists, with no
    /// per-call allocation.
    fn propose_move<R: Rng + ?Sized>(
        &self,
        search: &mut MultiRateSearch,
        rng: &mut R,
    ) -> Option<MultiRateMove> {
        let n = self.n_servers();
        let server = rng.gen_range(0..n);
        let dice = rng.gen_range(0..10);
        if dice == 0 {
            // Count-then-pick over hosted videos with spare replicas
            // (the reference materializes this list on every call).
            let droppable = search.cache.hosted[server]
                .iter()
                .filter(|&&v| search.state.replicas[v as usize].len() > 1)
                .count();
            if droppable == 0 {
                return None;
            }
            let pick = rng.gen_range(0..droppable);
            let v = *search.cache.hosted[server]
                .iter()
                .filter(|&&v| search.state.replicas[v as usize].len() > 1)
                .nth(pick)
                .expect("pick < droppable count");
            return Some(MultiRateMove {
                kind: MultiRateMoveKind::Drop,
                video: v,
                server: server as u32,
            });
        }
        if dice < 5 {
            let hosted = &search.cache.hosted[server];
            if !hosted.is_empty() {
                let v = hosted[rng.gen_range(0..hosted.len())];
                let k = search.replica_pos(v as usize, server);
                if search.state.replicas[v as usize][k]
                    .rate
                    .step_up(&self.ladder)
                    .is_some()
                {
                    return Some(MultiRateMove {
                        kind: MultiRateMoveKind::Upgrade,
                        video: v,
                        server: server as u32,
                    });
                }
                // Top rung already: fall through to the add branch,
                // like the reference's `moved = false` path.
            }
        }
        let hosted = &search.cache.hosted[server];
        let absent = self.n_videos() - hosted.len();
        if absent == 0 {
            return None;
        }
        let v = nth_absent(hosted, rng.gen_range(0..absent));
        Some(MultiRateMove {
            kind: MultiRateMoveKind::Add,
            video: v,
            server: server as u32,
        })
    }

    fn evaluate_move(&self, search: &mut MultiRateSearch, mv: &MultiRateMove) -> Option<f64> {
        let n = self.n_servers();
        search.begin(n, self.n_videos());
        let video = mv.video as usize;
        let server = mv.server as usize;
        match mv.kind {
            MultiRateMoveKind::Drop => {
                let pos = search.replica_pos(video, server);
                search.remove_replica(self, video, pos);
                search.recompute_energy(self);
                if (0..n).all(|j| search.server_ok(self, j)) {
                    search.txn.status = TxnStatus::Tentative;
                    search.txn.pending = Some(*mv);
                    return Some(search.cache.energy);
                }
                // The reference returns this infeasible candidate and
                // lets its 1e9-penalized energy lose the Metropolis draw.
                // Reproduce the identical draw (and its penalized energy)
                // while keeping the live state feasible: roll back now
                // and hand the engine a candidate it will reject.
                let penalized = search.cache.energy + 1e9;
                search.rollback();
                return Some(penalized);
            }
            MultiRateMoveKind::Upgrade => {
                let pos = search.replica_pos(video, server);
                let up = search.state.replicas[video][pos]
                    .rate
                    .step_up(&self.ladder)
                    .expect("proposed upgrade has ladder headroom");
                search.set_replica_rate(self, video, pos, up);
            }
            MultiRateMoveKind::Add => {
                search.add_replica(self, video, server, self.ladder[0]);
            }
        }
        let mut ok = search.repair(self, server);
        if ok {
            // Adding replicas shifts request shares on other servers too;
            // the reference re-runs repair everywhere (each run is a
            // no-op when the server already fits).
            for j in 0..n {
                if j != server {
                    ok = search.repair(self, j);
                    if !ok {
                        break;
                    }
                }
            }
        }
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

    fn apply(&self, search: &mut MultiRateSearch, mv: &MultiRateMove) -> bool {
        if search.txn.status == TxnStatus::Tentative {
            debug_assert_eq!(search.txn.pending, Some(*mv));
            search.txn.status = TxnStatus::Committed;
            return true;
        }
        // Fresh application. A penalized drop evaluates to Some but
        // leaves no tentative transaction — it cannot be applied
        // (doing so would make the live state infeasible).
        self.evaluate_move(search, mv);
        if search.txn.status == TxnStatus::Tentative {
            search.txn.status = TxnStatus::Committed;
            true
        } else {
            false
        }
    }

    fn revert(&self, search: &mut MultiRateSearch, mv: &MultiRateMove) {
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

    fn problem(weighted: bool) -> MultiRateProblem {
        let low_bytes = BitRate::LADDER[0].storage_bytes(5_400);
        MultiRateProblem::new(
            Popularity::zipf(12, 1.0).unwrap(),
            ClusterSpec::homogeneous(
                4,
                ServerSpec {
                    storage_bytes: 8 * low_bytes,
                    bandwidth_kbps: 1_800_000,
                },
            )
            .unwrap(),
            5_400,
            BitRate::LADDER.to_vec(),
            1_500.0,
            ObjectiveWeights::default(),
            weighted,
        )
        .unwrap()
    }

    #[test]
    fn initial_is_feasible() {
        let p = problem(false);
        let s = p.initial_state();
        assert!(p.is_feasible(&s));
        assert!((s.degree() - 1.0).abs() < 1e-12);
        assert!((s.delivered_mbps(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn walk_preserves_feasibility_and_identity() {
        let p = problem(false);
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..400 {
            if let Some(mv) = p.propose_move(&mut search, &mut rng) {
                p.apply(&mut search, &mv);
            }
            assert!(p.is_feasible(search.state()));
            assert!(search.state().replicas.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn replicas_of_one_video_can_differ_in_rate() {
        // The defining capability of the extension: walk until some video
        // holds replicas at two different rates.
        let p = problem(false);
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut found = false;
        for _ in 0..2_000 {
            if let Some(mv) = p.propose_move(&mut search, &mut rng) {
                p.apply(&mut search, &mv);
            }
            if search
                .state()
                .replicas
                .iter()
                .any(|reps| reps.len() > 1 && reps.iter().any(|r| r.rate != reps[0].rate))
            {
                found = true;
                break;
            }
        }
        assert!(found, "no mixed-rate video emerged in 2000 moves");
    }

    #[test]
    fn annealing_improves_objective() {
        let p = problem(false);
        let initial = p.initial_state();
        let o0 = p.objective(&initial);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let result = anneal(
            &p,
            p.search_state(initial),
            &AnnealParams {
                schedule: CoolingSchedule::default_geometric(0.5),
                epochs: 50,
                steps_per_epoch: 60,
            },
            &mut rng,
        );
        assert!(p.objective(result.best_state.state()) > o0);
        assert!(p.is_feasible(result.best_state.state()));
    }

    #[test]
    fn cached_energy_tracks_recompute_over_walk() {
        for weighted in [false, true] {
            let p = problem(weighted);
            let mut search = p.initial_search();
            let mut rng = ChaCha8Rng::seed_from_u64(32);
            for _ in 0..600 {
                let Some(mv) = p.propose_move(&mut search, &mut rng) else {
                    continue;
                };
                p.apply(&mut search, &mv);
                let cached = p.state_energy(&search);
                let full = AnnealProblem::energy(&p, &search);
                assert!(
                    (cached - full).abs() < 1e-9,
                    "cache drifted: {cached} vs {full}"
                );
                assert!(p.is_feasible(search.state()));
            }
        }
    }

    #[test]
    fn revert_restores_state_and_caches_bit_for_bit() {
        let p = problem(false);
        let mut search = p.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
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
            assert_eq!(
                search.cache.vsum, before.cache.vsum,
                "vsum cache bits differ"
            );
            p.apply(&mut search, &mv);
        }
    }

    #[test]
    fn weighted_objective_prefers_hot_title_quality() {
        // Same state, two objectives (β = 0 isolates the quality term):
        // raising the top title's delivered rate moves the weighted
        // objective more than the unweighted one.
        let quality_only = ObjectiveWeights::new(1.0, 0.0).unwrap();
        let mut pu = problem(false);
        pu.weights = quality_only;
        let mut pw = problem(true);
        pw.weights = quality_only;
        let base = pu.initial_state();
        let mut upgraded = base.clone();
        upgraded.replicas[0][0].rate = BitRate::LADDER[1];

        let du = pu.objective(&upgraded) - pu.objective(&base);
        let dw = pw.objective(&upgraded) - pw.objective(&base);
        assert!(du > 0.0 && dw > 0.0);
        // p_0 ≈ 0.32 under Zipf(12, 1.0) > 1/12: the weighted gain is larger.
        assert!(dw > du, "weighted {dw} should exceed unweighted {du}");
    }

    #[test]
    fn rejects_bad_construction() {
        let tiny = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: 1,
                bandwidth_kbps: 1_000_000,
            },
        )
        .unwrap();
        assert!(MultiRateProblem::new(
            Popularity::zipf(4, 0.5).unwrap(),
            tiny,
            5_400,
            BitRate::LADDER.to_vec(),
            100.0,
            ObjectiveWeights::default(),
            false,
        )
        .is_err());
    }
}
