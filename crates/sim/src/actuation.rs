//! The metered replica-actuation layer shared by the failure-repair
//! policy and the online replication controller.
//!
//! [`ReplicaActuator`] owns the *live* content map — which servers hold
//! a servable replica of each video — together with every mechanism
//! that changes it at run time: metered inter-server copies (bandwidth
//! reserved on the source *and* destination links, and on the shared
//! backbone pool under [`crate::AdmissionPolicy::BackboneRedirect`]),
//! up-front storage reservations so Eq. 4 holds throughout, incremental
//! destination planning, deterministic pumping of pending copies, and
//! surplus retirement.
//!
//! Two policy layers drive it and therefore *compete for the same
//! repair-bandwidth budget*:
//!
//! * the failure-repair hooks ([`ReplicaActuator::on_failure`] /
//!   [`ReplicaActuator::on_recovery`] /
//!   [`ReplicaActuator::on_brownout`], historically the
//!   `RepairController` that lived in [`crate::repair`]) restore the
//!   per-video `targets` after outages;
//! * the online controller ([`crate::controller`]) *moves* the targets
//!   themselves ([`ReplicaActuator::set_target`]) as observed popularity
//!   drifts, then fills deficits ([`ReplicaActuator::request_fill`] +
//!   [`ReplicaActuator::pump`]) and retires the surplus of cooled videos
//!   ([`ReplicaActuator::retire_to_target`]).
//!
//! Completed copies are attributed to one of the two policies by
//! [`CopyPurpose`]: a copy that restores a video to (at most) the bound
//! layout's original degree is `Repair`; a copy that grows it beyond
//! that baseline is `Rebalance`. With the online controller disabled,
//! targets never leave the baseline, so every copy is `Repair` and the
//! actuator is behaviorally identical to the pre-split
//! `RepairController`.
//!
//! The actuator also integrates the redundancy robustness metrics over
//! simulated time: minutes in which *any* video sat below its current
//! replication target and video·minutes with *zero* servable replicas.
//!
//! Work is proportional to what changed, not to catalog × cluster:
//! [`ReplicaActuator::replan`] places only the videos short of their
//! replica count (the result equals `vod_placement::IncrementalPlacement`
//! run over the whole content map; DESIGN.md §7 gives the argument), and
//! the in-flight copies live in an indexed copy book.

use crate::dispatch::Dispatcher;
use crate::repair::RepairConfig;
use crate::server::LinkState;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use vod_model::{Catalog, ClusterSpec, Layout, ModelError, ServerId, VideoId};

/// Which policy layer a completed copy is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CopyPurpose {
    /// Restoring redundancy the bound layout already had (failure
    /// repair).
    Repair,
    /// Growing a video beyond its original degree (online replication
    /// controller).
    Rebalance,
}

/// One in-flight replica copy (or coded-fragment reconstruction).
#[derive(Debug, Clone)]
struct ActiveCopy {
    video: VideoId,
    src: ServerId,
    dst: ServerId,
    kbps: u64,
    bytes: u64,
    /// Backbone bandwidth actually charged (0 unless the policy models a
    /// backbone).
    backbone_kbps: u64,
    done_at: SimTime,
    seq: u64,
    purpose: CopyPurpose,
    /// Additional read sources of a coded reconstruction: rebuilding one
    /// fragment reads `k` surviving fragments, so `k - 1` extra sources
    /// each hold a `kbps` repair reservation for the copy's duration —
    /// the k× repair-read amplification. Empty for replicated copies.
    extra_srcs: Vec<ServerId>,
}

impl ActiveCopy {
    /// The copy's `(done_at, seq)` key: unique, and the completion order.
    fn key(&self) -> CopyKey {
        (self.done_at, self.seq)
    }

    /// Every server the copy holds a reservation on.
    fn endpoints(&self) -> impl Iterator<Item = ServerId> + '_ {
        [self.src, self.dst]
            .into_iter()
            .chain(self.extra_srcs.iter().copied())
    }
}

type CopyKey = (SimTime, u64);

/// The in-flight copies, keyed by `(done_at, seq)` so the next
/// completion is the first entry, with two indexes: `(video, dst)` pairs
/// answer "is a copy of `v` already headed to `dst`?" and
/// `(server, key)` pairs find the copies touching a server, latest
/// first for brownout shedding. All three are O(log c).
#[derive(Debug, Default)]
struct CopyBook {
    by_done: BTreeMap<CopyKey, ActiveCopy>,
    dsts: BTreeSet<(VideoId, ServerId)>,
    ends: BTreeSet<(ServerId, CopyKey)>,
    /// Copies attributed to failure repair.
    repair: usize,
}

impl CopyBook {
    fn len(&self) -> usize {
        self.by_done.len()
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = &ActiveCopy> {
        self.by_done.values()
    }

    fn insert(&mut self, c: ActiveCopy) {
        let key = c.key();
        self.dsts.insert((c.video, c.dst));
        for s in c.endpoints() {
            self.ends.insert((s, key));
        }
        if c.purpose == CopyPurpose::Repair {
            self.repair += 1;
        }
        self.by_done.insert(key, c);
    }

    fn remove(&mut self, key: CopyKey) -> Option<ActiveCopy> {
        let c = self.by_done.remove(&key)?;
        self.dsts.remove(&(c.video, c.dst));
        for s in c.endpoints() {
            self.ends.remove(&(s, key));
        }
        if c.purpose == CopyPurpose::Repair {
            self.repair -= 1;
        }
        Some(c)
    }

    /// The earliest `(done_at, seq)`, if any copy is in flight.
    fn first_key(&self) -> Option<CopyKey> {
        self.by_done.first_key_value().map(|(&k, _)| k)
    }

    /// Whether a copy of `video` is already headed to `dst`.
    fn heads_to(&self, video: VideoId, dst: ServerId) -> bool {
        self.dsts.contains(&(video, dst))
    }

    /// Keys of the copies touching `server`, in `(done_at, seq)` order.
    fn touching(&self, server: ServerId) -> impl DoubleEndedIterator<Item = CopyKey> + '_ {
        let lo = (server, (SimTime(0), 0));
        let hi = (server, (SimTime(u64::MAX), u64::MAX));
        self.ends.range(lo..=hi).map(|&(_, k)| k)
    }

    /// Removes every copy `abort` selects, in `(done_at, seq)` order.
    fn take_where(&mut self, mut abort: impl FnMut(&ActiveCopy) -> bool) -> Vec<ActiveCopy> {
        let keys: Vec<CopyKey> = self
            .by_done
            .values()
            .filter(|c| abort(c))
            .map(ActiveCopy::key)
            .collect();
        keys.into_iter().filter_map(|k| self.remove(k)).collect()
    }
}

/// Reusable buffers of [`ReplicaActuator::replan`]: the per-server slot
/// state of the placement being computed and its few per-video diffs.
#[derive(Debug, Default)]
struct PlanScratch {
    /// Slot capacity per server (0 on a down server).
    cap: Vec<u64>,
    /// Slots taken per server: its kept replicas plus planned additions.
    used: Vec<u64>,
    /// Σ (weight + 1) over the videos a server holds or is planned to
    /// receive. Integer, so sums do not depend on summation order.
    load: Vec<u128>,
    /// `(load, server)` of every server with a free slot: the first
    /// entry not assigned the video being placed is its destination.
    free: BTreeSet<(u128, u32)>,
    /// Servers assigned the video being placed.
    mark: Vec<bool>,
    /// Videos short of their replica count, in placement order.
    short: Vec<u32>,
    /// Kept replicas swap repair moved away, as `(video, server)`.
    moved: Vec<(u32, ServerId)>,
    /// Videos planned onto each server during this replan.
    gained: Vec<Vec<u32>>,
}

impl PlanScratch {
    /// Takes one more slot on server `j` for a video of weight `w`.
    fn fill(&mut self, j: usize, w: u128) {
        self.free.remove(&(self.load[j], j as u32));
        self.used[j] += 1;
        self.load[j] += w;
        if self.used[j] < self.cap[j] {
            self.free.insert((self.load[j], j as u32));
        }
    }

    /// Gives back one slot on server `j` held by a video of weight `w`.
    fn vacate(&mut self, j: usize, w: u128) {
        self.free.remove(&(self.load[j], j as u32));
        self.used[j] -= 1;
        self.load[j] -= w;
        self.free.insert((self.load[j], j as u32));
    }
}

/// Run-time replica tracker, transfer scheduler and retirement engine.
///
/// Owns the *live* content map: which servers hold a servable replica of
/// each video (the bound [`Layout`] is the initial state; completed
/// copies append to it). Data on a down server is not lost — it becomes
/// servable again on recovery — but it does not count toward redundancy
/// while the server is down.
#[derive(Debug)]
pub(crate) struct ReplicaActuator {
    config: RepairConfig,
    n_servers: usize,
    /// Servers holding a full replica (servable when up), per video, in
    /// round-robin dispatch order; copied replicas append at the end.
    holders: Vec<Vec<ServerId>>,
    /// The reverse map: videos each server holds, ascending.
    held: Vec<Vec<u32>>,
    /// Current desired replica count per video. Initially the bound
    /// layout's degrees; the online controller moves these at run time.
    targets: Vec<u32>,
    /// Σ `targets`.
    target_slots: u64,
    video_bytes: Vec<u64>,
    /// Bytes of one replica slot: the largest video's stored bytes.
    slot_bytes: u64,
    /// Whether every video stores exactly `slot_bytes`.
    uniform: bool,
    /// Cluster-wide replica slots (see [`Self::slot_budget`]).
    slot_budget: u64,
    /// Per-server stored bytes, *including* reservations of in-flight
    /// copies (reserved at copy start so concurrent copies cannot
    /// oversubscribe storage — Eq. 4 holds throughout).
    used_bytes: Vec<u64>,
    capacity_bytes: Vec<u64>,
    /// Stored bytes of the smallest video.
    min_bytes: u64,
    /// `(used_bytes, server)` of every server with room for the smallest
    /// video: the greedy destination search walks it in order instead
    /// of probing every server.
    roomy: BTreeSet<(u64, ServerId)>,
    up: Vec<bool>,
    /// Number of currently-down servers.
    down_count: u32,
    /// Servable replicas (or fragments) on up servers, per video.
    alive: Vec<u32>,
    /// Live holders needed to serve each video: 1 for replicated, `k`
    /// for a coded stripe (also the fan-in of a reconstruction).
    min_live: Vec<u32>,
    /// Whether any video is coded (false keeps every hot path on the
    /// exact replicated code, preserving byte-identical reports).
    any_coded: bool,
    /// In-flight copies per video.
    in_flight: Vec<u32>,
    /// Videos that may need a copy: a superset of those whose target
    /// exceeds their alive plus in-flight count. The pump drops a video
    /// once that need is gone; every event that raises it again (a
    /// raised target, a lost holder, an aborted copy) re-inserts it.
    pending: BTreeSet<u32>,
    /// Planned destinations for new copies, refreshed on every topology
    /// or target change; empty entries fall back to a greedy choice.
    planned: Vec<Vec<ServerId>>,
    plan: PlanScratch,
    copies: CopyBook,
    seq: u64,
    /// Scratch of [`Self::pump`]: the pending snapshot and the source
    /// candidates of one copy.
    pump_vids: Vec<u32>,
    pump_srcs: Vec<ServerId>,
    // Metrics.
    bytes_copied: u64,
    copies_completed: u64,
    drift_bytes_copied: u64,
    drift_copies_completed: u64,
    deficit_videos: u32,
    unavailable_videos: u32,
    /// Fractional per-video deficit weights: a replicated video below
    /// target weighs 1, a coded video with `j` of its `m` parity margin
    /// lost weighs `j / m` (clamped to 1). `deficit_weight` is their sum
    /// — the integrand of `deficit_video_min`. For all-replicated runs
    /// every weight is exactly 0.0 or 1.0, so the f64 sum equals the
    /// old `deficit_videos as f64` bit for bit.
    weight: Vec<f64>,
    deficit_weight: f64,
    coded_reconstructions: u64,
    coded_bytes_read: u64,
    last_update_min: f64,
    deficit_min: f64,
    deficit_video_min: f64,
    unavailability_video_min: f64,
}

impl ReplicaActuator {
    pub fn new(
        catalog: &Catalog,
        cluster: &ClusterSpec,
        layout: &Layout,
        config: RepairConfig,
    ) -> Self {
        let n = cluster.len();
        let m = layout.n_videos();
        let holders: Vec<Vec<ServerId>> = layout.assignments().to_vec();
        // Coded videos store one fragment (`⌈bytes / k⌉`) per holder, not
        // a full replica — every storage computation below inherits this.
        let video_bytes: Vec<u64> = catalog
            .videos()
            .iter()
            .enumerate()
            .map(|(v, vid)| {
                layout
                    .scheme_of(VideoId(v as u32))
                    .stored_bytes(vid.storage_bytes())
            })
            .collect();
        let min_live: Vec<u32> = (0..m)
            .map(|v| layout.scheme_of(VideoId(v as u32)).min_live())
            .collect();
        let any_coded = layout.any_coded();
        let mut used_bytes = vec![0u64; n];
        let mut held = vec![Vec::new(); n];
        for (v, servers) in holders.iter().enumerate() {
            for &s in servers {
                used_bytes[s.index()] += video_bytes[v];
                held[s.index()].push(v as u32);
            }
        }
        let slot_bytes = video_bytes.iter().copied().max().unwrap_or(1).max(1);
        let min_bytes = video_bytes.iter().copied().min().unwrap_or(0);
        let capacity_bytes: Vec<u64> = cluster.servers().iter().map(|s| s.storage_bytes).collect();
        let roomy = (0..n)
            .filter(|&j| used_bytes[j].saturating_add(min_bytes) <= capacity_bytes[j])
            .map(|j| (used_bytes[j], ServerId(j as u32)))
            .collect();
        let targets: Vec<u32> = holders.iter().map(|h| h.len() as u32).collect();
        ReplicaActuator {
            config,
            n_servers: n,
            target_slots: targets.iter().map(|&t| t as u64).sum(),
            targets,
            alive: holders.iter().map(|h| h.len() as u32).collect(),
            holders,
            held,
            uniform: video_bytes.windows(2).all(|w| w[0] == w[1]),
            slot_budget: capacity_bytes.iter().map(|&c| c / slot_bytes).sum(),
            slot_bytes,
            video_bytes,
            min_live,
            any_coded,
            used_bytes,
            capacity_bytes,
            min_bytes,
            roomy,
            up: vec![true; n],
            down_count: 0,
            in_flight: vec![0; m],
            pending: BTreeSet::new(),
            planned: vec![Vec::new(); m],
            plan: PlanScratch::default(),
            copies: CopyBook::default(),
            seq: 0,
            pump_vids: Vec::new(),
            pump_srcs: Vec::new(),
            bytes_copied: 0,
            copies_completed: 0,
            drift_bytes_copied: 0,
            drift_copies_completed: 0,
            deficit_videos: 0,
            unavailable_videos: 0,
            weight: vec![0.0; m],
            deficit_weight: 0.0,
            coded_reconstructions: 0,
            coded_bytes_read: 0,
            last_update_min: 0.0,
            deficit_min: 0.0,
            deficit_video_min: 0.0,
            unavailability_video_min: 0.0,
        }
    }

    /// Current servable holders of `video` (dispatch order). Identical to
    /// the bound layout until a copy completes or a replica is retired.
    #[inline]
    pub fn holders(&self, video: VideoId) -> &[ServerId] {
        &self.holders[video.index()]
    }

    /// The whole live content map, indexed by video (dispatch order per
    /// entry) — what the placement auditor checks anti-affinity against.
    pub fn holders_all(&self) -> &[Vec<ServerId>] {
        &self.holders
    }

    /// Coded fragment reconstructions completed.
    pub fn coded_reconstructions(&self) -> u64 {
        self.coded_reconstructions
    }

    /// Bytes read from surviving fragments by completed reconstructions —
    /// `k ×` the fragment bytes written, the repair-read amplification.
    pub fn coded_bytes_read(&self) -> u64 {
        self.coded_bytes_read
    }

    /// Number of servers in the bound cluster.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// The current replication target of video `v`.
    pub fn target(&self, v: usize) -> u32 {
        self.targets[v]
    }

    /// Total replica slots the current targets claim — what the
    /// controller subtracts from [`Self::slot_budget`] to know how many
    /// raises it can fund without demoting anyone.
    pub fn target_slots(&self) -> u64 {
        self.target_slots
    }

    /// Whether any server is currently down (failure repair may be
    /// claiming the copy-bandwidth budget).
    pub fn any_down(&self) -> bool {
        self.down_count > 0
    }

    /// In-flight copies attributed to failure repair.
    pub fn repair_copies_in_flight(&self) -> usize {
        self.copies.repair
    }

    /// Cluster-wide replica-slot budget: how many replicas of the
    /// *largest* video the cluster's total storage can hold. The online
    /// controller apportions targets under this Eq. 4 budget; per-server
    /// feasibility is enforced again at copy-start time.
    pub fn slot_budget(&self) -> u64 {
        self.slot_budget
    }

    /// Bytes successfully copied on behalf of the online controller.
    pub fn drift_bytes_copied(&self) -> u64 {
        self.drift_bytes_copied
    }

    /// Copies completed on behalf of the online controller.
    pub fn drift_copies_completed(&self) -> u64 {
        self.drift_copies_completed
    }

    /// Advances the metric integrals to `now_min`.
    fn integrate(&mut self, now_min: f64) {
        let dt = (now_min - self.last_update_min).max(0.0);
        if self.deficit_videos > 0 {
            self.deficit_min += dt;
        }
        self.deficit_video_min += dt * self.deficit_weight;
        self.unavailability_video_min += dt * self.unavailable_videos as f64;
        self.last_update_min = now_min;
    }

    /// Recomputes video `v`'s fractional deficit weight after an alive-
    /// or target-count change. A replicated video weighs exactly 0.0 or
    /// 1.0 (so all-replicated runs integrate the same f64 sequence as
    /// the pre-coded integer counter); a coded video that lost `j` of
    /// its `m = target - k` parity fragments weighs `j / m`, clamping to
    /// 1 once losses dip into data fragments.
    fn refresh_weight(&mut self, v: usize) {
        let (target, alive, min_live) = (self.targets[v], self.alive[v], self.min_live[v]);
        let w = if min_live > 1 {
            let margin = target.saturating_sub(min_live).max(1);
            let lost = target.saturating_sub(alive);
            (lost as f64 / margin as f64).min(1.0)
        } else if alive < target {
            1.0
        } else {
            0.0
        };
        self.deficit_weight += w - self.weight[v];
        self.weight[v] = w;
    }

    /// Applies an alive-count delta, maintaining the deficit and
    /// unavailability counters (call [`Self::integrate`] first).
    fn bump_alive(&mut self, v: usize, delta: i64) {
        let before = self.alive[v];
        let after = (before as i64 + delta) as u32;
        self.alive[v] = after;
        let target = self.targets[v];
        match (before < target, after < target) {
            (false, true) => self.deficit_videos += 1,
            (true, false) => self.deficit_videos -= 1,
            _ => {}
        }
        // A coded video is unavailable below `k` live fragments; a
        // replicated one below its single-copy floor (the old `== 0`).
        let min_live = self.min_live[v];
        match (before < min_live, after < min_live) {
            (false, true) => self.unavailable_videos += 1,
            (true, false) => self.unavailable_videos -= 1,
            _ => {}
        }
        self.refresh_weight(v);
    }

    /// Moves video `v`'s replication target to `target`, keeping the
    /// deficit integral consistent. The caller is responsible for
    /// queueing a fill ([`Self::request_fill`]) after a raise and for
    /// retiring surplus ([`Self::retire_to_target`]) after a lowering.
    pub fn set_target(&mut self, now_min: f64, v: usize, target: u32) {
        self.integrate(now_min);
        let old = self.targets[v];
        if old == target {
            return;
        }
        let alive = self.alive[v];
        match (alive < old, alive < target) {
            (false, true) => self.deficit_videos += 1,
            (true, false) => self.deficit_videos -= 1,
            _ => {}
        }
        self.targets[v] = target;
        self.target_slots = self.target_slots - old as u64 + target as u64;
        self.refresh_weight(v);
    }

    /// Marks video `v` as possibly needing copies; the next
    /// [`Self::pump`] re-checks its deficit.
    pub fn request_fill(&mut self, v: usize) {
        self.pending.insert(v as u32);
    }

    /// Server-down hook. Call *after* [`LinkState::fail`]: updates alive
    /// counts, aborts copies touching the dead server (their partial data
    /// is discarded, their reservations released, the videos re-queued),
    /// re-plans destinations, and pumps.
    pub fn on_failure(
        &mut self,
        at: SimTime,
        server: ServerId,
        weights: &[u64],
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.integrate(at.as_min());
        if self.up[server.index()] {
            self.up[server.index()] = false;
            self.down_count += 1;
        }
        let keys: Vec<CopyKey> = self.copies.touching(server).collect();
        for key in keys {
            if let Some(c) = self.copies.remove(key) {
                // `release_repair` is a no-op on the endpoint that just
                // failed (its reservations were cleared by `fail()`).
                self.abort(c, links, dispatcher);
            }
        }
        for i in 0..self.held[server.index()].len() {
            let v = self.held[server.index()][i] as usize;
            self.bump_alive(v, -1);
            if self.alive[v] < self.targets[v] {
                self.pending.insert(v as u32);
            }
        }
        self.replan(weights);
        self.pump(at, links, dispatcher);
    }

    /// Server-up hook. Call *after* [`LinkState::recover`]: the server's
    /// stored replicas become servable again, and its fresh link may
    /// unblock stalled copies. Videos its return pushes *above* target
    /// shed their surplus — in-flight copies are aborted and servable
    /// extras retired — so spare storage and copy bandwidth recycle
    /// toward the next deficit instead of accreting forever.
    pub fn on_recovery(
        &mut self,
        at: SimTime,
        server: ServerId,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.integrate(at.as_min());
        if !self.up[server.index()] {
            self.up[server.index()] = true;
            self.down_count -= 1;
        }
        for i in 0..self.held[server.index()].len() {
            let v = self.held[server.index()][i] as usize;
            self.bump_alive(v, 1);
        }
        let (alive, targets) = (&self.alive, &self.targets);
        let done = self
            .copies
            .take_where(|c| alive[c.video.index()] >= targets[c.video.index()]);
        for c in done {
            self.discard(&c, links, dispatcher);
        }
        for v in 0..self.holders.len() {
            self.retire_surplus(v);
        }
        self.pump(at, links, dispatcher);
    }

    /// Retires servable copies of `v` beyond its current target and
    /// returns how many were removed. Only copies past the target-sized
    /// prefix of the holder list are eligible, so under a stationary
    /// target only repair-added copies are ever retired; when the online
    /// controller *lowers* a target the prefix shrinks with it and
    /// original-layout replicas of the cooled video become retirable
    /// too. Freed storage becomes available to future copies.
    fn retire_surplus(&mut self, v: usize) -> u32 {
        let prefix = self.targets[v] as usize;
        let mut retired = 0;
        while self.alive[v] > self.targets[v] {
            let Some(pos) =
                (prefix..self.holders[v].len()).find(|&i| self.up[self.holders[v][i].index()])
            else {
                break;
            };
            let s = self.holders[v].remove(pos);
            let held = &mut self.held[s.index()];
            if let Ok(i) = held.binary_search(&(v as u32)) {
                held.remove(i);
            }
            self.set_used_bytes(s.index(), self.used_bytes[s.index()] - self.video_bytes[v]);
            self.bump_alive(v, -1);
            retired += 1;
        }
        retired
    }

    /// Public face of [`Self::retire_surplus`] for the online
    /// controller: call after lowering a target with
    /// [`Self::set_target`]. Returns the number of replicas retired.
    pub fn retire_to_target(&mut self, v: usize) -> u32 {
        self.retire_surplus(v)
    }

    /// Releases every reservation an aborted or completed copy holds:
    /// repair bandwidth on the source, the destination, and — for a
    /// coded reconstruction — each extra read source, plus any backbone
    /// charge.
    fn release_copy(c: &ActiveCopy, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        links.release_repair(c.src, c.kbps);
        for &s in &c.extra_srcs {
            links.release_repair(s, c.kbps);
        }
        links.release_repair(c.dst, c.kbps);
        if c.backbone_kbps > 0 {
            dispatcher.release_backbone(c.backbone_kbps);
        }
    }

    /// Drops an in-flight copy: releases its reservations (bandwidth
    /// and the destination's storage).
    fn discard(&mut self, c: &ActiveCopy, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        Self::release_copy(c, links, dispatcher);
        let j = c.dst.index();
        self.set_used_bytes(j, self.used_bytes[j] - c.bytes);
        self.in_flight[c.video.index()] -= 1;
    }

    /// Drops an aborted copy and re-queues its video.
    fn abort(&mut self, c: ActiveCopy, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        self.discard(&c, links, dispatcher);
        self.pending.insert(c.video.0);
    }

    /// Sets server `j`'s stored bytes, keeping `roomy` in step.
    fn set_used_bytes(&mut self, j: usize, used: u64) {
        let s = ServerId(j as u32);
        self.roomy.remove(&(self.used_bytes[j], s));
        self.used_bytes[j] = used;
        if used.saturating_add(self.min_bytes) <= self.capacity_bytes[j] {
            self.roomy.insert((used, s));
        }
    }

    /// Recomputes planned destinations for new copies with incremental
    /// smallest-load-first placement: previous = the full content map,
    /// down servers get zero slot capacity (their replicas are re-placed
    /// on survivors), and per-video weights are the caller's demand
    /// estimate (+1 so cold titles still place). When the placement has
    /// no solution the plan stays empty and the pump falls back to a
    /// greedy choice.
    ///
    /// Only the videos short of their count do any work. The result is
    /// the one `IncrementalPlacement::place` computes over the whole map
    /// (the tests check this on random states), because its keep phase
    /// keeps every up holder — held slots never exceed a server's slot
    /// capacity — and the integer weights make every load sum exact in
    /// any order. Swap repair reads the server → videos index.
    pub fn replan(&mut self, weights: &[u64]) {
        for p in &mut self.planned {
            p.clear();
        }
        if !self.config.enabled() {
            return;
        }
        let mut p = std::mem::take(&mut self.plan);
        if !self.place_short(&mut p, weights) {
            for p in &mut self.planned {
                p.clear();
            }
        }
        self.plan = p;
    }

    /// The body of [`Self::replan`]; false when the placement has no
    /// solution.
    fn place_short(&mut self, p: &mut PlanScratch, weights: &[u64]) -> bool {
        let n = self.n_servers;
        let weight = |v: usize| u128::from(weights.get(v).copied().unwrap_or(0)) + 1;
        // Each video's count is its target, or more while it still
        // lists holders beyond it; videos with fewer up holders are
        // short.
        p.short.clear();
        let mut total_count = 0u128;
        for v in 0..self.holders.len() {
            let count = self.targets[v].max(self.holders[v].len() as u32);
            if count == 0 || count as usize > n {
                return false;
            }
            total_count += u128::from(count);
            if self.alive[v] < count {
                p.short.push(v as u32);
            }
        }
        p.cap.clear();
        p.used.clear();
        p.load.clear();
        for j in 0..n {
            if !self.up[j] {
                p.cap.push(0);
                p.used.push(0);
                p.load.push(0);
                continue;
            }
            let held = &self.held[j];
            let cap = if self.uniform {
                self.capacity_bytes[j] / self.slot_bytes
            } else {
                let bytes: u64 = held.iter().map(|&u| self.video_bytes[u as usize]).sum();
                held.len() as u64 + self.capacity_bytes[j].saturating_sub(bytes) / self.slot_bytes
            };
            debug_assert!(
                held.len() as u64 <= cap,
                "server {j} holds more than it fits"
            );
            p.cap.push(cap);
            p.used.push(held.len() as u64);
            p.load.push(held.iter().map(|&u| weight(u as usize)).sum());
        }
        if total_count > p.cap.iter().map(|&c| u128::from(c)).sum() {
            return false;
        }
        // Heaviest first, ties to the lower id.
        p.short
            .sort_unstable_by_key(|&v| (Reverse(weight(v as usize)), v));
        p.moved.clear();
        p.gained.resize_with(n, Vec::new);
        p.gained.iter_mut().for_each(Vec::clear);
        p.mark.clear();
        p.mark.resize(n, false);
        p.free.clear();
        p.free.extend(
            (0..n)
                .filter(|&j| p.used[j] < p.cap[j])
                .map(|j| (p.load[j], j as u32)),
        );
        for i in 0..p.short.len() {
            let v = p.short[i] as usize;
            for k in 0..self.holders[v].len() {
                let s = self.holders[v][k];
                p.mark[s.index()] = self.assigned(p, v, s);
            }
            for &s in &self.planned[v] {
                p.mark[s.index()] = true;
            }
            let count = self.targets[v].max(self.holders[v].len() as u32);
            for _ in self.alive[v]..count {
                // The least-loaded free server not holding `v` (ties to
                // the lower id).
                let best = p
                    .free
                    .iter()
                    .map(|&(_, j)| j as usize)
                    .find(|&j| !p.mark[j]);
                let Some(j) = best.or_else(|| self.swap_repair(p, v, &weight)) else {
                    return false;
                };
                self.plan_onto(p, v, j);
                p.mark[j] = true;
                p.fill(j, weight(v));
            }
            for &s in self.holders[v].iter().chain(&self.planned[v]) {
                p.mark[s.index()] = false;
            }
        }
        // Planned entries that are already holders (a kept replica
        // swapped away and placed back) need no copy.
        for (planned, holders) in self.planned.iter_mut().zip(&self.holders) {
            planned.retain(|s| !holders.contains(s));
        }
        true
    }

    /// Whether the placement being computed assigns video `u` to `s`.
    fn assigned(&self, p: &PlanScratch, u: usize, s: ServerId) -> bool {
        (self.up[s.index()] && self.holders[u].contains(&s) && !p.moved.contains(&(u as u32, s)))
            || self.planned[u].contains(&s)
    }

    /// Appends `j` to `v`'s planned destinations.
    fn plan_onto(&mut self, p: &mut PlanScratch, v: usize, j: usize) {
        self.planned[v].push(ServerId(j as u32));
        p.gained[j].push(v as u32);
    }

    /// Swap repair for the exact-fill dead end of placing `v` (every
    /// free slot sits on a server already assigned `v`): moves the
    /// lowest-id video `u` assigned to some server `l` not holding `v`
    /// onto a free server `k` not holding `u`, scanning `k` then `l` in
    /// ascending order, and returns `l`. The server's videos come from
    /// the `held` index plus this replan's additions.
    fn swap_repair(
        &mut self,
        p: &mut PlanScratch,
        v: usize,
        weight: &impl Fn(usize) -> u128,
    ) -> Option<usize> {
        let n = self.n_servers;
        for k in 0..n {
            if p.used[k] >= p.cap[k] {
                continue;
            }
            let k_id = ServerId(k as u32);
            for l in 0..n {
                if l == k || !self.up[l] || p.mark[l] {
                    continue;
                }
                let l_id = ServerId(l as u32);
                let movable = |u: &u32| *u as usize != v && !self.assigned(p, *u as usize, k_id);
                let kept = self.held[l]
                    .iter()
                    .find(|&u| movable(u) && !p.moved.contains(&(*u, l_id)));
                let placed = p.gained[l]
                    .iter()
                    .filter(|&u| movable(u) && self.planned[*u as usize].contains(&l_id))
                    .min();
                let Some(u) = kept.into_iter().chain(placed).min().map(|&u| u as usize) else {
                    continue;
                };
                match self.planned[u].iter().position(|&s| s == l_id) {
                    Some(pos) => {
                        self.planned[u].remove(pos);
                    }
                    None => p.moved.push((u as u32, l_id)),
                }
                self.plan_onto(p, u, k);
                p.vacate(l, weight(u));
                p.fill(k, weight(u));
                return Some(l);
            }
        }
        None
    }

    /// True when `dst` can receive a new replica of video `v` right now.
    /// The cheap array checks run first; the index lookups last — the
    /// holder test searches `dst`'s sorted `held` list, not a hot video's
    /// long holder list.
    fn dst_ok(&self, v: usize, dst: ServerId, bw: u64, links: &LinkState) -> bool {
        let j = dst.index();
        self.up[j]
            && self.used_bytes[j] + self.video_bytes[v] <= self.capacity_bytes[j]
            && links.free_kbps(dst) >= bw
            && self.held[j].binary_search(&(v as u32)).is_err()
            && !self.copies.heads_to(VideoId(v as u32), dst)
    }

    /// Destination for the next copy of `v`: the incremental plan's pick
    /// when still valid, else greedily the least-full (by stored bytes,
    /// ties to the lower id) eligible server. Servers missing from
    /// `roomy` cannot fit even the smallest video.
    fn choose_dst(&self, v: usize, bw: u64, links: &LinkState) -> Option<ServerId> {
        if let Some(&dst) = self.planned[v]
            .iter()
            .find(|&&d| self.dst_ok(v, d, bw, links))
        {
            return Some(dst);
        }
        self.roomy
            .iter()
            .map(|&(_, d)| d)
            .find(|&d| self.dst_ok(v, d, bw, links))
    }

    /// Copies video `v` still needs: its target less its alive and
    /// in-flight replicas (≤ 0 when none).
    fn need(&self, v: usize) -> i64 {
        i64::from(self.targets[v]) - i64::from(self.alive[v]) - i64::from(self.in_flight[v])
    }

    /// Starts as many pending copies as bandwidth, storage and the
    /// concurrency cap allow. Deterministic: videos in ascending id
    /// order, sources by most free link (ties to the lowest id). A copy
    /// restoring a video to (at most) its original layout degree is
    /// attributed to failure repair; one growing it past that baseline
    /// to the online controller.
    pub fn pump(&mut self, now: SimTime, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        if !self.config.enabled() || self.pending.is_empty() {
            return;
        }
        let bw = self.config.bandwidth_kbps;
        let max_concurrent = self.config.max_concurrent;
        let mut vids = std::mem::take(&mut self.pump_vids);
        let mut srcs = std::mem::take(&mut self.pump_srcs);
        vids.clear();
        vids.extend(self.pending.iter().copied());
        if self.any_coded {
            // Most-urgent-first: the stripe with the fewest surviving
            // fragments above its serviceability floor repairs first
            // (ties to the lowest video id). All-replicated runs keep the
            // plain ascending order, byte for byte.
            vids.sort_by_key(|&vid| {
                let v = vid as usize;
                (self.alive[v] as i64 - self.min_live[v] as i64, vid)
            });
        }
        'videos: for &vid in &vids {
            if self.copies.len() >= max_concurrent {
                break;
            }
            let v = vid as usize;
            let need = self.need(v);
            if need <= 0 {
                self.pending.remove(&vid);
                continue;
            }
            for _ in 0..need {
                if self.copies.len() >= max_concurrent {
                    break 'videos;
                }
                // A coded reconstruction reads `k` surviving fragments at
                // once; a replicated copy reads a single source. Sources
                // are the holders with the most free link that fits the
                // copy, ties to the lowest id, picked one at a time.
                let fan_in = self.min_live[v] as usize;
                srcs.clear();
                while srcs.len() < fan_in {
                    let rest = self.holders[v].iter().copied();
                    let Some(s) = links.most_free(rest.filter(|s| !srcs.contains(s)), bw) else {
                        break;
                    };
                    srcs.push(s);
                }
                if srcs.len() < fan_in {
                    // Fewer than `k` servable fragments: reconstruction
                    // is impossible until a holder recovers.
                    break;
                }
                let src = srcs[0];
                let extra_srcs: Vec<ServerId> = srcs[1..fan_in].to_vec();
                let Some(dst) = self.choose_dst(v, bw, links) else {
                    break;
                };
                // Under a backbone policy the inter-server copy transits
                // the backbone; elsewhere it is charged nowhere extra.
                let Some(backbone_kbps) = dispatcher.try_reserve_repair_backbone(bw) else {
                    // Backbone saturated: nothing else can start either.
                    break 'videos;
                };
                // Cause-based attribution: the copy is failure *repair*
                // only when this video currently has a failed holder —
                // that is the only way a replica is ever lost. Anything
                // else (a controller raise, a demote-then-repromote
                // refill) is drift rebalancing. With the controller off,
                // targets equal the layout's degrees and a deficit
                // implies a down holder, so every copy stays Repair —
                // the pre-controller accounting, byte for byte.
                let has_down_holder = self.holders[v].iter().any(|&s| !self.up[s.index()]);
                let purpose = if has_down_holder && self.alive[v] < self.targets[v] {
                    CopyPurpose::Repair
                } else {
                    CopyPurpose::Rebalance
                };
                links.reserve_repair(src, bw);
                for &s in &extra_srcs {
                    links.reserve_repair(s, bw);
                }
                links.reserve_repair(dst, bw);
                let j = dst.index();
                self.set_used_bytes(j, self.used_bytes[j] + self.video_bytes[v]);
                self.in_flight[v] += 1;
                let dur_ms = (self.video_bytes[v].saturating_mul(8)).div_ceil(bw).max(1);
                self.copies.insert(ActiveCopy {
                    video: VideoId(vid),
                    src,
                    dst,
                    kbps: bw,
                    bytes: self.video_bytes[v],
                    backbone_kbps,
                    done_at: now + SimTime(dur_ms),
                    seq: self.seq,
                    purpose,
                    extra_srcs,
                });
                self.seq += 1;
            }
        }
        self.pump_vids = vids;
        self.pump_srcs = srcs;
    }

    /// The earliest in-flight copy completion, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.copies.first_key().map(|(at, _)| at)
    }

    /// Completes the earliest due copy: releases its bandwidth, makes the
    /// replica servable, and updates redundancy accounting. Errors when
    /// no copy is in flight (the engine only calls this when
    /// [`Self::next_completion`] reported one).
    pub fn complete_next(
        &mut self,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) -> Result<(), ModelError> {
        let c = self
            .copies
            .first_key()
            .and_then(|key| self.copies.remove(key))
            .ok_or(ModelError::Internal {
                context: "complete_next called with no in-flight copies",
            })?;
        Self::release_copy(&c, links, dispatcher);
        self.integrate(c.done_at.as_min());
        // The reservation made at copy start now backs a real replica.
        let v = c.video.index();
        self.holders[v].push(c.dst);
        let held = &mut self.held[c.dst.index()];
        if let Err(i) = held.binary_search(&c.video.0) {
            held.insert(i, c.video.0);
        }
        self.in_flight[v] -= 1;
        self.bump_alive(v, 1);
        let fan_in = self.min_live[v] as u64;
        if fan_in > 1 {
            // Rebuilding the fragment read `k` surviving fragments for
            // the fragment it wrote: the k× repair-read amplification.
            self.coded_reconstructions += 1;
            self.coded_bytes_read += c.bytes * fan_in;
        }
        match c.purpose {
            CopyPurpose::Repair => {
                self.bytes_copied += c.bytes;
                self.copies_completed += 1;
            }
            CopyPurpose::Rebalance => {
                self.drift_bytes_copied += c.bytes;
                self.drift_copies_completed += 1;
            }
        }
        // A recovery may have raced this copy past its target.
        self.retire_surplus(v);
        self.pump(c.done_at, links, dispatcher);
        Ok(())
    }

    /// Brownout hook: while `server` is committed beyond its shrunken
    /// effective capacity, abort copies touching it — farthest-from-done
    /// first, so the least sunk work is discarded. Aborted videos
    /// re-queue and re-pump once capacity returns. The engine sheds
    /// active streams only for the excess that remains.
    pub fn on_brownout(
        &mut self,
        at: SimTime,
        server: ServerId,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.integrate(at.as_min());
        let j = server.index();
        while links.used_kbps()[j] + links.repair_kbps()[j] > links.effective_capacity_kbps(server)
        {
            let latest = self.copies.touching(server).next_back();
            let Some(c) = latest.and_then(|key| self.copies.remove(key)) else {
                break;
            };
            self.abort(c, links, dispatcher);
        }
    }

    /// End of run: aborts in-flight copies (releasing every reservation,
    /// so the engine's zero-residual asserts hold) and closes the metric
    /// integrals at the horizon.
    pub fn finish(&mut self, horizon_min: f64, links: &mut LinkState, dispatcher: &mut Dispatcher) {
        self.integrate(horizon_min.max(self.last_update_min));
        for c in std::mem::take(&mut self.copies).by_done.into_values() {
            self.abort(c, links, dispatcher);
        }
    }

    /// Bytes of replica data successfully copied by failure repair.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Failure-repair copies completed (replicas added).
    pub fn copies_completed(&self) -> u64 {
        self.copies_completed
    }

    /// Minutes during which at least one video was below its replication
    /// target — the time to full redundancy, summed over every deficit
    /// window of the run. Under popularity-skewed replication this union
    /// is pinned by the single-replica cold tail (unrepairable while
    /// their server is down); [`Self::deficit_video_min`] is the
    /// discriminating integral. With the online controller active the
    /// integral also covers windows opened by *raised* targets awaiting
    /// their copies.
    pub fn deficit_min(&self) -> f64 {
        self.deficit_min
    }

    /// Video·minutes below replication target — the replica-deficit
    /// integral copying actually drains (each completed copy removes one
    /// video from the deficit for the remainder of the window).
    pub fn deficit_video_min(&self) -> f64 {
        self.deficit_video_min
    }

    /// Video·minutes with zero servable replicas.
    pub fn unavailability_video_min(&self) -> f64 {
        self.unavailability_video_min
    }

    /// Test/debug invariant: per-server stored bytes (including in-flight
    /// reservations) within capacity, no video with two replicas on one
    /// server, and every index in step with what it indexes.
    #[cfg(test)]
    pub fn check_invariants(&self) {
        for j in 0..self.n_servers {
            assert!(
                self.used_bytes[j] <= self.capacity_bytes[j],
                "server {j} over storage: {} > {}",
                self.used_bytes[j],
                self.capacity_bytes[j]
            );
        }
        let down = self.up.iter().filter(|&&up| !up).count() as u32;
        assert_eq!(down, self.down_count, "down_count out of sync");
        let mut held = vec![Vec::new(); self.n_servers];
        for (v, servers) in self.holders.iter().enumerate() {
            // Retirement stops at the target (at least 1), so no video
            // ever loses its last holder; the replan relies on it.
            assert!(!servers.is_empty(), "video {v} has no holder");
            let alive_holders = servers.iter().filter(|s| self.up[s.index()]).count() as u32;
            assert_eq!(
                alive_holders, self.alive[v],
                "video {v}: alive count {} disagrees with up holders {alive_holders}",
                self.alive[v]
            );
            for (i, &s) in servers.iter().enumerate() {
                assert!(
                    !servers[..i].contains(&s),
                    "video {v} has two replicas on server {}",
                    s.index()
                );
                held[s.index()].push(v as u32);
            }
        }
        assert_eq!(held, self.held, "server -> videos index out of sync");
        let roomy: BTreeSet<(u64, ServerId)> = (0..self.n_servers)
            .filter(|&j| {
                self.used_bytes[j].saturating_add(self.min_bytes) <= self.capacity_bytes[j]
            })
            .map(|j| (self.used_bytes[j], ServerId(j as u32)))
            .collect();
        assert_eq!(roomy, self.roomy, "roomy server index out of sync");
        assert_eq!(
            self.target_slots,
            self.targets.iter().map(|&t| t as u64).sum::<u64>(),
            "target_slots out of sync"
        );
        let mut per_video = vec![0u32; self.holders.len()];
        let mut dsts = BTreeSet::new();
        let mut ends = BTreeSet::new();
        for (&key, c) in &self.copies.by_done {
            assert_eq!(key, c.key(), "copy filed under a stale key");
            let v = c.video.index();
            assert!(
                !self.holders[v].contains(&c.dst),
                "in-flight copy of video {v} targets a holder"
            );
            per_video[v] += 1;
            dsts.insert((c.video, c.dst));
            ends.extend(c.endpoints().map(|s| (s, key)));
            // A coded reconstruction carries exactly k - 1 extra read
            // sources, all distinct from each other and from src/dst.
            let fan_in = self.min_live[v] as usize;
            assert_eq!(
                c.extra_srcs.len(),
                fan_in.saturating_sub(1),
                "video {v}: reconstruction fan-in mismatch"
            );
            let mut all: Vec<ServerId> = c.endpoints().collect();
            all.sort();
            for w in all.windows(2) {
                assert_ne!(w[0], w[1], "video {v}: duplicate copy endpoint");
            }
        }
        assert_eq!(per_video, self.in_flight, "in-flight counters out of sync");
        for v in 0..self.holders.len() {
            assert!(
                self.need(v) <= 0 || self.pending.contains(&(v as u32)),
                "video {v} needs {} copies but is not pending",
                self.need(v)
            );
        }
        assert_eq!(dsts, self.copies.dsts, "copy destination index out of sync");
        assert_eq!(ends, self.copies.ends, "copy endpoint index out of sync");
        let repair = self
            .copies
            .iter()
            .filter(|c| c.purpose == CopyPurpose::Repair)
            .count();
        assert_eq!(repair, self.copies.repair, "repair copy count out of sync");
        let fresh: f64 = self.weight.iter().sum();
        assert!(
            (self.deficit_weight - fresh).abs() < 1e-9,
            "deficit weight {} drifted from per-video sum {fresh}",
            self.deficit_weight
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vod_model::redundancy::{RedundancyMap, RedundancyScheme};
    use vod_model::{BitRate, ServerSpec};
    use vod_placement::place_coded;

    fn world(
        n: usize,
        m: usize,
        degree: usize,
        storage_slots: u64,
    ) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(m, BitRate::MPEG2, 600).unwrap();
        let bytes = catalog.videos()[0].storage_bytes();
        let cluster = ClusterSpec::homogeneous(
            n,
            ServerSpec {
                storage_bytes: storage_slots * bytes,
                bandwidth_kbps: 100_000,
            },
        )
        .unwrap();
        // Round-robin degree-`degree` layout.
        let assignments: Vec<Vec<ServerId>> = (0..m)
            .map(|v| {
                (0..degree)
                    .map(|r| ServerId(((v * degree + r) % n) as u32))
                    .collect()
            })
            .collect();
        let layout = Layout::new(n, assignments).unwrap();
        (catalog, cluster, layout)
    }

    fn enabled(bandwidth_kbps: u64) -> RepairConfig {
        RepairConfig {
            bandwidth_kbps,
            max_concurrent: 4,
        }
    }

    /// A uniformly `Coded { k, m }` world: fragments are `⌈bytes/k⌉`
    /// each, placed by [`place_coded`].
    fn coded_world(
        n: usize,
        m_videos: usize,
        k: u32,
        par: u32,
        storage_slots: u64,
    ) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(m_videos, BitRate::MPEG2, 600).unwrap();
        let frag = catalog.videos()[0].storage_bytes().div_ceil(k as u64);
        let cluster = ClusterSpec::homogeneous(
            n,
            ServerSpec {
                storage_bytes: storage_slots * frag,
                bandwidth_kbps: 100_000,
            },
        )
        .unwrap();
        let map = RedundancyMap::uniform(m_videos, RedundancyScheme::Coded { k, m: par }).unwrap();
        let layout = place_coded(n, &map).unwrap();
        (catalog, cluster, layout)
    }

    #[test]
    fn failure_queues_and_repairs_deficit() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(c.next_completion().is_some(), "copies must start");
        assert!(links.repair_kbps().iter().any(|&k| k > 0));
        // Complete every copy; redundancy must be fully restored.
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
            c.check_invariants();
        }
        for v in 0..8 {
            assert!(
                c.alive[v] >= c.targets[v],
                "video {v}: alive {} < target {}",
                c.alive[v],
                c.targets[v]
            );
        }
        assert_eq!(c.deficit_videos, 0);
        assert!(c.bytes_copied() > 0);
        // Failure rebuilds restore baseline redundancy: Repair purpose.
        assert_eq!(c.drift_bytes_copied(), 0);
        assert_eq!(c.drift_copies_completed(), 0);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
    }

    #[test]
    fn disabled_repair_never_copies() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, RepairConfig::default());
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        assert!(c.next_completion().is_none());
        assert!(c.deficit_videos > 0);
        // The deficit integral still accrues without repair.
        c.finish(90.0, &mut links, &mut disp);
        assert!(c.deficit_min() > 0.0);
    }

    #[test]
    fn no_alive_source_stalls_until_recovery() {
        // Degree 1: the failed server held the only copy of its videos.
        let (catalog, cluster, layout) = world(2, 4, 1, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 4);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(5.0),
            ServerId(0),
            &[0; 4],
            &mut links,
            &mut disp,
        );
        // Videos on s0 have zero alive replicas and no source: no copy.
        assert!(c.next_completion().is_none());
        assert!(c.unavailable_videos > 0);
        assert!(c.any_down());
        links.recover(ServerId(0));
        c.on_recovery(SimTime::from_min(25.0), ServerId(0), &mut links, &mut disp);
        assert_eq!(c.unavailable_videos, 0);
        assert_eq!(c.deficit_videos, 0);
        assert!(!c.any_down());
        c.finish(90.0, &mut links, &mut disp);
        // 20 minutes, 2 videos were on s0 (m=4 over 2 servers at degree 1).
        assert!((c.unavailability_video_min() - 40.0).abs() < 1e-6);
        assert!((c.deficit_min() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn storage_reservation_blocks_oversubscription() {
        // Survivor has exactly one free slot: only one of the two lost
        // replicas can be rebuilt.
        let catalog = Catalog::fixed_rate(3, BitRate::MPEG2, 600).unwrap();
        let bytes = catalog.videos()[0].storage_bytes();
        let cluster_tight = ClusterSpec::homogeneous(
            2,
            ServerSpec {
                storage_bytes: 2 * bytes,
                bandwidth_kbps: 100_000,
            },
        )
        .unwrap();
        let layout = Layout::new(
            2,
            vec![vec![ServerId(0)], vec![ServerId(0)], vec![ServerId(1)]],
        )
        .unwrap();
        let mut links = LinkState::new(&cluster_tight);
        let mut disp = Dispatcher::new(Default::default(), 3);
        let mut c = ReplicaActuator::new(&catalog, &cluster_tight, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(1.0),
            ServerId(0),
            &[0; 3],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        // Both lost videos have no alive source (degree 1) — no copies.
        assert_eq!(c.copies.len(), 0);
    }

    #[test]
    fn recovery_retires_repair_added_surplus() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        let used_before = c.used_bytes.clone();
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
        }
        assert!(c.bytes_copied() > 0);
        // The rebuilt copies occupy extra storage while s0 is down...
        assert!(c.used_bytes.iter().sum::<u64>() > used_before.iter().sum::<u64>());
        links.recover(ServerId(0));
        c.on_recovery(SimTime::from_min(30.0), ServerId(0), &mut links, &mut disp);
        c.check_invariants();
        // ...and are retired on its return: every video back at exactly
        // its target, all spare storage reclaimed.
        for v in 0..8 {
            assert_eq!(c.alive[v], c.targets[v]);
            assert_eq!(c.holders[v].len(), c.targets[v] as usize);
        }
        assert_eq!(c.used_bytes, used_before);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
    }

    #[test]
    fn recovery_aborts_unneeded_in_flight_copies() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        assert!(c.copies.len() > 0);
        assert!(c.repair_copies_in_flight() > 0);
        // The server comes back before any copy completes: every copy is
        // now pointless and must be aborted with its reservations freed.
        links.recover(ServerId(0));
        c.on_recovery(SimTime::from_min(10.5), ServerId(0), &mut links, &mut disp);
        c.check_invariants();
        assert!(c.copies.len() == 0);
        assert_eq!(c.bytes_copied(), 0);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
        assert_eq!(c.in_flight.iter().sum::<u32>(), 0);
    }

    #[test]
    fn repair_bandwidth_cap_limits_concurrency() {
        // Source link 100 Mbps, repair bw 60 Mbps: only one copy can read
        // from a given survivor at a time.
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(60_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        for j in 0..4 {
            assert!(links.repair_kbps()[j] <= 100_000);
        }
        assert!(links.within_capacity());
    }

    #[test]
    fn source_failure_aborts_and_requeues() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        links.fail(ServerId(0));
        c.on_failure(
            SimTime::from_min(10.0),
            ServerId(0),
            &[0; 8],
            &mut links,
            &mut disp,
        );
        let in_flight_before: u32 = c.in_flight.iter().sum();
        assert!(in_flight_before > 0);
        // Fail one of the copy endpoints.
        let victim = c.copies.iter().next().unwrap().src;
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(11.0),
            victim,
            &[0; 8],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(links.within_capacity());
        // No copy may still touch the dead server.
        assert!(c.copies.iter().all(|x| x.src != victim && x.dst != victim));
    }

    #[test]
    fn raised_target_fills_and_attributes_to_rebalance() {
        // m=4, degree 1 over n=4 with spare slots: raise v0's target to 3.
        let (catalog, cluster, layout) = world(4, 4, 1, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 4);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        c.set_target(5.0, 0, 3);
        assert_eq!(c.target(0), 3);
        assert_eq!(c.deficit_videos, 1);
        c.request_fill(0);
        c.replan(&[10, 0, 0, 0]);
        c.pump(SimTime::from_min(5.0), &mut links, &mut disp);
        c.check_invariants();
        assert_eq!(c.in_flight[0], 2);
        // Growth beyond the layout's baseline degree is Rebalance traffic.
        assert_eq!(c.repair_copies_in_flight(), 0);
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
            c.check_invariants();
        }
        assert_eq!(c.alive[0], 3);
        assert_eq!(c.deficit_videos, 0);
        assert_eq!(c.drift_copies_completed(), 2);
        assert!(c.drift_bytes_copied() > 0);
        assert_eq!(c.bytes_copied(), 0, "no Repair traffic in a drift fill");
    }

    #[test]
    fn lowered_target_retires_original_replicas() {
        // Degree 2; cool v0 down to a single replica.
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        let used_before: u64 = c.used_bytes.iter().sum();
        c.set_target(5.0, 0, 1);
        assert_eq!(c.retire_to_target(0), 1);
        c.check_invariants();
        assert_eq!(c.alive[0], 1);
        assert_eq!(c.holders[0].len(), 1);
        assert_eq!(c.deficit_videos, 0);
        let bytes = c.video_bytes[0];
        assert_eq!(c.used_bytes.iter().sum::<u64>(), used_before - bytes);
    }

    #[test]
    fn target_moves_keep_deficit_counter_consistent() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 8);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        // Raise two targets, lower one back before any copy: the counter
        // must track exactly the videos currently below target.
        c.set_target(1.0, 0, 4);
        c.set_target(1.0, 1, 3);
        assert_eq!(c.deficit_videos, 2);
        c.set_target(2.0, 0, 2);
        assert_eq!(c.deficit_videos, 1);
        c.set_target(3.0, 1, 2);
        assert_eq!(c.deficit_videos, 0);
        // Deficit integral accrued over [1.0, 3.0): >= 2 video·min.
        c.finish(10.0, &mut links, &mut disp);
        assert!(c.deficit_video_min() >= 2.0 - 1e-9);
        c.check_invariants();
    }

    #[test]
    fn slot_budget_counts_whole_cluster() {
        let (catalog, cluster, layout) = world(4, 8, 2, 8);
        let c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        // 4 servers x 8 slots each (uniform catalog).
        assert_eq!(c.slot_budget(), 32);
    }

    #[test]
    fn coded_failure_reconstructs_with_k_sources() {
        let (catalog, cluster, layout) = coded_world(6, 4, 2, 1, 8);
        let frag = catalog.videos()[0].storage_bytes().div_ceil(2);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 4);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        assert_eq!(c.video_bytes[0], frag, "coded videos store fragments");
        let victim = layout.replicas_of(VideoId(0))[0];
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(10.0),
            victim,
            &[0; 4],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(c.copies.len() > 0, "reconstruction must start");
        for copy in c.copies.iter() {
            // k = 2: one primary + one extra read source, both reserved.
            assert_eq!(copy.extra_srcs.len(), 1);
            assert!(links.repair_kbps()[copy.extra_srcs[0].index()] > 0);
        }
        while c.next_completion().is_some() {
            c.complete_next(&mut links, &mut disp).unwrap();
            c.check_invariants();
        }
        for v in 0..4 {
            assert!(c.alive[v] >= c.targets[v]);
        }
        let recon = c.coded_reconstructions();
        assert!(recon > 0);
        // Each reconstruction read k fragments for the one it wrote.
        assert_eq!(c.coded_bytes_read(), recon * 2 * frag);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
    }

    #[test]
    fn coded_repair_never_starts_below_k_survivors() {
        // One (2, 1) stripe over 3 of 4 servers.
        let (catalog, cluster, layout) = coded_world(4, 1, 2, 1, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 1);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        let holders: Vec<ServerId> = layout.replicas_of(VideoId(0)).to_vec();
        links.fail(holders[0]);
        c.on_failure(
            SimTime::from_min(1.0),
            holders[0],
            &[0; 1],
            &mut links,
            &mut disp,
        );
        // Two survivors = k: reconstruction runs.
        assert_eq!(c.copies.len(), 1);
        assert_eq!(c.unavailable_videos, 0);
        // Losing a second fragment drops below k: the in-flight
        // reconstruction (it read the dying server) aborts and no new
        // one may start — the stripe is unavailable until recovery.
        links.fail(holders[1]);
        c.on_failure(
            SimTime::from_min(2.0),
            holders[1],
            &[0; 1],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        assert!(c.copies.len() == 0, "no reconstruction below k survivors");
        assert_eq!(c.unavailable_videos, 1);
        assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
        c.finish(12.0, &mut links, &mut disp);
        // Unavailable over [2, 12): 10 video·min.
        assert!((c.unavailability_video_min() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn fractional_deficit_integrates_parity_margin() {
        // (2, 2): margin m = 2, so one lost fragment weighs 1/2.
        let (catalog, cluster, layout) = coded_world(6, 1, 2, 2, 8);
        let mut links = LinkState::new(&cluster);
        let mut disp = Dispatcher::new(Default::default(), 1);
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, RepairConfig::default());
        let victim = layout.replicas_of(VideoId(0))[0];
        links.fail(victim);
        c.on_failure(
            SimTime::from_min(10.0),
            victim,
            &[0; 1],
            &mut links,
            &mut disp,
        );
        c.check_invariants();
        c.finish(20.0, &mut links, &mut disp);
        // Half a video below target for 10 minutes.
        assert!((c.deficit_video_min() - 5.0).abs() < 1e-9);
        assert!((c.deficit_min() - 10.0).abs() < 1e-9);
        assert!((c.unavailability_video_min()).abs() < 1e-9);
    }

    /// The whole-map replan the deficit-only planner replaces: the
    /// actuator's books run through `IncrementalPlacement::place`. `None`
    /// when the placement has no solution.
    fn reference_layout(c: &ReplicaActuator, weights: &[u64]) -> Option<Layout> {
        use vod_model::ReplicationScheme;
        use vod_placement::traits::PlacementInput;
        use vod_placement::{IncrementalPlacement, PlacementPolicy};
        let (n, m) = (c.n_servers, c.holders.len());
        let counts: Vec<u32> = (0..m)
            .map(|v| c.targets[v].max(c.holders[v].len() as u32))
            .collect();
        let scheme = ReplicationScheme::new(counts).ok()?;
        let w: Vec<f64> = (0..m)
            .map(|v| weights.get(v).copied().unwrap_or(0) as f64 + 1.0)
            .collect();
        let mut held_slots = vec![0u64; n];
        let mut held_bytes = vec![0u64; n];
        for (v, servers) in c.holders.iter().enumerate() {
            for &s in servers {
                held_slots[s.index()] += 1;
                held_bytes[s.index()] += c.video_bytes[v];
            }
        }
        let uniform = c.video_bytes.windows(2).all(|w| w[0] == w[1]);
        let max_bytes = c.video_bytes.iter().copied().max().unwrap_or(1).max(1);
        let capacities: Vec<u64> = (0..n)
            .map(|j| {
                if !c.up[j] {
                    0
                } else if uniform {
                    c.capacity_bytes[j] / max_bytes
                } else {
                    held_slots[j] + c.capacity_bytes[j].saturating_sub(held_bytes[j]) / max_bytes
                }
            })
            .collect();
        let previous = Layout::new(n, c.holders.clone()).ok()?;
        let input = PlacementInput {
            scheme: &scheme,
            weights: &w,
            n_servers: n,
            capacities: &capacities,
        };
        IncrementalPlacement::from_previous(previous)
            .place(&input)
            .ok()
    }

    /// A random actuator state for the planner differential: 2–7
    /// servers, 1–20 videos of uniform or mixed sizes at degree 1–3,
    /// tight slot capacities (0–2 spare slots, so often exactly full),
    /// down servers whose holders stay listed, raised and lowered
    /// targets, and small integer weights full of ties.
    fn random_planner_state(seed: u64) -> (ReplicaActuator, Vec<u64>, Vec<u64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..=7);
        let m = rng.gen_range(1usize..=20);
        let mixed = rng.gen_bool(0.3);
        let rates: Vec<BitRate> = (0..m)
            .map(|_| {
                if mixed {
                    BitRate::LADDER[rng.gen_range(0..BitRate::LADDER.len())]
                } else {
                    BitRate::MPEG2
                }
            })
            .collect();
        let catalog = Catalog::with_rates(&rates, 600).unwrap();
        let bytes: Vec<u64> = catalog.videos().iter().map(|v| v.storage_bytes()).collect();
        let slot = bytes.iter().copied().max().unwrap();
        let mut held = vec![0u64; n];
        let assignments: Vec<Vec<ServerId>> = (0..m)
            .map(|v| {
                let degree = rng.gen_range(1..=n.min(3));
                let mut servers = Vec::new();
                while servers.len() < degree {
                    let s = ServerId(rng.gen_range(0..n as u32));
                    if !servers.contains(&s) {
                        held[s.index()] += bytes[v];
                        servers.push(s);
                    }
                }
                servers
            })
            .collect();
        let layout = Layout::new(n, assignments).unwrap();
        let servers: Vec<ServerSpec> = held
            .iter()
            .map(|&h| {
                let partial = if mixed { rng.gen_range(0..slot) } else { 0 };
                ServerSpec {
                    storage_bytes: h + rng.gen_range(0..=2u64) * slot + partial,
                    bandwidth_kbps: 100_000,
                }
            })
            .collect();
        let cluster = ClusterSpec::heterogeneous(servers).unwrap();
        let mut c = ReplicaActuator::new(&catalog, &cluster, &layout, enabled(50_000));
        for j in 0..n {
            if rng.gen_bool(0.15) {
                c.up[j] = false;
                c.down_count += 1;
                for i in 0..c.held[j].len() {
                    let v = c.held[j][i] as usize;
                    c.bump_alive(v, -1);
                }
            }
        }
        for v in 0..m {
            if rng.gen_bool(0.4) {
                let most = (c.holders[v].len() + 1).min(n) as u32;
                c.set_target(0.0, v, rng.gen_range(1..=most));
            }
            // As the failure hook and the controller do.
            if c.need(v) > 0 {
                c.request_fill(v);
            }
        }
        let mut weights = || (0..m).map(|_| rng.gen_range(0..4u64)).collect::<Vec<_>>();
        let (a, b) = (weights(), weights());
        (c, a, b)
    }

    /// What one checked replan exercised.
    #[derive(Default)]
    struct PlanCase {
        /// The reference found no plan.
        no_plan: bool,
        /// Swap repair moved a kept replica (some video lost an up
        /// holder, or got destinations without being short).
        swapped: bool,
        /// A replica swap repair moved away ended up back on its server
        /// (the reference then plans no copy there).
        put_back: bool,
    }

    /// Replans `seed`'s state under two weight vectors in turn and
    /// checks each plan against [`reference_layout`]'s new servers.
    fn planner_matches_reference(seed: u64) -> Vec<PlanCase> {
        let (mut c, a, b) = random_planner_state(seed);
        c.check_invariants();
        [a, b]
            .iter()
            .map(|weights| {
                let want = reference_layout(&c, weights);
                c.replan(weights);
                let Some(layout) = want else {
                    assert!(c.planned.iter().all(Vec::is_empty), "seed {seed}");
                    return PlanCase {
                        no_plan: true,
                        ..PlanCase::default()
                    };
                };
                let mut case = PlanCase::default();
                for (v, holders) in c.holders.iter().enumerate() {
                    let got = layout.replicas_of(VideoId(v as u32));
                    let new: Vec<ServerId> = got
                        .iter()
                        .copied()
                        .filter(|s| !holders.contains(s))
                        .collect();
                    assert_eq!(
                        c.planned[v], new,
                        "seed {seed}, video {v}, weights {weights:?}"
                    );
                    let short = c.alive[v] < got.len() as u32;
                    case.swapped |= holders.iter().any(|s| c.up[s.index()] && !got.contains(s))
                        || (!short && !new.is_empty());
                }
                case.put_back = c
                    .plan
                    .moved
                    .iter()
                    .any(|&(u, s)| layout.replicas_of(VideoId(u)).contains(&s));
                case.swapped |= case.put_back;
                case
            })
            .collect()
    }

    #[test]
    fn planner_differential_covers_swaps_and_missing_plans() {
        let cases: Vec<PlanCase> = (0..1000).flat_map(planner_matches_reference).collect();
        let swapped = cases.iter().filter(|c| c.swapped).count();
        let put_back = cases.iter().filter(|c| c.put_back).count();
        let no_plan = cases.iter().filter(|c| c.no_plan).count();
        assert!(swapped >= 100, "only {swapped} replans swapped");
        assert!(
            put_back >= 2,
            "only {put_back} replans put a moved replica back"
        );
        assert!(no_plan >= 300, "only {no_plan} replans had no plan");
        assert!(cases.len() - no_plan >= 800);
    }

    /// A book entry for the copy-book differential.
    fn book_copy(video: u32, src: u32, dst: u32, done_at: u64, seq: u64) -> ActiveCopy {
        ActiveCopy {
            video: VideoId(video),
            src: ServerId(src),
            dst: ServerId(dst),
            kbps: 1,
            bytes: 1,
            backbone_kbps: 0,
            done_at: SimTime(done_at),
            seq,
            purpose: if seq.is_multiple_of(3) {
                CopyPurpose::Repair
            } else {
                CopyPurpose::Rebalance
            },
            extra_srcs: if video.is_multiple_of(2) {
                vec![ServerId((dst + 1) % 8), ServerId((dst + 2) % 8)]
                    .into_iter()
                    .filter(|&s| s != ServerId(src))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The deficit-only planner reproduces the whole-map
        /// `IncrementalPlacement` replan on random actuator states.
        #[test]
        fn deficit_planner_matches_incremental_placement(seed in any::<u64>()) {
            planner_matches_reference(seed);
        }

        /// The indexed copy book picks the same copies as linear scans of
        /// a plain list under random starts, completions, aborts of every
        /// copy touching a server and brownout sheds of the latest one.
        #[test]
        fn copy_book_matches_linear_scans(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut book = CopyBook::default();
            let mut list: Vec<ActiveCopy> = Vec::new();
            let key = |c: &ActiveCopy| (c.done_at, c.seq);
            let touches = |c: &ActiveCopy, s: ServerId| c.endpoints().any(|e| e == s);
            for seq in 0..rng.gen_range(1..80u64) {
                let server = ServerId(rng.gen_range(0..8u32));
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        let (video, src, dst) =
                            (rng.gen_range(0..6u32), rng.gen_range(0..8u32), rng.gen_range(0..8u32));
                        let headed = list
                            .iter()
                            .any(|c| c.video == VideoId(video) && c.dst == ServerId(dst));
                        prop_assert_eq!(book.heads_to(VideoId(video), ServerId(dst)), headed);
                        if src != dst && !headed {
                            let c = book_copy(video, src, dst, rng.gen_range(0..6u64), seq);
                            list.push(c.clone());
                            book.insert(c);
                        }
                    }
                    2 => {
                        let want = list.iter().map(key).min();
                        prop_assert_eq!(book.first_key(), want);
                        if let Some(k) = want {
                            list.retain(|c| key(c) != k);
                            prop_assert_eq!(book.remove(k).map(|c| key(&c)), Some(k));
                        }
                    }
                    _ if rng.gen_bool(0.5) => {
                        let want = list.iter().filter(|c| touches(c, server)).map(key).max();
                        let got = book.touching(server).next_back();
                        prop_assert_eq!(got, want);
                        if let Some(k) = want {
                            list.retain(|c| key(c) != k);
                            book.remove(k);
                        }
                    }
                    _ => {
                        let mut want: Vec<_> =
                            list.iter().filter(|c| touches(c, server)).map(key).collect();
                        want.sort();
                        let got: Vec<_> =
                            book.take_where(|c| touches(c, server)).iter().map(key).collect();
                        prop_assert_eq!(got, want);
                        list.retain(|c| !touches(c, server));
                    }
                }
                prop_assert_eq!(book.len(), list.len());
                let repair = list.iter().filter(|c| c.purpose == CopyPurpose::Repair).count();
                prop_assert_eq!(book.repair, repair);
                for (v, d) in (0..6u32).flat_map(|v| (0..8u32).map(move |d| (v, d))) {
                    let headed = list
                        .iter()
                        .any(|c| c.video == VideoId(v) && c.dst == ServerId(d));
                    prop_assert_eq!(book.heads_to(VideoId(v), ServerId(d)), headed);
                }
            }
        }
    }

    // The fault-sequence walks below run `check_invariants` (pending
    // included) after every hook; CI runs them at 1,024 cases on top of
    // the workspace-wide cap.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Eq. (4) (per-server storage, counting in-flight reservations)
        /// and replica uniqueness survive any interleaving of failures,
        /// recoveries, and copy completions the actuator can see.
        #[test]
        fn random_fault_sequences_never_break_storage_or_uniqueness(
            n in 2usize..=5,
            m in 4usize..=16,
            degree in 1usize..=3,
            spare in 0u64..=4,
            bw_idx in 0usize..4,
            // Each event packs (server index, drain-one-copy flag).
            events in prop::collection::vec(0usize..16, 1..24),
        ) {
            let bw = [0u64, 20_000, 50_000, 120_000][bw_idx];
            let degree = degree.min(n);
            // Enough slots for the round-robin layout plus `spare` extras.
            let slots = ((m * degree).div_ceil(n)) as u64 + spare;
            let (catalog, cluster, layout) = world(n, m, degree, slots);
            let mut links = LinkState::new(&cluster);
            let mut disp = Dispatcher::new(Default::default(), m);
            let mut c = ReplicaActuator::new(
                &catalog,
                &cluster,
                &layout,
                RepairConfig { bandwidth_kbps: bw, max_concurrent: 4 },
            );
            let weights = vec![0u64; m];
            let mut t = 0.0f64;
            for (step, event) in events.into_iter().enumerate() {
                let (srv, drain_one) = (event % 8, event / 8 == 1);
                t += 1.0 + step as f64 * 0.5;
                let s = ServerId((srv % n) as u32);
                if links.is_up(s) {
                    links.fail(s);
                    c.on_failure(SimTime::from_min(t), s, &weights, &mut links, &mut disp);
                } else {
                    links.recover(s);
                    c.on_recovery(SimTime::from_min(t), s, &mut links, &mut disp);
                }
                if drain_one && c.next_completion().is_some() {
                    c.complete_next(&mut links, &mut disp).unwrap();
                }
                c.check_invariants();
                prop_assert!(links.within_capacity());
            }
            c.finish(t + 100.0, &mut links, &mut disp);
            c.check_invariants();
            prop_assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
        }

        /// Rapid flap of one server — fail, come back mid-repair, fail
        /// again, with copies draining in between — never double-counts
        /// redundancy: after every hook `alive[v]` equals the number of
        /// *up* holders, completed+in-flight+servable never exceeds what
        /// storage allows, and a final full recovery returns every video
        /// to exactly its target with zero residual reservations.
        #[test]
        fn rapid_flap_mid_repair_never_double_counts(
            n in 3usize..=5,
            m in 4usize..=12,
            spare in 1u64..=4,
            flaps in prop::collection::vec(0usize..4, 2..16),
        ) {
            let degree = 2usize.min(n);
            let slots = ((m * degree).div_ceil(n)) as u64 + spare;
            let (catalog, cluster, layout) = world(n, m, degree, slots);
            let mut links = LinkState::new(&cluster);
            let mut disp = Dispatcher::new(Default::default(), m);
            let mut c = ReplicaActuator::new(
                &catalog, &cluster, &layout,
                RepairConfig { bandwidth_kbps: 50_000, max_concurrent: 4 },
            );
            let weights = vec![0u64; m];
            let victim = ServerId(0);
            let mut t = 0.0f64;
            // Each flap: fail victim, optionally drain 0..3 completions
            // while it's down, then bring it back mid-repair.
            for (step, drains) in flaps.into_iter().enumerate() {
                t += 0.5 + step as f64 * 0.25;
                links.fail(victim);
                c.on_failure(SimTime::from_min(t), victim, &weights, &mut links, &mut disp);
                c.check_invariants();
                for _ in 0..drains {
                    if c.next_completion().is_none() {
                        break;
                    }
                    c.complete_next(&mut links, &mut disp).unwrap();
                    c.check_invariants();
                }
                t += 0.25;
                // Comeback mid-repair: in-flight copies for videos the
                // return pushes to/above target must abort, and servable
                // surplus must retire — without double-counting.
                links.recover(victim);
                c.on_recovery(SimTime::from_min(t), victim, &mut links, &mut disp);
                c.check_invariants();
                prop_assert!(links.within_capacity());
                for v in 0..m {
                    prop_assert!(
                        c.alive[v] <= c.targets[v] + c.in_flight[v],
                        "video {}: alive {} exceeds target {} with {} in flight",
                        v, c.alive[v], c.targets[v], c.in_flight[v]
                    );
                }
            }
            // Drain everything; with all servers up each video must sit at
            // exactly its target (no surplus survives a full recovery).
            while c.next_completion().is_some() {
                c.complete_next(&mut links, &mut disp).unwrap();
                c.check_invariants();
            }
            for v in 0..m {
                prop_assert_eq!(c.alive[v], c.targets[v]);
                prop_assert_eq!(c.holders[v].len(), c.targets[v] as usize);
            }
            c.finish(t + 100.0, &mut links, &mut disp);
            prop_assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
            prop_assert_eq!(c.in_flight.iter().sum::<u32>(), 0);
        }

        /// Coded repair under arbitrary fault/recovery/drain
        /// interleavings never oversubscribes reserved link bandwidth
        /// and never runs a reconstruction with fewer than `k` read
        /// sources (`check_invariants` asserts every in-flight copy
        /// carries exactly `k - 1` live extras).
        #[test]
        fn coded_fault_sequences_respect_bandwidth_and_fan_in(
            n in 5usize..=7,
            m in 2usize..=6,
            par in 1u32..=2,
            spare in 1u64..=4,
            events in prop::collection::vec(0usize..16, 1..24),
        ) {
            let k = 2u32;
            let slots = ((m * (k + par) as usize).div_ceil(n)) as u64 + spare + 2;
            let (catalog, cluster, layout) = coded_world(n, m, k, par, slots);
            let mut links = LinkState::new(&cluster);
            let mut disp = Dispatcher::new(Default::default(), m);
            let mut c = ReplicaActuator::new(
                &catalog, &cluster, &layout,
                RepairConfig { bandwidth_kbps: 40_000, max_concurrent: 4 },
            );
            let weights = vec![0u64; m];
            let mut t = 0.0f64;
            for (step, event) in events.into_iter().enumerate() {
                let (srv, drain_one) = (event % 8, event / 8 == 1);
                t += 1.0 + step as f64 * 0.5;
                let s = ServerId((srv % n) as u32);
                if links.is_up(s) {
                    links.fail(s);
                    c.on_failure(SimTime::from_min(t), s, &weights, &mut links, &mut disp);
                } else {
                    links.recover(s);
                    c.on_recovery(SimTime::from_min(t), s, &mut links, &mut disp);
                }
                if drain_one && c.next_completion().is_some() {
                    c.complete_next(&mut links, &mut disp).unwrap();
                }
                c.check_invariants();
                prop_assert!(links.within_capacity());
                for copy in c.copies.iter() {
                    prop_assert_eq!(copy.extra_srcs.len() + 1, k as usize);
                }
            }
            c.finish(t + 100.0, &mut links, &mut disp);
            c.check_invariants();
            prop_assert_eq!(links.repair_kbps().iter().sum::<u64>(), 0);
            prop_assert_eq!(c.in_flight.iter().sum::<u32>(), 0);
        }
    }
}
