//! The departure event queue.
//!
//! Arrivals replay directly from the (time-sorted) trace, so the only
//! events that need a priority queue are stream completions. The queue
//! pops in `(time, sequence)` order; the sequence number makes ordering
//! fully deterministic when several streams end on the same tick.
//!
//! In the paper's model every video lasts its catalog duration `T`, so
//! an admission at a non-decreasing `now` schedules its departure at
//! `now + T`: departures are mostly pushed already sorted. A push whose
//! instant is no earlier than the newest entry of a FIFO *lane* appends
//! there in O(1); every other push (a failover, brownout or shed
//! re-push that keeps its original instant, or a shorter video after a
//! longer one) goes to a 4-ary min-heap. Both stay sorted by their unique
//! `(time, sequence)` keys and a pop takes the smaller of the two heads,
//! so the pop order is exactly a single heap's.
//!
//! Layout: departure records live in a slab indexed by compact `u32`
//! handles; lane and heap hold compact `(time, sequence, handle)`
//! entries, so comparisons read keys from the entry arrays (no slab
//! chasing), and the 4-ary heap touches ~half the levels of a binary
//! heap. Each slot records where its entry lives — a heap position, or a
//! lane flag plus a 31-bit logical lane index — so any departure can be
//! removed: from the heap in O(log n), from the lane in O(1) by leaving a
//! tombstone that is dropped once it reaches the lane's front. Every slot
//! additionally links into an intrusive per-server doubly-linked list,
//! which is what makes [`DepartureQueue::extract_active`] — the
//! crash/brownout failover path — cost O(k log n) for a server carrying k
//! of the n queued streams.

use crate::time::SimTime;
use std::collections::VecDeque;
use vod_model::{ServerId, VideoId};

/// Marks a departure that belongs to no coded stream (a whole-copy
/// replica stream, the only kind the paper's model produces).
pub const NO_STREAM: u32 = u32::MAX;

/// A scheduled stream completion.
///
/// A replicated stream is one departure. A coded stream is `k`
/// departures — one fragment share per serving holder — tied together
/// by a shared `stream` id so failover can find the sibling shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// When the stream ends.
    pub at: SimTime,
    /// The server whose outgoing link frees up.
    pub server: ServerId,
    /// The video being streamed (for per-video accounting).
    pub video: VideoId,
    /// Outgoing bandwidth released, in kbps.
    pub kbps: u64,
    /// Backbone bandwidth released, in kbps (non-zero only for redirected
    /// streams under the backbone extension).
    pub backbone_kbps: u64,
    /// The serving server's failure epoch at admission time; a departure
    /// whose epoch no longer matches is stale (the stream was killed by a
    /// failure) and must not release link bandwidth.
    pub epoch: u32,
    /// Coded stream id tying the `k` fragment-share departures of one
    /// viewer together, or [`NO_STREAM`] for whole-copy streams.
    pub stream: u32,
}

/// Null handle for slab links and list heads; as a lane entry's handle,
/// the tombstone of a removed departure.
const NONE: u32 = u32::MAX;

/// Set in [`Slot::loc`] when the slot's entry sits in the lane; the low
/// 31 bits ([`LANE_MASK`]) then hold the entry's logical lane index.
const LANE_FLAG: u32 = 1 << 31;

/// Logical lane indices count modulo 2^31.
const LANE_MASK: u32 = LANE_FLAG - 1;

/// Arity of the handle heap: shallower than binary, and four child keys
/// share a cache line's worth of handle loads per sift-down level.
const ARITY: usize = 4;

/// One slab slot: the departure payload plus the location of its entry
/// and its links in the owning server's intrusive list. The `(at, seq)`
/// ordering key lives in the entry itself (comparison locality), not
/// here; free slots are chained through `next`.
///
/// Bandwidth words are packed to `u32` (a stream rate in kbps tops out
/// in the tens of thousands; `u32` holds 4 Tbps): nine `u32` words, 36
/// bytes per active stream in the slab against the public
/// [`Departure`]'s 48. The widening back to `u64` happens on pop.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kbps: u32,
    backbone_kbps: u32,
    server: ServerId,
    video: VideoId,
    epoch: u32,
    stream: u32,
    /// Where this slot's entry lives: its index in `DepartureQueue::heap`,
    /// or [`LANE_FLAG`] plus its logical index in `DepartureQueue::lane`.
    loc: u32,
    /// Intrusive per-server list links (`NONE` = end).
    prev: u32,
    next: u32,
}

impl Slot {
    /// The public record of this slot's departure, due at `at`.
    fn departure(&self, at: SimTime) -> Departure {
        Departure {
            at,
            server: self.server,
            video: self.video,
            kbps: self.kbps as u64,
            backbone_kbps: self.backbone_kbps as u64,
            epoch: self.epoch,
            stream: self.stream,
        }
    }
}

/// One queue entry, in the heap or the lane: the full ordering key plus
/// the slab handle, so comparisons never leave the entry arrays. A lane
/// entry whose departure was removed keeps its key and gets the handle
/// `NONE` (a tombstone).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    handle: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Deterministic indexed priority queue of departures: an in-order FIFO
/// lane beside a 4-ary min-heap for the out-of-order pushes.
#[derive(Debug, Default)]
pub struct DepartureQueue {
    /// Slab of departure records, addressed by `u32` handle.
    slots: Vec<Slot>,
    /// Head of the free-slot chain (threaded through `Slot::next`).
    free_head: u32,
    /// Departures pushed in `(at, seq)` order. Sorted by that key; the
    /// front is always live, removed entries further back stay as
    /// tombstones until they reach the front.
    lane: VecDeque<HeapEntry>,
    /// Logical index of the lane's front (modulo 2^31): lane entry `i`
    /// has logical index `lane_base + i`.
    lane_base: u32,
    /// 4-ary min-heap of the departures pushed out of order.
    heap: Vec<HeapEntry>,
    /// Head of each server's intrusive list of queued departures.
    server_head: Vec<u32>,
    /// Next sequence number; unique per push, so `(at, seq)` totally
    /// orders the queue and ties pop in FIFO order.
    seq: u64,
    /// Number of queued departures (lane tombstones excluded).
    len: usize,
    /// High-water mark of `len()` over this queue's lifetime.
    peak_len: usize,
    /// Scratch for sorting extracted departures by `(at, seq)`.
    extract_scratch: Vec<(SimTime, u64, Departure)>,
}

impl DepartureQueue {
    /// An empty queue.
    pub fn new() -> Self {
        DepartureQueue {
            free_head: NONE,
            ..Default::default()
        }
    }

    /// An empty queue with list heads for `servers` servers
    /// pre-allocated (the slab, lane and heap grow on demand and amortize
    /// to zero allocations once the run reaches its concurrency peak).
    pub fn with_capacity(servers: usize) -> Self {
        DepartureQueue {
            free_head: NONE,
            server_head: vec![NONE; servers],
            ..Default::default()
        }
    }

    /// Schedules a departure: appended to the lane when it is due no
    /// earlier than the lane's newest entry, else sifted into the heap.
    pub fn push(&mut self, d: Departure) {
        let j = d.server.index();
        if j >= self.server_head.len() {
            self.server_head.resize(j + 1, NONE);
        }
        let seq = self.seq;
        self.seq += 1;
        let head = self.server_head[j];
        debug_assert!(
            d.kbps <= u32::MAX as u64 && d.backbone_kbps <= u32::MAX as u64,
            "stream rate exceeds the packed u32 slab word"
        );
        let slot = Slot {
            kbps: d.kbps as u32,
            backbone_kbps: d.backbone_kbps as u32,
            server: d.server,
            video: d.video,
            epoch: d.epoch,
            stream: d.stream,
            loc: 0,
            prev: NONE,
            next: head,
        };
        let h = if self.free_head != NONE {
            let h = self.free_head;
            self.free_head = self.slots[h as usize].next;
            self.slots[h as usize] = slot;
            h
        } else {
            // Heap positions never exceed the slot count, so keeping
            // handles under the lane flag keeps positions clear of it.
            debug_assert!(self.slots.len() < LANE_FLAG as usize);
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        if head != NONE {
            self.slots[head as usize].prev = h;
        }
        self.server_head[j] = h;
        let entry = HeapEntry {
            at: d.at,
            seq,
            handle: h,
        };
        // `seq` only grows, so `at` alone decides whether the entry
        // sorts after the lane's back.
        if self.lane.back().is_none_or(|back| back.at <= d.at) {
            debug_assert!(
                self.lane.len() < LANE_FLAG as usize,
                "lane outgrew its 31-bit logical index"
            );
            let logical = self.lane_base.wrapping_add(self.lane.len() as u32) & LANE_MASK;
            self.slots[h as usize].loc = LANE_FLAG | logical;
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Removes and returns the next departure at or before `now`, if any.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Departure> {
        let head = *self.head()?;
        if head.at > now {
            return None;
        }
        Some(self.remove(head.handle).1)
    }

    /// The next departure's instant, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.head().map(|e| e.at)
    }

    /// The next departure's entry: the earlier of the lane's front (live
    /// by construction) and the heap's root.
    fn head(&self) -> Option<&HeapEntry> {
        match (self.lane.front(), self.heap.first()) {
            (Some(lane), Some(heap)) => Some(if heap.key() < lane.key() { heap } else { lane }),
            (lane, heap) => lane.or(heap),
        }
    }

    /// Removes every departure on `server` whose epoch matches `epoch` —
    /// the streams actually alive there — into `out` in deterministic
    /// `(time, sequence)` order (`out` is cleared first). Stale entries
    /// (older epochs) stay queued: under the backbone extension their
    /// backbone reservation is still released at the scheduled end. Used
    /// by stream failover to take over a failing server's streams before
    /// the link state kills them; the per-server index makes this
    /// O(k log n) for the server's k streams (O(1) each from the lane).
    pub fn extract_active_into(&mut self, server: ServerId, epoch: u32, out: &mut Vec<Departure>) {
        out.clear();
        let Some(&head) = self.server_head.get(server.index()) else {
            return;
        };
        let mut scratch = std::mem::take(&mut self.extract_scratch);
        let mut h = head;
        while h != NONE {
            let next = self.slots[h as usize].next;
            if self.slots[h as usize].epoch == epoch {
                let (seq, d) = self.remove(h);
                scratch.push((d.at, seq, d));
            }
            h = next;
        }
        // Lane and heap entries interleave in the server's list.
        scratch.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out.extend(scratch.drain(..).map(|(_, _, d)| d));
        self.extract_scratch = scratch;
    }

    /// [`Self::extract_active_into`] returning a fresh `Vec` (test and
    /// non-hot-path convenience).
    pub fn extract_active(&mut self, server: ServerId, epoch: u32) -> Vec<Departure> {
        let mut out = Vec::new();
        self.extract_active_into(server, epoch, &mut out);
        out
    }

    /// Empties the queue, handing every remaining departure to `f` in
    /// no particular order — the end-of-run teardown, whose releases
    /// commute. One O(n) sweep over the heap and the lane with no
    /// allocation; the backing storage keeps its capacity, so
    /// [`Self::mem_bytes`] reads the same after. (Popping with
    /// `pop_due(SimTime(u64::MAX))` drains in time order.)
    pub fn drain_unordered(&mut self, mut f: impl FnMut(Departure)) {
        for e in self.heap.iter().chain(&self.lane) {
            if e.handle != NONE {
                f(self.slots[e.handle as usize].departure(e.at));
            }
        }
        self.heap.clear();
        self.lane.clear();
        self.slots.clear();
        self.free_head = NONE;
        self.server_head.fill(NONE);
        self.len = 0;
    }

    /// Number of scheduled departures (active streams).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no streams are active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most departures ever queued at once over this queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Removes slot `h` from its server list and from the heap or the
    /// lane, frees it, and returns its sequence number and departure.
    fn remove(&mut self, h: u32) -> (u64, Departure) {
        let slot = self.slots[h as usize];
        // Unlink from the server list.
        if slot.prev != NONE {
            self.slots[slot.prev as usize].next = slot.next;
        } else {
            self.server_head[slot.server.index()] = slot.next;
        }
        if slot.next != NONE {
            self.slots[slot.next as usize].prev = slot.prev;
        }
        let entry = if slot.loc & LANE_FLAG != 0 {
            // Tombstone the lane entry, then drop the tombstones that
            // now lead the lane so its front stays live.
            let i = (slot.loc.wrapping_sub(self.lane_base) & LANE_MASK) as usize;
            let entry = self.lane[i];
            self.lane[i].handle = NONE;
            while self.lane.front().is_some_and(|e| e.handle == NONE) {
                self.lane.pop_front();
                self.lane_base = (self.lane_base + 1) & LANE_MASK;
            }
            entry
        } else {
            // Swap-remove from the heap, then restore the heap property
            // at the vacated position (the moved entry can need either
            // sift).
            let pos = slot.loc as usize;
            let entry = self.heap.swap_remove(pos);
            if pos < self.heap.len() {
                let moved = self.heap[pos].handle as usize;
                self.slots[moved].loc = pos as u32;
                self.sift_down(pos);
                self.sift_up(self.slots[moved].loc as usize);
            }
            entry
        };
        self.len -= 1;
        // Chain the slot into the free list.
        self.slots[h as usize].next = self.free_head;
        self.free_head = h;
        (entry.seq, slot.departure(entry.at))
    }

    /// Resident bytes of this queue's backing storage (slab, lane, heap,
    /// list heads, scratch) — the feed for the engine's bytes-per-active-
    /// stream accounting.
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + (self.lane.capacity() + self.heap.capacity()) * std::mem::size_of::<HeapEntry>()
            + self.server_head.capacity() * std::mem::size_of::<u32>()
            + self.extract_scratch.capacity() * std::mem::size_of::<(SimTime, u64, Departure)>()
    }

    /// Hole-shifting sift toward the root: parents slide down until the
    /// moving entry's key fits, writing each displaced entry (and its
    /// location word) once.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[pos] = self.heap[parent];
            self.slots[self.heap[pos].handle as usize].loc = pos as u32;
            pos = parent;
        }
        self.heap[pos] = entry;
        self.slots[entry.handle as usize].loc = pos as u32;
    }

    /// Hole-shifting sift toward the leaves: the least of up to `ARITY`
    /// children slides up until the moving entry's key fits.
    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(self.heap.len());
            for child in first_child + 1..end {
                if self.heap[child].key() < self.heap[best].key() {
                    best = child;
                }
            }
            if entry.key() <= self.heap[best].key() {
                break;
            }
            self.heap[pos] = self.heap[best];
            self.slots[self.heap[pos].handle as usize].loc = pos as u32;
            pos = best;
        }
        self.heap[pos] = entry;
        self.slots[entry.handle as usize].loc = pos as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(at: u64, server: u32) -> Departure {
        Departure {
            at: SimTime(at),
            server: ServerId(server),
            video: VideoId(0),
            kbps: 4_000,
            backbone_kbps: 0,
            epoch: 0,
            stream: NO_STREAM,
        }
    }

    /// Checks the lane/heap/slab bookkeeping: both arrays sorted by
    /// key, the lane's front live, every location word pointing back at
    /// its entry, and `len` counting exactly the live entries.
    fn check_invariants(q: &DepartureQueue) {
        let keys: Vec<_> = q.lane.iter().map(HeapEntry::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "lane unsorted");
        assert!(q.lane.front().is_none_or(|e| e.handle != NONE));
        let mut live = 0;
        for (i, e) in q.lane.iter().enumerate() {
            if e.handle != NONE {
                live += 1;
                let logical = q.lane_base.wrapping_add(i as u32) & LANE_MASK;
                assert_eq!(q.slots[e.handle as usize].loc, LANE_FLAG | logical);
            }
        }
        for (pos, e) in q.heap.iter().enumerate() {
            assert_eq!(q.slots[e.handle as usize].loc, pos as u32);
            if pos > 0 {
                assert!(q.heap[(pos - 1) / ARITY].key() <= e.key(), "heap unsorted");
            }
        }
        assert_eq!(q.len(), live + q.heap.len());
    }

    #[test]
    fn next_time_peeks() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(dep(42, 0));
        q.push(dep(7, 1));
        assert_eq!(q.next_time(), Some(SimTime(7)));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = DepartureQueue::new();
        q.push(dep(30, 0));
        q.push(dep(10, 1));
        q.push(dep(20, 2));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(10));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(20));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(30));
        assert!(q.pop_due(SimTime(100)).is_none());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = DepartureQueue::new();
        q.push(dep(50, 0));
        assert!(q.pop_due(SimTime(49)).is_none());
        assert!(q.pop_due(SimTime(50)).is_some());
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 7));
        q.push(dep(10, 3));
        assert_eq!(q.pop_due(SimTime(10)).unwrap().server, ServerId(7));
        assert_eq!(q.pop_due(SimTime(10)).unwrap().server, ServerId(3));
    }

    #[test]
    fn drain_returns_sorted() {
        let mut q = DepartureQueue::new();
        for at in [5u64, 1, 9, 3] {
            q.push(dep(at, 0));
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop_due(SimTime(u64::MAX)))
            .map(|d| d.at.ticks())
            .collect();
        assert_eq!(times, vec![1, 3, 5, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn unordered_drain_visits_everything_and_keeps_capacity() {
        let mut q = DepartureQueue::new();
        for at in [5u64, 1, 9, 3, 7] {
            q.push(dep(at, (at % 3) as u32));
        }
        q.pop_due(SimTime(1));
        let bytes = q.mem_bytes();
        let mut times = Vec::new();
        q.drain_unordered(|d| times.push(d.at.ticks()));
        times.sort_unstable();
        assert_eq!(times, vec![3, 5, 7, 9]);
        assert!(q.is_empty());
        assert_eq!(q.mem_bytes(), bytes);
        // The emptied queue is as good as new.
        assert!(q.extract_active(ServerId(0), 0).is_empty());
        q.push(dep(4, 2));
        q.push(dep(2, 2));
        assert_eq!(q.extract_active(ServerId(2), 0).len(), 2);
        q.push(dep(6, 1));
        assert_eq!(q.pop_due(SimTime(6)).unwrap().at, SimTime(6));
        assert!(q.is_empty());
    }

    #[test]
    fn extract_active_partitions_by_server_and_epoch() {
        let mut q = DepartureQueue::new();
        q.push(dep(30, 1));
        q.push(Departure {
            epoch: 1,
            ..dep(10, 0)
        });
        q.push(dep(20, 0)); // epoch 0: stale once we extract epoch 1
        q.push(Departure {
            epoch: 1,
            ..dep(5, 0)
        });
        let got = q.extract_active(ServerId(0), 1);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![5, 10]
        );
        // The stale epoch-0 entry and the other server's entry survive.
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(SimTime(100)).unwrap().at, SimTime(20));
        assert_eq!(q.pop_due(SimTime(100)).unwrap().server, ServerId(1));
    }

    #[test]
    fn len_tracks_active_streams() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.len(), 0);
        q.push(dep(10, 0));
        q.push(dep(20, 0));
        assert_eq!(q.len(), 2);
        q.pop_due(SimTime(15));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn extract_on_server_with_zero_streams_is_empty() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 0));
        // In-range server with no streams, and a server the queue has
        // never seen (list heads not even allocated).
        assert!(q.extract_active(ServerId(0), 99).is_empty());
        assert!(q.extract_active(ServerId(7), 0).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime(10)).unwrap().at, SimTime(10));
    }

    #[test]
    fn stale_epochs_survive_repeated_extraction() {
        let mut q = DepartureQueue::new();
        for (at, epoch) in [(10u64, 0u32), (20, 1), (30, 2), (40, 1)] {
            q.push(Departure {
                epoch,
                ..dep(at, 0)
            });
        }
        let got = q.extract_active(ServerId(0), 1);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![20, 40]
        );
        // The other epochs remain; extracting them later still works.
        assert_eq!(q.len(), 2);
        let got = q.extract_active(ServerId(0), 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, SimTime(30));
        assert_eq!(q.pop_due(SimTime(99)).unwrap().at, SimTime(10));
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_mass_departures_extract_in_push_order() {
        let mut q = DepartureQueue::new();
        for v in 0..100u32 {
            q.push(Departure {
                video: VideoId(v),
                ..dep(10, 0)
            });
        }
        q.push(dep(10, 1));
        let got = q.extract_active(ServerId(0), 0);
        // All same-tick: (time, seq) order is push order.
        assert_eq!(
            got.iter()
                .map(|d| d.video.index() as u32)
                .collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut q = DepartureQueue::new();
        for round in 0..10u64 {
            for k in 0..8u64 {
                q.push(dep(round * 100 + k, (k % 4) as u32));
            }
            if round % 2 == 0 {
                let got = q.extract_active(ServerId(0), 0);
                for d in got {
                    q.push(d);
                }
            }
            while q.pop_due(SimTime(round * 100 + 7)).is_some() {}
        }
        assert!(q.is_empty());
        // The slab never grew past one round's worth of live slots plus
        // the re-pushed extractions.
        assert!(q.slots.len() <= 16, "slab grew to {}", q.slots.len());
        assert_eq!(q.peak_len(), 8);
    }

    #[test]
    fn slot_stays_packed() {
        // The slab word is the dominant per-active-stream cost; keep it
        // at nine u32 words (the memory-smoke ceiling is sized to it).
        assert_eq!(std::mem::size_of::<Slot>(), 36);
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
    }

    #[test]
    fn mem_bytes_tracks_backing_storage() {
        let mut q = DepartureQueue::new();
        assert_eq!(q.mem_bytes(), 0);
        for at in 0..100 {
            q.push(dep(at, 0));
        }
        let bytes = q.mem_bytes();
        assert!(bytes >= 100 * (std::mem::size_of::<Slot>() + std::mem::size_of::<HeapEntry>()));
        // Draining frees no capacity: the slab is reused, so the
        // footprint is set by the concurrency peak, not the run length.
        while q.pop_due(SimTime(u64::MAX)).is_some() {}
        assert_eq!(q.mem_bytes(), bytes);
    }

    #[test]
    fn wide_rates_roundtrip_through_the_packed_slab() {
        let mut q = DepartureQueue::new();
        q.push(Departure {
            kbps: u32::MAX as u64,
            backbone_kbps: 123_456,
            ..dep(10, 0)
        });
        let d = q.pop_due(SimTime(10)).unwrap();
        assert_eq!(d.kbps, u32::MAX as u64);
        assert_eq!(d.backbone_kbps, 123_456);
    }

    #[test]
    fn interleaved_push_pop_extract_keeps_order() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 0));
        q.push(dep(5, 1));
        assert_eq!(q.pop_due(SimTime(5)).unwrap().server, ServerId(1));
        q.push(dep(7, 0));
        q.push(dep(3, 0));
        let got = q.extract_active(ServerId(0), 0);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![3, 7, 10]
        );
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn monotone_pushes_never_touch_the_heap() {
        let mut q = DepartureQueue::new();
        let mut popped = Vec::new();
        for now in 0..1_000u64 {
            // Same-tick ties (now / 3) and a constant duration: the
            // engine's shape with one video length.
            q.push(dep(now / 3 + 100, (now % 7) as u32));
            while let Some(d) = q.pop_due(SimTime(now / 3)) {
                popped.push(d.at);
            }
        }
        check_invariants(&q);
        assert_eq!(q.heap.capacity(), 0, "an in-order push reached the heap");
        assert!(popped.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(popped.len() + q.len(), 1_000);
    }

    #[test]
    fn lane_and_heap_ties_pop_in_push_order() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 0)); // lane, seq 0
        q.push(dep(20, 1)); // lane, seq 1
        q.push(dep(10, 2)); // heap (10 < 20), seq 2: after seq 0
        assert_eq!(q.heap.len(), 1);
        // The lane's entry was pushed first, so it pops first.
        assert_eq!(q.pop_due(SimTime(10)).unwrap().server, ServerId(0));
        // Empty the lane by extraction; the next push at 10 lands in the
        // lane behind the heap's earlier tie.
        assert_eq!(q.extract_active(ServerId(1), 0).len(), 1);
        assert!(q.lane.is_empty());
        q.push(dep(10, 4)); // lane, seq 3: after the heap's seq 2
        q.push(dep(10, 5)); // lane, seq 4
        check_invariants(&q);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop_due(SimTime(10)))
            .map(|d| d.server.0)
            .collect();
        assert_eq!(order, vec![2, 4, 5]);
    }

    #[test]
    fn front_tombstones_are_trimmed_so_next_time_sees_a_live_entry() {
        let mut q = DepartureQueue::new();
        for (at, server) in [(10, 0), (20, 0), (30, 1), (40, 0), (50, 1)] {
            q.push(dep(at, server));
        }
        // Server 1's entries (30, 50) become tombstones in the middle and
        // at the back; popping 10 and 20 then brings 30's to the front.
        assert_eq!(q.extract_active(ServerId(1), 0).len(), 2);
        assert_eq!(q.lane.len(), 5);
        assert_eq!(q.next_time(), Some(SimTime(10)));
        assert_eq!(q.pop_due(SimTime(10)).unwrap().at, SimTime(10));
        assert_eq!(q.pop_due(SimTime(20)).unwrap().at, SimTime(20));
        // 30 was a tombstone: trimmed along with the pop of 20.
        assert_eq!(q.lane.front().unwrap().at, SimTime(40));
        assert_eq!(q.next_time(), Some(SimTime(40)));
        assert!(q.pop_due(SimTime(39)).is_none());
        check_invariants(&q);
        assert_eq!(q.extract_active(ServerId(0), 0).len(), 1);
        // The back tombstone (50) goes with the last live entry.
        assert!(q.lane.is_empty());
        assert_eq!(q.next_time(), None);
        assert!(q.is_empty());
        check_invariants(&q);
    }

    #[test]
    fn reused_handle_ignores_its_old_tombstone() {
        let mut q = DepartureQueue::new();
        q.push(dep(10, 0));
        q.push(dep(20, 1));
        q.push(dep(30, 0));
        let freed = q.server_head[1];
        assert_eq!(q.extract_active(ServerId(1), 0).len(), 1);
        assert_eq!(q.lane.len(), 3, "the middle entry stays as a tombstone");
        assert_eq!(q.free_head, freed);
        // The next push takes the freed slot while its tombstone waits
        // in the lane.
        q.push(Departure {
            video: VideoId(9),
            ..dep(40, 2)
        });
        assert_eq!(q.server_head[2], freed, "the push reused the freed slot");
        check_invariants(&q);
        let got: Vec<(u64, u32, u32)> = std::iter::from_fn(|| q.pop_due(SimTime(99)))
            .map(|d| (d.at.ticks(), d.server.0, d.video.0))
            .collect();
        assert_eq!(got, vec![(10, 0, 0), (30, 0, 0), (40, 2, 9)]);
        assert!(q.is_empty());
    }

    #[test]
    fn lane_index_wraps_around_the_31_bit_mask() {
        let mut q = DepartureQueue::new();
        q.lane_base = LANE_MASK - 3;
        for at in 0..12u64 {
            q.push(dep(at, (at % 3) as u32));
        }
        // Logical indices run MASK-3 ..= MASK, then 0 ..= 7.
        check_invariants(&q);
        let got = q.extract_active(ServerId(1), 0);
        assert_eq!(
            got.iter().map(|d| d.at.ticks()).collect::<Vec<_>>(),
            vec![1, 4, 7, 10]
        );
        check_invariants(&q);
        // Pop across the wrap; the tombstones of server 1 are trimmed on
        // the way.
        for at in [0u64, 2, 3, 5] {
            assert_eq!(q.pop_due(SimTime(at)).unwrap().at, SimTime(at));
        }
        assert!(q.lane_base < 8, "the base wrapped to {}", q.lane_base);
        check_invariants(&q);
        // A re-push of an extracted departure goes to the heap and
        // interleaves with the wrapped lane.
        q.push(got[2]);
        assert_eq!(q.heap.len(), 1);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop_due(SimTime(99)))
            .map(|d| d.at.ticks())
            .collect();
        assert_eq!(rest, vec![6, 7, 8, 9, 11]);
        check_invariants(&q);
    }

    #[test]
    fn drain_unordered_and_mem_bytes_cover_lane_and_heap() {
        let mut q = DepartureQueue::new();
        for at in [10u64, 20, 30, 40] {
            q.push(dep(at, 0));
        }
        q.push(dep(25, 1)); // out of order: heap
        q.push(dep(15, 1)); // heap
        q.push(dep(50, 1)); // lane
        q.push(dep(50, 2)); // lane
        assert_eq!(q.extract_active(ServerId(2), 0).len(), 1); // back tombstone
        assert_eq!(q.extract_active(ServerId(0), 0).len(), 4);
        // Lane: tombstones up front were trimmed; 50 (server 1) is live.
        check_invariants(&q);
        for d in [dep(20, 0), dep(40, 0)] {
            q.push(d); // re-pushes keep their original instants: heap
        }
        assert_eq!((q.lane.len(), q.heap.len(), q.len()), (2, 4, 5));
        let bytes = q.mem_bytes();
        assert!(
            bytes
                >= (q.lane.capacity() + q.heap.capacity()) * std::mem::size_of::<HeapEntry>()
                    + q.slots.capacity() * std::mem::size_of::<Slot>()
        );
        let mut times = Vec::new();
        q.drain_unordered(|d| times.push((d.at.ticks(), d.server.0)));
        times.sort_unstable();
        assert_eq!(times, vec![(15, 1), (20, 0), (25, 1), (40, 0), (50, 1)]);
        assert!(q.is_empty() && q.lane.is_empty() && q.heap.is_empty());
        assert_eq!(q.mem_bytes(), bytes);
        // The emptied queue works as new from either array.
        q.push(dep(7, 0));
        q.push(dep(5, 1));
        check_invariants(&q);
        assert_eq!(q.pop_due(SimTime(9)).unwrap().at, SimTime(5));
        assert_eq!(q.pop_due(SimTime(9)).unwrap().at, SimTime(7));
    }
}
