//! The departure event queue.
//!
//! Arrivals replay directly from the (time-sorted) trace, so the only
//! events that need a priority queue are stream completions. The queue is
//! a min-heap keyed by `(time, sequence)`; the sequence number makes
//! ordering fully deterministic when several streams end on the same tick.
//!
//! Layout: departure records live in a slab indexed by compact `u32`
//! handles; the heap itself is a 4-ary min-heap of compact
//! `(time, sequence, handle)` entries, so sift comparisons read keys
//! sequentially from the heap array (no slab chasing) and touch ~half
//! the levels of a binary heap. Every slot additionally links into
//! an intrusive per-server doubly-linked list, which is what makes
//! [`DepartureQueue::extract_active`] — the crash/brownout failover path —
//! O(k log n) for a server carrying k of the n queued streams, instead of
//! the former drain-and-rebuild of the whole heap.

use crate::time::SimTime;
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

/// Null handle for slab links and list heads.
const NONE: u32 = u32::MAX;

/// Arity of the handle heap: shallower than binary, and four child keys
/// share a cache line's worth of handle loads per sift-down level.
const ARITY: usize = 4;

/// One slab slot: the departure payload plus its heap position and its
/// links in the owning server's intrusive list. The `(at, seq)` ordering
/// key lives in the heap entry itself (comparison locality), not here;
/// free slots are chained through `next`.
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
    /// Index of this slot's entry in `DepartureQueue::heap`.
    heap_pos: u32,
    /// Intrusive per-server list links (`NONE` = end).
    prev: u32,
    next: u32,
}

/// One heap entry: the full ordering key plus the slab handle, so sift
/// comparisons never leave the heap array.
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

/// Deterministic indexed min-heap of departures.
#[derive(Debug, Default)]
pub struct DepartureQueue {
    /// Slab of departure records, addressed by `u32` handle.
    slots: Vec<Slot>,
    /// Head of the free-slot chain (threaded through `Slot::next`).
    free_head: u32,
    /// 4-ary min-heap of `(at, seq)`-keyed entries.
    heap: Vec<HeapEntry>,
    /// Head of each server's intrusive list of queued departures.
    server_head: Vec<u32>,
    /// Next sequence number; unique per push, so `(at, seq)` totally
    /// orders the heap and ties pop in FIFO order.
    seq: u64,
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
    /// pre-allocated (the slab and heap grow on demand and amortize to
    /// zero allocations once the run reaches its concurrency peak).
    pub fn with_capacity(servers: usize) -> Self {
        DepartureQueue {
            free_head: NONE,
            server_head: vec![NONE; servers],
            ..Default::default()
        }
    }

    /// Schedules a departure.
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
            heap_pos: self.heap.len() as u32,
            prev: NONE,
            next: head,
        };
        let h = if self.free_head != NONE {
            let h = self.free_head;
            self.free_head = self.slots[h as usize].next;
            self.slots[h as usize] = slot;
            h
        } else {
            debug_assert!(self.slots.len() < NONE as usize);
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        if head != NONE {
            self.slots[head as usize].prev = h;
        }
        self.server_head[j] = h;
        self.heap.push(HeapEntry {
            at: d.at,
            seq,
            handle: h,
        });
        self.sift_up(self.heap.len() - 1);
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the next departure at or before `now`, if any.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Departure> {
        let root = *self.heap.first()?;
        if root.at > now {
            return None;
        }
        Some(self.remove(root.handle))
    }

    /// The next departure's instant, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Removes every departure on `server` whose epoch matches `epoch` —
    /// the streams actually alive there — into `out` in deterministic
    /// `(time, sequence)` order (`out` is cleared first). Stale entries
    /// (older epochs) stay queued: under the backbone extension their
    /// backbone reservation is still released at the scheduled end. Used
    /// by stream failover to take over a failing server's streams before
    /// the link state kills them; the per-server index makes this
    /// O(k log n) for the server's k streams.
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
                let entry = self.heap[self.slots[h as usize].heap_pos as usize];
                scratch.push((entry.at, entry.seq, self.remove(h)));
            }
            h = next;
        }
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

    /// Drains every remaining departure in time order (end-of-run cleanup).
    pub fn drain_all(&mut self) -> Vec<Departure> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(d) = self.pop_due(SimTime(u64::MAX)) {
            out.push(d);
        }
        out
    }

    /// Number of scheduled departures (active streams).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no streams are active.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Most departures ever queued at once over this queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Removes slot `h` from the heap and its server list, frees it, and
    /// returns its departure.
    fn remove(&mut self, h: u32) -> Departure {
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
        // Swap-remove from the heap, then restore the heap property at
        // the vacated position (the moved entry can need either sift).
        let pos = slot.heap_pos as usize;
        let at = self.heap[pos].at;
        let last = self.heap.len() - 1;
        self.heap.swap_remove(pos);
        if pos < last {
            let moved = self.heap[pos];
            self.slots[moved.handle as usize].heap_pos = pos as u32;
            self.sift_down(pos);
            self.sift_up(self.slots[moved.handle as usize].heap_pos as usize);
        }
        // Chain the slot into the free list.
        self.slots[h as usize].next = self.free_head;
        self.free_head = h;
        Departure {
            at,
            server: slot.server,
            video: slot.video,
            kbps: slot.kbps as u64,
            backbone_kbps: slot.backbone_kbps as u64,
            epoch: slot.epoch,
            stream: slot.stream,
        }
    }

    /// Resident bytes of this queue's backing storage (slab, heap, list
    /// heads, scratch) — the feed for the engine's bytes-per-active-
    /// stream accounting.
    pub fn mem_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.heap.capacity() * std::mem::size_of::<HeapEntry>()
            + self.server_head.capacity() * std::mem::size_of::<u32>()
            + self.extract_scratch.capacity() * std::mem::size_of::<(SimTime, u64, Departure)>()
    }

    /// Hole-shifting sift toward the root: parents slide down until the
    /// moving entry's key fits, writing each displaced entry (and its
    /// backpointer) once.
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[pos] = self.heap[parent];
            self.slots[self.heap[pos].handle as usize].heap_pos = pos as u32;
            pos = parent;
        }
        self.heap[pos] = entry;
        self.slots[entry.handle as usize].heap_pos = pos as u32;
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
            self.slots[self.heap[pos].handle as usize].heap_pos = pos as u32;
            pos = best;
        }
        self.heap[pos] = entry;
        self.slots[entry.handle as usize].heap_pos = pos as u32;
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
        let times: Vec<u64> = q.drain_all().iter().map(|d| d.at.ticks()).collect();
        assert_eq!(times, vec![1, 3, 5, 9]);
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
}
