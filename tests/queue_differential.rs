//! Differential property test: the slab-backed indexed [`DepartureQueue`]
//! against a reference implementation — a retained copy of the original
//! `BinaryHeap<Reverse<(SimTime, u64, ...)>>` queue — driven with
//! identical operation sequences. Every observable (popped departures,
//! extraction results, drains, `next_time`, `len`) must match exactly;
//! this is what guarantees the indexed queue reproduces the reference pop
//! order bit-for-bit, and therefore byte-identical simulation reports.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vod_model::{ServerId, VideoId};
use vod_sim::event::{Departure, DepartureQueue};
use vod_sim::time::SimTime;

/// Reference queue: the pre-index implementation, kept verbatim (minus
/// doc comments) as the behavioural oracle.
#[derive(Debug, Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, DepartureRecord)>>,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DepartureRecord {
    server: ServerId,
    video: VideoId,
    kbps: u64,
    backbone_kbps: u64,
    epoch: u32,
    stream: u32,
}

impl ReferenceQueue {
    fn push(&mut self, d: Departure) {
        self.heap.push(Reverse((
            d.at,
            self.seq,
            DepartureRecord {
                server: d.server,
                video: d.video,
                kbps: d.kbps,
                backbone_kbps: d.backbone_kbps,
                epoch: d.epoch,
                stream: d.stream,
            },
        )));
        self.seq += 1;
    }

    fn pop_due(&mut self, now: SimTime) -> Option<Departure> {
        let Reverse((at, _, _)) = self.heap.peek()?;
        if *at > now {
            return None;
        }
        let Reverse((at, _, rec)) = self.heap.pop()?;
        Some(Departure {
            at,
            server: rec.server,
            video: rec.video,
            kbps: rec.kbps,
            backbone_kbps: rec.backbone_kbps,
            epoch: rec.epoch,
            stream: rec.stream,
        })
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn extract_active(&mut self, server: ServerId, epoch: u32) -> Vec<Departure> {
        let entries = std::mem::take(&mut self.heap).into_sorted_vec();
        let mut extracted = Vec::new();
        for Reverse((at, seq, rec)) in entries.into_iter().rev() {
            if rec.server == server && rec.epoch == epoch {
                extracted.push(Departure {
                    at,
                    server: rec.server,
                    video: rec.video,
                    kbps: rec.kbps,
                    backbone_kbps: rec.backbone_kbps,
                    epoch: rec.epoch,
                    stream: rec.stream,
                });
            } else {
                self.heap.push(Reverse((at, seq, rec)));
            }
        }
        extracted
    }

    fn drain_all(&mut self) -> Vec<Departure> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(d) = self.pop_due(SimTime(u64::MAX)) {
            out.push(d);
        }
        out
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of the driving sequence.
#[derive(Debug, Clone)]
enum Op {
    Push(Departure),
    PopDue(SimTime),
    ExtractActive(ServerId, u32),
    DrainAll,
}

/// Weighted op generator. Small domains on purpose: few servers and a
/// narrow tick range force same-tick ties, same-server collisions, and
/// epoch mismatches — the cases where a subtly wrong tie-break or index
/// link would diverge. Pushes dominate (5:3:1:1) so queues actually grow.
#[derive(Clone, Copy, Debug)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;

    fn generate(&self, rng: &mut TestRng) -> Op {
        match rng.gen_range(0u32..10) {
            0..=4 => Op::Push(Departure {
                at: SimTime(rng.gen_range(0u64..200)),
                server: ServerId(rng.gen_range(0u32..4)),
                video: VideoId(rng.gen_range(0u32..8)),
                kbps: 1_000 + 500 * rng.gen_range(0u64..8),
                backbone_kbps: rng.gen_range(0u64..2) * 300,
                epoch: rng.gen_range(0u32..3),
                stream: vod_sim::event::NO_STREAM,
            }),
            5..=7 => Op::PopDue(SimTime(rng.gen_range(0u64..220))),
            8 => Op::ExtractActive(ServerId(rng.gen_range(0u32..4)), rng.gen_range(0u32..3)),
            _ => Op::DrainAll,
        }
    }
}

/// Every queued departure in `(time, sequence)` order, popped one by
/// one.
fn drain_in_order(q: &mut DepartureQueue) -> Vec<Departure> {
    std::iter::from_fn(|| q.pop_due(SimTime(u64::MAX))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of pushes, due-pops, per-server extractions, and
    /// drains observes identical state and output on both queues.
    #[test]
    fn indexed_queue_matches_reference(ops in prop::collection::vec(OpStrategy, 1..120)) {
        let mut indexed = DepartureQueue::new();
        let mut reference = ReferenceQueue::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(d) => {
                    indexed.push(d);
                    reference.push(d);
                }
                Op::PopDue(now) => {
                    prop_assert_eq!(
                        indexed.pop_due(now),
                        reference.pop_due(now),
                        "pop_due diverged at step {}",
                        step
                    );
                }
                Op::ExtractActive(server, epoch) => {
                    prop_assert_eq!(
                        indexed.extract_active(server, epoch),
                        reference.extract_active(server, epoch),
                        "extract_active diverged at step {}",
                        step
                    );
                }
                Op::DrainAll => {
                    prop_assert_eq!(
                        drain_in_order(&mut indexed),
                        reference.drain_all(),
                        "drain_all diverged at step {}",
                        step
                    );
                }
            }
            prop_assert_eq!(indexed.next_time(), reference.next_time(), "next_time diverged at step {}", step);
            prop_assert_eq!(indexed.len(), reference.len(), "len diverged at step {}", step);
            prop_assert_eq!(indexed.is_empty(), reference.len() == 0);
        }
        // Whatever survives the sequence must drain out identically.
        prop_assert_eq!(drain_in_order(&mut indexed), reference.drain_all());
    }
}
