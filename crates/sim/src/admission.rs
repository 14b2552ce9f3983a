//! Overload admission pipeline: wait queue, patience, retries, backoff.
//!
//! The paper's admission control is pure loss — a request either gets a
//! slot on some replica holder or is rejected on the spot (the Eq. (1)
//! blocking model). Real VoD front-ends are *delay* systems: requests
//! wait in a queue, clients hang up after a patience interval, player
//! software retries with backoff, and a session may start at a thinner
//! encoding when only a partial slot exists. This module supplies that
//! machinery behind a [`QueuePolicy`] knob whose default,
//! [`QueuePolicy::Block`], reproduces the paper's loss behavior exactly
//! (regression-tested byte-for-byte).
//!
//! Determinism: client patience is drawn from a seeded per-run RNG in
//! arrival order, and retry jitter is a pure hash of the request's queue
//! sequence number — identical `(params, seed)` always replays the same
//! run. No wall clock is consulted anywhere.

use crate::time::SimTime;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use vod_model::{ModelError, VideoId};

/// What happens when no replica holder can admit a request at its full
/// bit rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum QueuePolicy {
    /// Reject immediately — the paper's loss model (default).
    #[default]
    Block,
    /// Join a FIFO wait queue; the client abandons after a patience
    /// interval drawn with mean `patience_min` minutes (exponential).
    Queue {
        /// Mean client patience, minutes. `0` degenerates to [`Self::Block`].
        patience_min: f64,
    },
    /// Like `Queue`, but each admission attempt also walks down
    /// [`vod_model::BitRate::LADDER`]: if only a thinner slot exists
    /// *right now*, the session starts degraded instead of waiting.
    QueueOrDegrade {
        /// Mean client patience, minutes. `0` still degrades, never queues.
        patience_min: f64,
    },
}

impl QueuePolicy {
    /// Mean patience in minutes (0 for `Block`).
    pub fn patience_min(&self) -> f64 {
        match self {
            QueuePolicy::Block => 0.0,
            QueuePolicy::Queue { patience_min } | QueuePolicy::QueueOrDegrade { patience_min } => {
                *patience_min
            }
        }
    }

    /// Whether admission attempts may step down the bit-rate ladder.
    pub fn degrades(&self) -> bool {
        matches!(self, QueuePolicy::QueueOrDegrade { .. })
    }
}

/// Admission-pipeline knobs. The default is fully passive: block on the
/// spot, no retries — byte-identical to the pre-pipeline engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Queueing/degradation policy.
    pub policy: QueuePolicy,
    /// How many times a blocked or abandoned request is retried before
    /// it counts as finally rejected/abandoned.
    pub max_retries: u32,
    /// Base retry backoff in minutes; attempt `k` waits
    /// `retry_backoff_min × 2^k` plus deterministic jitter.
    pub retry_backoff_min: f64,
    /// Seed for patience draws and retry jitter (independent of the
    /// workload and failure seeds).
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            policy: QueuePolicy::Block,
            max_retries: 0,
            retry_backoff_min: 0.5,
            seed: 0,
        }
    }
}

impl AdmissionConfig {
    /// Parameter validation with actionable messages: finite non-negative
    /// patience, positive finite backoff.
    pub fn validate(&self) -> Result<(), ModelError> {
        let p = self.policy.patience_min();
        if !p.is_finite() || p < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "admission patience_min (must be finite and >= 0)",
                value: p,
            });
        }
        if !self.retry_backoff_min.is_finite() || self.retry_backoff_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "admission retry_backoff_min (must be finite and > 0)",
                value: self.retry_backoff_min,
            });
        }
        Ok(())
    }

    /// True when the pipeline can never touch a request — no queueing, no
    /// retries, no degradation — so a run is byte-identical to the
    /// pre-pipeline blocking engine.
    pub fn is_passive(&self) -> bool {
        self.max_retries == 0
            && match self.policy {
                QueuePolicy::Block => true,
                QueuePolicy::Queue { patience_min } => patience_min == 0.0,
                QueuePolicy::QueueOrDegrade { .. } => false,
            }
    }
}

/// A request the pipeline is still responsible for: waiting in the queue
/// or sleeping until its next retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingRequest {
    pub video: VideoId,
    /// Requested (full) bit rate.
    pub kbps: u64,
    /// Playback duration at admission, seconds.
    pub duration_s: u64,
    /// Original arrival instant (wait time is measured from here).
    pub arrived: SimTime,
    /// Retries still in budget.
    pub retries_left: u32,
    /// 0 on first arrival; +1 per scheduled retry (drives backoff).
    pub attempt: u32,
}

/// FIFO wait queue + abandonment deadlines + retry timers. All state the
/// engine's event pump needs to treat "abandonment" and "retry" as two
/// additional deterministic event sources.
#[derive(Debug)]
pub(crate) struct AdmissionState {
    patience_min: f64,
    degrades: bool,
    queueing: bool,
    backoff_min: f64,
    jitter_seed: u64,
    patience_rng: ChaCha8Rng,
    /// seq → waiting request; iteration order (ascending seq) is FIFO.
    queue: BTreeMap<u64, PendingRequest>,
    /// (abandonment deadline, seq); entries may be stale (admitted
    /// meanwhile) and are skipped lazily.
    deadlines: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Sleeping requests keyed by (retry instant, seq): the first entry
    /// is the next retry due.
    retries: BTreeMap<(SimTime, u64), PendingRequest>,
    next_seq: u64,
}

impl AdmissionState {
    pub fn new(cfg: &AdmissionConfig) -> Self {
        let patience_min = cfg.policy.patience_min();
        AdmissionState {
            patience_min,
            degrades: cfg.policy.degrades(),
            queueing: !matches!(cfg.policy, QueuePolicy::Block) && patience_min > 0.0,
            backoff_min: cfg.retry_backoff_min,
            jitter_seed: cfg.seed ^ 0x00A1_1CE5_5ED0_u64,
            patience_rng: ChaCha8Rng::seed_from_u64(
                cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.rotate_left(23),
            ),
            queue: BTreeMap::new(),
            deadlines: BinaryHeap::new(),
            retries: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Whether unserved requests wait (vs. retry/reject on the spot).
    pub fn queueing(&self) -> bool {
        self.queueing
    }

    /// Whether admission attempts step down the bit-rate ladder.
    pub fn degrades(&self) -> bool {
        self.degrades
    }

    /// Requests currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests the pipeline still owes an outcome.
    pub fn in_flight(&self) -> u64 {
        (self.queue.len() + self.retries.len()) as u64
    }

    /// Enqueues `req` with a freshly drawn abandonment deadline
    /// (exponential, mean = policy patience). Returns the deadline.
    pub fn enqueue(&mut self, now: SimTime, req: PendingRequest) -> SimTime {
        let u: f64 = self.patience_rng.gen();
        let patience = -self.patience_min * (1.0 - u).ln();
        let deadline = now + SimTime::from_min(patience.min(1e6));
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.insert(seq, req);
        self.deadlines.push(Reverse((deadline, seq)));
        deadline
    }

    /// Earliest live abandonment deadline (stale heap entries are
    /// discarded on the way). With nothing queued every heap entry is
    /// stale, so the hot path returns without popping them — they are
    /// discarded whenever a live deadline is next looked up.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        if self.queue.is_empty() {
            return None;
        }
        while let Some(Reverse((at, seq))) = self.deadlines.peek().copied() {
            if self.queue.contains_key(&seq) {
                return Some(at);
            }
            self.deadlines.pop();
        }
        None
    }

    /// Removes and returns the queued request whose deadline is earliest
    /// and `<= now`, if any.
    pub fn pop_expired(&mut self, now: SimTime) -> Option<PendingRequest> {
        let at = self.next_deadline()?;
        if at > now {
            return None;
        }
        let Reverse((_, seq)) = self.deadlines.pop()?;
        self.queue.remove(&seq)
    }

    /// Schedules a retry of `req` with exponential backoff plus
    /// deterministic jitter; the attempt counter has already been bumped
    /// by the caller. Returns the retry instant.
    pub fn schedule_retry(&mut self, now: SimTime, req: PendingRequest) -> SimTime {
        let seq = self.next_seq;
        self.next_seq += 1;
        // 2^k backoff, exponent capped so the delay stays finite; jitter
        // adds up to +25% from a pure hash of (seed, seq).
        let exp = req.attempt.saturating_sub(1).min(16);
        let base = self.backoff_min * f64::powi(2.0, exp as i32);
        let jitter = splitmix64(self.jitter_seed ^ seq) as f64 / u64::MAX as f64;
        let at = now + SimTime::from_min(base * (1.0 + 0.25 * jitter));
        self.retries.insert((at, seq), req);
        at
    }

    /// Earliest pending retry instant.
    pub fn next_retry(&self) -> Option<SimTime> {
        self.retries.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Removes and returns the earliest retry due at or before `now`.
    pub fn pop_due_retry(&mut self, now: SimTime) -> Option<PendingRequest> {
        if self.next_retry()? > now {
            return None;
        }
        self.retries.pop_first().map(|(_, req)| req)
    }

    /// The waiting requests in FIFO order (test convenience; the engine
    /// drains through [`Self::fifo_seqs_into`]).
    #[cfg(test)]
    pub fn fifo_seqs(&self) -> Vec<u64> {
        self.queue.keys().copied().collect()
    }

    /// The waiting requests in FIFO order, into a reusable buffer
    /// (cleared first) — the engine's post-event drain path, so steady
    /// state allocates nothing.
    pub fn fifo_seqs_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.queue.keys().copied());
    }

    /// The waiting request with sequence number `seq`, if still queued.
    pub fn get(&self, seq: u64) -> Option<PendingRequest> {
        self.queue.get(&seq).copied()
    }

    /// Removes a waiting request (admitted via drain).
    pub fn remove(&mut self, seq: u64) {
        self.queue.remove(&seq);
    }

    /// Drains every request the pipeline still owns (end-of-run flush).
    pub fn drain_remaining(&mut self) -> Vec<PendingRequest> {
        let mut out: Vec<PendingRequest> = std::mem::take(&mut self.queue).into_values().collect();
        out.extend(std::mem::take(&mut self.retries).into_values());
        self.deadlines.clear();
        out
    }
}

/// SplitMix64 — a tiny, well-mixed pure hash for retry jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrived_min: f64) -> PendingRequest {
        PendingRequest {
            video: VideoId(0),
            kbps: 4_000,
            duration_s: 600,
            arrived: SimTime::from_min(arrived_min),
            retries_left: 2,
            attempt: 0,
        }
    }

    fn cfg(policy: QueuePolicy) -> AdmissionConfig {
        AdmissionConfig {
            policy,
            max_retries: 2,
            retry_backoff_min: 0.5,
            seed: 7,
        }
    }

    #[test]
    fn default_config_is_passive_and_valid() {
        let c = AdmissionConfig::default();
        assert!(c.is_passive());
        c.validate().unwrap();
    }

    #[test]
    fn zero_patience_queue_is_passive_but_degrade_is_not() {
        let mut c = AdmissionConfig {
            policy: QueuePolicy::Queue { patience_min: 0.0 },
            ..AdmissionConfig::default()
        };
        assert!(c.is_passive());
        c.policy = QueuePolicy::QueueOrDegrade { patience_min: 0.0 };
        assert!(!c.is_passive(), "degrade-at-admission still acts");
        c.policy = QueuePolicy::Block;
        c.max_retries = 1;
        assert!(!c.is_passive(), "retries act even under Block");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad_patience = AdmissionConfig {
            policy: QueuePolicy::Queue { patience_min: -1.0 },
            ..AdmissionConfig::default()
        };
        assert!(bad_patience.validate().is_err());
        let bad_backoff = AdmissionConfig {
            retry_backoff_min: 0.0,
            ..AdmissionConfig::default()
        };
        assert!(bad_backoff.validate().is_err());
        let nan_patience = AdmissionConfig {
            policy: QueuePolicy::QueueOrDegrade {
                patience_min: f64::NAN,
            },
            ..AdmissionConfig::default()
        };
        assert!(nan_patience.validate().is_err());
    }

    #[test]
    fn fifo_order_and_lazy_deadlines() {
        let mut s = AdmissionState::new(&cfg(QueuePolicy::Queue { patience_min: 5.0 }));
        assert!(s.queueing());
        let now = SimTime::from_min(1.0);
        let d0 = s.enqueue(now, req(1.0));
        let d1 = s.enqueue(now, req(1.0));
        assert!(d0 > now && d1 > now);
        assert_eq!(s.fifo_seqs(), vec![0, 1]);
        // Admitting the head makes its deadline entry stale: only seq 1's
        // deadline remains live.
        s.remove(0);
        assert_eq!(s.next_deadline(), Some(d1));
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn pop_expired_respects_now() {
        let mut s = AdmissionState::new(&cfg(QueuePolicy::Queue { patience_min: 1.0 }));
        let deadline = s.enqueue(SimTime::ZERO, req(0.0));
        assert!(s.pop_expired(deadline - SimTime(1)).is_none());
        let popped = s.pop_expired(deadline).unwrap();
        assert_eq!(popped.arrived, SimTime::ZERO);
        assert_eq!(s.queue_len(), 0);
        assert!(s.next_deadline().is_none());
    }

    #[test]
    fn retry_backoff_grows_and_jitter_is_deterministic() {
        let mk = || AdmissionState::new(&cfg(QueuePolicy::Block));
        let mut a = mk();
        let mut b = mk();
        let now = SimTime::ZERO;
        let r1 = PendingRequest {
            attempt: 1,
            ..req(0.0)
        };
        let r3 = PendingRequest {
            attempt: 3,
            ..req(0.0)
        };
        let t1a = a.schedule_retry(now, r1);
        let t1b = b.schedule_retry(now, r1);
        assert_eq!(t1a, t1b, "jitter must be deterministic");
        let t3 = a.schedule_retry(now, r3);
        // Attempt 3 backs off 4x the base: strictly later even with
        // maximal jitter on attempt 1 (1.25 × base < 4 × base).
        assert!(t3 > t1a);
        assert_eq!(a.retries.len(), 2);
        assert_eq!(a.pop_due_retry(t1a).unwrap().attempt, 1);
        assert!(a.pop_due_retry(t1a).is_none(), "t3 not due yet");
    }

    #[test]
    fn drain_remaining_flushes_everything() {
        let mut s = AdmissionState::new(&cfg(QueuePolicy::Queue { patience_min: 9.0 }));
        s.enqueue(SimTime::ZERO, req(0.0));
        s.schedule_retry(SimTime::ZERO, req(0.5));
        let rest = s.drain_remaining();
        assert_eq!(rest.len(), 2);
        assert_eq!(s.in_flight(), 0);
        assert!(s.next_deadline().is_none());
        assert!(s.next_retry().is_none());
    }

    #[test]
    fn patience_draws_are_seeded() {
        let mut a = AdmissionState::new(&cfg(QueuePolicy::Queue { patience_min: 2.0 }));
        let mut b = AdmissionState::new(&cfg(QueuePolicy::Queue { patience_min: 2.0 }));
        for k in 0..10 {
            let now = SimTime::from_min(k as f64);
            assert_eq!(a.enqueue(now, req(0.0)), b.enqueue(now, req(0.0)));
        }
    }
}
