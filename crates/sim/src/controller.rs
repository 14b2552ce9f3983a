//! The online replication controller: sense → decide → actuate.
//!
//! The paper chooses replication degrees once, offline, for a static
//! popularity vector (Eqs. 2–4). This module closes the loop at run
//! time: it *senses* per-video demand from the arrivals the engine
//! actually observes (a windowed EWMA — never the workload generator's
//! true rates), *decides* new target replication degrees under the
//! Eq. 4 storage budget on a periodic control tick, and *actuates*
//! through the same metered copy machinery failure repair uses
//! (`crate::actuation`), so re-replication traffic competes for the
//! [`crate::RepairConfig`] bandwidth budget and never oversubscribes a
//! link or a disk.
//!
//! Three mechanisms keep the controller from thrashing on rank noise:
//!
//! * **hysteresis** — a video's target rises as soon as the apportioned
//!   degree exceeds it, but falls only after
//!   [`ControllerConfig::cooldown_ticks`] *consecutive* ticks of cooled
//!   demand — and even then only on demand: a cooled video is demoted
//!   when (and only when) a pending raise needs its slot, so a cluster
//!   with spare storage never pays retire-then-recopy churn for the
//!   apportionment's marginal-seat noise;
//! * **a change budget** — at most
//!   [`ControllerConfig::max_changes_per_tick`] videos move per tick,
//!   hottest promotions first, coldest demotions last;
//! * **backoff** — a tick does nothing (beyond updating estimators)
//!   while a server is down, failure repair has copies in flight, or
//!   cluster streaming utilization exceeds 95 % of effective capacity —
//!   QoS traffic and outage recovery always win over rebalancing.
//!
//! Determinism: the estimator is integer fixed-point (16.16), the
//! apportionment compares rates by `u128` cross-multiplication (no
//! float division), every tie breaks on the lower video id, and ticks
//! fire at fixed instants *after* all other events due at the same
//! instant. A run with the controller enabled is a pure function of
//! (trace, config); the controller is a cluster-coupling feature, so
//! the engine runs it on the serial loop at any shard count (see
//! `Simulation::decoupled_plan`).

use crate::actuation::ReplicaActuator;
use crate::dispatch::Dispatcher;
use crate::server::LinkState;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use vod_model::ModelError;

/// Fixed-point scale of the rate estimator (16.16).
const FP: u64 = 1 << 16;

/// A tick backs off when cluster streaming utilization exceeds this
/// percent of effective capacity.
const OVERLOAD_HEADROOM_PCT: u64 = 95;

/// Online replication controller knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Control-tick cadence in minutes; `0.0` disables the controller
    /// (the default — the engine is byte-identical to pre-controller
    /// builds). Re-replication additionally requires
    /// [`crate::RepairConfig::bandwidth_kbps`] > 0: the controller
    /// actuates through the shared repair-bandwidth budget.
    pub tick_min: f64,
    /// EWMA window in ticks: the per-tick arrival count enters the
    /// estimate with weight `1/ewma_window_ticks`.
    pub ewma_window_ticks: u32,
    /// Consecutive cool ticks required before a video's target is
    /// lowered (raises apply immediately).
    pub cooldown_ticks: u32,
    /// Maximum videos whose target may move in one tick.
    pub max_changes_per_tick: usize,
}

impl Default for ControllerConfig {
    /// Controller off; sensing/decision knobs at their studied defaults.
    fn default() -> Self {
        ControllerConfig {
            tick_min: 0.0,
            ewma_window_ticks: 4,
            cooldown_ticks: 3,
            max_changes_per_tick: 8,
        }
    }
}

impl ControllerConfig {
    /// Whether the controller runs at all.
    pub fn enabled(&self) -> bool {
        self.tick_min > 0.0
    }

    /// Validates the knobs (called at [`crate::Simulation::new`]).
    pub fn validate(&self) -> Result<(), ModelError> {
        if !self.tick_min.is_finite() || self.tick_min < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "controller.tick_min",
                value: self.tick_min,
            });
        }
        if self.ewma_window_ticks == 0 {
            return Err(ModelError::InvalidParameter {
                name: "controller.ewma_window_ticks",
                value: 0.0,
            });
        }
        if self.enabled() && self.max_changes_per_tick == 0 {
            return Err(ModelError::InvalidParameter {
                name: "controller.max_changes_per_tick",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// One candidate replica grant in the greedy apportionment: video
/// `video` (estimated rate `rate`, fixed-point) bidding for its
/// `next_degree`-th replica. Max-heap priority is `rate / next_degree`
/// compared exactly by cross-multiplication; ties break to the lower
/// video id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bid {
    rate: u64,
    next_degree: u32,
    video: u32,
}

impl Ord for Bid {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self.rate as u128 * other.next_degree as u128;
        let b = other.rate as u128 * self.next_degree as u128;
        a.cmp(&b).then_with(|| other.video.cmp(&self.video))
    }
}

impl PartialOrd for Bid {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Sensing and decision state of the online controller. The engine
/// feeds it observed arrivals ([`Self::observe`]) and fires
/// [`Self::tick`] on the control cadence; actuation goes through the
/// shared [`ReplicaActuator`].
#[derive(Debug)]
pub(crate) struct DriftController {
    cfg: ControllerConfig,
    /// Arrivals per video since the last tick.
    window: Vec<u64>,
    /// Fixed-point (16.16) EWMA of per-tick arrival counts.
    est: Vec<u64>,
    /// The first tick seeds the estimator directly from its window.
    seeded: bool,
    /// Consecutive ticks each video's apportioned degree sat below its
    /// current target (the demotion hysteresis counter).
    cool: Vec<u32>,
    /// Scratch: desired degrees recomputed each tick.
    desired: Vec<u32>,
    /// Scratch: integer weights handed to the actuator's replanner.
    weights: Vec<u64>,
    /// Scratch: the apportionment's bid heap storage, and the videos a
    /// tick would raise and may lower.
    bids: Vec<Bid>,
    /// Where the next apportionment tries to cut the bids it grants
    /// without the heap (a hint: see [`Self::apportion`]).
    threshold: u64,
    raises: Vec<u32>,
    lowers: Vec<u32>,
    // Stats (published as `sim.controller.*` and in the report).
    ticks: u64,
    backoffs: u64,
    promotions: u64,
    demotions: u64,
    retired: u64,
}

impl DriftController {
    pub fn new(n_videos: usize, cfg: ControllerConfig) -> Self {
        DriftController {
            cfg,
            window: vec![0; n_videos],
            est: vec![0; n_videos],
            seeded: false,
            cool: vec![0; n_videos],
            desired: vec![0; n_videos],
            weights: vec![0; n_videos],
            bids: Vec::new(),
            threshold: 0,
            raises: Vec::new(),
            lowers: Vec::new(),
            ticks: 0,
            backoffs: 0,
            promotions: 0,
            demotions: 0,
            retired: 0,
        }
    }

    /// Records one observed arrival for video `v` (called per request,
    /// before admission — the controller sees offered demand, not the
    /// admitted subset).
    #[inline]
    pub fn observe(&mut self, v: usize) {
        self.window[v] += 1;
    }

    /// Control ticks fired.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks that backed off without moving targets.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// Targets raised.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Targets lowered.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Replicas retired by demotions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cluster streaming utilization check: busy when used streaming
    /// bandwidth exceeds `OVERLOAD_HEADROOM_PCT` of the effective
    /// capacity of up servers. Pure integer math.
    fn overloaded(&self, links: &LinkState) -> bool {
        let mut used = 0u64;
        let mut cap = 0u64;
        for (j, &u) in links.used_kbps().iter().enumerate() {
            let s = vod_model::ServerId(j as u32);
            if links.is_up(s) {
                used += u;
                cap += links.effective_capacity_kbps(s);
            }
        }
        used * 100 > cap * OVERLOAD_HEADROOM_PCT
    }

    /// Recomputes desired replication degrees from the rate estimates by
    /// greedy proportional apportionment under the cluster-wide replica
    /// slot budget: every video keeps one replica; each further slot
    /// goes to the video maximizing `rate / next_degree` (exact
    /// cross-multiplied comparison, ties to the lower id), capped at one
    /// replica per server. Zero-rate videos never bid beyond degree 1.
    ///
    /// The greedy grants the top bids of a total order (rate / degree
    /// descending, then video id). The bids strictly above an integer
    /// threshold `t` are a top slice of that order, so when there are
    /// no more of them than spare slots they are granted first, in one
    /// division per video; a heap of each video's next bid grants the
    /// rest. Last tick's threshold (plus a margin) usually fits;
    /// `⌈Σ rate / spare slots⌉` always does, since a video at rate `r`
    /// has at most `r / t` bids above `t`.
    fn apportion(&mut self, budget: u64, n_servers: usize) {
        let m = self.est.len() as u64;
        let spare = budget.saturating_sub(m);
        // Bids exist for degrees 2..=max(N, 2): the degree-2 bid is
        // always placed, later ones only below the server count.
        let cap = (n_servers as u64).max(2);
        let above = |r: u64, t: u64| {
            if r == 0 {
                0
            } else {
                ((r - 1) / t).clamp(1, cap) - 1
            }
        };
        let total: u128 = self.est.iter().map(|&r| u128::from(r)).sum();
        let safe = if spare == 0 {
            u64::MAX
        } else {
            total
                .div_ceil(u128::from(spare))
                .clamp(1, u128::from(u64::MAX)) as u64
        };
        let hint = self.threshold;
        let t = if hint > 0
            && hint < safe
            && self.est.iter().map(|&r| above(r, hint)).sum::<u64>() <= spare
        {
            hint
        } else {
            safe
        };
        let mut bids = std::mem::take(&mut self.bids);
        bids.clear();
        let mut used = m;
        for (v, (d, &r)) in self.desired.iter_mut().zip(&self.est).enumerate() {
            let granted = above(r, t);
            *d = 1 + granted as u32;
            used += granted;
            if r > 0 && u64::from(*d) < cap {
                bids.push(Bid {
                    rate: r,
                    next_degree: *d + 1,
                    video: v as u32,
                });
            }
        }
        // The winning bid is re-keyed in place: one sift instead of a
        // pop and a push. Every bid is distinct under the order of
        // [`Bid`], so the grants do not depend on the heap's layout.
        let mut heap = BinaryHeap::from(bids);
        let mut last = t;
        while used < budget {
            let Some(mut top) = heap.peek_mut() else {
                break;
            };
            self.desired[top.video as usize] = top.next_degree;
            last = top.rate / u64::from(top.next_degree);
            used += 1;
            if (top.next_degree as usize) < n_servers {
                top.next_degree += 1;
            } else {
                PeekMut::pop(top);
            }
        }
        self.threshold = last.saturating_add(last / 16 + 1);
        self.bids = heap.into_vec();
    }

    /// One control tick: fold the arrival window into the EWMA, then —
    /// unless backing off — reapportion degrees and apply up to the
    /// change budget of target moves, hottest promotions first. A raise
    /// draws on the free slot budget; when that runs dry it demotes
    /// cooled videos (coldest first, past their cooldown) to fund the
    /// slots — demotion never happens without a raise demanding the
    /// space. Actuation: fills are queued and pumped, retired surplus
    /// freed, destinations replanned from the *observed* rate estimates.
    pub fn tick(
        &mut self,
        now: SimTime,
        actuator: &mut ReplicaActuator,
        links: &mut LinkState,
        dispatcher: &mut Dispatcher,
    ) {
        self.ticks += 1;
        let k = self.cfg.ewma_window_ticks as u64;
        for (e, w) in self.est.iter_mut().zip(self.window.iter_mut()) {
            let obs = *w * FP;
            *e = if self.seeded {
                *e - *e / k + obs / k
            } else {
                obs
            };
            *w = 0;
        }
        self.seeded = true;

        // QoS and outage recovery outrank rebalancing: while a server is
        // down, repair owns the copy budget; while streaming runs hot,
        // nothing competes with it.
        if actuator.any_down() || actuator.repair_copies_in_flight() > 0 || self.overloaded(links) {
            self.backoffs += 1;
            return;
        }

        let n = actuator.n_servers();
        self.apportion(actuator.slot_budget(), n);

        // Classify with hysteresis.
        let mut raises = std::mem::take(&mut self.raises);
        let mut lowers = std::mem::take(&mut self.lowers);
        raises.clear();
        lowers.clear();
        for v in 0..self.desired.len() {
            let cur = actuator.target(v);
            let want = self.desired[v];
            if want > cur {
                self.cool[v] = 0;
                raises.push(v as u32);
            } else if want < cur {
                self.cool[v] += 1;
                if self.cool[v] >= self.cfg.cooldown_ticks {
                    lowers.push(v as u32);
                }
            } else {
                self.cool[v] = 0;
            }
        }
        // Hottest first; ties to the lower id.
        raises.sort_by_key(|&v| (std::cmp::Reverse(self.est[v as usize]), v));
        // Coldest first; ties to the lower id.
        lowers.sort_by_key(|&v| (self.est[v as usize], v));

        let mut changes = self.cfg.max_changes_per_tick;
        let now_min = now.as_min();
        let mut moved = false;
        let mut free = actuator
            .slot_budget()
            .saturating_sub(actuator.target_slots());
        let mut lower_pool = lowers.iter().copied();
        for &v in &raises {
            if changes == 0 {
                break;
            }
            let v = v as usize;
            let need = (self.desired[v] - actuator.target(v)) as u64;
            // Fund the raise: demote cooled videos, coldest first, until
            // enough slots are free. No raise pending ⇒ no demotion.
            while free < need && changes > 0 {
                let Some(c) = lower_pool.next() else { break };
                let c = c as usize;
                free += (actuator.target(c) - self.desired[c]) as u64;
                actuator.set_target(now_min, c, self.desired[c]);
                self.retired += actuator.retire_to_target(c) as u64;
                self.cool[c] = 0;
                self.demotions += 1;
                changes -= 1;
                moved = true;
            }
            if changes == 0 || free == 0 {
                break;
            }
            // Partial raises are fine: next tick tops the target up once
            // more slots free.
            let step = need.min(free) as u32;
            actuator.set_target(now_min, v, actuator.target(v) + step);
            actuator.request_fill(v);
            free -= step as u64;
            self.promotions += 1;
            changes -= 1;
            moved = true;
        }
        self.raises = raises;
        self.lowers = lowers;

        if moved {
            for (w, &e) in self.weights.iter_mut().zip(&self.est) {
                *w = e / FP;
            }
            let weights = std::mem::take(&mut self.weights);
            actuator.replan(&weights);
            self.weights = weights;
            actuator.pump(now, links, dispatcher);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off_and_valid() {
        let cfg = ControllerConfig::default();
        assert!(!cfg.enabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        let bad_tick = ControllerConfig {
            tick_min: f64::NAN,
            ..Default::default()
        };
        assert!(bad_tick.validate().is_err());
        let bad_window = ControllerConfig {
            ewma_window_ticks: 0,
            ..Default::default()
        };
        assert!(bad_window.validate().is_err());
        let bad_budget = ControllerConfig {
            tick_min: 5.0,
            max_changes_per_tick: 0,
            ..Default::default()
        };
        assert!(bad_budget.validate().is_err());
    }

    #[test]
    fn apportionment_is_proportional_and_capped() {
        let mut d = DriftController::new(4, ControllerConfig::default());
        d.est = vec![8 * FP, 4 * FP, 0, FP];
        // Budget 8 slots over 4 servers (D'Hondt grants: 8/2, 8/3, then
        // the 8/4 = 4/2 tie to the lower id, then 4/2): v0 takes the
        // cap, v2 idle stays at 1.
        d.apportion(8, 4);
        assert_eq!(d.desired, vec![4, 2, 1, 1]);
        // A huge budget caps every bidding video at one replica/server.
        d.apportion(1_000, 4);
        assert_eq!(d.desired, vec![4, 4, 1, 4]);
        // Budget below the floor leaves everyone at one replica.
        d.apportion(2, 4);
        assert_eq!(d.desired, vec![1, 1, 1, 1]);
    }

    /// The plain greedy: every bid through one heap, popped and pushed.
    fn apportion_reference(est: &[u64], budget: u64, n_servers: usize) -> Vec<u32> {
        let mut desired = vec![1u32; est.len()];
        let mut heap: BinaryHeap<Bid> = est
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0)
            .map(|(v, &r)| Bid {
                rate: r,
                next_degree: 2,
                video: v as u32,
            })
            .collect();
        let mut used = est.len() as u64;
        while used < budget {
            let Some(bid) = heap.pop() else { break };
            desired[bid.video as usize] = bid.next_degree;
            used += 1;
            if (bid.next_degree as usize) < n_servers {
                heap.push(Bid {
                    next_degree: bid.next_degree + 1,
                    ..bid
                });
            }
        }
        desired
    }

    proptest::proptest! {
        /// Threshold pre-granting reproduces the plain greedy, tick after
        /// tick (the threshold hint carries over), on rates full of ties
        /// and zeros, for budgets below, at and far above the catalog.
        #[test]
        fn apportionment_matches_plain_greedy(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let m = rng.gen_range(1..40usize);
            let n = rng.gen_range(1..12usize);
            let mut d = DriftController::new(m, ControllerConfig::default());
            let scale = [1u64, 7, FP, 1 << 40][rng.gen_range(0..4usize)];
            for tick in 0..8u32 {
                if tick.is_multiple_of(2) {
                    d.est = (0..m)
                        .map(|_| rng.gen_range(0..6u64) * scale + rng.gen_range(0..2u64))
                        .collect();
                } else {
                    // A small drift, so last tick's threshold is a near miss
                    // or a fit.
                    for r in &mut d.est {
                        *r += rng.gen_range(0..2u64) * scale / 4;
                    }
                }
                let budget = rng.gen_range(0..(m * n + 4) as u64);
                d.apportion(budget, n);
                proptest::prop_assert_eq!(&d.desired, &apportion_reference(&d.est, budget, n));
            }
        }
    }

    #[test]
    fn apportionment_ties_break_to_lower_id() {
        let mut d = DriftController::new(3, ControllerConfig::default());
        d.est = vec![5 * FP, 5 * FP, 5 * FP];
        // One spare slot: equal rates, v0 must win deterministically.
        d.apportion(4, 3);
        assert_eq!(d.desired, vec![2, 1, 1]);
    }

    #[test]
    fn ewma_tracks_and_decays() {
        let cfg = ControllerConfig {
            tick_min: 1.0,
            ewma_window_ticks: 4,
            ..Default::default()
        };
        let mut d = DriftController::new(1, cfg);
        // Seed tick: estimate = observation exactly.
        d.window[0] = 100;
        let k = 4u64;
        let mut est = 100 * FP;
        d.fold_for_test();
        assert_eq!(d.est[0], est);
        // Demand stops: the estimate decays by 1/k per tick, never
        // negative, and matches the closed-form recurrence exactly.
        for _ in 0..10 {
            d.fold_for_test();
            est = est - est / k;
            assert_eq!(d.est[0], est);
        }
        assert!(d.est[0] < 10 * FP);
    }

    impl DriftController {
        /// Test-only: run just the estimator fold of a tick.
        fn fold_for_test(&mut self) {
            let k = self.cfg.ewma_window_ticks as u64;
            for (e, w) in self.est.iter_mut().zip(self.window.iter_mut()) {
                let obs = *w * FP;
                *e = if self.seeded {
                    *e - *e / k + obs / k
                } else {
                    obs
                };
                *w = 0;
            }
            self.seeded = true;
        }
    }
}
