//! Pull-based streaming arrival sources.
//!
//! The materialized pipeline (a generator → [`Trace`] → engine)
//! allocates the full request vector before the first event fires; at
//! production scale (multi-day diurnal traces, millions of users) that
//! is tens of GiB. An [`ArrivalSource`] instead yields requests one at a
//! time in arrival order with O(per-catalog) state, so the engine can
//! pull arrivals lazily and merge the next-arrival time into its
//! `(time, seq)` event ordering.
//!
//! ## Time-varying rates
//!
//! [`ThinnedWorkload`] generates non-homogeneous Poisson arrivals via
//! Lewis–Shedler thinning: candidate gaps at the envelope rate `λ_max`,
//! each accepted with probability `λ(t)/λ_max`. The rate shape
//! ([`RateModel`]) composes a diurnal sinusoid, scheduled flash-crowd
//! pulses, and a catalog-churn modulator that rotates which titles are
//! hot as epochs pass — the production-scale arrival shapes of
//! arXiv:1307.0849. Over [`RateModel::constant`] it is a homogeneous
//! Poisson/Zipf workload of the paper's kind (statistically, not draw
//! for draw, the one `TraceGenerator` draws), and every candidate is
//! accepted without evaluating `λ(t)`.
//!
//! ## Draw-for-draw identity
//!
//! [`ThinnedWorkload`] has a materialized [`ThinnedWorkload::generate`]
//! and a streaming [`ThinnedWorkload::stream`] twin that is
//! **request-for-request identical** to it at the same seed — that is
//! how the streamed and materialized engine reports stay byte-identical.
//! `generate` draws the *whole* thinning stream first (every candidate
//! gap and acceptance draw, including the final horizon-overshoot gap),
//! then the per-request video choices. A naive stream would interleave
//! gap and video draws and diverge immediately. [`StreamingThinned`]
//! instead keeps **two clones of the seeded RNG**:
//!
//! * the *gap clone* replays the thinning stream lazily, one accepted
//!   arrival at a time;
//! * the *video clone* is advanced through the entire thinning pre-pass
//!   at construction (same number of draws, O(1) memory), leaving it
//!   parked exactly where `generate` starts sampling videos.
//!
//! Each `next_request` then takes its instant from the first clone and
//! its video from the second — the exact draw sequence of the
//! materialized path, paid for with one extra O(n)-time, O(1)-memory
//! pass at construction. The paper's [`TraceGenerator`](crate::TraceGenerator)
//! and A-7's [`DriftingWorkload`](crate::DriftingWorkload) only
//! materialize; the engine replays their [`Trace`]s directly.

use crate::trace::{Request, Trace};
use crate::zipf::ZipfSampler;
use rand::Rng;
use vod_model::{ModelError, Popularity};

/// A pull-based request stream in arrival order.
///
/// Implementations yield requests with finite, non-negative,
/// non-decreasing `arrival_min` (see [`Request::check_after`], which the
/// engine applies to every pulled request) and terminate at their
/// horizon. The engine pulls a source once, whatever its shard count.
pub trait ArrivalSource {
    /// The next request, or `None` once the horizon is reached.
    fn next_request(&mut self) -> Option<Request>;

    /// The stream's horizon in minutes (requests all arrive before it).
    fn horizon_min(&self) -> f64;
}

/// Adapts any [`ArrivalSource`] into an [`Iterator`] for engine loops.
#[derive(Debug, Clone)]
pub struct ArrivalIter<S>(pub S);

impl<S: ArrivalSource> Iterator for ArrivalIter<S> {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        self.0.next_request()
    }
}

/// A diurnal load cycle: `λ(t) = base · (1 + amplitude·sin(2πt/period))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCycle {
    /// Cycle length in minutes (1440 for a day).
    pub period_min: f64,
    /// Relative swing in `[0, 1)`; 0.6 means peaks 1.6× and troughs
    /// 0.4× the base rate.
    pub amplitude: f64,
}

/// A scheduled rate pulse (flash crowd on a new release): the arrival
/// rate is multiplied by `multiplier` on `[start_min, start_min +
/// duration_min)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePulse {
    /// Pulse onset, minutes from the start of the run.
    pub start_min: f64,
    /// Pulse length in minutes.
    pub duration_min: f64,
    /// Rate multiple while active (`≥ 1`).
    pub multiplier: f64,
}

/// A time-varying arrival rate `λ(t)`: base rate × optional diurnal
/// sinusoid × any active flash-crowd pulses. The envelope
/// [`RateModel::max_rate`] upper-bounds `λ(t)` for Lewis–Shedler
/// thinning.
#[derive(Debug, Clone, PartialEq)]
pub struct RateModel {
    base_per_min: f64,
    diurnal: Option<DiurnalCycle>,
    pulses: Vec<RatePulse>,
}

impl RateModel {
    /// A constant rate of `base_per_min` arrivals per minute.
    pub fn constant(base_per_min: f64) -> Result<Self, ModelError> {
        if !base_per_min.is_finite() || base_per_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "lambda",
                value: base_per_min,
            });
        }
        Ok(RateModel {
            base_per_min,
            diurnal: None,
            pulses: Vec::new(),
        })
    }

    /// Adds a diurnal cycle.
    pub fn with_diurnal(mut self, cycle: DiurnalCycle) -> Result<Self, ModelError> {
        if !cycle.period_min.is_finite() || cycle.period_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "diurnal.period_min",
                value: cycle.period_min,
            });
        }
        if !cycle.amplitude.is_finite() || !(0.0..1.0).contains(&cycle.amplitude) {
            return Err(ModelError::InvalidParameter {
                name: "diurnal.amplitude",
                value: cycle.amplitude,
            });
        }
        self.diurnal = Some(cycle);
        Ok(self)
    }

    /// Adds scheduled flash-crowd rate pulses.
    pub fn with_pulses(mut self, pulses: Vec<RatePulse>) -> Result<Self, ModelError> {
        for p in &pulses {
            if !p.start_min.is_finite() || p.start_min < 0.0 {
                return Err(ModelError::InvalidParameter {
                    name: "pulse.start_min",
                    value: p.start_min,
                });
            }
            if !p.duration_min.is_finite() || p.duration_min <= 0.0 {
                return Err(ModelError::InvalidParameter {
                    name: "pulse.duration_min",
                    value: p.duration_min,
                });
            }
            if !p.multiplier.is_finite() || p.multiplier < 1.0 {
                return Err(ModelError::InvalidParameter {
                    name: "pulse.multiplier",
                    value: p.multiplier,
                });
            }
        }
        self.pulses = pulses;
        Ok(self)
    }

    /// The instantaneous rate at minute `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let mut rate = self.base_per_min;
        if let Some(d) = &self.diurnal {
            rate *= 1.0 + d.amplitude * (2.0 * std::f64::consts::PI * t / d.period_min).sin();
        }
        for p in &self.pulses {
            if t >= p.start_min && t < p.start_min + p.duration_min {
                rate *= p.multiplier;
            }
        }
        rate
    }

    /// A (possibly loose) upper bound on `λ(t)` over all `t`: base ×
    /// diurnal peak × the product of all pulse multipliers. Looseness
    /// only costs extra rejected thinning candidates, never correctness.
    pub fn max_rate(&self) -> f64 {
        let mut rate = self.base_per_min;
        if let Some(d) = &self.diurnal {
            rate *= 1.0 + d.amplitude;
        }
        for p in &self.pulses {
            rate *= p.multiplier;
        }
        rate
    }

    /// The base rate in arrivals per minute.
    #[inline]
    pub fn base_per_min(&self) -> f64 {
        self.base_per_min
    }

    /// Mean of `λ(t)` over `[0, horizon_min)` by midpoint quadrature —
    /// used for sizing expected request volumes.
    pub fn mean_rate(&self, horizon_min: f64) -> f64 {
        let steps = 4096;
        let dt = horizon_min / steps as f64;
        (0..steps)
            .map(|i| self.rate_at((i as f64 + 0.5) * dt))
            .sum::<f64>()
            / steps as f64
    }

    /// The thinning envelope over `[0, horizon_min)`: per-cell bounds on
    /// [`RateModel::rate_at`] (see [`ThinningEnvelope`]).
    fn envelope(&self, horizon_min: f64) -> ThinningEnvelope {
        let width = horizon_min / ENVELOPE_CELLS as f64;
        // A candidate whose cell index rounds across a boundary still
        // lies in the widened span: the index is off by at most ~1e-12
        // of a cell.
        let margin = width / 1024.0;
        let bounds = (0..ENVELOPE_CELLS)
            .map(|i| self.bounds_over(i as f64 * width - margin, (i + 1) as f64 * width + margin))
            .collect();
        ThinningEnvelope {
            lam_max: self.max_rate(),
            cells_per_min: ENVELOPE_CELLS as f64 / horizon_min,
            bounds,
        }
    }

    /// Bounds `(lo, hi)` on the value `rate_at(t)` computes for every `t`
    /// in `[a, b]`, or `(0, ∞)` when a pulse edge lies inside the span.
    ///
    /// The sine is bounded by its Lipschitz constant around the span's
    /// midpoint (`|sin x − sin x_mid| ≤ |x − x_mid|`) and padded by 1e-9
    /// for `sin`'s own rounding; both bounds then go through
    /// `rate_at`'s exact sequence of operations. Every step is monotone
    /// in the sine, and IEEE rounding preserves that, so the computed
    /// rate at any `t` in the span lies between them.
    fn bounds_over(&self, a: f64, b: f64) -> (f64, f64) {
        const SINE_PAD: f64 = 1e-9;
        let mid = 0.5 * (a + b);
        let (mut lo, mut hi) = (self.base_per_min, self.base_per_min);
        if let Some(d) = &self.diurnal {
            let s = (2.0 * std::f64::consts::PI * mid / d.period_min).sin();
            let reach = std::f64::consts::PI * (b - a) / d.period_min;
            lo *= 1.0 + d.amplitude * ((s - reach).max(-1.0) - SINE_PAD);
            hi *= 1.0 + d.amplitude * ((s + reach).min(1.0) + SINE_PAD);
        }
        for p in &self.pulses {
            let end = p.start_min + p.duration_min;
            if (a..=b).contains(&p.start_min) || (a..=b).contains(&end) {
                return (0.0, f64::INFINITY);
            }
            if mid >= p.start_min && mid < end {
                lo *= p.multiplier;
                hi *= p.multiplier;
            }
        }
        (lo, hi)
    }
}

/// Cells of a [`ThinningEnvelope`] over the workload's horizon.
const ENVELOPE_CELLS: usize = 4096;

/// Lewis–Shedler thinning against `λ_max` with a piecewise-constant
/// squeeze: [`ENVELOPE_CELLS`] cells over the horizon, each holding
/// bounds `lo ≤ λ(t) ≤ hi` from [`RateModel::bounds_over`]. A candidate
/// whose scaled acceptance draw clears `hi` is rejected, and one under
/// `lo` accepted, without evaluating `λ(t)`; only the sliver between
/// them (and cells holding a pulse edge) takes the exact test. Every
/// decision equals `accept·λ_max < λ(t)`, so the accepted instants are
/// bit-identical to testing each candidate exactly.
#[derive(Debug, Clone)]
struct ThinningEnvelope {
    lam_max: f64,
    cells_per_min: f64,
    bounds: Vec<(f64, f64)>,
}

impl ThinningEnvelope {
    /// Advances `*t` through the thinning stream — one gap draw per
    /// candidate, and one acceptance draw per candidate inside the
    /// horizon — to the next accepted instant, or returns `false` once a
    /// candidate reaches `horizon_min`. The one draw sequence both twins
    /// of [`ThinnedWorkload`] share; [`ThinnedWorkload::stream`]'s
    /// pre-pass repeats its draws.
    #[inline]
    fn next_instant<R: Rng + ?Sized>(
        &self,
        rate: &RateModel,
        horizon_min: f64,
        rng: &mut R,
        t: &mut f64,
    ) -> bool {
        loop {
            let u: f64 = rng.gen();
            *t += -(1.0 - u).ln() / self.lam_max;
            if *t >= horizon_min {
                return false;
            }
            let accept: f64 = rng.gen();
            let x = accept * self.lam_max;
            let (lo, hi) = self.bounds_at(*t);
            if x < lo || (x < hi && x < rate.rate_at(*t)) {
                return true;
            }
        }
    }

    /// The bounds of the cell holding minute `t` (`0 ≤ t < horizon`).
    #[inline]
    fn bounds_at(&self, t: f64) -> (f64, f64) {
        self.bounds[((t * self.cells_per_min) as usize).min(ENVELOPE_CELLS - 1)]
    }
}

/// Catalog churn: every `period_min` minutes the rank→video mapping
/// rotates by `step` positions (new releases displace old hits), so the
/// hot set wanders through the catalog over a multi-day trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogChurn {
    /// Epoch length in minutes.
    pub period_min: f64,
    /// Rank positions shifted per epoch.
    pub step: usize,
}

/// A non-homogeneous Poisson workload: arrivals via Lewis–Shedler
/// thinning against a [`RateModel`], video choice from a base popularity
/// distribution optionally rotated by [`CatalogChurn`] epochs.
///
/// Has a materialized [`ThinnedWorkload::generate`] and a streaming
/// [`ThinnedWorkload::stream`] twin; the proptest suite locks them
/// draw-for-draw identical.
#[derive(Debug, Clone)]
pub struct ThinnedWorkload {
    rate: RateModel,
    base: Popularity,
    churn: Option<CatalogChurn>,
    horizon_min: f64,
}

impl ThinnedWorkload {
    /// A workload over `base` popularity with arrival shape `rate`, for
    /// `horizon_min` minutes.
    pub fn new(rate: RateModel, base: Popularity, horizon_min: f64) -> Result<Self, ModelError> {
        if !horizon_min.is_finite() || horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: horizon_min,
            });
        }
        Ok(ThinnedWorkload {
            rate,
            base,
            churn: None,
            horizon_min,
        })
    }

    /// Adds catalog churn.
    pub fn with_churn(mut self, churn: CatalogChurn) -> Result<Self, ModelError> {
        if !churn.period_min.is_finite() || churn.period_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "churn.period_min",
                value: churn.period_min,
            });
        }
        if churn.step == 0 {
            return Err(ModelError::InvalidParameter {
                name: "churn.step",
                value: 0.0,
            });
        }
        self.churn = Some(churn);
        Ok(self)
    }

    /// The arrival-rate model.
    #[inline]
    pub fn rate(&self) -> &RateModel {
        &self.rate
    }

    /// The horizon in minutes.
    #[inline]
    pub fn horizon_min(&self) -> f64 {
        self.horizon_min
    }

    /// Number of videos.
    #[inline]
    pub fn n_videos(&self) -> usize {
        self.base.len()
    }

    /// The churn epoch containing minute `t`.
    fn epoch_at(&self, t: f64) -> u64 {
        match &self.churn {
            Some(c) => (t / c.period_min) as u64,
            None => 0,
        }
    }

    /// The video sampler in effect during churn epoch `e`: the base
    /// masses scattered through the epoch's rotation. Deterministic (no
    /// RNG), so both twins rebuild identical samplers.
    fn sampler_for_epoch(&self, e: u64) -> Result<ZipfSampler, ModelError> {
        let m = self.base.len();
        let shift = match &self.churn {
            Some(c) => (e as usize).wrapping_mul(c.step) % m,
            None => 0,
        };
        if shift == 0 {
            return ZipfSampler::from_popularity(&self.base);
        }
        let mut weights = vec![0.0; m];
        for rank in 0..m {
            weights[(rank + shift) % m] = self.base.get(rank);
        }
        ZipfSampler::from_raw_weights(&weights)
    }

    /// Materializes the full trace: the thinning pass first (all
    /// accepted instants), then the video pass — the canonical draw
    /// order the streaming twin reproduces.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Trace, ModelError> {
        let envelope = self.rate.envelope(self.horizon_min);
        let mut instants = Vec::new();
        let mut t = 0.0;
        while envelope.next_instant(&self.rate, self.horizon_min, rng, &mut t) {
            instants.push(t);
        }
        let mut requests = Vec::with_capacity(instants.len());
        let mut epoch = 0u64;
        let mut sampler = self.sampler_for_epoch(0)?;
        for &at in &instants {
            let e = self.epoch_at(at);
            if e != epoch {
                sampler = self.sampler_for_epoch(e)?;
                epoch = e;
            }
            requests.push(Request {
                arrival_min: at,
                video: sampler.sample(rng),
            });
        }
        Ok(Trace::from_sorted_unchecked(requests))
    }

    /// A streaming source drawing the exact request sequence
    /// [`ThinnedWorkload::generate`] would produce from the same RNG
    /// state, without materializing it.
    pub fn stream<R: Rng + Clone>(&self, rng: R) -> Result<StreamingThinned<R>, ModelError> {
        let envelope = self.rate.envelope(self.horizon_min);
        let lam_max = envelope.lam_max;
        let gaps_rng = rng.clone();
        let mut videos_rng = rng;
        // Pre-pass: replay the whole thinning stream's draws (a gap and
        // an acceptance draw per candidate, as
        // `ThinningEnvelope::next_instant` makes them) so the video
        // clone parks at the first video draw. Acceptance decisions draw
        // nothing, so they are skipped: making them here raised A-9's
        // set-up from ~0.5 s to ~0.8 s on a 2-core box.
        let mut t = 0.0;
        loop {
            let u: f64 = videos_rng.gen();
            t += -(1.0 - u).ln() / lam_max;
            if t >= self.horizon_min {
                break;
            }
            let _accept: f64 = videos_rng.gen();
        }
        Ok(StreamingThinned {
            workload: self.clone(),
            envelope,
            gaps_rng,
            videos_rng,
            t: 0.0,
            epoch: 0,
            sampler: self.sampler_for_epoch(0)?,
        })
    }
}

/// Streaming twin of [`ThinnedWorkload::generate`]. Construct via
/// [`ThinnedWorkload::stream`].
#[derive(Debug, Clone)]
pub struct StreamingThinned<R: Rng + Clone> {
    workload: ThinnedWorkload,
    envelope: ThinningEnvelope,
    gaps_rng: R,
    videos_rng: R,
    t: f64,
    epoch: u64,
    sampler: ZipfSampler,
}

impl<R: Rng + Clone> ArrivalSource for StreamingThinned<R> {
    fn next_request(&mut self) -> Option<Request> {
        let w = &self.workload;
        if !self
            .envelope
            .next_instant(&w.rate, w.horizon_min, &mut self.gaps_rng, &mut self.t)
        {
            return None;
        }
        let e = w.epoch_at(self.t);
        if e != self.epoch {
            match w.sampler_for_epoch(e) {
                Ok(s) => {
                    self.sampler = s;
                    self.epoch = e;
                }
                Err(e) => {
                    debug_assert!(false, "epoch sampler rebuild failed: {e:?}");
                    return None;
                }
            }
        }
        Some(Request {
            arrival_min: self.t,
            video: self.sampler.sample(&mut self.videos_rng),
        })
    }

    fn horizon_min(&self) -> f64 {
        self.workload.horizon_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn collect<S: ArrivalSource>(mut s: S) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(r) = s.next_request() {
            out.push(r);
        }
        out
    }

    #[test]
    fn streaming_thinned_matches_materialized() {
        let rate = RateModel::constant(20.0)
            .unwrap()
            .with_diurnal(DiurnalCycle {
                period_min: 60.0,
                amplitude: 0.6,
            })
            .unwrap()
            .with_pulses(vec![RatePulse {
                start_min: 30.0,
                duration_min: 15.0,
                multiplier: 2.5,
            }])
            .unwrap();
        let w = ThinnedWorkload::new(rate, Popularity::zipf(40, 0.9).unwrap(), 120.0)
            .unwrap()
            .with_churn(CatalogChurn {
                period_min: 30.0,
                step: 7,
            })
            .unwrap();
        let materialized = w.generate(&mut ChaCha8Rng::seed_from_u64(5)).unwrap();
        let streamed = collect(w.stream(ChaCha8Rng::seed_from_u64(5)).unwrap());
        assert_eq!(materialized.requests(), &streamed[..]);
        assert!(!streamed.is_empty());
    }

    #[test]
    fn thinned_trace_is_sorted_and_in_horizon() {
        let rate = RateModel::constant(15.0)
            .unwrap()
            .with_diurnal(DiurnalCycle {
                period_min: 90.0,
                amplitude: 0.5,
            })
            .unwrap();
        let w = ThinnedWorkload::new(rate, Popularity::zipf(20, 1.0).unwrap(), 90.0).unwrap();
        let t = w.generate(&mut ChaCha8Rng::seed_from_u64(3)).unwrap();
        assert!(t
            .requests()
            .windows(2)
            .all(|x| x[0].arrival_min <= x[1].arrival_min));
        assert!(t
            .requests()
            .iter()
            .all(|r| (0.0..90.0).contains(&r.arrival_min)));
    }

    #[test]
    fn diurnal_cycle_modulates_volume() {
        // amplitude 0.9 over one full cycle: first half-period is the
        // crest, second the trough.
        let rate = RateModel::constant(30.0)
            .unwrap()
            .with_diurnal(DiurnalCycle {
                period_min: 120.0,
                amplitude: 0.9,
            })
            .unwrap();
        let w = ThinnedWorkload::new(rate, Popularity::zipf(10, 1.0).unwrap(), 120.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut crest = 0usize;
        let mut trough = 0usize;
        for _ in 0..20 {
            for r in w.generate(&mut rng).unwrap().requests() {
                if r.arrival_min < 60.0 {
                    crest += 1;
                } else {
                    trough += 1;
                }
            }
        }
        assert!(
            crest as f64 > 2.0 * trough as f64,
            "crest {crest} trough {trough}"
        );
    }

    #[test]
    fn pulse_modulates_volume() {
        let rate = RateModel::constant(10.0)
            .unwrap()
            .with_pulses(vec![RatePulse {
                start_min: 30.0,
                duration_min: 30.0,
                multiplier: 5.0,
            }])
            .unwrap();
        let w = ThinnedWorkload::new(rate, Popularity::zipf(10, 1.0).unwrap(), 90.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut inside = 0usize;
        let mut outside = 0usize;
        for _ in 0..20 {
            for r in w.generate(&mut rng).unwrap().requests() {
                if (30.0..60.0).contains(&r.arrival_min) {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }
        }
        // Pulse window is 1/3 of the horizon at 5×: expect inside ≈
        // 5/7 of total.
        assert!(
            inside as f64 > 1.5 * outside as f64,
            "inside {inside} outside {outside}"
        );
    }

    #[test]
    fn churn_rotates_the_hot_title() {
        let rate = RateModel::constant(60.0).unwrap();
        let w = ThinnedWorkload::new(rate, Popularity::zipf(10, 1.2).unwrap(), 60.0)
            .unwrap()
            .with_churn(CatalogChurn {
                period_min: 30.0,
                step: 3,
            })
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut first = vec![0usize; 10];
        let mut second = vec![0usize; 10];
        for _ in 0..10 {
            for r in w.generate(&mut rng).unwrap().requests() {
                if r.arrival_min < 30.0 {
                    first[r.video.index()] += 1;
                } else {
                    second[r.video.index()] += 1;
                }
            }
        }
        let argmax = |v: &[usize]| v.iter().enumerate().max_by_key(|x| *x.1).unwrap().0;
        assert_eq!(argmax(&first), 0);
        assert_eq!(argmax(&second), 3);
    }

    #[test]
    fn rate_model_envelope_dominates() {
        let rate = RateModel::constant(12.0)
            .unwrap()
            .with_diurnal(DiurnalCycle {
                period_min: 77.0,
                amplitude: 0.8,
            })
            .unwrap()
            .with_pulses(vec![RatePulse {
                start_min: 10.0,
                duration_min: 5.0,
                multiplier: 3.0,
            }])
            .unwrap();
        let max = rate.max_rate();
        for i in 0..1000 {
            let t = i as f64 * 0.2;
            assert!(rate.rate_at(t) <= max + 1e-12);
        }
        let mean = rate.mean_rate(200.0);
        assert!(mean > 0.0 && mean < max);
    }

    #[test]
    fn rate_model_rejects_degenerate_parameters() {
        assert!(RateModel::constant(0.0).is_err());
        assert!(RateModel::constant(f64::NAN).is_err());
        let base = || RateModel::constant(10.0).unwrap();
        assert!(base()
            .with_diurnal(DiurnalCycle {
                period_min: 0.0,
                amplitude: 0.5
            })
            .is_err());
        assert!(base()
            .with_diurnal(DiurnalCycle {
                period_min: 60.0,
                amplitude: 1.0
            })
            .is_err());
        assert!(base()
            .with_pulses(vec![RatePulse {
                start_min: -1.0,
                duration_min: 5.0,
                multiplier: 2.0
            }])
            .is_err());
        assert!(base()
            .with_pulses(vec![RatePulse {
                start_min: 0.0,
                duration_min: 5.0,
                multiplier: 0.5
            }])
            .is_err());
        let w = |r| ThinnedWorkload::new(r, Popularity::zipf(4, 1.0).unwrap(), 90.0);
        assert!(w(base()).is_ok());
        assert!(ThinnedWorkload::new(base(), Popularity::zipf(4, 1.0).unwrap(), 0.0).is_err());
        assert!(w(base())
            .unwrap()
            .with_churn(CatalogChurn {
                period_min: 0.0,
                step: 1
            })
            .is_err());
        assert!(w(base())
            .unwrap()
            .with_churn(CatalogChurn {
                period_min: 30.0,
                step: 0
            })
            .is_err());
    }

    /// `generate` as it was before the envelope: the exact test on every
    /// thinning candidate, then the video pass.
    fn generate_exact(w: &ThinnedWorkload, rng: &mut ChaCha8Rng) -> Vec<Request> {
        let lam_max = w.rate.max_rate();
        let mut instants = Vec::new();
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / lam_max;
            if t >= w.horizon_min {
                break;
            }
            let accept: f64 = rng.gen();
            if accept * lam_max < w.rate.rate_at(t) {
                instants.push(t);
            }
        }
        let mut epoch = 0u64;
        let mut sampler = w.sampler_for_epoch(0).unwrap();
        let mut requests = Vec::with_capacity(instants.len());
        for at in instants {
            let e = w.epoch_at(at);
            if e != epoch {
                sampler = w.sampler_for_epoch(e).unwrap();
                epoch = e;
            }
            requests.push(Request {
                arrival_min: at,
                video: sampler.sample(rng),
            });
        }
        requests
    }

    /// A random thinned workload of case `k`: with or without a diurnal
    /// term (amplitude up to 0.999, periods from a fraction of an
    /// envelope cell to several horizons), 0–3 pulses whose edges sit on
    /// cell boundaries, inside a single cell or anywhere, horizons from
    /// well under a minute to hundreds of minutes (cell widths that are
    /// not representable), and about 20–600 thinning candidates.
    fn random_workload(rng: &mut ChaCha8Rng) -> ThinnedWorkload {
        let horizon = match rng.gen_range(0..3) {
            0 => rng.gen_range(0.01..0.7),
            1 => rng.gen_range(0.7..30.0),
            _ => rng.gen_range(30.0..600.0),
        };
        let cell = horizon / ENVELOPE_CELLS as f64;
        let mut peak = 1.0;
        let mut rate = RateModel::constant(1.0).unwrap();
        if rng.gen_bool(0.75) {
            let amplitude = if rng.gen_bool(0.3) {
                0.999
            } else {
                rng.gen_range(0.0..0.999)
            };
            let period_min = match rng.gen_range(0..3) {
                0 => cell * rng.gen_range(0.01..1.0),
                1 => cell * rng.gen_range(1.0..64.0),
                _ => horizon * rng.gen_range(0.05..4.0),
            };
            peak *= 1.0 + amplitude;
            rate = rate
                .with_diurnal(DiurnalCycle {
                    period_min,
                    amplitude,
                })
                .unwrap();
        }
        let pulses: Vec<RatePulse> = (0..rng.gen_range(0..4))
            .map(|_| {
                let k = rng.gen_range(0..ENVELOPE_CELLS) as f64;
                let (start_min, duration_min) = match rng.gen_range(0..3) {
                    0 => (k * cell, cell * rng.gen_range(1..200) as f64),
                    1 => (
                        (k + rng.gen_range(0.05..0.5)) * cell,
                        cell * rng.gen_range(0.01..0.45),
                    ),
                    _ => (
                        rng.gen_range(0.0..horizon),
                        horizon * rng.gen_range(0.001..0.5),
                    ),
                };
                let multiplier = rng.gen_range(1.0..4.0);
                peak *= multiplier;
                RatePulse {
                    start_min,
                    duration_min,
                    multiplier,
                }
            })
            .collect();
        // Scale the base so the envelope offers ~20–600 candidates.
        let candidates = rng.gen_range(20.0..600.0);
        let base = candidates / (horizon * peak);
        rate.base_per_min = base;
        let rate = rate.with_pulses(pulses).unwrap();
        let mut w =
            ThinnedWorkload::new(rate, Popularity::zipf(12, 0.8).unwrap(), horizon).unwrap();
        if rng.gen_bool(0.5) {
            w = w
                .with_churn(CatalogChurn {
                    period_min: horizon * rng.gen_range(0.05..1.0),
                    step: rng.gen_range(1..12),
                })
                .unwrap();
        }
        w
    }

    fn assert_bit_equal(case: usize, what: &str, exact: &[Request], got: &[Request]) {
        assert_eq!(exact.len(), got.len(), "case {case}: {what} length");
        for (i, (a, b)) in exact.iter().zip(got).enumerate() {
            assert!(
                a.arrival_min.to_bits() == b.arrival_min.to_bits() && a.video == b.video,
                "case {case}: {what} request {i}: exact {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn envelope_thinning_is_bit_identical_to_the_exact_test() {
        let mut shapes = ChaCha8Rng::seed_from_u64(0xE1_0E1);
        let mut total = 0;
        for case in 0..1_200 {
            let w = random_workload(&mut shapes);
            let seed = 1_000 + case as u64;
            let exact = generate_exact(&w, &mut ChaCha8Rng::seed_from_u64(seed));
            let generated = w.generate(&mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
            assert_bit_equal(case, "generate", &exact, generated.requests());
            let streamed = collect(w.stream(ChaCha8Rng::seed_from_u64(seed)).unwrap());
            assert_bit_equal(case, "stream", &exact, &streamed);
            total += exact.len();
        }
        assert!(total > 50_000, "the sweep accepted only {total} requests");
    }

    #[test]
    fn envelope_cells_bound_the_rate_they_decide() {
        let mut shapes = ChaCha8Rng::seed_from_u64(0xB0_4D);
        for case in 0..300 {
            let w = random_workload(&mut shapes);
            let envelope = w.rate.envelope(w.horizon_min);
            let cell = w.horizon_min / ENVELOPE_CELLS as f64;
            // Random instants, plus each side of random cell boundaries
            // and of every pulse edge, where the cell index rounds.
            let mut probes: Vec<f64> = (0..256)
                .map(|_| shapes.gen_range(0.0..w.horizon_min))
                .collect();
            let edges = w
                .rate
                .pulses
                .iter()
                .flat_map(|p| [p.start_min, p.start_min + p.duration_min]);
            let boundaries = (0..32).map(|_| shapes.gen_range(1..ENVELOPE_CELLS) as f64 * cell);
            for x in edges.chain(boundaries) {
                let mut below = x;
                let mut above = x;
                for _ in 0..4 {
                    probes.extend([below, above]);
                    below = f64::from_bits(below.to_bits().saturating_sub(1));
                    above = f64::from_bits(above.to_bits() + 1);
                }
            }
            for t in probes
                .into_iter()
                .filter(|t| (0.0..w.horizon_min).contains(t))
            {
                let (lo, hi) = envelope.bounds_at(t);
                let rate = w.rate.rate_at(t);
                assert!(
                    lo <= rate && rate <= hi,
                    "case {case}: rate {rate} at t={t} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn envelope_decides_almost_every_production_candidate() {
        // A-9's production shape: 48 h, a daily cycle at amplitude 0.6
        // and two 2-hour premieres at 1.5x. Only candidates whose scaled
        // draw lands between a cell's bounds, or in a cell holding a
        // pulse edge, may need the exact rate.
        let rate = RateModel::constant(100.0)
            .unwrap()
            .with_diurnal(DiurnalCycle {
                period_min: 1_440.0,
                amplitude: 0.6,
            })
            .unwrap()
            .with_pulses(vec![
                RatePulse {
                    start_min: 480.0,
                    duration_min: 120.0,
                    multiplier: 1.5,
                },
                RatePulse {
                    start_min: 1_920.0,
                    duration_min: 120.0,
                    multiplier: 1.5,
                },
            ])
            .unwrap();
        let envelope = rate.envelope(2_880.0);
        let lam_max = rate.max_rate();
        let undecided = envelope
            .bounds
            .iter()
            .map(|&(lo, hi)| (hi.min(lam_max) - lo) / lam_max)
            .sum::<f64>()
            / ENVELOPE_CELLS as f64;
        assert!(undecided < 0.005, "undecided share {undecided}");
    }
}
