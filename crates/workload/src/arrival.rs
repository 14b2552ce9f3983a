//! Pull-based streaming arrival sources.
//!
//! The materialized pipeline ([`TraceGenerator::generate`] → [`Trace`] →
//! engine) allocates the full request vector before the first event fires;
//! at production scale (multi-day diurnal traces, millions of users) that
//! is tens of GiB. This module provides the streaming alternative: an
//! [`ArrivalSource`] yields requests one at a time in arrival order with
//! O(per-catalog) state, so the engine can pull arrivals lazily and merge
//! the next-arrival time into its `(time, seq)` event ordering.
//!
//! ## Draw-for-draw identity
//!
//! The streaming sources are **provably request-for-request identical** to
//! their materialized twins at the same seed — that is how the golden
//! reports stay byte-identical. The materialized generators draw *all*
//! inter-arrival gaps first (including the final horizon-overshoot draw),
//! then the per-request video choices. A naive streaming source would
//! interleave gap and video draws and diverge immediately. Instead each
//! streaming source keeps **two clones of the seeded RNG**:
//!
//! * the *gap clone* replays the gap (or thinning) stream lazily, one
//!   arrival at a time;
//! * the *video clone* is advanced through the entire gap pre-pass at
//!   construction (same number of draws, O(1) memory), leaving it parked
//!   exactly where the materialized generator starts sampling videos.
//!
//! Each `next_request` then draws one gap from the first clone and one
//! video from the second — the exact draw sequence of the materialized
//! path, paid for with one extra O(n)-time, O(1)-memory pass at
//! construction. [`StreamingDrift`] applies the same discipline per
//! segment, carrying the video clone's end state into the next segment.
//!
//! ## Time-varying rates
//!
//! [`ThinnedWorkload`] generates non-homogeneous Poisson arrivals via
//! Lewis–Shedler thinning: candidate gaps at the envelope rate `λ_max`,
//! each accepted with probability `λ(t)/λ_max`. The rate shape
//! ([`RateModel`]) composes a diurnal sinusoid, scheduled flash-crowd
//! pulses, and a catalog-churn modulator that rotates which titles are
//! hot as epochs pass — the production-scale arrival shapes of
//! arXiv:1307.0849. It has both a materialized [`ThinnedWorkload::generate`]
//! and a streaming [`ThinnedWorkload::stream`] twin under the same
//! two-clone contract.

use crate::drift::DriftingWorkload;
use crate::poisson::PoissonProcess;
use crate::trace::{Request, Trace, TraceGenerator};
use crate::zipf::ZipfSampler;
use rand::Rng;
use vod_model::{ModelError, Popularity};

/// A pull-based request stream in arrival order.
///
/// Implementations yield requests with finite, non-negative,
/// non-decreasing `arrival_min` (see [`Request::check_after`], which the
/// engine applies to every pulled request) and terminate at their
/// horizon. Sources are `Clone` so the sharded engine can replay the
/// same stream per worker and filter by video ownership.
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

/// Streaming twin of [`TraceGenerator::generate`]: constant-rate Poisson
/// arrivals with a fixed popularity distribution.
///
/// Construct via [`TraceGenerator::stream`]. Yields exactly the requests
/// `generate` would materialize from the same RNG state, in order, with
/// O(catalog) memory.
#[derive(Debug, Clone)]
pub struct StreamingTrace<R: Rng + Clone> {
    process: PoissonProcess,
    sampler: ZipfSampler,
    horizon_min: f64,
    /// Replays the materialized gap pre-pass lazily.
    gaps_rng: R,
    /// Parked after the gap pre-pass; draws video choices.
    videos_rng: R,
    t: f64,
}

impl<R: Rng + Clone> StreamingTrace<R> {
    pub(crate) fn new(generator: &TraceGenerator, rng: R) -> Self {
        let process = *generator.process();
        let horizon_min = generator.horizon_min();
        let gaps_rng = rng.clone();
        let mut videos_rng = rng;
        // Pre-pass: advance the video clone past every gap draw the
        // materialized generator would make (including the overshoot).
        let mut t = 0.0;
        loop {
            t += process.next_gap_min(&mut videos_rng);
            if t >= horizon_min {
                break;
            }
        }
        StreamingTrace {
            process,
            sampler: generator.sampler().clone(),
            horizon_min,
            gaps_rng,
            videos_rng,
            t: 0.0,
        }
    }
}

impl<R: Rng + Clone> ArrivalSource for StreamingTrace<R> {
    fn next_request(&mut self) -> Option<Request> {
        self.t += self.process.next_gap_min(&mut self.gaps_rng);
        if self.t >= self.horizon_min {
            return None;
        }
        Some(Request {
            arrival_min: self.t,
            video: self.sampler.sample(&mut self.videos_rng),
        })
    }

    fn horizon_min(&self) -> f64 {
        self.horizon_min
    }
}

impl TraceGenerator {
    /// A streaming source drawing the exact request sequence
    /// [`TraceGenerator::generate`] would produce from the same RNG
    /// state, without materializing it.
    pub fn stream<R: Rng + Clone>(&self, rng: R) -> StreamingTrace<R> {
        StreamingTrace::new(self, rng)
    }
}

/// Streaming twin of [`DriftingWorkload::generate`]: piecewise-stationary
/// arrivals (constant λ, per-segment popularity permutations + flash
/// crowds), segment by segment.
///
/// Construct via [`DriftingWorkload::stream`]. Holds one segment's
/// sampler at a time; segment boundaries re-run the two-clone pre-pass
/// from the video clone's carried-over state, mirroring how the
/// materialized path chains `TraceGenerator::generate` calls on one RNG.
#[derive(Debug, Clone)]
pub struct StreamingDrift<R: Rng + Clone> {
    workload: DriftingWorkload,
    segment: usize,
    segment_start: f64,
    segment_len: f64,
    process: PoissonProcess,
    sampler: ZipfSampler,
    gaps_rng: R,
    videos_rng: R,
    /// Local time within the current segment.
    t: f64,
}

impl<R: Rng + Clone> StreamingDrift<R> {
    pub(crate) fn new(
        workload: &DriftingWorkload,
        lambda_per_min: f64,
        rng: R,
    ) -> Result<Self, ModelError> {
        // Validate λ once up front; segment samplers are built lazily.
        let process = PoissonProcess::new(lambda_per_min)?;
        let mut source = StreamingDrift {
            workload: workload.clone(),
            segment: 0,
            segment_start: 0.0,
            segment_len: 0.0,
            process,
            sampler: ZipfSampler::from_raw_weights(&workload.segment_weights(0))?,
            gaps_rng: rng.clone(),
            videos_rng: rng,
            t: 0.0,
        };
        source.enter_segment(0)?;
        Ok(source)
    }

    /// Positions both clones for segment `k`: the video clone (carrying
    /// the materialized path's RNG state at the segment boundary) seeds
    /// the gap clone, then runs the segment's gap pre-pass.
    fn enter_segment(&mut self, k: usize) -> Result<(), ModelError> {
        let (start, len) = self.workload.segment_span(k);
        self.segment = k;
        self.segment_start = start;
        self.segment_len = len;
        self.t = 0.0;
        self.sampler = ZipfSampler::from_raw_weights(&self.workload.segment_weights(k))?;
        self.gaps_rng = self.videos_rng.clone();
        let mut t = 0.0;
        loop {
            t += self.process.next_gap_min(&mut self.videos_rng);
            if t >= len {
                break;
            }
        }
        Ok(())
    }
}

impl<R: Rng + Clone> ArrivalSource for StreamingDrift<R> {
    fn next_request(&mut self) -> Option<Request> {
        loop {
            self.t += self.process.next_gap_min(&mut self.gaps_rng);
            if self.t < self.segment_len {
                return Some(Request {
                    arrival_min: self.segment_start + self.t,
                    video: self.sampler.sample(&mut self.videos_rng),
                });
            }
            let next = self.segment + 1;
            if next >= self.workload.n_segments() {
                return None;
            }
            // Weights of a valid workload are always positive, so the
            // sampler rebuild cannot fail; debug-assert and end cleanly
            // in release if it somehow does.
            if let Err(e) = self.enter_segment(next) {
                debug_assert!(false, "segment sampler rebuild failed: {e:?}");
                return None;
            }
        }
    }

    fn horizon_min(&self) -> f64 {
        let (start, len) = self
            .workload
            .segment_span(self.workload.n_segments().saturating_sub(1));
        start + len
    }
}

impl DriftingWorkload {
    /// A streaming source drawing the exact request sequence
    /// [`DriftingWorkload::generate`] would produce at `lambda_per_min`
    /// from the same RNG state, without materializing it.
    pub fn stream<R: Rng + Clone>(
        &self,
        lambda_per_min: f64,
        rng: R,
    ) -> Result<StreamingDrift<R>, ModelError> {
        StreamingDrift::new(self, lambda_per_min, rng)
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
        let lam_max = self.rate.max_rate();
        let mut instants = Vec::new();
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / lam_max;
            if t >= self.horizon_min {
                break;
            }
            let accept: f64 = rng.gen();
            if accept * lam_max < self.rate.rate_at(t) {
                instants.push(t);
            }
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
        let lam_max = self.rate.max_rate();
        let gaps_rng = rng.clone();
        let mut videos_rng = rng;
        // Pre-pass: replay the whole thinning stream (gap + acceptance
        // draws) so the video clone parks at the first video draw.
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
            lam_max,
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
    lam_max: f64,
    gaps_rng: R,
    videos_rng: R,
    t: f64,
    epoch: u64,
    sampler: ZipfSampler,
}

impl<R: Rng + Clone> ArrivalSource for StreamingThinned<R> {
    fn next_request(&mut self) -> Option<Request> {
        loop {
            let u: f64 = self.gaps_rng.gen();
            self.t += -(1.0 - u).ln() / self.lam_max;
            if self.t >= self.workload.horizon_min {
                return None;
            }
            let accept: f64 = self.gaps_rng.gen();
            if accept * self.lam_max < self.workload.rate.rate_at(self.t) {
                let e = self.workload.epoch_at(self.t);
                if e != self.epoch {
                    match self.workload.sampler_for_epoch(e) {
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
                return Some(Request {
                    arrival_min: self.t,
                    video: self.sampler.sample(&mut self.videos_rng),
                });
            }
        }
    }

    fn horizon_min(&self) -> f64 {
        self.workload.horizon_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FlashCrowd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vod_model::VideoId;

    fn collect<S: ArrivalSource>(mut s: S) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(r) = s.next_request() {
            out.push(r);
        }
        out
    }

    #[test]
    fn streaming_trace_matches_materialized() {
        let pop = Popularity::zipf(50, 1.0).unwrap();
        let g = TraceGenerator::new(40.0, &pop, 90.0).unwrap();
        let materialized = g.generate(&mut ChaCha8Rng::seed_from_u64(9));
        let streamed = collect(g.stream(ChaCha8Rng::seed_from_u64(9)));
        assert_eq!(materialized.requests(), &streamed[..]);
        assert!(!streamed.is_empty());
    }

    #[test]
    fn streaming_drift_matches_materialized() {
        let base = Popularity::zipf(32, 1.0).unwrap();
        let w = DriftingWorkload::new(base, 90.0, 10.0, 8, 41)
            .unwrap()
            .with_flash_crowds(vec![FlashCrowd {
                at_min: 45.0,
                video: VideoId(31),
                boost: 3.0,
            }])
            .unwrap();
        let materialized = w.generate(6.0, &mut ChaCha8Rng::seed_from_u64(17)).unwrap();
        let streamed = collect(w.stream(6.0, ChaCha8Rng::seed_from_u64(17)).unwrap());
        assert_eq!(materialized.requests(), &streamed[..]);
        assert!(!streamed.is_empty());
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

    #[test]
    fn streaming_sources_are_cloneable_midstream() {
        // A cloned source replays the identical suffix — the property
        // the sharded engine's per-worker replay relies on.
        let pop = Popularity::zipf(20, 1.0).unwrap();
        let g = TraceGenerator::new(30.0, &pop, 90.0).unwrap();
        let mut a = g.stream(ChaCha8Rng::seed_from_u64(12));
        for _ in 0..100 {
            a.next_request();
        }
        let b = a.clone();
        assert_eq!(collect(a), collect(b));
    }
}
