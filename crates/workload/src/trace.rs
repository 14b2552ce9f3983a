//! Request traces: the synthetic workload fed to the simulator.
//!
//! A [`Trace`] is a time-ordered sequence of [`Request`]s (arrival minute +
//! requested video). Traces are value types: they can be generated from a
//! (Poisson, Zipf) pair, serialized for archival, or constructed by hand in
//! tests.

use crate::poisson::PoissonProcess;
use crate::zipf::ZipfSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vod_model::{ModelError, Popularity, VideoId};

/// One client request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time in minutes from the start of the peak period.
    pub arrival_min: f64,
    /// The requested video.
    pub video: VideoId,
}

impl Request {
    /// Checks this request's arrival time against the ordering contract
    /// of traces and [`crate::ArrivalSource`]s: finite, non-negative and
    /// no earlier than `previous_min`, the arrival before it (0 for the
    /// first request).
    #[inline]
    pub fn check_after(&self, previous_min: f64) -> Result<(), ModelError> {
        let t = self.arrival_min;
        if !t.is_finite() || t < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "arrival_min",
                value: t,
            });
        }
        if t < previous_min {
            return Err(ModelError::InvalidParameter {
                name: "arrival_min (not sorted)",
                value: t,
            });
        }
        Ok(())
    }
}

/// A time-ordered request sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Builds a trace from requests, verifying that every arrival time is
    /// finite, non-negative and no earlier than the one before it.
    pub fn new(requests: Vec<Request>) -> Result<Self, ModelError> {
        let mut last = 0.0f64;
        for r in &requests {
            r.check_after(last)?;
            last = r.arrival_min;
        }
        Ok(Trace { requests })
    }

    /// Builds a trace from requests already known to be time-ordered —
    /// the generators emit in order, so re-validating is wasted work on
    /// hot paths. Ordering is debug-asserted; in release an unsorted
    /// input is the caller's bug.
    pub fn from_sorted_unchecked(requests: Vec<Request>) -> Self {
        debug_assert!(
            requests
                .windows(2)
                .all(|w| w[0].arrival_min <= w[1].arrival_min),
            "from_sorted_unchecked given an unsorted request sequence"
        );
        Trace { requests }
    }

    /// The requests, ascending in time.
    #[inline]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when no requests arrived in the horizon.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Per-video request counts over `m` videos.
    pub fn counts(&self, m: usize) -> Vec<usize> {
        let mut counts = vec![0usize; m];
        for r in &self.requests {
            if r.video.index() < m {
                counts[r.video.index()] += 1;
            }
        }
        counts
    }
}

/// Generates Poisson/Zipf traces for the paper's peak-period workload.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    process: PoissonProcess,
    sampler: ZipfSampler,
    horizon_min: f64,
}

impl TraceGenerator {
    /// A generator with arrival rate `lambda_per_min`, popularity `pop`,
    /// over a peak period of `horizon_min` minutes (the paper uses 90).
    pub fn new(
        lambda_per_min: f64,
        pop: &Popularity,
        horizon_min: f64,
    ) -> Result<Self, ModelError> {
        if !horizon_min.is_finite() || horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: horizon_min,
            });
        }
        Ok(TraceGenerator {
            process: PoissonProcess::new(lambda_per_min)?,
            sampler: ZipfSampler::from_popularity(pop)?,
            horizon_min,
        })
    }

    /// A generator over raw per-video-id weights (not necessarily
    /// rank-sorted) — used by the drift models, where video identity must
    /// be preserved.
    pub fn from_weights(
        lambda_per_min: f64,
        weights: &[f64],
        horizon_min: f64,
    ) -> Result<Self, ModelError> {
        if !horizon_min.is_finite() || horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: horizon_min,
            });
        }
        Ok(TraceGenerator {
            process: PoissonProcess::new(lambda_per_min)?,
            sampler: ZipfSampler::from_raw_weights(weights)?,
            horizon_min,
        })
    }

    /// The peak-period length in minutes.
    #[inline]
    pub fn horizon_min(&self) -> f64 {
        self.horizon_min
    }

    /// Generates one trace.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Trace {
        let arrivals = self.process.arrivals_within(self.horizon_min, rng);
        let requests = arrivals
            .into_iter()
            .map(|arrival_min| Request {
                arrival_min,
                video: self.sampler.sample(rng),
            })
            .collect();
        Trace { requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn gen(theta: f64, lambda: f64, seed: u64) -> Trace {
        let pop = Popularity::zipf(20, theta).unwrap();
        let g = TraceGenerator::new(lambda, &pop, 90.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        g.generate(&mut rng)
    }

    #[test]
    fn trace_sorted_and_in_horizon() {
        let t = gen(1.0, 40.0, 31);
        assert!(!t.is_empty());
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].arrival_min <= w[1].arrival_min));
        assert!(t
            .requests()
            .iter()
            .all(|r| (0.0..90.0).contains(&r.arrival_min)));
    }

    #[test]
    fn expected_volume() {
        // λ=40/min over 90 min -> ~3600 requests.
        let n = gen(1.0, 40.0, 32).len();
        assert!((3_300..3_900).contains(&n), "n = {n}");
    }

    #[test]
    fn skew_shows_in_counts() {
        let t = gen(1.0, 40.0, 33);
        let counts = t.counts(20);
        assert!(
            counts[0] > counts[19],
            "head {} tail {}",
            counts[0],
            counts[19]
        );
    }

    #[test]
    fn new_rejects_unsorted() {
        let reqs = vec![
            Request {
                arrival_min: 2.0,
                video: VideoId(0),
            },
            Request {
                arrival_min: 1.0,
                video: VideoId(1),
            },
        ];
        assert!(Trace::new(reqs).is_err());
    }

    #[test]
    fn new_rejects_non_finite_and_negative_arrivals() {
        let at = |mins: &[f64]| {
            Trace::new(
                mins.iter()
                    .map(|&arrival_min| Request {
                        arrival_min,
                        video: VideoId(0),
                    })
                    .collect(),
            )
        };
        for bad in [
            &[1.0, f64::NAN][..],
            &[f64::NAN],
            &[1.0, f64::INFINITY],
            &[f64::NEG_INFINITY, 1.0],
            &[-0.5, 1.0],
        ] {
            assert!(
                matches!(
                    at(bad),
                    Err(ModelError::InvalidParameter {
                        name: "arrival_min",
                        ..
                    })
                ),
                "{bad:?} accepted"
            );
        }
        assert!(at(&[0.0, 0.0, 1.5]).is_ok());
    }

    #[test]
    fn new_accepts_ties() {
        let reqs = vec![
            Request {
                arrival_min: 1.0,
                video: VideoId(0),
            },
            Request {
                arrival_min: 1.0,
                video: VideoId(1),
            },
        ];
        assert!(Trace::new(reqs).is_ok());
    }

    #[test]
    fn generator_rejects_bad_horizon() {
        let pop = Popularity::zipf(5, 1.0).unwrap();
        assert!(TraceGenerator::new(40.0, &pop, 0.0).is_err());
        assert!(TraceGenerator::new(40.0, &pop, -5.0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(gen(0.8, 20.0, 35), gen(0.8, 20.0, 35));
    }
}
