//! Poisson arrival processes.
//!
//! "Within the peak period … the request arrivals were generated by a
//! Poisson process with arrival rate λ" (paper, Sec. 5). A homogeneous
//! Poisson process is simulated by exponential inter-arrival gaps
//! `Δ = −ln(U)/λ`. Time-varying rates (our extension, flagged as such in
//! DESIGN.md) are thinned against a [`RateModel`](crate::RateModel) by
//! [`ThinnedWorkload`](crate::ThinnedWorkload).

use rand::Rng;
use vod_model::ModelError;

/// Homogeneous Poisson arrival process with rate `λ` (arrivals per minute,
/// matching the paper's reporting unit).
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    rate_per_min: f64,
}

impl PoissonProcess {
    /// A process with `rate_per_min` expected arrivals per minute.
    pub fn new(rate_per_min: f64) -> Result<Self, ModelError> {
        if !rate_per_min.is_finite() || rate_per_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "lambda",
                value: rate_per_min,
            });
        }
        Ok(PoissonProcess { rate_per_min })
    }

    /// Draws the next inter-arrival gap, in minutes.
    #[inline]
    pub fn next_gap_min<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF of Exp(λ); 1-U keeps the argument strictly positive.
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.rate_per_min
    }

    /// Generates all arrival instants (minutes, ascending) in
    /// `[0, horizon_min)`.
    pub fn arrivals_within<R: Rng + ?Sized>(&self, horizon_min: f64, rng: &mut R) -> Vec<f64> {
        let mut t = 0.0;
        let mut out = Vec::with_capacity((self.rate_per_min * horizon_min * 1.1) as usize + 8);
        loop {
            t += self.next_gap_min(rng);
            if t >= horizon_min {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn invalid_rates_rejected() {
        assert!(PoissonProcess::new(0.0).is_err());
        assert!(PoissonProcess::new(-2.0).is_err());
        assert!(PoissonProcess::new(f64::NAN).is_err());
        assert!(PoissonProcess::new(40.0).is_ok());
    }

    #[test]
    fn gaps_are_positive() {
        let p = PoissonProcess::new(40.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..10_000 {
            assert!(p.next_gap_min(&mut rng) > 0.0);
        }
    }

    #[test]
    fn mean_count_matches_rate() {
        // E[N(0,90)] = λ·90. Average over many horizons.
        let p = PoissonProcess::new(40.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let runs = 200;
        let total: usize = (0..runs)
            .map(|_| p.arrivals_within(90.0, &mut rng).len())
            .sum();
        let mean = total as f64 / runs as f64;
        // std of N is sqrt(3600)=60; mean of 200 runs has std ~4.2.
        assert!((mean - 3_600.0).abs() < 25.0, "mean {mean}");
    }

    #[test]
    fn arrivals_sorted_and_within_horizon() {
        let p = PoissonProcess::new(10.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let arr = p.arrivals_within(90.0, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] < w[1]));
        assert!(arr.iter().all(|&t| (0.0..90.0).contains(&t)));
    }

    #[test]
    fn mean_gap_is_inverse_rate() {
        let p = PoissonProcess::new(5.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| p.next_gap_min(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.2).abs() < 0.005, "mean gap {mean}");
    }
}
