//! Zipf-like relative popularity distributions.
//!
//! Assumption 1 of the paper: "The popularity of the videos, p_i, is assumed
//! to be known before the replication and placement. The relative popularity
//! of videos follows Zipf-like distributions with a skew parameter of θ.
//! Typically, 0.271 ≤ θ ≤ 1. The probability of choosing the i-th video is
//! p_i = (1/i^θ) / Σ_{j=1..M} (1/j^θ)."
//!
//! θ = 0 is the uniform distribution; θ = 1 is classical Zipf; larger θ means
//! more skew ("as parameter θ decreases, the video popularity skew
//! decreases", Sec. 5.1).

use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// The canonical lower end of the θ range cited by the paper (from the video
/// rental measurements of Dan et al.).
pub const THETA_MIN_TYPICAL: f64 = 0.271;
/// The canonical upper end of the θ range cited by the paper.
pub const THETA_MAX_TYPICAL: f64 = 1.0;

/// A normalized, non-increasing relative popularity vector `p_1 ≥ … ≥ p_M`,
/// `Σ p_i = 1`.
///
/// Video `i` (0-based [`crate::VideoId`]) has popularity `p()[i]`. The
/// non-increasing ordering is a structural invariant the replication
/// algorithms rely on (the paper indexes videos by rank).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Popularity {
    p: Vec<f64>,
}

impl Popularity {
    /// Builds the paper's Zipf-like distribution over `m` videos with skew
    /// `θ ≥ 0`.
    ///
    /// ```
    /// use vod_model::Popularity;
    /// let pop = Popularity::zipf(100, 0.271).unwrap();
    /// assert!((pop.p().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    /// assert!(pop.p()[0] > pop.p()[99]);
    /// ```
    pub fn zipf(m: usize, theta: f64) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::Empty);
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "theta",
                value: theta,
            });
        }
        let mut p: Vec<f64> = (1..=m).map(|i| (i as f64).powf(-theta)).collect();
        let total: f64 = p.iter().sum();
        for v in &mut p {
            *v /= total;
        }
        Ok(Popularity { p })
    }

    /// The uniform distribution over `m` videos (θ = 0). Under uniform
    /// popularity "a simple round-robin replication achieves an optimal
    /// replication scheme" (Sec. 4.1).
    pub fn uniform(m: usize) -> Result<Self, ModelError> {
        Self::zipf(m, 0.0)
    }

    /// Builds a popularity vector from arbitrary non-negative weights.
    /// Weights are sorted into non-increasing order and normalized, matching
    /// the paper's rank-ordered indexing convention.
    pub fn from_weights(weights: &[f64]) -> Result<Self, ModelError> {
        if weights.is_empty() {
            return Err(ModelError::Empty);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(ModelError::InvalidPopularity { index: i, value: w });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ModelError::InvalidPopularity {
                index: 0,
                value: total,
            });
        }
        let mut p: Vec<f64> = weights.iter().map(|w| w / total).collect();
        p.sort_by(|a, b| b.partial_cmp(a).expect("finite values"));
        Ok(Popularity { p })
    }

    /// Builds a rank-ordered popularity from per-video-id weights,
    /// returning it together with the permutation `rank → video id`, so
    /// callers that plan in rank space (all replication/placement
    /// algorithms assume `p_1 ≥ … ≥ p_M`) can un-permute their results
    /// back to video-id space. Ties keep video-id order (stable sort), so
    /// the mapping is deterministic.
    ///
    /// ```
    /// use vod_model::Popularity;
    /// let (pop, ranks) = Popularity::ranked_from_weights(&[1.0, 3.0, 2.0]).unwrap();
    /// assert_eq!(ranks, vec![1, 2, 0]); // rank 0 is video 1, etc.
    /// assert!((pop.get(0) - 0.5).abs() < 1e-12);
    /// ```
    pub fn ranked_from_weights(weights: &[f64]) -> Result<(Self, Vec<usize>), ModelError> {
        if weights.is_empty() {
            return Err(ModelError::Empty);
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(ModelError::InvalidPopularity { index: i, value: w });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ModelError::InvalidPopularity {
                index: 0,
                value: total,
            });
        }
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).expect("finite"));
        let p = order.iter().map(|&v| weights[v] / total).collect();
        Ok((Popularity { p }, order))
    }

    /// Number of videos `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Always false: construction rejects empty vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// The probability vector, rank-ordered (`p_1` first).
    #[inline]
    pub fn p(&self) -> &[f64] {
        &self.p
    }

    /// Probability of the `i`-th most popular video (0-based).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.p[i]
    }

    /// Cumulative distribution function, `cdf[i] = Σ_{j≤i} p_j`, with the
    /// last entry forced to exactly 1.0 (guards samplers against float
    /// round-off).
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = self
            .p
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        cdf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_normalizes_and_sorts() {
        let pop = Popularity::zipf(50, 0.73).unwrap();
        let sum: f64 = pop.p().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(pop.p().windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let pop = Popularity::zipf(10, 0.0).unwrap();
        for &v in pop.p() {
            assert!((v - 0.1).abs() < 1e-12);
        }
        assert_eq!(pop, Popularity::uniform(10).unwrap());
    }

    #[test]
    fn zipf_theta_one_matches_harmonic() {
        let pop = Popularity::zipf(4, 1.0).unwrap();
        let h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((pop.get(0) - 1.0 / h4).abs() < 1e-12);
        assert!((pop.get(3) - 0.25 / h4).abs() < 1e-12);
    }

    #[test]
    fn skew_ratio_is_m_to_theta() {
        let m = 200;
        let theta = 0.5;
        let pop = Popularity::zipf(m, theta).unwrap();
        // p_1 / p_M, the weight spread Sec. 4.2 argues from.
        let ratio = pop.get(0) / pop.get(m - 1);
        assert!((ratio - (m as f64).powf(theta)).abs() < 1e-9);
    }

    #[test]
    fn higher_theta_means_more_head_mass() {
        let low = Popularity::zipf(100, 0.271).unwrap();
        let high = Popularity::zipf(100, 1.0).unwrap();
        // The cumulative mass of the ten most popular titles.
        assert!(high.cdf()[9] > low.cdf()[9]);
    }

    #[test]
    fn from_weights_sorts_desc() {
        let pop = Popularity::from_weights(&[1.0, 3.0, 2.0]).unwrap();
        assert!((pop.get(0) - 0.5).abs() < 1e-12);
        assert!((pop.get(1) - 2.0 / 6.0).abs() < 1e-12);
        assert!((pop.get(2) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Popularity::zipf(0, 1.0), Err(ModelError::Empty));
        assert!(matches!(
            Popularity::zipf(5, -1.0),
            Err(ModelError::InvalidParameter { .. })
        ));
        assert!(matches!(
            Popularity::from_weights(&[1.0, -2.0]),
            Err(ModelError::InvalidPopularity { index: 1, .. })
        ));
        assert!(matches!(
            Popularity::from_weights(&[0.0, 0.0]),
            Err(ModelError::InvalidPopularity { .. })
        ));
        assert!(matches!(
            Popularity::from_weights(&[f64::NAN]),
            Err(ModelError::InvalidPopularity { .. })
        ));
    }

    #[test]
    fn ranked_from_weights_permutation() {
        let (pop, ranks) = Popularity::ranked_from_weights(&[2.0, 8.0, 4.0, 2.0]).unwrap();
        assert_eq!(ranks, vec![1, 2, 0, 3]); // ties keep id order
        assert!((pop.get(0) - 0.5).abs() < 1e-12);
        assert!((pop.get(1) - 0.25).abs() < 1e-12);
        // Un-permuting recovers the original normalized weights.
        let mut recovered = [0.0; 4];
        for (rank, &v) in ranks.iter().enumerate() {
            recovered[v] = pop.get(rank);
        }
        assert!((recovered[1] - 0.5).abs() < 1e-12);
        assert!((recovered[0] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn ranked_from_weights_rejects_bad_input() {
        assert!(Popularity::ranked_from_weights(&[]).is_err());
        assert!(Popularity::ranked_from_weights(&[0.0, 0.0]).is_err());
        assert!(Popularity::ranked_from_weights(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn cdf_ends_at_one() {
        let pop = Popularity::zipf(7, 0.9).unwrap();
        let cdf = pop.cdf();
        assert_eq!(cdf.len(), 7);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn head_mass_monotone_in_k() {
        let cdf = Popularity::zipf(20, 1.0).unwrap().cdf();
        assert!(cdf[4] < cdf[9]);
        assert_eq!(cdf[19], 1.0);
    }
}
