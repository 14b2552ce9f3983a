//! Cooling schedules.
//!
//! A schedule maps the epoch index to a temperature: geometric cooling,
//! `T_k = T_0 · α^k`.

use serde::{Deserialize, Serialize};

/// Temperature as a function of the epoch index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoolingSchedule {
    /// `T_k = t0 · alpha^k`, floored at `t_min`.
    Geometric {
        /// Initial temperature.
        t0: f64,
        /// Cooling factor in (0, 1).
        alpha: f64,
        /// Floor temperature (> 0 keeps acceptance defined).
        t_min: f64,
    },
}

impl CoolingSchedule {
    /// A reasonable default: start hot enough to accept most uphill moves,
    /// cool by 5% per epoch, floor near zero.
    pub fn default_geometric(t0: f64) -> Self {
        CoolingSchedule::Geometric {
            t0,
            alpha: 0.95,
            t_min: 1e-6,
        }
    }

    /// Temperature at epoch `k`.
    pub fn temperature(&self, k: u32) -> f64 {
        let CoolingSchedule::Geometric { t0, alpha, t_min } = *self;
        (t0 * alpha.powi(k as i32)).max(t_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_decays() {
        let s = CoolingSchedule::Geometric {
            t0: 10.0,
            alpha: 0.5,
            t_min: 0.01,
        };
        assert_eq!(s.temperature(0), 10.0);
        assert_eq!(s.temperature(1), 5.0);
        assert_eq!(s.temperature(2), 2.5);
        // Floors at t_min.
        assert_eq!(s.temperature(100), 0.01);
    }

    #[test]
    fn monotone_non_increasing() {
        let s = CoolingSchedule::default_geometric(5.0);
        let mut prev = f64::INFINITY;
        for k in 0..200 {
            let t = s.temperature(k);
            assert!(t <= prev && t > 0.0);
            prev = t;
        }
    }
}
