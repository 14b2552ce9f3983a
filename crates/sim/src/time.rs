//! Integer simulation time.
//!
//! Event queues need a *total* order; floating-point minutes would force
//! `total_cmp` wrappers everywhere and invite epsilon bugs. The simulator
//! therefore ticks in whole milliseconds (`u64`): a 90-minute peak period
//! is 5.4 million ticks, and `u64` holds half a billion years of headroom.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, in milliseconds since the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Converts minutes (e.g. trace arrival times) to ticks, rounding to
    /// the nearest millisecond (saturating at `u64::MAX` ticks).
    #[inline]
    pub fn from_min(minutes: f64) -> SimTime {
        debug_assert!(minutes >= 0.0 && minutes.is_finite());
        SimTime((minutes * 60_000.0).round() as u64)
    }

    /// Converts seconds to ticks.
    #[inline]
    pub fn from_secs(seconds: u64) -> SimTime {
        SimTime(seconds * 1_000)
    }

    /// This instant in minutes.
    #[inline]
    pub fn as_min(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// This instant in raw ticks (milliseconds).
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }
}

/// Saturates at the end of time, as [`SimTime::from_min`] and `Sub` do:
/// an instant past `u64::MAX` ticks never comes, so it stays there.
impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} min", self.as_min())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minute_roundtrip() {
        let t = SimTime::from_min(90.0);
        assert_eq!(t.ticks(), 5_400_000);
        assert!((t.as_min() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn sub_saturates() {
        assert_eq!(SimTime(5) - SimTime(10), SimTime::ZERO);
        assert_eq!(SimTime(10) - SimTime(4), SimTime(6));
    }

    #[test]
    fn add_works() {
        assert_eq!(
            SimTime::from_secs(60) + SimTime::from_secs(30),
            SimTime(90_000)
        );
    }

    #[test]
    fn add_saturates() {
        let end = SimTime::from_min(1e15);
        assert_eq!(end, SimTime(u64::MAX));
        assert_eq!(end + SimTime::from_secs(600), end);
    }

    #[test]
    fn ordering_total() {
        let mut v = vec![SimTime(3), SimTime(1), SimTime(2)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(2), SimTime(3)]);
    }

    #[test]
    fn rounding_to_nearest_ms() {
        assert_eq!(SimTime::from_min(0.0000083).ticks(), 0); // 0.498 ms
        assert_eq!(SimTime::from_min(0.0000084).ticks(), 1); // 0.504 ms
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_min(1.5).to_string(), "1.500 min");
    }
}
