//! Constant encoding bit rates (CBR) and the storage/bandwidth they imply.
//!
//! "A defining characteristic with video streams is that a video can be
//! encoded in different bit rates for different qualities at the cost of
//! different storage and streaming bandwidth requirements" (paper, Sec. 1).
//! A replica of a video encoded at bit rate `b` and duration `T` occupies
//! `b · T` of storage and each concurrent stream consumes `b` of outgoing
//! network bandwidth.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A constant encoding bit rate, stored exactly in kilobits per second.
///
/// Kilobit-per-second granularity keeps every storage/bandwidth computation
/// in exact integer arithmetic (no float drift in constraint checks) while
/// comfortably covering the scalable-rate ladder of the paper's Section 4.3.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BitRate(u32);

impl BitRate {
    /// MPEG-1 quality, 1.5 Mbps — the paper's "lowest possible bit rate"
    /// used for the simulated-annealing initial solution.
    pub const MPEG1: BitRate = BitRate::from_kbps(1_500);
    /// MPEG-2 main quality, 4 Mbps — the fixed rate of the paper's
    /// evaluation ("the typical one for MPEG II movies").
    pub const MPEG2: BitRate = BitRate::from_kbps(4_000);
    /// High-quality MPEG-2, 6 Mbps.
    pub const MPEG2_HIGH: BitRate = BitRate::from_kbps(6_000);
    /// Studio/DVD-authoring quality, 8 Mbps.
    pub const STUDIO: BitRate = BitRate::from_kbps(8_000);

    /// The scalable-rate ladder used by the simulated-annealing experiments:
    /// "the encoding bit rate is a discrete variable and its set is given".
    pub const LADDER: [BitRate; 5] = [
        BitRate::from_kbps(1_500),
        BitRate::from_kbps(3_000),
        BitRate::from_kbps(4_000),
        BitRate::from_kbps(6_000),
        BitRate::from_kbps(8_000),
    ];

    /// Creates a bit rate from kilobits per second.
    #[inline]
    pub const fn from_kbps(kbps: u32) -> Self {
        BitRate(kbps)
    }

    /// The rate in kilobits per second.
    #[inline]
    pub const fn kbps(self) -> u32 {
        self.0
    }

    /// The rate in megabits per second, as a float (for reporting and for
    /// the objective function, whose first term averages bit rates).
    #[inline]
    pub fn mbps(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Storage occupied by a video of `duration_s` seconds encoded at this
    /// rate, in bytes: `b · T / 8`.
    ///
    /// ```
    /// use vod_model::BitRate;
    /// // The paper: a 90-minute MPEG-2 movie at 4 Mbps needs 2.7 GB.
    /// let bytes = BitRate::MPEG2.storage_bytes(90 * 60);
    /// assert_eq!(bytes, 2_700_000_000);
    /// ```
    #[inline]
    pub const fn storage_bytes(self, duration_s: u64) -> u64 {
        // kbps * 1000 bits/s * s / 8 bits per byte = kbps * 125 * s
        self.0 as u64 * 125 * duration_s
    }

    /// Whether this rate is a member of the given discrete ladder.
    pub fn in_ladder(self, ladder: &[BitRate]) -> bool {
        ladder.contains(&self)
    }

    /// The next rate up in `ladder`, if any. `ladder` must be sorted
    /// ascending.
    pub fn step_up(self, ladder: &[BitRate]) -> Option<BitRate> {
        ladder.iter().copied().find(|&r| r > self)
    }

    /// The next rate down in `ladder`, if any. `ladder` must be sorted
    /// ascending.
    pub fn step_down(self, ladder: &[BitRate]) -> Option<BitRate> {
        ladder.iter().rev().copied().find(|&r| r < self)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{} Mbps", self.0 / 1_000)
        } else {
            write!(f, "{:.1} Mbps", self.mbps())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_storage_example() {
        // 90-minute MPEG-2 at 4 Mbps -> 2.7 GB (paper, Section 5).
        assert_eq!(BitRate::MPEG2.storage_bytes(5_400), 2_700_000_000);
    }

    #[test]
    fn intro_storage_example() {
        // Paper intro: "a typical 90-minute MPEG-2 video encoded in a
        // constant bit rate of 4 Mbs requires as much as 2.7 GB storage".
        let gb = BitRate::from_kbps(4_000).storage_bytes(90 * 60) as f64 / 1e9;
        assert!((gb - 2.7).abs() < 1e-9);
    }

    #[test]
    fn unit_conversions() {
        let r = BitRate::from_kbps(1_500);
        assert_eq!(r.kbps(), 1_500);
        assert!((r.mbps() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ladder_is_sorted_and_contains_extremes() {
        let l = BitRate::LADDER;
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(BitRate::MPEG1.in_ladder(&l));
        assert!(BitRate::STUDIO.in_ladder(&l));
        assert!(!BitRate::from_kbps(2_000).in_ladder(&l));
    }

    #[test]
    fn ladder_stepping() {
        let l = BitRate::LADDER;
        assert_eq!(BitRate::MPEG1.step_up(&l), Some(BitRate::from_kbps(3_000)));
        assert_eq!(BitRate::MPEG1.step_down(&l), None);
        assert_eq!(BitRate::STUDIO.step_up(&l), None);
        assert_eq!(
            BitRate::STUDIO.step_down(&l),
            Some(BitRate::from_kbps(6_000))
        );
        // Stepping from a rate not in the ladder still lands on ladder rungs.
        let odd = BitRate::from_kbps(3_500);
        assert_eq!(odd.step_up(&l), Some(BitRate::from_kbps(4_000)));
        assert_eq!(odd.step_down(&l), Some(BitRate::from_kbps(3_000)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(BitRate::MPEG2.to_string(), "4 Mbps");
        assert_eq!(BitRate::from_kbps(1_500).to_string(), "1.5 Mbps");
    }

    #[test]
    fn ordering_matches_rate() {
        assert!(BitRate::MPEG1 < BitRate::MPEG2);
        assert!(BitRate::STUDIO > BitRate::MPEG2_HIGH);
    }
}
