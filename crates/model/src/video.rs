//! Videos and catalogs.
//!
//! "We consider … a set of M different videos … all videos in set V have the
//! same duration, say 90 minutes for typical movies" (paper, Sec. 3.1). The
//! general (scalable-rate) formulation lets each video carry its own bit
//! rate, so [`Video`] stores one; the fixed-rate algorithms simply build
//! catalogs where every rate is equal.

use crate::bitrate::BitRate;
use crate::error::ModelError;
use crate::ids::VideoId;
use serde::{Deserialize, Serialize};

/// The paper's canonical movie duration, in seconds (90 minutes).
pub const TYPICAL_DURATION_S: u64 = 90 * 60;

/// A single video title.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Video {
    /// Dense id; ids are rank-ordered by popularity across the workspace.
    pub id: VideoId,
    /// Constant encoding bit rate.
    pub bitrate: BitRate,
    /// Playback duration in seconds.
    pub duration_s: u64,
}

impl Video {
    /// Storage one replica of this video occupies, in bytes.
    #[inline]
    pub fn storage_bytes(&self) -> u64 {
        self.bitrate.storage_bytes(self.duration_s)
    }
}

/// An ordered collection of videos, indexed by [`VideoId`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    videos: Vec<Video>,
}

impl Catalog {
    /// A catalog of `m` videos all encoded at `bitrate` with equal
    /// `duration_s` — the fixed-rate setting of Sections 4.1–4.2.
    pub fn fixed_rate(m: usize, bitrate: BitRate, duration_s: u64) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::Empty);
        }
        Ok(Catalog {
            videos: (0..m as u32)
                .map(|i| Video {
                    id: VideoId(i),
                    bitrate,
                    duration_s,
                })
                .collect(),
        })
    }

    /// The paper's evaluation catalog: `m` videos, 90 minutes, MPEG-2 4 Mbps.
    pub fn paper_default(m: usize) -> Result<Self, ModelError> {
        Self::fixed_rate(m, BitRate::MPEG2, TYPICAL_DURATION_S)
    }

    /// A catalog with per-video bit rates (scalable-rate setting of
    /// Sec. 4.3); all durations equal.
    pub fn with_rates(rates: &[BitRate], duration_s: u64) -> Result<Self, ModelError> {
        if rates.is_empty() {
            return Err(ModelError::Empty);
        }
        Ok(Catalog {
            videos: rates
                .iter()
                .enumerate()
                .map(|(i, &bitrate)| Video {
                    id: VideoId(i as u32),
                    bitrate,
                    duration_s,
                })
                .collect(),
        })
    }

    /// Number of videos `M`.
    #[inline]
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Always false: construction rejects empty catalogs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// All videos, in id order.
    #[inline]
    pub fn videos(&self) -> &[Video] {
        &self.videos
    }

    /// The video with the given id.
    #[inline]
    pub fn get(&self, id: VideoId) -> Option<&Video> {
        self.videos.get(id.index())
    }

    /// True if every video shares one bit rate — the precondition of the
    /// fixed-rate algorithms.
    pub fn is_fixed_rate(&self) -> bool {
        self.videos.windows(2).all(|w| w[0].bitrate == w[1].bitrate)
    }

    /// Mean encoding bit rate in Mbps — the first term of objective Eq. (1).
    pub fn mean_bitrate_mbps(&self) -> f64 {
        self.videos.iter().map(|v| v.bitrate.mbps()).sum::<f64>() / self.videos.len() as f64
    }

    /// Total storage for exactly one replica of every video, in bytes.
    pub fn single_copy_storage_bytes(&self) -> u64 {
        self.videos.iter().map(|v| v.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_catalog() {
        let c = Catalog::paper_default(200).unwrap();
        assert_eq!(c.len(), 200);
        assert!(c.is_fixed_rate());
        assert!(c.videos().iter().all(|v| v.duration_s == 5_400));
        assert_eq!(c.get(VideoId(0)).unwrap().storage_bytes(), 2_700_000_000);
        assert!((c.mean_bitrate_mbps() - 4.0).abs() < 1e-12);
        assert_eq!(c.single_copy_storage_bytes(), 200 * 2_700_000_000);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let c = Catalog::paper_default(5).unwrap();
        for (i, v) in c.videos().iter().enumerate() {
            assert_eq!(v.id, VideoId(i as u32));
        }
        assert!(c.get(VideoId(5)).is_none());
    }

    #[test]
    fn with_rates_detects_mixed() {
        let c = Catalog::with_rates(&[BitRate::MPEG1, BitRate::MPEG2], 5_400).unwrap();
        assert!(!c.is_fixed_rate());
        assert!((c.mean_bitrate_mbps() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            Catalog::fixed_rate(0, BitRate::MPEG2, 100),
            Err(ModelError::Empty)
        );
        assert_eq!(Catalog::with_rates(&[], 100), Err(ModelError::Empty));
    }
}
