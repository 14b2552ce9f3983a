//! Fragment placement for erasure-coded redundancy tiers.
//!
//! A `Coded { k, m }` video occupies `k + m` distinct servers — one
//! fragment each — so losing any single server costs at most one
//! fragment per video (server anti-affinity, the coded analogue of the
//! paper's constraint (6)).
//!
//! [`place_coded`] builds such a layout by dealing each video's
//! fragments onto consecutive servers, rotating the starting offset per
//! video so fragment load spreads evenly. Replicated videos in the same
//! map are dealt cyclically like [`crate::round_robin::RoundRobinPlacement`].

use vod_model::redundancy::RedundancyMap;
use vod_model::{Layout, ModelError, ServerId};

/// Builds a layout for a per-video redundancy map on `n_servers`
/// servers. Fragments/replicas of one video always land on distinct
/// servers.
pub fn place_coded(n_servers: usize, redundancy: &RedundancyMap) -> Result<Layout, ModelError> {
    redundancy.validate(n_servers)?;
    let mut assignments: Vec<Vec<ServerId>> = Vec::with_capacity(redundancy.len());
    for (v, scheme) in redundancy.schemes().iter().enumerate() {
        let holders = scheme.holders() as usize;
        // Rotate the starting offset per video so holder sets (and hence
        // fragment load) rotate around the cluster instead of piling the
        // first k+m servers with every stripe's data fragments.
        let start = (v * holders) % n_servers;
        let servers: Vec<ServerId> = (0..holders)
            .map(|i| ServerId(((start + i) % n_servers) as u32))
            .collect();
        assignments.push(servers);
    }
    Layout::with_redundancy(n_servers, assignments, redundancy.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::redundancy::RedundancyScheme;
    use vod_model::VideoId;

    const C21: RedundancyScheme = RedundancyScheme::Coded { k: 2, m: 1 };
    const C42: RedundancyScheme = RedundancyScheme::Coded { k: 4, m: 2 };

    #[test]
    fn fragments_on_distinct_servers() {
        let map = RedundancyMap::uniform(10, C42).unwrap();
        let layout = place_coded(8, &map).unwrap();
        for v in 0..10 {
            let servers = layout.replicas_of(VideoId(v));
            let mut sorted = servers.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 6);
        }
        assert!(layout.any_coded());
    }

    #[test]
    fn rotation_spreads_fragment_load() {
        let map = RedundancyMap::uniform(16, C21).unwrap();
        let layout = place_coded(8, &map).unwrap();
        // 16 videos × 3 fragments over 8 servers: exactly 6 each.
        assert!(layout.replicas_per_server().iter().all(|&c| c == 6));
    }

    #[test]
    fn mixed_map_places_replicated_videos_too() {
        let map = RedundancyMap::new(vec![
            RedundancyScheme::Replicated { r: 2 },
            C21,
            RedundancyScheme::Replicated { r: 1 },
        ])
        .unwrap();
        let layout = place_coded(4, &map).unwrap();
        assert_eq!(layout.replicas_of(VideoId(0)).len(), 2);
        assert_eq!(layout.replicas_of(VideoId(1)).len(), 3);
        assert_eq!(layout.replicas_of(VideoId(2)).len(), 1);
    }

    #[test]
    fn rejects_bad_schemes() {
        let map = RedundancyMap::uniform(2, C42).unwrap();
        assert!(place_coded(4, &map).is_err()); // k+m=6 > 4 servers
    }
}
