//! The fixed world `experiments perf-smoke`'s sharded measurements and
//! criterion's `a1_macro` sharded group both replay.

use vod_model::{BitRate, Catalog, ClusterSpec, Layout, ModelError, ServerId, ServerSpec, VideoId};
use vod_workload::{Request, Trace};

/// The pods world: 32 independent pods of 8 servers, each pod holding
/// its own 8 videos on 2-replica sets, so every replica set stays inside
/// one pod and the decoupled parallel path fans out to any shard count
/// up to 32. The videos are 10-minute MPEG-2 streams on 40 Mbps links
/// (10 concurrent streams per server — busy but unsaturated), and the
/// trace spreads 20k arrivals evenly over the 90-minute horizon,
/// cycling the whole catalog.
pub fn pods_world() -> Result<(Catalog, ClusterSpec, Layout, Trace), ModelError> {
    const PODS: usize = 32;
    const PER_POD: usize = 8;
    const N_REQUESTS: usize = 20_000;
    let n_servers = PODS * PER_POD;
    let n_videos = n_servers;
    let catalog = Catalog::fixed_rate(n_videos, BitRate::MPEG2, 600)?;
    let cluster = ClusterSpec::homogeneous(
        n_servers,
        ServerSpec {
            storage_bytes: u64::MAX,
            bandwidth_kbps: 40_000,
        },
    )?;
    let layout = Layout::new(
        n_servers,
        (0..n_videos)
            .map(|v| {
                let pod = v - v % PER_POD;
                vec![
                    ServerId(v as u32),
                    ServerId((pod + (v + 1) % PER_POD) as u32),
                ]
            })
            .collect(),
    )?;
    // 37 is coprime with 256, so the video sequence cycles the whole
    // catalog uniformly.
    let trace = Trace::new(
        (0..N_REQUESTS)
            .map(|k| Request {
                arrival_min: k as f64 * (90.0 / N_REQUESTS as f64),
                video: VideoId(((k * 37) % n_videos) as u32),
            })
            .collect(),
    )?;
    Ok((catalog, cluster, layout, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replica_set_stays_inside_its_pod() {
        let (catalog, cluster, layout, trace) = pods_world().unwrap();
        assert_eq!(
            (catalog.len(), cluster.len(), trace.len()),
            (256, 256, 20_000)
        );
        for v in 0..catalog.len() {
            let servers = layout.replicas_of(VideoId(v as u32));
            assert_eq!(servers.len(), 2);
            assert!(servers.iter().all(|s| s.0 as usize / 8 == v / 8), "{v}");
        }
    }
}
