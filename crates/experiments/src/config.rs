//! The paper's evaluation parameterization (Sec. 5), with the OCR-damaged
//! numerals reconstructed as documented in DESIGN.md §3.

use vod_model::{BitRate, Catalog, ClusterSpec, ModelError, Popularity, ServerSpec};

/// All constants of the paper's simulation study in one place.
#[derive(Debug, Clone, Copy)]
pub struct PaperSetup {
    /// Cluster size `N` ("8 homogeneous servers").
    pub n_servers: usize,
    /// Catalog size `M` (reconstructed: 200 videos).
    pub n_videos: usize,
    /// Video duration in seconds ("duration 90 minutes each").
    pub duration_s: u64,
    /// Fixed encoding bit rate ("the typical one for MPEG II movies,
    /// i.e. 4 Mbs").
    pub bitrate: BitRate,
    /// Per-server outgoing bandwidth in kbps (reconstructed: 1.8 Gbps,
    /// i.e. 450 concurrent 4 Mbps streams per server).
    pub server_bandwidth_kbps: u64,
    /// Peak-period length in minutes ("the peak period of 90 minutes").
    pub horizon_min: f64,
    /// Runs averaged per data point ("Each result was an average of …
    /// runs"; reconstructed: 20).
    pub runs: u32,
    /// Engine shards per simulation ([`vod_sim::SimConfig::shards`]).
    /// 1 (the default) is the serial engine; higher values opt into the
    /// sharded engine, whose reports are byte-identical to `shards: 1`.
    pub shards: usize,
}

impl Default for PaperSetup {
    fn default() -> Self {
        PaperSetup {
            n_servers: 8,
            n_videos: 200,
            duration_s: 90 * 60,
            bitrate: BitRate::MPEG2,
            server_bandwidth_kbps: 1_800_000,
            horizon_min: 90.0,
            runs: 20,
            shards: 1,
        }
    }
}

impl PaperSetup {
    /// A smaller, faster variant for smoke tests and `--fast` runs:
    /// same shape, fewer videos and runs.
    pub fn fast() -> Self {
        PaperSetup {
            n_videos: 100,
            runs: 5,
            ..Self::default()
        }
    }

    /// The fixed-rate catalog.
    pub fn catalog(&self) -> Result<Catalog, ModelError> {
        Catalog::fixed_rate(self.n_videos, self.bitrate, self.duration_s)
    }

    /// Popularity at skew `theta`.
    pub fn popularity(&self, theta: f64) -> Result<Popularity, ModelError> {
        Popularity::zipf(self.n_videos, theta)
    }

    /// Replica slots per server for a target replication degree
    /// (`⌈degree·M/N⌉` — the paper's "storage capacity of the cluster
    /// ranged from 200 to 400 replicas and the replication degree ranged
    /// from 1.0 to 2.0").
    pub fn slots_per_server(&self, degree: f64) -> u64 {
        ((degree * self.n_videos as f64) / self.n_servers as f64).ceil() as u64
    }

    /// The cluster sized for a target replication degree.
    pub fn cluster(&self, degree: f64) -> ClusterSpec {
        let per_replica = self.bitrate.storage_bytes(self.duration_s);
        ClusterSpec::homogeneous(
            self.n_servers,
            ServerSpec {
                storage_bytes: self.slots_per_server(degree) * per_replica,
                bandwidth_kbps: self.server_bandwidth_kbps,
            },
        )
        .expect("n_servers > 0")
    }

    /// Concurrent 4 Mbps streams one server's link carries (450 in the
    /// paper's setting).
    pub fn streams_per_server(&self) -> u64 {
        self.server_bandwidth_kbps / self.bitrate.kbps() as u64
    }

    /// The arrival rate (requests/min) that exactly saturates the
    /// cluster's outgoing bandwidth over the peak period — "the peak rate
    /// of λ was 40 requests per minute".
    pub fn capacity_lambda_per_min(&self) -> f64 {
        (self.streams_per_server() * self.n_servers as u64) as f64 / self.horizon_min
    }

    /// Expected peak-period demand `λT` at capacity, in requests —
    /// the planning-time demand used for communication weights.
    pub fn capacity_demand(&self) -> f64 {
        (self.streams_per_server() * self.n_servers as u64) as f64
    }

    /// The replication degrees swept in Figure 4.
    pub fn degrees(&self) -> [f64; 6] {
        [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    }

    /// The Zipf skews of the figure subplots (θ = 1.0 and θ = 0.5).
    pub fn thetas(&self) -> [f64; 2] {
        [1.0, 0.5]
    }

    /// The arrival-rate sweep (requests/min) of Figures 4–6.
    pub fn lambda_sweep(&self) -> Vec<f64> {
        (1..=15).map(|k| k as f64 * 4.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_numbers() {
        let s = PaperSetup::default();
        assert_eq!(s.streams_per_server(), 450);
        assert!((s.capacity_lambda_per_min() - 40.0).abs() < 1e-12);
        assert!((s.capacity_demand() - 3_600.0).abs() < 1e-12);
    }

    #[test]
    fn degree_to_slots() {
        let s = PaperSetup::default();
        assert_eq!(s.slots_per_server(1.0), 25);
        assert_eq!(s.slots_per_server(1.2), 30);
        assert_eq!(s.slots_per_server(2.0), 50);
        // Cluster-wide slot totals hit the target degree exactly.
        let c = s.cluster(1.2);
        assert_eq!(
            c.total_replica_slots(s.bitrate, s.duration_s),
            (1.2f64 * 200.0) as u64
        );
    }

    #[test]
    fn storage_range_matches_reconstruction() {
        // DESIGN.md: per-server storage 67.5 GB (d=1.0) to 135 GB (d=2.0).
        let s = PaperSetup::default();
        let gb = |d: f64| s.cluster(d).servers()[0].storage_bytes as f64 / 1e9;
        assert!((gb(1.0) - 67.5).abs() < 1e-9);
        assert!((gb(2.0) - 135.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_covers_capacity_and_overload() {
        let s = PaperSetup::default();
        let sweep = s.lambda_sweep();
        assert_eq!(sweep.len(), 15);
        assert!(sweep.contains(&40.0));
        assert!(*sweep.last().unwrap() > s.capacity_lambda_per_min() * 1.1);
    }

    #[test]
    fn fast_setup_is_smaller() {
        let f = PaperSetup::fast();
        assert!(f.n_videos < PaperSetup::default().n_videos);
        assert!(f.runs < PaperSetup::default().runs);
        assert!(f.catalog().is_ok());
    }
}
