//! Per-server outgoing-link occupancy.
//!
//! "Like many other work, we consider that outgoing network bandwidth is
//! the major performance bottleneck" (paper, Sec. 3.1) — storage is a
//! placement-time constraint, so at run time the only contended resource
//! is each server's outgoing link (plus, under the redirection extension,
//! the shared backbone).

use vod_model::{ClusterSpec, ServerId};

/// Mutable run-time state of the cluster's outgoing links.
///
/// Also tracks availability for failure injection: a *down* server admits
/// nothing, and its failure bumps a per-server epoch so that departures
/// scheduled for killed streams can be recognized as stale.
#[derive(Debug, Clone)]
pub struct LinkState {
    capacity_kbps: Vec<u64>,
    /// Effective (brownout-adjusted) capacity; equals `capacity_kbps`
    /// while the link is healthy.
    effective_kbps: Vec<u64>,
    used_kbps: Vec<u64>,
    repair_kbps: Vec<u64>,
    streams: Vec<u32>,
    /// Availability per server (true = up).
    up: Vec<bool>,
    epoch: Vec<u32>,
}

impl LinkState {
    /// Fresh (idle, all-up) state for a cluster.
    pub fn new(cluster: &ClusterSpec) -> Self {
        let capacity_kbps: Vec<u64> = cluster.servers().iter().map(|s| s.bandwidth_kbps).collect();
        let n = capacity_kbps.len();
        LinkState {
            effective_kbps: capacity_kbps.clone(),
            capacity_kbps,
            used_kbps: vec![0; n],
            repair_kbps: vec![0; n],
            streams: vec![0; n],
            up: vec![true; n],
            epoch: vec![0; n],
        }
    }

    /// Whether `server` is currently up.
    #[inline]
    pub fn is_up(&self, server: ServerId) -> bool {
        self.up[server.index()]
    }

    /// The server's failure epoch (bumped on every failure).
    #[inline]
    pub fn epoch(&self, server: ServerId) -> u32 {
        self.epoch[server.index()]
    }

    /// Takes `server` down: every active stream on it is killed and its
    /// bandwidth cleared. Returns the number of disrupted streams.
    pub fn fail(&mut self, server: ServerId) -> u32 {
        let j = server.index();
        let dropped = self.streams[j];
        self.streams[j] = 0;
        self.used_kbps[j] = 0;
        self.repair_kbps[j] = 0;
        self.up[j] = false;
        self.epoch[j] += 1;
        dropped
    }

    /// Brings `server` back up (idle). An active brownout survives the
    /// outage: the link comes back at its degraded effective capacity
    /// until the scheduled brownout end clears it.
    pub fn recover(&mut self, server: ServerId) {
        self.up[server.index()] = true;
    }

    /// Starts a brownout: the link's effective capacity drops to
    /// `capacity × frac` (`frac ∈ (0, 1]`). Returns the bandwidth in kbps
    /// by which current commitments (streams + repair reservations) now
    /// exceed the degraded link — the caller must shed that much.
    pub fn set_brownout(&mut self, server: ServerId, frac: f64) -> u64 {
        let j = server.index();
        debug_assert!(frac > 0.0 && frac <= 1.0);
        self.effective_kbps[j] = (self.capacity_kbps[j] as f64 * frac).floor() as u64;
        (self.used_kbps[j] + self.repair_kbps[j]).saturating_sub(self.effective_kbps[j])
    }

    /// Ends a brownout, restoring the link's full capacity.
    pub fn clear_brownout(&mut self, server: ServerId) {
        let j = server.index();
        self.effective_kbps[j] = self.capacity_kbps[j];
    }

    /// Current effective (brownout-adjusted) capacity of `server`'s link.
    #[inline]
    pub fn effective_capacity_kbps(&self, server: ServerId) -> u64 {
        self.effective_kbps[server.index()]
    }

    /// Number of servers.
    #[inline]
    pub fn len(&self) -> usize {
        self.capacity_kbps.len()
    }

    /// True for a zero-server cluster (construction upstream forbids it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacity_kbps.is_empty()
    }

    /// Whether `server` is up and can admit one more stream of `kbps`.
    /// Repair traffic counts against the link, so an aggressive rebuild
    /// squeezes out admissions.
    #[inline]
    pub fn can_admit(&self, server: ServerId, kbps: u64) -> bool {
        let j = server.index();
        self.is_up(server)
            && self.used_kbps[j] + self.repair_kbps[j] + kbps <= self.effective_kbps[j]
    }

    /// Free outgoing bandwidth on `server`, in kbps (0 while down), net
    /// of any repair-copy reservations and brownout degradation. A
    /// browned-out server thus looks "slow, not dead" to dispatch and
    /// repair source selection.
    #[inline]
    pub fn free_kbps(&self, server: ServerId) -> u64 {
        let j = server.index();
        if !self.is_up(server) {
            return 0;
        }
        self.effective_kbps[j].saturating_sub(self.used_kbps[j] + self.repair_kbps[j])
    }

    /// Admits a stream; panics in debug builds if capacity would be
    /// exceeded (callers must check [`Self::can_admit`] first).
    #[inline]
    pub fn admit(&mut self, server: ServerId, kbps: u64) {
        let j = server.index();
        debug_assert!(self.used_kbps[j] + self.repair_kbps[j] + kbps <= self.effective_kbps[j]);
        self.used_kbps[j] += kbps;
        self.streams[j] += 1;
    }

    /// Reserves `kbps` of repair-copy bandwidth on `server`'s link.
    /// Callers must check [`Self::free_kbps`] first; repair shares the
    /// link with streaming, it does not get a separate pool.
    #[inline]
    pub fn reserve_repair(&mut self, server: ServerId, kbps: u64) {
        let j = server.index();
        debug_assert!(self.is_up(server));
        debug_assert!(self.used_kbps[j] + self.repair_kbps[j] + kbps <= self.effective_kbps[j]);
        self.repair_kbps[j] += kbps;
    }

    /// Releases a repair-copy reservation (copy finished or aborted).
    /// A no-op for a server that failed meanwhile — `fail()` already
    /// cleared its reservations.
    #[inline]
    pub fn release_repair(&mut self, server: ServerId, kbps: u64) {
        let j = server.index();
        if !self.is_up(server) {
            return;
        }
        debug_assert!(self.repair_kbps[j] >= kbps);
        self.repair_kbps[j] -= kbps;
    }

    /// Current per-server repair-copy reservations in kbps.
    #[inline]
    pub fn repair_kbps(&self) -> &[u64] {
        &self.repair_kbps
    }

    /// Releases a completed stream.
    #[inline]
    pub fn release(&mut self, server: ServerId, kbps: u64) {
        let j = server.index();
        debug_assert!(self.used_kbps[j] >= kbps && self.streams[j] > 0);
        self.used_kbps[j] -= kbps;
        self.streams[j] -= 1;
    }

    /// Current per-server used bandwidth in kbps.
    #[inline]
    pub fn used_kbps(&self) -> &[u64] {
        &self.used_kbps
    }

    /// Current per-server active stream counts.
    #[inline]
    pub fn streams(&self) -> &[u32] {
        &self.streams
    }

    /// Per-server loads as floats (for imbalance metrics), in streams.
    pub fn stream_loads(&self) -> Vec<f64> {
        self.streams.iter().map(|&s| s as f64).collect()
    }

    /// [`Self::stream_loads`] into a reusable buffer (cleared first) —
    /// the engine's per-sample path, so steady state allocates nothing.
    pub fn stream_loads_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.streams.iter().map(|&s| s as f64));
    }

    /// Total active streams.
    pub fn total_streams(&self) -> u64 {
        self.streams.iter().map(|&s| s as u64).sum()
    }

    /// Invariant check used by tests, debug assertions, and the runtime
    /// auditor: no link over its effective (brownout-adjusted) capacity.
    pub fn within_capacity(&self) -> bool {
        self.used_kbps
            .iter()
            .zip(&self.repair_kbps)
            .zip(&self.effective_kbps)
            .all(|((&u, &r), &c)| u + r <= c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::ServerSpec;

    fn links(n: usize, kbps: u64) -> LinkState {
        LinkState::new(
            &ClusterSpec::homogeneous(
                n,
                ServerSpec {
                    storage_bytes: 1,
                    bandwidth_kbps: kbps,
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn failure_kills_streams_and_blocks_admission() {
        let mut l = links(2, 10_000);
        l.admit(ServerId(0), 4_000);
        l.admit(ServerId(0), 4_000);
        assert_eq!(l.epoch(ServerId(0)), 0);
        let dropped = l.fail(ServerId(0));
        assert_eq!(dropped, 2);
        assert_eq!(l.epoch(ServerId(0)), 1);
        assert!(!l.is_up(ServerId(0)));
        assert!(!l.can_admit(ServerId(0), 1));
        assert_eq!(l.free_kbps(ServerId(0)), 0);
        assert_eq!(l.total_streams(), 0);
        // Other servers unaffected.
        assert!(l.can_admit(ServerId(1), 10_000));
        // Recovery restores an idle server; the epoch stays bumped.
        l.recover(ServerId(0));
        assert!(l.is_up(ServerId(0)));
        assert!(l.can_admit(ServerId(0), 10_000));
        assert_eq!(l.epoch(ServerId(0)), 1);
    }

    #[test]
    fn repeated_failures_bump_epoch() {
        let mut l = links(1, 5_000);
        l.fail(ServerId(0));
        l.recover(ServerId(0));
        l.fail(ServerId(0));
        assert_eq!(l.epoch(ServerId(0)), 2);
    }

    #[test]
    fn admit_release_cycle() {
        let mut l = links(2, 10_000);
        let s = ServerId(0);
        assert!(l.can_admit(s, 4_000));
        l.admit(s, 4_000);
        l.admit(s, 4_000);
        assert_eq!(l.used_kbps()[0], 8_000);
        assert_eq!(l.streams()[0], 2);
        assert!(!l.can_admit(s, 4_000));
        assert!(l.can_admit(s, 2_000));
        l.release(s, 4_000);
        assert!(l.can_admit(s, 4_000));
        assert_eq!(l.total_streams(), 1);
        assert!(l.within_capacity());
    }

    #[test]
    fn exact_fit_admitted() {
        let mut l = links(1, 4_000);
        assert!(l.can_admit(ServerId(0), 4_000));
        l.admit(ServerId(0), 4_000);
        assert!(!l.can_admit(ServerId(0), 1));
        assert_eq!(l.free_kbps(ServerId(0)), 0);
    }

    #[test]
    fn stream_loads_float() {
        let mut l = links(2, 10_000);
        l.admit(ServerId(1), 1_000);
        assert_eq!(l.stream_loads(), vec![0.0, 1.0]);
    }

    #[test]
    fn repair_reservation_competes_with_streaming() {
        let mut l = links(1, 10_000);
        l.reserve_repair(ServerId(0), 8_000);
        assert_eq!(l.free_kbps(ServerId(0)), 2_000);
        assert!(!l.can_admit(ServerId(0), 4_000));
        assert!(l.can_admit(ServerId(0), 2_000));
        l.release_repair(ServerId(0), 8_000);
        assert!(l.can_admit(ServerId(0), 10_000));
        assert!(l.within_capacity());
    }

    #[test]
    fn failure_clears_repair_reservation() {
        let mut l = links(1, 10_000);
        l.reserve_repair(ServerId(0), 4_000);
        l.fail(ServerId(0));
        assert_eq!(l.repair_kbps()[0], 0);
        // Releasing after the failure must not underflow.
        l.release_repair(ServerId(0), 4_000);
        l.recover(ServerId(0));
        assert_eq!(l.free_kbps(ServerId(0)), 10_000);
    }

    #[test]
    fn brownout_shrinks_effective_capacity_and_reports_excess() {
        let mut l = links(1, 10_000);
        l.admit(ServerId(0), 4_000);
        l.admit(ServerId(0), 4_000);
        // 50% brownout: effective 5 000 kbps, 8 000 committed → shed 3 000.
        let excess = l.set_brownout(ServerId(0), 0.5);
        assert_eq!(excess, 3_000);
        assert_eq!(l.effective_capacity_kbps(ServerId(0)), 5_000);
        assert_eq!(l.free_kbps(ServerId(0)), 0); // saturates, no underflow
        assert!(!l.can_admit(ServerId(0), 1));
        assert!(!l.within_capacity());
        l.release(ServerId(0), 4_000);
        assert!(l.within_capacity());
        assert_eq!(l.free_kbps(ServerId(0)), 1_000);
        l.clear_brownout(ServerId(0));
        assert_eq!(l.effective_capacity_kbps(ServerId(0)), 10_000);
        assert_eq!(l.free_kbps(ServerId(0)), 6_000);
    }

    #[test]
    fn brownout_survives_crash_and_recovery() {
        let mut l = links(1, 10_000);
        l.set_brownout(ServerId(0), 0.3);
        l.fail(ServerId(0));
        l.recover(ServerId(0));
        assert_eq!(l.effective_capacity_kbps(ServerId(0)), 3_000);
        assert!(!l.can_admit(ServerId(0), 3_001));
        assert!(l.can_admit(ServerId(0), 3_000));
    }

    #[test]
    fn per_server_isolation() {
        let mut l = links(3, 5_000);
        l.admit(ServerId(1), 5_000);
        assert!(l.can_admit(ServerId(0), 5_000));
        assert!(l.can_admit(ServerId(2), 5_000));
        assert!(!l.can_admit(ServerId(1), 1));
    }
}
