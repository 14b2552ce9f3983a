//! Rejection accounting and load-imbalance sampling.
//!
//! The evaluation's primary metric is the **rejection rate** ("We use the
//! rejection rate as the performance metric", Sec. 5); Figure 6 adds the
//! **load-imbalance degree L(%)** sampled during the run. The collector
//! samples per-server loads (in concurrent streams) on a fixed cadence and
//! averages the Eq. (2)/(3) imbalance over all samples with non-zero mean
//! load.
//!
//! A run's [`SimReport`] is its one ledger: the engine counts every
//! outcome straight into the report the collector will return, and the
//! invariant auditor reads its totals from there.

use serde::{Deserialize, Serialize};
use vod_model::load;
use vod_telemetry::{Histogram, Telemetry};
use vod_workload::stats;

/// One recorded load snapshot (when series recording is enabled).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSample {
    /// Sample instant, minutes from the simulation epoch.
    pub at_min: f64,
    /// Per-server concurrent stream counts.
    pub streams: Vec<f64>,
}

/// Online metrics accumulator. Every count the report carries is kept
/// in the report itself ([`MetricsCollector::report`], zeroed at the
/// start); the collector adds only the running sums the derived fields
/// need, and [`MetricsCollector::finish`] fills those fields in.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsCollector {
    /// The run's report: counts accumulate here as they happen.
    pub report: SimReport,
    waits: WaitLog,
    /// Offered traffic in exact `kbps·seconds` (integer so shard merges
    /// are order-independent); converted to `kbps·minutes` once, in
    /// [`MetricsCollector::finish`].
    offered_kbps_s: u128,
    /// Delivered traffic in exact `kbps·seconds`.
    delivered_kbps_s: u128,
    /// Traffic booked as delivered but later killed or rate-reduced, in
    /// exact `kbps·ticks` (millisecond resolution).
    undelivered_kbps_ticks: u128,
    imbalance_cv_sum: f64,
    imbalance_maxdev_rel_sum: f64,
    imbalance_samples: u64,
    imbalance_maxdev_abs_sum: f64,
    all_samples: u64,
    stream_time_integral: f64,
    last_sample_min: f64,
    record_series: bool,
}

impl MetricsCollector {
    /// A collector for `n_videos` videos; `record_series` keeps every
    /// load sample in the report (`N × samples` floats per run).
    pub fn new(n_videos: usize, record_series: bool) -> Self {
        MetricsCollector {
            report: SimReport {
                per_video_arrivals: vec![0; n_videos],
                per_video_rejections: vec![0; n_videos],
                ..SimReport::default()
            },
            record_series,
            ..MetricsCollector::default()
        }
    }

    /// Records an arrival for `video` (0-based index).
    pub fn on_arrival(&mut self, video: usize) {
        self.report.arrivals += 1;
        self.report.per_video_arrivals[video] += 1;
    }

    /// Records an admission (`redirected` marks backbone-proxied streams).
    pub fn on_admit(&mut self, redirected: bool) {
        self.report.admitted += 1;
        if redirected {
            self.report.redirected += 1;
        }
    }

    /// Records a final rejection for `video`.
    pub fn on_reject(&mut self, video: usize) {
        self.report.rejected += 1;
        self.report.per_video_rejections[video] += 1;
    }

    /// Records the wait of an admitted request, in minutes: every
    /// admission is recorded, an immediate one as 0.
    pub fn on_wait(&mut self, wait_min: f64) {
        self.waits.push(wait_min);
    }

    /// Observes every admitted request's wait into `histogram`: the
    /// immediate admissions as one batch, then the rest in admission
    /// order (adding `+0.0` never moves a non-negative float sum, so the
    /// histogram's sum is the one per-admission observation gives).
    pub fn observe_waits(&self, histogram: &Histogram) {
        histogram.observe_n(0.0, self.waits.zeros);
        for &w in &self.waits.waited {
            histogram.observe(w);
        }
    }

    /// Adds `kbps × seconds` of *offered* traffic (each arrival's full
    /// rate over its full duration) to the goodput denominator. Exact
    /// integer accounting: accumulation order never changes the total.
    pub fn on_offered(&mut self, kbps: u64, duration_s: u64) {
        self.offered_kbps_s += kbps as u128 * duration_s as u128;
    }

    /// Adds delivered `kbps × seconds` (at the admitted, possibly
    /// degraded, rate) to the goodput numerator.
    pub fn on_delivered(&mut self, kbps: u64, duration_s: u64) {
        self.delivered_kbps_s += kbps as u128 * duration_s as u128;
    }

    /// Books `kbps` over `remaining_ticks` milliseconds a previously
    /// admitted stream will no longer deliver (killed or rate-reduced
    /// mid-flight); subtracted from the numerator at finish time.
    pub fn on_undelivered(&mut self, kbps: u64, remaining_ticks: u64) {
        self.undelivered_kbps_ticks += kbps as u128 * remaining_ticks as u128;
    }

    /// Takes a load sample: `stream_loads` are per-server concurrent
    /// stream counts at minute `now_min`.
    pub fn sample_loads(&mut self, stream_loads: &[f64], now_min: f64) {
        let total: f64 = stream_loads.iter().sum();
        if total > 0.0 {
            self.imbalance_cv_sum += load::coefficient_of_variation(stream_loads);
            let mean = total / stream_loads.len() as f64;
            self.imbalance_maxdev_rel_sum += load::max_deviation(stream_loads) / mean;
            self.imbalance_samples += 1;
        }
        // Absolute Eq. (2) deviation in streams, averaged over *all*
        // samples (idle samples contribute 0) — the measure behind the
        // paper's Figure 6 shape when normalized by link capacity.
        self.imbalance_maxdev_abs_sum += load::max_deviation(stream_loads);
        self.all_samples += 1;
        let peak = &mut self.report.peak_concurrent_streams;
        *peak = (*peak).max(total as u64);
        let dt = (now_min - self.last_sample_min).max(0.0);
        self.stream_time_integral += total * dt;
        self.last_sample_min = now_min;
        if self.record_series {
            self.report.series.push(LoadSample {
                at_min: now_min,
                streams: stream_loads.to_vec(),
            });
        }
    }

    /// Folds another collector into this one — the cross-shard merge of
    /// the sharded engine. All event counts and the goodput integrals
    /// are integers, so the merged totals equal a serial run's exactly,
    /// whatever order shards finish in. Float fields (wait times,
    /// imbalance sums, the sample series) are only *exact* when the
    /// inputs have disjoint support — true by construction for engine
    /// shards, which serve disjoint server groups and defer load
    /// sampling to the coordinator's replay.
    pub fn absorb(&mut self, other: MetricsCollector) {
        let (r, o) = (&mut self.report, other.report);
        debug_assert_eq!(r.per_video_arrivals.len(), o.per_video_arrivals.len());
        r.arrivals += o.arrivals;
        r.admitted += o.admitted;
        r.rejected += o.rejected;
        r.redirected += o.redirected;
        r.disrupted += o.disrupted;
        r.resumed += o.resumed;
        r.degraded += o.degraded;
        r.queued += o.queued;
        r.retried += o.retried;
        r.abandoned += o.abandoned;
        r.degraded_served += o.degraded_served;
        r.brownout_active_min += o.brownout_active_min;
        r.repair_bytes_copied += o.repair_bytes_copied;
        r.repair_copies += o.repair_copies;
        r.time_to_redundancy_min += o.time_to_redundancy_min;
        r.redundancy_deficit_video_min += o.redundancy_deficit_video_min;
        r.unavailability_video_min += o.unavailability_video_min;
        r.controller_ticks += o.controller_ticks;
        r.controller_backoffs += o.controller_backoffs;
        r.controller_promotions += o.controller_promotions;
        r.controller_demotions += o.controller_demotions;
        r.controller_retired += o.controller_retired;
        r.controller_copies += o.controller_copies;
        r.controller_bytes_copied += o.controller_bytes_copied;
        for (a, b) in r.per_video_arrivals.iter_mut().zip(o.per_video_arrivals) {
            *a += b;
        }
        for (a, b) in r
            .per_video_rejections
            .iter_mut()
            .zip(o.per_video_rejections)
        {
            *a += b;
        }
        r.peak_concurrent_streams = r.peak_concurrent_streams.max(o.peak_concurrent_streams);
        r.series.extend(o.series);
        self.waits.zeros += other.waits.zeros;
        self.waits.waited.extend(other.waits.waited);
        self.offered_kbps_s += other.offered_kbps_s;
        self.delivered_kbps_s += other.delivered_kbps_s;
        self.undelivered_kbps_ticks += other.undelivered_kbps_ticks;
        self.imbalance_cv_sum += other.imbalance_cv_sum;
        self.imbalance_maxdev_rel_sum += other.imbalance_maxdev_rel_sum;
        self.imbalance_samples += other.imbalance_samples;
        self.imbalance_maxdev_abs_sum += other.imbalance_maxdev_abs_sum;
        self.all_samples += other.all_samples;
        self.stream_time_integral += other.stream_time_integral;
        self.last_sample_min = self.last_sample_min.max(other.last_sample_min);
    }

    /// Fills in the report's derived fields — rates, means, wait
    /// percentiles and goodput — and returns it. `horizon_min` is the
    /// simulated peak-period length.
    pub fn finish(mut self, horizon_min: f64) -> SimReport {
        let mut r = self.report;
        let n = self.imbalance_samples.max(1) as f64;
        // The mean sums in admission order, so it goes before the sort.
        r.mean_wait_min = self.waits.mean();
        [r.wait_p50_min, r.wait_p95_min] = self.waits.percentiles([0.50, 0.95]);
        r.goodput = if self.offered_kbps_s > 0 {
            let offered_kbps_min = self.offered_kbps_s as f64 / 60.0;
            let delivered_kbps_min =
                self.delivered_kbps_s as f64 / 60.0 - self.undelivered_kbps_ticks as f64 / 60_000.0;
            (delivered_kbps_min / offered_kbps_min).clamp(0.0, 1.0)
        } else {
            1.0
        };
        r.rejection_rate = if r.arrivals == 0 {
            0.0
        } else {
            r.rejected as f64 / r.arrivals as f64
        };
        r.mean_imbalance_cv = self.imbalance_cv_sum / n;
        r.mean_imbalance_maxdev_rel = self.imbalance_maxdev_rel_sum / n;
        r.mean_imbalance_maxdev_streams =
            self.imbalance_maxdev_abs_sum / self.all_samples.max(1) as f64;
        r.mean_concurrent_streams = if horizon_min > 0.0 {
            self.stream_time_integral / horizon_min
        } else {
            0.0
        };
        r
    }
}

/// Waits of admitted requests, minutes. Immediate admissions (an exact
/// `+0.0` wait) are only counted and the rest kept in admission order,
/// so storage grows with the requests that actually waited, never with
/// the trace.
#[derive(Debug, Clone, Default)]
struct WaitLog {
    /// Admissions that waited exactly `+0.0`.
    zeros: u64,
    /// Every other wait, in admission order.
    waited: Vec<f64>,
}

impl WaitLog {
    fn push(&mut self, wait_min: f64) {
        if wait_min == 0.0 && wait_min.is_sign_positive() {
            self.zeros += 1;
        } else {
            self.waited.push(wait_min);
        }
    }

    fn len(&self) -> usize {
        self.zeros as usize + self.waited.len()
    }

    /// [`stats::sample_mean`] of the full log. A `+0.0` term leaves a
    /// running float sum unchanged unless that sum is the empty sum's
    /// `-0.0`, so the zeros only decide where the sum starts.
    fn mean(&self) -> f64 {
        if self.len() == 0 {
            return 0.0;
        }
        let sum = if self.zeros == 0 {
            self.waited.iter().sum::<f64>()
        } else {
            self.waited.iter().fold(0.0, |acc, &w| acc + w)
        };
        sum / self.len() as f64
    }

    /// [`stats::percentile`] of the full log at each of `qs`, from one
    /// sort (in place, so after [`WaitLog::mean`]) of the non-zero
    /// waits: in sorted order the zeros sit right after the waits below
    /// `+0.0`.
    fn percentiles<const Q: usize>(&mut self, qs: [f64; Q]) -> [f64; Q] {
        self.waited.sort_by(|a, b| a.total_cmp(b));
        let below = self.waited.partition_point(|w| w.total_cmp(&0.0).is_lt());
        let zeros = self.zeros as usize;
        let at = |i: usize| {
            if i < below {
                self.waited[i]
            } else if i < below + zeros {
                0.0
            } else {
                self.waited[i - zeros]
            }
        };
        qs.map(|q| stats::sorted_percentile(self.len(), q, at))
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total requests that arrived during the peak period.
    pub arrivals: u64,
    /// Requests admitted (direct + redirected).
    pub admitted: u64,
    /// Requests rejected for lack of bandwidth.
    pub rejected: u64,
    /// Admitted requests served via backbone redirection.
    pub redirected: u64,
    /// Admitted streams killed mid-playback by injected server failures.
    pub disrupted: u64,
    /// Streams migrated to a surviving replica at full rate after their
    /// server failed (zero unless stream failover is enabled).
    #[serde(default)]
    pub resumed: u64,
    /// Streams that continued at a reduced bit rate after their server
    /// failed (zero unless graceful degradation is enabled).
    #[serde(default)]
    pub degraded: u64,
    /// Requests that entered the admission wait queue at least once
    /// (zero under the default `Block` policy).
    #[serde(default)]
    pub queued: u64,
    /// Retry attempts scheduled by the admission pipeline.
    #[serde(default)]
    pub retried: u64,
    /// Requests that gave up waiting: patience expired with no retry
    /// budget left, or the run ended while they were still pending.
    #[serde(default)]
    pub abandoned: u64,
    /// Requests admitted below their requested bit rate by the
    /// `QueueOrDegrade` policy.
    #[serde(default)]
    pub degraded_served: u64,
    /// Mean wait of admitted requests, minutes; an immediate admission
    /// waits 0 (0 when nothing was admitted).
    #[serde(default)]
    pub mean_wait_min: f64,
    /// Median wait of admitted requests (immediate ones as 0), minutes.
    #[serde(default)]
    pub wait_p50_min: f64,
    /// 95th-percentile wait of admitted requests (immediate ones as 0),
    /// minutes.
    #[serde(default)]
    pub wait_p95_min: f64,
    /// Delivered ÷ offered `kbps·minutes`: the fraction of requested
    /// stream-bandwidth-time actually served (degraded admissions,
    /// rate-reduced failovers and mid-flight kills all reduce it; 1.0
    /// for an idle run). Exact except for streams dropped by
    /// [`crate::FailoverPolicy::Kill`] during a *crash* (not brownout),
    /// whose remaining duration is still counted as delivered — a
    /// documented simplification of the kill path.
    #[serde(default)]
    pub goodput: f64,
    /// Total browned-out time summed over servers, minutes.
    #[serde(default)]
    pub brownout_active_min: f64,
    /// Bytes of replica data copied by mid-run repair.
    #[serde(default)]
    pub repair_bytes_copied: u64,
    /// Replica copies completed by mid-run repair.
    #[serde(default)]
    pub repair_copies: u64,
    /// Minutes during which at least one video sat below its replication
    /// target (time to full redundancy, summed over deficit windows).
    /// Under popularity-skewed replication the single-replica cold tail
    /// pins this union to the outage union (those videos cannot be
    /// rebuilt while their only holder is down).
    #[serde(default)]
    pub time_to_redundancy_min: f64,
    /// Video·minutes below replication target — the replica-deficit
    /// integral mid-run repair drains copy by copy.
    #[serde(default)]
    pub redundancy_deficit_video_min: f64,
    /// Video·minutes with zero servable replicas.
    #[serde(default)]
    pub unavailability_video_min: f64,
    /// Control ticks fired by the online replication controller (zero
    /// when the controller is off).
    #[serde(default)]
    pub controller_ticks: u64,
    /// Control ticks that backed off (server down, repair busy, or the
    /// cluster over its streaming-utilization headroom).
    #[serde(default)]
    pub controller_backoffs: u64,
    /// Replication targets raised by the controller.
    #[serde(default)]
    pub controller_promotions: u64,
    /// Replication targets lowered by the controller.
    #[serde(default)]
    pub controller_demotions: u64,
    /// Replicas retired by controller demotions.
    #[serde(default)]
    pub controller_retired: u64,
    /// Re-replication copies completed on the controller's behalf.
    #[serde(default)]
    pub controller_copies: u64,
    /// Bytes copied for controller re-replication (the re-replication
    /// bandwidth bill, distinct from failure-repair bytes).
    #[serde(default)]
    pub controller_bytes_copied: u64,
    /// `rejected / arrivals` — the paper's primary metric.
    pub rejection_rate: f64,
    /// Time-averaged Eq. (3) load-imbalance degree (coefficient of
    /// variation of per-server stream loads) over non-idle samples.
    pub mean_imbalance_cv: f64,
    /// Time-averaged Eq. (2) imbalance normalized by the mean load.
    pub mean_imbalance_maxdev_rel: f64,
    /// Time-averaged absolute Eq. (2) imbalance, in concurrent streams
    /// (idle samples included as zero). Divided by the per-server stream
    /// capacity this is the Figure 6 "L(%)" that rises with load, peaks
    /// below saturation and collapses once every server is full.
    pub mean_imbalance_maxdev_streams: f64,
    /// Largest concurrent stream count observed cluster-wide.
    pub peak_concurrent_streams: u64,
    /// Time-averaged concurrent stream count.
    pub mean_concurrent_streams: f64,
    /// Arrivals per video.
    pub per_video_arrivals: Vec<u64>,
    /// Rejections per video.
    pub per_video_rejections: Vec<u64>,
    /// Per-sample load snapshots; empty unless
    /// [`crate::SimConfig::record_series`] was set.
    pub series: Vec<LoadSample>,
}

impl SimReport {
    /// Adds the report's outcome counts to `telemetry`'s `sim.*`
    /// counters — the part of a run's instruments the report alone
    /// determines (see [`crate::Simulation::run_with_telemetry`]).
    pub(crate) fn publish_counters(&self, telemetry: &Telemetry) {
        for (name, n) in [
            ("sim.arrivals", self.arrivals),
            ("sim.admitted", self.admitted),
            ("sim.rejected", self.rejected),
            ("sim.redirected", self.redirected),
            ("sim.disrupted", self.disrupted),
            ("sim.streams.resumed", self.resumed),
            ("sim.streams.degraded", self.degraded),
            ("sim.admission.queued", self.queued),
            ("sim.admission.retried", self.retried),
            ("sim.admission.abandoned", self.abandoned),
            ("sim.admission.degraded", self.degraded_served),
        ] {
            telemetry.counter(name).add(n);
        }
        if self.brownout_active_min > 0.0 {
            telemetry
                .counter("sim.brownout.active_min")
                .add(self.brownout_active_min.ceil() as u64);
        }
    }

    /// Conservation check: every arrival ended exactly once — admitted
    /// (possibly degraded), finally rejected, or abandoned after
    /// queueing. `abandoned` is zero under the default `Block` policy,
    /// reducing this to the paper's loss-model identity.
    pub fn is_conservative(&self) -> bool {
        self.admitted + self.rejected + self.abandoned == self.arrivals
            && self.per_video_arrivals.iter().sum::<u64>() == self.arrivals
            && self.per_video_rejections.iter().sum::<u64>() == self.rejected
            && self.degraded_served <= self.admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_flow_through() {
        let mut c = MetricsCollector::new(2, false);
        c.on_arrival(0);
        c.on_admit(false);
        c.on_arrival(1);
        c.on_reject(1);
        c.on_arrival(0);
        c.on_admit(true);
        let r = c.finish(90.0);
        assert_eq!(r.arrivals, 3);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.redirected, 1);
        assert_eq!(r.disrupted, 0);
        assert!((r.rejection_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.per_video_arrivals, vec![2, 1]);
        assert_eq!(r.per_video_rejections, vec![0, 1]);
        assert!(r.is_conservative());
    }

    #[test]
    fn admission_pipeline_counters_flow_through() {
        let mut c = MetricsCollector::new(1, false);
        // Request 1: queued, waits 2 min, then served at a thinner rate.
        c.on_arrival(0);
        c.report.queued += 1;
        c.on_wait(2.0);
        c.on_admit(false);
        c.report.degraded_served += 1;
        // Request 2: queued, one retry, then gives up.
        c.on_arrival(0);
        c.report.queued += 1;
        c.report.retried += 1;
        c.report.abandoned += 1;
        // Request 3: served instantly.
        c.on_arrival(0);
        c.on_wait(6.0);
        c.on_admit(false);
        // 100 kbps offered for 60 s, 80 delivered, 10 kbps·min killed:
        // goodput = (80 - 10) / 100.
        c.on_offered(100, 60);
        c.on_delivered(80, 60);
        c.on_undelivered(10, 60_000);
        c.report.brownout_active_min = 3.5;
        let r = c.finish(90.0);
        assert_eq!(
            (r.queued, r.retried, r.abandoned, r.degraded_served),
            (2, 1, 1, 1)
        );
        assert_eq!((r.admitted, r.rejected, r.abandoned), (2, 0, 1));
        assert!(r.is_conservative(), "abandonment balances the ledger");
        assert!((r.goodput - 0.7).abs() < 1e-12);
        assert!((r.mean_wait_min - 4.0).abs() < 1e-12);
        assert!((r.wait_p50_min - 4.0).abs() < 1e-12);
        assert!((r.wait_p95_min - 5.8).abs() < 1e-12);
        assert_eq!(r.brownout_active_min, 3.5);
    }

    #[test]
    fn absorb_merges_shard_collectors_exactly() {
        // Two collectors with disjoint per-video support, as engine
        // shards produce, must merge into the serial-run totals.
        let mut a = MetricsCollector::new(3, false);
        a.on_arrival(0);
        a.on_admit(false);
        a.on_offered(100, 60);
        a.on_delivered(100, 60);
        a.on_wait(0.0);
        let mut b = MetricsCollector::new(3, false);
        b.on_arrival(2);
        b.on_reject(2);
        b.on_offered(100, 120);
        b.on_undelivered(50, 60_000);
        let mut merged = MetricsCollector::new(3, false);
        merged.absorb(a);
        merged.absorb(b);
        let r = merged.finish(90.0);
        assert_eq!((r.arrivals, r.admitted, r.rejected), (2, 1, 1));
        assert_eq!(r.per_video_arrivals, vec![1, 0, 1]);
        assert_eq!(r.per_video_rejections, vec![0, 0, 1]);
        // offered 300 kbps·min, delivered 100 - 50 killed = 50.
        assert!((r.goodput - 50.0 / 300.0).abs() < 1e-12);
        assert!(r.is_conservative());
    }

    #[test]
    fn goodput_defaults_to_one_when_nothing_offered() {
        let r = MetricsCollector::new(1, false).finish(90.0);
        assert_eq!(r.goodput, 1.0);
        assert_eq!(r.wait_p50_min, 0.0);
    }

    #[test]
    fn legacy_report_json_deserializes_with_defaults() {
        // Pre-pipeline reports carry none of the admission fields.
        let json = r#"{"arrivals":1,"admitted":1,"rejected":0,"redirected":0,
            "disrupted":0,"resumed":0,"degraded":0,"repair_bytes_copied":0,
            "repair_copies":0,"time_to_redundancy_min":0.0,
            "redundancy_deficit_video_min":0.0,"unavailability_video_min":0.0,
            "rejection_rate":0.0,"mean_imbalance_cv":0.0,
            "mean_imbalance_maxdev_rel":0.0,"mean_imbalance_maxdev_streams":0.0,
            "peak_concurrent_streams":1,"mean_concurrent_streams":0.5,
            "per_video_arrivals":[1],"per_video_rejections":[0],"series":[]}"#;
        let r: SimReport = serde_json::from_str(json).unwrap();
        assert_eq!(
            (r.queued, r.retried, r.abandoned, r.degraded_served),
            (0, 0, 0, 0)
        );
        assert_eq!(r.goodput, 0.0); // serde default; field is new
        assert!(r.is_conservative());
    }

    #[test]
    fn series_recorded_only_when_enabled() {
        let mut off = MetricsCollector::new(1, false);
        off.sample_loads(&[1.0, 2.0], 1.0);
        assert!(off.finish(90.0).series.is_empty());

        let mut on = MetricsCollector::new(1, true);
        on.sample_loads(&[1.0, 2.0], 1.0);
        on.sample_loads(&[3.0, 0.0], 2.0);
        let r = on.finish(90.0);
        assert_eq!(r.series.len(), 2);
        assert_eq!(r.series[0].streams, vec![1.0, 2.0]);
        assert_eq!(r.series[1].at_min, 2.0);
    }

    #[test]
    fn imbalance_averaged_over_busy_samples() {
        let mut c = MetricsCollector::new(1, false);
        c.sample_loads(&[0.0, 0.0], 0.0); // idle: skipped
        c.sample_loads(&[2.0, 4.0, 6.0], 1.0);
        c.sample_loads(&[4.0, 4.0, 4.0], 2.0);
        let r = c.finish(90.0);
        let cv1 = (8.0f64 / 3.0).sqrt() / 4.0;
        assert!((r.mean_imbalance_cv - cv1 / 2.0).abs() < 1e-12);
        // maxdev_rel sample 1: (6-4)/4 = 0.5; sample 2: 0.
        assert!((r.mean_imbalance_maxdev_rel - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absolute_maxdev_includes_idle_samples() {
        let mut c = MetricsCollector::new(1, false);
        c.sample_loads(&[0.0, 0.0], 0.0); // idle: counts as 0 deviation
        c.sample_loads(&[2.0, 6.0], 1.0); // maxdev = 2 (mean 4)
        let r = c.finish(90.0);
        assert!((r.mean_imbalance_maxdev_streams - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_and_mean_streams() {
        let mut c = MetricsCollector::new(1, false);
        c.sample_loads(&[1.0, 1.0], 1.0);
        c.sample_loads(&[5.0, 5.0], 2.0);
        c.sample_loads(&[0.0, 0.0], 3.0);
        let r = c.finish(3.0);
        assert_eq!(r.peak_concurrent_streams, 10);
        // Integral: 2*1 (0->1 with load 2) + 10*1 + 0*1 = 12; /3 = 4.
        assert!((r.mean_concurrent_streams - 4.0).abs() < 1e-12);
    }

    /// Replays `waits` through a collector's wait log and checks mean,
    /// p50 and p95 bit for bit against the statistics of the full list,
    /// and the histogram observations against one `observe` per wait.
    fn check_wait_log(waits: &[f64]) {
        let mut c = MetricsCollector::new(1, false);
        for &w in waits {
            c.on_wait(w);
        }
        let telemetry = Telemetry::enabled();
        let (each, batched) = (telemetry.histogram("each"), telemetry.histogram("batched"));
        waits.iter().for_each(|&w| each.observe(w));
        c.observe_waits(&batched);
        assert_eq!(each.stats(), batched.stats(), "{waits:?}");
        let r = c.finish(90.0);
        let want = [
            stats::sample_mean(waits),
            stats::percentile(waits, 0.50),
            stats::percentile(waits, 0.95),
        ];
        let got = [r.mean_wait_min, r.wait_p50_min, r.wait_p95_min];
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{waits:?}");
    }

    #[test]
    fn wait_log_edge_cases_match_full_list_statistics() {
        check_wait_log(&[]);
        check_wait_log(&[0.0]);
        check_wait_log(&[2.5]);
        check_wait_log(&[0.0; 7]);
        check_wait_log(&[1.5, 0.0, 1.5, 1.5, 0.0]);
        check_wait_log(&[-0.0, 0.0, -0.0]);
        check_wait_log(&[-0.0]);
        check_wait_log(&[0.0, -1.0, 3.0, -0.0, 0.0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random wait lists — empty, single, all-zero, heavily tied,
        /// signed zeros and negatives included — summarize exactly as
        /// the statistics of the full list.
        #[test]
        fn wait_log_matches_full_list_statistics(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let len = rng.gen_range(0..40usize);
            let zero_share = [0.0, 0.5, 0.9, 1.0][rng.gen_range(0..4usize)];
            let waits: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(zero_share) {
                        0.0
                    } else {
                        match rng.gen_range(0..5u32) {
                            0 => 0.75,
                            1 => -0.0,
                            2 => -rng.gen_range(0.0..5.0f64),
                            _ => rng.gen_range(0.0..30.0),
                        }
                    }
                })
                .collect();
            check_wait_log(&waits);
        }
    }

    #[test]
    fn empty_run_is_well_defined() {
        let c = MetricsCollector::new(1, false);
        let r = c.finish(90.0);
        assert_eq!(r.rejection_rate, 0.0);
        assert_eq!(r.mean_imbalance_cv, 0.0);
        assert!(r.is_conservative());
    }
}
