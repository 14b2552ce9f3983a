//! Lightweight run telemetry for the VoD reproduction.
//!
//! Three instruments, all handed out by a [`Telemetry`] handle:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`;
//! * [`Histogram`] — count/sum/min/max;
//! * [`Span`] — an RAII wall-clock timer keyed by name, recording into
//!   the span registry (and usable for per-phase timings).
//!
//! The registry records which histograms hold wall-clock seconds: every
//! span's, and the engine's phase-clock totals (`sim.phase.*`). Run
//! manifests list exactly those as phases.
//!
//! A `Telemetry` handle is either *enabled* (backed by a shared
//! registry) or *disabled*. Disabled handles hand out instrument
//! handles whose every operation is a branch on `None` — no
//! allocation, no locking, no atomics — so instrumented hot loops pay
//! effectively nothing when telemetry is off. Handles are `Clone` and
//! cheap to pass around; clones of an enabled handle share one
//! registry.
//!
//! [`Snapshot`] freezes the registry into plain serializable maps, and
//! the [`manifest`] module turns snapshots plus run parameters into
//! JSONL run-manifest records.

#![forbid(unsafe_code)]

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod manifest;

pub use manifest::{ManifestWriter, PhaseTiming, RunRecord};

/// The engine's phase-clock namespace: histograms named `sim.phase.*`
/// hold per-run wall-clock totals in seconds, so the registry records
/// them as timers, as it does every span.
const PHASE_NAMESPACE: &str = "sim.phase.";

/// Highest individually named shard index; shards beyond this fold into
/// the last slot (counter names are `&'static str`, so the table is
/// fixed-size).
pub const MAX_NAMED_SHARDS: usize = 16;

static SHARD_EVENTS: [&str; MAX_NAMED_SHARDS] = [
    "sim.shard.events.00",
    "sim.shard.events.01",
    "sim.shard.events.02",
    "sim.shard.events.03",
    "sim.shard.events.04",
    "sim.shard.events.05",
    "sim.shard.events.06",
    "sim.shard.events.07",
    "sim.shard.events.08",
    "sim.shard.events.09",
    "sim.shard.events.10",
    "sim.shard.events.11",
    "sim.shard.events.12",
    "sim.shard.events.13",
    "sim.shard.events.14",
    "sim.shard.events.15",
];

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCell>>>,
}

/// Entry point: hands out counters, histograms, and spans.
///
/// Construct with [`Telemetry::enabled`] or [`Telemetry::disabled`].
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A recording handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Telemetry {
            registry: Some(Arc::new(Registry::default())),
        }
    }

    /// A no-op handle: all instruments it hands out record nothing.
    pub fn disabled() -> Self {
        Telemetry { registry: None }
    }

    /// Whether instruments from this handle actually record.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The counter registered under `name` (created on first use).
    /// Clones of this handle return the same underlying counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter {
            cell: self.registry.as_ref().map(|r| {
                Arc::clone(
                    r.counters
                        .lock()
                        .entry(name)
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )
            }),
        }
    }

    /// The histogram registered under `name` (created on first use).
    /// One named `sim.phase.*` is recorded as a wall-clock timer.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.registered(name, name.starts_with(PHASE_NAMESPACE))
    }

    /// The histogram `name`, created on first use as a timer (holding
    /// wall-clock seconds) or not; its first registration fixes which.
    fn registered(&self, name: &'static str, timer: bool) -> Histogram {
        Histogram {
            cell: self.registry.as_ref().map(|r| {
                Arc::clone(r.histograms.lock().entry(name).or_insert_with(|| {
                    Arc::new(HistogramCell {
                        timer,
                        ..HistogramCell::default()
                    })
                }))
            }),
        }
    }

    /// Starts an RAII wall-clock timer; on drop it records elapsed
    /// seconds into the timer histogram `name`. Spans nest freely — each
    /// records independently.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            histogram: self.registered(name, true),
            started: self.is_enabled().then(Instant::now),
        }
    }

    /// Adds every counter and histogram of `other` into this handle's
    /// instruments of the same name, as if `other`'s observations had
    /// been recorded here too. A no-op when either handle is disabled or
    /// both share one registry.
    pub fn absorb(&self, other: &Telemetry) {
        let (Some(into), Some(from)) = (&self.registry, &other.registry) else {
            return;
        };
        if Arc::ptr_eq(into, from) {
            return;
        }
        // Copy out first, so no two registries' locks are ever held at once.
        let counters: Vec<_> = from
            .counters
            .lock()
            .iter()
            .map(|(&name, cell)| (name, cell.load(Ordering::Relaxed)))
            .collect();
        let histograms: Vec<_> = from
            .histograms
            .lock()
            .iter()
            .map(|(&name, cell)| (name, cell.timer, cell.inner.lock().clone()))
            .collect();
        for (name, n) in counters {
            self.counter(name).add(n);
        }
        for (name, timer, data) in histograms {
            if let Some(cell) = self.registered(name, timer).cell {
                cell.absorb(&data);
            }
        }
    }

    /// The event counter of engine shard `shard`, named
    /// `sim.shard.events.NN`; indices at or beyond [`MAX_NAMED_SHARDS`]
    /// fold into the last named slot, so totals stay exact however many
    /// shards a run uses. Comparisons across runs with different shard
    /// counts should exclude the `sim.shard.` prefix — the per-shard
    /// split is topology-dependent by design.
    pub fn shard_events(&self, shard: usize) -> Counter {
        self.counter(SHARD_EVENTS[shard.min(MAX_NAMED_SHARDS - 1)])
    }

    /// Freezes all instruments into plain maps. Returns an empty
    /// snapshot for disabled handles.
    pub fn snapshot(&self) -> Snapshot {
        let Some(registry) = &self.registry else {
            return Snapshot::default();
        };
        let counters = registry
            .counters
            .lock()
            .iter()
            .map(|(&name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        let registered = registry.histograms.lock();
        let histograms = registered
            .iter()
            .map(|(&name, cell)| (name.to_string(), cell.stats()))
            .collect();
        let timers = registered
            .iter()
            .filter(|(_, cell)| cell.timer)
            .map(|(&name, _)| name.to_string())
            .collect();
        Snapshot {
            counters,
            histograms,
            timers,
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// A monotonically increasing counter. No-op when its `Telemetry`
/// handle was disabled.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op counters).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[derive(Default)]
struct HistogramCell {
    inner: Mutex<HistogramData>,
    /// Whether the observations are wall-clock seconds.
    timer: bool,
}

#[derive(Clone)]
struct HistogramData {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistogramCell {
    fn observe(&self, value: f64, n: u64) {
        if !value.is_finite() || n == 0 {
            return;
        }
        let mut data = self.inner.lock();
        data.count += n;
        for _ in 0..n {
            data.sum += value;
        }
        data.min = data.min.min(value);
        data.max = data.max.max(value);
    }

    /// Folds in another cell's observations.
    fn absorb(&self, other: &HistogramData) {
        let mut data = self.inner.lock();
        data.count += other.count;
        data.sum += other.sum;
        data.min = data.min.min(other.min);
        data.max = data.max.max(other.max);
    }

    fn stats(&self) -> HistogramStats {
        let data = self.inner.lock().clone();
        HistogramStats {
            count: data.count,
            sum: data.sum,
            min: if data.count == 0 { 0.0 } else { data.min },
            max: if data.count == 0 { 0.0 } else { data.max },
        }
    }
}

/// A distribution recorder. No-op when its `Telemetry` handle was
/// disabled. Non-finite observations are dropped.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Records `n` observations of `value` under one lock, with exactly
    /// the stats of `n` calls to [`Histogram::observe`].
    pub fn observe_n(&self, value: f64, n: u64) {
        if let Some(cell) = &self.cell {
            cell.observe(value, n);
        }
    }

    /// Summary statistics (zeros for no-op histograms).
    pub fn stats(&self) -> HistogramStats {
        self.cell
            .as_ref()
            .map_or_else(HistogramStats::default, |cell| cell.stats())
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Count/sum/min/max summary of a histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramStats {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramStats {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// RAII wall-clock timer from [`Telemetry::span`]. Records elapsed
/// seconds into its histogram when dropped.
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    started: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.histogram.observe(started.elapsed().as_secs_f64());
        }
    }
}

/// A frozen, serializable view of a registry.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name (spans appear here, in seconds).
    pub histograms: BTreeMap<String, HistogramStats>,
    /// Names of the histograms that hold wall-clock seconds — every
    /// span's and each `sim.phase.*` one — in name order.
    pub timers: Vec<String>,
}

impl Snapshot {
    /// The counter value, or 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram summary, or zeros if never registered.
    pub fn histogram(&self, name: &str) -> HistogramStats {
        self.histograms.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let telemetry = Telemetry::enabled();
        let a = telemetry.counter("arrivals");
        let b = telemetry.counter("arrivals");
        a.add(1);
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(telemetry.snapshot().counter("arrivals"), 5);
    }

    #[test]
    fn clones_share_one_registry() {
        let telemetry = Telemetry::enabled();
        let clone = telemetry.clone();
        clone.counter("x").add(7);
        assert_eq!(telemetry.snapshot().counter("x"), 7);
    }

    #[test]
    fn histogram_stats_are_correct() {
        let telemetry = Telemetry::enabled();
        let h = telemetry.histogram("load");
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        let stats = h.stats();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.sum, 16.0);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 10.0);
        assert_eq!(stats.mean(), 4.0);
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let telemetry = Telemetry::enabled();
        let (one, many) = (telemetry.histogram("one"), telemetry.histogram("many"));
        for (value, n) in [(0.1, 3), (0.0, 5), (7.0, 1), (2.5, 0)] {
            for _ in 0..n {
                one.observe(value);
            }
            many.observe_n(value, n);
        }
        assert_eq!(one.stats(), many.stats());
        assert_eq!(many.stats().count, 9);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let telemetry = Telemetry::enabled();
        let h = telemetry.histogram("h");
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(2.0);
        assert_eq!(h.stats().count, 1);
    }

    #[test]
    fn spans_record_elapsed_and_nest() {
        let telemetry = Telemetry::enabled();
        {
            let _outer = telemetry.span("outer");
            {
                let _inner = telemetry.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = telemetry.snapshot();
        let outer = snap.histogram("outer");
        let inner = snap.histogram("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            outer.sum >= inner.sum,
            "outer {} should cover inner {}",
            outer.sum,
            inner.sum
        );
    }

    #[test]
    fn spans_and_phase_clock_histograms_are_timers() {
        let telemetry = Telemetry::enabled();
        drop(telemetry.span("sim.run"));
        telemetry.histogram("sim.phase.control_tick_s").observe(0.5);
        telemetry.histogram("sim.queue.peak_len").observe(10.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.timers, ["sim.phase.control_tick_s", "sim.run"]);
        assert_eq!(snap.histograms.len(), 3);
    }

    #[test]
    fn absorb_adds_counters_and_histograms_by_name() {
        let (into, from) = (Telemetry::enabled(), Telemetry::enabled());
        into.counter("sim.events").add(3);
        into.histogram("h").observe(1.0);
        from.counter("sim.events").add(4);
        from.counter("sim.arrivals").add(2);
        from.histogram("h").observe(5.0);
        from.histogram("h").observe(0.5);
        drop(from.span("sim.run"));
        into.absorb(&from);
        // A shared registry or a disabled side changes nothing.
        into.absorb(&into.clone());
        into.absorb(&Telemetry::disabled());
        Telemetry::disabled().absorb(&from);
        let snap = into.snapshot();
        assert_eq!(snap.counter("sim.events"), 7);
        assert_eq!(snap.counter("sim.arrivals"), 2);
        let h = snap.histogram("h");
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 6.5, 0.5, 5.0));
        assert_eq!(snap.histogram("sim.run").count, 1);
        assert_eq!(snap.timers, ["sim.run"]);
        assert_eq!(from.snapshot().counter("sim.events"), 4);
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let c = telemetry.counter("c");
        let h = telemetry.histogram("h");
        c.add(100);
        h.observe(1.0);
        drop(telemetry.span("s"));
        assert_eq!(c.get(), 0);
        assert_eq!(h.stats().count, 0);
        let snap = telemetry.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn shard_counters_are_named_and_folded() {
        let telemetry = Telemetry::enabled();
        telemetry.shard_events(0).add(3);
        telemetry.shard_events(7).add(5);
        // Indices past the named table fold into the last slot.
        telemetry.shard_events(MAX_NAMED_SHARDS + 9).add(2);
        telemetry.shard_events(MAX_NAMED_SHARDS - 1).add(1);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sim.shard.events.00"), 3);
        assert_eq!(snap.counter("sim.shard.events.07"), 5);
        assert_eq!(snap.counter("sim.shard.events.15"), 3);
    }

    #[test]
    fn counters_are_thread_safe() {
        let telemetry = Telemetry::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = telemetry.counter("shared");
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(telemetry.snapshot().counter("shared"), 4000);
    }
}
