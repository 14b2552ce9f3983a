//! The benchmark's own instrumentation: wall-clock spans around each call
//! into a layer's public API, and a timing wrapper for streaming arrival
//! sources. Nothing here reaches inside the crates under test; time spent
//! within a layer that the benchmark cannot wrap shows up as the self time
//! of the span that called it.

use serde::Serialize;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vod_workload::{ArrivalSource, Request};

/// Index of a recorded span within its tracer.
pub type SpanId = usize;

/// One span: a named interval, in seconds since the tracer started, and
/// the span that opened it.
#[derive(Debug, Serialize)]
pub struct SpanRecord {
    /// Position in the tracer's record list.
    pub id: SpanId,
    /// The enclosing span (`None` for the run's root).
    pub parent: Option<SpanId>,
    /// Layer-boundary name, e.g. `replication` or `sim.run`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
    /// Wall time inside this span spent pulling a streaming arrival
    /// source (see [`TimedSource`]); counted like a child span when the
    /// span's self time is derived.
    pub pull_s: f64,
}

/// Per-name totals over a trace.
#[derive(Debug)]
pub struct NameSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the parts covered by child spans and
    /// source pulls, seconds.
    pub self_s: f64,
}

/// In-memory span recorder for one workload run. Spans are opened only on
/// the benchmark's main thread, so a span's children never overlap each
/// other and its self time is its duration minus theirs.
pub struct Tracer {
    run: String,
    origin: Instant,
    record: bool,
    spans: RefCell<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer whose spans all carry the run id `run`. With `record`
    /// off, [`Tracer::time`] still measures but keeps nothing.
    pub fn new(run: String, record: bool) -> Self {
        Tracer {
            run,
            origin: Instant::now(),
            record,
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span `name` under `parent`, handing `f` the new
    /// span's id for its own children; returns `f`'s result and the span's
    /// duration in seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, f64) {
        let started = Instant::now();
        let id = self.record.then(|| {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let start_s = (started - self.origin).as_secs_f64();
            spans.push(SpanRecord {
                id,
                parent,
                name,
                start_s,
                end_s: start_s,
                pull_s: 0.0,
            });
            id
        });
        let out = f(id);
        let secs = started.elapsed().as_secs_f64();
        if let Some(id) = id {
            let mut spans = self.spans.borrow_mut();
            spans[id].end_s = spans[id].start_s + secs;
        }
        (out, secs)
    }

    /// Marks `secs` of span `id` as spent in arrival-source pulls.
    pub fn add_pull(&self, id: Option<SpanId>, secs: f64) {
        if let Some(id) = id {
            self.spans.borrow_mut()[id].pull_s += secs;
        }
    }

    /// Summed durations of the spans named `name` at or below `root`.
    pub fn total_under(&self, name: &str, root: Option<SpanId>) -> f64 {
        let spans = self.spans.borrow();
        let under = |mut id: SpanId| loop {
            if Some(id) == root {
                return true;
            }
            match spans[id].parent {
                Some(p) => id = p,
                None => return root.is_none(),
            }
        };
        spans
            .iter()
            .filter(|s| s.name == name && under(s.id))
            .fold(0.0, |acc, s| acc + (s.end_s - s.start_s))
    }

    /// Count, total and self time per span name, in first-seen order.
    pub fn summary(&self) -> Vec<NameSummary> {
        let spans = self.spans.borrow();
        let mut covered = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.end_s - s.start_s;
            }
        }
        let mut out: Vec<NameSummary> = Vec::new();
        for s in spans.iter() {
            let total = s.end_s - s.start_s;
            let own = (total - covered[s.id] - s.pull_s).max(0.0);
            match out.iter_mut().find(|n| n.name == s.name) {
                Some(n) => {
                    n.count += 1;
                    n.total_s += total;
                    n.self_s += own;
                }
                None => out.push(NameSummary {
                    name: s.name,
                    count: 1,
                    total_s: total,
                    self_s: own,
                }),
            }
        }
        out
    }

    /// The whole trace as one JSON document: the shared run id and every
    /// span.
    pub fn to_json(&self) -> serde_json::Result<String> {
        Ok(format!(
            "{{\"run\": {}, \"spans\": {}}}\n",
            serde_json::to_string(&self.run)?,
            serde_json::to_string(&*self.spans.borrow())?
        ))
    }
}

/// Time spent in, and requests returned by, `next_request` summed over
/// every clone of one [`TimedSource`].
#[derive(Debug, Default)]
pub struct PullTotals {
    nanos: AtomicU64,
    pulls: AtomicU64,
}

impl PullTotals {
    /// Summed pull time in seconds (CPU-parallel clones add up).
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Requests pulled, over all clones.
    pub fn pulls(&self) -> u64 {
        self.pulls.load(Ordering::Relaxed)
    }
}

/// An [`ArrivalSource`] that times each `next_request` of the source it
/// wraps. The decoupled engine replays one clone per worker thread, so a
/// clone starts from zero local totals and adds them to the shared
/// [`PullTotals`] once, when it is dropped: workers never contend on the
/// atomics while pulling.
pub struct TimedSource<S> {
    inner: S,
    nanos: u64,
    pulls: u64,
    totals: Arc<PullTotals>,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, reporting into `totals`.
    pub fn new(inner: S, totals: Arc<PullTotals>) -> Self {
        TimedSource {
            inner,
            nanos: 0,
            pulls: 0,
            totals,
        }
    }
}

impl<S: Clone> Clone for TimedSource<S> {
    fn clone(&self) -> Self {
        TimedSource::new(self.inner.clone(), Arc::clone(&self.totals))
    }
}

impl<S> Drop for TimedSource<S> {
    fn drop(&mut self) {
        // Relaxed: the totals publish no other data, and they are read
        // only after the run that dropped every clone has returned.
        self.totals.nanos.fetch_add(self.nanos, Ordering::Relaxed);
        self.totals.pulls.fetch_add(self.pulls, Ordering::Relaxed);
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<S> {
    fn next_request(&mut self) -> Option<Request> {
        let started = Instant::now();
        let next = self.inner.next_request();
        self.nanos += started.elapsed().as_nanos() as u64;
        self.pulls += u64::from(next.is_some());
        next
    }

    fn horizon_min(&self) -> f64 {
        self.inner.horizon_min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{paper_pods, PODS};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vod_experiments::config::PaperSetup;
    use vod_model::Popularity;
    use vod_sim::{SimConfig, Simulation};
    use vod_workload::{RateModel, ThinnedWorkload};

    #[test]
    fn self_time_excludes_children_and_pulls() {
        let tracer = Tracer::new("t".into(), true);
        let spin = |secs: f64| {
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < secs {}
        };
        let (_, outer) = tracer.time("outer", None, |id| {
            spin(0.01);
            tracer.time("inner", id, |_| spin(0.02));
            tracer.add_pull(id, 0.005);
        });
        let summary = tracer.summary();
        let inner = summary.iter().find(|s| s.name == "inner").unwrap();
        let top = summary.iter().find(|s| s.name == "outer").unwrap();
        assert!((top.total_s - outer).abs() < 1e-9);
        assert!((top.self_s - (outer - inner.total_s - 0.005)).abs() < 1e-9);
        assert_eq!(tracer.total_under("inner", None), inner.total_s);
        assert!(tracer.to_json().unwrap().starts_with("{\"run\": \"t\""));
    }

    #[test]
    fn timed_source_leaves_reports_byte_identical_at_one_and_two_shards() {
        let setup = PaperSetup::default();
        let world = paper_pods(&setup, 1.2, 1.2, &Tracer::new(String::new(), false), None).unwrap();
        let source = ThinnedWorkload::new(
            RateModel::constant(400.0).unwrap(),
            Popularity::zipf(setup.n_videos * PODS, 1.0).unwrap(),
            20.0,
        )
        .unwrap()
        .stream(ChaCha8Rng::seed_from_u64(9))
        .unwrap();
        let mut reports = Vec::new();
        for shards in [1, 2] {
            let config = SimConfig {
                shards,
                horizon_min: 20.0,
                ..SimConfig::default()
            };
            let sim =
                Simulation::new(&world.catalog, &world.cluster, &world.layout, config).unwrap();
            let plain = sim.run_streaming(source.clone()).unwrap();
            let totals = Arc::new(PullTotals::default());
            let timed = sim
                .run_streaming(TimedSource::new(source.clone(), Arc::clone(&totals)))
                .unwrap();
            let plain = serde_json::to_string(&plain).unwrap();
            assert_eq!(
                plain,
                serde_json::to_string(&timed).unwrap(),
                "shards {shards}"
            );
            // At two shards each decoupled worker replays the whole stream.
            let arrivals = timed.arrivals;
            assert!(arrivals > 0);
            assert_eq!(totals.pulls(), arrivals * shards as u64, "shards {shards}");
            assert!(totals.secs() > 0.0);
            reports.push(plain);
        }
        assert_eq!(reports[0], reports[1]);
    }
}
