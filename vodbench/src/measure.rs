//! One workload run: repeated set-up, timed passes, output checks, and the
//! metrics derived from them.

use crate::metrics::{BenchResult, MetricDef, END_TO_END, PER_LAYER};
use crate::span::{PullTotals, SpanId, TimedSource, Tracer};
use crate::world::{self, Arrivals, Inputs, Workload, DEFAULT_SEED};
use crate::Args;
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vod_experiments::scale::{peak_rss_bytes, ScaleWorld, BYTES_PER_STREAM_CEILING};
use vod_model::ModelError;
use vod_sim::{ShardPlan, SimReport, Simulation};
use vod_telemetry::{Snapshot, Telemetry};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Digest of every run's serialized `SimReport` at [`DEFAULT_SEED`], in
/// run order (FNV-1a over the per-run FNV-1a hashes), one per workload. A
/// change that only makes the program faster leaves these unchanged.
const DIGESTS: [(Workload, u64); 4] = [
    (Workload::PaperFigs, 0x9961_36d2_4908_9bc0),
    (Workload::ScalePods, 0xfebe_107a_1ea8_6edd),
    (Workload::PodsOverload, 0x3cb0_d089_6472_a9c6),
    (Workload::PodsDrift, 0x95ce_45a1_d0ca_0a91),
];

/// What the checks and metrics need from one run's report. Passes keep
/// this instead of the report, so the benchmark's own memory does not grow
/// with the number of passes and leak into `peak_rss_mib`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    /// FNV-1a of the serialized report.
    hash: u64,
    arrivals: u64,
    admitted: u64,
    imbalance_cv: f64,
    conservative: bool,
    peak_streams: u64,
}

impl Outcome {
    fn of(report: &SimReport) -> Result<Outcome, String> {
        let json = serde_json::to_string(report).map_err(|e| e.to_string())?;
        Ok(Outcome {
            hash: fnv1a(FNV_OFFSET, json.as_bytes()),
            arrivals: report.arrivals,
            admitted: report.admitted,
            imbalance_cv: report.mean_imbalance_cv,
            conservative: report.is_conservative(),
            peak_streams: report.peak_concurrent_streams,
        })
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One replay of every run of a workload.
#[derive(Default)]
struct Pass {
    secs: Vec<f64>,
    outcomes: Vec<Result<Outcome, String>>,
    /// Wall time the runs spent pulling timed streamed arrivals.
    pull_s: f64,
}

impl Pass {
    fn secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn ok(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().flatten()
    }

    /// Simulated requests per host second over the pass.
    fn rate(&self) -> f64 {
        self.ok().map(|o| o.arrivals).sum::<u64>() as f64 / self.secs()
    }
}

/// A pass with the engine's instruments on.
struct TracedPass {
    pass: Pass,
    snapshot: Snapshot,
    pulls: Arc<PullTotals>,
}

/// One set-up's duration and where its spans and annealer counts are.
struct Setup {
    secs: f64,
    span: Option<SpanId>,
    anneal: Snapshot,
}

fn simulate(
    sim: &Simulation<'_>,
    arrivals: &Arrivals,
    telemetry: &Telemetry,
    pulls: Option<&Arc<PullTotals>>,
) -> Result<SimReport, ModelError> {
    match (arrivals, pulls) {
        (Arrivals::Trace(trace), _) => sim.run_with_telemetry(trace, telemetry),
        (Arrivals::Stream(stream), None) => {
            sim.run_streaming_with_telemetry((**stream).clone(), telemetry)
        }
        (Arrivals::Stream(stream), Some(totals)) => sim.run_streaming_with_telemetry(
            TimedSource::new((**stream).clone(), Arc::clone(totals)),
            telemetry,
        ),
    }
}

/// Replays every run once under a span `name`, each run in a `sim.run`
/// span. With `pulls`, streamed arrivals go through a [`TimedSource`] and
/// each run's span is credited with its pull time.
fn run_pass(
    name: &'static str,
    sims: &[Simulation<'_>],
    inputs: &Inputs,
    telemetry: &Telemetry,
    pulls: Option<&Arc<PullTotals>>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Pass {
    let (pass, _) = tracer.time(name, parent, |pass_span| {
        let mut pass = Pass::default();
        for run in &inputs.runs {
            let before = pulls.map(|p| (p.secs(), p.pulls()));
            let ((span, report), secs) = tracer.time("sim.run", pass_span, |span| {
                let arrivals = &inputs.arrivals[run.arrivals];
                (
                    span,
                    simulate(&sims[run.config], arrivals, telemetry, pulls),
                )
            });
            if let (Some(p), Some((secs0, pulls0)), Ok(r)) = (pulls, before, &report) {
                // Decoupled workers each replay the whole stream in
                // parallel, so the wall time their pulls cover is their
                // summed pull time over the number of workers.
                let pullers = ((p.pulls() - pulls0) / r.arrivals.max(1)).max(1);
                let pull_s = (p.secs() - secs0) / pullers as f64;
                tracer.add_pull(span, pull_s);
                pass.pull_s += pull_s;
            }
            pass.secs.push(secs);
            pass.outcomes.push(
                report
                    .map_err(|e| e.to_string())
                    .and_then(|r| Outcome::of(&r)),
            );
        }
        pass
    });
    pass
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `workload` as `args` asks and derives its metrics.
pub fn bench(workload: Workload, args: &Args) -> Result<BenchResult, Box<dyn Error>> {
    let run_id = format!(
        "{}-seed{}-pid{}",
        workload.name(),
        args.seed,
        std::process::id()
    );
    let tracer = Tracer::new(run_id.clone(), args.trace);
    let (result, _) = tracer.time("run", None, |root| measure(workload, args, &tracer, root));
    let mut result = result?;
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{run_id}.json"));
        std::fs::write(&path, tracer.to_json()?)?;
        result
            .notes
            .push(format!("spans written to {}", path.display()));
        result.notes.push(format!(
            "{:<26} {:>6} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        ));
        for s in tracer.summary() {
            result.notes.push(format!(
                "{:<26} {:>6} {:>12.6} {:>12.6}",
                s.name, s.count, s.total_s, s.self_s
            ));
        }
    }
    Ok(result)
}

fn measure(
    workload: Workload,
    args: &Args,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<BenchResult, Box<dyn Error>> {
    // Set up several times from scratch; keep the last set-up's inputs.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Free the previous set-up's inputs before building the next.
        drop(kept.take());
        let anneal = if args.trace {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let ((span, inputs), secs) = tracer.time("setup", root, |span| {
            let inputs =
                world::build(workload, args.seed, tracer, span, &anneal).and_then(|inputs| {
                    inputs.bind(workload.shards(), false, tracer, span)?;
                    Ok(inputs)
                });
            (span, inputs)
        });
        kept = Some(inputs?);
        setups.push(Setup {
            secs,
            span,
            anneal: anneal.snapshot(),
        });
    }
    let inputs = kept.expect("at least one set-up");
    let quiet = Tracer::new(String::new(), false);
    let sims = inputs.bind(workload.shards(), false, &quiet, None)?;
    let other_sims = if args.trace {
        inputs.bind(workload.other_shards(), false, &quiet, None)?
    } else {
        Vec::new()
    };

    // Timed passes until the budget is spent. A traced run interleaves an
    // instrumented pass, a pass at the other shard count and a plain pass.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let disabled = Telemetry::disabled();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut other: Vec<Pass> = Vec::new();
    loop {
        if args.trace {
            let telemetry = Telemetry::enabled();
            let pulls = Arc::new(PullTotals::default());
            let pass = run_pass(
                "pass.traced",
                &sims,
                &inputs,
                &telemetry,
                Some(&pulls),
                tracer,
                root,
            );
            traced.push(TracedPass {
                pass,
                snapshot: telemetry.snapshot(),
                pulls,
            });
            other.push(run_pass(
                "pass.other_shards",
                &other_sims,
                &inputs,
                &disabled,
                None,
                tracer,
                root,
            ));
        }
        plain.push(run_pass(
            "pass", &sims, &inputs, &disabled, None, tracer, root,
        ));
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss_mib = peak_rss_bytes().ok_or("VmHWM unavailable")? as f64 / (1024.0 * 1024.0);

    let passes: Vec<&Pass> = plain
        .iter()
        .chain(traced.iter().map(|t| &t.pass))
        .chain(&other)
        .collect();
    let (attempted, failed, mut notes) =
        check(workload, args.seed, &inputs, &passes, tracer, root)?;
    let rates: Vec<f64> = plain.iter().map(Pass::rate).collect();
    let metrics = if args.trace {
        let plain_s = median_by(&plain, Pass::secs);
        per_layer(workload, &inputs, tracer, &setups, plain_s, &traced, &other)
    } else {
        let first: Vec<&Outcome> = plain[0].ok().collect();
        let arrivals: u64 = first.iter().map(|o| o.arrivals).sum();
        let admitted: u64 = first.iter().map(|o| o.admitted).sum();
        let cv = first.iter().fold(0.0, |acc, o| acc + o.imbalance_cv);
        labelled(
            END_TO_END,
            &[
                ("setup_s", median_by(&setups, |s| s.secs)),
                ("requests_per_s", median(&rates)),
                ("peak_rss_mib", peak_rss_mib),
                ("served_share", ratio(admitted as f64, arrivals as f64)),
                ("imbalance_cv", ratio(cv, first.len() as f64)),
            ],
        )
    };
    if let Some((m, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {} is not finite ({v})", m.name).into());
    }
    let slowest = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let head = [
        format!(
            "{} seed={} nproc={} shards={} runs/pass={} requests/pass={} set-ups={} \
             (setup_s is their median)",
            workload.name(),
            args.seed,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            workload.shards(),
            inputs.runs.len(),
            plain[0].ok().map(|o| o.arrivals).sum::<u64>(),
            SETUPS
        ),
        // Too few passes for any percentile above the median to have ten
        // samples beyond it, so the tail is the slowest pass, unbounded.
        format!(
            "requests_per_s over {} plain passes: median {:.0}, slowest {slowest:.0}; all: {}",
            rates.len(),
            median(&rates),
            rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    notes.splice(0..0, head);
    Ok(BenchResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Pairs each value with its catalogue entry; the names must follow the
/// catalogue's order exactly.
fn labelled(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<(MetricDef, f64)> {
    assert_eq!(
        defs.len(),
        values.len(),
        "metric catalogue and values differ"
    );
    defs.iter()
        .zip(values)
        .map(|(def, &(name, value))| {
            assert_eq!(def.name, name, "metric out of catalogue order");
            (*def, value)
        })
        .collect()
}

/// Output checks over every timed pass (`passes[0]` is the first plain
/// one). Every timed run must equal the same inputs replayed at the other
/// shard count with the auditor on (one reference pass, outside timing),
/// and be conservative; at [`DEFAULT_SEED`] the first pass must match its
/// recorded digest; on `scale_pods` every run must also respect A-9's
/// bandwidth bound and bytes-per-stream ceiling. Returns
/// `(attempted, failed, notes)`.
fn check(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    passes: &[&Pass],
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<(u64, u64, Vec<String>), Box<dyn Error>> {
    let mut notes = Vec::new();
    let quiet = Tracer::new(String::new(), false);
    let (reference, _) = tracer.time("check.reference", root, |_| {
        let sims = inputs.bind(workload.other_shards(), true, &quiet, None)?;
        let mut outcomes = Vec::with_capacity(inputs.runs.len());
        let mut bytes = 0.0f64;
        for run in &inputs.runs {
            let telemetry = Telemetry::enabled();
            let report = simulate(
                &sims[run.config],
                &inputs.arrivals[run.arrivals],
                &telemetry,
                None,
            );
            bytes = bytes.max(
                telemetry
                    .snapshot()
                    .histogram("sim.engine.bytes_per_active_stream")
                    .max,
            );
            outcomes.push(
                report
                    .map_err(|e| e.to_string())
                    .and_then(|r| Outcome::of(&r)),
            );
        }
        Ok::<_, ModelError>((outcomes, bytes))
    });
    let (reference, bytes_per_stream) = reference?;
    for (k, err) in reference
        .iter()
        .enumerate()
        .filter_map(|(k, r)| Some((k, r.as_ref().err()?)))
    {
        notes.push(format!("reference run {k} failed: {err}"));
    }

    let mut bounds_ok = true;
    if workload == Workload::ScalePods {
        let capacity = ScaleWorld::production(2).stream_capacity();
        let peak = reference
            .iter()
            .flatten()
            .map(|o| o.peak_streams)
            .max()
            .unwrap_or(0);
        bounds_ok = peak <= capacity && bytes_per_stream <= BYTES_PER_STREAM_CEILING;
        notes.push(format!(
            "A-9 bounds: peak streams {peak} <= N*u {capacity}; \
             {bytes_per_stream:.1} B per active stream <= {BYTES_PER_STREAM_CEILING}: {}",
            if bounds_ok { "ok" } else { "VIOLATED" }
        ));
    }

    let mut digest_ok = true;
    if seed == DEFAULT_SEED {
        let got = passes[0]
            .ok()
            .fold(FNV_OFFSET, |h, o| fnv1a(h, &o.hash.to_le_bytes()));
        let want = DIGESTS
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(0, |(_, d)| *d);
        digest_ok = got == want && passes[0].ok().count() == inputs.runs.len();
        notes.push(format!(
            "digest at seed {DEFAULT_SEED}: {got:016x} (recorded {want:016x}): {}",
            if digest_ok { "ok" } else { "MISMATCH" }
        ));
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    for pass in passes {
        for (outcome, expected) in pass.outcomes.iter().zip(&reference) {
            attempted += 1;
            let ok = match (outcome, expected) {
                (Ok(o), Ok(e)) => o == e && o.conservative,
                _ => false,
            };
            failed += u64::from(!(ok && bounds_ok && digest_ok));
        }
    }
    Ok((attempted, failed, notes))
}

/// The traced run's per-layer metrics, in [`PER_LAYER`] order.
fn per_layer(
    workload: Workload,
    inputs: &Inputs,
    tracer: &Tracer,
    setups: &[Setup],
    plain_s: f64,
    traced: &[TracedPass],
    other: &[Pass],
) -> Vec<(MetricDef, f64)> {
    let per_setup = |name: &str| median_by(setups, |s| tracer.total_under(name, s.span));
    let anneal_s = per_setup("anneal");
    let proposed = median_by(setups, |s| s.anneal.counter("anneal.proposed") as f64);
    let accepted = median_by(setups, |s| s.anneal.counter("anneal.accepted") as f64);
    // Counters repeat exactly from pass to pass; times take the median.
    let snap = &traced[0].snapshot;
    let count = |name: &str| snap.counter(name) as f64;
    let arrivals = count("sim.arrivals");
    let events = count("sim.events");
    let ticks = count("sim.controller.ticks");
    let traced_s = median_by(traced, |t| t.pass.secs());
    let other_s = median_by(other, Pass::secs);
    let (serial_s, sharded_s) = if workload.shards() == 1 {
        (plain_s, other_s)
    } else {
        (other_s, plain_s)
    };
    let groups = inputs
        .worlds
        .iter()
        .map(|w| ShardPlan::decoupled(&w.layout, 2).n_shards)
        .max()
        .unwrap_or(0);
    labelled(
        PER_LAYER,
        &[
            ("replication.s", per_setup("replication")),
            ("placement.s", per_setup("placement")),
            ("anneal.s", anneal_s),
            ("anneal.steps_per_s", ratio(proposed, anneal_s)),
            ("anneal.accept_ratio", ratio(accepted, proposed)),
            ("bind.s", per_setup("bind")),
            ("workload.build_s", per_setup("workload.build")),
            ("workload.pull_s", median_by(traced, |t| t.pulls.secs())),
            ("workload.requests", traced[0].pulls.pulls() as f64),
            (
                "engine.self_s",
                median_by(traced, |t| t.pass.secs() - t.pass.pull_s),
            ),
            ("engine.events", events),
            ("engine.events_per_s", ratio(events, plain_s)),
            (
                "dispatch.probes_per_arrival",
                ratio(count("sim.admission_probes"), arrivals),
            ),
            (
                "admission.queued_share",
                ratio(count("sim.admission.queued"), arrivals),
            ),
            (
                "admission.retried_share",
                ratio(count("sim.admission.retried"), arrivals),
            ),
            (
                "admission.abandoned_share",
                ratio(count("sim.admission.abandoned"), arrivals),
            ),
            ("queue.peak_len", snap.histogram("sim.queue.peak_len").max),
            (
                "queue.bytes_per_active_stream",
                snap.histogram("sim.engine.bytes_per_active_stream").max,
            ),
            ("failure.transitions", count("sim.transitions")),
            (
                "failure.disrupted_share",
                ratio(count("sim.disrupted"), count("sim.admitted")),
            ),
            ("repair.copies", count("sim.repair.copies")),
            ("repair.bytes", count("sim.repair.bytes_copied")),
            ("controller.copies", count("sim.controller.copies")),
            (
                "controller.acting_share",
                ratio(ticks - count("sim.controller.backoffs"), ticks),
            ),
            ("shard.groups", groups as f64),
            ("shard.speedup", ratio(serial_s, sharded_s)),
            (
                "window.engaged_share",
                ratio(count("sim.window.events"), events),
            ),
            ("window.windows", count("sim.window.windows")),
            ("window.stalls", count("sim.window.stalls")),
            ("window.coalesced", count("sim.window.coalesced")),
            ("metrics.samples", count("sim.samples")),
            ("telemetry.overhead_share", ratio(traced_s, plain_s) - 1.0),
        ],
    )
}
