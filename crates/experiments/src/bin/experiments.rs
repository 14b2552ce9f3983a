//! The experiment CLI.
//!
//! ```text
//! experiments <command> [--fast] [--runs N] [--shards N] [--out DIR]
//!                       [--no-files] [--metrics FILE] [--check FILE]
//!
//! commands:
//!   all       every regenerator below, in order
//!   fig1      Adams replication trace (paper Figure 1)
//!   fig2      Zipf-interval scenario (Figure 2)
//!   fig3      smallest-load-first trace (Figure 3)
//!   fig4      rejection vs arrival rate across replication degrees (Figure 4)
//!   fig5      rejection vs arrival rate across algorithm combos (Figure 5)
//!   fig6      load-imbalance degree vs arrival rate (Figure 6)
//!   quality   Adams vs Zipf granularity + timing (C-1)
//!   bound     Theorem 4.2/4.3 bound tightness (C-2)
//!   sa        scalable-bit-rate simulated annealing (SA-1)
//!   ablation  admission-policy ablation (A-1)
//!   availability  rejection under server failure vs replication degree (A-2)
//!   drift     dynamic re-replication under popularity drift (A-3)
//!   recovery  online failure recovery under stochastic faults (A-4)
//!   sa2       multi-rate replica extension, objective ablation (SA-2)
//!   striping  striping-vs-replication architectural comparison (A-5)
//!   overload  admission queueing, retries and brownouts under overload (A-6)
//!   controller  online replication controller under intra-run drift (A-7)
//!   coding    erasure-coded redundancy vs replication under faults (A-8)
//!   scale     production-scale streaming world vs capacity bounds (A-9):
//!             512 servers / 20k videos / 48h diurnal trace pulled from
//!             the streaming arrival pipeline (--fast: the CI-sized
//!             64-server smoke world); prints one machine-readable
//!             SCALE line and fails if bytes/active-stream exceeds the
//!             documented ceiling
//!   perf-smoke  pinned-size throughput measurements (fixed seeds):
//!               simulator events/sec on the paper world (N = 8,
//!               M = 200), annealer SA steps/sec, sharded (trace and
//!               streamed), coupled and controller-driven events/sec
//!               on tiled pod worlds, streaming-generation requests/sec,
//!               streaming-engine events/sec and departure-queue
//!               ops/sec; prints one machine-readable PERF_SMOKE line
//!
//! flags:
//!   --shards N      engine shards per simulation (default 1; runs whose
//!                   server groups are independent fan out over N worker
//!                   threads, every other run takes the serial loop —
//!                   reports are byte-identical at any shard count, CI
//!                   diffs them)
//!   --metrics FILE  append one JSONL run-manifest record per experiment
//!   --check FILE    perf-smoke only: fail if any measured rate drops
//!                   more than 30% below its floor in FILE, which must
//!                   name a floor for every measured rate and nothing else
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::error::Error;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use vod_anneal::{anneal_with_telemetry, AnnealParams};
use vod_experiments::perf::pods_world;
use vod_experiments::report::Reporter;
use vod_experiments::runner::{build_plan, run_point, Combo};
use vod_experiments::PaperSetup;
use vod_experiments::{
    ablation, availability, bound, coding, controller, drift, fig1, fig2, fig3, fig4, fig5, fig6,
    overload, quality, recovery, sa, sa_multirate, scale, striping,
};
use vod_model::{Catalog, ClusterSpec, Layout, ModelError, Popularity, ServerId, VideoId};
use vod_sim::event::{Departure, DepartureQueue, NO_STREAM};
use vod_sim::time::SimTime;
use vod_sim::{AdmissionPolicy, FailurePlan, Outage, SimConfig, SimReport, Simulation};
use vod_telemetry::{ManifestWriter, RunRecord, Snapshot, Telemetry};
use vod_workload::{
    ArrivalSource, DiurnalCycle, RateModel, RatePulse, Request, ThinnedWorkload, Trace,
};

#[derive(Debug)]
struct Args {
    command: String,
    fast: bool,
    runs: Option<u32>,
    shards: Option<usize>,
    out: Option<String>,
    no_files: bool,
    metrics: Option<String>,
    check: Option<String>,
}

/// Largest sensible `--shards`: the engine merges per-shard results, so
/// shard counts beyond any supported cluster size only add overhead (a
/// huge value is almost certainly a typo'd flag).
const MAX_SHARDS: usize = 256;

/// Largest sensible `--runs`: each run is a full 90-minute simulation;
/// five digits of replications is a typo, not an experiment.
const MAX_RUNS: u32 = 10_000;

fn parse_args() -> Result<Args, String> {
    parse_from(std::env::args().skip(1))
}

fn parse_from(mut iter: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        fast: false,
        runs: None,
        shards: None,
        out: None,
        no_files: false,
        metrics: None,
        check: None,
    };
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--fast" => args.fast = true,
            "--no-files" => args.no_files = true,
            "--runs" => {
                let v = iter.next().ok_or("--runs needs a value")?;
                let runs: u32 = v
                    .parse()
                    .map_err(|_| format!("bad --runs value `{v}`: expected a positive integer"))?;
                if runs == 0 {
                    return Err(
                        "--runs 0 would average over nothing; pass a positive run count".into(),
                    );
                }
                if runs > MAX_RUNS {
                    return Err(format!(
                        "--runs {runs} exceeds the sanity cap of {MAX_RUNS}; every run is a \
                         full peak-period simulation — did a flag value go astray?"
                    ));
                }
                args.runs = Some(runs);
            }
            "--shards" => {
                let v = iter.next().ok_or("--shards needs a value")?;
                let shards: usize = v.parse().map_err(|_| {
                    format!("bad --shards value `{v}`: expected a positive integer")
                })?;
                if shards == 0 {
                    return Err("--shards 0 is meaningless; pass a positive shard count".into());
                }
                if shards > MAX_SHARDS {
                    return Err(format!(
                        "--shards {shards} exceeds the sanity cap of {MAX_SHARDS}; shards \
                         beyond the server count never help (reports are identical at any \
                         shard count)"
                    ));
                }
                args.shards = Some(shards);
            }
            "--out" => {
                let v = iter.next().ok_or("--out needs a value")?;
                if v.is_empty() {
                    return Err("--out needs a non-empty directory path".into());
                }
                args.out = Some(v);
            }
            "--metrics" => {
                let v = iter.next().ok_or("--metrics needs a value")?;
                if v.is_empty() {
                    return Err("--metrics needs a non-empty file path".into());
                }
                args.metrics = Some(v);
            }
            "--check" => {
                let v = iter.next().ok_or("--check needs a value")?;
                if v.is_empty() {
                    return Err("--check needs a non-empty file path".into());
                }
                args.check = Some(v);
            }
            cmd if !cmd.starts_with('-') && args.command.is_empty() => {
                args.command = cmd.to_string();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.command.is_empty() {
        args.command = "all".to_string();
    }
    if args.check.is_some() && args.command != "perf-smoke" {
        return Err(format!(
            "--check only applies to perf-smoke (got command `{}`); it compares \
             throughput against a baseline file",
            args.command
        ));
    }
    Ok(args)
}

type ExpFn = fn(&PaperSetup, &Reporter) -> Result<(), Box<dyn Error>>;

/// Every regenerator, in `all` order, with the base seed its internal
/// RNG streams derive from (0 for deterministic planning-only
/// experiments) — recorded in the run manifest.
const EXPERIMENTS: &[(&str, u64, ExpFn)] = &[
    ("fig1", 0, |_, r| fig1::run(r)),
    ("fig2", 0, |_, r| fig2::run(r)),
    ("fig3", 0, |_, r| fig3::run(r)),
    ("fig4", fig4::SEED, fig4::run),
    ("fig5", fig5::SEED, fig5::run),
    ("fig6", fig6::SEED, fig6::run),
    ("quality", 0, |_, r| quality::run(r)),
    ("bound", 0, bound::run),
    ("sa", sa::SEED, sa::run),
    ("ablation", ablation::SEED, ablation::run),
    ("availability", availability::SEED, availability::run),
    ("drift", drift::SEED, drift::run),
    ("recovery", recovery::SEED, recovery::run),
    ("sa2", sa_multirate::SEED, sa_multirate::run),
    ("striping", striping::SEED, striping::run),
    ("overload", overload::SEED, overload::run),
    ("controller", controller::SEED, controller::run),
    ("coding", coding::SEED, coding::run),
    ("scale", scale::SCALE_SEED, scale::run),
];

/// The manifest record of one finished run: pinned parameters, wall
/// time, and the registry's counters and timers (the timers become
/// phases).
fn manifest_record(
    name: &str,
    seed: u64,
    setup: &PaperSetup,
    snapshot: &Snapshot,
    wall_secs: f64,
) -> RunRecord {
    RunRecord::new(name, seed)
        .param("n_servers", setup.n_servers as f64)
        .param("n_videos", setup.n_videos as f64)
        .param("runs", f64::from(setup.runs))
        .param("shards", setup.shards as f64)
        .param("horizon_min", setup.horizon_min)
        .wall(wall_secs)
        .with_snapshot(snapshot)
}

/// The rates an experiment's record derives from its counters over its
/// wall time, by rate name; each only when its counter fired.
const COUNTER_RATES: [(&str, &str); 4] = [
    ("events_per_sec", "sim.events"),
    ("requests_per_sec", "sim.arrivals"),
    ("evaluations_per_sec", "anneal.evaluations"),
    ("sa_steps_per_sec", "anneal.proposed"),
];

/// The perf smoke's base seed, which every measurement's RNG streams
/// derive from.
const SEED: u64 = 0x5EED_CAFE;

/// Shard count of the four pod-world measurements. Each first asserts
/// that its `shards = 1` and `shards = SHARDS` reports serialize
/// byte-identically: a throughput figure only means something while
/// determinism holds.
const SHARDS: usize = 8;

/// A measurement's outcome: the work done and the seconds it took.
type Timed = Result<(u64, f64), Box<dyn Error>>;

/// One perf-smoke measurement: its `PERF_SMOKE` keys, its manifest
/// phase and `--check` tag, and the function that does and times the
/// work.
struct Measurement {
    /// Key of the work done: events, Metropolis steps, requests or queue
    /// operations.
    count: &'static str,
    /// Key of the rate, work per second: also its floor's name in the
    /// baseline and its throughput key in the manifest record.
    rate: &'static str,
    /// Key of the seconds the rate divides by.
    secs: &'static str,
    /// Manifest phase holding those seconds.
    phase: &'static str,
    /// `--check` prints the floor's delta as `PERF_SMOKE{tag}_DELTA`.
    tag: &'static str,
    /// Does and times the work.
    run: fn(&mut Smoke) -> Timed,
}

/// Every measurement, in run and print order; the untagged floor comes
/// first. EXPERIMENTS.md describes each world.
const MEASUREMENTS: [Measurement; 9] = [
    Measurement {
        count: "events",
        rate: "events_per_sec",
        secs: "sim_secs",
        phase: "simulate",
        tag: "",
        run: paper_events,
    },
    Measurement {
        count: "sa_steps",
        rate: "sa_steps_per_sec",
        secs: "sa_secs",
        phase: "anneal",
        tag: "_SA",
        run: sa_steps,
    },
    Measurement {
        count: "par_events",
        rate: "par_events_per_sec",
        secs: "par_secs",
        phase: "par_simulate",
        tag: "_PAR",
        run: par_events,
    },
    Measurement {
        count: "par_stream_events",
        rate: "par_stream_events_per_sec",
        secs: "par_stream_secs",
        phase: "par_stream_simulate",
        tag: "_PAR_STREAM",
        run: par_stream_events,
    },
    Measurement {
        count: "coupled_par_events",
        rate: "coupled_par_events_per_sec",
        secs: "coupled_par_secs",
        phase: "coupled_par_simulate",
        tag: "_COUPLED",
        run: coupled_events,
    },
    Measurement {
        count: "drift_events",
        rate: "drift_events_per_sec",
        secs: "drift_secs",
        phase: "drift_simulate",
        tag: "_DRIFT",
        run: drift_events,
    },
    Measurement {
        count: "gen_requests",
        rate: "gen_requests_per_sec",
        secs: "gen_secs",
        phase: "generate",
        tag: "_GEN",
        run: gen_requests,
    },
    Measurement {
        count: "queue_ops",
        rate: "queue_ops_per_sec",
        secs: "queue_secs",
        phase: "queue",
        tag: "_QUEUE",
        run: queue_ops,
    },
    Measurement {
        count: "scale_events",
        rate: "scale_events_per_sec",
        secs: "scale_secs",
        phase: "scale_simulate",
        tag: "_SCALE",
        run: scale_events,
    },
];

/// A perf-smoke run: the paper setup and load of its first two
/// measurements, the registry those record into (the manifest record's
/// counters and timers), and the `PERF_SMOKE` line with the record's
/// rates and phases, built together so that the record's throughput is
/// exactly the line's rates.
struct Smoke {
    setup: PaperSetup,
    lambda: f64,
    telemetry: Telemetry,
    line: Vec<String>,
    rates: Vec<(&'static str, f64)>,
    phases: Vec<(&'static str, f64)>,
}

impl Smoke {
    /// Appends `key=value` to the line.
    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        self.line.push(format!("{key}={value}"));
    }

    /// Appends a rate: rounded on the line, exact in the record.
    fn rate(&mut self, key: &'static str, per_sec: f64) {
        self.field(key, format!("{per_sec:.0}"));
        self.rates.push((key, per_sec));
    }

    /// Appends seconds: on the line, and as the record's phase `phase`.
    fn secs(&mut self, key: &str, phase: &'static str, secs: f64) {
        self.field(key, format!("{secs:.3}"));
        self.phases.push((phase, secs));
    }
}

/// Repeats `pass` at least `min_reps` times and for at least `min_secs`
/// seconds; returns the work the passes report, summed, and the seconds
/// they took.
fn repeat(
    min_reps: u32,
    min_secs: f64,
    mut pass: impl FnMut() -> Result<u64, Box<dyn Error>>,
) -> Timed {
    let started = Instant::now();
    let (mut work, mut reps) = (0, 0);
    while reps < min_reps || started.elapsed().as_secs_f64() < min_secs {
        work += pass()?;
        reps += 1;
    }
    Ok((work, started.elapsed().as_secs_f64()))
}

/// Runs `run` on the world under `config` at `shards = 1` and at
/// [`SHARDS`] and fails unless the two reports serialize
/// byte-identically; then repeats the sharded run (at least twice, for
/// at least half a second) into one registry, whose `sim.events` is the
/// count. Returns the serial report with the timing.
fn sharded_events<'a>(
    what: &str,
    (catalog, cluster, layout): (&'a Catalog, &'a ClusterSpec, &'a Layout),
    config: impl Fn(usize) -> SimConfig,
    run: impl Fn(&Simulation<'a>, &Telemetry) -> Result<SimReport, ModelError>,
) -> Result<(SimReport, (u64, f64)), Box<dyn Error>> {
    let serial = Simulation::new(catalog, cluster, layout, config(1))?;
    let sharded = Simulation::new(catalog, cluster, layout, config(SHARDS))?;
    let report = run(&serial, &Telemetry::disabled())?;
    let json = serde_json::to_string(&report)?;
    if serde_json::to_string(&run(&sharded, &Telemetry::disabled())?)? != json {
        return Err(format!("perf smoke: {what} report diverged from the serial report").into());
    }
    let telemetry = Telemetry::enabled();
    let (_, secs) = repeat(2, 0.5, || {
        black_box(run(&sharded, &telemetry)?);
        Ok(0)
    })?;
    Ok((report, (telemetry.snapshot().counter("sim.events"), secs)))
}

/// The plain config at `shards`.
fn plain(shards: usize) -> SimConfig {
    SimConfig {
        shards,
        ..SimConfig::default()
    }
}

/// The paper world: the paper's cluster (N = 8, M = 200), a zipf+slf
/// plan at degree 1.2 and λ = 90% of capacity. One batch of eight
/// replications finishes in milliseconds, so the identical batch repeats
/// (at least 3 times, for at least 0.5 s); the runs record into the
/// smoke's registry, whose `sim.events` is the count.
fn paper_events(smoke: &mut Smoke) -> Timed {
    let started = Instant::now();
    let point = build_plan(&smoke.setup, Combo::ZIPF_SLF, 1.0, 1.2)?;
    let plan_secs = started.elapsed().as_secs_f64();
    let (setup, lambda, telemetry) = (&smoke.setup, smoke.lambda, &smoke.telemetry);
    let policy = AdmissionPolicy::StaticRoundRobin;
    let mut rejection_rate = 0.0;
    // Each batch counts as one iteration.
    let (iterations, secs) = repeat(3, 0.5, || {
        rejection_rate = run_point(setup, &point, lambda, policy, SEED, telemetry)?.rejection_rate;
        Ok(1)
    })?;
    let snapshot = telemetry.snapshot();
    let arrivals = snapshot.counter("sim.arrivals");
    smoke.secs("plan_secs", "plan", plan_secs);
    smoke.field("iterations", iterations);
    smoke.field("arrivals", arrivals);
    smoke.rate("requests_per_sec", arrivals as f64 / secs);
    smoke.field("rejection_rate", format!("{rejection_rate:.4}"));
    Ok((snapshot.counter("sim.events"), secs))
}

/// SA-1's problem at θ = 1 on SA-1's cooling schedule, one chain of 12
/// epochs × 500 steps through the delta-evaluated annealer from a fixed
/// seed, recorded into the smoke's registry and repeated for at least
/// 0.4 s.
fn sa_steps(smoke: &mut Smoke) -> Timed {
    let (setup, telemetry) = (&smoke.setup, &smoke.telemetry);
    let problem = sa::problem(setup, 1.0)?;
    let params = AnnealParams {
        schedule: sa::schedule(setup.n_videos),
        epochs: 12,
        steps_per_epoch: 500,
    };
    repeat(1, 0.4, || {
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let initial = problem.initial_search();
        black_box(anneal_with_telemetry(
            &problem, initial, &params, &mut rng, telemetry,
        ));
        Ok(u64::from(params.epochs) * u64::from(params.steps_per_epoch))
    })
}

/// The pods world's trace at [`SHARDS`], where the decoupled path fans
/// out to one worker per shard.
fn par_events(_: &mut Smoke) -> Timed {
    let (catalog, cluster, layout, trace) = pods_world()?;
    let world = (&catalog, &cluster, &layout);
    let run = |sim: &Simulation, t: &Telemetry| sim.run_with_telemetry(&trace, t);
    Ok(sharded_events("sharded", world, plain, run)?.1)
}

/// The pods world fed a thinned arrival stream (a 90-minute diurnal
/// cycle at amplitude 0.5 and a 1.5× premiere pulse, ~19k requests over
/// the whole catalog) at [`SHARDS`]. The stream is rebuilt for every run
/// as the engine consumes it, and the decoupled producer pulls it once
/// for all the workers.
fn par_stream_events(_: &mut Smoke) -> Timed {
    let (catalog, cluster, layout, _) = pods_world()?;
    let rate = RateModel::constant(200.0)?
        .with_diurnal(DiurnalCycle {
            period_min: 90.0,
            amplitude: 0.5,
        })?
        .with_pulses(vec![RatePulse {
            start_min: 30.0,
            duration_min: 15.0,
            multiplier: 1.5,
        }])?;
    let workload = ThinnedWorkload::new(rate, Popularity::zipf(catalog.len(), 0.8)?, 90.0)?;
    let stream = || workload.stream(ChaCha8Rng::seed_from_u64(0x5EED_5EED));
    let world = (&catalog, &cluster, &layout);
    let run = |sim: &Simulation, t: &Telemetry| sim.run_streaming_with_telemetry(stream()?, t);
    Ok(sharded_events("streamed sharded", world, plain, run)?.1)
}

/// The pods world's trace with one mid-run outage, which couples the
/// pods: the decoupled fan-out is ineligible, so [`SHARDS`] takes the
/// serial loop.
fn coupled_events(_: &mut Smoke) -> Timed {
    let (catalog, cluster, layout, trace) = pods_world()?;
    let failures = FailurePlan::new(vec![Outage {
        server: ServerId(3),
        down_at_min: 30.0,
        up_at_min: Some(60.0),
    }])?;
    let world = (&catalog, &cluster, &layout);
    let config = |shards| SimConfig {
        failures: failures.clone(),
        ..plain(shards)
    };
    let run = |sim: &Simulation, t: &Telemetry| sim.run_with_telemetry(&trace, t);
    Ok(sharded_events("sharded coupled", world, config, run)?.1)
}

/// Pods in the drift world of [`drift_events`].
const DRIFT_PODS: usize = 8;

/// A-7's world ([`controller::DriftWorld`]) tiled [`DRIFT_PODS`] times:
/// 64 servers in pods of 8 and 1,600 titles in pods of 200. Each pod
/// holds A-7's static plan on A-7's storage (the controller fills the
/// spare slots, then demotes cooled titles to fund raises), and pod `p`
/// replays A-7's drifting workload drawn from seed
/// `controller::SEED + p`.
fn drift_world() -> Result<(Catalog, ClusterSpec, Layout, Trace), Box<dyn Error>> {
    let setup = PaperSetup::default();
    let (n, m) = (setup.n_servers, setup.n_videos);
    let a7 = controller::DriftWorld::new(&setup)?;
    let (mut assignments, mut requests) = (Vec::with_capacity(DRIFT_PODS * m), Vec::new());
    for p in 0..DRIFT_PODS {
        assignments.extend(a7.layout.assignments().iter().map(|servers| {
            servers
                .iter()
                .map(|s| ServerId((p * n) as u32 + s.0))
                .collect()
        }));
        let mut rng = ChaCha8Rng::seed_from_u64(controller::SEED + p as u64);
        let pod = a7.workload.generate(a7.lambda_per_min, &mut rng)?;
        requests.extend(pod.requests().iter().map(|r| Request {
            video: VideoId((p * m) as u32 + r.video.0),
            ..*r
        }));
    }
    requests.sort_by(|a, b| a.arrival_min.total_cmp(&b.arrival_min));
    let cluster = ClusterSpec::homogeneous(DRIFT_PODS * n, a7.cluster.servers()[0])?;
    let catalog = Catalog::fixed_rate(DRIFT_PODS * m, setup.bitrate, setup.duration_s)?;
    let layout = Layout::new(DRIFT_PODS * n, assignments)?;
    Ok((catalog, cluster, layout, Trace::new(requests)?))
}

/// The controller path: the drift world under A-7's controlled,
/// fault-injected cell settings scaled to [`DRIFT_PODS`] pods
/// ([`controller::cell_config`], faults from run seed 0). The controller
/// couples the pods, so [`SHARDS`] takes the serial loop. Fails unless
/// the controller both copied and demoted.
fn drift_events(_: &mut Smoke) -> Timed {
    let (catalog, cluster, layout, trace) = drift_world()?;
    let world = (&catalog, &cluster, &layout);
    let config = |shards| SimConfig {
        shards,
        ..controller::cell_config(DRIFT_PODS, 0, true, true)
    };
    let run = |sim: &Simulation, t: &Telemetry| sim.run_with_telemetry(&trace, t);
    let (report, timed) = sharded_events("sharded drift", world, config, run)?;
    if report.controller_copies == 0 || report.controller_demotions == 0 {
        return Err("perf smoke: the drift world's controller never copied or demoted".into());
    }
    Ok(timed)
}

/// Requests pulled from the mini scale world's thinned arrival source
/// for at least 0.4 s, the per-stream construction pre-pass included:
/// each pass rebuilds the source, which is how the engine consumes it.
fn gen_requests(_: &mut Smoke) -> Timed {
    let workload = scale::ScaleWorld::mini(1).workload()?;
    repeat(1, 0.4, || {
        let mut source = workload.stream(ChaCha8Rng::seed_from_u64(SEED))?;
        let mut requests = 0;
        while let Some(r) = source.next_request() {
            black_box(r);
            requests += 1;
        }
        Ok(requests)
    })
}

/// The departure queue alone at A-9's concurrency (~131k live streams
/// over 256 servers), fed precomputed inputs in the engine's shape. A
/// clock advances 0-2 ticks per admission, each admission is due at
/// clock + T (T = 131,072 ticks), due departures pop first, and every
/// 10,000 admissions (~20k ops) one server's streams are extracted and
/// re-pushed at their original instants, as failover does. A first,
/// untimed pass over the inputs fills the queue; timed passes follow for
/// at least 0.4 s. Ops = admissions + pops + 2 × extracted (each
/// removal and its re-push). Fails unless popped instants never decrease,
/// pops plus queued streams equal admissions, and a failover moved
/// streams.
fn queue_ops(_: &mut Smoke) -> Timed {
    const T: u64 = 131_072;
    const SERVERS: u32 = 256;
    const FAILOVER_EVERY: usize = 10_000;
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let inputs: Vec<(u64, ServerId)> = (0..1 << 18)
        .map(|_| (rng.gen_range(0..3), ServerId(rng.gen_range(0..SERVERS))))
        .collect();
    let mut queue = DepartureQueue::with_capacity(SERVERS as usize);
    let mut extracted = Vec::new();
    let (mut clock, mut last_popped) = (0u64, SimTime(0));
    let (mut admitted, mut popped, mut moved) = (0u64, 0u64, 0u64);
    let mut pass = || -> Result<u64, Box<dyn Error>> {
        let mut ops = 0;
        for (k, &(dt, server)) in inputs.iter().enumerate() {
            clock += dt;
            while let Some(d) = queue.pop_due(SimTime(clock)) {
                if d.at < last_popped {
                    return Err("perf smoke: the departure queue popped out of order".into());
                }
                last_popped = d.at;
                popped += 1;
                ops += 1;
            }
            queue.push(Departure {
                at: SimTime(clock + T),
                server,
                video: VideoId(k as u32),
                kbps: 4_000,
                backbone_kbps: 0,
                epoch: 0,
                stream: NO_STREAM,
            });
            admitted += 1;
            ops += 1;
            if k % FAILOVER_EVERY == 0 {
                let failed = ServerId((k / FAILOVER_EVERY) as u32 % SERVERS);
                queue.extract_active_into(failed, 0, &mut extracted);
                moved += extracted.len() as u64;
                ops += 2 * extracted.len() as u64;
                for d in extracted.drain(..) {
                    queue.push(d);
                }
            }
        }
        Ok(ops)
    };
    pass()?;
    let timed = repeat(1, 0.4, &mut pass)?;
    if popped + queue.len() as u64 != admitted || moved == 0 {
        return Err(format!(
            "perf smoke: the departure queue lost streams ({popped} popped + {} queued != \
             {admitted} admitted) or never failed over",
            queue.len()
        )
        .into());
    }
    Ok(timed)
}

/// The streaming engine end to end on the mini scale world, repeated for
/// at least 0.4 s. The seconds are the engine's alone: `compute` times
/// the run apart from its planning.
fn scale_events(_: &mut Smoke) -> Timed {
    let world = scale::ScaleWorld::mini(1);
    let mut engine_secs = 0.0;
    let (events, _) = repeat(1, 0.4, || {
        // A disabled handle: the smoke's registry counts the paper
        // world's events alone.
        let summary = scale::compute(&world, SEED, &Telemetry::disabled())?.summary;
        engine_secs += summary.wall_secs;
        Ok(summary.events)
    })?;
    Ok((events, engine_secs))
}

/// Reads `--check`'s baseline, a JSON object of floors named by rate,
/// into one floor per [`MEASUREMENTS`] entry, in order. Apart from a
/// `comment`, its keys must be exactly the measured rates: a key that
/// names no measured rate, or a rate without a numeric floor, is an
/// error.
fn read_floors(json: &str) -> Result<Vec<f64>, String> {
    let mut floors: BTreeMap<String, serde_json::Value> =
        serde_json::from_str(json).map_err(|e| e.to_string())?;
    floors.remove("comment");
    let rates: Vec<&str> = MEASUREMENTS.iter().map(|m| m.rate).collect();
    if let Some(key) = floors.keys().find(|key| !rates.contains(&key.as_str())) {
        return Err(format!(
            "floor `{key}` names no measured rate (measured: {})",
            rates.join(", ")
        ));
    }
    rates
        .iter()
        .map(|rate| {
            floors
                .get(*rate)
                .and_then(serde_json::Value::as_f64)
                .ok_or_else(|| format!("no numeric floor for `{rate}`"))
        })
        .collect()
}

/// One perf-smoke floor: fails when `measured` lands more than 30%
/// below `floor`, else prints the machine-greppable
/// `PERF_SMOKE{tag}_DELTA` line CI lifts into the job summary.
fn check_floor(tag: &str, rate: &str, measured: f64, floor: f64) -> Result<(), Box<dyn Error>> {
    let threshold = 0.7 * floor;
    let delta_pct = 100.0 * (measured / floor - 1.0);
    if measured < threshold {
        return Err(format!(
            "perf smoke regression: {rate} {measured:.0} is more than 30% below the \
             baseline {floor:.0} (threshold {threshold:.0}, delta {delta_pct:+.1}%)"
        )
        .into());
    }
    println!(
        "PERF_SMOKE{tag}_DELTA baseline={floor:.0} measured={measured:.0} delta_pct={delta_pct:+.1}"
    );
    eprintln!(
        "perf smoke ok: {rate} {measured:.0} >= threshold {threshold:.0} \
         (baseline {floor:.0}, delta {delta_pct:+.1}%)"
    );
    Ok(())
}

/// Runs [`MEASUREMENTS`] in order, the first two under `setup`, and
/// prints one machine-readable `PERF_SMOKE` line. With `metrics`,
/// appends the run's manifest record, whose throughput is the line's
/// rates. With `check`, reads the floors (see [`read_floors`]) before
/// measuring, and fails when any rate lands more than 30% below its
/// floor.
fn perf_smoke(
    setup: PaperSetup,
    metrics: Option<&str>,
    check: Option<&str>,
) -> Result<(), Box<dyn Error>> {
    let floors = match check {
        Some(path) => {
            let json = std::fs::read_to_string(path)?;
            Some(read_floors(&json).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let started = Instant::now();
    let mut smoke = Smoke {
        lambda: 0.9 * setup.capacity_lambda_per_min(),
        setup,
        telemetry: Telemetry::enabled(),
        line: Vec::new(),
        rates: Vec::new(),
        phases: Vec::new(),
    };
    smoke.field("n_servers", smoke.setup.n_servers);
    smoke.field("n_videos", smoke.setup.n_videos);
    smoke.field("runs", smoke.setup.runs);
    smoke.field("seed", SEED);
    let mut measured = Vec::new();
    for m in &MEASUREMENTS {
        let (count, secs) = (m.run)(&mut smoke)?;
        let per_sec = count as f64 / secs;
        smoke.field(m.count, count);
        smoke.rate(m.rate, per_sec);
        smoke.secs(m.secs, m.phase, secs);
        measured.push(per_sec);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    smoke.field("wall_secs", format!("{wall_secs:.3}"));
    // The single line CI greps for; keep the key=value format stable.
    println!("PERF_SMOKE {}", smoke.line.join(" "));

    if let Some(path) = metrics {
        let snapshot = smoke.telemetry.snapshot();
        let mut record = manifest_record("perf_smoke", SEED, &smoke.setup, &snapshot, wall_secs)
            .param("lambda_per_min", smoke.lambda);
        for (phase, secs) in smoke.phases {
            record = record.phase(phase, secs);
        }
        for (rate, per_sec) in smoke.rates {
            record = record.rate(rate, per_sec);
        }
        ManifestWriter::append_to(path)?.write(&record)?;
    }
    if let Some(floors) = floors {
        for ((m, floor), measured) in MEASUREMENTS.iter().zip(floors).zip(measured) {
            check_floor(m.tag, m.rate, measured, floor)?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: experiments <all|fig1..fig6|quality|bound|sa|sa2|ablation|availability|drift|recovery|striping|overload|controller|coding|scale|perf-smoke> \
                 [--fast] [--runs N] [--shards N] [--out DIR] [--no-files] [--metrics FILE] \
                 [--check FILE]"
            );
            return ExitCode::FAILURE;
        }
    };

    let mut setup = if args.fast {
        PaperSetup::fast()
    } else {
        PaperSetup::default()
    };
    if let Some(runs) = args.runs {
        setup.runs = runs;
    }
    if let Some(shards) = args.shards {
        setup.shards = shards;
    }
    if args.command == "perf-smoke" {
        // perf-smoke pins its world, whatever the flags say: the paper
        // setup at 8 runs per point.
        setup = PaperSetup {
            runs: 8,
            ..PaperSetup::default()
        };
    }

    let base_reporter = if args.no_files {
        Reporter::stdout_only()
    } else {
        let dir = args.out.as_deref().unwrap_or("results");
        match Reporter::with_dir(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot create output dir: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let started = Instant::now();
    let result: Result<(), Box<dyn Error>> = (|| {
        if args.command == "perf-smoke" {
            return perf_smoke(setup, args.metrics.as_deref(), args.check.as_deref());
        }
        let selected: Vec<&(&str, u64, ExpFn)> = if args.command == "all" {
            EXPERIMENTS.iter().collect()
        } else {
            let one = EXPERIMENTS
                .iter()
                .find(|(name, _, _)| *name == args.command)
                .ok_or_else(|| {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
                    format!(
                        "unknown command `{}`; expected one of: all, {}, perf-smoke",
                        args.command,
                        known.join(", ")
                    )
                })?;
            vec![one]
        };
        let mut writer = match &args.metrics {
            Some(path) => Some(ManifestWriter::append_to(path)?),
            None => None,
        };
        for (name, seed, run) in selected {
            // Fresh telemetry per experiment so each manifest record
            // holds that experiment's counters alone.
            let telemetry = if writer.is_some() {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let reporter = base_reporter.clone().with_telemetry(telemetry.clone());
            let exp_started = Instant::now();
            run(&setup, &reporter)?;
            let wall_secs = exp_started.elapsed().as_secs_f64();
            if let Some(writer) = &mut writer {
                let snapshot = telemetry.snapshot();
                let mut record = manifest_record(name, *seed, &setup, &snapshot, wall_secs);
                for (rate, counter) in COUNTER_RATES {
                    let n = snapshot.counter(counter);
                    if n > 0 && wall_secs > 0.0 {
                        record = record.rate(rate, n as f64 / wall_secs);
                    }
                }
                writer.write(&record)?;
            }
        }
        Ok(())
    })();

    match result {
        Ok(()) => {
            eprintln!(
                "done: {} in {:.1}s (runs per point: {})",
                args.command,
                started.elapsed().as_secs_f64(),
                setup.runs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.command, "all");
        assert!(!a.fast && a.runs.is_none() && a.shards.is_none());
    }

    #[test]
    fn full_flag_set_parses() {
        let a = parse(&[
            "controller",
            "--fast",
            "--runs",
            "3",
            "--shards",
            "8",
            "--out",
            "r",
            "--metrics",
            "m.jsonl",
        ])
        .unwrap();
        assert_eq!(a.command, "controller");
        assert!(a.fast);
        assert_eq!(a.runs, Some(3));
        assert_eq!(a.shards, Some(8));
        assert_eq!(a.out.as_deref(), Some("r"));
        assert_eq!(a.metrics.as_deref(), Some("m.jsonl"));
    }

    #[test]
    fn zero_values_get_actionable_errors() {
        let e = parse(&["--shards", "0"]).unwrap_err();
        assert!(e.contains("--shards 0"), "{e}");
        assert!(e.contains("positive"), "{e}");
        let e = parse(&["--runs", "0"]).unwrap_err();
        assert!(e.contains("--runs 0"), "{e}");
    }

    #[test]
    fn non_numeric_values_name_the_flag_and_input() {
        let e = parse(&["--shards", "many"]).unwrap_err();
        assert!(e.contains("--shards") && e.contains("many"), "{e}");
        let e = parse(&["--runs", "-4"]).unwrap_err();
        assert!(e.contains("--runs") && e.contains("-4"), "{e}");
    }

    #[test]
    fn absurd_values_hit_the_sanity_caps() {
        let e = parse(&["--shards", "100000"]).unwrap_err();
        assert!(e.contains("sanity cap"), "{e}");
        let e = parse(&["--runs", "2000000"]).unwrap_err();
        assert!(e.contains("sanity cap"), "{e}");
    }

    #[test]
    fn missing_and_empty_values_rejected() {
        assert!(parse(&["--runs"]).is_err());
        assert!(parse(&["--shards"]).is_err());
        assert!(parse(&["--out"]).is_err());
        let e = parse(&["--out", ""]).unwrap_err();
        assert!(e.contains("--out"), "{e}");
        let e = parse(&["--metrics", ""]).unwrap_err();
        assert!(e.contains("--metrics"), "{e}");
    }

    #[test]
    fn check_requires_perf_smoke() {
        let e = parse(&["fig4", "--check", "base.json"]).unwrap_err();
        assert!(e.contains("perf-smoke") && e.contains("fig4"), "{e}");
        assert!(parse(&["perf-smoke", "--check", "base.json"]).is_ok());
    }

    #[test]
    fn unknown_flags_and_extra_positionals_rejected() {
        let e = parse(&["--shard", "4"]).unwrap_err();
        assert!(e.contains("--shard"), "{e}");
        let e = parse(&["fig4", "fig5"]).unwrap_err();
        assert!(e.contains("fig5"), "{e}");
    }

    #[test]
    fn drift_world_tiles_a7s_world() {
        let setup = PaperSetup::default();
        let (n, m) = (setup.n_servers, setup.n_videos);
        let a7 = controller::DriftWorld::new(&setup).unwrap();
        let (catalog, cluster, layout, trace) = drift_world().unwrap();
        assert_eq!(
            (catalog.len(), cluster.len()),
            (DRIFT_PODS * m, DRIFT_PODS * n)
        );
        assert!(cluster
            .servers()
            .iter()
            .all(|s| *s == a7.cluster.servers()[0]));
        for p in 0..DRIFT_PODS {
            // The pod's replica sets: A-7's static plan, shifted into it.
            for v in 0..m {
                let planned = a7.layout.replicas_of(VideoId(v as u32));
                let shifted: Vec<ServerId> = planned
                    .iter()
                    .map(|s| ServerId((p * n) as u32 + s.0))
                    .collect();
                assert_eq!(layout.replicas_of(VideoId((p * m + v) as u32)), shifted);
            }
            // The pod's requests: A-7's drifting workload from seed
            // `controller::SEED + p`, on the pod's titles.
            let mut rng = ChaCha8Rng::seed_from_u64(controller::SEED + p as u64);
            let drawn = a7.workload.generate(a7.lambda_per_min, &mut rng).unwrap();
            let pod: Vec<Request> = trace
                .requests()
                .iter()
                .filter(|r| r.video.0 as usize / m == p)
                .map(|r| Request {
                    video: VideoId(r.video.0 - (p * m) as u32),
                    ..*r
                })
                .collect();
            assert!(!pod.is_empty());
            assert_eq!(pod, drawn.requests(), "pod {p}");
        }
    }

    const BASELINE: &str = include_str!("../../../../bench/baseline.json");

    #[test]
    fn committed_floors_are_exactly_the_measured_rates() {
        let baseline: BTreeMap<String, serde_json::Value> = serde_json::from_str(BASELINE).unwrap();
        let mut keys: Vec<&str> = baseline.keys().map(String::as_str).collect();
        keys.retain(|&key| key != "comment");
        let mut rates: Vec<&str> = MEASUREMENTS.iter().map(|m| m.rate).collect();
        rates.sort_unstable();
        assert_eq!(keys, rates);
        let floors = read_floors(BASELINE).unwrap();
        assert_eq!(floors.len(), MEASUREMENTS.len());
        assert_eq!(floors[0], baseline["events_per_sec"].as_f64().unwrap());
    }

    #[test]
    fn floors_are_checked_by_name() {
        // A misspelled key names no measured rate, however high it sets
        // its floor.
        let misspelled = BASELINE.replace(
            "\"drift_events_per_sec\": 1400000",
            "\"drift_event_per_sec\": 99e9",
        );
        assert_ne!(misspelled, BASELINE);
        let e = read_floors(&misspelled).unwrap_err();
        assert!(
            e.contains("`drift_event_per_sec` names no measured rate"),
            "{e}"
        );
        // A measured rate without a floor.
        let missing = BASELINE.replace("  \"queue_ops_per_sec\": 12000000,\n", "");
        assert_ne!(missing, BASELINE);
        let e = read_floors(&missing).unwrap_err();
        assert!(
            e.contains("no numeric floor for `queue_ops_per_sec`"),
            "{e}"
        );
        let text = BASELINE.replace(
            "\"gen_requests_per_sec\": 2500000",
            "\"gen_requests_per_sec\": \"fast\"",
        );
        let e = read_floors(&text).unwrap_err();
        assert!(e.contains("gen_requests_per_sec"), "{e}");
    }
}
