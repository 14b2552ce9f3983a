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
//!   --check FILE    perf-smoke only: fail if any measured rate with a
//!                   floor in FILE drops more than 30% below it
//!   --scheme S      coding only: narrow the sweep to one redundancy
//!                   scheme — `repR` (e.g. rep3) for R full replicas, or
//!                   `rs` with `--k K --m M` for a Reed-Solomon stripe
//!                   of K data + M parity fragments
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::process::ExitCode;
use std::time::Instant;
use vod_anneal::{anneal_with_telemetry, AnnealParams, CoolingSchedule, ScalableProblem};
use vod_experiments::report::Reporter;
use vod_experiments::runner::{build_plan, run_replications, Combo};
use vod_experiments::PaperSetup;
use vod_experiments::{
    ablation, availability, bound, coding, controller, drift, fig1, fig2, fig3, fig4, fig5, fig6,
    overload, quality, recovery, sa, sa_multirate, scale, striping,
};
use vod_model::{
    BitRate, Catalog, ClusterSpec, Layout, ModelError, ObjectiveWeights, Popularity,
    RedundancyScheme, ServerId, ServerSpec, VideoId,
};
use vod_sim::event::{Departure, DepartureQueue, NO_STREAM};
use vod_sim::time::SimTime;
use vod_sim::{
    AdmissionPolicy, ControllerConfig, FailoverPolicy, FailureModel, RepairConfig, SimConfig,
    SimReport, Simulation,
};
use vod_telemetry::{ManifestWriter, RunRecord, Telemetry};
use vod_workload::{
    ArrivalSource, DiurnalCycle, DriftingWorkload, FlashCrowd, RateModel, RatePulse, Request,
    ThinnedWorkload, Trace,
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
    scheme: Option<RedundancyScheme>,
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
        scheme: None,
    };
    let mut scheme_flag: Option<String> = None;
    let mut k_flag: Option<u32> = None;
    let mut m_flag: Option<u32> = None;
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
            "--scheme" => {
                let v = iter
                    .next()
                    .ok_or("--scheme needs a value: repR (e.g. rep2) or rs")?;
                scheme_flag = Some(v);
            }
            "--k" => {
                let v = iter.next().ok_or("--k needs a value")?;
                let k: u32 = v
                    .parse()
                    .map_err(|_| format!("bad --k value `{v}`: expected a non-negative integer"))?;
                k_flag = Some(k);
            }
            "--m" => {
                let v = iter.next().ok_or("--m needs a value")?;
                let m: u32 = v
                    .parse()
                    .map_err(|_| format!("bad --m value `{v}`: expected a non-negative integer"))?;
                m_flag = Some(m);
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
    args.scheme = resolve_scheme(&args.command, scheme_flag, k_flag, m_flag)?;
    Ok(args)
}

/// Validates the `--scheme`/`--k`/`--m` trio into one redundancy scheme
/// (coding command only). Degenerate parameters get actionable errors
/// here, before any simulation is built.
fn resolve_scheme(
    command: &str,
    scheme: Option<String>,
    k: Option<u32>,
    m: Option<u32>,
) -> Result<Option<RedundancyScheme>, String> {
    // The paper cluster every experiment runs on (--scheme cannot
    // resize it, so holder counts beyond it can never place).
    const N_SERVERS: u32 = 8;
    let Some(scheme) = scheme else {
        if k.is_some() || m.is_some() {
            return Err(
                "--k/--m only apply together with --scheme rs; pass --scheme rs --k K --m M".into(),
            );
        }
        return Ok(None);
    };
    if command != "coding" {
        return Err(format!(
            "--scheme only applies to the coding experiment (got command `{command}`); \
             it narrows the A-8 redundancy sweep to one scheme"
        ));
    }
    if let Some(r) = scheme.strip_prefix("rep") {
        if k.is_some() || m.is_some() {
            return Err("--k/--m only apply to --scheme rs; a repR scheme is fully \
                        specified by its replica count"
                .into());
        }
        let r: u32 = r.parse().map_err(|_| {
            format!("bad --scheme value `{scheme}`: expected repR with an integer R (e.g. rep2)")
        })?;
        if r == 0 {
            return Err(
                "--scheme rep0 keeps zero copies — nothing could ever be served; \
                        pass a replica count of at least 1"
                    .into(),
            );
        }
        if r > N_SERVERS {
            return Err(format!(
                "--scheme rep{r} needs {r} distinct servers but the paper cluster has \
                 {N_SERVERS}; replicas of one video must land on different servers"
            ));
        }
        return Ok(Some(RedundancyScheme::Replicated { r }));
    }
    if scheme == "rs" {
        let (Some(k), Some(m)) = (k, m) else {
            return Err(
                "--scheme rs needs both --k (data fragments) and --m (parity fragments), \
                 e.g. --scheme rs --k 2 --m 1"
                    .into(),
            );
        };
        if k == 0 {
            return Err(
                "--k 0 leaves a stripe with no data fragments — nothing could \
                        ever be reconstructed; pass k >= 1"
                    .into(),
            );
        }
        if m == 0 {
            return Err(
                "--m 0 provides no redundancy: fragments without parity are \
                        strictly worse than a single replica; pass m >= 1"
                    .into(),
            );
        }
        if k + m > N_SERVERS {
            return Err(format!(
                "--k {k} --m {m} needs k+m = {} distinct servers but the paper cluster \
                 has {N_SERVERS}; shrink the stripe or its parity",
                k + m
            ));
        }
        return Ok(Some(RedundancyScheme::Coded { k, m }));
    }
    Err(format!(
        "unknown --scheme `{scheme}`: expected repR (e.g. rep2) or rs (with --k/--m)"
    ))
}

type ExpFn = fn(&PaperSetup, &Reporter) -> Result<(), Box<dyn std::error::Error>>;

/// Every regenerator, in `all` order, with the base seed its internal
/// RNG streams derive from (0 for deterministic planning-only
/// experiments) — recorded in the run manifest.
const EXPERIMENTS: &[(&str, u64, ExpFn)] = &[
    ("fig1", 0, |_, r| fig1::run(r)),
    ("fig2", 0, |_, r| fig2::run(r)),
    ("fig3", 0, |_, r| fig3::run(r)),
    ("fig4", 0xF164, fig4::run),
    ("fig5", 0xF165, fig5::run),
    ("fig6", 0xF166, fig6::run),
    ("quality", 0, |_, r| quality::run(r)),
    ("bound", 0, bound::run),
    ("sa", 0x5A, sa::run),
    ("ablation", 0xAB, ablation::run),
    ("availability", 0xFA11, availability::run),
    ("drift", 0xD21F7, drift::run),
    ("recovery", 0x4EC0, recovery::run),
    ("sa2", 0x5A21, sa_multirate::run),
    ("striping", 0xA4, striping::run),
    ("overload", 0x0AD6, overload::run),
    ("controller", 0xC0A7, controller::run),
    ("coding", 0xC0DE, coding::run),
    ("scale", scale::SCALE_SEED, scale::run),
];

/// Builds the manifest record for one finished experiment: pinned
/// parameters, the full counter snapshot (span histograms become phase
/// timings), and the derived event/request/evaluation rates.
fn manifest_record(
    name: &str,
    seed: u64,
    setup: &PaperSetup,
    telemetry: &Telemetry,
    wall_secs: f64,
) -> RunRecord {
    let snapshot = telemetry.snapshot();
    let mut record = RunRecord::new(name, seed)
        .param("n_servers", setup.n_servers as f64)
        .param("n_videos", setup.n_videos as f64)
        .param("runs", f64::from(setup.runs))
        .param("shards", setup.shards as f64)
        .param("horizon_min", setup.horizon_min)
        .wall(wall_secs)
        .with_snapshot(&snapshot);
    if wall_secs > 0.0 {
        let events = snapshot.counter("sim.events");
        if events > 0 {
            record = record.rate("events_per_sec", events as f64 / wall_secs);
        }
        let arrivals = snapshot.counter("sim.arrivals");
        if arrivals > 0 {
            record = record.rate("requests_per_sec", arrivals as f64 / wall_secs);
        }
        let evaluations = snapshot.counter("anneal.evaluations");
        if evaluations > 0 {
            record = record.rate("evaluations_per_sec", evaluations as f64 / wall_secs);
        }
        let sa_steps = snapshot.counter("anneal.proposed");
        if sa_steps > 0 {
            record = record.rate("sa_steps_per_sec", sa_steps as f64 / wall_secs);
        }
    }
    record
}

/// One perf-smoke engine measurement: `(events, secs, events_per_sec)`.
type Rate = (u64, f64, f64);

/// Sharded-engine throughput measurements for the perf smoke on a
/// pod-structured world (32 independent pods of 8 servers, every
/// replica set inside one pod) large enough that the decoupled
/// parallel path fans out to 8 worker threads. Two inputs: the world's
/// materialized trace, and a thinned arrival stream (a 90-minute
/// diurnal cycle at amplitude 0.5 and a 1.5× premiere pulse, ~19k
/// requests over the whole catalog) rebuilt for every run as the
/// engine consumes it, which the decoupled producer pulls once for all
/// eight workers. Asserts the shards=1 and shards=8 reports are
/// byte-identical for both inputs first — the throughput figures are
/// only meaningful if determinism holds — then measures events/sec of
/// the sharded engine on each. Returns `(events, secs, events_per_sec)`
/// for the trace, then for the stream.
fn par_perf_measurements() -> Result<(Rate, Rate), Box<dyn std::error::Error>> {
    const SHARDS: usize = 8;
    let (catalog, cluster, layout, trace) = pods_perf_world()?;
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
    let cfg = |shards| SimConfig {
        shards,
        ..SimConfig::default()
    };
    let serial = Simulation::new(&catalog, &cluster, &layout, cfg(1))?;
    let sharded = Simulation::new(&catalog, &cluster, &layout, cfg(SHARDS))?;
    assert_same_report(serial.run(&trace)?, sharded.run(&trace)?, "sharded")?;
    assert_same_report(
        serial.run_streaming(stream()?)?,
        sharded.run_streaming(stream()?)?,
        "streamed sharded",
    )?;
    Ok((
        time_engine_runs(|t| sharded.run_with_telemetry(&trace, t))?,
        time_engine_runs(|t| sharded.run_streaming_with_telemetry(stream()?, t))?,
    ))
}

/// Fails the perf smoke unless the `shards = 1` report `serial` and the
/// `shards = 8` report `sharded` of one `what` measurement serialize
/// byte-identically.
fn assert_same_report(
    serial: SimReport,
    sharded: SimReport,
    what: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    if serde_json::to_string(&serial)? != serde_json::to_string(&sharded)? {
        return Err(format!("perf smoke: {what} report diverged from the serial report").into());
    }
    Ok(())
}

/// Repeats `run` (at least twice, for at least half a second) into one
/// telemetry registry and returns `(events, secs, events_per_sec)`.
fn time_engine_runs(
    run: impl Fn(&Telemetry) -> Result<SimReport, ModelError>,
) -> Result<Rate, Box<dyn std::error::Error>> {
    let telemetry = Telemetry::enabled();
    let started = Instant::now();
    let mut iterations = 0u32;
    while iterations < 2 || started.elapsed().as_secs_f64() < 0.5 {
        std::hint::black_box(run(&telemetry)?);
        iterations += 1;
    }
    let secs = started.elapsed().as_secs_f64();
    let events = telemetry.snapshot().counter("sim.events");
    Ok((events, secs, events as f64 / secs))
}

/// The pods world the sharded and coupled measurements run on: 32
/// independent pods of 8 servers, every replica set inside one pod,
/// 10-minute MPEG-2 videos on 40 Mbps links (10 concurrent streams per
/// server — busy but unsaturated), 20k arrivals spread evenly over the
/// 90-minute horizon cycling the whole catalog.
fn pods_perf_world() -> Result<(Catalog, ClusterSpec, Layout, Trace), Box<dyn std::error::Error>> {
    const PODS: usize = 32;
    const PER_POD: usize = 8;
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
                let pod = v / PER_POD;
                let w = v % PER_POD;
                vec![
                    ServerId((pod * PER_POD + w) as u32),
                    ServerId((pod * PER_POD + (w + 1) % PER_POD) as u32),
                ]
            })
            .collect(),
    )?;
    let n_requests = 20_000usize;
    // 37 is coprime with 256, so the video sequence cycles the whole
    // catalog uniformly; arrivals are evenly spread over the horizon.
    let trace = Trace::new(
        (0..n_requests)
            .map(|k| Request {
                arrival_min: k as f64 * (90.0 / n_requests as f64),
                video: VideoId(((k * 37) % n_videos) as u32),
            })
            .collect(),
    )?;
    Ok((catalog, cluster, layout, trace))
}

/// Coupled-path throughput measurement: the same pods world with one
/// mid-run outage, which couples the pods — the decoupled per-pod
/// fan-out is ineligible, so `shards = 8` takes the serial loop.
/// Asserts the `shards = 1` and `shards = 8` reports are byte-identical,
/// then measures events/sec of the `shards = 8` run. Returns
/// `(events, secs, events_per_sec)`.
fn coupled_par_perf_measurement() -> Result<Rate, Box<dyn std::error::Error>> {
    const SHARDS: usize = 8;
    let (catalog, cluster, layout, trace) = pods_perf_world()?;
    let outage = || {
        vod_sim::FailurePlan::new(vec![vod_sim::Outage {
            server: ServerId(3),
            down_at_min: 30.0,
            up_at_min: Some(60.0),
        }])
        .expect("valid outage")
    };
    let serial = Simulation::new(
        &catalog,
        &cluster,
        &layout,
        SimConfig {
            failures: outage(),
            ..SimConfig::default()
        },
    )?;
    let sharded = Simulation::new(
        &catalog,
        &cluster,
        &layout,
        SimConfig {
            failures: outage(),
            shards: SHARDS,
            ..SimConfig::default()
        },
    )?;
    assert_same_report(serial.run(&trace)?, sharded.run(&trace)?, "sharded coupled")?;
    time_engine_runs(|t| sharded.run_with_telemetry(&trace, t))
}

/// Pods in the drift world of [`drift_perf_measurement`].
const DRIFT_PODS: usize = 8;

/// A-7's world tiled [`DRIFT_PODS`] times: 64 servers in pods of 8 and
/// 1,600 titles in pods of 200. Each pod holds the paper's zipf+slf plan
/// at degree 1.4 on degree-1.6 storage (the controller fills the spare
/// slots, then demotes cooled titles to fund raises) and gets its own
/// A-7 drifting traffic (15-min rank swaps, two flash crowds on its
/// coldest titles) at 85% of capacity.
fn drift_perf_world() -> Result<(Catalog, ClusterSpec, Layout, Trace), Box<dyn std::error::Error>> {
    let setup = PaperSetup::default();
    let (n, m) = (setup.n_servers, setup.n_videos);
    let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.4)?;
    let mut assignments = Vec::with_capacity(DRIFT_PODS * m);
    for p in 0..DRIFT_PODS {
        for v in 0..m {
            let servers = point.plan.layout.replicas_of(VideoId(v as u32));
            assignments.push(
                servers
                    .iter()
                    .map(|s| ServerId((p * n) as u32 + s.0))
                    .collect(),
            );
        }
    }
    let layout = Layout::new(DRIFT_PODS * n, assignments)?;
    let server = setup.cluster(1.6).servers()[0];
    let cluster = ClusterSpec::homogeneous(DRIFT_PODS * n, server)?;
    let catalog = Catalog::fixed_rate(DRIFT_PODS * m, setup.bitrate, setup.duration_s)?;
    let coldest = m as u32 - 1;
    let workload = DriftingWorkload::new(
        setup.popularity(1.0)?,
        setup.horizon_min,
        15.0,
        m as u32,
        0xD21F,
    )?
    .with_flash_crowds(vec![
        FlashCrowd {
            at_min: 25.0,
            video: VideoId(coldest),
            boost: 2.0,
        },
        FlashCrowd {
            at_min: 55.0,
            video: VideoId(coldest - 1),
            boost: 1.5,
        },
    ])?;
    let lambda = 0.85 * setup.capacity_lambda_per_min();
    let mut requests = Vec::new();
    for p in 0..DRIFT_PODS {
        let pod = workload.generate(lambda, &mut ChaCha8Rng::seed_from_u64(0xC0A7 + p as u64))?;
        requests.extend(pod.requests().iter().map(|r| Request {
            video: VideoId((p * m) as u32 + r.video.0),
            ..*r
        }));
    }
    requests.sort_by(|a, b| a.arrival_min.total_cmp(&b.arrival_min));
    Ok((catalog, cluster, layout, Trace::new(requests)?))
}

/// Controller-path throughput measurement: the drift world with the
/// online controller on a 1-min tick, metered 200 Mbps repair,
/// exponential faults at one A-7 cluster's rate (MTTR 15 min) and
/// resume failover; repair and controller budgets are A-7's per pod.
/// The controller couples the pods, so `shards = 8` takes the serial
/// loop. Asserts that the controller both copied and demoted, and that
/// the `shards = 1` and `shards = 8` reports are byte-identical, then
/// measures events/sec of the `shards = 8` run. Returns
/// `(events, secs, events_per_sec)`.
fn drift_perf_measurement() -> Result<Rate, Box<dyn std::error::Error>> {
    const SHARDS: usize = 8;
    let (catalog, cluster, layout, trace) = drift_perf_world()?;
    let config = |shards| SimConfig {
        policy: AdmissionPolicy::LeastLoadedReplica,
        shards,
        failure_model: Some(FailureModel::exponential(
            180.0 * DRIFT_PODS as f64,
            15.0,
            0xFA,
        )),
        repair: RepairConfig {
            bandwidth_kbps: 200_000,
            max_concurrent: 8 * DRIFT_PODS,
        },
        controller: ControllerConfig {
            tick_min: 1.0,
            ewma_window_ticks: 6,
            cooldown_ticks: 12,
            max_changes_per_tick: 8 * DRIFT_PODS,
        },
        failover: FailoverPolicy::Resume,
        ..SimConfig::default()
    };
    let serial = Simulation::new(&catalog, &cluster, &layout, config(1))?;
    let sharded = Simulation::new(&catalog, &cluster, &layout, config(SHARDS))?;
    let a = serial.run(&trace)?;
    let b = sharded.run(&trace)?;
    if a.controller_copies == 0 || a.controller_demotions == 0 {
        return Err("perf smoke: the drift world's controller never copied or demoted".into());
    }
    assert_same_report(a, b, "sharded drift")?;
    time_engine_runs(|t| sharded.run_with_telemetry(&trace, t))
}

/// One perf-smoke floor: fails when `measured` lands more than 30%
/// below `floor`, else prints the machine-greppable
/// `PERF_SMOKE{tag}_DELTA` line CI lifts into the job summary.
fn check_floor(
    tag: &str,
    what: &str,
    measured: f64,
    floor: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let threshold = 0.7 * floor;
    let delta_pct = 100.0 * (measured / floor - 1.0);
    if measured < threshold {
        return Err(format!(
            "perf smoke regression: {measured:.0} {what} is more than 30% below the \
             baseline {floor:.0} (threshold {threshold:.0}, delta {delta_pct:+.1}%)"
        )
        .into());
    }
    println!(
        "PERF_SMOKE{tag}_DELTA baseline={floor:.0} measured={measured:.0} delta_pct={delta_pct:+.1}"
    );
    eprintln!(
        "perf smoke ok: {measured:.0} {what} >= threshold {threshold:.0} \
         (baseline {floor:.0}, delta {delta_pct:+.1}%)"
    );
    Ok(())
}

/// Runs the pinned-size throughput measurements: the paper's cluster
/// (N = 8, M = 200), zipf+slf plan at degree 1.2, near-capacity load,
/// fixed seed — plus the SA-1 annealing problem through the
/// delta-evaluated move engine, the sharded (trace and streamed),
/// coupled and controller pod worlds, the streaming scale world and the
/// departure queue alone.
/// Prints one machine-readable `PERF_SMOKE` line; with `--check`,
/// compares against a JSON baseline (`{"events_per_sec": X, ...}`,
/// every other floor optional) and fails when any rate lands more than
/// 30% below its floor.
fn perf_smoke(
    metrics: Option<&str>,
    check: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let setup = PaperSetup {
        runs: 8,
        ..PaperSetup::default()
    };
    let seed = 0x5EED_CAFE;
    let lambda = 0.9 * setup.capacity_lambda_per_min();
    let telemetry = Telemetry::enabled();

    let started = Instant::now();
    let point = build_plan(&setup, Combo::ZIPF_SLF, 1.0, 1.2)?;
    let plan_secs = started.elapsed().as_secs_f64();

    // One batch of replications finishes in milliseconds; repeat the
    // identical batch until enough wall time accumulates for a stable
    // events/sec estimate (the timing gate CI compares against).
    let sim_started = Instant::now();
    let mut reports = Vec::new();
    let mut iterations = 0u32;
    while iterations < 3 || sim_started.elapsed().as_secs_f64() < 0.5 {
        reports = run_replications(
            &setup,
            &point,
            lambda,
            AdmissionPolicy::StaticRoundRobin,
            seed,
            &telemetry,
        )?;
        iterations += 1;
    }
    let sim_secs = sim_started.elapsed().as_secs_f64();

    // SA hot-path measurement: the SA-1 problem shape (paper cluster at
    // storage degree 1.4, θ = 1 popularity, 60%-of-capacity demand)
    // through the delta-evaluated annealer from a fixed seed, repeated
    // until enough wall time accumulates for a stable steps/sec figure.
    let sa_problem = ScalableProblem::new(
        Popularity::zipf(setup.n_videos, 1.0)?,
        setup.cluster(1.4),
        setup.duration_s,
        BitRate::LADDER.to_vec(),
        setup.capacity_demand() * 0.6,
        ObjectiveWeights::default(),
    )?;
    let t0 = 20.0 / setup.n_videos as f64;
    let sa_params = AnnealParams {
        schedule: CoolingSchedule::Geometric {
            t0,
            alpha: 0.93,
            t_min: t0 * 1e-4,
        },
        epochs: 12,
        steps_per_epoch: 500,
    };
    let sa_started = Instant::now();
    let mut sa_steps = 0u64;
    while sa_steps == 0 || sa_started.elapsed().as_secs_f64() < 0.4 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        std::hint::black_box(anneal_with_telemetry(
            &sa_problem,
            sa_problem.initial_search(),
            &sa_params,
            &mut rng,
            &telemetry,
        ));
        sa_steps += u64::from(sa_params.epochs) * u64::from(sa_params.steps_per_epoch);
    }
    let sa_secs = sa_started.elapsed().as_secs_f64();
    let sa_steps_per_sec = sa_steps as f64 / sa_secs;

    // Sharded-engine measurements (pods world on its trace and fed a
    // thinned stream, shards = 8; byte-identity against the serial
    // engine is asserted inside).
    let (
        (par_events, par_secs, par_events_per_sec),
        (par_stream_events, par_stream_secs, par_stream_events_per_sec),
    ) = par_perf_measurements()?;

    // Coupled-engine measurement (same world plus an outage, so the
    // serial loop carries the run at shards = 8).
    let (coupled_events, coupled_secs, coupled_events_per_sec) = coupled_par_perf_measurement()?;

    // Controller measurement (tiled A-7 drift world: controller, metered
    // repair and faults on the serial loop at shards = 8).
    let (drift_events, drift_secs, drift_events_per_sec) = drift_perf_measurement()?;

    // Streaming-generation measurement: requests/sec pulled from the
    // thinned arrival source of the mini scale world, including the
    // per-stream construction pre-pass (each iteration rebuilds the
    // source, which is how the engine consumes it).
    let gen_world = scale::ScaleWorld::mini(1);
    let gen_workload = gen_world.workload()?;
    let gen_started = Instant::now();
    let mut gen_requests = 0u64;
    while gen_requests == 0 || gen_started.elapsed().as_secs_f64() < 0.4 {
        let mut source = gen_workload.stream(ChaCha8Rng::seed_from_u64(seed))?;
        while let Some(r) = source.next_request() {
            std::hint::black_box(r);
            gen_requests += 1;
        }
    }
    let gen_secs = gen_started.elapsed().as_secs_f64();
    let gen_requests_per_sec = gen_requests as f64 / gen_secs;

    // Departure-queue measurement: the queue alone at A-9's concurrency
    // (~131k live streams over 256 servers), fed precomputed inputs in
    // the engine's shape. A clock advances 0-2 ticks per admission, each
    // admission is due at clock + T (T = 131,072 ticks), due departures
    // pop first, and every 10,000 admissions (~20k ops) one server's
    // streams are extracted and re-pushed at their original instants,
    // as failover does. The first pass over the inputs fills the queue
    // untimed; ops = admissions + pops + 2 x extracted (each removal and
    // its re-push).
    const QUEUE_T: u64 = 131_072;
    const QUEUE_SERVERS: u32 = 256;
    const QUEUE_FAILOVER_EVERY: usize = 10_000;
    let mut queue_rng = ChaCha8Rng::seed_from_u64(seed);
    let queue_inputs: Vec<(u64, ServerId)> = (0..1 << 18)
        .map(|_| {
            (
                queue_rng.gen_range(0..3),
                ServerId(queue_rng.gen_range(0..QUEUE_SERVERS)),
            )
        })
        .collect();
    let mut queue = DepartureQueue::with_capacity(QUEUE_SERVERS as usize);
    let mut extracted = Vec::new();
    let (mut clock, mut last_popped) = (0u64, SimTime(0));
    let (mut admitted, mut popped, mut moved) = (0u64, 0u64, 0u64);
    let mut queue_started = Instant::now();
    let (mut queue_ops, mut queue_passes) = (0u64, 0u32);
    while queue_passes < 2 || queue_started.elapsed().as_secs_f64() < 0.4 {
        if queue_passes == 1 {
            queue_started = Instant::now();
            queue_ops = 0;
        }
        for (k, &(dt, server)) in queue_inputs.iter().enumerate() {
            clock += dt;
            while let Some(d) = queue.pop_due(SimTime(clock)) {
                if d.at < last_popped {
                    return Err("perf smoke: the departure queue popped out of order".into());
                }
                last_popped = d.at;
                popped += 1;
                queue_ops += 1;
            }
            queue.push(Departure {
                at: SimTime(clock + QUEUE_T),
                server,
                video: VideoId(k as u32),
                kbps: 4_000,
                backbone_kbps: 0,
                epoch: 0,
                stream: NO_STREAM,
            });
            admitted += 1;
            queue_ops += 1;
            if k % QUEUE_FAILOVER_EVERY == 0 {
                let failed = ServerId((k / QUEUE_FAILOVER_EVERY) as u32 % QUEUE_SERVERS);
                queue.extract_active_into(failed, 0, &mut extracted);
                moved += extracted.len() as u64;
                queue_ops += 2 * extracted.len() as u64;
                for d in extracted.drain(..) {
                    queue.push(d);
                }
            }
        }
        queue_passes += 1;
    }
    let queue_secs = queue_started.elapsed().as_secs_f64();
    let queue_ops_per_sec = queue_ops as f64 / queue_secs;
    if popped + queue.len() as u64 != admitted || moved == 0 {
        return Err(format!(
            "perf smoke: the departure queue lost streams ({popped} popped + {} queued != \
             {admitted} admitted) or never failed over",
            queue.len()
        )
        .into());
    }

    // Streaming-engine measurement on the mini scale world, repeated
    // until enough engine wall time accumulates (events/sec uses the
    // engine-only time `compute` reports, not the planning time).
    let scale_started = Instant::now();
    let mut scale_events = 0u64;
    let mut scale_engine_secs = 0.0;
    while scale_events == 0 || scale_started.elapsed().as_secs_f64() < 0.4 {
        let outcome = scale::compute(&gen_world, seed)?;
        scale_events += outcome.summary.events;
        scale_engine_secs += outcome.summary.wall_secs;
    }
    let scale_secs = scale_started.elapsed().as_secs_f64();
    let scale_events_per_sec = scale_events as f64 / scale_engine_secs.max(f64::MIN_POSITIVE);

    let wall_secs = started.elapsed().as_secs_f64();

    let snapshot = telemetry.snapshot();
    let events = snapshot.counter("sim.events");
    let arrivals = snapshot.counter("sim.arrivals");
    let events_per_sec = events as f64 / sim_secs;
    let requests_per_sec = arrivals as f64 / sim_secs;
    let rejection_rate =
        reports.iter().map(|r| r.rejection_rate).sum::<f64>() / reports.len().max(1) as f64;

    // The single line CI greps for; keep the key=value format stable.
    println!(
        "PERF_SMOKE n_servers={} n_videos={} runs={} iterations={iterations} seed={seed} \
         events={events} arrivals={arrivals} events_per_sec={events_per_sec:.0} \
         requests_per_sec={requests_per_sec:.0} rejection_rate={rejection_rate:.4} \
         sa_steps={sa_steps} sa_steps_per_sec={sa_steps_per_sec:.0} \
         par_events={par_events} par_events_per_sec={par_events_per_sec:.0} \
         par_stream_events={par_stream_events} \
         par_stream_events_per_sec={par_stream_events_per_sec:.0} \
         coupled_par_events={coupled_events} \
         coupled_par_events_per_sec={coupled_events_per_sec:.0} \
         drift_events={drift_events} drift_events_per_sec={drift_events_per_sec:.0} \
         gen_requests={gen_requests} gen_requests_per_sec={gen_requests_per_sec:.0} \
         queue_ops={queue_ops} queue_ops_per_sec={queue_ops_per_sec:.0} \
         scale_events={scale_events} scale_events_per_sec={scale_events_per_sec:.0} \
         plan_secs={plan_secs:.3} sim_secs={sim_secs:.3} sa_secs={sa_secs:.3} \
         par_secs={par_secs:.3} par_stream_secs={par_stream_secs:.3} \
         coupled_par_secs={coupled_secs:.3} drift_secs={drift_secs:.3} \
         gen_secs={gen_secs:.3} queue_secs={queue_secs:.3} scale_secs={scale_secs:.3} \
         wall_secs={wall_secs:.3}",
        setup.n_servers, setup.n_videos, setup.runs,
    );

    if let Some(path) = metrics {
        let record = manifest_record("perf_smoke", seed, &setup, &telemetry, wall_secs)
            .param("lambda_per_min", lambda)
            .phase("plan", plan_secs)
            .phase("simulate", sim_secs)
            .phase("anneal", sa_secs)
            .phase("par_simulate", par_secs)
            .phase("par_stream_simulate", par_stream_secs)
            .phase("coupled_par_simulate", coupled_secs)
            .phase("drift_simulate", drift_secs)
            .phase("generate", gen_secs)
            .phase("queue", queue_secs)
            .phase("scale_simulate", scale_secs)
            // Override the wall-clock-derived figures with the
            // phase-local ones (each hot loop only ran during its own
            // phase).
            .rate("sa_steps_per_sec", sa_steps_per_sec)
            .rate("par_events_per_sec", par_events_per_sec)
            .rate("par_stream_events_per_sec", par_stream_events_per_sec)
            .rate("coupled_par_events_per_sec", coupled_events_per_sec)
            .rate("drift_events_per_sec", drift_events_per_sec)
            .rate("gen_requests_per_sec", gen_requests_per_sec)
            .rate("queue_ops_per_sec", queue_ops_per_sec)
            .rate("scale_events_per_sec", scale_events_per_sec);
        ManifestWriter::append_to(path)?.write(&record)?;
    }

    if let Some(path) = check {
        #[derive(serde::Deserialize)]
        struct Baseline {
            events_per_sec: f64,
            #[serde(default)]
            sa_steps_per_sec: Option<f64>,
            #[serde(default)]
            par_events_per_sec: Option<f64>,
            #[serde(default)]
            par_stream_events_per_sec: Option<f64>,
            #[serde(default)]
            coupled_par_events_per_sec: Option<f64>,
            #[serde(default)]
            drift_events_per_sec: Option<f64>,
            #[serde(default)]
            gen_requests_per_sec: Option<f64>,
            #[serde(default)]
            queue_ops_per_sec: Option<f64>,
            #[serde(default)]
            scale_events_per_sec: Option<f64>,
        }
        let baseline: Baseline = serde_json::from_str(&std::fs::read_to_string(path)?)?;
        check_floor("", "events/sec", events_per_sec, baseline.events_per_sec)?;
        let optional = [
            (
                "_SA",
                "SA steps/sec",
                sa_steps_per_sec,
                baseline.sa_steps_per_sec,
            ),
            (
                "_PAR",
                "parallel events/sec",
                par_events_per_sec,
                baseline.par_events_per_sec,
            ),
            (
                "_PAR_STREAM",
                "streamed parallel events/sec",
                par_stream_events_per_sec,
                baseline.par_stream_events_per_sec,
            ),
            (
                "_COUPLED",
                "coupled events/sec",
                coupled_events_per_sec,
                baseline.coupled_par_events_per_sec,
            ),
            (
                "_DRIFT",
                "controller-path events/sec",
                drift_events_per_sec,
                baseline.drift_events_per_sec,
            ),
            (
                "_GEN",
                "streaming-generation requests/sec",
                gen_requests_per_sec,
                baseline.gen_requests_per_sec,
            ),
            (
                "_QUEUE",
                "departure-queue ops/sec",
                queue_ops_per_sec,
                baseline.queue_ops_per_sec,
            ),
            (
                "_SCALE",
                "streaming-engine events/sec",
                scale_events_per_sec,
                baseline.scale_events_per_sec,
            ),
        ];
        for (tag, what, measured, floor) in optional {
            if let Some(floor) = floor {
                check_floor(tag, what, measured, floor)?;
            }
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
                 [--check FILE] [--scheme repR|rs [--k K --m M]]"
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
    let result: Result<(), Box<dyn std::error::Error>> = (|| {
        if args.command == "perf-smoke" {
            return perf_smoke(args.metrics.as_deref(), args.check.as_deref());
        }
        if let Some(scheme) = args.scheme {
            // --scheme narrows the A-8 sweep to one explicit scheme
            // (parse_from guarantees the command is `coding`).
            let mut writer = match &args.metrics {
                Some(path) => Some(ManifestWriter::append_to(path)?),
                None => None,
            };
            let telemetry = if writer.is_some() {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let reporter = base_reporter.clone().with_telemetry(telemetry.clone());
            let exp_started = Instant::now();
            coding::run_scheme(&setup, &reporter, scheme)?;
            let wall_secs = exp_started.elapsed().as_secs_f64();
            if let Some(writer) = &mut writer {
                writer.write(&manifest_record(
                    "coding", 0xC0DE, &setup, &telemetry, wall_secs,
                ))?;
            }
            return Ok(());
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
                writer.write(&manifest_record(name, *seed, &setup, &telemetry, wall_secs))?;
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
    fn scheme_flags_parse_into_redundancy_schemes() {
        let a = parse(&["coding", "--scheme", "rep3"]).unwrap();
        assert_eq!(a.scheme, Some(RedundancyScheme::Replicated { r: 3 }));
        let a = parse(&["coding", "--scheme", "rs", "--k", "2", "--m", "1"]).unwrap();
        assert_eq!(a.scheme, Some(RedundancyScheme::Coded { k: 2, m: 1 }));
        // No flags: the full sweep.
        assert_eq!(parse(&["coding"]).unwrap().scheme, None);
    }

    #[test]
    fn degenerate_scheme_parameters_get_actionable_errors() {
        let e = parse(&["coding", "--scheme", "rs", "--k", "2", "--m", "0"]).unwrap_err();
        assert!(e.contains("no redundancy") && e.contains("m >= 1"), "{e}");
        let e = parse(&["coding", "--scheme", "rs", "--k", "0", "--m", "1"]).unwrap_err();
        assert!(
            e.contains("no data fragments") && e.contains("k >= 1"),
            "{e}"
        );
        let e = parse(&["coding", "--scheme", "rs", "--k", "6", "--m", "3"]).unwrap_err();
        assert!(e.contains("k+m = 9") && e.contains("8"), "{e}");
        let e = parse(&["coding", "--scheme", "rep0"]).unwrap_err();
        assert!(e.contains("zero copies"), "{e}");
        let e = parse(&["coding", "--scheme", "rep9"]).unwrap_err();
        assert!(e.contains("distinct servers"), "{e}");
        let e = parse(&["coding", "--scheme", "raid6"]).unwrap_err();
        assert!(e.contains("raid6") && e.contains("repR"), "{e}");
        let e = parse(&["coding", "--k", "two", "--scheme", "rs", "--m", "1"]).unwrap_err();
        assert!(e.contains("--k") && e.contains("two"), "{e}");
    }

    #[test]
    fn scheme_flags_demand_consistent_usage() {
        // --scheme is a coding-only knob.
        let e = parse(&["fig4", "--scheme", "rep2"]).unwrap_err();
        assert!(e.contains("coding") && e.contains("fig4"), "{e}");
        // --k/--m without --scheme rs are orphans.
        let e = parse(&["coding", "--k", "2"]).unwrap_err();
        assert!(e.contains("--scheme rs"), "{e}");
        let e = parse(&["coding", "--scheme", "rep2", "--m", "1"]).unwrap_err();
        assert!(e.contains("replica count"), "{e}");
        // rs without both fragment counts is underspecified.
        let e = parse(&["coding", "--scheme", "rs", "--k", "2"]).unwrap_err();
        assert!(e.contains("--m"), "{e}");
    }

    #[test]
    fn unknown_flags_and_extra_positionals_rejected() {
        let e = parse(&["--shard", "4"]).unwrap_err();
        assert!(e.contains("--shard"), "{e}");
        let e = parse(&["fig4", "fig5"]).unwrap_err();
        assert!(e.contains("fig5"), "{e}");
    }
}
