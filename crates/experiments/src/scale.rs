//! A-9 — the production-scale streaming world against fundamental
//! capacity bounds.
//!
//! Every other experiment replays the paper's 8-server / 200-video /
//! 90-minute peak period. This one exercises the streaming arrival
//! pipeline at the scale it was built for: a 512-server cluster, a
//! 20,000-title catalog, and a 48-hour diurnal trace (~4.4M requests)
//! pulled lazily from a [`ThinnedWorkload`] — no materialized trace, no
//! per-request heap allocation, engine state bounded by the concurrency
//! peak.
//!
//! The measured run is compared against the fundamental limits of a
//! replicated VoD cluster in the style of arXiv:0804.0743 (capacity
//! bounds for distributed video-on-demand): the **bandwidth bound**
//! (concurrent streams can never exceed `N·u`, the cluster's aggregate
//! link capacity in streams), the **storage bound** (a catalog of `M`
//! titles needs at least `M` replica slots cluster-wide), and the
//! offered-load curve `a(t) = ∫_{t−T}^{t} λ(s) ds` (M/G/∞ expected
//! concurrency), whose excursions above capacity predict where
//! admission must reject. Alongside the bound curves the experiment
//! reports the engineering telemetry this PR is about: wall-clock,
//! events/sec, peak RSS (`VmHWM`), and bytes per active stream — the
//! last asserted against [`BYTES_PER_STREAM_CEILING`].

use crate::config::PaperSetup;
use crate::report::{f3, Reporter, Table};
use crate::runner::{build_plan, Combo};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;
use vod_sim::{SimConfig, Simulation};
use vod_telemetry::Telemetry;
use vod_workload::{CatalogChurn, DiurnalCycle, RateModel, RatePulse, ThinnedWorkload};

/// Documented ceiling on engine memory per active stream, in bytes.
///
/// The departure queue holds one 36-byte packed slot and one 24-byte
/// heap entry per active stream (DESIGN.md §7); Vec growth doubles
/// capacity, and each engine pass's queue keeps a small extraction
/// scratch buffer. 192 bytes = (36 + 24) × 2 growth slack × ~1.6 structural
/// overhead, rounded to a stable power-of-two-ish contract. The CI
/// memory smoke fails any run whose measured bytes/active-stream
/// exceeds this.
pub const BYTES_PER_STREAM_CEILING: f64 = 192.0;

/// Base seed of the A-9 run (also registered in the CLI manifest table).
pub const SCALE_SEED: u64 = 0x5CA1E;

/// One self-contained scale world: cluster shape, plan knobs, and the
/// time-varying arrival shape layered on top.
#[derive(Debug, Clone)]
pub struct ScaleWorld {
    /// Cluster/catalog shape (servers, videos, horizon, shards).
    pub setup: PaperSetup,
    /// Zipf skew of the base popularity.
    pub theta: f64,
    /// Replication degree the plan is sized for.
    pub degree: f64,
    /// Target mean utilization of the cluster's stream capacity in
    /// `(0, 1]`; sets the base arrival rate via Little's law.
    pub utilization: f64,
    /// Diurnal day/night cycle.
    pub diurnal: DiurnalCycle,
    /// Scheduled flash-crowd pulses (premieres).
    pub pulses: Vec<RatePulse>,
    /// Catalog churn rotating the hot set between epochs.
    pub churn: CatalogChurn,
}

impl ScaleWorld {
    /// The full A-9 production world: 512 servers, 20,000 titles,
    /// 48 hours of diurnal load with two prime-time premieres and
    /// twice-daily catalog churn.
    pub fn production(shards: usize) -> Self {
        ScaleWorld {
            setup: PaperSetup {
                n_servers: 512,
                n_videos: 20_000,
                horizon_min: 2_880.0,
                runs: 1,
                shards,
                ..PaperSetup::default()
            },
            theta: 0.9,
            degree: 1.3,
            utilization: 0.6,
            diurnal: DiurnalCycle {
                period_min: 1_440.0,
                amplitude: 0.6,
            },
            pulses: vec![
                RatePulse {
                    start_min: 480.0,
                    duration_min: 120.0,
                    multiplier: 1.5,
                },
                RatePulse {
                    start_min: 1_920.0,
                    duration_min: 120.0,
                    multiplier: 1.5,
                },
            ],
            churn: CatalogChurn {
                period_min: 720.0,
                step: 997,
            },
        }
    }

    /// The CI-sized smoke world (`--fast`): the same shape at 64
    /// servers / 2,000 titles / 6 hours, small enough for every CI run.
    pub fn smoke(shards: usize) -> Self {
        ScaleWorld {
            setup: PaperSetup {
                n_servers: 64,
                n_videos: 2_000,
                horizon_min: 360.0,
                runs: 1,
                shards,
                ..PaperSetup::default()
            },
            diurnal: DiurnalCycle {
                period_min: 360.0,
                amplitude: 0.6,
            },
            pulses: vec![RatePulse {
                start_min: 120.0,
                duration_min: 45.0,
                multiplier: 1.5,
            }],
            churn: CatalogChurn {
                period_min: 90.0,
                step: 97,
            },
            ..Self::production(shards)
        }
    }

    /// A sub-second world for the perf smoke and unit tests: 16
    /// servers / 500 titles / 3 hours.
    pub fn mini(shards: usize) -> Self {
        ScaleWorld {
            setup: PaperSetup {
                n_servers: 16,
                n_videos: 500,
                horizon_min: 180.0,
                runs: 1,
                shards,
                ..PaperSetup::default()
            },
            diurnal: DiurnalCycle {
                period_min: 180.0,
                amplitude: 0.6,
            },
            pulses: vec![RatePulse {
                start_min: 60.0,
                duration_min: 30.0,
                multiplier: 1.5,
            }],
            churn: CatalogChurn {
                period_min: 60.0,
                step: 13,
            },
            ..Self::production(shards)
        }
    }

    /// Aggregate stream capacity `N·u`: the arXiv:0804.0743 bandwidth
    /// bound on concurrent streams.
    pub fn stream_capacity(&self) -> u64 {
        self.setup.streams_per_server() * self.setup.n_servers as u64
    }

    /// Mean video holding time in minutes (the `T` of Little's law).
    pub fn duration_min(&self) -> f64 {
        self.setup.duration_s as f64 / 60.0
    }

    /// The base arrival rate: `utilization × capacity / T`, so the mean
    /// offered concurrency sits at `utilization` of the bandwidth bound
    /// (the diurnal crest then pushes excursions toward it).
    pub fn base_lambda_per_min(&self) -> f64 {
        self.utilization * self.stream_capacity() as f64 / self.duration_min()
    }

    /// The time-varying rate model: base × diurnal × pulses.
    pub fn rate_model(&self) -> Result<RateModel, Box<dyn std::error::Error>> {
        Ok(RateModel::constant(self.base_lambda_per_min())?
            .with_diurnal(self.diurnal)?
            .with_pulses(self.pulses.clone())?)
    }

    /// The full streaming workload (rate model + churned popularity).
    pub fn workload(&self) -> Result<ThinnedWorkload, Box<dyn std::error::Error>> {
        Ok(ThinnedWorkload::new(
            self.rate_model()?,
            self.setup.popularity(self.theta)?,
            self.setup.horizon_min,
        )?
        .with_churn(self.churn)?)
    }

    /// Expected concurrent streams at minute `t` under offered load
    /// `a(t) = ∫_{max(0, t−T)}^{t} λ(s) ds` (M/G/∞, deterministic
    /// holding time `T`): the analytic curve the bandwidth bound clips.
    pub fn offered_streams_at(&self, rate: &RateModel, t: f64) -> f64 {
        let lo = (t - self.duration_min()).max(0.0);
        if t <= lo {
            return 0.0;
        }
        let steps = 256;
        let dt = (t - lo) / steps as f64;
        (0..steps)
            .map(|i| rate.rate_at(lo + (i as f64 + 0.5) * dt))
            .sum::<f64>()
            * dt
    }
}

/// The headline row of one scale run.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRow {
    /// Cluster size `N`.
    pub n_servers: usize,
    /// Catalog size `M`.
    pub n_videos: usize,
    /// Trace horizon in minutes.
    pub horizon_min: f64,
    /// Engine shards.
    pub shards: usize,
    /// Base arrival rate (requests/min) before modulation.
    pub lambda_base_per_min: f64,
    /// Requests pulled from the streaming source.
    pub requests: u64,
    /// Admitted requests.
    pub admitted: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// Rejection rate.
    pub rejection_rate: f64,
    /// Peak concurrent streams observed.
    pub peak_streams: u64,
    /// The bandwidth bound `N·u` in streams.
    pub stream_capacity: u64,
    /// `peak_streams / stream_capacity`.
    pub peak_utilization: f64,
    /// Engine events processed.
    pub events: u64,
    /// Engine wall-clock seconds (plan and generation excluded; the
    /// streaming source is pulled inside the engine loop, so its cost
    /// is inherently included).
    pub wall_secs: f64,
    /// Engine events per second.
    pub events_per_sec: f64,
    /// Process peak RSS in MiB (`VmHWM`; 0 when /proc is unavailable).
    pub peak_rss_mib: f64,
    /// Worst-case measured engine bytes per active stream.
    pub bytes_per_active_stream: f64,
}

/// One window of the offered-load bound curve.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleBoundRow {
    /// Window start, minutes from the epoch.
    pub window_start_min: f64,
    /// Analytic offered concurrency peak within the window (M/G/∞).
    pub offered_streams: f64,
    /// Measured concurrent-stream peak within the window.
    pub measured_peak_streams: f64,
    /// The bandwidth bound `N·u`.
    pub capacity_streams: f64,
    /// Whether the measured peak respects the bound.
    pub within_bound: bool,
}

/// One aggregate bound check.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleCheckRow {
    /// Bound name (`bandwidth`, `storage`, `memory`).
    pub bound: &'static str,
    /// The limit the bound imposes.
    pub limit: f64,
    /// The measured value.
    pub measured: f64,
    /// Whether the measurement respects the limit.
    pub satisfied: bool,
}

/// Everything one scale run produces.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleOutcome {
    /// The headline metrics row.
    pub summary: ScaleRow,
    /// The hourly offered-load bound curve.
    pub curve: Vec<ScaleBoundRow>,
    /// The aggregate bound checks.
    pub checks: Vec<ScaleCheckRow>,
}

/// Process peak RSS in bytes from `/proc/self/status` (`VmHWM`), or
/// `None` off Linux / when procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Runs one scale world end-to-end through the streaming engine and
/// derives the bound comparison. Fails if the measured bytes per active
/// stream exceed [`BYTES_PER_STREAM_CEILING`] — the memory contract the
/// streaming pipeline exists to honor. The run records into a private
/// registry, which yields its event count and memory figure and is then
/// forwarded whole into `telemetry`.
pub fn compute(
    world: &ScaleWorld,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<ScaleOutcome, Box<dyn std::error::Error>> {
    let setup = &world.setup;
    let point = build_plan(setup, Combo::ZIPF_SLF, world.theta, world.degree)?;
    let workload = world.workload()?;
    let rate = world.rate_model()?;

    // Sample densely enough for the hourly curve without letting the
    // series itself dominate memory (~288 samples regardless of scale).
    let config = SimConfig {
        horizon_min: setup.horizon_min,
        sample_interval_min: (setup.horizon_min / 288.0).max(0.25),
        record_series: true,
        shards: setup.shards,
        ..SimConfig::default()
    };
    let sim = Simulation::new(
        point.planner().catalog(),
        point.planner().cluster(),
        &point.plan.layout,
        config,
    )?;

    let local = Telemetry::enabled();
    let started = Instant::now();
    let report = sim
        .run_streaming_with_telemetry(workload.stream(ChaCha8Rng::seed_from_u64(seed))?, &local)?;
    let wall_secs = started.elapsed().as_secs_f64();
    telemetry.absorb(&local);

    let snapshot = local.snapshot();
    let events = snapshot.counter("sim.events");
    let bytes_per_stream = snapshot.histogram("sim.engine.bytes_per_active_stream").max;

    let capacity = world.stream_capacity() as f64;
    let summary = ScaleRow {
        n_servers: setup.n_servers,
        n_videos: setup.n_videos,
        horizon_min: setup.horizon_min,
        shards: setup.shards,
        lambda_base_per_min: world.base_lambda_per_min(),
        requests: report.arrivals,
        admitted: report.admitted,
        rejected: report.rejected,
        rejection_rate: report.rejection_rate,
        peak_streams: report.peak_concurrent_streams,
        stream_capacity: world.stream_capacity(),
        peak_utilization: report.peak_concurrent_streams as f64 / capacity,
        events,
        wall_secs,
        events_per_sec: if wall_secs > 0.0 {
            events as f64 / wall_secs
        } else {
            0.0
        },
        peak_rss_mib: peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0)),
        bytes_per_active_stream: bytes_per_stream,
    };

    // Hourly bound curve: analytic offered load vs measured peak, both
    // maxima within each window of the recorded series.
    let window_min = 60.0_f64.min(setup.horizon_min);
    let n_windows = (setup.horizon_min / window_min).ceil() as usize;
    let mut curve = Vec::with_capacity(n_windows);
    for w in 0..n_windows {
        let start = w as f64 * window_min;
        let end = (start + window_min).min(setup.horizon_min);
        let offered = (0..16)
            .map(|i| {
                world.offered_streams_at(&rate, start + (i as f64 + 0.5) * (end - start) / 16.0)
            })
            .fold(0.0f64, f64::max);
        let measured = report
            .series
            .iter()
            .filter(|s| s.at_min >= start && s.at_min < end)
            .map(|s| s.streams.iter().sum::<f64>())
            .fold(0.0f64, f64::max);
        curve.push(ScaleBoundRow {
            window_start_min: start,
            offered_streams: offered,
            measured_peak_streams: measured,
            capacity_streams: capacity,
            within_bound: measured <= capacity + 1e-9,
        });
    }

    let slots = point
        .planner()
        .cluster()
        .total_replica_slots(setup.bitrate, setup.duration_s);
    let checks = vec![
        ScaleCheckRow {
            bound: "bandwidth",
            limit: capacity,
            measured: report.peak_concurrent_streams as f64,
            satisfied: report.peak_concurrent_streams as f64 <= capacity + 1e-9,
        },
        ScaleCheckRow {
            bound: "storage",
            limit: slots as f64,
            measured: setup.n_videos as f64,
            satisfied: setup.n_videos as u64 <= slots,
        },
        ScaleCheckRow {
            bound: "memory",
            limit: BYTES_PER_STREAM_CEILING,
            measured: bytes_per_stream,
            satisfied: bytes_per_stream <= BYTES_PER_STREAM_CEILING,
        },
    ];

    if bytes_per_stream > BYTES_PER_STREAM_CEILING {
        return Err(format!(
            "scale memory smoke: {bytes_per_stream:.1} bytes per active stream exceeds \
             the documented ceiling of {BYTES_PER_STREAM_CEILING:.0} (DESIGN.md §7)"
        )
        .into());
    }
    if let Some(broken) = curve.iter().find(|r| !r.within_bound) {
        return Err(format!(
            "scale bound violation: window at {} min measured {:.0} concurrent streams, \
             above the N·u bandwidth bound of {:.0}",
            broken.window_start_min, broken.measured_peak_streams, capacity
        )
        .into());
    }
    Ok(ScaleOutcome {
        summary,
        curve,
        checks,
    })
}

/// Regenerates the A-9 tables: the smoke world under `--fast`, the full
/// 512-server production world otherwise.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    // `--fast` swaps in PaperSetup::fast() (fewer videos than the paper
    // default); treat that as the request for the CI-sized world.
    let world = if setup.n_videos < PaperSetup::default().n_videos {
        ScaleWorld::smoke(setup.shards)
    } else {
        ScaleWorld::production(setup.shards)
    };
    let outcome = compute(&world, SCALE_SEED, reporter.telemetry())?;
    let s = &outcome.summary;

    let mut table = Table::new(
        "A-9: streaming scale world (zipf+slf plan, diurnal + premieres + churn)",
        &[
            "N",
            "M",
            "horizon",
            "requests",
            "rejection",
            "peak str",
            "capacity",
            "events/s",
            "RSS MiB",
            "B/stream",
        ],
    );
    table.row(vec![
        s.n_servers.to_string(),
        s.n_videos.to_string(),
        format!("{:.0}", s.horizon_min),
        s.requests.to_string(),
        format!("{:.4}", s.rejection_rate),
        s.peak_streams.to_string(),
        s.stream_capacity.to_string(),
        format!("{:.0}", s.events_per_sec),
        format!("{:.1}", s.peak_rss_mib),
        format!("{:.1}", s.bytes_per_active_stream),
    ]);
    reporter.emit_table("scale", &table)?;
    reporter.emit_json("scale", &std::slice::from_ref(s))?;

    let mut curve = Table::new(
        "A-9: offered-load curve vs the N·u bandwidth bound (hourly peaks)",
        &["window (min)", "offered", "measured", "capacity", "ok"],
    );
    for r in &outcome.curve {
        curve.row(vec![
            format!("{:.0}", r.window_start_min),
            f3(r.offered_streams),
            f3(r.measured_peak_streams),
            f3(r.capacity_streams),
            r.within_bound.to_string(),
        ]);
    }
    reporter.emit_table("scale_bounds", &curve)?;
    reporter.emit_json("scale_bounds", &outcome.curve)?;

    let mut checks = Table::new(
        "A-9: aggregate bound checks (arXiv:0804.0743 style)",
        &["bound", "limit", "measured", "satisfied"],
    );
    for c in &outcome.checks {
        checks.row(vec![
            c.bound.to_string(),
            f3(c.limit),
            f3(c.measured),
            c.satisfied.to_string(),
        ]);
    }
    reporter.emit_table("scale_checks", &checks)?;
    reporter.emit_json("scale_checks", &outcome.checks)?;

    // The line the CI memory smoke greps; keep the key=value format
    // stable.
    println!(
        "SCALE n_servers={} n_videos={} horizon_min={:.0} shards={} requests={} \
         events={} events_per_sec={:.0} peak_streams={} stream_capacity={} \
         rejection_rate={:.4} peak_rss_mib={:.1} bytes_per_active_stream={:.1} \
         bytes_ceiling={:.0} bounds_ok={}",
        s.n_servers,
        s.n_videos,
        s.horizon_min,
        s.shards,
        s.requests,
        s.events,
        s.events_per_sec,
        s.peak_streams,
        s.stream_capacity,
        s.rejection_rate,
        s.peak_rss_mib,
        s.bytes_per_active_stream,
        BYTES_PER_STREAM_CEILING,
        outcome.checks.iter().all(|c| c.satisfied),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_world_sizing() {
        let w = ScaleWorld::production(1);
        assert_eq!(w.stream_capacity(), 512 * 450);
        assert!((w.base_lambda_per_min() - 0.6 * 230_400.0 / 90.0).abs() < 1e-9);
        // The diurnal crest must stay under the bandwidth bound so the
        // steady-state world is admissible (pulses may pierce it — that
        // is what the rejection accounting is for).
        let crest = w.base_lambda_per_min() * (1.0 + w.diurnal.amplitude) * w.duration_min();
        assert!(crest < w.stream_capacity() as f64);
        assert!(w.workload().is_ok());
    }

    #[test]
    fn mini_world_respects_every_bound() {
        let telemetry = Telemetry::enabled();
        let outcome = compute(&ScaleWorld::mini(1), 7, &telemetry).unwrap();
        let s = &outcome.summary;
        assert!(s.requests > 1_000, "requests {}", s.requests);
        assert_eq!(s.admitted + s.rejected, s.requests);
        assert!(s.events > s.requests);
        // The run's engine instruments reach the caller's handle.
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("sim.events"), s.events);
        assert_eq!(snap.counter("sim.arrivals"), s.requests);
        assert_eq!(snap.counter("sim.rejected"), s.rejected);
        assert_eq!(
            snap.histogram("sim.engine.bytes_per_active_stream").max,
            s.bytes_per_active_stream
        );
        assert_eq!(snap.timers, ["sim.run"]);
        assert!(s.bytes_per_active_stream <= BYTES_PER_STREAM_CEILING);
        assert!(outcome.checks.iter().all(|c| c.satisfied));
        assert_eq!(outcome.curve.len(), 3);
        for r in &outcome.curve {
            assert!(r.within_bound);
            assert!(r.offered_streams <= r.capacity_streams * 1.5);
        }
    }

    #[test]
    fn mini_world_is_shard_invariant() {
        let off = Telemetry::disabled();
        let a = compute(&ScaleWorld::mini(1), 7, &off).unwrap();
        let b = compute(&ScaleWorld::mini(8), 7, &off).unwrap();
        assert_eq!(a.summary.requests, b.summary.requests);
        assert_eq!(a.summary.admitted, b.summary.admitted);
        assert_eq!(a.summary.rejected, b.summary.rejected);
        assert_eq!(a.summary.peak_streams, b.summary.peak_streams);
    }

    #[test]
    fn offered_load_tracks_the_rate_model() {
        let w = ScaleWorld::mini(1);
        let rate = w.rate_model().unwrap();
        // Before one holding time has elapsed the integral is partial.
        let early = w.offered_streams_at(&rate, 1.0);
        assert!(early > 0.0 && early < w.base_lambda_per_min() * 2.0);
        // In steady state, offered ≈ λ̄·T around the utilization target.
        let mid = w.offered_streams_at(&rate, w.duration_min() * 1.5);
        let expected = w.utilization * w.stream_capacity() as f64;
        assert!(
            (mid / expected - 1.0).abs() < 0.8,
            "mid {mid} expected {expected}"
        );
    }
}
