//! Macro benchmark: a full A-1-scale peak-period replay, reported in
//! *events per second* (arrivals + departures + transitions + samples +
//! retries + abandonments — the same event count the perf-smoke gate and
//! the `sim.events` telemetry counter use).
//!
//! Three flavors of the same 200-video, Zipf(1.0), Adams/SLF world:
//!
//! * `steady`   — the paper's failure-free default at capacity load;
//! * `overload` — 10× arrival rate, so the run is dominated by
//!   dispatch-and-reject scans and departure-queue churn;
//! * `chaos`    — stochastic crashes + brownouts with stream failover and
//!   mid-run repair, the path that hammers `extract_active`.
//!
//! Plus the sharded-engine group: the pods world perf-smoke also
//! measures (`vod_experiments::perf::pods_world`, 256 servers in 32
//! independent pods) replayed at `shards = 1` (serial) vs `shards = 8`
//! (decoupled parallel). The two runs produce byte-identical reports —
//! asserted before measuring — so the throughput delta is pure engine
//! overhead vs parallel speedup.
//!
//! Plus the scale group: the A-9 world shape (512 servers, 20,000
//! videos, diurnal + premiere + churn arrivals) replayed through the
//! streaming arrival pipeline vs a pre-materialized trace of the
//! identical request sequence. The two reports are equal — asserted
//! before measuring — so the delta isolates what lazy pull costs (or
//! saves) against iterate-a-Vec at production catalog sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vod_core::prelude::*;
use vod_experiments::runner::{build_plan, Combo};
use vod_experiments::PaperSetup;
use vod_sim::{BrownoutModel, FailoverPolicy, FailureModel, RepairConfig};
use vod_workload::Trace;

fn trace(planner: &ClusterPlanner, lambda: f64, seed: u64) -> Trace {
    let generator = TraceGenerator::new(lambda, planner.popularity(), 90.0).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generator.generate(&mut rng)
}

fn chaos_config() -> SimConfig {
    let mut model = FailureModel::exponential(25.0, 8.0, 0xA1_5EED);
    model.brownouts = Some(BrownoutModel {
        mtbf_min: 40.0,
        mttr_min: 6.0,
        min_capacity_frac: 0.4,
        max_capacity_frac: 0.8,
    });
    SimConfig {
        failure_model: Some(model),
        failover: FailoverPolicy::ResumeOrDegrade,
        repair: RepairConfig {
            bandwidth_kbps: 8_000,
            max_concurrent: 4,
        },
        ..SimConfig::default()
    }
}

/// Counts one run's events on a throwaway telemetry handle so the
/// benchmark can report elements (= events) per second.
fn count_events(sim: &Simulation, trace: &Trace) -> u64 {
    let telemetry = vod_telemetry::Telemetry::enabled();
    sim.run_with_telemetry(trace, &telemetry).unwrap();
    telemetry.snapshot().counter("sim.events")
}

fn bench_a1_macro(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_macro");
    group.sample_size(15);
    let point = build_plan(&PaperSetup::default(), Combo::ADAMS_SLF, 1.0, 1.2).unwrap();
    let (planner, plan) = (point.planner(), &point.plan);
    let cases = [
        ("steady", 40.0, SimConfig::default()),
        ("overload", 400.0, SimConfig::default()),
        ("chaos", 40.0, chaos_config()),
    ];
    for (name, lambda, config) in cases {
        let trace = trace(planner, lambda, 9);
        let sim =
            Simulation::new(planner.catalog(), planner.cluster(), &plan.layout, config).unwrap();
        group.throughput(Throughput::Elements(count_events(&sim, &trace)));
        group.bench_with_input(BenchmarkId::new("replay", name), &lambda, |b, _| {
            b.iter(|| black_box(sim.run(black_box(&trace)).unwrap()))
        });
    }
    group.finish();
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_macro_sharded");
    group.sample_size(10);
    let (catalog, cluster, layout, trace) = vod_experiments::perf::pods_world().unwrap();
    let sim_for = |shards| {
        Simulation::new(
            &catalog,
            &cluster,
            &layout,
            SimConfig {
                shards,
                ..SimConfig::default()
            },
        )
        .unwrap()
    };
    // Determinism gate: the numbers below are only comparable because
    // the sharded replay is byte-identical to the serial one.
    assert_eq!(
        sim_for(1).run(&trace).unwrap(),
        sim_for(8).run(&trace).unwrap()
    );
    for shards in [1usize, 8] {
        let sim = sim_for(shards);
        group.throughput(Throughput::Elements(count_events(&sim, &trace)));
        group.bench_with_input(
            BenchmarkId::new("pods", format!("shards={shards}")),
            &shards,
            |b, _| b.iter(|| black_box(sim.run(black_box(&trace)).unwrap())),
        );
    }
    group.finish();
}

/// The A-9 production world shape, horizon-trimmed so one engine pass
/// fits a bench iteration (the full 48-hour run is the `experiments
/// scale` command's job; throughput per event is what matters here).
fn bench_scale(c: &mut Criterion) {
    use vod_experiments::scale::ScaleWorld;

    let mut group = c.benchmark_group("a1_macro_scale");
    group.sample_size(10);
    let mut world = ScaleWorld::production(1);
    world.setup.horizon_min = 360.0;
    world.diurnal.period_min = 360.0;
    world.pulses = vec![vod_workload::RatePulse {
        start_min: 120.0,
        duration_min: 45.0,
        multiplier: 1.5,
    }];
    let point = build_plan(&world.setup, Combo::ZIPF_SLF, world.theta, world.degree).unwrap();
    let workload = world.workload().unwrap();
    let sim = Simulation::new(
        point.planner().catalog(),
        point.planner().cluster(),
        &point.plan.layout,
        SimConfig {
            horizon_min: world.setup.horizon_min,
            ..SimConfig::default()
        },
    )
    .unwrap();
    let seed = 0x5CA1E;
    let stream = || workload.stream(ChaCha8Rng::seed_from_u64(seed)).unwrap();
    let trace = workload
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
        .unwrap();
    // Equivalence gate: the streaming pull and the materialized replay
    // must report identically, or the A/B below compares nothing.
    assert_eq!(
        sim.run_streaming(stream()).unwrap(),
        sim.run(&trace).unwrap()
    );
    let telemetry = vod_telemetry::Telemetry::enabled();
    sim.run_with_telemetry(&trace, &telemetry).unwrap();
    let events = telemetry.snapshot().counter("sim.events");
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::new("arrivals", "streaming"), |b| {
        b.iter(|| black_box(sim.run_streaming(black_box(stream())).unwrap()))
    });
    group.bench_function(BenchmarkId::new("arrivals", "materialized"), |b| {
        b.iter(|| black_box(sim.run(black_box(&trace)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_a1_macro, bench_sharded, bench_scale);
criterion_main!(benches);
