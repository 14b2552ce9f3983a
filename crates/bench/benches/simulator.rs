//! Discrete-event engine throughput: requests simulated per second at the
//! paper's scale and at 10× overload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vod_core::prelude::*;
use vod_experiments::runner::{build_plan, Combo};
use vod_experiments::PaperSetup;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(15);
    // The paper's cluster and catalog, Adams + SLF at degree 1.2.
    let point = build_plan(&PaperSetup::default(), Combo::ADAMS_SLF, 1.0, 1.2).unwrap();
    let (planner, plan) = (point.planner(), &point.plan);
    for lambda in [40.0f64, 400.0] {
        let generator = TraceGenerator::new(lambda, planner.popularity(), 90.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let trace = generator.generate(&mut rng);
        let sim = Simulation::new(
            planner.catalog(),
            planner.cluster(),
            &plan.layout,
            SimConfig::default(),
        )
        .unwrap();
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("replay", format!("lambda{lambda}")),
            &lambda,
            |b, _| b.iter(|| black_box(sim.run(black_box(&trace)).unwrap())),
        );
        // Same replay with live instruments: the gap to `replay` above is
        // the full recording cost; `replay` itself runs the no-op
        // recorder path, so it doubles as the zero-overhead check.
        let telemetry = vod_telemetry::Telemetry::enabled();
        group.bench_with_input(
            BenchmarkId::new("replay_telemetry", format!("lambda{lambda}")),
            &lambda,
            |b, _| {
                b.iter(|| {
                    black_box(
                        sim.run_with_telemetry(black_box(&trace), &telemetry)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
