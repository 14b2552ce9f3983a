//! Simulated-annealing substrate cost: a small end-to-end run on the
//! delta-evaluated engine. Per-step throughput at larger catalogs lives
//! in `sa_hotpath.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vod_anneal::{anneal, AnnealParams, CoolingSchedule, ScalableProblem};
use vod_model::{BitRate, ClusterSpec, ObjectiveWeights, Popularity, ServerSpec};

fn problem(m: usize) -> ScalableProblem {
    let duration_s = 90 * 60;
    ScalableProblem::new(
        Popularity::zipf(m, 0.8).unwrap(),
        ClusterSpec::homogeneous(
            8,
            ServerSpec {
                storage_bytes: (m as u64 / 2) * BitRate::STUDIO.storage_bytes(duration_s),
                bandwidth_kbps: 1_800_000,
            },
        )
        .unwrap(),
        duration_s,
        BitRate::LADDER.to_vec(),
        2_000.0,
        ObjectiveWeights::default(),
    )
    .unwrap()
}

fn bench_anneal(c: &mut Criterion) {
    let mut group = c.benchmark_group("anneal");
    group.sample_size(10);
    group.bench_function("anneal_m50_2k_steps", |b| {
        let p = problem(50);
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(12);
            black_box(anneal(
                &p,
                p.initial_search(),
                &AnnealParams {
                    schedule: CoolingSchedule::default_geometric(0.5),
                    epochs: 20,
                    steps_per_epoch: 100,
                },
                &mut rng,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_anneal);
criterion_main!(benches);
