//! SA hot path: the delta-evaluated move engine on both annealing
//! problems.
//!
//! Each benchmark runs a fixed budget of Metropolis steps through
//! `anneal` over `*Search` states with cached per-server aggregates
//! (O(touched) per step) and reports element throughput = steps/sec.
//! The `perf-smoke` CI gate pins a floor for this path
//! (`sa_steps_per_sec` in `bench/baseline.json`); these benches are the
//! diagnostic view behind that number.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vod_anneal::{anneal, AnnealParams, MultiRateProblem, ScalableProblem};
use vod_experiments::sa;
use vod_model::{BitRate, ClusterSpec, ObjectiveWeights, Popularity, ServerSpec};

const DURATION_S: u64 = 90 * 60;

/// The paper's cluster shape: N = 8 homogeneous servers with storage for
/// a ~1.4 replication degree and ~1.8 Gbps links.
fn cluster(m: usize) -> ClusterSpec {
    let slot = BitRate::STUDIO.storage_bytes(DURATION_S);
    ClusterSpec::homogeneous(
        8,
        ServerSpec {
            storage_bytes: ((1.4 * m as f64 / 8.0).ceil() as u64) * slot,
            bandwidth_kbps: 1_800_000,
        },
    )
    .unwrap()
}

fn scalable(m: usize) -> ScalableProblem {
    ScalableProblem::new(
        Popularity::zipf(m, 1.0).unwrap(),
        cluster(m),
        DURATION_S,
        BitRate::LADDER.to_vec(),
        // ~60% of an 8-link cluster's 4 Mbps stream capacity, like SA-1.
        0.6 * 8.0 * 1_800_000.0 / 4_000.0,
        ObjectiveWeights::default(),
    )
    .unwrap()
}

fn multirate(m: usize) -> MultiRateProblem {
    MultiRateProblem::new(
        Popularity::zipf(m, 1.0).unwrap(),
        cluster(m),
        DURATION_S,
        BitRate::LADDER.to_vec(),
        0.6 * 8.0 * 1_800_000.0 / 4_000.0,
        ObjectiveWeights::default(),
        false,
    )
    .unwrap()
}

/// Annealing knobs sized to `steps` total Metropolis steps, on SA-1's
/// 1/M-scaled cooling schedule.
fn params(m: usize, steps: u32) -> AnnealParams {
    AnnealParams {
        schedule: sa::schedule(m),
        epochs: 12,
        steps_per_epoch: steps / 12,
    }
}

fn bench_sa_hotpath(c: &mut Criterion) {
    // (label, catalog size, steps per iteration)
    let scales: &[(&str, usize, u32)] = &[("m200", 200, 24_000), ("m1000", 1_000, 24_000)];

    let mut group = c.benchmark_group("sa_hotpath");
    group.sample_size(10);

    for &(label, m, steps) in scales {
        group.throughput(Throughput::Elements(u64::from(steps)));
        let p = scalable(m);
        group.bench_function(format!("scalable_{label}_delta"), |b| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(0xBE);
                black_box(anneal(&p, p.initial_search(), &params(m, steps), &mut rng))
            })
        });

        let q = multirate(m);
        group.bench_function(format!("multirate_{label}_delta"), |b| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(0xBF);
                black_box(anneal(&q, q.initial_search(), &params(m, steps), &mut rng))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sa_hotpath);
criterion_main!(benches);
