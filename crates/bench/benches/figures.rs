//! One bench per paper figure/table: reduced single-run versions of every
//! experiment, so `cargo bench` exercises each regenerator's full code
//! path and tracks its cost. The full-scale runs (20 averaged runs, full
//! λ sweep) live in the `experiments` binary; their outputs are recorded
//! in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vod_experiments::runner::{build_plan, run_point, Combo};
use vod_experiments::{bound, quality, sa, PaperSetup};
use vod_sim::AdmissionPolicy;
use vod_telemetry::Telemetry;

const RR: AdmissionPolicy = AdmissionPolicy::StaticRoundRobin;

fn reduced_setup() -> PaperSetup {
    PaperSetup {
        n_videos: 64,
        runs: 1,
        ..PaperSetup::default()
    }
}

/// Figure 4: one (degree, λ) cell per curve family, both subplot combos.
fn bench_fig4(c: &mut Criterion) {
    let setup = reduced_setup();
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for (name, combo) in [("zipf_slf", Combo::ZIPF_SLF), ("class_rr", Combo::CLASS_RR)] {
        let point = build_plan(&setup, combo, 1.0, 1.4).unwrap();
        group.bench_with_input(BenchmarkId::new(name, "deg1.4_l40"), &combo, |b, _| {
            b.iter(|| {
                black_box(run_point(&setup, &point, 40.0, RR, 1, &Telemetry::disabled()).unwrap())
            })
        });
    }
    group.finish();
}

/// Figure 5: one cell per algorithm combination.
fn bench_fig5(c: &mut Criterion) {
    let setup = reduced_setup();
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    for combo in Combo::FIGURE_5 {
        let point = build_plan(&setup, combo, 1.0, 1.2).unwrap();
        group.bench_with_input(
            BenchmarkId::new(combo.label(), "deg1.2_l40"),
            &combo,
            |b, _| {
                b.iter(|| {
                    black_box(
                        run_point(&setup, &point, 40.0, RR, 2, &Telemetry::disabled()).unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Figure 6: the imbalance measurement path (same engine, L-focused cell
/// at the pre-saturation peak).
fn bench_fig6(c: &mut Criterion) {
    let setup = reduced_setup();
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    let point = build_plan(&setup, Combo::CLASS_RR, 1.0, 1.2).unwrap();
    group.bench_function("class_rr_deg1.2_l32", |b| {
        b.iter(|| {
            black_box(run_point(&setup, &point, 32.0, RR, 3, &Telemetry::disabled()).unwrap())
        })
    });
    group.finish();
}

/// Figures 1–3 are deterministic algorithm illustrations; their code
/// paths are the traced algorithm variants.
fn bench_fig123(c: &mut Criterion) {
    use vod_model::{Popularity, ReplicationScheme};
    use vod_placement::slf::SmallestLoadFirstPlacement;
    use vod_placement::traits::PlacementInput;
    use vod_replication::adams::BoundedAdamsReplication;
    use vod_replication::zipf_interval::ZipfIntervalReplication;

    let mut group = c.benchmark_group("fig123_illustrations");
    let pop5 = Popularity::from_weights(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
    group.bench_function("fig1_adams_trace", |b| {
        b.iter(|| {
            black_box(
                BoundedAdamsReplication
                    .replicate_traced(&pop5, 3, 9)
                    .unwrap(),
            )
        })
    });
    let pop7 = Popularity::zipf(7, 0.75).unwrap();
    group.bench_function("fig2_interval_search", |b| {
        b.iter(|| {
            black_box(
                ZipfIntervalReplication::default()
                    .search(&pop7, 4, 13)
                    .unwrap(),
            )
        })
    });
    let pop8 = Popularity::from_weights(&[8.0, 6.0, 4.0, 3.0, 2.0, 1.5, 1.0, 0.5]).unwrap();
    let scheme = ReplicationScheme::new(vec![3, 2, 2, 1, 1, 1, 1, 1]).unwrap();
    let weights = scheme.weights(&pop8, 100.0).unwrap();
    let caps = vec![4u64; 4];
    group.bench_function("fig3_slf_trace", |b| {
        b.iter(|| {
            black_box(
                SmallestLoadFirstPlacement
                    .place_traced(&PlacementInput {
                        scheme: &scheme,
                        weights: &weights,
                        n_servers: 4,
                        capacities: &caps,
                    })
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// C-1 (quality table), C-2 (bound table) and SA-1, reduced.
fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.sample_size(10);
    group.bench_function("quality_c1_m500", |b| {
        b.iter(|| black_box(quality::compare(&[500], 0.75, 8, 1.4)))
    });
    let setup = PaperSetup {
        n_videos: 48,
        runs: 1,
        ..PaperSetup::default()
    };
    group.bench_function("bound_c2", |b| {
        b.iter(|| black_box(bound::compute(&setup).unwrap()))
    });
    group.sample_size(10);
    let sa_setup = PaperSetup {
        n_videos: 24,
        runs: 1,
        ..PaperSetup::default()
    };
    group.bench_function("sa1_reduced", |b| {
        b.iter(|| black_box(sa::evaluate(&sa_setup, 0.75, &Telemetry::disabled()).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_fig123,
    bench_tables
);
criterion_main!(benches);
