//! The paper's ordinal evaluation claims (Sec. 5), verified end-to-end on
//! a reduced-size setup so the suite stays fast. The full-size runs live
//! in the `experiments` binary; EXPERIMENTS.md records their outputs.

use vod_experiments::runner::{build_plan, run_point, Combo};
use vod_experiments::{PaperSetup, PointStats};
use vod_sim::AdmissionPolicy;
use vod_telemetry::Telemetry;

fn setup() -> PaperSetup {
    PaperSetup {
        n_videos: 64,
        runs: 6,
        ..PaperSetup::default()
    }
}

fn point(
    setup: &PaperSetup,
    combo: Combo,
    theta: f64,
    degree: f64,
    lambda: f64,
    seed: u64,
) -> PointStats {
    let point = build_plan(setup, combo, theta, degree).expect("plan");
    let policy = AdmissionPolicy::StaticRoundRobin;
    run_point(setup, &point, lambda, policy, seed, &Telemetry::disabled()).expect("runs")
}

fn rejection(setup: &PaperSetup, combo: Combo, theta: f64, degree: f64, lambda: f64) -> f64 {
    point(setup, combo, theta, degree, lambda, 0xC1A1).rejection_rate
}

fn imbalance(setup: &PaperSetup, combo: Combo, theta: f64, degree: f64, lambda: f64) -> f64 {
    point(setup, combo, theta, degree, lambda, 0xC1A2).imbalance_cv_pct
}

/// Claim 1 (Fig. 4): "the rejection rate … decreases with the increase of
/// the replication degree", with the largest drop from non-replication to
/// the lowest replicated degree — for the baseline combo, where
/// granularity is the bottleneck.
#[test]
fn rejection_improves_with_replication_degree() {
    let s = setup();
    let lambda = s.capacity_lambda_per_min(); // rush hour
    let r10 = rejection(&s, Combo::CLASS_RR, 1.0, 1.0, lambda);
    let r14 = rejection(&s, Combo::CLASS_RR, 1.0, 1.4, lambda);
    let r20 = rejection(&s, Combo::CLASS_RR, 1.0, 2.0, lambda);
    assert!(
        r14 <= r10 + 0.01,
        "degree 1.4 ({r14}) should not reject more than 1.0 ({r10})"
    );
    assert!(
        r20 <= r10 + 0.01,
        "degree 2.0 ({r20}) should not reject more than 1.0 ({r10})"
    );
    assert!(
        r10 > 0.02,
        "baseline must actually reject at capacity: {r10}"
    );
}

/// Claim 2 (Fig. 5): zipf+slf ≤ class+rr in rejection rate at every
/// moderate degree; "the difference between algorithm combinations
/// decreases with the increase of replication degrees".
#[test]
fn zipf_slf_dominates_class_rr() {
    let s = setup();
    let lambda = s.capacity_lambda_per_min();
    let mut gaps = Vec::new();
    for degree in [1.2, 1.8] {
        let good = rejection(&s, Combo::ZIPF_SLF, 1.0, degree, lambda);
        let base = rejection(&s, Combo::CLASS_RR, 1.0, degree, lambda);
        assert!(
            good <= base + 0.01,
            "degree {degree}: zipf+slf {good} > class+rr {base}"
        );
        gaps.push(base - good);
    }
    assert!(
        gaps[1] <= gaps[0] + 0.02,
        "gap should shrink with degree: {gaps:?}"
    );
}

/// Claim 3 (Fig. 5): "the Zipf replication with the round-robin placement
/// and the Zipf replication with the smallest load first placement have
/// nominal differences" — fine-grained replication already enables
/// balance.
#[test]
fn zipf_rr_close_to_zipf_slf() {
    let s = setup();
    let lambda = s.capacity_lambda_per_min();
    let slf = rejection(&s, Combo::ZIPF_SLF, 1.0, 1.4, lambda);
    let rr = rejection(&s, Combo::ZIPF_RR, 1.0, 1.4, lambda);
    assert!(
        (slf - rr).abs() < 0.05,
        "zipf+slf {slf} vs zipf+rr {rr} should be close"
    );
}

/// Claim 4 (Sec. 5.1): "the impact of replication degree decreases as
/// parameter θ decreases" — at low skew even the baseline barely benefits
/// from extra replicas.
#[test]
fn replication_matters_less_at_low_skew() {
    let s = setup();
    let lambda = s.capacity_lambda_per_min();
    let gap_high_skew = rejection(&s, Combo::CLASS_RR, 1.0, 1.0, lambda)
        - rejection(&s, Combo::CLASS_RR, 1.0, 2.0, lambda);
    let gap_low_skew = rejection(&s, Combo::CLASS_RR, 0.271, 1.0, lambda)
        - rejection(&s, Combo::CLASS_RR, 0.271, 2.0, lambda);
    assert!(
        gap_low_skew <= gap_high_skew + 0.01,
        "low-skew gap {gap_low_skew} should not exceed high-skew gap {gap_high_skew}"
    );
}

/// Claim 5 (Fig. 6): the load-imbalance degree rises under light load,
/// peaks below the saturation rate, and collapses once the whole cluster
/// saturates ("when the arrival rate exceeds the throughput capacity
/// about 10%, the performance curves … almost merged because all servers
/// were overloaded").
#[test]
fn imbalance_peaks_before_saturation_for_baseline() {
    let s = setup();
    let light = imbalance(&s, Combo::CLASS_RR, 1.0, 1.2, 8.0);
    let near = imbalance(&s, Combo::CLASS_RR, 1.0, 1.2, 32.0);
    let overloaded = imbalance(&s, Combo::CLASS_RR, 1.0, 1.2, 60.0);
    assert!(
        near > overloaded,
        "L near capacity ({near}) should exceed deep overload ({overloaded})"
    );
    // Light-load L is sample-noise dominated; just require it finite/low.
    assert!(light >= 0.0);
}

/// Claim 6 (Fig. 6): the weight-aware combos keep L lower (more stable)
/// than the baseline around the rush-hour regime.
#[test]
fn zipf_slf_balances_better_than_class_rr() {
    let s = setup();
    let lambda = 32.0;
    let good = imbalance(&s, Combo::ZIPF_SLF, 1.0, 1.2, lambda);
    let base = imbalance(&s, Combo::CLASS_RR, 1.0, 1.2, lambda);
    assert!(
        good <= base + 1.0,
        "zipf+slf L {good}% should not exceed class+rr {base}%"
    );
}
