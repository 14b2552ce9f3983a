//! Erlang-loss oracle: simulated blocking against Erlang's formula.
//!
//! Every other simulator check compares the engine with itself. Under
//! Block admission, one bit rate and no faults the paper's cluster is a
//! loss network whose blocking has a closed form (the loss-network view
//! of VoD placement, arXiv:1004.4709), so these tests hold the engine to
//! a model derived without it. DESIGN.md §6 derives the tolerance.
//!
//! World: 8 servers × 10 streams (4 Mbps titles on 40 Mbps links), 200
//! Zipf(0.75) titles of 5 minutes each, a 1,000-minute horizon, 40
//! fixed trace seeds.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, Popularity, ServerId, ServerSpec};
use vod_sim::{AdmissionPolicy, SimConfig, SimReport, Simulation};
use vod_workload::TraceGenerator;

const SERVERS: usize = 8;
/// Streams per link: 40 Mbps / 4 Mbps.
const SLOTS: usize = 10;
const TITLES: usize = 200;
const THETA: f64 = 0.75;
const HOLD_MIN: f64 = 5.0;
const HORIZON_MIN: f64 = 1_000.0;
const SEEDS: u64 = 40;

/// Erlang's loss formula `E_B(c, a)` by the stable recursion
/// `B(n) = a·B(n−1) / (n + a·B(n−1))`, `B(0) = 1`.
fn erlang_b(c: usize, a: f64) -> f64 {
    (1..=c).fold(1.0, |b, n| a * b / (n as f64 + a * b))
}

/// Runs every seed's trace at `offered` Erlangs (λ·T) over `layout`.
fn runs(layout: &Layout, policy: AdmissionPolicy, offered: f64) -> Vec<SimReport> {
    let catalog = Catalog::fixed_rate(TITLES, BitRate::MPEG2, (HOLD_MIN * 60.0) as u64).unwrap();
    let cluster = ClusterSpec::homogeneous(
        SERVERS,
        ServerSpec {
            storage_bytes: 1 << 40,
            bandwidth_kbps: SLOTS as u64 * 4_000,
        },
    )
    .unwrap();
    let config = SimConfig {
        policy,
        horizon_min: HORIZON_MIN,
        ..SimConfig::default()
    };
    let sim = Simulation::new(&catalog, &cluster, layout, config).unwrap();
    let pop = Popularity::zipf(TITLES, THETA).unwrap();
    let generator = TraceGenerator::new(offered / HOLD_MIN, &pop, HORIZON_MIN).unwrap();
    (1..=SEEDS)
        .map(|seed| {
            let trace = generator.generate(&mut ChaCha8Rng::seed_from_u64(seed));
            let report = sim.run(&trace).unwrap();
            assert!(report.is_conservative());
            report
        })
        .collect()
}

/// Checks the across-seed mean of `blocking` against `expected` within
/// 4 standard errors plus the empty-start bias bound `expected · T / H`
/// (DESIGN.md §6).
fn assert_erlang(what: &str, blocking: &[f64], expected: f64) {
    let n = blocking.len() as f64;
    let mean = blocking.iter().sum::<f64>() / n;
    let var = blocking.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    let bias = expected * HOLD_MIN / HORIZON_MIN;
    let z = (mean - expected) / se;
    assert!(
        (mean - expected).abs() <= 4.0 * se + bias,
        "{what}: simulated {mean:.5} vs Erlang {expected:.5} (se {se:.5}, z {z:.2})"
    );
}

/// One replica per title, title `i` on server `i mod 8`, static
/// round-robin at 90 % offered load: server `j` is an M/G/10/10 loss
/// system fed the Poisson split of its titles' Zipf shares, so its
/// blocking is `E_B(10, λT·Σ_{i on j} p_i)`.
#[test]
fn single_replica_servers_block_like_erlang_loss_systems() {
    let layout = Layout::new(
        SERVERS,
        (0..TITLES)
            .map(|i| vec![ServerId((i % SERVERS) as u32)])
            .collect(),
    )
    .unwrap();
    let offered = 0.9 * (SERVERS * SLOTS) as f64;
    let reports = runs(&layout, AdmissionPolicy::StaticRoundRobin, offered);
    let p = Popularity::zipf(TITLES, THETA).unwrap();
    for j in 0..SERVERS {
        let on_j = |counts: &[u64]| counts.iter().skip(j).step_by(SERVERS).sum::<u64>();
        let blocking: Vec<f64> = reports
            .iter()
            .map(|r| on_j(&r.per_video_rejections) as f64 / on_j(&r.per_video_arrivals) as f64)
            .collect();
        let share: f64 = p.p().iter().skip(j).step_by(SERVERS).sum();
        assert_erlang(
            &format!("server {j}"),
            &blocking,
            erlang_b(SLOTS, offered * share),
        );
    }
}

/// Every title on every server under least-loaded dispatch at 80 %
/// offered load: a request is lost only when all 80 streams are busy,
/// so the cluster blocks like one pooled M/G/80/80 system, `E_B(80, λT)`.
#[test]
fn full_replication_pools_into_one_erlang_loss_system() {
    let all: Vec<ServerId> = (0..SERVERS as u32).map(ServerId).collect();
    let layout = Layout::new(SERVERS, vec![all; TITLES]).unwrap();
    let offered = 0.8 * (SERVERS * SLOTS) as f64;
    let reports = runs(&layout, AdmissionPolicy::LeastLoadedReplica, offered);
    let blocking: Vec<f64> = reports.iter().map(|r| r.rejection_rate).collect();
    assert_erlang("pooled", &blocking, erlang_b(SERVERS * SLOTS, offered));
}
