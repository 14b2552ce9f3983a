//! A-8 — erasure-coded redundancy vs full replication under faults.
//!
//! The paper prices every extra nine of availability at a full copy. A
//! systematic Reed-Solomon `(k, m)` stripe buys the same loss tolerance
//! `m` at a storage factor of `(k + m) / k` instead of `m + 1` — but
//! pays elsewhere: serving needs `k` live fragment holders (one loss
//! means a degraded read with higher fan-in, not stream death), and
//! rebuilding one lost fragment reads `k` surviving fragments, a k×
//! repair-read amplification that competes with streaming for link
//! bandwidth.
//!
//! This experiment makes that trade measurable. The sweep is redundancy
//! scheme (its storage budget is the scheme's footprint) × MTTR under
//! the PR-2 stochastic failure model with mid-run repair on. Reported
//! per cell: the storage factor actually charged, rejection/served
//! share, goodput, unavailability and redundancy-deficit integrals,
//! repaired bytes, and the coded-only instruments (reconstructions,
//! repair read bytes, degraded reads, share reattachments).
//!
//! Two regimes emerge, both asserted by the smoke test and documented
//! with full-size numbers in EXPERIMENTS.md:
//!
//! * `rs(2,1)` serves as well as 2× replication while storing 1.5
//!   copies — coded wins on served share per byte.
//! * `rs(4,2)` stores half of what 3× replication does but its stripes
//!   fail whenever 3 of 6 holders overlap in an outage and every rebuild
//!   reads 4 fragments — under long MTTR its unavailability integral is
//!   orders of magnitude above replication's, the repair-amplification
//!   regime where coded loses.

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{aggregate, mean, run_cell, PointStats, World};
use serde::Serialize;
use vod_model::{ModelError, RedundancyMap, RedundancyScheme};
use vod_placement::place_coded;
use vod_sim::{AdmissionPolicy, FailoverPolicy, FailureModel, RepairConfig, SimConfig};
use vod_telemetry::Telemetry;
use vod_workload::TraceGenerator;

/// Mean time between failures per server, minutes (as in A-4: ~4–6
/// failures strike per 90-minute run on 8 servers).
const MTBF_MIN: f64 = 120.0;

/// Per-copy repair bandwidth, kbps. A coded reconstruction reserves
/// this much on the destination *and* on each of its `k` read sources.
const REPAIR_KBPS: u64 = 50_000;

/// The schemes swept: replication at the paper's degrees 2 and 3, and
/// the coded stripes matching their loss tolerance (`m` = 1 and 2) at
/// half the storage or less.
const SCHEMES: [RedundancyScheme; 4] = [
    RedundancyScheme::Replicated { r: 2 },
    RedundancyScheme::Replicated { r: 3 },
    RedundancyScheme::Coded { k: 2, m: 1 },
    RedundancyScheme::Coded { k: 4, m: 2 },
];

/// Human-readable row label: `rep xR` or `rs(k,m)`.
fn label(scheme: RedundancyScheme) -> String {
    match scheme {
        RedundancyScheme::Replicated { r } => format!("rep x{r}"),
        RedundancyScheme::Coded { k, m } => format!("rs({k},{m})"),
    }
}

/// One measured cell of the coding sweep.
#[derive(Debug, Clone, Serialize)]
pub struct CodingRow {
    /// Scheme label (`rep xR` or `rs(k,m)`).
    pub scheme: String,
    /// Data fragments `k` (0 for replication).
    pub k: u32,
    /// Tolerated losses: parity fragments `m`, or `r - 1` replicas.
    pub m: u32,
    /// Bytes stored across all holders relative to one copy
    /// (`r`, or `(k + m) / k`) — the storage budget this row charges.
    pub storage_factor: f64,
    /// Mean time to repair (server outage length), minutes.
    pub mttr_min: f64,
    /// Averaged stats (rejection etc.) under resume-or-degrade failover.
    pub stats: PointStats,
    /// Mean fraction of requests admitted (1 − rejection).
    pub served_share: f64,
    /// Mean delivered ÷ offered bandwidth·time per run.
    pub goodput_mean: f64,
    /// Mean streams disrupted per run.
    pub disrupted_mean: f64,
    /// Mean streams resumed (full rate) per run.
    pub resumed_mean: f64,
    /// Mean video·minutes at zero servable copies / below `k` fragments.
    pub unavailability_video_min_mean: f64,
    /// Mean video·minutes of fractional redundancy deficit (a coded
    /// stripe missing `j ≤ m` fragments contributes `j/m`).
    pub redundancy_deficit_video_min_mean: f64,
    /// Mean bytes of replica/fragment data written by repair per run.
    pub repair_bytes_mean: f64,
    /// Mean coded fragment reconstructions per run (0 for replication).
    pub coded_reconstructions_mean: f64,
    /// Mean bytes *read* by coded reconstruction per run — `k ×` the
    /// fragment bytes written, the repair-read amplification bill.
    pub coded_read_bytes_mean: f64,
    /// Mean degraded reads per run (streams admitted or re-attached
    /// past the first `k` fragment positions).
    pub degraded_reads_mean: f64,
    /// Mean mid-stream share re-attachments after a holder loss per run.
    pub shares_reattached_mean: f64,
}

/// Runs one cell: `setup.runs` seeded replications of one scheme ×
/// MTTR point, each with its own trace and fault draws. The runs record
/// into a cell-local registry, which yields the coded-only instruments
/// and is then forwarded whole into `telemetry`.
fn coding_row(
    setup: &PaperSetup,
    scheme: RedundancyScheme,
    mttr_min: f64,
    lambda: f64,
    base_seed: u64,
    telemetry: &Telemetry,
) -> Result<CodingRow, ModelError> {
    let catalog = setup.catalog()?;
    let map = RedundancyMap::uniform(setup.n_videos, scheme)?;
    let layout = place_coded(setup.n_servers, &map)?;
    // The cluster is sized to the scheme's own footprint plus one
    // catalog-share of spare slots per server — repair needs somewhere
    // to put replacement fragments, exactly as A-4 provisions spare
    // disk for rebuilds. The storage budget is therefore the swept
    // scheme's storage factor, not a fixed outer loop.
    let cluster = setup.cluster(scheme.storage_factor() + 1.0);
    let popularity = setup.popularity(1.0)?;
    let generator = TraceGenerator::new(lambda, &popularity, setup.horizon_min)?;

    let local = Telemetry::enabled();
    let world = World {
        catalog: &catalog,
        cluster: &cluster,
        layout: &layout,
    };
    let reports = run_cell(
        setup,
        world,
        base_seed,
        |seed| SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failure_model: Some(FailureModel::exponential(MTBF_MIN, mttr_min, seed)),
            repair: RepairConfig {
                bandwidth_kbps: REPAIR_KBPS,
                max_concurrent: 8,
            },
            failover: FailoverPolicy::ResumeOrDegrade,
            ..SimConfig::default()
        },
        |rng| Ok(generator.generate(rng)),
        &local,
    )?;
    telemetry.absorb(&local);
    let snap = local.snapshot();
    let per_run = |name| snap.counter(name) as f64 / reports.len() as f64;

    let (k, m) = match scheme {
        RedundancyScheme::Replicated { r } => (0, r - 1),
        RedundancyScheme::Coded { k, m } => (k, m),
    };
    let stats = aggregate(lambda, &reports);
    Ok(CodingRow {
        scheme: label(scheme),
        k,
        m,
        storage_factor: scheme.storage_factor(),
        mttr_min,
        served_share: 1.0 - stats.rejection_rate,
        stats,
        goodput_mean: mean(&reports, |r| r.goodput),
        disrupted_mean: mean(&reports, |r| r.disrupted as f64),
        resumed_mean: mean(&reports, |r| r.resumed as f64),
        unavailability_video_min_mean: mean(&reports, |r| r.unavailability_video_min),
        redundancy_deficit_video_min_mean: mean(&reports, |r| r.redundancy_deficit_video_min),
        repair_bytes_mean: mean(&reports, |r| r.repair_bytes_copied as f64),
        coded_reconstructions_mean: per_run("sim.repair.coded.reconstructions"),
        coded_read_bytes_mean: per_run("sim.repair.coded.bytes"),
        degraded_reads_mean: per_run("sim.coded.degraded_reads"),
        shares_reattached_mean: per_run("sim.coded.shares_reattached"),
    })
}

/// Computes the sweep: scheme (= storage budget) × MTTR.
/// Records every run's `sim.*` instruments into `telemetry`.
pub fn compute(
    setup: &PaperSetup,
    telemetry: &Telemetry,
) -> Result<Vec<CodingRow>, Box<dyn std::error::Error>> {
    compute_schemes(setup, telemetry, &SCHEMES)
}

fn compute_schemes(
    setup: &PaperSetup,
    telemetry: &Telemetry,
    schemes: &[RedundancyScheme],
) -> Result<Vec<CodingRow>, Box<dyn std::error::Error>> {
    // 60% of capacity, as in A-4: failover visibly packs survivors,
    // repair traffic still fits on the links mid-outage.
    let lambda = 0.6 * setup.capacity_lambda_per_min();
    // One seed for every cell: rows differ only in the swept knobs.
    let base_seed = 0xC0DE;
    let mut rows = Vec::new();
    for &scheme in schemes {
        for mttr_min in [15.0f64, 45.0] {
            rows.push(coding_row(
                setup, scheme, mttr_min, lambda, base_seed, telemetry,
            )?);
        }
    }
    Ok(rows)
}

/// Regenerates the A-8 table.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute(setup, reporter.telemetry())?;
    emit(reporter, &rows)
}

/// [`run`] narrowed to one explicit scheme — the CLI's `--scheme`
/// override for probing points off the default sweep.
pub fn run_scheme(
    setup: &PaperSetup,
    reporter: &Reporter,
    scheme: RedundancyScheme,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = compute_schemes(setup, reporter.telemetry(), &[scheme])?;
    emit(reporter, &rows)
}

fn emit(reporter: &Reporter, rows: &[CodingRow]) -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(
        "A-8: erasure coding vs replication under stochastic faults \
         (uniform schemes, MTBF = 120 min, λ = 60% of capacity, θ = 1.0)",
        &[
            "scheme",
            "storage",
            "mttr",
            "served",
            "goodput",
            "disrupt",
            "resume",
            "unavail",
            "deficit",
            "repaired",
            "recon",
            "read-amp",
            "degr-reads",
        ],
    );
    for r in rows {
        table.row(vec![
            r.scheme.clone(),
            format!("{:.2}x", r.storage_factor),
            format!("{:.0}m", r.mttr_min),
            pct(r.served_share),
            format!("{:.4}", r.goodput_mean),
            format!("{:.1}", r.disrupted_mean),
            format!("{:.1}", r.resumed_mean),
            format!("{:.1}", r.unavailability_video_min_mean),
            format!("{:.1}", r.redundancy_deficit_video_min_mean),
            format!("{:.2} GB", r.repair_bytes_mean / 1e9),
            format!("{:.1}", r.coded_reconstructions_mean),
            format!("{:.2} GB", r.coded_read_bytes_mean / 1e9),
            format!("{:.1}", r.degraded_reads_mean),
        ]);
    }
    reporter.emit_table("coding", &table)?;
    reporter.emit_json("coding", &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The 100-video fast setup, not the usual 40-video tiny one: a
    // 40-video catalog concentrates so much load on each stripe's fixed
    // k data holders that the frontier regime below disappears into
    // hotspot noise.
    fn tiny() -> PaperSetup {
        PaperSetup {
            runs: 5,
            ..PaperSetup::fast()
        }
    }

    #[test]
    fn manifests_keep_the_engine_instruments() {
        let setup = PaperSetup {
            n_videos: 40,
            runs: 2,
            ..PaperSetup::default()
        };
        let telemetry = Telemetry::enabled();
        let schemes = [RedundancyScheme::Coded { k: 2, m: 1 }];
        let rows = compute_schemes(&setup, &telemetry, &schemes).unwrap();
        let snap = telemetry.snapshot();
        let arrivals = snap.counter("sim.arrivals");
        assert!(arrivals > 0 && snap.counter("sim.events") > arrivals);
        assert_eq!(
            snap.counter("sim.admitted") + snap.counter("sim.rejected"),
            arrivals
        );
        assert!(snap.counter("sim.transitions") > 0);
        // The coded figures come from the same forwarded runs.
        let total = |f: fn(&CodingRow) -> f64| rows.iter().map(f).sum::<f64>() * 2.0;
        let reconstructions = total(|r| r.coded_reconstructions_mean);
        assert!(reconstructions > 0.0);
        assert_eq!(
            snap.counter("sim.repair.coded.reconstructions") as f64,
            reconstructions
        );
        assert_eq!(
            snap.counter("sim.coded.degraded_reads") as f64,
            total(|r| r.degraded_reads_mean)
        );
        assert_eq!(
            snap.timers,
            [
                "sim.phase.copy_completion_s",
                "sim.phase.transition_s",
                "sim.run"
            ]
        );
    }

    #[test]
    fn coding_sweep_trends() {
        let rows = compute(&tiny(), &Telemetry::disabled()).unwrap();
        assert_eq!(rows.len(), SCHEMES.len() * 2);
        let get = |scheme: &str, mttr: f64| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.mttr_min == mttr)
                .unwrap()
        };

        // Replicated cells never touch the coded instruments.
        for r in rows.iter().filter(|r| r.k == 0) {
            assert_eq!(r.coded_reconstructions_mean, 0.0, "{}", r.scheme);
            assert_eq!(r.coded_read_bytes_mean, 0.0, "{}", r.scheme);
            assert_eq!(r.degraded_reads_mean, 0.0, "{}", r.scheme);
        }

        // Faults strike (~4–6 per run at MTBF 120), so coded cells
        // reconstruct fragments and serve degraded reads.
        for r in rows.iter().filter(|r| r.k > 0) {
            assert!(
                r.coded_reconstructions_mean > 0.0,
                "{} mttr {} never reconstructed",
                r.scheme,
                r.mttr_min
            );
            assert!(
                r.degraded_reads_mean + r.shares_reattached_mean > 0.0,
                "{} mttr {} never degraded a read",
                r.scheme,
                r.mttr_min
            );
            // Every reconstruction reads k surviving fragments for the
            // one it writes: read bytes are exactly k× the write bytes.
            assert!(
                (r.coded_read_bytes_mean - r.k as f64 * r.repair_bytes_mean).abs()
                    < 1e-6 * r.coded_read_bytes_mean.max(1.0),
                "{}: read {} != {} x write {}",
                r.scheme,
                r.coded_read_bytes_mean,
                r.k,
                r.repair_bytes_mean
            );
        }

        // The frontier regime (short MTTR): rs(2,1) matches 2x
        // replication's loss tolerance at strictly lower storage and
        // serves at least as well — repair restores lost fragments
        // before a second overlapping outage can bite.
        let rep = get("rep x2", 15.0);
        let rs = get("rs(2,1)", 15.0);
        assert!(rs.storage_factor < rep.storage_factor);
        assert!(
            rs.served_share >= rep.served_share - 0.005,
            "rs(2,1) serves {} vs rep x2 {}",
            rs.served_share,
            rep.served_share
        );

        // The repair-amplification regime (long MTTR): the wide stripe
        // reads k = 4 fragments per rebuild while outages pile up, and
        // its 3-of-6 overlap failure mode leaves far more unavailability
        // than 3x replication at the same loss tolerance.
        let rep3 = get("rep x3", 45.0);
        let rs42 = get("rs(4,2)", 45.0);
        assert!(
            rs42.unavailability_video_min_mean > rep3.unavailability_video_min_mean,
            "rs(4,2) unavail {} !> rep x3 {}",
            rs42.unavailability_video_min_mean,
            rep3.unavailability_video_min_mean
        );
        assert!(
            rs42.served_share < rep3.served_share,
            "rs(4,2) serves {} !< rep x3 {}",
            rs42.served_share,
            rep3.served_share
        );
    }
}
