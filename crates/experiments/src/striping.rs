//! A-5 — striping vs. replication, the paper's architectural argument.
//!
//! The paper's Sections 1–2 justify the distributed-storage + replication
//! design over shared-storage wide striping: striping wins on balance and
//! disk utilization but "can induce high scheduling and extension
//! overhead" and couples every stream to every server, so "as the number
//! of disks increases, so do the controlling overhead and the probability
//! of a failure". This experiment puts numbers behind the argument on our
//! common substrate:
//!
//! * **healthy sweep** — rejection vs. λ for the striped cluster at 0%,
//!   10% and 25% coordination overhead against the replicated zipf+slf
//!   plan (degree 1.2): striping's perfect balance wins slightly at 0%
//!   overhead; any realistic overhead hands the advantage back;
//! * **failure case** — one server out for minutes 30–60: the striped
//!   cluster loses *all* service (and every active stream), the
//!   replicated one degrades gracefully.
//!
//! The striped cluster runs on the main engine as one pooled link (see
//! `pooled_world`).

use crate::config::PaperSetup;
use crate::report::{pct, Reporter, Table};
use crate::runner::{aggregate, build_plan, mean, run_cell, run_point, Combo, World};
use serde::Serialize;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, ModelError, ServerId, ServerSpec};
use vod_sim::{AdmissionPolicy, FailurePlan, Outage, SimConfig};
use vod_telemetry::Telemetry;
use vod_workload::TraceGenerator;

/// A-5's base seed: the healthy sweep runs from it, the failure case
/// from `SEED + 1`.
pub const SEED: u64 = 0xA4;

/// One striped measurement cell.
#[derive(Debug, Clone, Serialize)]
pub struct StripedCell {
    /// Arrival rate, requests/min.
    pub lambda: f64,
    /// Coordination overhead used.
    pub overhead: f64,
    /// Mean rejection rate.
    pub rejection_rate: f64,
    /// Mean disrupted streams per run.
    pub disrupted_mean: f64,
}

/// The inputs of a simulation that replays a striped cluster.
struct PooledWorld {
    catalog: Catalog,
    cluster: ClusterSpec,
    layout: Layout,
    config: SimConfig,
}

/// `setup`'s catalog striped over every link of `cluster` with a
/// fractional per-stream coordination `overhead`, as one pooled link.
///
/// Each stream takes `b(1+overhead)/N` from every one of the N links, so
/// it fits exactly when one link of N × the weakest link has room for a
/// `b(1+overhead)` stream, and any member's outage is an outage of the
/// pooled link: a down server kills every active stream and blocks
/// admission until it recovers. The pooled world is one server with that
/// link, holding one copy of every title at `b(1+overhead)` kbps, with
/// every outage of `failures` moved onto it. Balance is perfect by
/// construction.
///
/// The overhead must be finite, ≥ 0 and give a whole number of kbps; one
/// copy of the catalog must fit the cluster's total storage, since every
/// server holds a stripe of every title.
fn pooled_world(
    setup: &PaperSetup,
    cluster: &ClusterSpec,
    overhead: f64,
    failures: &FailurePlan,
) -> Result<PooledWorld, ModelError> {
    // Rounded to the milli-kbps first, so float error in `1 + overhead`
    // cannot make a whole rate (4,000 × 1.1) fractional.
    let milli_kbps = (f64::from(setup.bitrate.kbps()) * (1.0 + overhead) * 1_000.0).round();
    let kbps = milli_kbps / 1_000.0;
    if !overhead.is_finite() || overhead < 0.0 || kbps.fract() != 0.0 || kbps > f64::from(u32::MAX)
    {
        return Err(ModelError::InvalidParameter {
            name: "overhead",
            value: overhead,
        });
    }
    let single_copy = setup.catalog()?.single_copy_storage_bytes();
    let total = cluster.total_storage_bytes();
    if single_copy > total {
        return Err(ModelError::InsufficientStorage {
            required: single_copy,
            capacity: total,
        });
    }
    failures.validate_servers(cluster.len())?;

    let catalog = Catalog::fixed_rate(
        setup.n_videos,
        BitRate::from_kbps(kbps as u32),
        setup.duration_s,
    )?;
    let weakest_kbps = cluster
        .servers()
        .iter()
        .map(|s| s.bandwidth_kbps)
        .min()
        .expect("non-empty cluster");
    let pooled = ClusterSpec::homogeneous(
        1,
        ServerSpec {
            storage_bytes: catalog.single_copy_storage_bytes(),
            bandwidth_kbps: (cluster.len() as u64).saturating_mul(weakest_kbps),
        },
    )?;
    let layout = Layout::new(1, vec![vec![ServerId(0)]; setup.n_videos])?;
    let on_pooled_link = failures.outages().iter().map(|o| Outage {
        server: ServerId(0),
        ..*o
    });
    let config = SimConfig {
        failures: FailurePlan::merged(on_pooled_link.collect())?,
        ..SimConfig::default()
    };
    Ok(PooledWorld {
        catalog,
        cluster: pooled,
        layout,
        config,
    })
}

/// Rejection rate and mean disrupted streams per run of the striped
/// cluster with the hardware of the replicated runs at degree 1.2.
fn run_striped(
    setup: &PaperSetup,
    lambda: f64,
    overhead: f64,
    failures: &FailurePlan,
    base_seed: u64,
    telemetry: &Telemetry,
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let pooled = pooled_world(setup, &setup.cluster(1.2), overhead, failures)?;
    let generator = TraceGenerator::new(lambda, &setup.popularity(1.0)?, setup.horizon_min)?;
    let world = World {
        catalog: &pooled.catalog,
        cluster: &pooled.cluster,
        layout: &pooled.layout,
    };
    let reports = run_cell(
        setup,
        world,
        base_seed,
        |_| pooled.config.clone(),
        |rng| Ok(generator.generate(rng)),
        telemetry,
    )?;
    Ok((
        aggregate(lambda, &reports).rejection_rate,
        mean(&reports, |r| r.disrupted as f64),
    ))
}

/// Regenerates the A-5 tables.
pub fn run(setup: &PaperSetup, reporter: &Reporter) -> Result<(), Box<dyn std::error::Error>> {
    // Healthy sweep.
    let replicated = build_plan(setup, Combo::ZIPF_SLF, 1.0, 1.2)?;
    let overheads = [0.0, 0.1, 0.25];
    let mut table = Table::new(
        "A-5: striping vs replication — rejection rate, healthy cluster (θ = 1.0)",
        &[
            "lambda/min",
            "replicated (zipf+slf d1.2)",
            "striped 0% ovh",
            "striped 10% ovh",
            "striped 25% ovh",
        ],
    );
    let mut cells = Vec::new();
    for lambda in setup.lambda_sweep() {
        let rep = run_point(
            setup,
            &replicated,
            lambda,
            AdmissionPolicy::StaticRoundRobin,
            SEED,
            reporter.telemetry(),
        )?;
        let mut row = vec![format!("{lambda:.0}"), pct(rep.rejection_rate)];
        for &ovh in &overheads {
            let (rej, dis) = run_striped(
                setup,
                lambda,
                ovh,
                &FailurePlan::none(),
                SEED,
                reporter.telemetry(),
            )?;
            row.push(pct(rej));
            cells.push(StripedCell {
                lambda,
                overhead: ovh,
                rejection_rate: rej,
                disrupted_mean: dis,
            });
        }
        table.row(row);
    }
    reporter.emit_table("striping_healthy", &table)?;
    reporter.emit_json("striping_healthy", &cells)?;

    // Failure case: server 0 down 30–60 min, λ = 75% capacity.
    let lambda = 0.75 * setup.capacity_lambda_per_min();
    let outage = FailurePlan::new(vec![Outage {
        server: ServerId(0),
        down_at_min: 30.0,
        up_at_min: Some(60.0),
    }])?;
    let (striped_rej, striped_dis) =
        run_striped(setup, lambda, 0.1, &outage, SEED + 1, reporter.telemetry())?;

    // Replicated counterpart under the identical outage (failover).
    let generator =
        TraceGenerator::new(lambda, replicated.planner().popularity(), setup.horizon_min)?;
    let rep_reports = run_cell(
        setup,
        replicated.world(),
        SEED + 1,
        |_| SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failures: outage.clone(),
            ..SimConfig::default()
        },
        |rng| Ok(generator.generate(rng)),
        reporter.telemetry(),
    )?;
    let rep_rej = aggregate(lambda, &rep_reports).rejection_rate;
    let rep_dis = mean(&rep_reports, |r| r.disrupted as f64);

    let mut fail_table = Table::new(
        "A-5: one server down 30–60 min (λ = 75% capacity)",
        &["architecture", "rejection", "disrupted/run"],
    );
    fail_table.row(vec![
        "replicated d1.2 + failover".into(),
        pct(rep_rej),
        format!("{rep_dis:.1}"),
    ]);
    fail_table.row(vec![
        "striped (10% ovh)".into(),
        pct(striped_rej),
        format!("{striped_dis:.1}"),
    ]);
    reporter.emit_table("striping_failure", &fail_table)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_sim::{SimReport, Simulation};
    use vod_workload::{Request, Trace};

    /// 4 ten-minute MPEG-2 titles striped over 4 links of 4,400 kbps.
    fn small() -> (PaperSetup, ClusterSpec) {
        let setup = PaperSetup {
            n_servers: 4,
            n_videos: 4,
            duration_s: 600,
            ..PaperSetup::default()
        };
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 16 * BitRate::MPEG2.storage_bytes(600),
                bandwidth_kbps: 4_400,
            },
        )
        .unwrap();
        (setup, cluster)
    }

    fn req(min: f64, v: u32) -> Request {
        Request {
            arrival_min: min,
            video: vod_model::VideoId(v),
        }
    }

    fn run_pooled(
        setup: &PaperSetup,
        cluster: &ClusterSpec,
        overhead: f64,
        failures: &FailurePlan,
        reqs: Vec<Request>,
    ) -> SimReport {
        let world = pooled_world(setup, cluster, overhead, failures).unwrap();
        let sim =
            Simulation::new(&world.catalog, &world.cluster, &world.layout, world.config).unwrap();
        sim.run(&Trace::new(reqs).unwrap()).unwrap()
    }

    #[test]
    fn aggregate_capacity_gates_admission() {
        // 4,000 × 1.1 = 4,400 kbps per stream against a pooled 4 × 4,400
        // kbps link: exactly 4 concurrent streams cluster-wide.
        let (setup, cluster) = small();
        let reqs = (0..6).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        let r = run_pooled(&setup, &cluster, 0.1, &FailurePlan::none(), reqs);
        assert_eq!(r.admitted, 4);
        assert_eq!(r.rejected, 2);
        assert!(r.is_conservative());
    }

    #[test]
    fn zero_overhead_admits_more() {
        let (setup, cluster) = small();
        let reqs = || (0..5).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        // 17,600 / 4,000 = 4.4 streams, floored.
        let r = run_pooled(&setup, &cluster, 0.0, &FailurePlan::none(), reqs());
        assert_eq!(r.admitted, 4);
        let heavy = run_pooled(&setup, &cluster, 0.5, &FailurePlan::none(), reqs());
        assert!(heavy.admitted < r.admitted);
    }

    #[test]
    fn departures_release_exactly_what_admission_booked() {
        // 3 × 1,000 kbps links and a 1,000 kbps title: each stream takes
        // 1,000/3 kbps per link, which no rounded per-link share books
        // exactly. Three streams fill the cluster; once the first departs
        // (t = 10) a fourth fits again.
        let setup = PaperSetup {
            n_servers: 3,
            n_videos: 1,
            duration_s: 600,
            bitrate: BitRate::from_kbps(1_000),
            ..PaperSetup::default()
        };
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: BitRate::from_kbps(1_000).storage_bytes(600),
                bandwidth_kbps: 1_000,
            },
        )
        .unwrap();
        let reqs = vec![req(0.0, 0), req(1.0, 0), req(2.0, 0), req(10.5, 0)];
        let r = run_pooled(&setup, &cluster, 0.0, &FailurePlan::none(), reqs);
        assert_eq!(r.admitted, 4);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn perfect_balance_by_construction() {
        let (setup, cluster) = small();
        let world = pooled_world(&setup, &cluster, 0.1, &FailurePlan::none()).unwrap();
        assert_eq!(world.cluster.len(), 1);
        let reqs = (0..4).map(|k| req(k as f64, k)).collect();
        let r = run_pooled(&setup, &cluster, 0.1, &FailurePlan::none(), reqs);
        assert_eq!(r.mean_imbalance_cv, 0.0);
        assert_eq!(r.mean_imbalance_maxdev_streams, 0.0);
    }

    #[test]
    fn single_failure_kills_everything() {
        // 3 streams start before server 2 fails; all die at t = 2, the
        // request during the outage is rejected, and admission resumes
        // after recovery.
        let (setup, cluster) = small();
        let outage = FailurePlan::new(vec![Outage {
            server: ServerId(2),
            down_at_min: 2.0,
            up_at_min: Some(5.0),
        }])
        .unwrap();
        let reqs = vec![
            req(0.0, 0),
            req(0.5, 1),
            req(1.0, 2),
            req(3.0, 3),
            req(6.0, 0),
        ];
        let r = run_pooled(&setup, &cluster, 0.1, &outage, reqs);
        assert_eq!(r.disrupted, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.admitted, 4);
        assert!(r.is_conservative());
    }

    #[test]
    fn overlapping_outages_of_two_servers_block_their_union() {
        // Server 1 is down 2–5 and server 3 is down 4–8: the pooled link
        // is down 2–8, so the requests at 3, 5.5 and 7 are all rejected.
        let (setup, cluster) = small();
        let outages = FailurePlan::new(vec![
            Outage {
                server: ServerId(1),
                down_at_min: 2.0,
                up_at_min: Some(5.0),
            },
            Outage {
                server: ServerId(3),
                down_at_min: 4.0,
                up_at_min: Some(8.0),
            },
        ])
        .unwrap();
        let reqs = vec![
            req(0.0, 0),
            req(3.0, 1),
            req(5.5, 2),
            req(7.0, 3),
            req(9.0, 0),
        ];
        let r = run_pooled(&setup, &cluster, 0.1, &outages, reqs);
        assert_eq!(r.disrupted, 1);
        assert_eq!(r.rejected, 3);
        assert_eq!(r.admitted, 2);
    }

    #[test]
    fn storage_must_fit_one_catalog_copy() {
        let (setup, _) = small();
        let tiny = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 1,
                bandwidth_kbps: 10_000,
            },
        )
        .unwrap();
        assert!(matches!(
            pooled_world(&setup, &tiny, 0.1, &FailurePlan::none()),
            Err(ModelError::InsufficientStorage { .. })
        ));
    }

    #[test]
    fn invalid_overhead_rejected() {
        let (setup, cluster) = small();
        // A-5's overheads on 4 Mbps book whole kbps.
        for (overhead, kbps) in [(0.0, 4_000), (0.1, 4_400), (0.25, 5_000)] {
            let world = pooled_world(&setup, &cluster, overhead, &FailurePlan::none()).unwrap();
            assert!(world
                .catalog
                .videos()
                .iter()
                .all(|v| v.bitrate.kbps() == kbps));
        }
        // Negative, non-finite, or a fractional kbps (4,000.4).
        for bad in [-0.1, f64::NAN, f64::INFINITY, 0.0001] {
            assert!(matches!(
                pooled_world(&setup, &cluster, bad, &FailurePlan::none()),
                Err(ModelError::InvalidParameter {
                    name: "overhead",
                    ..
                })
            ));
        }
    }

    #[test]
    fn striping_loses_under_overhead_and_failure() {
        let setup = PaperSetup {
            n_videos: 40,
            runs: 3,
            ..PaperSetup::default()
        };
        // At the capacity rate, a 25%-overhead striped cluster rejects
        // far more than a 0%-overhead one.
        let lambda = setup.capacity_lambda_per_min();
        let none = FailurePlan::none();
        let off = Telemetry::disabled();
        let (r0, _) = run_striped(&setup, lambda, 0.0, &none, 1, &off).unwrap();
        let (r25, _) = run_striped(&setup, lambda, 0.25, &none, 1, &off).unwrap();
        assert!(r25 > r0 + 0.05, "25% ovh {r25} vs 0% {r0}");

        // Under an outage, the striped cluster loses service entirely
        // for its duration: ~1/3 of the peak period here.
        let outage = FailurePlan::new(vec![Outage {
            server: ServerId(0),
            down_at_min: 30.0,
            up_at_min: Some(60.0),
        }])
        .unwrap();
        let (rej, dis) = run_striped(&setup, 0.75 * lambda, 0.1, &outage, 2, &off).unwrap();
        assert!(rej > 0.25, "outage rejection {rej} should cover the window");
        assert!(dis > 0.0);
    }
}
