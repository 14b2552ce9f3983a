//! Wide-striping comparator — the architecture the paper argues against.
//!
//! "There are cluster architectures for VoD servers: shared storage and
//! distributed storage … wide data striping can induce high scheduling
//! and extension overhead \[4, 12\] … As the number of disks increases,
//! so do the controlling overhead and the probability of a failure"
//! (paper, Secs. 1–2, citing Chou et al., "Striping doesn't scale").
//!
//! This module models the contrast at the same abstraction level as the
//! replication simulator: every video is striped across **all** servers,
//! so each admitted stream draws `b/N` from every server's outgoing link
//! simultaneously, inflated by a configurable per-stream coordination
//! overhead. Balance is perfect by construction — the architecture's
//! genuine strength — but the coupling has two costs the experiments
//! expose:
//!
//! * **overhead** — the effective per-stream bandwidth is
//!   `b · (1 + overhead)`, so peak throughput is strictly below the
//!   replicated cluster's;
//! * **failure coupling** — a single server failure interrupts *every*
//!   active stream (each needs all stripes) and halts admission until
//!   recovery, where the replicated cluster degrades by ~1/N.

use crate::failure::{FailurePlan, FaultSchedule, TransitionKind};
use crate::metrics::{MetricsCollector, SimReport};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vod_model::{Catalog, ClusterSpec, ModelError};
use vod_telemetry::Telemetry;
use vod_workload::Trace;

/// Load-sampling cadence in minutes.
const SAMPLE_INTERVAL_MIN: f64 = 1.0;

/// Configuration of the striped-cluster simulation.
#[derive(Debug, Clone)]
pub struct StripedConfig {
    /// Fractional per-stream bandwidth overhead of stripe coordination
    /// (0.1 = 10%; the "high scheduling and extension overhead" of wide
    /// striping). Must be ≥ 0 and finite.
    pub overhead: f64,
    /// Peak-period length in minutes; load is sampled every minute.
    pub horizon_min: f64,
    /// Injected outages; any down server blocks all admissions and kills
    /// all active streams (full coupling).
    pub failures: FailurePlan,
}

impl Default for StripedConfig {
    fn default() -> Self {
        StripedConfig {
            overhead: 0.1,
            horizon_min: 90.0,
            failures: FailurePlan::none(),
        }
    }
}

/// Simulation of a wide-striped (shared-storage-style) cluster.
#[derive(Debug, Clone)]
pub struct StripedSimulation<'a> {
    catalog: &'a Catalog,
    cluster: &'a ClusterSpec,
    config: StripedConfig,
}

impl<'a> StripedSimulation<'a> {
    /// Binds and validates. Striping has no placement step (every server
    /// holds every stripe), so only the cluster-wide storage total must
    /// fit one copy of the catalog.
    pub fn new(
        catalog: &'a Catalog,
        cluster: &'a ClusterSpec,
        config: StripedConfig,
    ) -> Result<Self, ModelError> {
        if !config.overhead.is_finite() || config.overhead < 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "overhead",
                value: config.overhead,
            });
        }
        if !config.horizon_min.is_finite() || config.horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: config.horizon_min,
            });
        }
        config.failures.validate_servers(cluster.len())?;
        let single_copy = catalog.single_copy_storage_bytes();
        let total = cluster.total_storage_bytes();
        if single_copy > total {
            return Err(ModelError::InsufficientStorage {
                required: single_copy,
                capacity: total,
            });
        }
        Ok(StripedSimulation {
            catalog,
            cluster,
            config,
        })
    }

    /// [`StripedSimulation::run`], recording the run's `sim.*`
    /// instruments into `telemetry`: the outcome counters are published
    /// once from the finished report, as the replicated engine publishes
    /// its report-derived half; the `sim.run` span times the replay.
    pub fn run_with_telemetry(
        &self,
        trace: &Trace,
        telemetry: &Telemetry,
    ) -> Result<SimReport, ModelError> {
        let span = telemetry.span("sim.run");
        let report = self.run(trace)?;
        drop(span);
        report.publish_counters(telemetry);
        Ok(report)
    }

    /// Replays `trace`. The binding constraint is the *most loaded link*;
    /// since every stream loads all links identically, that is simply the
    /// smallest per-server bandwidth.
    pub fn run(&self, trace: &Trace) -> Result<SimReport, ModelError> {
        let n = self.cluster.len() as f64;
        // Admission limit: each stream consumes b(1+ovh)/N per link and
        // the weakest link caps the concurrent aggregate, so a stream fits
        // while the aggregate demand stays within N × the weakest link.
        // Demands are booked in integer milli-kbps: a departure releases
        // exactly what its admission took, so no residue accumulates.
        let min_link_kbps = self
            .cluster
            .servers()
            .iter()
            .map(|s| s.bandwidth_kbps)
            .min()
            .expect("non-empty cluster");
        let capacity_milli = (self.cluster.len() as u64)
            .saturating_mul(min_link_kbps)
            .saturating_mul(1_000);

        let mut metrics = MetricsCollector::new(self.catalog.len(), false);
        // (end time, admission epoch, demand in milli-kbps) per active
        // stream. Streams killed by a failure leave their departures in
        // the heap; an epoch older than the current one marks them.
        let mut departures: BinaryHeap<Reverse<(SimTime, u32, u64)>> = BinaryHeap::new();
        let mut used_milli = 0u64; // aggregate over all links
        let mut epoch = 0u32;
        let mut down_servers = 0usize;

        let horizon = self.config.horizon_min;
        let transitions =
            FaultSchedule::compile(&self.config.failures, None, self.cluster.len(), horizon)?
                .transitions;
        let mut next_transition = 0usize;
        let mut next_sample_min = 0.0f64;
        let mut active = 0u32;

        let process_until = |t: SimTime,
                             metrics: &mut MetricsCollector,
                             departures: &mut BinaryHeap<Reverse<(SimTime, u32, u64)>>,
                             used: &mut u64,
                             active: &mut u32,
                             epoch: &mut u32,
                             down: &mut usize,
                             next_transition: &mut usize,
                             next_sample_min: &mut f64| {
            loop {
                let dep_at = departures.peek().map(|Reverse((at, _, _))| *at);
                let tr_at = transitions.get(*next_transition).map(|x| x.at);
                let sample_at = if *next_sample_min <= horizon {
                    Some(SimTime::from_min(*next_sample_min))
                } else {
                    None
                };
                let Some(min_at) = [dep_at, tr_at, sample_at].iter().flatten().min().copied()
                else {
                    break;
                };
                if min_at > t {
                    break;
                }
                if dep_at == Some(min_at) {
                    let Reverse((_, admitted_in, demand)) = departures.pop().expect("peeked");
                    if admitted_in == *epoch {
                        *used -= demand;
                        *active -= 1;
                    }
                } else if tr_at == Some(min_at) {
                    let tr = transitions[*next_transition];
                    *next_transition += 1;
                    match tr.kind {
                        TransitionKind::Up => {
                            *down = down.saturating_sub(1);
                        }
                        TransitionKind::Down => {
                            // Full coupling: every active stream dies.
                            metrics.report.disrupted += *active as u64;
                            *active = 0;
                            *used = 0;
                            *epoch += 1;
                            *down += 1;
                        }
                        // A scripted plan carries no brownouts.
                        TransitionKind::BrownoutStart(_) | TransitionKind::BrownoutEnd => {}
                    }
                } else {
                    // Perfect balance: every link carries the same load.
                    let per_link = *active as f64 / n;
                    let loads = vec![per_link; self.cluster.len()];
                    metrics.sample_loads(&loads, *next_sample_min);
                    *next_sample_min += SAMPLE_INTERVAL_MIN;
                }
            }
        };

        for req in trace.requests() {
            let t = SimTime::from_min(req.arrival_min);
            process_until(
                t,
                &mut metrics,
                &mut departures,
                &mut used_milli,
                &mut active,
                &mut epoch,
                &mut down_servers,
                &mut next_transition,
                &mut next_sample_min,
            );

            let video = self
                .catalog
                .get(req.video)
                .ok_or(ModelError::UnknownVideo(req.video))?;
            let demand_milli =
                (video.bitrate.kbps() as f64 * (1.0 + self.config.overhead) * 1_000.0).round()
                    as u64;

            metrics.on_arrival(req.video.index());
            // `used_milli <= capacity_milli` holds: admission keeps it.
            if down_servers == 0 && demand_milli <= capacity_milli - used_milli {
                used_milli += demand_milli;
                active += 1;
                departures.push(Reverse((
                    t + SimTime::from_secs(video.duration_s),
                    epoch,
                    demand_milli,
                )));
                metrics.on_admit(false);
            } else {
                metrics.on_reject(req.video.index());
            }
        }

        process_until(
            SimTime::from_min(horizon),
            &mut metrics,
            &mut departures,
            &mut used_milli,
            &mut active,
            &mut epoch,
            &mut down_servers,
            &mut next_transition,
            &mut next_sample_min,
        );

        Ok(metrics.finish(horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Outage;
    use vod_model::{BitRate, ServerId, ServerSpec, VideoId};
    use vod_workload::Request;

    fn world() -> (Catalog, ClusterSpec) {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap(); // 10-min videos
        let cluster = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 16 * BitRate::MPEG2.storage_bytes(600),
                bandwidth_kbps: 4_400, // ~4 aggregate streams at 10% overhead
            },
        )
        .unwrap();
        (catalog, cluster)
    }

    fn req(min: f64, v: u32) -> Request {
        Request {
            arrival_min: min,
            video: VideoId(v),
        }
    }

    #[test]
    fn aggregate_capacity_gates_admission() {
        // Per-stream per-link: 4000*1.1/4 = 1100 kbps; link 4400 kbps
        // admits exactly 4 concurrent streams cluster-wide.
        let (catalog, cluster) = world();
        let sim = StripedSimulation::new(&catalog, &cluster, StripedConfig::default()).unwrap();
        let reqs: Vec<Request> = (0..6).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        let r = sim.run(&Trace::new(reqs).unwrap()).unwrap();
        assert_eq!(r.admitted, 4);
        assert_eq!(r.rejected, 2);
        assert!(r.is_conservative());
    }

    #[test]
    fn zero_overhead_admits_more() {
        let (catalog, cluster) = world();
        let cfg = StripedConfig {
            overhead: 0.0,
            ..StripedConfig::default()
        };
        let sim = StripedSimulation::new(&catalog, &cluster, cfg).unwrap();
        // 4000/4 = 1000 per link; 4400 admits 4 (floor) — with 10%
        // overhead only 4 as well; use 5 requests and a tighter link to
        // see the difference.
        let reqs: Vec<Request> = (0..5).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        let r = sim.run(&Trace::new(reqs).unwrap()).unwrap();
        assert_eq!(r.admitted, 4); // 4.4 floor
        let cfg_heavy = StripedConfig {
            overhead: 0.5,
            ..StripedConfig::default()
        };
        let sim_heavy = StripedSimulation::new(&catalog, &cluster, cfg_heavy).unwrap();
        let reqs: Vec<Request> = (0..5).map(|k| req(k as f64 * 0.5, k % 4)).collect();
        let r_heavy = sim_heavy.run(&Trace::new(reqs).unwrap()).unwrap();
        assert!(r_heavy.admitted < r.admitted);
    }

    #[test]
    fn departures_release_exactly_what_admission_booked() {
        // 3 × 1 000 kbps links and a 1 000 kbps video: each stream takes
        // 1 000/3 kbps per link, which no rounded per-link share books
        // exactly. Three streams fill the cluster; once the first departs
        // (t = 10) a fourth fits again.
        let catalog = Catalog::fixed_rate(1, BitRate::from_kbps(1_000), 600).unwrap();
        let cluster = ClusterSpec::homogeneous(
            3,
            ServerSpec {
                storage_bytes: BitRate::from_kbps(1_000).storage_bytes(600),
                bandwidth_kbps: 1_000,
            },
        )
        .unwrap();
        let cfg = StripedConfig {
            overhead: 0.0,
            ..StripedConfig::default()
        };
        let sim = StripedSimulation::new(&catalog, &cluster, cfg).unwrap();
        let reqs = vec![req(0.0, 0), req(1.0, 0), req(2.0, 0), req(10.5, 0)];
        let r = sim.run(&Trace::new(reqs).unwrap()).unwrap();
        assert_eq!(r.admitted, 4);
        assert_eq!(r.rejected, 0);
    }

    #[test]
    fn perfect_balance_by_construction() {
        let (catalog, cluster) = world();
        let sim = StripedSimulation::new(&catalog, &cluster, StripedConfig::default()).unwrap();
        let reqs: Vec<Request> = (0..4).map(|k| req(k as f64, k)).collect();
        let r = sim.run(&Trace::new(reqs).unwrap()).unwrap();
        assert!(r.mean_imbalance_cv < 1e-12);
        assert!(r.mean_imbalance_maxdev_streams < 1e-12);
    }

    #[test]
    fn single_failure_kills_everything() {
        let (catalog, cluster) = world();
        let cfg = StripedConfig {
            failures: FailurePlan::new(vec![Outage {
                server: ServerId(2),
                down_at_min: 2.0,
                up_at_min: Some(5.0),
            }])
            .unwrap(),
            ..StripedConfig::default()
        };
        let sim = StripedSimulation::new(&catalog, &cluster, cfg).unwrap();
        // 3 streams start before the failure; all die at t=2; requests
        // during the outage are rejected; after recovery admission works.
        let reqs = vec![
            req(0.0, 0),
            req(0.5, 1),
            req(1.0, 2),
            req(3.0, 3),
            req(6.0, 0),
        ];
        let r = sim.run(&Trace::new(reqs).unwrap()).unwrap();
        assert_eq!(r.disrupted, 3);
        assert_eq!(r.rejected, 1); // t=3.0 during outage
        assert_eq!(r.admitted, 4);
        assert!(r.is_conservative());
    }

    #[test]
    fn storage_must_fit_one_catalog_copy() {
        let catalog = Catalog::fixed_rate(4, BitRate::MPEG2, 600).unwrap();
        let tiny = ClusterSpec::homogeneous(
            4,
            ServerSpec {
                storage_bytes: 1,
                bandwidth_kbps: 10_000,
            },
        )
        .unwrap();
        assert!(matches!(
            StripedSimulation::new(&catalog, &tiny, StripedConfig::default()),
            Err(ModelError::InsufficientStorage { .. })
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let (catalog, cluster) = world();
        let bad = StripedConfig {
            overhead: -0.1,
            ..StripedConfig::default()
        };
        assert!(StripedSimulation::new(&catalog, &cluster, bad).is_err());
        let bad = StripedConfig {
            horizon_min: 0.0,
            ..StripedConfig::default()
        };
        assert!(StripedSimulation::new(&catalog, &cluster, bad).is_err());
    }
}
