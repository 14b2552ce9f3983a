//! Differential property test for the sharded engine: random worlds,
//! workloads, failure/brownout schedules and online-controller runs
//! driven through `shards = 1` and `shards ∈ {2, 4, 8}` must produce
//! identical [`SimReport`]s — compared as serialized JSON, so every
//! field participates — and identical telemetry counter totals (the
//! per-shard `sim.shard.*` counters excepted: only the decoupled path
//! publishes them).
//!
//! The generator deliberately covers both engine paths:
//!
//! * pod-structured layouts with passive admission, no failures and no
//!   controller take the decoupled parallel path (one mini-engine per
//!   server group, merged deterministically);
//! * connected layouts, injected outages, stochastic failure/brownout
//!   models, queueing admission, backbone redirection and the online
//!   controller (with repair bandwidth) all force the serial loop.

use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use vod_model::{BitRate, Catalog, ClusterSpec, Layout, ServerId, ServerSpec, VideoId};
use vod_sim::{
    AdmissionConfig, AdmissionPolicy, BrownoutModel, ControllerConfig, FailoverPolicy,
    FailureModel, FailurePlan, Outage, QueuePolicy, RepairConfig, SimConfig, Simulation,
};
use vod_telemetry::Telemetry;
use vod_workload::{Request, Trace};

/// Everything that defines one differential case.
#[derive(Debug, Clone)]
struct Scenario {
    n_pods: usize,
    servers_per_pod: usize,
    videos_per_pod: usize,
    /// A video replicated across pod boundaries glues the replica graph
    /// together (forces the serial loop even without failures).
    bridge_video: bool,
    bandwidth_kbps: u64,
    duration_s: u64,
    policy: AdmissionPolicy,
    admission: AdmissionConfig,
    failures: FailurePlan,
    failure_model: Option<FailureModel>,
    failover: FailoverPolicy,
    repair: RepairConfig,
    /// Runs the online replication controller (always with repair
    /// bandwidth, so it actually copies).
    controller: bool,
    audit: bool,
    shards: usize,
    arrivals: Vec<Request>,
}

impl Scenario {
    fn n_servers(&self) -> usize {
        self.n_pods * self.servers_per_pod
    }

    fn n_videos(&self) -> usize {
        self.n_pods * self.videos_per_pod + usize::from(self.bridge_video)
    }

    fn world(&self) -> (Catalog, ClusterSpec, Layout) {
        let catalog = Catalog::fixed_rate(self.n_videos(), BitRate::MPEG2, self.duration_s)
            .expect("valid catalog");
        let cluster = ClusterSpec::homogeneous(
            self.n_servers(),
            ServerSpec {
                storage_bytes: u64::MAX,
                bandwidth_kbps: self.bandwidth_kbps,
            },
        )
        .expect("valid cluster");
        let mut replicas: Vec<Vec<ServerId>> = Vec::with_capacity(self.n_videos());
        for v in 0..self.n_pods * self.videos_per_pod {
            let pod = v % self.n_pods;
            let base = pod * self.servers_per_pod;
            // Each pod video sits on up to two servers of its own pod.
            let first = base + v % self.servers_per_pod;
            let mut set = vec![ServerId(first as u32)];
            if self.servers_per_pod > 1 {
                let second = base + (v + 1) % self.servers_per_pod;
                set.push(ServerId(second as u32));
            }
            replicas.push(set);
        }
        if self.bridge_video {
            // One replica in the first and one in the last pod.
            let last_base = (self.n_pods - 1) * self.servers_per_pod;
            replicas.push(vec![ServerId(0), ServerId(last_base as u32)]);
        }
        let layout = Layout::new(self.n_servers(), replicas).expect("valid layout");
        (catalog, cluster, layout)
    }

    fn config(&self, shards: usize) -> SimConfig {
        SimConfig {
            policy: self.policy,
            failures: self.failures.clone(),
            failure_model: self.failure_model.clone(),
            failover: self.failover,
            repair: self.repair,
            admission: self.admission.clone(),
            controller: if self.controller {
                ControllerConfig {
                    tick_min: 5.0,
                    ..ControllerConfig::default()
                }
            } else {
                ControllerConfig::default()
            },
            audit: self.audit,
            shards,
            ..SimConfig::default()
        }
    }
}

/// Scenario generator. Domains are small on purpose: few servers with
/// one-to-four stream links force admission contention, short videos
/// force departure/arrival interleaving, and every coupling feature
/// (outages, fault models, queueing, redirection, the controller)
/// appears with enough probability that both engine paths see real
/// traffic.
#[derive(Clone, Copy, Debug)]
struct ScenarioStrategy;

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        let n_pods = rng.gen_range(1usize..=4);
        let servers_per_pod = rng.gen_range(1usize..=3);
        let videos_per_pod = rng.gen_range(1usize..=4);
        let bridge_video = n_pods > 1 && rng.gen_bool(0.3);
        let n_servers = n_pods * servers_per_pod;
        let n_videos = n_pods * videos_per_pod + usize::from(bridge_video);

        let policy = match rng.gen_range(0u32..8) {
            0..=3 => AdmissionPolicy::StaticRoundRobin,
            4..=5 => AdmissionPolicy::RoundRobinFailover,
            6 => AdmissionPolicy::LeastLoadedReplica,
            _ => AdmissionPolicy::BackboneRedirect {
                backbone_capacity_kbps: 8_000 + 4_000 * rng.gen_range(0u64..4),
            },
        };
        let admission = match rng.gen_range(0u32..4) {
            0..=1 => AdmissionConfig::default(),
            2 => AdmissionConfig {
                policy: QueuePolicy::Queue {
                    patience_min: 1.0 + rng.gen_range(0u32..4) as f64,
                },
                max_retries: rng.gen_range(0u32..3),
                retry_backoff_min: 0.5,
                seed: rng.gen(),
            },
            _ => AdmissionConfig {
                policy: QueuePolicy::QueueOrDegrade { patience_min: 2.0 },
                max_retries: 1,
                retry_backoff_min: 1.0,
                seed: rng.gen(),
            },
        };
        let failures = if rng.gen_bool(0.3) {
            let down = 5.0 + rng.gen_range(0u32..60) as f64;
            FailurePlan::new(vec![Outage {
                server: ServerId(rng.gen_range(0u32..n_servers as u32)),
                down_at_min: down,
                up_at_min: rng.gen_bool(0.5).then_some(down + 10.0),
            }])
            .expect("valid outage plan")
        } else {
            FailurePlan::none()
        };
        let failure_model = match rng.gen_range(0u32..5) {
            0 => Some(FailureModel::exponential(
                40.0 + rng.gen_range(0u32..40) as f64,
                5.0,
                rng.gen(),
            )),
            1 => Some(FailureModel::brownouts_only(
                BrownoutModel {
                    mtbf_min: 45.0,
                    mttr_min: 10.0,
                    min_capacity_frac: 0.4,
                    max_capacity_frac: 0.8,
                },
                rng.gen(),
            )),
            _ => None,
        };
        let failover = match rng.gen_range(0u32..3) {
            0 => FailoverPolicy::Kill,
            1 => FailoverPolicy::Resume,
            _ => FailoverPolicy::ResumeOrDegrade,
        };
        let repair = if rng.gen_bool(0.3) {
            RepairConfig {
                bandwidth_kbps: 2_000,
                max_concurrent: 4,
            }
        } else {
            RepairConfig::default()
        };

        let n_arrivals = rng.gen_range(10usize..120);
        let mut at = 0.0f64;
        let mut arrivals = Vec::with_capacity(n_arrivals);
        for _ in 0..n_arrivals {
            at += rng.gen_range(0u32..180) as f64 / 100.0; // 0–1.8 min gaps
            if at >= 88.0 {
                break; // stay inside the 90-minute horizon
            }
            arrivals.push(Request {
                arrival_min: at,
                video: VideoId(rng.gen_range(0u32..n_videos as u32)),
            });
        }

        let bandwidth_kbps = 4_000 * rng.gen_range(1u64..=4);
        let duration_s = 60 * rng.gen_range(3u64..=15);
        let audit = rng.gen_bool(0.5);
        let shards = [2, 4, 8][rng.gen_range(0usize..3)];
        // Drawn last so the earlier draws keep their stream positions.
        let controller = rng.gen_bool(0.3);
        let repair = if controller && repair.bandwidth_kbps == 0 {
            RepairConfig {
                bandwidth_kbps: 2_000,
                max_concurrent: 4,
            }
        } else {
            repair
        };

        Scenario {
            n_pods,
            servers_per_pod,
            videos_per_pod,
            bridge_video,
            bandwidth_kbps,
            duration_s,
            policy,
            admission,
            failures,
            failure_model,
            failover,
            repair,
            controller,
            audit,
            shards,
            arrivals,
        }
    }
}

/// Counter totals with the shard-count-dependent `sim.shard.*` names
/// projected out (only the decoupled path publishes them, so they exist
/// on one side by design — every *simulation* counter must still agree).
fn comparable_counters(telemetry: &Telemetry) -> Vec<(String, u64)> {
    telemetry
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| !name.starts_with("sim.shard."))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any scenario replayed at `shards = 1` and `shards > 1` yields the
    /// same serialized report and the same telemetry counter totals.
    #[test]
    fn sharded_runs_match_serial(scenario in ScenarioStrategy) {
        let (catalog, cluster, layout) = scenario.world();
        let trace = Trace::new(scenario.arrivals.clone()).expect("arrivals are sorted");

        let serial = Simulation::new(&catalog, &cluster, &layout, scenario.config(1))
            .expect("serial config binds");
        let sharded = Simulation::new(&catalog, &cluster, &layout, scenario.config(scenario.shards))
            .expect("sharded config binds");

        let t_serial = Telemetry::enabled();
        let t_sharded = Telemetry::enabled();
        let a = serial.run_with_telemetry(&trace, &t_serial).expect("serial run");
        let b = sharded.run_with_telemetry(&trace, &t_sharded).expect("sharded run");

        prop_assert_eq!(
            serde_json::to_string(&a).expect("report serializes"),
            serde_json::to_string(&b).expect("report serializes"),
            "reports diverged at shards={} for {:?}",
            scenario.shards,
            scenario
        );
        prop_assert_eq!(
            comparable_counters(&t_serial),
            comparable_counters(&t_sharded),
            "counter totals diverged at shards={} for {:?}",
            scenario.shards,
            scenario
        );
    }
}
