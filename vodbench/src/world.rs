//! The four workloads: their worlds (catalog, cluster, layout), their
//! simulation configs and the seeded arrivals they replay. Arrival traffic
//! comes from `--seed`, everything else from a fixed world seed; the
//! program under test only ever sees the generated inputs.

use crate::span::{SpanId, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use vod_anneal::{
    anneal_parallel_with_telemetry, CoolingSchedule, ParallelParams, ScalableProblem,
};
use vod_core::ClusterPlanner;
use vod_experiments::config::PaperSetup;
use vod_experiments::runner::Combo;
use vod_experiments::scale::ScaleWorld;
use vod_model::{
    BitRate, Catalog, ClusterSpec, Layout, ModelError, ObjectiveWeights, Popularity, ServerId,
    VideoId,
};
use vod_placement::traits::PlacementInput;
use vod_sim::{
    AdmissionConfig, AdmissionPolicy, BrownoutModel, ControllerConfig, FailoverPolicy,
    FailureModel, QueuePolicy, RepairConfig, SimConfig, Simulation,
};
use vod_telemetry::Telemetry;
use vod_workload::{
    DriftingWorkload, FlashCrowd, Request, StreamingThinned, Trace, TraceGenerator,
};

/// The seed whose reports are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 1;

/// Pods every tiled world is cut into. Title `i·PODS + p` belongs to pod
/// `p`, so consecutive popularity ranks land in different pods.
pub const PODS: usize = 32;

/// Traces per (skew, λ) point of `paper_figs`, and replications per pass
/// of the two batch pod workloads: enough simulated work that one pass
/// takes one to three seconds on two cores.
pub const PAPER_REPS: u64 = 4;
/// See [`PAPER_REPS`].
pub const OVERLOAD_REPS: u64 = 8;
/// See [`PAPER_REPS`].
pub const DRIFT_REPS: u64 = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 4–6: 32 plans of the paper's 8-server cluster over the
    /// 4–60 req/min sweep, serial.
    PaperFigs,
    /// A-9's 48-hour streamed traffic on 512 servers tiled as 32 pods.
    ScalePods,
    /// The paper's cluster tiled 32× under A-6's overload pipeline.
    PodsOverload,
    /// The same tiled cluster under A-7's drift, controller and faults.
    PodsDrift,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigs,
        Workload::ScalePods,
        Workload::PodsOverload,
        Workload::PodsDrift,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigs => "paper_figs",
            Workload::ScalePods => "scale_pods",
            Workload::PodsOverload => "pods_overload",
            Workload::PodsDrift => "pods_drift",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine shards of the workload's timed runs.
    pub fn shards(self) -> usize {
        match self {
            Workload::PaperFigs => 1,
            _ => 2,
        }
    }

    /// The shard count the reference pass cross-checks against.
    pub fn other_shards(self) -> usize {
        3 - self.shards()
    }
}

/// What `Simulation::new` binds besides a config.
pub struct World {
    /// Titles.
    pub catalog: Catalog,
    /// Servers.
    pub cluster: ClusterSpec,
    /// Replica placement.
    pub layout: Layout,
}

/// A run's arrivals: a materialized trace, or a fresh streaming source
/// that each run replays from a clone.
pub enum Arrivals {
    /// Batch Poisson/Zipf (or drifting) trace.
    Trace(Trace),
    /// A-9's lazily pulled, thinned non-homogeneous stream.
    Stream(Box<StreamingThinned<ChaCha8Rng>>),
}

/// One simulation of a pass: which bound config replays which arrivals.
pub struct Run {
    /// Index into [`Inputs::configs`].
    pub config: usize,
    /// Index into [`Inputs::arrivals`].
    pub arrivals: usize,
}

/// Everything one pass of a workload simulates.
pub struct Inputs {
    /// Bindable worlds.
    pub worlds: Vec<World>,
    /// One `(world, config)` per `Simulation`; `shards` and `audit` are
    /// set at bind time.
    pub configs: Vec<(usize, SimConfig)>,
    /// Arrival inputs, shared by every run that names them.
    pub arrivals: Vec<Arrivals>,
    /// The pass, in order.
    pub runs: Vec<Run>,
}

impl Inputs {
    fn new(worlds: Vec<World>) -> Inputs {
        Inputs {
            worlds,
            configs: Vec::new(),
            arrivals: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Adds one run of `arrivals` on world 0 under a config of its own.
    fn push_run(&mut self, arrivals: Arrivals, config: SimConfig) {
        self.runs.push(Run {
            config: self.configs.len(),
            arrivals: self.arrivals.len(),
        });
        self.configs.push((0, config));
        self.arrivals.push(arrivals);
    }

    /// Binds every config at `shards`, with the invariant auditor on when
    /// `audit` is set, recording a `bind` span per `Simulation::new`.
    pub fn bind(
        &self,
        shards: usize,
        audit: bool,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Result<Vec<Simulation<'_>>, ModelError> {
        self.configs
            .iter()
            .map(|(w, config)| {
                let world = &self.worlds[*w];
                let config = SimConfig {
                    shards,
                    audit,
                    ..config.clone()
                };
                tracer
                    .time("bind", parent, |_| {
                        Simulation::new(&world.catalog, &world.cluster, &world.layout, config)
                    })
                    .0
            })
            .collect()
    }
}

/// Builds `workload`'s inputs for `seed`. Planning, annealing and arrival
/// generation record their spans under `parent`; the annealer's `anneal.*`
/// instruments go to `telemetry`.
pub fn build(
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    telemetry: &Telemetry,
) -> Result<Inputs, Box<dyn Error>> {
    match workload {
        Workload::PaperFigs => paper_figs(seed, tracer, parent, telemetry),
        Workload::ScalePods => scale_pods(seed, tracer, parent),
        Workload::PodsOverload => pods_overload(seed, tracer, parent),
        Workload::PodsDrift => pods_drift(seed, tracer, parent),
    }
}

/// A 64-bit stream id for `parts` under `seed` (splitmix64 finalizer over
/// each part), so every derived RNG is independent and seed-determined.
fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x6A09_E667_F3BC_C909;
    for &p in parts {
        h = h.wrapping_add(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

fn rng(seed: u64, parts: &[u64]) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(mix(seed, parts))
}

/// Seed of everything but the arrival traffic: fault, brownout, patience,
/// drift and annealing draws are part of a workload's fixed world, so two
/// `--seed`s differ only in their traces.
const WORLD_SEED: u64 = 0x005E_ED0F_3A11;

/// Stream ids that keep the derived RNG families apart.
const TRAFFIC: u64 = 1;
const FAULTS: u64 = 2;
const ADMISSION: u64 = 3;
const DRIFT: u64 = 4;
const ANNEAL: u64 = 5;

/// Plans `planner`'s cluster with `combo` exactly as
/// `ClusterPlanner::plan` does, with the replication and placement calls
/// timed as spans of their own.
pub fn plan(
    tracer: &Tracer,
    parent: Option<SpanId>,
    planner: &ClusterPlanner,
    combo: Combo,
    demand_requests: f64,
) -> Result<Layout, ModelError> {
    let capacities = planner.replica_capacities();
    let total_slots: u64 = capacities.iter().sum();
    let n_servers = planner.cluster().len();
    let (scheme, _) = tracer.time("replication", parent, |_| {
        combo
            .replication
            .replicate(planner.popularity(), n_servers, total_slots)
    });
    let scheme = scheme?;
    let weights = scheme.weights(planner.popularity(), demand_requests)?;
    let (layout, _) = tracer.time("placement", parent, |_| {
        combo.placement.place(&PlacementInput {
            scheme: &scheme,
            weights: &weights,
            n_servers,
            capacities: &capacities,
        })
    });
    let layout = layout?;
    layout.validate_storage(planner.catalog(), planner.cluster())?;
    Ok(layout)
}

/// The paper's planner at skew `theta` on a cluster sized for `degree`,
/// as `vod_experiments::runner::build_plan` configures it.
pub fn paper_planner(
    setup: &PaperSetup,
    theta: f64,
    degree: f64,
) -> Result<ClusterPlanner, ModelError> {
    ClusterPlanner::builder()
        .catalog(setup.catalog()?)
        .cluster(setup.cluster(degree))
        .popularity(setup.popularity(theta)?)
        .demand_requests(setup.capacity_demand())
        .build()
}

/// The Figure 4–5 plan grid at one skew: Figure 4's two combos at every
/// degree, plus Figure 5's other two combos at its two degrees (Figure 6
/// replays Figure 5's degree-1.2 plans).
pub fn paper_grid(setup: &PaperSetup) -> Vec<(Combo, f64)> {
    let mut grid: Vec<(Combo, f64)> = [Combo::ZIPF_SLF, Combo::CLASS_RR]
        .into_iter()
        .flat_map(|c| setup.degrees().map(|d| (c, d)))
        .collect();
    grid.extend(
        [Combo::CLASS_SLF, Combo::ZIPF_RR]
            .into_iter()
            .flat_map(|c| [1.2, 1.6].map(|d| (c, d))),
    );
    grid
}

/// `paper_figs`: every grid plan at both skews, each replayed over the
/// 15-point λ sweep; [`PAPER_REPS`] traces per (skew, λ), shared by that
/// skew's plans. Set-up also anneals SA-1's scalable-bit-rate problem.
fn paper_figs(
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    telemetry: &Telemetry,
) -> Result<Inputs, Box<dyn Error>> {
    let setup = PaperSetup::default();
    anneal_sa1(&setup, tracer, parent, telemetry)?;
    let sweep = setup.lambda_sweep();
    let config = SimConfig {
        policy: AdmissionPolicy::StaticRoundRobin,
        horizon_min: setup.horizon_min,
        ..SimConfig::default()
    };
    let mut inputs = Inputs::new(Vec::new());
    for (t, theta) in setup.thetas().into_iter().enumerate() {
        let pop = setup.popularity(theta)?;
        let first_trace = inputs.arrivals.len();
        for (l, &lambda) in sweep.iter().enumerate() {
            let generator = TraceGenerator::new(lambda, &pop, setup.horizon_min)?;
            for r in 0..PAPER_REPS {
                let (trace, _) = tracer.time("workload.build", parent, |_| {
                    generator.generate(&mut rng(seed, &[TRAFFIC, t as u64, l as u64, r]))
                });
                inputs.arrivals.push(Arrivals::Trace(trace));
            }
        }
        for (combo, degree) in paper_grid(&setup) {
            let planner = paper_planner(&setup, theta, degree)?;
            let layout = plan(tracer, parent, &planner, combo, setup.capacity_demand())?;
            let w = inputs.worlds.len();
            inputs.worlds.push(World {
                catalog: planner.catalog().clone(),
                cluster: planner.cluster().clone(),
                layout,
            });
            inputs.configs.push((w, config.clone()));
            inputs
                .runs
                .extend((first_trace..inputs.arrivals.len()).map(|arrivals| Run {
                    config: w,
                    arrivals,
                }));
        }
    }
    Ok(inputs)
}

/// SA-1 (§4.3): the scalable-bit-rate problem as the `sa` experiment sets
/// it up, annealed on two chains. Fails if the annealed objective is worse
/// than the initial solution's, which the best-so-far search never allows.
fn anneal_sa1(
    setup: &PaperSetup,
    tracer: &Tracer,
    parent: Option<SpanId>,
    telemetry: &Telemetry,
) -> Result<(), Box<dyn Error>> {
    let problem = ScalableProblem::new(
        Popularity::zipf(setup.n_videos, 1.0)?,
        setup.cluster(1.4),
        setup.duration_s,
        BitRate::LADDER.to_vec(),
        setup.capacity_demand() * 0.6,
        ObjectiveWeights::default(),
    )?;
    let initial = problem.initial_state();
    let initial_objective = problem.objective(&initial);
    let t0 = 20.0 / setup.n_videos as f64;
    let params = ParallelParams {
        chains: 2,
        epochs_per_round: 12,
        rounds: 12,
        steps_per_epoch: 700,
        schedule: CoolingSchedule::Geometric {
            t0,
            alpha: 0.93,
            t_min: t0 * 1e-4,
        },
        seed: mix(WORLD_SEED, &[ANNEAL]),
    };
    let (result, _) = tracer.time("anneal", parent, |_| {
        anneal_parallel_with_telemetry(&problem, problem.search_state(initial), &params, telemetry)
    });
    let annealed = problem.objective(result.best_state.state());
    if annealed.is_nan() || annealed < initial_objective {
        return Err(format!(
            "SA-1 annealed objective {annealed} is below the initial {initial_objective}"
        )
        .into());
    }
    Ok(())
}

/// Global title of pod `pod`'s local title `local`.
pub fn global_title(pod: usize, local: usize) -> usize {
    local * PODS + pod
}

/// Tiles per-pod layouts into one cluster: pod `p` owns servers
/// `p·n .. (p+1)·n` and global titles `i·PODS + p`.
pub fn tile_layout(pods: &[Layout]) -> Result<Layout, ModelError> {
    let n = pods[0].n_servers();
    let m = pods[0].n_videos();
    if pods.len() != PODS || pods.iter().any(|l| l.n_servers() != n || l.n_videos() != m) {
        return Err(ModelError::InvalidParameter {
            name: "tiled pods (need PODS layouts of one shape)",
            value: pods.len() as f64,
        });
    }
    let assignments = (0..m * PODS)
        .map(|v| {
            let (pod, local) = (v % PODS, v / PODS);
            pods[pod]
                .replicas_of(VideoId(local as u32))
                .iter()
                .map(|s| ServerId((pod * n) as u32 + s.0))
                .collect()
        })
        .collect();
    Layout::new(n * PODS, assignments)
}

/// Merges per-pod traces into one, renaming pod `p`'s local titles to
/// their global ids. Ties in arrival time keep pod order.
pub fn tile_traces(pods: &[Trace]) -> Result<Trace, ModelError> {
    let mut requests: Vec<Request> = pods
        .iter()
        .enumerate()
        .flat_map(|(p, trace)| {
            trace.requests().iter().map(move |r| Request {
                arrival_min: r.arrival_min,
                video: VideoId(global_title(p, r.video.index()) as u32),
            })
        })
        .collect();
    requests.sort_by(|a, b| a.arrival_min.total_cmp(&b.arrival_min));
    Trace::new(requests)
}

/// `scale_pods`: A-9's production traffic streamed onto [`scale_world`].
fn scale_pods(
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Inputs, Box<dyn Error>> {
    let scale = ScaleWorld::production(2);
    let world = scale_world(&scale, tracer, parent)?;
    let (stream, _) = tracer.time("workload.build", parent, |_| {
        scale
            .workload()
            .and_then(|w| Ok(w.stream(rng(seed, &[TRAFFIC]))?))
    });
    let horizon_min = scale.setup.horizon_min;
    let mut inputs = Inputs::new(vec![world]);
    inputs.push_run(
        Arrivals::Stream(Box::new(stream?)),
        SimConfig {
            horizon_min,
            sample_interval_min: (horizon_min / 288.0).max(0.25),
            ..SimConfig::default()
        },
    );
    Ok(inputs)
}

/// A-9's 512 servers and 20,000 titles tiled as 32 pods of 16 servers,
/// each pod planned zipf+slf at A-9's degree over its rank-interleaved
/// slice of the catalog.
pub fn scale_world(
    scale: &ScaleWorld,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<World, ModelError> {
    let setup = &scale.setup;
    let global = setup.popularity(scale.theta)?;
    let cluster = setup.cluster(scale.degree);
    let pod_titles = setup.n_videos / PODS;
    let pod_catalog = Catalog::fixed_rate(pod_titles, setup.bitrate, setup.duration_s)?;
    let pod_cluster = ClusterSpec::homogeneous(setup.n_servers / PODS, cluster.servers()[0])?;
    let demand = setup.capacity_demand() / PODS as f64;
    let layouts = (0..PODS)
        .map(|p| {
            let slice: Vec<f64> = (0..pod_titles)
                .map(|i| global.get(global_title(p, i)))
                .collect();
            let planner = ClusterPlanner::builder()
                .catalog(pod_catalog.clone())
                .cluster(pod_cluster.clone())
                .popularity(Popularity::from_weights(&slice)?)
                .demand_requests(demand)
                .build()?;
            plan(tracer, parent, &planner, Combo::ZIPF_SLF, demand)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(World {
        catalog: setup.catalog()?,
        layout: tile_layout(&layouts)?,
        cluster,
    })
}

/// The paper's cluster at storage `storage_degree`, planned zipf+slf at
/// `plan_degree` and θ = 1, tiled 32× (every pod holds the same plan).
pub fn paper_pods(
    setup: &PaperSetup,
    plan_degree: f64,
    storage_degree: f64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<World, ModelError> {
    let planner = paper_planner(setup, 1.0, plan_degree)?;
    let layout = plan(
        tracer,
        parent,
        &planner,
        Combo::ZIPF_SLF,
        setup.capacity_demand(),
    )?;
    let pod = setup.cluster(storage_degree);
    Ok(World {
        catalog: Catalog::fixed_rate(setup.n_videos * PODS, setup.bitrate, setup.duration_s)?,
        cluster: ClusterSpec::homogeneous(setup.n_servers * PODS, pod.servers()[0])?,
        layout: tile_layout(&vec![layout; PODS])?,
    })
}

/// Offered load of the pod workloads, as a share of each pod's capacity.
const POD_LOAD: f64 = 0.85;

/// `pods_overload`: per-pod Poisson/Zipf(θ = 1) traffic at 85% of
/// capacity through A-6's pipeline — queue-or-degrade with 30 s patience,
/// three retries, stochastic brownouts and resume-or-degrade failover.
fn pods_overload(
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Inputs, Box<dyn Error>> {
    let setup = PaperSetup::default();
    let world = paper_pods(&setup, 1.2, 1.2, tracer, parent)?;
    let pop = setup.popularity(1.0)?;
    let generator = TraceGenerator::new(
        POD_LOAD * setup.capacity_lambda_per_min(),
        &pop,
        setup.horizon_min,
    )?;
    let mut inputs = Inputs::new(vec![world]);
    for r in 0..OVERLOAD_REPS {
        let (trace, _) = tracer.time("workload.build", parent, |_| {
            let pods: Vec<Trace> = (0..PODS as u64)
                .map(|p| generator.generate(&mut rng(seed, &[TRAFFIC, r, p])))
                .collect();
            tile_traces(&pods)
        });
        let config = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            horizon_min: setup.horizon_min,
            admission: AdmissionConfig {
                policy: QueuePolicy::QueueOrDegrade { patience_min: 0.5 },
                max_retries: 3,
                seed: mix(WORLD_SEED, &[ADMISSION, r]),
                ..AdmissionConfig::default()
            },
            failure_model: Some(FailureModel::brownouts_only(
                BrownoutModel {
                    mtbf_min: 45.0,
                    mttr_min: 10.0,
                    min_capacity_frac: 0.3,
                    max_capacity_frac: 0.7,
                },
                mix(WORLD_SEED, &[FAULTS, r]),
            )),
            failover: FailoverPolicy::ResumeOrDegrade,
            ..SimConfig::default()
        };
        inputs.push_run(Arrivals::Trace(trace?), config);
    }
    Ok(inputs)
}

/// `pods_drift`: per-pod A-7 drifting traffic (15 min rank-swap segments,
/// two flash crowds on each pod's coldest titles) at 85% load, on
/// degree-1.4 plans over degree-1.6 storage, with the online controller
/// (1 min tick), metered 200 Mbps repair, exponential faults (MTTR 15 min)
/// and resume failover. Repair and controller budgets are A-7's per pod.
fn pods_drift(
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Inputs, Box<dyn Error>> {
    let setup = PaperSetup::default();
    let world = paper_pods(&setup, 1.4, 1.6, tracer, parent)?;
    let pop = setup.popularity(1.0)?;
    let m = setup.n_videos as u32;
    let lambda = POD_LOAD * setup.capacity_lambda_per_min();
    let mut inputs = Inputs::new(vec![world]);
    for r in 0..DRIFT_REPS {
        let (trace, _) = tracer.time("workload.build", parent, |_| {
            let pods = (0..PODS as u64)
                .map(|p| {
                    DriftingWorkload::new(
                        pop.clone(),
                        setup.horizon_min,
                        15.0,
                        m,
                        mix(WORLD_SEED, &[DRIFT, r, p]),
                    )?
                    .with_flash_crowds(vec![
                        FlashCrowd {
                            at_min: 25.0,
                            video: VideoId(m - 1),
                            boost: 2.0,
                        },
                        FlashCrowd {
                            at_min: 55.0,
                            video: VideoId(m - 2),
                            boost: 1.5,
                        },
                    ])?
                    .generate(lambda, &mut rng(seed, &[TRAFFIC, r, p]))
                })
                .collect::<Result<Vec<_>, _>>()?;
            tile_traces(&pods)
        });
        let config = SimConfig {
            policy: AdmissionPolicy::LeastLoadedReplica,
            horizon_min: setup.horizon_min,
            // The controller's QoS guard backs off while any server is
            // down, cluster-wide. A-7's per-server MTBF of 180 min would
            // keep one of 256 servers down on nearly every tick, so the
            // cluster fails at one A-7 cluster's rate instead: the guard
            // then forfeits about every other tick, as in A-7.
            failure_model: Some(FailureModel::exponential(
                180.0 * PODS as f64,
                15.0,
                mix(WORLD_SEED, &[FAULTS, r]),
            )),
            repair: RepairConfig {
                bandwidth_kbps: 200_000,
                max_concurrent: 8 * PODS,
            },
            controller: ControllerConfig {
                tick_min: 1.0,
                ewma_window_ticks: 6,
                cooldown_ticks: 12,
                max_changes_per_tick: 8 * PODS,
                ..ControllerConfig::default()
            },
            failover: FailoverPolicy::Resume,
            ..SimConfig::default()
        };
        inputs.push_run(Arrivals::Trace(trace?), config);
    }
    Ok(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_experiments::runner::build_plan;
    use vod_sim::ShardPlan;

    fn quiet() -> Tracer {
        Tracer::new(String::new(), false)
    }

    fn assert_pod_local(world: &World) {
        let n = world.layout.n_servers() / PODS;
        for v in 0..world.layout.n_videos() {
            let pod = v % PODS;
            for s in world.layout.replicas_of(VideoId(v as u32)) {
                assert_eq!(
                    s.index() / n,
                    pod,
                    "title {v} has a replica outside pod {pod}"
                );
            }
        }
        assert_eq!(ShardPlan::decoupled(&world.layout, 2).n_shards, 2);
    }

    #[test]
    fn tiled_worlds_keep_titles_in_their_pod_and_split_in_two() {
        let setup = PaperSetup::default();
        assert_pod_local(&paper_pods(&setup, 1.2, 1.2, &quiet(), None).unwrap());
        assert_pod_local(&paper_pods(&setup, 1.4, 1.6, &quiet(), None).unwrap());
        let scale = ScaleWorld::production(2);
        let world = scale_world(&scale, &quiet(), None).unwrap();
        assert_eq!(world.layout.n_servers(), scale.setup.n_servers);
        assert_eq!(world.layout.n_videos(), scale.setup.n_videos);
        assert_pod_local(&world);
    }

    #[test]
    fn each_pod_holds_the_untiled_paper_plan() {
        let setup = PaperSetup::default();
        for (plan_degree, storage_degree) in [(1.2, 1.2), (1.4, 1.6)] {
            let paper = build_plan(&setup, Combo::ZIPF_SLF, 1.0, plan_degree).unwrap();
            let world = paper_pods(&setup, plan_degree, storage_degree, &quiet(), None).unwrap();
            let n = setup.n_servers as u32;
            for p in 0..PODS {
                for i in 0..setup.n_videos {
                    let local: Vec<ServerId> = world
                        .layout
                        .replicas_of(VideoId(global_title(p, i) as u32))
                        .iter()
                        .map(|s| ServerId(s.0 - p as u32 * n))
                        .collect();
                    assert_eq!(local, paper.plan.layout.replicas_of(VideoId(i as u32)));
                }
            }
        }
    }

    #[test]
    fn timed_planning_matches_the_planner() {
        let setup = PaperSetup::default();
        for theta in setup.thetas() {
            for (combo, degree) in paper_grid(&setup) {
                let planner = paper_planner(&setup, theta, degree).unwrap();
                let ours = plan(&quiet(), None, &planner, combo, setup.capacity_demand()).unwrap();
                let theirs = build_plan(&setup, combo, theta, degree).unwrap();
                assert_eq!(
                    ours,
                    theirs.plan.layout,
                    "{} at degree {degree}",
                    combo.label()
                );
            }
        }
    }

    fn traces(inputs: &Inputs) -> Vec<&Trace> {
        inputs
            .arrivals
            .iter()
            .map(|a| match a {
                Arrivals::Trace(t) => t,
                Arrivals::Stream(_) => panic!("batch workload streamed"),
            })
            .collect()
    }

    #[test]
    fn the_seed_changes_the_traces_but_not_the_world() {
        let telemetry = Telemetry::disabled();
        for workload in [
            Workload::PaperFigs,
            Workload::PodsOverload,
            Workload::PodsDrift,
        ] {
            let a = build(workload, 1, &quiet(), None, &telemetry).unwrap();
            let b = build(workload, 2, &quiet(), None, &telemetry).unwrap();
            let again = build(workload, 1, &quiet(), None, &telemetry).unwrap();
            let world = |i: &Inputs| {
                let w: Vec<_> = i
                    .worlds
                    .iter()
                    .map(|w| (&w.catalog, &w.cluster, &w.layout))
                    .collect();
                let runs: Vec<_> = i.runs.iter().map(|r| (r.config, r.arrivals)).collect();
                (format!("{w:?}"), format!("{:?}", i.configs), runs)
            };
            assert_eq!(world(&a), world(&b), "{}", workload.name());
            assert_eq!(traces(&a), traces(&again), "{}", workload.name());
            for (x, y) in traces(&a).into_iter().zip(traces(&b)) {
                assert_ne!(x, y, "{}", workload.name());
            }
        }
    }

    #[test]
    fn tiled_traces_merge_in_arrival_order_with_global_titles() {
        let req = |t: f64, v: u32| Request {
            arrival_min: t,
            video: VideoId(v),
        };
        let mut pods = vec![Trace::new(vec![]).unwrap(); PODS];
        pods[0] = Trace::new(vec![req(1.0, 0), req(3.0, 2)]).unwrap();
        pods[5] = Trace::new(vec![req(1.0, 1), req(2.0, 0)]).unwrap();
        let merged = tile_traces(&pods).unwrap();
        let got: Vec<(f64, u32)> = merged
            .requests()
            .iter()
            .map(|r| (r.arrival_min, r.video.0))
            .collect();
        let p = PODS as u32;
        assert_eq!(got, [(1.0, 0), (1.0, p + 5), (2.0, 5), (3.0, 2 * p)]);
    }
}
