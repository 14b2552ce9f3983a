//! The end-to-end planning pipeline.
//!
//! `popularity → replication scheme → placement layout → predicted
//! bounds`, with an optional simulation step to measure what the plan
//! actually does under a Poisson/Zipf workload.

use rand::Rng;
use serde::{Deserialize, Serialize};
use vod_model::{load, Catalog, ClusterSpec, Layout, ModelError, Popularity, ReplicationScheme};
use vod_placement::traits::PlacementInput;
use vod_placement::{PlacementPolicy, RoundRobinPlacement, SmallestLoadFirstPlacement};
use vod_replication::{
    BoundedAdamsReplication, ClassificationReplication, ReplicationPolicy, UniformReplication,
    ZipfIntervalReplication,
};
use vod_sim::{SimConfig, SimReport, Simulation};
use vod_workload::TraceGenerator;

/// Which replication algorithm the planner runs (paper, Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationAlgo {
    /// Bounded Adams monotone divisor — optimal (Theorem 4.1).
    Adams,
    /// Zipf-interval approximation — O(M log M) (Lemma 4.1).
    ZipfInterval,
    /// Rank-class baseline.
    Classification,
    /// Popularity-blind even spreading.
    Uniform,
}

/// Which placement algorithm the planner runs (paper, Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementAlgo {
    /// Weight-blind cyclic dealing.
    RoundRobin,
    /// Algorithm 1 — greedy by load, bounded by Theorem 4.2.
    SmallestLoadFirst,
}

impl ReplicationAlgo {
    /// Stable identifier for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplicationAlgo::Adams => "adams",
            ReplicationAlgo::ZipfInterval => "zipf",
            ReplicationAlgo::Classification => "class",
            ReplicationAlgo::Uniform => "uniform",
        }
    }

    /// Runs the selected policy.
    pub fn replicate(
        self,
        pop: &Popularity,
        n_servers: usize,
        total_slots: u64,
    ) -> Result<ReplicationScheme, ModelError> {
        match self {
            ReplicationAlgo::Adams => {
                BoundedAdamsReplication.replicate(pop, n_servers, total_slots)
            }
            ReplicationAlgo::ZipfInterval => {
                ZipfIntervalReplication::default().replicate(pop, n_servers, total_slots)
            }
            ReplicationAlgo::Classification => {
                ClassificationReplication.replicate(pop, n_servers, total_slots)
            }
            ReplicationAlgo::Uniform => UniformReplication.replicate(pop, n_servers, total_slots),
        }
    }
}

impl PlacementAlgo {
    /// Stable identifier for reports.
    pub fn name(self) -> &'static str {
        match self {
            PlacementAlgo::RoundRobin => "rr",
            PlacementAlgo::SmallestLoadFirst => "slf",
        }
    }

    /// Runs the selected policy.
    pub fn place(self, input: &PlacementInput<'_>) -> Result<Layout, ModelError> {
        match self {
            PlacementAlgo::RoundRobin => RoundRobinPlacement.place(input),
            PlacementAlgo::SmallestLoadFirst => SmallestLoadFirstPlacement.place(input),
        }
    }
}

/// A complete plan plus its predicted quality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Plan {
    /// Per-video replica counts.
    pub scheme: ReplicationScheme,
    /// Replica-to-server mapping.
    pub layout: Layout,
    /// Per-replica expected communication weights (`p_i·λT/r_i`,
    /// requests per replica in the peak period).
    pub weights: Vec<f64>,
    /// Expected per-server loads (sum of hosted weights).
    pub expected_loads: Vec<f64>,
    /// Theorem 4.2 bound on the Eq. (2) imbalance: `max w − min w`.
    pub imbalance_bound: f64,
    /// Measured static Eq. (2) imbalance of the expected loads.
    pub measured_imbalance_eq2: f64,
    /// Measured static Eq. (3) imbalance (coefficient of variation).
    pub measured_imbalance_cv: f64,
}

/// Planner inputs; build with [`ClusterPlanner::builder`].
#[derive(Debug, Clone)]
pub struct ClusterPlanner {
    catalog: Catalog,
    cluster: ClusterSpec,
    popularity: Popularity,
    demand_requests: f64,
}

/// Builder for [`ClusterPlanner`].
#[derive(Debug, Clone, Default)]
pub struct ClusterPlannerBuilder {
    catalog: Option<Catalog>,
    cluster: Option<ClusterSpec>,
    popularity: Option<Popularity>,
    demand_requests: Option<f64>,
}

impl ClusterPlannerBuilder {
    /// Sets the video catalog (must be fixed-rate for planning).
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Sets the cluster specification.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Sets the (known a-priori) popularity distribution.
    pub fn popularity(mut self, popularity: Popularity) -> Self {
        self.popularity = Some(popularity);
        self
    }

    /// Sets the expected peak-period demand `λT` in requests.
    pub fn demand_requests(mut self, demand: f64) -> Self {
        self.demand_requests = Some(demand);
        self
    }

    /// Validates and builds.
    pub fn build(self) -> Result<ClusterPlanner, ModelError> {
        let catalog = self.catalog.ok_or(ModelError::Empty)?;
        let cluster = self.cluster.ok_or(ModelError::Empty)?;
        let popularity = self.popularity.ok_or(ModelError::Empty)?;
        let demand_requests = self.demand_requests.unwrap_or(0.0);
        if popularity.len() != catalog.len() {
            return Err(ModelError::LengthMismatch {
                expected: catalog.len(),
                actual: popularity.len(),
            });
        }
        if !catalog.is_fixed_rate() {
            return Err(ModelError::InvalidParameter {
                name: "catalog (fixed-rate planning requires one bit rate)",
                value: 0.0,
            });
        }
        if !demand_requests.is_finite() || demand_requests <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "demand_requests",
                value: demand_requests,
            });
        }
        Ok(ClusterPlanner {
            catalog,
            cluster,
            popularity,
            demand_requests,
        })
    }
}

impl ClusterPlanner {
    /// Starts a builder.
    pub fn builder() -> ClusterPlannerBuilder {
        ClusterPlannerBuilder::default()
    }

    /// The bound catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The bound cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The bound popularity distribution.
    pub fn popularity(&self) -> &Popularity {
        &self.popularity
    }

    /// Per-server storage capacities in replica slots for the (fixed)
    /// catalog rate.
    pub fn replica_capacities(&self) -> Vec<u64> {
        let video = &self.catalog.videos()[0];
        self.cluster
            .servers()
            .iter()
            .map(|s| s.replica_slots(video.bitrate, video.duration_s))
            .collect()
    }

    /// Runs the full pipeline with the chosen algorithms.
    pub fn plan(
        &self,
        replication: ReplicationAlgo,
        placement: PlacementAlgo,
    ) -> Result<Plan, ModelError> {
        let capacities = self.replica_capacities();
        let total_slots: u64 = capacities.iter().sum();
        let scheme = replication.replicate(&self.popularity, self.cluster.len(), total_slots)?;
        let weights = scheme.weights(&self.popularity, self.demand_requests)?;
        let layout = placement.place(&PlacementInput {
            scheme: &scheme,
            weights: &weights,
            n_servers: self.cluster.len(),
            capacities: &capacities,
        })?;
        layout.validate_storage(&self.catalog, &self.cluster)?;
        let expected_loads = layout.loads(&weights)?;
        let imbalance_bound = scheme.weight_spread(&self.popularity, self.demand_requests)?;
        Ok(Plan {
            measured_imbalance_eq2: load::max_deviation(&expected_loads),
            measured_imbalance_cv: load::coefficient_of_variation(&expected_loads),
            scheme,
            layout: layout.clone(),
            weights,
            expected_loads,
            imbalance_bound,
        })
    }

    /// Simulates a plan under a fresh Poisson/Zipf trace at
    /// `lambda_per_min`, drawn over the run's `config.horizon_min`.
    pub fn simulate<R: Rng + ?Sized>(
        &self,
        plan: &Plan,
        lambda_per_min: f64,
        config: SimConfig,
        rng: &mut R,
    ) -> Result<SimReport, ModelError> {
        let generator = TraceGenerator::new(lambda_per_min, &self.popularity, config.horizon_min)?;
        let trace = generator.generate(rng);
        let sim = Simulation::new(&self.catalog, &self.cluster, &plan.layout, config)?;
        sim.run(&trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn planner() -> ClusterPlanner {
        ClusterPlanner::builder()
            .catalog(Catalog::paper_default(100).unwrap())
            .cluster(ClusterSpec::paper_default(20))
            .popularity(Popularity::zipf(100, 1.0).unwrap())
            .demand_requests(3_600.0)
            .build()
            .unwrap()
    }

    #[test]
    fn full_pipeline_produces_valid_plan() {
        let p = planner();
        for repl in [
            ReplicationAlgo::Adams,
            ReplicationAlgo::ZipfInterval,
            ReplicationAlgo::Classification,
            ReplicationAlgo::Uniform,
        ] {
            for plc in [PlacementAlgo::RoundRobin, PlacementAlgo::SmallestLoadFirst] {
                let plan = p.plan(repl, plc).unwrap();
                assert_eq!(plan.scheme.len(), 100);
                assert!(plan.scheme.validate(8).is_ok());
                assert_eq!(plan.expected_loads.len(), 8);
                // Storage: 20 slots per server, 160 total.
                assert!(plan.scheme.total() <= 160);
            }
        }
    }

    #[test]
    fn slf_meets_its_bound() {
        let p = planner();
        let plan = p
            .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        assert!(plan.measured_imbalance_eq2 <= plan.imbalance_bound + 1e-9);
    }

    #[test]
    fn slf_no_worse_than_round_robin_statically() {
        let p = planner();
        let slf = p
            .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        let rr = p
            .plan(ReplicationAlgo::Adams, PlacementAlgo::RoundRobin)
            .unwrap();
        assert!(slf.measured_imbalance_cv <= rr.measured_imbalance_cv + 1e-9);
    }

    #[test]
    fn simulation_roundtrip() {
        let p = planner();
        let plan = p
            .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let report = p
            .simulate(&plan, 20.0, SimConfig::default(), &mut rng)
            .unwrap();
        assert!(report.is_conservative());
        // λ=20/min is half the cluster's 40/min capacity: low rejections.
        assert!(report.rejection_rate < 0.2);
    }

    #[test]
    fn builder_validation() {
        assert!(ClusterPlanner::builder().build().is_err());
        let err = ClusterPlanner::builder()
            .catalog(Catalog::paper_default(10).unwrap())
            .cluster(ClusterSpec::paper_default(5))
            .popularity(Popularity::zipf(9, 1.0).unwrap())
            .demand_requests(10.0)
            .build();
        assert!(matches!(err, Err(ModelError::LengthMismatch { .. })));
        let err = ClusterPlanner::builder()
            .catalog(Catalog::paper_default(10).unwrap())
            .cluster(ClusterSpec::paper_default(5))
            .popularity(Popularity::zipf(10, 1.0).unwrap())
            .demand_requests(-1.0)
            .build();
        assert!(matches!(err, Err(ModelError::InvalidParameter { .. })));
    }

    #[test]
    fn algo_names_stable() {
        assert_eq!(ReplicationAlgo::Adams.name(), "adams");
        assert_eq!(ReplicationAlgo::ZipfInterval.name(), "zipf");
        assert_eq!(ReplicationAlgo::Classification.name(), "class");
        assert_eq!(ReplicationAlgo::Uniform.name(), "uniform");
        assert_eq!(PlacementAlgo::RoundRobin.name(), "rr");
        assert_eq!(PlacementAlgo::SmallestLoadFirst.name(), "slf");
    }
}
