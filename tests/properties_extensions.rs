//! Property suites for the extension modules: multi-rate annealing,
//! incremental placement, failure plans, drift models, and the
//! rank/identity permutation machinery.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_anneal::{AnnealProblem, MultiRateProblem};
use vod_model::{BitRate, ClusterSpec, ObjectiveWeights, Popularity, ServerSpec};
use vod_placement::traits::PlacementInput;
use vod_placement::{IncrementalPlacement, PlacementPolicy, SmallestLoadFirstPlacement};
use vod_replication::{BoundedAdamsReplication, ReplicationPolicy};
use vod_workload::drift::{DriftModel, RankRotation};

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..10.0, 3..=10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ranked_from_weights` is a true permutation: un-permuting the
    /// ranked probabilities recovers the normalized input.
    #[test]
    fn ranked_from_weights_roundtrip(weights in weights_strategy()) {
        let (pop, ranks) = Popularity::ranked_from_weights(&weights).unwrap();
        // ranks is a permutation of 0..M.
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..weights.len()).collect::<Vec<_>>());
        // Un-permute and compare.
        let total: f64 = weights.iter().sum();
        for (rank, &v) in ranks.iter().enumerate() {
            prop_assert!((pop.get(rank) - weights[v] / total).abs() < 1e-12);
        }
        // Rank order is non-increasing.
        prop_assert!(pop.p().windows(2).all(|w| w[0] >= w[1] - 1e-15));
    }

    /// Rank rotation conserves the multiset of masses and total mass.
    #[test]
    fn rotation_is_mass_preserving(
        m in 3usize..40,
        theta in 0.0f64..1.2,
        step in 1usize..10,
        day in 0u32..50,
    ) {
        let base = Popularity::zipf(m, theta).unwrap();
        let model = RankRotation::new(base.clone(), step).unwrap();
        let w = model.weights(day);
        prop_assert_eq!(w.len(), m);
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (a, b) in sorted.iter().zip(base.p()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Incremental placement with an unchanged scheme is always a no-op
    /// (zero migration), for any Adams scheme over any popularity.
    #[test]
    fn incremental_identity_is_free(
        weights in weights_strategy(),
        n_servers in 2usize..=5,
        extra in 0u64..=6,
    ) {
        let pop = Popularity::from_weights(&weights).unwrap();
        let m = pop.len() as u64;
        let n = n_servers as u64;
        let budget = ((m + extra).div_ceil(n) * n).min(m * n);
        let scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, budget)
            .unwrap();
        let w = scheme.weights(&pop, 100.0).unwrap();
        let caps = vec![budget / n; n_servers];
        let input = PlacementInput {
            scheme: &scheme,
            weights: &w,
            n_servers,
            capacities: &caps,
        };
        let old = SmallestLoadFirstPlacement.place(&input).unwrap();
        let new = IncrementalPlacement::from_previous(old.clone())
            .place(&input)
            .unwrap();
        prop_assert_eq!(IncrementalPlacement::migration_cost(&old, &new), 0);
        prop_assert_eq!(new.scheme(), scheme);
    }

    /// Incremental placement always realizes the requested scheme within
    /// capacity, even when the scheme changes arbitrarily.
    #[test]
    fn incremental_realizes_new_scheme(
        weights in weights_strategy(),
        n_servers in 2usize..=5,
        extra_old in 0u64..=5,
        extra_new in 0u64..=5,
    ) {
        let pop = Popularity::from_weights(&weights).unwrap();
        let m = pop.len() as u64;
        let n = n_servers as u64;
        let budget = |extra: u64| ((m + extra).div_ceil(n) * n).min(m * n);
        let (b_old, b_new) = (budget(extra_old), budget(extra_new));
        let caps_for = |b: u64| vec![b / n + 1; n_servers]; // slack slot

        let old_scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, b_old)
            .unwrap();
        let w_old = old_scheme.weights(&pop, 100.0).unwrap();
        let caps_old = caps_for(b_old.max(b_new));
        let old = SmallestLoadFirstPlacement
            .place(&PlacementInput {
                scheme: &old_scheme,
                weights: &w_old,
                n_servers,
                capacities: &caps_old,
            })
            .unwrap();

        let new_scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, b_new)
            .unwrap();
        let w_new = new_scheme.weights(&pop, 100.0).unwrap();
        let layout = IncrementalPlacement::from_previous(old)
            .place(&PlacementInput {
                scheme: &new_scheme,
                weights: &w_new,
                n_servers,
                capacities: &caps_old,
            })
            .unwrap();
        prop_assert_eq!(layout.scheme(), new_scheme);
        for (j, &c) in layout.replicas_per_server().iter().enumerate() {
            prop_assert!(c as u64 <= caps_old[j]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Multi-rate neighborhood walks preserve every constraint from any
    /// feasible start, across random problem shapes.
    #[test]
    fn multirate_walk_stays_feasible(
        m in 6usize..16,
        theta in 0.2f64..1.2,
        seed in any::<u64>(),
    ) {
        let low_bytes = BitRate::LADDER[0].storage_bytes(5_400);
        let problem = MultiRateProblem::new(
            Popularity::zipf(m, theta).unwrap(),
            ClusterSpec::homogeneous(
                4,
                ServerSpec {
                    storage_bytes: (m as u64) * low_bytes, // ~4x single-copy
                    bandwidth_kbps: 1_800_000,
                },
            )
            .unwrap(),
            5_400,
            BitRate::LADDER.to_vec(),
            1_000.0,
            ObjectiveWeights::default(),
            false,
        )
        .unwrap();
        let mut search = problem.initial_search();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..150 {
            // Commit every move that can be made feasible (no Metropolis
            // test); `apply` refuses the rest.
            if let Some(mv) = problem.propose_move(&mut search, &mut rng) {
                problem.apply(&mut search, &mv);
            }
            let state = search.state();
            prop_assert!(problem.is_feasible(state));
            // Constraint (7) and distinctness per video.
            for reps in &state.replicas {
                prop_assert!(!reps.is_empty() && reps.len() <= 4);
                let mut servers: Vec<_> = reps.iter().map(|r| r.server).collect();
                servers.sort();
                servers.dedup();
                prop_assert_eq!(servers.len(), reps.len());
            }
        }
    }

    /// Simulator with random failure plans conserves requests and never
    /// reports more disruptions than admissions.
    #[test]
    fn failures_never_break_conservation(
        seed in any::<u64>(),
        down_at in 1.0f64..80.0,
        duration in prop::option::of(1.0f64..40.0),
        victim in 0u32..8,
    ) {
        use vod_core::prelude::*;
        use vod_sim::{FailurePlan, Outage};
        let m = 24;
        let planner = ClusterPlanner::builder()
            .catalog(Catalog::paper_default(m).unwrap())
            .cluster(ClusterSpec::paper_default(6))
            .popularity(Popularity::zipf(m, 1.0).unwrap())
            .demand_requests(1_000.0)
            .build()
            .unwrap();
        let plan = planner
            .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        let failures = FailurePlan::new(vec![Outage {
            server: vod_model::ServerId(victim),
            down_at_min: down_at,
            up_at_min: duration.map(|d| down_at + d),
        }])
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = TraceGenerator::new(30.0, planner.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng);
        let config = SimConfig {
            failures,
            ..SimConfig::default()
        };
        let report = Simulation::new(planner.catalog(), planner.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap();
        prop_assert!(report.is_conservative());
        prop_assert!(report.disrupted <= report.admitted);
    }

    /// Random overload policies (patience, retries, degradation) under
    /// random brownout schedules conserve every request and keep goodput
    /// in [0, 1]. `audit: true` has the runtime invariant auditor check
    /// request conservation and bandwidth/storage non-negativity after
    /// every event — an `Err` from `run` fails the property.
    #[test]
    fn overload_and_brownouts_never_break_conservation(
        seed in any::<u64>(),
        patience in 0.0f64..3.0,
        retries in 0u32..4,
        degrades in any::<bool>(),
        lambda in 10.0f64..60.0,
        bo_mtbf in 20.0f64..80.0,
        bo_mttr in 2.0f64..20.0,
        frac in 0.2f64..0.85,
    ) {
        use vod_core::prelude::*;
        use vod_sim::{AdmissionConfig, BrownoutModel, FailoverPolicy, FailureModel, QueuePolicy};
        let m = 24;
        let planner = ClusterPlanner::builder()
            .catalog(Catalog::paper_default(m).unwrap())
            .cluster(ClusterSpec::paper_default(8)) // degree ~2: replicas exist
            .popularity(Popularity::zipf(m, 1.0).unwrap())
            .demand_requests(1_000.0)
            .build()
            .unwrap();
        let plan = planner
            .plan(ReplicationAlgo::ZipfInterval, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = TraceGenerator::new(lambda, planner.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng);
        let config = SimConfig {
            policy: AdmissionPolicy::RoundRobinFailover,
            failure_model: Some(FailureModel::brownouts_only(
                BrownoutModel {
                    mtbf_min: bo_mtbf,
                    mttr_min: bo_mttr,
                    min_capacity_frac: frac,
                    max_capacity_frac: (frac + 0.1).min(1.0),
                },
                seed,
            )),
            failover: FailoverPolicy::ResumeOrDegrade,
            admission: AdmissionConfig {
                policy: if degrades {
                    QueuePolicy::QueueOrDegrade { patience_min: patience }
                } else {
                    QueuePolicy::Queue { patience_min: patience }
                },
                max_retries: retries,
                seed,
                ..AdmissionConfig::default()
            },
            audit: true,
            ..SimConfig::default()
        };
        let report = Simulation::new(planner.catalog(), planner.cluster(), &plan.layout, config)
            .unwrap()
            .run(&trace)
            .unwrap();
        prop_assert!(report.is_conservative());
        prop_assert!(report.goodput >= 0.0 && report.goodput <= 1.0 + 1e-9, "{}", report.goodput);
        prop_assert!(report.degraded_served <= report.admitted);
    }

    /// A passive admission config — zero patience, zero retries — is
    /// byte-identical to the default blocking engine for any workload
    /// seed and any (inert) admission seed.
    #[test]
    fn passive_pipeline_matches_block_for_any_seed(
        seed in any::<u64>(),
        admission_seed in any::<u64>(),
        lambda in 10.0f64..60.0,
    ) {
        use vod_core::prelude::*;
        use vod_sim::{AdmissionConfig, QueuePolicy};
        let m = 24;
        let planner = ClusterPlanner::builder()
            .catalog(Catalog::paper_default(m).unwrap())
            .cluster(ClusterSpec::paper_default(5))
            .popularity(Popularity::zipf(m, 1.0).unwrap())
            .demand_requests(1_000.0)
            .build()
            .unwrap();
        let plan = planner
            .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = TraceGenerator::new(lambda, planner.popularity(), 90.0)
            .unwrap()
            .generate(&mut rng);
        let run = |admission: AdmissionConfig| {
            let config = SimConfig { admission, ..SimConfig::default() };
            let report = Simulation::new(planner.catalog(), planner.cluster(), &plan.layout, config)
                .unwrap()
                .run(&trace)
                .unwrap();
            serde_json::to_string(&report).unwrap()
        };
        let block = run(AdmissionConfig::default());
        let passive_queue = run(AdmissionConfig {
            policy: QueuePolicy::Queue { patience_min: 0.0 },
            seed: admission_seed,
            ..AdmissionConfig::default()
        });
        prop_assert_eq!(block, passive_queue);
    }
}
