//! Property-based suites for the paper's theorems and the substrate
//! invariants (proptest).

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vod_model::{load, Popularity};
use vod_placement::traits::PlacementInput;
use vod_placement::{PlacementPolicy, RoundRobinPlacement, SmallestLoadFirstPlacement};
use vod_replication::adams::brute_force_optimum;
use vod_replication::zipf_interval::ZipfIntervalReplication;
use vod_replication::{BoundedAdamsReplication, ReplicationPolicy};

/// Arbitrary popularity vectors: 2..=8 positive weights.
fn popularity_strategy() -> impl Strategy<Value = Popularity> {
    prop::collection::vec(0.01f64..100.0, 2..=8)
        .prop_map(|w| Popularity::from_weights(&w).expect("positive weights"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 4.1: bounded Adams minimizes max_i p_i / r_i, verified by
    /// exhaustive enumeration on small instances.
    #[test]
    fn adams_is_optimal(
        pop in popularity_strategy(),
        n_servers in 2usize..=4,
        extra in 0u64..=6,
    ) {
        let m = pop.len() as u64;
        let budget = (m + extra).min(m * n_servers as u64);
        let scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, budget)
            .expect("valid inputs");
        let achieved = scheme.max_weight(&pop, 1.0).expect("weights");
        let optimal = brute_force_optimum(&pop, n_servers, budget)
            .expect("budget within range");
        prop_assert!(
            (achieved - optimal).abs() < 1e-12,
            "adams {achieved} vs optimum {optimal}"
        );
    }

    /// Theorem 4.2: smallest-load-first keeps Eq. (2) imbalance within
    /// max w − min w. The theorem's proof deals replicas in complete
    /// rounds of N ("for each of C iterations … select N replicas"), so
    /// it applies to schemes whose total is a multiple of N — the paper's
    /// saturated-storage setting Σ r_i = N·C. (A partial final round is a
    /// real counterexample: some servers receive nothing in it, and the
    /// deviation from the mean can exceed the spread.)
    #[test]
    fn slf_respects_theorem_4_2(
        pop in popularity_strategy(),
        n_servers in 2usize..=5,
        extra in 0u64..=8,
        demand in 1.0f64..10_000.0,
    ) {
        let m = pop.len() as u64;
        let n = n_servers as u64;
        // Round the budget up to a full multiple of N, capped at N·M
        // (itself a multiple of N).
        let budget = ((m + extra).div_ceil(n) * n).min(m * n);
        let scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, budget)
            .expect("valid inputs");
        let weights = scheme.weights(&pop, demand).expect("weights");
        let per_server = budget / n; // exact: homogeneous full rounds
        let capacities = vec![per_server; n_servers];
        let layout = SmallestLoadFirstPlacement
            .place(&PlacementInput {
                scheme: &scheme,
                weights: &weights,
                n_servers,
                capacities: &capacities,
            })
            .expect("placeable");
        let loads = layout.loads(&weights).expect("loads");
        let spread = scheme.weight_spread(&pop, demand).expect("weights");
        prop_assert!(
            load::max_deviation(&loads) <= spread + 1e-9,
            "L = {} > bound {}",
            load::max_deviation(&loads),
            spread
        );
    }

    /// Lemma 4.1: the Zipf-interval classification total is non-decreasing
    /// in the interval parameter u.
    #[test]
    fn zipf_interval_total_monotone(
        m in 2usize..60,
        theta in 0.0f64..1.5,
        n_servers in 2usize..=10,
    ) {
        let pop = Popularity::zipf(m, theta).expect("valid zipf");
        let mut prev = 0u64;
        for step in -12..=12 {
            let u = step as f64 * 0.5;
            let total: u64 = ZipfIntervalReplication::assign(u, &pop, n_servers)
                .replicas
                .iter()
                .map(|&r| r as u64)
                .sum();
            prop_assert!(total >= prev, "u = {u}: {total} < {prev}");
            prev = total;
        }
    }

    /// Constraint (6)/(7) invariants hold for every placement policy on
    /// every feasible instance.
    #[test]
    fn placements_satisfy_structural_constraints(
        pop in popularity_strategy(),
        n_servers in 2usize..=5,
        extra in 0u64..=8,
        use_slf in any::<bool>(),
    ) {
        let m = pop.len() as u64;
        let budget = (m + extra).min(m * n_servers as u64);
        let scheme = BoundedAdamsReplication
            .replicate(&pop, n_servers, budget)
            .expect("valid inputs");
        let weights = scheme.weights(&pop, 100.0).expect("weights");
        let per_server = (budget as usize).div_ceil(n_servers) as u64 + 1;
        let capacities = vec![per_server; n_servers];
        let input = PlacementInput {
            scheme: &scheme,
            weights: &weights,
            n_servers,
            capacities: &capacities,
        };
        let layout = if use_slf {
            SmallestLoadFirstPlacement.place(&input)
        } else {
            RoundRobinPlacement.place(&input)
        }
        .expect("placeable");
        // Layout::new enforced (6)/(7); re-check externally plus capacity.
        prop_assert_eq!(layout.scheme(), scheme);
        for (j, &count) in layout.replicas_per_server().iter().enumerate() {
            prop_assert!(count as u64 <= capacities[j]);
        }
    }

    /// The replication budget is consumed exactly whenever it's within
    /// [M, N·M], by all exact-fill policies.
    #[test]
    fn budgets_consumed_exactly(
        pop in popularity_strategy(),
        n_servers in 2usize..=5,
        extra in 0u64..=10,
    ) {
        let m = pop.len() as u64;
        let budget = (m + extra).min(m * n_servers as u64);
        for scheme in [
            BoundedAdamsReplication.replicate(&pop, n_servers, budget).unwrap(),
            ZipfIntervalReplication::default().replicate(&pop, n_servers, budget).unwrap(),
        ] {
            prop_assert_eq!(scheme.total(), budget);
            prop_assert!(scheme.validate(n_servers).is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulator conservation laws under random workloads: every arrival
    /// is admitted or rejected, bandwidth is never exceeded (debug
    /// assertions inside), and the report is internally consistent.
    #[test]
    fn simulator_conserves_requests(
        seed in any::<u64>(),
        lambda in 1.0f64..80.0,
        theta in 0.0f64..1.2,
        slots in 4u64..12,
    ) {
        use vod_core::prelude::*;
        let m = 24;
        let planner = ClusterPlanner::builder()
            .catalog(Catalog::paper_default(m).unwrap())
            .cluster(ClusterSpec::paper_default(slots))
            .popularity(Popularity::zipf(m, theta).unwrap())
            .demand_requests(1_000.0)
            .build()
            .unwrap();
        let plan = planner
            .plan(ReplicationAlgo::Adams, PlacementAlgo::SmallestLoadFirst)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let report = planner
            .simulate(&plan, lambda, SimConfig::default(), &mut rng)
            .unwrap();
        prop_assert!(report.is_conservative());
        prop_assert!(report.rejection_rate >= 0.0 && report.rejection_rate <= 1.0);
        // The cluster can never stream more than its link capacity.
        prop_assert!(report.peak_concurrent_streams <= 8 * 450);
    }

    /// The alias sampler never emits an index with zero weight and covers
    /// every index with positive weight given enough draws.
    #[test]
    fn alias_sampler_support_is_exact(
        weights in prop::collection::vec(0u32..3, 2..10),
        seed in any::<u64>(),
    ) {
        let weights: Vec<f64> = weights.into_iter().map(f64::from).collect();
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = vod_workload::AliasTable::new(&weights).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut seen = vec![false; weights.len()];
        for _ in 0..2_000 {
            let i = table.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
            seen[i] = true;
        }
        for (i, (&w, &s)) in weights.iter().zip(&seen).enumerate() {
            if w >= 1.0 && weights.len() <= 8 {
                prop_assert!(s, "index {i} (weight {w}) never sampled in 2000 draws");
            }
        }
    }
}
