//! Adaptive (run-time) re-replication across peak periods.
//!
//! "The replication algorithms can be applied for dynamic replication
//! during run-time" (paper, Sec. 4.1.2) — this module is that
//! application. Operation is day-structured: each day has one peak
//! period; before it starts the operator may re-plan the replication and
//! placement from a popularity *estimate*, paying a migration cost for
//! every replica that has to be copied to a new server. Three strategies
//! bracket the design space:
//!
//! * [`ReplanStrategy::Static`] — plan once from the prior and never
//!   touch it (the paper's setting, with its a-priori-knowledge
//!   assumption left to age);
//! * [`ReplanStrategy::Adaptive`] — re-plan daily from an exponentially
//!   smoothed empirical popularity (observed request counts);
//! * [`ReplanStrategy::Oracle`] — re-plan daily from the true next-day
//!   popularity (the upper bound).
//!
//! Identity bookkeeping: drifting demand is expressed per video id, the
//! planning algorithms work in rank space (`p_1 ≥ … ≥ p_M`), so each
//! re-plan ranks the estimate, plans, and un-permutes the layout back to
//! video-id space.

use crate::planner::{PlacementAlgo, ReplicationAlgo};
use rand::Rng;
use serde::{Deserialize, Serialize};
use vod_model::{Catalog, ClusterSpec, Layout, ModelError, Popularity, ServerId};
use vod_placement::traits::PlacementInput;
use vod_placement::{IncrementalPlacement, PlacementPolicy as _};
use vod_sim::{SimConfig, Simulation};
use vod_workload::drift::DriftModel;
use vod_workload::{stats, TraceGenerator};

/// How the estimate driving each day's plan is formed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplanStrategy {
    /// Plan from the day-0 prior, never re-plan.
    Static,
    /// Re-plan daily from smoothed observations;
    /// `smoothing` ∈ (0, 1] is the weight of the newest day.
    Adaptive {
        /// EWMA weight of the newest day's empirical frequencies.
        smoothing: f64,
    },
    /// Re-plan daily from the true popularity (upper bound).
    Oracle,
}

/// How each re-plan's placement treats the layout already on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReplanPlacement {
    /// Place from scratch with the configured placement algorithm
    /// (best balance, most migration).
    #[default]
    Fresh,
    /// Update the previous layout with migration-aware incremental
    /// placement (keeps existing replicas wherever the new scheme
    /// allows; slightly worse balance, far fewer copies). Balance decays
    /// as keeps anchor to ever-staler positions — see `Hybrid`.
    Incremental,
    /// Incremental placement with a full fresh rebalance every
    /// `rebalance_every` days — bounded migration *and* bounded decay.
    Hybrid {
        /// Days between full rebalances (≥ 1; 1 degenerates to `Fresh`).
        rebalance_every: u32,
    },
}

/// Configuration of the day-structured run.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Replication algorithm used at every (re-)plan.
    pub replication: ReplicationAlgo,
    /// Placement algorithm used at every (re-)plan.
    pub placement: PlacementAlgo,
    /// Whether re-plans place fresh or incrementally.
    pub replan_placement: ReplanPlacement,
    /// Estimation strategy.
    pub strategy: ReplanStrategy,
    /// Peak-period arrival rate, requests/min.
    pub lambda_per_min: f64,
    /// Peak-period length, minutes.
    pub horizon_min: f64,
}

/// One day's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayReport {
    /// Day index, 0-based.
    pub day: u32,
    /// Rejection rate during the peak period.
    pub rejection_rate: f64,
    /// Time-averaged Eq. (3) load imbalance.
    pub imbalance_cv: f64,
    /// Replicas copied to new servers relative to yesterday's layout
    /// (day 0 counts the initial full deployment).
    pub migrated_replicas: u64,
    /// Total-variation distance between the estimate the plan used and
    /// the day's true popularity (0 = perfect knowledge).
    pub estimate_tv: f64,
}

/// Day-structured adaptive replication runner.
#[derive(Debug, Clone)]
pub struct AdaptiveRunner {
    catalog: Catalog,
    cluster: ClusterSpec,
    prior_weights: Vec<f64>,
    demand_requests: f64,
    config: AdaptiveConfig,
}

impl AdaptiveRunner {
    /// Builds a runner. `prior_weights` is the day-0 popularity belief
    /// (per video id, any positive scale).
    pub fn new(
        catalog: Catalog,
        cluster: ClusterSpec,
        prior_weights: Vec<f64>,
        config: AdaptiveConfig,
    ) -> Result<Self, ModelError> {
        if prior_weights.len() != catalog.len() {
            return Err(ModelError::LengthMismatch {
                expected: catalog.len(),
                actual: prior_weights.len(),
            });
        }
        if !catalog.is_fixed_rate() {
            return Err(ModelError::InvalidParameter {
                name: "catalog (fixed-rate planning required)",
                value: 0.0,
            });
        }
        if let ReplanStrategy::Adaptive { smoothing } = config.strategy {
            if !(smoothing > 0.0 && smoothing <= 1.0) {
                return Err(ModelError::InvalidParameter {
                    name: "smoothing",
                    value: smoothing,
                });
            }
        }
        if !config.lambda_per_min.is_finite() || config.lambda_per_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "lambda_per_min",
                value: config.lambda_per_min,
            });
        }
        if let ReplanPlacement::Hybrid { rebalance_every } = config.replan_placement {
            if rebalance_every == 0 {
                return Err(ModelError::InvalidParameter {
                    name: "rebalance_every",
                    value: 0.0,
                });
            }
        }
        let demand_requests = config.lambda_per_min * config.horizon_min;
        Ok(AdaptiveRunner {
            catalog,
            cluster,
            prior_weights,
            demand_requests,
            config,
        })
    }

    /// The placement mode in effect on `day` (hybrid resolves to fresh on
    /// rebalance days).
    fn effective_mode(&self, day: u32) -> ReplanPlacement {
        match self.config.replan_placement {
            ReplanPlacement::Hybrid { rebalance_every } => {
                if day.is_multiple_of(rebalance_every) {
                    ReplanPlacement::Fresh
                } else {
                    ReplanPlacement::Incremental
                }
            }
            mode => mode,
        }
    }

    /// Plans a layout (in video-id space) from per-video-id weights,
    /// optionally updating `previous` incrementally (per the configured
    /// [`ReplanPlacement`]).
    pub fn plan_from_weights(&self, weights: &[f64]) -> Result<Layout, ModelError> {
        self.plan_from_weights_with(weights, None, 0)
    }

    /// Like [`Self::plan_from_weights`], on `day` of a run, with an
    /// explicit previous layout for incremental placement.
    fn plan_from_weights_with(
        &self,
        weights: &[f64],
        previous: Option<&Layout>,
        day: u32,
    ) -> Result<Layout, ModelError> {
        let (pop, ranks) = Popularity::ranked_from_weights(weights)?;
        let video0 = &self.catalog.videos()[0];
        let capacities: Vec<u64> = self
            .cluster
            .servers()
            .iter()
            .map(|s| s.replica_slots(video0.bitrate, video0.duration_s))
            .collect();
        let scheme =
            self.config
                .replication
                .replicate(&pop, self.cluster.len(), capacities.iter().sum())?;
        let rank_weights = scheme.weights(&pop, self.demand_requests)?;
        let input = PlacementInput {
            scheme: &scheme,
            weights: &rank_weights,
            n_servers: self.cluster.len(),
            capacities: &capacities,
        };
        let rank_layout = match (self.effective_mode(day), previous) {
            (ReplanPlacement::Incremental, Some(prev)) => {
                // Permute the previous layout into rank space so keeps
                // line up with the scheme the placement sees.
                let prev_rank: Vec<Vec<ServerId>> = ranks
                    .iter()
                    .map(|&v| prev.replicas_of(vod_model::VideoId(v as u32)).to_vec())
                    .collect();
                let prev_rank_layout = Layout::new(self.cluster.len(), prev_rank)?;
                IncrementalPlacement::from_previous(prev_rank_layout).place(&input)?
            }
            _ => self.config.placement.place(&input)?,
        };
        // Un-permute: rank r's assignment belongs to video ranks[r].
        let mut assignments: Vec<Vec<ServerId>> = vec![Vec::new(); self.catalog.len()];
        for (rank, servers) in rank_layout.assignments().iter().enumerate() {
            assignments[ranks[rank]] = servers.clone();
        }
        Layout::new(self.cluster.len(), assignments)
    }

    /// Runs `days` consecutive peak periods against `drift`, re-planning
    /// per the configured strategy. Deterministic given `rng`.
    pub fn run_days<D: DriftModel, R: Rng + ?Sized>(
        &self,
        drift: &D,
        days: u32,
        rng: &mut R,
    ) -> Result<Vec<DayReport>, ModelError> {
        if drift.n_videos() != self.catalog.len() {
            return Err(ModelError::LengthMismatch {
                expected: self.catalog.len(),
                actual: drift.n_videos(),
            });
        }
        let m = self.catalog.len();
        let mut reports = Vec::with_capacity(days as usize);
        let mut belief: Vec<f64> = normalize(&self.prior_weights);
        let static_layout = self.plan_from_weights(&belief)?;
        let mut previous_layout: Option<Layout> = None;

        for day in 0..days {
            let truth = drift.weights(day);
            let estimate: Vec<f64> = match self.config.strategy {
                ReplanStrategy::Static => normalize(&self.prior_weights),
                ReplanStrategy::Adaptive { .. } => belief.clone(),
                ReplanStrategy::Oracle => normalize(&truth),
            };
            let layout = match self.config.strategy {
                ReplanStrategy::Static => static_layout.clone(),
                _ => self.plan_from_weights_with(&estimate, previous_layout.as_ref(), day)?,
            };
            let migrated = match &previous_layout {
                Some(old) => IncrementalPlacement::migration_cost(old, &layout),
                None => layout.scheme().total(),
            };

            let generator = TraceGenerator::from_weights(
                self.config.lambda_per_min,
                &truth,
                self.config.horizon_min,
            )?;
            let trace = generator.generate(rng);
            let sim_config = SimConfig {
                horizon_min: self.config.horizon_min,
                ..SimConfig::default()
            };
            let report =
                Simulation::new(&self.catalog, &self.cluster, &layout, sim_config)?.run(&trace)?;

            // Update the belief from what was actually observed.
            if let ReplanStrategy::Adaptive { smoothing } = self.config.strategy {
                let total: u64 = report.per_video_arrivals.iter().sum();
                if total > 0 {
                    // Laplace-smoothed empirical frequencies: unseen
                    // videos keep a small positive share.
                    let denom = total as f64 + 0.5 * m as f64;
                    for (b, &count) in belief.iter_mut().zip(&report.per_video_arrivals) {
                        let freq = (count as f64 + 0.5) / denom;
                        *b = (1.0 - smoothing) * *b + smoothing * freq;
                    }
                    let b = normalize(&belief);
                    belief = b;
                }
            }

            reports.push(DayReport {
                day,
                rejection_rate: report.rejection_rate,
                imbalance_cv: report.mean_imbalance_cv,
                migrated_replicas: migrated,
                estimate_tv: stats::total_variation(&normalize(&estimate), &normalize(&truth)),
            });
            previous_layout = Some(layout);
        }
        Ok(reports)
    }
}

fn normalize(w: &[f64]) -> Vec<f64> {
    let total: f64 = w.iter().sum();
    w.iter().map(|&x| x / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vod_workload::drift::{RankRotation, Stationary};

    fn runner(strategy: ReplanStrategy) -> AdaptiveRunner {
        let m = 48;
        AdaptiveRunner::new(
            Catalog::paper_default(m).unwrap(),
            ClusterSpec::paper_default(9), // degree 1.5 over 8 servers
            Popularity::zipf(m, 1.0).unwrap().p().to_vec(),
            AdaptiveConfig {
                replication: ReplicationAlgo::Adams,
                placement: PlacementAlgo::SmallestLoadFirst,
                replan_placement: ReplanPlacement::Fresh,
                strategy,
                lambda_per_min: 40.0,
                horizon_min: 90.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn stationary_static_has_no_migration_after_day0() {
        let r = runner(ReplanStrategy::Static);
        let drift = Stationary::new(Popularity::zipf(48, 1.0).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let days = r.run_days(&drift, 4, &mut rng).unwrap();
        assert_eq!(days.len(), 4);
        assert!(days[0].migrated_replicas > 0, "initial deployment");
        for d in &days[1..] {
            assert_eq!(d.migrated_replicas, 0);
            assert!(d.estimate_tv < 1e-12, "prior is exact under no drift");
        }
    }

    #[test]
    fn oracle_tracks_drift_exactly() {
        let r = runner(ReplanStrategy::Oracle);
        let drift = RankRotation::new(Popularity::zipf(48, 1.0).unwrap(), 5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let days = r.run_days(&drift, 3, &mut rng).unwrap();
        for d in &days {
            assert!(d.estimate_tv < 1e-12);
        }
        // Re-planning under rotation moves replicas.
        assert!(days[1].migrated_replicas > 0);
    }

    #[test]
    fn adaptive_estimate_improves_over_static_under_drift() {
        let base = Popularity::zipf(48, 1.0).unwrap();
        let drift = RankRotation::new(base, 5).unwrap();
        let days = 6;

        let run = |strategy| {
            let r = runner(strategy);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            r.run_days(&drift, days, &mut rng).unwrap()
        };
        let static_days = run(ReplanStrategy::Static);
        let adaptive_days = run(ReplanStrategy::Adaptive { smoothing: 0.8 });

        // By the later days the adaptive estimate is much closer to the
        // truth than the stale prior.
        let late = (days - 1) as usize;
        assert!(
            adaptive_days[late].estimate_tv < static_days[late].estimate_tv,
            "adaptive tv {} vs static tv {}",
            adaptive_days[late].estimate_tv,
            static_days[late].estimate_tv
        );
    }

    #[test]
    fn incremental_replan_migrates_less_than_fresh() {
        let m = 48;
        let base = Popularity::zipf(m, 1.0).unwrap();
        let drift = RankRotation::new(base.clone(), 4).unwrap();
        let run = |mode: ReplanPlacement| {
            let r = AdaptiveRunner::new(
                Catalog::paper_default(m).unwrap(),
                ClusterSpec::paper_default(9),
                base.p().to_vec(),
                AdaptiveConfig {
                    replication: ReplicationAlgo::Adams,
                    placement: PlacementAlgo::SmallestLoadFirst,
                    replan_placement: mode,
                    strategy: ReplanStrategy::Oracle,
                    lambda_per_min: 30.0,
                    horizon_min: 90.0,
                },
            )
            .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            r.run_days(&drift, 5, &mut rng).unwrap()
        };
        let fresh: u64 = run(ReplanPlacement::Fresh)[1..]
            .iter()
            .map(|d| d.migrated_replicas)
            .sum();
        let incremental: u64 = run(ReplanPlacement::Incremental)[1..]
            .iter()
            .map(|d| d.migrated_replicas)
            .sum();
        assert!(
            incremental < fresh,
            "incremental {incremental} should migrate less than fresh {fresh}"
        );
        assert!(incremental > 0, "drift must force some movement");
    }

    #[test]
    fn hybrid_rebalances_on_cadence() {
        let m = 48;
        let base = Popularity::zipf(m, 1.0).unwrap();
        let drift = RankRotation::new(base.clone(), 4).unwrap();
        let runner = AdaptiveRunner::new(
            Catalog::paper_default(m).unwrap(),
            ClusterSpec::paper_default(9),
            base.p().to_vec(),
            AdaptiveConfig {
                replication: ReplicationAlgo::Adams,
                placement: PlacementAlgo::SmallestLoadFirst,
                replan_placement: ReplanPlacement::Hybrid { rebalance_every: 3 },
                strategy: ReplanStrategy::Oracle,
                lambda_per_min: 30.0,
                horizon_min: 90.0,
            },
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let days = runner.run_days(&drift, 6, &mut rng).unwrap();
        // Days 3 (fresh rebalance) migrate much more than days 1-2/4-5
        // (incremental).
        let incr_max = [1usize, 2, 4, 5]
            .iter()
            .map(|&d| days[d].migrated_replicas)
            .max()
            .unwrap();
        assert!(
            days[3].migrated_replicas > incr_max,
            "rebalance day {} should exceed incremental days (max {incr_max})",
            days[3].migrated_replicas
        );
    }

    #[test]
    fn zero_cadence_rejected() {
        let m = 8;
        let err = AdaptiveRunner::new(
            Catalog::paper_default(m).unwrap(),
            ClusterSpec::paper_default(4),
            vec![1.0; m],
            AdaptiveConfig {
                replication: ReplicationAlgo::Adams,
                placement: PlacementAlgo::SmallestLoadFirst,
                replan_placement: ReplanPlacement::Hybrid { rebalance_every: 0 },
                strategy: ReplanStrategy::Static,
                lambda_per_min: 10.0,
                horizon_min: 90.0,
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn validation_errors() {
        let m = 10;
        let bad = AdaptiveRunner::new(
            Catalog::paper_default(m).unwrap(),
            ClusterSpec::paper_default(4),
            vec![1.0; m - 1],
            AdaptiveConfig {
                replication: ReplicationAlgo::Adams,
                placement: PlacementAlgo::SmallestLoadFirst,
                replan_placement: ReplanPlacement::Fresh,
                strategy: ReplanStrategy::Static,
                lambda_per_min: 10.0,
                horizon_min: 90.0,
            },
        );
        assert!(bad.is_err());
        let bad_smoothing = AdaptiveRunner::new(
            Catalog::paper_default(m).unwrap(),
            ClusterSpec::paper_default(4),
            vec![1.0; m],
            AdaptiveConfig {
                replication: ReplicationAlgo::Adams,
                placement: PlacementAlgo::SmallestLoadFirst,
                replan_placement: ReplanPlacement::Fresh,
                strategy: ReplanStrategy::Adaptive { smoothing: 0.0 },
                lambda_per_min: 10.0,
                horizon_min: 90.0,
            },
        );
        assert!(bad_smoothing.is_err());
    }
}
