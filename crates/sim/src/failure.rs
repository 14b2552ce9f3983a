//! Server-failure injection: fixed plans and stochastic models.
//!
//! The paper motivates replication with availability: "Replication …
//! can simplify the administration and enhance scalability and
//! reliability of the clusters" and "multiple replicas also offer the
//! flexibility in reconfiguration" (Sec. 1). This module makes that
//! claim measurable two ways:
//!
//! * a [`FailurePlan`] takes servers down (and optionally back up) at
//!   fixed instants — the scripted outages of the A-2 experiment;
//! * a [`FailureModel`] draws outages stochastically — per-server
//!   exponential MTBF/MTTR renewal processes, one server at a time as
//!   in the paper — and, with a [`BrownoutModel`], partial-capacity
//!   link brownouts, from a seeded RNG, so a run is deterministic per
//!   seed.
//!
//! At run start the engine compiles both into one fault schedule: the
//! scripted outages merged with the drawn ones, every transition in
//! time order, and the browned-out server·minutes those transitions
//! imply (fixed up front, since nothing the run does moves a brownout).
//!
//! A failing server kills its active streams (counted as *disrupted*
//! unless the engine's failover policy rescues them) and admits nothing
//! until recovery; whether the cluster keeps serving its videos depends
//! on the replication degree, the admission policy, and — with the
//! repair controller enabled — how fast lost redundancy is rebuilt.

use crate::time::SimTime;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vod_model::{ModelError, ServerId};

/// One outage: `server` fails at `down_at_min` and recovers at
/// `up_at_min` (or stays down for the rest of the run).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outage {
    /// The failing server.
    pub server: ServerId,
    /// Failure instant, minutes from the simulation epoch.
    pub down_at_min: f64,
    /// Recovery instant; `None` = permanent for this run.
    pub up_at_min: Option<f64>,
}

/// One drawn brownout: `server`'s outgoing link runs at `capacity_frac`
/// of its nominal bandwidth from `start_min` until `end_min` (or the end
/// of the run). The server stays *up* — it is slow, not dead.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Brownout {
    server: ServerId,
    start_min: f64,
    end_min: Option<f64>,
    capacity_frac: f64,
}

/// A validated set of scripted outages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FailurePlan {
    outages: Vec<Outage>,
}

/// Internal: what happens to a server at a transition instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TransitionKind {
    /// Server crashes (fail-stop).
    Down,
    /// Server recovers from a crash.
    Up,
    /// A brownout ends; full link capacity restored.
    BrownoutEnd,
    /// A brownout begins; effective capacity drops to this fraction.
    BrownoutStart(f64),
}

impl TransitionKind {
    /// Deterministic tie-break rank at equal (time, server). Down before
    /// Up preserves the pre-brownout ordering; a brownout that ends the
    /// instant another starts is processed end-first.
    fn rank(self) -> u8 {
        match self {
            TransitionKind::Down => 0,
            TransitionKind::Up => 1,
            TransitionKind::BrownoutEnd => 2,
            TransitionKind::BrownoutStart(_) => 3,
        }
    }
}

/// Internal: a single state transition, sorted by time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    pub at: SimTime,
    pub server: ServerId,
    pub kind: TransitionKind,
}

fn check_times(o: &Outage) -> Result<(), ModelError> {
    if !o.down_at_min.is_finite() || o.down_at_min < 0.0 {
        return Err(ModelError::InvalidParameter {
            name: "down_at_min",
            value: o.down_at_min,
        });
    }
    if let Some(up) = o.up_at_min {
        if !up.is_finite() || up <= o.down_at_min {
            return Err(ModelError::InvalidParameter {
                name: "up_at_min",
                value: up,
            });
        }
    }
    Ok(())
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates and builds: non-negative finite times, recovery after
    /// failure, and no overlapping outages of one server.
    pub fn new(mut outages: Vec<Outage>) -> Result<Self, ModelError> {
        for o in &outages {
            check_times(o)?;
        }
        outages.sort_by(|a, b| {
            a.down_at_min
                .total_cmp(&b.down_at_min)
                .then(a.server.cmp(&b.server))
        });
        // Sorting by (server, down) leaves only *adjacent* outages of one
        // server to compare — O(n log n) total, which matters once
        // stochastic models generate hundreds per run.
        let mut spans: Vec<&Outage> = outages.iter().collect();
        spans.sort_by(|a, b| {
            a.server
                .cmp(&b.server)
                .then(a.down_at_min.total_cmp(&b.down_at_min))
        });
        for w in spans.windows(2) {
            if w[0].server == w[1].server
                && w[1].down_at_min < w[0].up_at_min.unwrap_or(f64::INFINITY)
            {
                return Err(ModelError::InvalidParameter {
                    name: "overlapping outages",
                    value: w[1].down_at_min,
                });
            }
        }
        Ok(FailurePlan { outages })
    }

    /// Builds a plan from outages that may overlap per server, merging
    /// overlapping or touching intervals into one outage: a server can
    /// be down for a scripted and a drawn cause at once.
    pub fn merged(mut outages: Vec<Outage>) -> Result<Self, ModelError> {
        for o in &outages {
            check_times(o)?;
        }
        outages.sort_by(|a, b| {
            a.server
                .cmp(&b.server)
                .then(a.down_at_min.total_cmp(&b.down_at_min))
        });
        let mut merged: Vec<Outage> = Vec::with_capacity(outages.len());
        for o in outages {
            match merged.last_mut() {
                Some(last)
                    if last.server == o.server
                        && o.down_at_min <= last.up_at_min.unwrap_or(f64::INFINITY) =>
                {
                    last.up_at_min = match (last.up_at_min, o.up_at_min) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                }
                _ => merged.push(o),
            }
        }
        FailurePlan::new(merged)
    }

    /// Checks every outage references a server inside an `n_servers`
    /// cluster; the simulation engines call this at bind time so a
    /// `ServerId(99)` outage on an 8-server cluster is a
    /// [`ModelError::UnknownServer`], not a silent no-op or a panic.
    pub fn validate_servers(&self, n_servers: usize) -> Result<(), ModelError> {
        match self.outages.iter().find(|o| o.server.index() >= n_servers) {
            Some(o) => Err(ModelError::UnknownServer(o.server)),
            None => Ok(()),
        }
    }

    /// The outages, sorted by failure time.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }
}

/// One run's faults, compiled once at run start: every outage and
/// brownout transition in the order the engine processes them, and the
/// browned-out server·minutes they imply.
#[derive(Debug, PartialEq)]
pub(crate) struct FaultSchedule {
    /// Transitions sorted by `(time, server, kind rank)`.
    pub transitions: Vec<Transition>,
    /// Browned-out time summed over servers, minutes: each brownout's
    /// span is added at its end, in transition order, then every
    /// brownout still open at the horizon is closed there, in server
    /// order.
    pub brownout_min: f64,
}

impl FaultSchedule {
    /// Compiles the scripted `plan` and, when given, `model`'s draws for
    /// an `n_servers` cluster over `[0, horizon_min)`. A model's outages
    /// merge with the scripted ones (see [`FailurePlan::merged`]); on
    /// its own, a plan is flattened as validated. The model's parameters
    /// must already be valid ([`FailureModel::validate`]).
    pub fn compile(
        plan: &FailurePlan,
        model: Option<&FailureModel>,
        n_servers: usize,
        horizon_min: f64,
    ) -> Result<Self, ModelError> {
        let Some(model) = model else {
            return Ok(Self::flatten(
                &plan.outages,
                Vec::new(),
                n_servers,
                horizon_min,
            ));
        };
        let (mut outages, brownouts) = model.draw(n_servers, horizon_min);
        outages.extend_from_slice(&plan.outages);
        let outages = FailurePlan::merged(outages)?.outages;
        Ok(Self::flatten(&outages, brownouts, n_servers, horizon_min))
    }

    /// Flattens outages and brownouts into sorted transitions and meters
    /// the brownout minutes as the engine would accumulate them.
    /// A brownout whose start and end round to one tick lasts no engine
    /// time and is dropped: kept, its end would sort before its own
    /// start and leave the link browned out.
    fn flatten(
        outages: &[Outage],
        mut brownouts: Vec<Brownout>,
        n_servers: usize,
        horizon_min: f64,
    ) -> Self {
        brownouts.retain(|b| {
            b.end_min
                .is_none_or(|end| SimTime::from_min(end) > SimTime::from_min(b.start_min))
        });
        brownouts.sort_by(|a, b| {
            a.start_min
                .total_cmp(&b.start_min)
                .then(a.server.cmp(&b.server))
        });
        let mut transitions = Vec::with_capacity(2 * (outages.len() + brownouts.len()));
        let mut push = |server, at: f64, kind| {
            transitions.push(Transition {
                at: SimTime::from_min(at),
                server,
                kind,
            })
        };
        for o in outages {
            push(o.server, o.down_at_min, TransitionKind::Down);
            if let Some(up) = o.up_at_min {
                push(o.server, up, TransitionKind::Up);
            }
        }
        for b in &brownouts {
            push(
                b.server,
                b.start_min,
                TransitionKind::BrownoutStart(b.capacity_frac),
            );
            if let Some(end) = b.end_min {
                push(b.server, end, TransitionKind::BrownoutEnd);
            }
        }
        transitions.sort_by_key(|t| (t.at, t.server, t.kind.rank()));

        let mut started: Vec<Option<SimTime>> = vec![None; n_servers];
        let mut brownout_min = 0.0;
        for t in &transitions {
            match t.kind {
                TransitionKind::BrownoutStart(_) => started[t.server.index()] = Some(t.at),
                TransitionKind::BrownoutEnd => {
                    if let Some(start) = started[t.server.index()].take() {
                        brownout_min += (t.at - start).as_min();
                    }
                }
                TransitionKind::Down | TransitionKind::Up => {}
            }
        }
        for start in started.into_iter().flatten() {
            brownout_min += (horizon_min - start.as_min()).max(0.0);
        }
        FaultSchedule {
            transitions,
            brownout_min,
        }
    }
}

/// Stochastic partial-degradation model: each server's outgoing link
/// browns out on an independent exponential MTBF/MTTR renewal process,
/// with the surviving capacity fraction drawn uniformly from
/// `[min_capacity_frac, max_capacity_frac]` per episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrownoutModel {
    /// Mean time between brownouts per server, minutes (exponential).
    /// `f64::INFINITY` disables the model.
    pub mtbf_min: f64,
    /// Mean brownout duration, minutes (exponential).
    pub mttr_min: f64,
    /// Lower bound of the surviving capacity fraction, in `(0, 1]`.
    pub min_capacity_frac: f64,
    /// Upper bound of the surviving capacity fraction, in `(0, 1]`.
    pub max_capacity_frac: f64,
}

impl BrownoutModel {
    /// Parameter validation (positive times, fractions in `(0, 1]`,
    /// `min ≤ max`).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.mtbf_min.is_nan() || self.mtbf_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "brownout mtbf_min",
                value: self.mtbf_min,
            });
        }
        if !self.mttr_min.is_finite() || self.mttr_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "brownout mttr_min",
                value: self.mttr_min,
            });
        }
        for (name, v) in [
            ("brownout min_capacity_frac", self.min_capacity_frac),
            ("brownout max_capacity_frac", self.max_capacity_frac),
        ] {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(ModelError::InvalidParameter { name, value: v });
            }
        }
        if self.min_capacity_frac > self.max_capacity_frac {
            return Err(ModelError::InvalidParameter {
                name: "brownout min_capacity_frac > max_capacity_frac",
                value: self.min_capacity_frac,
            });
        }
        Ok(())
    }
}

/// Stochastic fault injection: each server fails on an independent
/// exponential MTBF/MTTR alternating-renewal process, optionally
/// overlaid with partial-capacity [`BrownoutModel`] episodes.
/// Deterministic per `seed` — every server and brownout process derives
/// its own RNG stream from it, so the drawn faults do not depend on
/// iteration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    /// Per-server mean time between failures, minutes. `f64::INFINITY`
    /// disables crashes (brownouts only).
    pub mtbf_min: f64,
    /// Per-server mean time to repair, minutes.
    pub mttr_min: f64,
    /// Base RNG seed; identical seeds produce identical outage sets.
    pub seed: u64,
    /// Optional partial bandwidth degradation overlaid on the crash
    /// processes (`None` = links always run at full capacity).
    #[serde(default)]
    pub brownouts: Option<BrownoutModel>,
}

impl FailureModel {
    /// Independent per-server MTBF/MTTR crashes, no brownouts.
    pub fn exponential(mtbf_min: f64, mttr_min: f64, seed: u64) -> Self {
        FailureModel {
            mtbf_min,
            mttr_min,
            seed,
            brownouts: None,
        }
    }

    /// A model that injects only brownouts: no crashes.
    pub fn brownouts_only(model: BrownoutModel, seed: u64) -> Self {
        FailureModel {
            mtbf_min: f64::INFINITY,
            mttr_min: 1.0, // unused: infinite MTBF draws no crashes
            seed,
            brownouts: Some(model),
        }
    }

    /// Parameter validation: positive MTBF (infinity allowed — "never"),
    /// positive finite MTTR, and a valid brownout model if any.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.mtbf_min.is_nan() || self.mtbf_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "mtbf_min",
                value: self.mtbf_min,
            });
        }
        if !self.mttr_min.is_finite() || self.mttr_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "mttr_min",
                value: self.mttr_min,
            });
        }
        if let Some(b) = &self.brownouts {
            b.validate()?;
        }
        Ok(())
    }

    /// Draws every crash and brownout episode of an `n_servers` cluster
    /// in `[0, horizon_min)`: one independent renewal process per server
    /// and kind, crashes first.
    fn draw(&self, n_servers: usize, horizon_min: f64) -> (Vec<Outage>, Vec<Brownout>) {
        let mut outages = Vec::new();
        if self.mtbf_min.is_finite() {
            for j in 0..n_servers {
                let server = ServerId(j as u32);
                let mut rng = self.stream_rng(0x5EC0_0000 + j as u64);
                walk_renewal(
                    &mut rng,
                    self.mtbf_min,
                    self.mttr_min,
                    horizon_min,
                    |_, down, up| {
                        outages.push(Outage {
                            server,
                            down_at_min: down,
                            up_at_min: up,
                        })
                    },
                );
            }
        }
        let mut brownouts = Vec::new();
        if let Some(m) = self.brownouts.as_ref().filter(|m| m.mtbf_min.is_finite()) {
            for j in 0..n_servers {
                let server = ServerId(j as u32);
                let mut rng = self.stream_rng(0xB120_0000 + j as u64);
                walk_renewal(
                    &mut rng,
                    m.mtbf_min,
                    m.mttr_min,
                    horizon_min,
                    |rng, start, end| {
                        let u: f64 = rng.gen();
                        let frac =
                            m.min_capacity_frac + u * (m.max_capacity_frac - m.min_capacity_frac);
                        brownouts.push(Brownout {
                            server,
                            start_min: start,
                            end_min: end,
                            capacity_frac: frac.clamp(m.min_capacity_frac, m.max_capacity_frac),
                        })
                    },
                );
            }
        }
        (outages, brownouts)
    }

    /// One independent, order-insensitive RNG stream per entity.
    fn stream_rng(&self, stream: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(
            self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
        )
    }
}

/// Samples an exponential with the given mean. `u ∈ [0, 1)` so
/// `1 - u ∈ (0, 1]` and the log is finite.
fn sample_exp(rng: &mut ChaCha8Rng, mean_min: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean_min * (1.0 - u).ln()
}

/// Walks one alternating renewal process over `[0, horizon)`: healthy
/// for an `Exp(mtbf)` draw, then faulty for an `Exp(mttr)` draw, and so
/// on. Calls `episode(rng, start, end)` once per fault, after both of
/// its draws, with `end: None` for a fault still running at the horizon
/// (an outage or brownout past the horizon is permanent for the run).
fn walk_renewal(
    rng: &mut ChaCha8Rng,
    mtbf_min: f64,
    mttr_min: f64,
    horizon_min: f64,
    mut episode: impl FnMut(&mut ChaCha8Rng, f64, Option<f64>),
) {
    let mut t = 0.0f64;
    loop {
        let start = t + sample_exp(rng, mtbf_min);
        if start >= horizon_min {
            break;
        }
        let end = start + sample_exp(rng, mttr_min);
        let end = (end < horizon_min).then_some(end);
        episode(rng, start, end);
        match end {
            Some(end) => t = end,
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule of `model`'s draws alone.
    fn drawn(model: &FailureModel, n_servers: usize, horizon_min: f64) -> FaultSchedule {
        FaultSchedule::compile(&FailurePlan::none(), Some(model), n_servers, horizon_min).unwrap()
    }

    #[test]
    fn valid_plan_sorted() {
        let plan = FailurePlan::new(vec![
            Outage {
                server: ServerId(1),
                down_at_min: 30.0,
                up_at_min: Some(60.0),
            },
            Outage {
                server: ServerId(0),
                down_at_min: 10.0,
                up_at_min: None,
            },
        ])
        .unwrap();
        assert_eq!(plan.outages()[0].server, ServerId(0));
        let t = FaultSchedule::compile(&plan, None, 8, 90.0)
            .unwrap()
            .transitions;
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn rejects_bad_times() {
        assert!(FailurePlan::new(vec![Outage {
            server: ServerId(0),
            down_at_min: -1.0,
            up_at_min: None,
        }])
        .is_err());
        assert!(FailurePlan::new(vec![Outage {
            server: ServerId(0),
            down_at_min: 10.0,
            up_at_min: Some(10.0),
        }])
        .is_err());
    }

    #[test]
    fn rejects_overlaps() {
        // Permanent failure followed by another outage of the same server.
        assert!(FailurePlan::new(vec![
            Outage {
                server: ServerId(0),
                down_at_min: 10.0,
                up_at_min: None,
            },
            Outage {
                server: ServerId(0),
                down_at_min: 50.0,
                up_at_min: Some(60.0),
            },
        ])
        .is_err());
        // Back-to-back outages are fine.
        assert!(FailurePlan::new(vec![
            Outage {
                server: ServerId(0),
                down_at_min: 10.0,
                up_at_min: Some(20.0),
            },
            Outage {
                server: ServerId(0),
                down_at_min: 20.0,
                up_at_min: Some(30.0),
            },
        ])
        .is_ok());
        // Overlap hiding between non-adjacent entries of the time-sorted
        // order (another server's outage sorts in between).
        assert!(FailurePlan::new(vec![
            Outage {
                server: ServerId(0),
                down_at_min: 10.0,
                up_at_min: Some(40.0),
            },
            Outage {
                server: ServerId(1),
                down_at_min: 15.0,
                up_at_min: Some(16.0),
            },
            Outage {
                server: ServerId(0),
                down_at_min: 20.0,
                up_at_min: Some(25.0),
            },
        ])
        .is_err());
    }

    #[test]
    fn empty_plan() {
        assert!(FailurePlan::none().is_empty());
        let schedule = FaultSchedule::compile(&FailurePlan::none(), None, 8, 90.0).unwrap();
        assert!(schedule.transitions.is_empty());
        assert_eq!(schedule.brownout_min, 0.0);
    }

    #[test]
    fn merged_coalesces_overlaps() {
        let plan = FailurePlan::merged(vec![
            Outage {
                server: ServerId(0),
                down_at_min: 10.0,
                up_at_min: Some(30.0),
            },
            Outage {
                server: ServerId(0),
                down_at_min: 20.0,
                up_at_min: Some(40.0),
            },
            Outage {
                server: ServerId(1),
                down_at_min: 5.0,
                up_at_min: Some(6.0),
            },
        ])
        .unwrap();
        assert_eq!(plan.outages().len(), 2);
        let s0 = plan
            .outages()
            .iter()
            .find(|o| o.server == ServerId(0))
            .unwrap();
        assert_eq!((s0.down_at_min, s0.up_at_min), (10.0, Some(40.0)));
    }

    #[test]
    fn merged_absorbs_permanent() {
        let plan = FailurePlan::merged(vec![
            Outage {
                server: ServerId(0),
                down_at_min: 10.0,
                up_at_min: None,
            },
            Outage {
                server: ServerId(0),
                down_at_min: 50.0,
                up_at_min: Some(60.0),
            },
        ])
        .unwrap();
        assert_eq!(plan.outages().len(), 1);
        assert_eq!(plan.outages()[0].up_at_min, None);
    }

    #[test]
    fn validate_servers_bounds() {
        let plan = FailurePlan::new(vec![Outage {
            server: ServerId(7),
            down_at_min: 1.0,
            up_at_min: None,
        }])
        .unwrap();
        assert!(plan.validate_servers(8).is_ok());
        assert_eq!(
            plan.validate_servers(7),
            Err(ModelError::UnknownServer(ServerId(7)))
        );
    }

    #[test]
    fn model_is_deterministic_per_seed() {
        let model = FailureModel::exponential(120.0, 15.0, 42);
        let a = drawn(&model, 8, 90.0);
        assert_eq!(a, drawn(&model, 8, 90.0));
        let c = drawn(&FailureModel::exponential(120.0, 15.0, 43), 8, 90.0);
        assert_ne!(a, c, "different seeds should draw different outages");
    }

    #[test]
    fn model_outages_inside_horizon() {
        let model = FailureModel::exponential(30.0, 10.0, 7);
        let (outages, brownouts) = model.draw(8, 90.0);
        assert!(
            !outages.is_empty(),
            "MTBF 30 over 90 min should fail someone"
        );
        assert!(brownouts.is_empty());
        for o in &outages {
            assert!(o.down_at_min >= 0.0 && o.down_at_min < 90.0);
            if let Some(up) = o.up_at_min {
                assert!(up < 90.0);
            }
        }
        let plan = FailurePlan::merged(outages).unwrap();
        plan.validate_servers(8).unwrap();
    }

    #[test]
    fn model_validation_rejects_bad_parameters() {
        assert!(FailureModel::exponential(0.0, 10.0, 1).validate().is_err());
        assert!(FailureModel::exponential(10.0, 0.0, 1).validate().is_err());
        assert!(FailureModel::exponential(10.0, f64::INFINITY, 1)
            .validate()
            .is_err());
    }

    #[test]
    fn schedule_orders_ties_and_meters_brownout_minutes() {
        // Server 0: back-to-back outages; server 1: back-to-back
        // brownouts, the second still open at the 90-minute horizon.
        let outage = |down, up| Outage {
            server: ServerId(0),
            down_at_min: down,
            up_at_min: Some(up),
        };
        let brownout = |start, end, frac| Brownout {
            server: ServerId(1),
            start_min: start,
            end_min: end,
            capacity_frac: frac,
        };
        let plan = FailurePlan::new(vec![outage(20.0, 30.0), outage(10.0, 20.0)]).unwrap();
        let schedule = FaultSchedule::flatten(
            plan.outages(),
            vec![brownout(10.0, None, 0.7), brownout(5.0, Some(10.0), 0.5)],
            2,
            90.0,
        );
        let at = |min, server, kind| Transition {
            at: SimTime::from_min(min),
            server: ServerId(server),
            kind,
        };
        use TransitionKind::*;
        assert_eq!(
            schedule.transitions,
            vec![
                at(5.0, 1, BrownoutStart(0.5)),
                at(10.0, 0, Down),
                // A brownout end sorts before a start at the same instant…
                at(10.0, 1, BrownoutEnd),
                at(10.0, 1, BrownoutStart(0.7)),
                // …and a down before an up.
                at(20.0, 0, Down),
                at(20.0, 0, Up),
                at(30.0, 0, Up),
            ]
        );
        // 5 closed minutes, then 80 open ones closed at the horizon.
        assert_eq!(schedule.brownout_min, 85.0);
    }

    #[test]
    fn sub_tick_brownout_is_dropped() {
        // Start and end round to the same millisecond tick.
        let schedule = FaultSchedule::flatten(
            &[],
            vec![Brownout {
                server: ServerId(0),
                start_min: 10.0,
                end_min: Some(10.000001),
                capacity_frac: 0.5,
            }],
            1,
            90.0,
        );
        assert_eq!(schedule.transitions, vec![]);
        assert_eq!(schedule.brownout_min, 0.0);
    }

    #[test]
    fn drawn_schedule_stays_in_range_and_never_overlaps() {
        let model = FailureModel {
            brownouts: Some(BrownoutModel {
                mtbf_min: 20.0,
                mttr_min: 15.0,
                min_capacity_frac: 0.3,
                max_capacity_frac: 0.7,
            }),
            ..FailureModel::exponential(30.0, 10.0, 5)
        };
        let (n, horizon) = (16, 600.0);
        let schedule = drawn(&model, n, horizon);
        let t = &schedule.transitions;
        assert!(t
            .windows(2)
            .all(|w| (w[0].at, w[0].server, w[0].kind.rank())
                <= (w[1].at, w[1].server, w[1].kind.rank())));
        // Per server, crashes and brownouts each alternate begin/end: no
        // two drawn episodes of one kind overlap on one server.
        let (mut down, mut browned) = (vec![false; n], vec![false; n]);
        let mut fracs = 0;
        for tr in t {
            let j = tr.server.index();
            match tr.kind {
                TransitionKind::Down => assert!(!std::mem::replace(&mut down[j], true)),
                TransitionKind::Up => assert!(std::mem::replace(&mut down[j], false)),
                TransitionKind::BrownoutStart(frac) => {
                    assert!((0.3..=0.7).contains(&frac), "{frac}");
                    fracs += 1;
                    assert!(!std::mem::replace(&mut browned[j], true));
                }
                TransitionKind::BrownoutEnd => {
                    assert!(std::mem::replace(&mut browned[j], false))
                }
            }
        }
        assert!(fracs > n, "every server browns out more than once");
        // The meter agrees with the drawn episodes' lengths, up to the
        // millisecond rounding of each endpoint.
        let (_, brownouts) = model.draw(n, horizon);
        let spans: f64 = brownouts
            .iter()
            .map(|b| b.end_min.unwrap_or(horizon) - b.start_min)
            .sum();
        assert!((schedule.brownout_min - spans).abs() < 1e-3 * brownouts.len() as f64);
    }

    #[test]
    fn brownout_model_compiles_deterministically_inside_horizon() {
        let model = FailureModel::brownouts_only(
            BrownoutModel {
                mtbf_min: 30.0,
                mttr_min: 10.0,
                min_capacity_frac: 0.3,
                max_capacity_frac: 0.7,
            },
            99,
        );
        let a = drawn(&model, 8, 90.0);
        assert_eq!(a, drawn(&model, 8, 90.0));
        assert!(!a.transitions.is_empty());
        assert!(a.brownout_min > 0.0);
        let (outages, brownouts) = model.draw(8, 90.0);
        assert!(outages.is_empty(), "brownouts_only draws no crashes");
        for br in &brownouts {
            assert!(br.start_min >= 0.0 && br.start_min < 90.0);
            assert!((0.3..=0.7).contains(&br.capacity_frac));
            if let Some(end) = br.end_min {
                assert!(end < 90.0);
            }
        }
        let c = FailureModel { seed: 100, ..model };
        assert_ne!(
            a,
            drawn(&c, 8, 90.0),
            "different seeds draw different brownouts"
        );
    }

    #[test]
    fn brownout_model_validation() {
        let bad = |m: BrownoutModel| FailureModel::brownouts_only(m, 0).validate().is_err();
        let base = BrownoutModel {
            mtbf_min: 30.0,
            mttr_min: 10.0,
            min_capacity_frac: 0.3,
            max_capacity_frac: 0.7,
        };
        assert!(FailureModel::brownouts_only(base.clone(), 0)
            .validate()
            .is_ok());
        assert!(bad(BrownoutModel {
            mtbf_min: 0.0,
            ..base.clone()
        }));
        assert!(bad(BrownoutModel {
            mttr_min: f64::INFINITY,
            ..base.clone()
        }));
        assert!(bad(BrownoutModel {
            min_capacity_frac: 0.0,
            ..base.clone()
        }));
        assert!(bad(BrownoutModel {
            max_capacity_frac: 1.2,
            ..base.clone()
        }));
        assert!(bad(BrownoutModel {
            min_capacity_frac: 0.8,
            max_capacity_frac: 0.4,
            ..base
        }));
    }

    #[test]
    fn legacy_plan_json_still_deserializes() {
        // Pre-brownout serialized plans have no `brownouts` field.
        let plan: FailurePlan = serde_json::from_str(
            r#"{"outages":[{"server":3,"down_at_min":1.0,"up_at_min":null}]}"#,
        )
        .unwrap();
        assert_eq!(plan.outages().len(), 1);
        // Plans serialized while they could carry brownouts still load.
        let plan: FailurePlan = serde_json::from_str(
            r#"{"outages":[{"server":3,"down_at_min":1.0,"up_at_min":null}],"brownouts":[]}"#,
        )
        .unwrap();
        assert_eq!(plan.outages().len(), 1);
    }

    #[test]
    fn overlap_check_scales_past_hundreds_of_outages() {
        // 600 back-to-back outages on one server: valid, and fast with the
        // adjacent-pair check.
        let outages: Vec<Outage> = (0..600)
            .map(|k| Outage {
                server: ServerId(0),
                down_at_min: k as f64,
                up_at_min: Some(k as f64 + 1.0),
            })
            .collect();
        assert!(FailurePlan::new(outages).is_ok());
    }
}
