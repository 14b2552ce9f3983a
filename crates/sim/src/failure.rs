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
//!   in the paper — from a seeded RNG, so a run is deterministic per
//!   seed. The model *compiles* to a `FailurePlan`, so the engine
//!   consumes one transition stream regardless of provenance.
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

/// One brownout: `server`'s outgoing link runs at `capacity_frac` of its
/// nominal bandwidth from `start_min` until `end_min` (or the end of the
/// run). The server stays *up* — it is slow, not dead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Brownout {
    /// The degraded server.
    pub server: ServerId,
    /// Degradation onset, minutes from the simulation epoch.
    pub start_min: f64,
    /// Restoration instant; `None` = degraded for the rest of the run.
    pub end_min: Option<f64>,
    /// Remaining fraction of link capacity, in `(0, 1]`.
    pub capacity_frac: f64,
}

/// A validated set of outages plus (optionally) brownouts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FailurePlan {
    outages: Vec<Outage>,
    #[serde(default)]
    brownouts: Vec<Brownout>,
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

fn check_brownout(b: &Brownout) -> Result<(), ModelError> {
    if !b.start_min.is_finite() || b.start_min < 0.0 {
        return Err(ModelError::InvalidParameter {
            name: "brownout start_min",
            value: b.start_min,
        });
    }
    if let Some(end) = b.end_min {
        if !end.is_finite() || end <= b.start_min {
            return Err(ModelError::InvalidParameter {
                name: "brownout end_min",
                value: end,
            });
        }
    }
    if !b.capacity_frac.is_finite() || b.capacity_frac <= 0.0 || b.capacity_frac > 1.0 {
        return Err(ModelError::InvalidParameter {
            name: "brownout capacity_frac (must be in (0, 1])",
            value: b.capacity_frac,
        });
    }
    Ok(())
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

/// Rejects two `(server, start, end)` intervals of one server that
/// overlap (`end: None` runs to the end of the run), reporting the later
/// one's start under `name`. Sorting by (server, start) leaves only
/// *adjacent* intervals of one server to compare — O(n log n) total,
/// which matters once stochastic models generate hundreds per run.
fn check_no_overlap(
    spans: impl Iterator<Item = (ServerId, f64, Option<f64>)>,
    name: &'static str,
) -> Result<(), ModelError> {
    let mut spans: Vec<_> = spans.collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    for w in spans.windows(2) {
        let ((server, _, end), (next_server, next_start, _)) = (w[0], w[1]);
        if server == next_server && next_start < end.unwrap_or(f64::INFINITY) {
            return Err(ModelError::InvalidParameter {
                name,
                value: next_start,
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
        check_no_overlap(
            outages
                .iter()
                .map(|o| (o.server, o.down_at_min, o.up_at_min)),
            "overlapping outages",
        )?;
        Ok(FailurePlan {
            outages,
            brownouts: Vec::new(),
        })
    }

    /// Attaches brownouts to this plan, validating times, capacity
    /// fractions in `(0, 1]`, and per-server non-overlap (two concurrent
    /// brownouts of one link would make the effective capacity ambiguous).
    pub fn add_brownouts(mut self, brownouts: Vec<Brownout>) -> Result<Self, ModelError> {
        self.brownouts.extend(brownouts);
        for b in &self.brownouts {
            check_brownout(b)?;
        }
        self.brownouts.sort_by(|a, b| {
            a.start_min
                .total_cmp(&b.start_min)
                .then(a.server.cmp(&b.server))
        });
        check_no_overlap(
            self.brownouts
                .iter()
                .map(|b| (b.server, b.start_min, b.end_min)),
            "overlapping brownouts",
        )?;
        Ok(self)
    }

    /// Builds a plan from outages that may overlap per server, merging
    /// overlapping or touching intervals into one outage. The engine
    /// unites a scripted plan with a compiled [`FailureModel`] this way,
    /// where a server can be down for more than one cause at once.
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
        for o in &self.outages {
            if o.server.index() >= n_servers {
                return Err(ModelError::UnknownServer(o.server));
            }
        }
        for b in &self.brownouts {
            if b.server.index() >= n_servers {
                return Err(ModelError::UnknownServer(b.server));
            }
        }
        Ok(())
    }

    /// The outages, sorted by failure time.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The brownouts, sorted by start time.
    pub fn brownouts(&self) -> &[Brownout] {
        &self.brownouts
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.brownouts.is_empty()
    }

    /// Decomposes the plan into its outages and brownouts. Used by the
    /// engine to merge a compiled stochastic plan with fixed failures
    /// without re-cloning either side.
    pub(crate) fn into_parts(self) -> (Vec<Outage>, Vec<Brownout>) {
        (self.outages, self.brownouts)
    }

    /// Flattens into time-sorted state transitions for the engine.
    pub(crate) fn transitions(&self) -> Vec<Transition> {
        let mut t: Vec<Transition> =
            Vec::with_capacity(self.outages.len() * 2 + self.brownouts.len() * 2);
        for o in &self.outages {
            t.push(Transition {
                at: SimTime::from_min(o.down_at_min),
                server: o.server,
                kind: TransitionKind::Down,
            });
            if let Some(up) = o.up_at_min {
                t.push(Transition {
                    at: SimTime::from_min(up),
                    server: o.server,
                    kind: TransitionKind::Up,
                });
            }
        }
        for b in &self.brownouts {
            t.push(Transition {
                at: SimTime::from_min(b.start_min),
                server: b.server,
                kind: TransitionKind::BrownoutStart(b.capacity_frac),
            });
            if let Some(end) = b.end_min {
                t.push(Transition {
                    at: SimTime::from_min(end),
                    server: b.server,
                    kind: TransitionKind::BrownoutEnd,
                });
            }
        }
        t.sort_by_key(|a| (a.at, a.server, a.kind.rank()));
        t
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

    /// Draws every outage in `[0, horizon_min)` and compiles them into a
    /// [`FailurePlan`], which the engine consumes exactly like a
    /// scripted plan.
    pub fn compile(&self, n_servers: usize, horizon_min: f64) -> Result<FailurePlan, ModelError> {
        self.validate()?;
        if !horizon_min.is_finite() || horizon_min <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "horizon_min",
                value: horizon_min,
            });
        }
        let mut outages = Vec::new();
        if self.mtbf_min.is_finite() {
            for j in 0..n_servers {
                let mut rng = self.stream_rng(0x5EC0_0000 + j as u64);
                draw_renewal_outages(
                    &mut rng,
                    self.mtbf_min,
                    self.mttr_min,
                    horizon_min,
                    ServerId(j as u32),
                    &mut outages,
                );
            }
        }
        let mut brownouts = Vec::new();
        if let Some(model) = &self.brownouts {
            if model.mtbf_min.is_finite() {
                for j in 0..n_servers {
                    let mut rng = self.stream_rng(0xB120_0000 + j as u64);
                    draw_renewal_brownouts(
                        &mut rng,
                        model,
                        horizon_min,
                        ServerId(j as u32),
                        &mut brownouts,
                    );
                }
            }
        }
        FailurePlan::merged(outages)?.add_brownouts(brownouts)
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

/// Walks one alternating healthy/degraded renewal process over
/// `[0, horizon)`, appending one brownout per episode with a fresh
/// uniform capacity-fraction draw.
fn draw_renewal_brownouts(
    rng: &mut ChaCha8Rng,
    model: &BrownoutModel,
    horizon_min: f64,
    server: ServerId,
    out: &mut Vec<Brownout>,
) {
    let mut t = 0.0f64;
    loop {
        let start = t + sample_exp(rng, model.mtbf_min);
        if start >= horizon_min {
            break;
        }
        let end = start + sample_exp(rng, model.mttr_min);
        let u: f64 = rng.gen();
        let frac =
            model.min_capacity_frac + u * (model.max_capacity_frac - model.min_capacity_frac);
        let end_min = (end < horizon_min).then_some(end);
        out.push(Brownout {
            server,
            start_min: start,
            end_min,
            capacity_frac: frac.clamp(model.min_capacity_frac, model.max_capacity_frac),
        });
        match end_min {
            Some(end) => t = end,
            None => break,
        }
    }
}

/// Walks one alternating up/down renewal process over `[0, horizon)`,
/// appending one outage of `server` per failure.
fn draw_renewal_outages(
    rng: &mut ChaCha8Rng,
    mtbf_min: f64,
    mttr_min: f64,
    horizon_min: f64,
    server: ServerId,
    out: &mut Vec<Outage>,
) {
    let mut t = 0.0f64;
    loop {
        let down = t + sample_exp(rng, mtbf_min);
        if down >= horizon_min {
            break;
        }
        let up = down + sample_exp(rng, mttr_min);
        // An outage running past the horizon is permanent for the run.
        let up_at_min = (up < horizon_min).then_some(up);
        out.push(Outage {
            server,
            down_at_min: down,
            up_at_min,
        });
        match up_at_min {
            Some(up) => t = up,
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let t = plan.transitions();
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
        assert!(FailurePlan::none().transitions().is_empty());
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
        let a = model.compile(8, 90.0).unwrap();
        let b = model.compile(8, 90.0).unwrap();
        assert_eq!(a, b);
        let c = FailureModel::exponential(120.0, 15.0, 43)
            .compile(8, 90.0)
            .unwrap();
        assert_ne!(a, c, "different seeds should draw different outages");
    }

    #[test]
    fn model_outages_inside_horizon() {
        let model = FailureModel::exponential(30.0, 10.0, 7);
        let plan = model.compile(8, 90.0).unwrap();
        assert!(!plan.is_empty(), "MTBF 30 over 90 min should fail someone");
        for o in plan.outages() {
            assert!(o.down_at_min >= 0.0 && o.down_at_min < 90.0);
            if let Some(up) = o.up_at_min {
                assert!(up < 90.0);
            }
        }
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
    fn brownout_plan_validates_and_flattens() {
        let plan = FailurePlan::new(vec![Outage {
            server: ServerId(0),
            down_at_min: 10.0,
            up_at_min: Some(20.0),
        }])
        .unwrap()
        .add_brownouts(vec![Brownout {
            server: ServerId(1),
            start_min: 5.0,
            end_min: Some(30.0),
            capacity_frac: 0.5,
        }])
        .unwrap();
        assert!(!plan.is_empty());
        let t = plan.transitions();
        assert_eq!(t.len(), 4);
        assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(t[0].kind, TransitionKind::BrownoutStart(0.5));
        assert_eq!(t[3].kind, TransitionKind::BrownoutEnd);
        plan.validate_servers(2).unwrap();
        assert!(plan.validate_servers(1).is_err());
    }

    #[test]
    fn brownout_validation_rejects_bad_fractions_and_overlaps() {
        let bo = |start: f64, end: Option<f64>, frac: f64| Brownout {
            server: ServerId(0),
            start_min: start,
            end_min: end,
            capacity_frac: frac,
        };
        let plan = |brownouts| FailurePlan::none().add_brownouts(brownouts);
        assert!(plan(vec![bo(0.0, Some(5.0), 0.0)]).is_err());
        assert!(plan(vec![bo(0.0, Some(5.0), 1.5)]).is_err());
        assert!(plan(vec![bo(5.0, Some(5.0), 0.5)]).is_err());
        assert!(plan(vec![bo(-1.0, None, 0.5)]).is_err());
        // Overlapping brownouts of one server are ambiguous.
        assert!(plan(vec![bo(0.0, Some(10.0), 0.5), bo(5.0, Some(15.0), 0.7)]).is_err());
        // Back-to-back is fine.
        assert!(plan(vec![bo(0.0, Some(10.0), 0.5), bo(10.0, Some(15.0), 0.7)]).is_ok());
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
        let a = model.compile(8, 90.0).unwrap();
        let b = model.compile(8, 90.0).unwrap();
        assert_eq!(a, b);
        assert!(a.outages().is_empty(), "brownouts_only draws no crashes");
        assert!(!a.brownouts().is_empty());
        for br in a.brownouts() {
            assert!(br.start_min >= 0.0 && br.start_min < 90.0);
            assert!((0.3..=0.7).contains(&br.capacity_frac));
            if let Some(end) = br.end_min {
                assert!(end < 90.0);
            }
        }
        let c = FailureModel::brownouts_only(
            BrownoutModel {
                mtbf_min: 30.0,
                mttr_min: 10.0,
                min_capacity_frac: 0.3,
                max_capacity_frac: 0.7,
            },
            100,
        )
        .compile(8, 90.0)
        .unwrap();
        assert_ne!(a, c, "different seeds draw different brownouts");
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
        assert!(plan.brownouts().is_empty());
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
