//! Simulated-annealing substrate and the scalable-bit-rate VoD problem.
//!
//! For videos with scalable encoding bit rates the paper "propose\[s\] a
//! heuristic algorithm based on simulated annealing … constructed … based
//! on the parsa library" (Sec. 4.3). parsa is a proprietary parallel-SA
//! framework; this crate is the from-scratch replacement (see DESIGN.md):
//!
//! * [`schedule`] — the geometric cooling schedule;
//! * [`engine`] — a generic Metropolis annealer over any
//!   [`engine::AnnealProblem`];
//! * [`parallel`] — parallel multi-chain annealing with periodic
//!   best-solution exchange (independent chains on OS threads, results
//!   gathered over a crossbeam channel), matching parsa's
//!   transparent-parallelism design point;
//! * [`problem`] — the paper's problem-specific pieces, exactly the three
//!   the authors enumerate: the Eq. (1) cost function, the
//!   lowest-rate/round-robin initial solution, and the
//!   raise-rate-or-add-replica neighborhood with constraint repair.
//!
//! The engine is **delta-evaluated**: problems expose reversible in-place
//! moves ([`engine::AnnealProblem`]) over search states carrying cached
//! per-server aggregates ([`problem::ScalableSearch`],
//! [`multirate::MultiRateSearch`]), so a Metropolis step costs
//! O(touched servers) instead of a full O(M·N) recompute. Clone-based
//! problems still work through [`engine::NeighborProblem`] and the
//! [`engine::CloneAdapter`] (also the legacy path for A/B benchmarks).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delta;
pub mod engine;
pub mod multirate;
pub mod parallel;
pub mod problem;
pub mod schedule;

pub use engine::{
    anneal, anneal_neighbor, anneal_with_telemetry, AnnealParams, AnnealProblem, AnnealResult,
    CloneAdapter, NeighborProblem,
};
pub use multirate::{
    MultiRateMove, MultiRateProblem, MultiRateSearch, MultiRateState, RatedReplica,
};
pub use parallel::{anneal_parallel, anneal_parallel_with_telemetry, ParallelParams};
pub use problem::{ScalableMove, ScalableProblem, ScalableSearch, ScalableState};
pub use schedule::CoolingSchedule;
