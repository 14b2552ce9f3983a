//! Synthetic workload substrate for the VoD cluster reproduction.
//!
//! The paper's evaluation (Sec. 5) drives the cluster with a synthetic
//! workload: "Within the peak period of 90 minutes, the request arrivals
//! were generated by a Poisson process with arrival rate λ … The video
//! popularity distribution was governed by a Zipf skew parameter θ."
//!
//! This crate provides exactly that machinery, built for throughput:
//!
//! * [`alias`] — Walker's alias method: O(M) setup, O(1) categorical
//!   sampling, used for video selection;
//! * [`arrival`] — the pull-based [`ArrivalSource`] trait and
//!   [`ThinnedWorkload`]: Lewis–Shedler-thinned time-varying λ with
//!   diurnal / flash-crowd / catalog-churn modulators, with a
//!   materialized `generate` and a streamed `stream` twin that is
//!   draw-for-draw identical to it at the same seed (the module docs
//!   explain how);
//! * [`drift`] — popularity drift: day-over-day models for adaptive
//!   re-planning and A-7's intra-run [`DriftingWorkload`];
//! * [`zipf`] — a Zipf-like video sampler on top of the alias table;
//! * [`poisson`] — homogeneous Poisson arrival processes (exponential
//!   inter-arrival times);
//! * [`trace`] — request traces: (arrival time, video id) sequences,
//!   generatable, serializable, and replayable into `vod-sim`;
//! * [`stats`] — empirical-distribution helpers used by the test suites to
//!   verify the samplers.
//!
//! All randomness flows through caller-supplied [`rand::Rng`] instances so
//! every experiment is reproducible from a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alias;
pub mod arrival;
pub mod drift;
pub mod poisson;
pub mod stats;
pub mod trace;
pub mod zipf;

pub use alias::AliasTable;
pub use arrival::{
    ArrivalIter, ArrivalSource, CatalogChurn, DiurnalCycle, RateModel, RatePulse, StreamingThinned,
    ThinnedWorkload,
};
pub use drift::{DriftModel, DriftingWorkload, FlashCrowd, RankRotation, Stationary};
pub use poisson::PoissonProcess;
pub use trace::{Request, Trace, TraceGenerator};
pub use zipf::ZipfSampler;
