//! Experiment harness regenerating every figure of Zhou & Xu (ICPP 2002).
//!
//! The paper's evaluation has six figures (1–3 are algorithm
//! illustrations, 4–6 simulation results) and several prose claims
//! (Adams ≈ Zipf in quality at very different costs; Theorem 4.2/4.3
//! bounds). Each gets a regenerator here, indexed in DESIGN.md §4:
//!
//! | id | module | paper content |
//! |----|--------|---------------|
//! | fig1 | [`fig1`] | Adams replication trace (5 videos / 3 servers) |
//! | fig2 | [`fig2`] | Zipf-interval classification scenario |
//! | fig3 | [`fig3`] | smallest-load-first placement trace |
//! | fig4 | [`fig4`] | rejection rate vs arrival rate across replication degrees |
//! | fig5 | [`fig5`] | rejection rate vs arrival rate across algorithm combos |
//! | fig6 | [`fig6`] | load-imbalance degree L(%) vs arrival rate |
//! | quality | [`quality`] | Adams vs Zipf granularity + timing (Sec. 5 prose, C-1) |
//! | bound | [`bound`] | Theorem 4.2/4.3 bound tightness (C-2) |
//! | sa | [`sa`] | the simulated-annealing evaluation the paper omitted |
//! | ablation | [`ablation`] | admission-policy ablation incl. backbone redirection (A-1) |
//! | availability | [`availability`] | rejection under server failure vs replication degree (A-2) |
//! | drift | [`drift`] | dynamic re-replication under popularity drift (A-3) |
//! | recovery | [`recovery`] | online failure recovery under stochastic faults (A-4) |
//! | sa2 | [`sa_multirate`] | multi-rate replica extension, objective ablation (SA-2) |
//! | striping | [`striping`] | striping-vs-replication architectural comparison (A-5) |
//! | overload | [`overload`] | admission queueing, retries and brownouts under overload (A-6) |
//! | controller | [`controller`] | online replication controller under intra-run drift (A-7) |
//! | coding | [`coding`] | erasure-coded redundancy vs replication under faults (A-8) |
//! | scale | [`scale`] | production-scale streaming world vs capacity bounds (A-9) |
//!
//! All simulation experiments average over seeded runs fanned out across
//! OS threads, one [`runner`] cell per data point; outputs go to stdout
//! as aligned tables and to `results/*.csv` + `results/*.json`
//! ([`report`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod availability;
pub mod bound;
pub mod coding;
pub mod config;
pub mod controller;
pub mod drift;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod overload;
pub mod quality;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod sa;
pub mod sa_multirate;
pub mod scale;
pub mod striping;

pub use config::PaperSetup;
pub use runner::{Combo, PointStats};
