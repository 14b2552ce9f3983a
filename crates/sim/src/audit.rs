//! Runtime invariant auditor.
//!
//! Silent state corruption in a discrete-event simulator (a leaked
//! bandwidth reservation, a request counted twice, a queue entry that
//! outlives its deadline) surfaces — if at all — as subtly wrong
//! end-of-run statistics. The auditor turns it into an immediate,
//! located [`ModelError::InvariantViolation`] by re-checking three
//! classes of invariant after every processed event:
//!
//! 1. **Request conservation** — every arrival is, at all times, in
//!    exactly one place: served, finally rejected, abandoned, waiting in
//!    the admission queue, or sleeping until a retry.
//! 2. **Bandwidth non-negativity** — no link is committed beyond its
//!    effective (brownout-adjusted) capacity; the shared backbone pool
//!    is within bounds. (`u64` occupancy makes literal negativity
//!    impossible; over-commitment is its observable twin.)
//! 3. **Queue-deadline monotonicity** — event time never goes backwards,
//!    and once the pump has processed instant `t`, no queued request
//!    with an abandonment deadline `<= t` may remain (it must have been
//!    admitted, retried, or abandoned).
//!
//! The engine runs the auditor on every debug build (so all tests and CI
//! exercise it) and in release builds when [`crate::SimConfig::audit`]
//! is set. It only reads state; enabling it never changes a run's
//! outcome, only whether a corrupted run fails fast.

use crate::admission::AdmissionState;
use crate::server::LinkState;
use crate::time::SimTime;
use vod_model::{ModelError, ServerId, VideoId};

/// Running totals the engine feeds the auditor (terminal outcomes only;
/// in-flight counts come from [`AdmissionState`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ledger {
    pub arrivals: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub abandoned: u64,
}

/// See the module docs. One instance lives for one run.
#[derive(Debug, Default)]
pub(crate) struct Auditor {
    last_event: SimTime,
}

impl Auditor {
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Checks all invariants after an event processed at `at`.
    pub fn check(
        &mut self,
        at: SimTime,
        links: &LinkState,
        backbone_free: bool,
        admission: &mut AdmissionState,
        ledger: Ledger,
    ) -> Result<(), ModelError> {
        if at < self.last_event {
            return Err(violation(
                at,
                format!(
                    "event time moved backwards: {} after {}",
                    at, self.last_event
                ),
            ));
        }
        self.last_event = at;

        let settled = ledger.admitted + ledger.rejected + ledger.abandoned;
        let in_flight = admission.in_flight();
        if settled + in_flight != ledger.arrivals {
            return Err(violation(
                at,
                format!(
                    "request conservation broken: {} arrivals vs {} admitted + {} rejected \
                     + {} abandoned + {} in flight",
                    ledger.arrivals, ledger.admitted, ledger.rejected, ledger.abandoned, in_flight
                ),
            ));
        }

        if !links.within_capacity() {
            return Err(violation(
                at,
                "a link is committed beyond its effective capacity".to_string(),
            ));
        }
        if !backbone_free {
            return Err(violation(
                at,
                "backbone pool committed beyond its capacity".to_string(),
            ));
        }

        // Strict: a deadline *equal* to `at` is still being processed
        // within the current instant (the pump pops one event per step).
        if let Some(deadline) = admission.next_deadline() {
            if deadline < at {
                return Err(violation(
                    at,
                    format!("queued request overdue since {deadline} was not processed"),
                ));
            }
        }
        Ok(())
    }

    /// Anti-affinity audit for redundancy placements (run after every
    /// event of a coded run): no video may keep two fragments/replicas
    /// on one server (the paper's constraint (6)).
    pub fn check_placement(
        &self,
        at: SimTime,
        holders: &[Vec<ServerId>],
    ) -> Result<(), ModelError> {
        for (v, servers) in holders.iter().enumerate() {
            for (i, &a) in servers.iter().enumerate() {
                if servers[..i].contains(&a) {
                    return Err(violation(
                        at,
                        format!(
                            "anti-affinity broken: video {} holds two fragments on {a}",
                            VideoId(v as u32)
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

fn violation(at: SimTime, what: String) -> ModelError {
    ModelError::InvariantViolation {
        at_min: at.as_min(),
        what,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, AdmissionState, PendingRequest, QueuePolicy};
    use vod_model::{ClusterSpec, ServerId, ServerSpec, VideoId};

    fn links() -> LinkState {
        LinkState::new(
            &ClusterSpec::homogeneous(
                1,
                ServerSpec {
                    storage_bytes: 1,
                    bandwidth_kbps: 10_000,
                },
            )
            .unwrap(),
        )
    }

    fn admission() -> AdmissionState {
        AdmissionState::new(&AdmissionConfig {
            policy: QueuePolicy::Queue { patience_min: 1.0 },
            ..AdmissionConfig::default()
        })
    }

    fn ledger(arrivals: u64, admitted: u64) -> Ledger {
        Ledger {
            arrivals,
            admitted,
            rejected: 0,
            abandoned: 0,
        }
    }

    #[test]
    fn clean_state_passes() {
        let mut a = Auditor::new();
        let mut adm = admission();
        a.check(SimTime::ZERO, &links(), true, &mut adm, ledger(3, 3))
            .unwrap();
        a.check(
            SimTime::from_min(1.0),
            &links(),
            true,
            &mut adm,
            ledger(4, 4),
        )
        .unwrap();
    }

    #[test]
    fn lost_request_is_caught() {
        let mut a = Auditor::new();
        let err = a
            .check(
                SimTime::from_min(2.0),
                &links(),
                true,
                &mut admission(),
                ledger(5, 3),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::InvariantViolation { .. }));
        assert!(err.to_string().contains("conservation"));
        assert!(err.to_string().contains("t=2.000"));
    }

    #[test]
    fn in_flight_requests_balance_the_ledger() {
        let mut a = Auditor::new();
        let mut adm = admission();
        adm.enqueue(
            SimTime::ZERO,
            PendingRequest {
                video: VideoId(0),
                kbps: 4_000,
                duration_s: 600,
                arrived: SimTime::ZERO,
                retries_left: 0,
                attempt: 0,
            },
        );
        a.check(SimTime::ZERO, &links(), true, &mut adm, ledger(1, 0))
            .unwrap();
    }

    #[test]
    fn overcommitted_link_is_caught() {
        let mut l = links();
        l.admit(ServerId(0), 8_000);
        l.set_brownout(ServerId(0), 0.5); // 8 000 used vs 5 000 effective
        let err = Auditor::new()
            .check(SimTime::ZERO, &l, true, &mut admission(), ledger(1, 1))
            .unwrap_err();
        assert!(err.to_string().contains("effective capacity"));
    }

    #[test]
    fn overdue_queue_entry_is_caught() {
        let mut a = Auditor::new();
        let mut adm = admission();
        let deadline = adm.enqueue(
            SimTime::ZERO,
            PendingRequest {
                video: VideoId(0),
                kbps: 4_000,
                duration_s: 600,
                arrived: SimTime::ZERO,
                retries_left: 0,
                attempt: 0,
            },
        );
        // At the deadline instant itself the entry is still fair game…
        a.check(deadline, &links(), true, &mut adm, ledger(1, 0))
            .unwrap();
        // …one tick past it, an unprocessed entry is a violation.
        let err = a
            .check(
                deadline + SimTime(1),
                &links(),
                true,
                &mut adm,
                ledger(1, 0),
            )
            .unwrap_err();
        assert!(err.to_string().contains("overdue"));
    }

    #[test]
    fn time_reversal_is_caught() {
        let mut a = Auditor::new();
        let mut adm = admission();
        a.check(
            SimTime::from_min(5.0),
            &links(),
            true,
            &mut adm,
            ledger(0, 0),
        )
        .unwrap();
        let err = a
            .check(
                SimTime::from_min(4.0),
                &links(),
                true,
                &mut adm,
                ledger(0, 0),
            )
            .unwrap_err();
        assert!(err.to_string().contains("backwards"));
    }
}
