//! Tick result types and aggregation helpers for the fleet engine.
//!
//! The counters a [`TickReport`] aggregates are produced by the planned
//! batch path — cached per-window feature extraction
//! ([`crate::WindowFeatures`]), then each window scored by its context's
//! model — and are bit-identical to what sequential
//! [`SmarterYou::process_window`](crate::SmarterYou::process_window) calls
//! would report (see `tests/batch_parity.rs`).

use smarteryou_sensors::{DualDeviceWindow, UserId};

use crate::persist::PersistError;
use crate::pipeline::ProcessOutcome;
use crate::response::ResponseAction;
use crate::CoreError;

/// One user's outcomes from a tick, in their submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct UserOutcomes {
    /// The user the outcomes belong to.
    pub user: UserId,
    /// One outcome per queued window, in submission order.
    pub outcomes: Vec<ProcessOutcome>,
}

/// Everything a [`FleetEngine::tick`](crate::engine::FleetEngine::tick)
/// scored, grouped per user in registration order, plus aggregate counters
/// for monitoring and the throughput benchmarks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickReport {
    users: Vec<UserOutcomes>,
    errors: Vec<(UserId, CoreError)>,
    windows: usize,
    enrolling: usize,
    accepts: usize,
    rejections: usize,
    locks: usize,
    retrains: usize,
    evictions: usize,
    rehydrations: usize,
    resident: usize,
    scanned: usize,
    eviction_errors: Vec<(UserId, PersistError)>,
    ingested: usize,
    ingest_forwarded: usize,
    ingest_errors: Vec<(UserId, CoreError)>,
    misrouted: Vec<(UserId, DualDeviceWindow)>,
    retrains_started: usize,
    retrains_completed: usize,
    retrains_canceled: usize,
    retrains_in_flight: usize,
}

impl TickReport {
    /// Builds a report, computing the aggregate counters in one pass.
    pub(crate) fn new(users: Vec<UserOutcomes>, errors: Vec<(UserId, CoreError)>) -> Self {
        let mut report = TickReport {
            users,
            errors,
            ..TickReport::default()
        };
        for user in &report.users {
            for outcome in &user.outcomes {
                report.windows += 1;
                match outcome {
                    ProcessOutcome::Enrolling { .. } => report.enrolling += 1,
                    ProcessOutcome::Decision {
                        decision,
                        action,
                        retrained,
                    } => {
                        if decision.accepted {
                            report.accepts += 1;
                        } else {
                            report.rejections += 1;
                        }
                        if *action == ResponseAction::Lock {
                            report.locks += 1;
                        }
                        if *retrained {
                            report.retrains += 1;
                        }
                    }
                }
            }
        }
        report
    }

    /// Records the tick's fleet-residency stats (eviction pass results and
    /// rehydrations since the previous tick).
    pub(crate) fn with_fleet_state(
        mut self,
        evictions: usize,
        rehydrations: usize,
        resident: usize,
        scanned: usize,
        eviction_errors: Vec<(UserId, PersistError)>,
    ) -> Self {
        self.evictions = evictions;
        self.rehydrations = rehydrations;
        self.resident = resident;
        self.scanned = scanned;
        self.eviction_errors = eviction_errors;
        self
    }

    /// Records the tick's ingest-drain results.
    pub(crate) fn with_ingest(
        mut self,
        ingested: usize,
        misrouted: Vec<(UserId, DualDeviceWindow)>,
        ingest_errors: Vec<(UserId, CoreError)>,
    ) -> Self {
        self.ingested = ingested;
        self.misrouted = misrouted;
        self.ingest_errors = ingest_errors;
        self
    }

    /// Records the tick's training-cycle results (deferred-retrain jobs).
    pub(crate) fn with_training(
        mut self,
        started: usize,
        completed: usize,
        canceled: usize,
        in_flight: usize,
    ) -> Self {
        self.retrains_started = started;
        self.retrains_completed = completed;
        self.retrains_canceled = canceled;
        self.retrains_in_flight = in_flight;
        self
    }

    /// Takes the misrouted windows out of the report — the sharded fleet's
    /// tick consumes them to re-deliver to the owning shard.
    pub(crate) fn take_misrouted(&mut self) -> Vec<(UserId, DualDeviceWindow)> {
        std::mem::take(&mut self.misrouted)
    }

    /// Appends an ingest-delivery error discovered after the shard tick
    /// (fleet-level forwarding).
    pub(crate) fn push_ingest_error(&mut self, id: UserId, error: CoreError) {
        self.ingest_errors.push((id, error));
    }

    /// Records how many of this shard's misrouted windows the fleet
    /// re-delivered to their owning shards.
    pub(crate) fn note_forwarded(&mut self, forwarded: usize) {
        self.ingest_forwarded = forwarded;
    }

    /// Per-user outcomes, in engine registration order.
    pub fn users(&self) -> &[UserOutcomes] {
        &self.users
    }

    /// Per-user pipeline *scoring* failures this tick. A failing user's
    /// queued windows were consumed without producing outcomes; all other
    /// users are unaffected. Snapshot-save failures from the eviction pass
    /// are **not** here — they never invalidate scored outcomes — see
    /// [`TickReport::eviction_errors`].
    pub fn errors(&self) -> &[(UserId, CoreError)] {
        &self.errors
    }

    /// Snapshot-save failures from this tick's eviction pass. Each listed
    /// user's pipeline stayed resident (state is never dropped unsaved) and
    /// their already-scored outcomes remain valid; the engine simply runs
    /// over capacity until a later save succeeds.
    pub fn eviction_errors(&self) -> &[(UserId, PersistError)] {
        &self.eviction_errors
    }

    /// Total windows processed this tick (enrolling + authenticated).
    pub fn windows_scored(&self) -> usize {
        self.windows
    }

    /// Windows that were buffered for enrollment.
    pub fn enrolling(&self) -> usize {
        self.enrolling
    }

    /// Authenticated windows attributed to the legitimate owner.
    pub fn accepts(&self) -> usize {
        self.accepts
    }

    /// Authenticated windows rejected as impostor behaviour.
    pub fn rejections(&self) -> usize {
        self.rejections
    }

    /// Windows whose response action locked (or kept locked) the device.
    pub fn locks(&self) -> usize {
        self.locks
    }

    /// Automatic retrains triggered this tick.
    pub fn retrains(&self) -> usize {
        self.retrains
    }

    /// Pipelines snapshotted out of memory by this tick's eviction pass
    /// (always zero when eviction is disabled).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Pipelines rehydrated from the snapshot store since the previous
    /// tick (lazy rehydration happens at submit time).
    pub fn rehydrations(&self) -> usize {
        self.rehydrations
    }

    /// Pipelines resident in memory after this tick's eviction pass.
    pub fn resident_pipelines(&self) -> usize {
        self.resident
    }

    /// Slots the tick actually walked — the O(resident) contract made
    /// observable: this tracks the resident count at tick start, never the
    /// registered-user count, however many users are parked.
    pub fn scanned_slots(&self) -> usize {
        self.scanned
    }

    /// Windows this tick drained from the attached ingest queue and
    /// retained for this engine's users (delivered into an inbox — and
    /// scored this tick — or, on a failed rehydration, stashed on the
    /// parked entry). Zero when no queue is attached.
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Misrouted windows (see [`TickReport::misrouted`]) the fleet
    /// re-delivered to the user's current owning shard after this shard's
    /// tick — they score on the owner's next tick. Only ever nonzero on
    /// reports returned by
    /// [`ShardedFleet::tick`](crate::engine::ShardedFleet::tick).
    pub fn ingest_forwarded(&self) -> usize {
        self.ingest_forwarded
    }

    /// Ingest deliveries that hit a typed failure this tick: a rehydration
    /// failure (the window is stashed on the parked entry, not lost) or —
    /// at fleet level — a window for a user no shard knows
    /// ([`CoreError::UnknownUser`]; the only path that drops a window, and
    /// it is reported, never silent).
    pub fn ingest_errors(&self) -> &[(UserId, CoreError)] {
        &self.ingest_errors
    }

    /// Deferred-retrain jobs this tick's training cycle submitted to the
    /// attached [`TrainingService`](crate::engine::TrainingService) —
    /// freshly triggered this tick, or pending requests carried in by
    /// rehydration/migration. Inline-mode pipelines never appear here (see
    /// [`TickReport::retrains`] for trigger counts in either mode).
    pub fn retrains_started(&self) -> usize {
        self.retrains_started
    }

    /// Deferred-retrain jobs whose fitted model was applied at this tick's
    /// boundary.
    pub fn retrains_completed(&self) -> usize {
        self.retrains_completed
    }

    /// Deferred-retrain jobs abandoned since the previous report: canceled
    /// by release/eviction/migration of their user, or failed in training
    /// (those also appear in [`TickReport::errors`]). Every started job
    /// ends as exactly one of completed or canceled, so across a run
    /// `Σstarted == Σcompleted + Σcanceled + ` final
    /// [`retrains_in_flight`](TickReport::retrains_in_flight).
    pub fn retrains_canceled(&self) -> usize {
        self.retrains_canceled
    }

    /// Deferred-retrain jobs still in flight after this tick's training
    /// cycle (always zero with a
    /// [synchronous](crate::engine::TrainingService::synchronous) service).
    /// Cancels performed by this tick's *eviction pass* (which runs after
    /// the training cycle) are still counted in here; they surface in the
    /// next report's [`retrains_canceled`](TickReport::retrains_canceled).
    pub fn retrains_in_flight(&self) -> usize {
        self.retrains_in_flight
    }

    /// Drained windows whose user is not registered on this engine. On a
    /// standalone [`FleetEngine`](crate::engine::FleetEngine) they stay
    /// here for the caller to reroute; a
    /// [`ShardedFleet`](crate::engine::ShardedFleet) tick consumes them
    /// (re-delivering to the owning shard, see
    /// [`TickReport::ingest_forwarded`]), so fleet-returned reports show
    /// an empty slice.
    pub fn misrouted(&self) -> &[(UserId, DualDeviceWindow)] {
        &self.misrouted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthDecision;
    use smarteryou_sensors::UsageContext;

    fn decision(accepted: bool, action: ResponseAction, retrained: bool) -> ProcessOutcome {
        ProcessOutcome::Decision {
            decision: AuthDecision {
                accepted,
                confidence: if accepted { 0.9 } else { -0.4 },
                context: UsageContext::Stationary,
            },
            action,
            retrained,
        }
    }

    #[test]
    fn report_aggregates_counters() {
        let report = TickReport::new(
            vec![
                UserOutcomes {
                    user: UserId(0),
                    outcomes: vec![
                        ProcessOutcome::Enrolling {
                            stationary: 1,
                            moving: 0,
                        },
                        decision(true, ResponseAction::Allow, false),
                    ],
                },
                UserOutcomes {
                    user: UserId(1),
                    outcomes: vec![
                        decision(false, ResponseAction::Lock, false),
                        decision(true, ResponseAction::Allow, true),
                    ],
                },
            ],
            Vec::new(),
        );
        assert!(report.errors().is_empty());
        assert_eq!(report.windows_scored(), 4);
        assert_eq!(report.enrolling(), 1);
        assert_eq!(report.accepts(), 2);
        assert_eq!(report.rejections(), 1);
        assert_eq!(report.locks(), 1);
        assert_eq!(report.retrains(), 1);
        assert_eq!(report.users().len(), 2);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let report = TickReport::new(Vec::new(), Vec::new());
        assert_eq!(report.windows_scored(), 0);
        assert_eq!(report.accepts(), 0);
        assert_eq!(report.rejections(), 0);
        assert!(report.errors().is_empty());
    }
}
