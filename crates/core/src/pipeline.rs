use std::sync::Arc;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use smarteryou_ml::{KrrFitCache, KrrTailState};
use smarteryou_sensors::{DualDeviceWindow, UsageContext, WindowSpec};

use crate::auth::{AuthDecision, Authenticator};
use crate::config::{ContextMode, SystemConfig};
use crate::context_detect::ContextDetector;
use crate::engine::training::{JobId, RetrainOutput, RetrainRequest};
use crate::features::FeatureExtractor;
use crate::persist::{PipelineSnapshot, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
use crate::response::{ResponseAction, ResponseModule, ResponsePolicy};
use crate::retrain::{ConfidenceTracker, RetrainPolicy};
use crate::server::{EnrollmentWorkspace, NegativeEpoch, RetrainWorkspaceCache, TrainingHandle};
use crate::window_features::FeatureScratch;
use crate::CoreError;

/// Default bound on the per-pipeline [`SystemEvent`] ring buffer. Events
/// are rare (one per enrollment, retrain, or lock transition), but
/// unbounded they ride along in every snapshot for the life of the user;
/// the default keeps months of typical churn while capping the wire cost.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Lifecycle phase of the on-device system (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemPhase {
    /// Collecting the owner's windows until the enrollment buffers are full.
    Enrollment,
    /// Models trained; every window is authenticated.
    ContinuousAuth,
}

/// Notable events emitted by the pipeline, with the simulated day they
/// occurred.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SystemEvent {
    /// Enrollment buffers filled and the first models were trained.
    EnrollmentComplete {
        /// Simulated day.
        day: f64,
    },
    /// Behavioural drift triggered an automatic retrain (§V-I).
    Retrained {
        /// Simulated day.
        day: f64,
    },
    /// The response module locked the device.
    Locked {
        /// Simulated day.
        day: f64,
    },
}

/// How a retrain trigger is executed (§V-I's model refresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetrainMode {
    /// Retrain synchronously inside the triggering
    /// [`SmarterYou::process_window`] call — the historical behaviour, and
    /// still the default.
    Inline,
    /// Capture a self-contained [`RetrainRequest`] instead and keep scoring
    /// on the old model until a
    /// [`TrainingService`](crate::engine::training::TrainingService) hands
    /// the fitted replacement back (applied at a fleet-engine tick
    /// boundary). A standalone pipeline in this mode never completes a
    /// retrain by itself — it needs an engine with training enabled
    /// ([`FleetEngine::enable_training`](crate::engine::FleetEngine::enable_training)).
    Deferred,
}

/// Where a deferred retrain stands. The captured request travels with the
/// state: the pipeline's `recent` buffers keep growing while the job is
/// out, so abandoning a job (eviction, migration) must fall back to the
/// *trigger-time* request, not a recapture.
#[derive(Debug, Clone)]
pub(crate) enum RetrainState {
    /// No retrain outstanding.
    Idle,
    /// Triggered but not yet submitted to a training service.
    Pending { request: RetrainRequest },
    /// Submitted; scoring continues on the old model until the engine
    /// applies (or abandons) job `job` at a tick boundary.
    InFlight { job: JobId, request: RetrainRequest },
}

/// Result of feeding one window through [`SmarterYou::process_window`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProcessOutcome {
    /// Still enrolling; counts of buffered windows per context.
    Enrolling {
        /// Windows buffered in the stationary context.
        stationary: usize,
        /// Windows buffered in the moving context.
        moving: usize,
    },
    /// An authentication decision was made.
    Decision {
        /// Classifier verdict and confidence.
        decision: AuthDecision,
        /// Response-module action.
        action: ResponseAction,
        /// Whether this window triggered an automatic retrain.
        retrained: bool,
    },
}

/// The on-device SmarterYou runtime: feature extraction → context detection
/// → per-context authentication → response, plus enrollment buffering and
/// confidence-score-driven retraining (Figure 1's testing module).
///
/// The training service is reached through a shared [`TrainingHandle`] —
/// today an in-process [`TrainingServer`](crate::TrainingServer) behind a
/// mutex (the `Arc<Mutex<TrainingServer>>` coerces), later an
/// out-of-process service.
#[derive(Debug, Clone)]
pub struct SmarterYou {
    cfg: SystemConfig,
    extractor: FeatureExtractor,
    detector: ContextDetector,
    server: Arc<dyn TrainingHandle>,
    authenticator: Option<Authenticator>,
    response: ResponseModule,
    tracker: ConfidenceTracker,
    /// Enrollment buffers per context index.
    buffers: [Vec<Vec<f64>>; 2],
    /// Ring buffers of recently accepted windows, used for retraining.
    recent: [Vec<Vec<f64>>; 2],
    /// Ring buffer of notable events, capped at `event_capacity`.
    events: Vec<SystemEvent>,
    event_capacity: usize,
    day: f64,
    rng: StdRng,
    /// Planned-FFT workspace reused across windows (see [`FeatureScratch`]).
    scratch: FeatureScratch,
    /// Whether the detector shares this pipeline's extractor, letting one
    /// [`WindowFeatures`](crate::WindowFeatures) pass serve context
    /// detection *and* authentication.
    shared_extractor: bool,
    /// Frozen negative sample for epoch-stable retrains; `None` until the
    /// first retrain pins one. Persisted in snapshots (a restored pipeline
    /// must not redraw it — that would consume different randomness).
    negative_epoch: Option<NegativeEpoch>,
    /// Per-context KRR fit caches for the retrain path. Transient: a
    /// restored pipeline starts cold and simply refactors once — cache
    /// state never changes any trained model bit.
    fit_caches: [KrrFitCache; 2],
    /// Per-context positive-tail factor identity from the previous
    /// shared-workspace fit: retrains whose positive tail shifted by only
    /// a few windows slide the cached Cholesky factor instead of
    /// refactoring. **Persisted** in snapshots — unlike the fit caches, a
    /// slid factor is not bit-identical to a fresh one, so dropping the
    /// tail on evict/restore would break restore bit-parity.
    retrain_tails: [Option<KrrTailState>; 2],
    /// Per-epoch shared negative-Gram blocks for inline retrains.
    /// Transient and cheaply rebuilt; never changes model bits (the
    /// workspace is a pure function of the epoch and trainer config).
    ws_cache: RetrainWorkspaceCache,
    /// Whether retrain triggers run inline or defer to a training service.
    retrain_mode: RetrainMode,
    /// Deferred-retrain state machine; always `Idle` in inline mode.
    retrain_state: RetrainState,
}

impl SmarterYou {
    /// Creates a pipeline in the enrollment phase.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configurations.
    pub fn new(
        cfg: SystemConfig,
        detector: ContextDetector,
        server: Arc<dyn TrainingHandle>,
        seed: u64,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        let extractor = FeatureExtractor::paper_default(cfg.sample_rate());
        let shared_extractor = *detector.extractor() == extractor;
        Ok(SmarterYou {
            cfg,
            extractor,
            detector,
            server,
            authenticator: None,
            response: ResponseModule::new(ResponsePolicy::default()),
            tracker: ConfidenceTracker::new(RetrainPolicy::default()),
            buffers: [Vec::new(), Vec::new()],
            recent: [Vec::new(), Vec::new()],
            events: Vec::new(),
            event_capacity: DEFAULT_EVENT_CAPACITY,
            day: 0.0,
            rng: rand::SeedableRng::seed_from_u64(seed),
            scratch: FeatureScratch::default(),
            shared_extractor,
            negative_epoch: None,
            fit_caches: Default::default(),
            retrain_tails: [None, None],
            ws_cache: RetrainWorkspaceCache::new(),
            retrain_mode: RetrainMode::Inline,
            retrain_state: RetrainState::Idle,
        })
    }

    /// Overrides the response policy (default: lock on first rejection).
    pub fn with_response_policy(mut self, policy: ResponsePolicy) -> Self {
        self.response = ResponseModule::new(policy);
        self
    }

    /// Overrides the retraining policy (default: ε = 0.2 over 30 windows).
    pub fn with_retrain_policy(mut self, policy: RetrainPolicy) -> Self {
        self.tracker = ConfidenceTracker::new(policy);
        self
    }

    /// Overrides how retrain triggers execute (default:
    /// [`RetrainMode::Inline`]). Switching to [`RetrainMode::Deferred`]
    /// with a retrain already captured would orphan it, so this is a
    /// construction-time builder like the policy overrides.
    pub fn with_retrain_mode(mut self, mode: RetrainMode) -> Self {
        debug_assert!(
            matches!(self.retrain_state, RetrainState::Idle),
            "retrain mode set after a retrain was captured"
        );
        self.retrain_mode = mode;
        self
    }

    /// How retrain triggers execute on this pipeline.
    pub fn retrain_mode(&self) -> RetrainMode {
        self.retrain_mode
    }

    /// Whether a deferred retrain is outstanding (captured or submitted).
    /// Always `false` in inline mode.
    pub fn retrain_outstanding(&self) -> bool {
        !matches!(self.retrain_state, RetrainState::Idle)
    }

    /// Overrides how many `(day, score)` pairs the confidence tracker
    /// retains for plotting (see
    /// [`ConfidenceTracker::with_history_retention`]). Experiment harnesses
    /// regenerating Figure 7 pass a run-length retention; the runtime
    /// default keeps one rolling window's worth.
    pub fn with_history_retention(mut self, retention: usize) -> Self {
        self.tracker = self.tracker.with_history_retention(retention);
        self
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> SystemPhase {
        if self.authenticator.is_some() {
            SystemPhase::ContinuousAuth
        } else {
            SystemPhase::Enrollment
        }
    }

    /// Advances the pipeline's notion of time (fractional days).
    pub fn set_clock(&mut self, day: f64) {
        self.day = day;
    }

    /// The trained authenticator, once enrollment completed.
    pub fn authenticator(&self) -> Option<&Authenticator> {
        self.authenticator.as_ref()
    }

    /// Most recent events, oldest first — a ring buffer bounded at
    /// [`SmarterYou::event_capacity`], so a long-lived pipeline reports its
    /// latest `capacity` events rather than growing (and snapshotting)
    /// without bound.
    pub fn events(&self) -> &[SystemEvent] {
        &self.events
    }

    /// The configured [`SystemEvent`] ring-buffer bound.
    pub fn event_capacity(&self) -> usize {
        self.event_capacity
    }

    /// Cumulative (hits, misses) of the per-context KRR fit caches that
    /// batched enrollment ([`SmarterYou::enroll_with`]) and the retrain path
    /// ([`crate::TrainingServer::train_authenticator_epoch_shared`]) run
    /// through: a hit means a fit avoided the full cubic factorisation by
    /// solving off the epoch's shared negative-Gram block, a miss means it
    /// paid one. See [`SmarterYou::fit_cache_detail`] for the split.
    pub fn fit_cache_stats(&self) -> (u64, u64) {
        self.fit_caches
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()))
    }

    /// Cumulative `(shared_hits, keyed_hits, misses)` across the
    /// per-context fit caches — the split behind
    /// [`SmarterYou::fit_cache_stats`]. A *shared* hit means the fit came
    /// off the per-epoch negative-Gram block (one m×m solve or a tail
    /// slide), a *keyed* hit means an identical design matrix reused its
    /// exact cached factorisation, and a miss means the full cubic
    /// factorisation was paid. The retrain-storm guard keys off the miss
    /// count alone, so shared-block fallbacks can't masquerade as hits.
    pub fn fit_cache_detail(&self) -> (u64, u64, u64) {
        self.fit_caches.iter().fold((0, 0, 0), |(s, k, m), c| {
            (s + c.shared_hits(), k + c.keyed_hits(), m + c.misses())
        })
    }

    /// Appends to the bounded event log, dropping the oldest entry at
    /// capacity.
    fn push_event(&mut self, event: SystemEvent) {
        if self.events.len() == self.event_capacity {
            // O(capacity) shift, but events are rare (retrains and lock
            // transitions) and the capacity small.
            self.events.remove(0);
        }
        self.events.push(event);
    }

    /// Enforces the event bound (after restore or a capacity change),
    /// keeping the most recent entries.
    fn truncate_events(&mut self) {
        if self.events.len() > self.event_capacity {
            self.events.drain(..self.events.len() - self.event_capacity);
        }
    }

    /// The confidence-score tracker (Figure 7's time series).
    pub fn confidence_tracker(&self) -> &ConfidenceTracker {
        &self.tracker
    }

    /// Whether the response module has locked the device.
    pub fn is_locked(&self) -> bool {
        self.response.is_locked()
    }

    /// Models a successful explicit login, unlocking the device.
    pub fn unlock_with_explicit_auth(&mut self) {
        self.response.unlock_with_explicit_auth();
    }

    /// Windows needed per context before enrollment can finish.
    fn enrollment_target(&self) -> usize {
        self.cfg.data_size() / 2
    }

    /// The shared training-service handle this pipeline talks to. The
    /// fleet engine retains it across eviction so rehydration reattaches
    /// the restored pipeline to the same service state.
    pub(crate) fn training_handle(&self) -> &Arc<dyn TrainingHandle> {
        &self.server
    }

    // --- Deferred-retrain state machine (engine-facing) -----------------
    //
    // The engine drives these at tick boundaries: a captured request is
    // submitted (`pending_retrain_request` + `note_retrain_submitted`), a
    // completed job is installed (`apply_retrain`) or surfaced as an error
    // (`fail_retrain`), and eviction/migration abandons an in-flight job
    // back to `Pending` (`abandon_retrain_job`) so snapshots carry the
    // trigger-time request and the target engine can reissue it.

    /// The captured-but-unsubmitted retrain request, if any (cloned; the
    /// original rides into `InFlight` on submit).
    pub(crate) fn pending_retrain_request(&self) -> Option<RetrainRequest> {
        match &self.retrain_state {
            RetrainState::Pending { request } => Some(request.clone()),
            _ => None,
        }
    }

    /// Records that the pending request was submitted as `job`.
    pub(crate) fn note_retrain_submitted(&mut self, job: JobId) {
        let state = std::mem::replace(&mut self.retrain_state, RetrainState::Idle);
        match state {
            RetrainState::Pending { request } => {
                self.retrain_state = RetrainState::InFlight { job, request };
            }
            other => {
                debug_assert!(false, "submit noted without a pending retrain");
                self.retrain_state = other;
            }
        }
    }

    /// The in-flight job id, if a submitted retrain is outstanding.
    pub(crate) fn retrain_job(&self) -> Option<JobId> {
        match &self.retrain_state {
            RetrainState::InFlight { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// Abandons the in-flight job (its result, if any ever arrives, must
    /// be discarded by the caller) and reverts to `Pending` with the
    /// trigger-time request, so the retrain is reissued — possibly by a
    /// different engine after migration — rather than lost.
    pub(crate) fn abandon_retrain_job(&mut self) {
        let state = std::mem::replace(&mut self.retrain_state, RetrainState::Idle);
        self.retrain_state = match state {
            RetrainState::InFlight { request, .. } => RetrainState::Pending { request },
            other => other,
        };
    }

    /// Installs a completed retrain: the fitted model plus the post-train
    /// RNG/epoch/cache state inline retraining would have left. Returns
    /// `false` (and changes nothing) unless `job` matches the in-flight
    /// job — the guard that a stale result from an abandoned job can never
    /// land.
    pub(crate) fn apply_retrain(&mut self, job: JobId, output: RetrainOutput) -> bool {
        match &self.retrain_state {
            RetrainState::InFlight { job: expected, .. } if *expected == job => {}
            _ => return false,
        }
        let RetrainOutput {
            authenticator,
            rng_state,
            negative_epoch,
            fit_caches,
            retrain_tails,
            day,
        } = output;
        self.authenticator = Some(authenticator);
        // Nothing consumes pipeline randomness between trigger and apply
        // (scoring draws none; re-triggers are suppressed while a retrain
        // is outstanding), so installing the post-train state keeps the
        // stream in lockstep with inline retraining.
        self.rng = StdRng::from_state(rng_state);
        self.negative_epoch = negative_epoch;
        self.fit_caches = fit_caches;
        self.retrain_tails = retrain_tails;
        self.retrain_state = RetrainState::Idle;
        self.push_event(SystemEvent::Retrained { day });
        true
    }

    /// Drops the in-flight job after its execution failed; a later trigger
    /// starts fresh. Fit caches travel with the failed job and come back
    /// cold — irrelevant to model bits.
    pub(crate) fn fail_retrain(&mut self, job: JobId) {
        if self.retrain_job() == Some(job) {
            self.retrain_state = RetrainState::Idle;
        }
    }

    /// Captures everything [`crate::engine::training::execute`] needs to
    /// reproduce an inline retrain bit-for-bit, as of the trigger window.
    fn capture_retrain_request(&mut self) -> RetrainRequest {
        RetrainRequest {
            positives: [self.recent[0].clone(), self.recent[1].clone()],
            cfg: self.cfg.clone(),
            rng_state: self.rng.state(),
            negative_epoch: self.negative_epoch.clone(),
            // The caches and tails travel with the job (the worker refits
            // through them) and are reinstalled on apply. A failed or
            // dropped job leaves them cold — an accelerator loss, never a
            // correctness one.
            fit_caches: std::mem::take(&mut self.fit_caches),
            retrain_tails: std::mem::take(&mut self.retrain_tails),
            day: self.day,
        }
    }

    /// Captures the pipeline's complete per-user state as a versioned
    /// [`PipelineSnapshot`] — configuration, detector forest, per-context
    /// KRR models, enrollment + retrain buffers, confidence tracker,
    /// response state, event log, clock, RNG position, and the
    /// window-length FFT plan key.
    ///
    /// [`SmarterYou::restore`] inverts this **bit-identically**: the
    /// restored pipeline produces exactly the decisions, scores, and
    /// retrain events the original would have (see
    /// [`crate::persist`] for the format and compatibility policy).
    pub fn snapshot(&self) -> PipelineSnapshot {
        // One construction site for the wire format: the clone is what a
        // non-consuming capture costs anyway, and a field added to
        // `into_snapshot` can never be missed here.
        self.clone().into_snapshot()
    }

    /// Consuming form of [`SmarterYou::snapshot`]: moves the state out
    /// instead of deep-cloning it. This is the eviction hot path — the
    /// pipeline is being dropped anyway, so the detector forest, models,
    /// and ring buffers transfer into the snapshot without a copy.
    pub fn into_snapshot(self) -> PipelineSnapshot {
        let planned_window = self
            .scratch
            .planned_len()
            .map(|n| WindowSpec::new(n, self.cfg.sample_rate()));
        // Any outstanding deferred retrain persists as its trigger-time
        // request (a job id is meaningless outside its engine): restore
        // reverts to `Pending` and the owning engine resubmits. Fit caches
        // and cfg are dropped from the wire form — caches never change
        // model bits, and the request's cfg is the pipeline's own.
        let retrain_in_flight = match &self.retrain_state {
            RetrainState::Idle => None,
            RetrainState::Pending { request } | RetrainState::InFlight { request, .. } => {
                Some(crate::persist::PersistedRetrain::from_request(request))
            }
        };
        PipelineSnapshot {
            format: SNAPSHOT_FORMAT.to_string(),
            version: SNAPSHOT_VERSION,
            rng_state: self.rng.state(),
            cfg: self.cfg,
            detector: self.detector,
            authenticator: self.authenticator,
            response: self.response,
            tracker: self.tracker,
            buffers: self.buffers,
            recent: self.recent,
            events: self.events,
            event_capacity: self.event_capacity,
            day: self.day,
            planned_window,
            negative_epoch: self.negative_epoch,
            retrain_tails: self.retrain_tails,
            retrain_mode: self.retrain_mode,
            retrain_in_flight,
        }
    }

    /// Rebuilds a pipeline from a [`PipelineSnapshot`], reattaching the
    /// shared `server` handle (the one pipeline dependency that is
    /// fleet-shared rather than per-user). The FFT plan recorded in the
    /// snapshot's plan key is rebuilt eagerly, so the first post-restore
    /// window pays no planning cost.
    ///
    /// # Errors
    ///
    /// [`CoreError::Persist`] when the snapshot fails
    /// [`PipelineSnapshot::validate`], and [`CoreError::InvalidConfig`]
    /// when its captured configuration is out of range.
    pub fn restore(
        snapshot: PipelineSnapshot,
        server: Arc<dyn TrainingHandle>,
    ) -> Result<Self, CoreError> {
        snapshot.validate()?;
        snapshot.cfg.validate()?;
        let extractor = FeatureExtractor::paper_default(snapshot.cfg.sample_rate());
        let shared_extractor = *snapshot.detector.extractor() == extractor;
        let mut scratch = FeatureScratch::default();
        if let Some(spec) = snapshot.planned_window {
            scratch.prepare(spec.samples);
        }
        // An outstanding deferred retrain rehydrates as `Pending` with the
        // persisted trigger-time request (cold caches; the pipeline's own
        // cfg) — the owning engine resubmits it at the next tick boundary.
        let retrain_state = match snapshot.retrain_in_flight {
            Some(persisted) => RetrainState::Pending {
                request: persisted.into_request(snapshot.cfg.clone()),
            },
            None => RetrainState::Idle,
        };
        let mut restored = SmarterYou {
            cfg: snapshot.cfg,
            extractor,
            detector: snapshot.detector,
            server,
            authenticator: snapshot.authenticator,
            response: snapshot.response,
            tracker: snapshot.tracker,
            buffers: snapshot.buffers,
            recent: snapshot.recent,
            events: snapshot.events,
            event_capacity: snapshot.event_capacity,
            day: snapshot.day,
            rng: rand::rngs::StdRng::from_state(snapshot.rng_state),
            scratch,
            shared_extractor,
            negative_epoch: snapshot.negative_epoch,
            // Cold caches: the first post-restore retrain refactors once.
            fit_caches: Default::default(),
            // Tails are NOT cold: a slid factor differs in bits from a
            // fresh one, so restore bit-parity needs the persisted state.
            retrain_tails: snapshot.retrain_tails,
            ws_cache: RetrainWorkspaceCache::new(),
            retrain_mode: snapshot.retrain_mode,
            retrain_state,
        };
        // A legacy snapshot may carry an over-long event log from before
        // the ring bound existed; keep its most recent entries.
        restored.truncate_events();
        Ok(restored)
    }

    /// Feeds one captured window through the pipeline: the one-window case
    /// of [`SmarterYou::process_batch`].
    ///
    /// During enrollment the window is buffered (and contributed,
    /// anonymized, to the training server's pool for *other* users' models).
    /// Once both context buffers reach `data_size/2`, the authenticator is
    /// trained and the system switches to continuous authentication.
    ///
    /// # Errors
    ///
    /// Propagates training failures at the enrollment→auth transition.
    pub fn process_window(
        &mut self,
        window: &DualDeviceWindow,
    ) -> Result<ProcessOutcome, CoreError> {
        let mut outcomes = self.process_batch(std::slice::from_ref(window))?;
        Ok(outcomes.pop().expect("one outcome per window"))
    }

    /// Feeds a whole slice of captured windows through the pipeline,
    /// producing exactly the outcomes sequential [`SmarterYou::process_window`]
    /// calls would (the batch-parity tests assert bit-equality).
    ///
    /// During continuous authentication the remaining windows are scored as
    /// one grouped matrix pass per context
    /// ([`Authenticator::authenticate_grouped`]) instead of per-row kernel
    /// evaluations; state transitions (response module, confidence tracker,
    /// retrain buffers) then replay in order. A mid-batch retrain or an
    /// enrollment→auth transition invalidates the scores of later windows,
    /// so scoring restarts from the first window after the model change.
    ///
    /// # Errors
    ///
    /// Propagates training failures, like [`SmarterYou::process_window`].
    pub fn process_batch(
        &mut self,
        windows: &[DualDeviceWindow],
    ) -> Result<Vec<ProcessOutcome>, CoreError> {
        // Route through the pipeline's own scratch. `take` swaps in an
        // empty default (a few pointer moves) so the borrow of the scratch
        // and of `self` don't overlap.
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.process_batch_with_scratch(windows, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// [`SmarterYou::process_batch`] extracting through a caller-owned
    /// scratch — the fleet-tick entry point. A scratch holds only plans and
    /// buffers, never model state, so outcomes are bit-identical whichever
    /// scratch is passed.
    ///
    /// # Errors
    ///
    /// Propagates training failures, like [`SmarterYou::process_window`].
    pub fn process_batch_with_scratch(
        &mut self,
        windows: &[DualDeviceWindow],
        scratch: &mut FeatureScratch,
    ) -> Result<Vec<ProcessOutcome>, CoreError> {
        let mut out = Vec::with_capacity(windows.len());
        let mut i = 0;
        while i < windows.len() {
            if self.phase() == SystemPhase::Enrollment {
                // Enrollment is inherently sequential (a window may finish
                // enrollment and train the first models).
                let (context, features) = self.detect_and_extract(&windows[i], scratch);
                out.push(self.enroll_window(context, features)?);
                i += 1;
                continue;
            }
            // Detect + extract every remaining window once: contexts and
            // features are model-independent, so a mid-batch retrain only
            // invalidates the *scores*, not this work.
            let mut prepared: Vec<(UsageContext, Vec<f64>)> = windows[i..]
                .iter()
                .map(|w| self.detect_and_extract(w, scratch))
                .collect();
            let mut start = 0;
            while start < prepared.len() {
                // Batch-score everything not yet consumed under the current
                // models, then replay the state transitions in order.
                let decisions = self
                    .authenticator
                    .as_ref()
                    .expect("phase checked")
                    .authenticate_grouped(&prepared[start..]);
                for decision in decisions {
                    let features = std::mem::take(&mut prepared[start].1);
                    let outcome = self.apply_decision(features, decision)?;
                    start += 1;
                    i += 1;
                    let retrained = matches!(
                        outcome,
                        ProcessOutcome::Decision {
                            retrained: true,
                            ..
                        }
                    );
                    out.push(outcome);
                    if retrained && self.retrain_mode == RetrainMode::Inline {
                        // Model swapped: the remaining prepared windows are
                        // re-scored by the new model, exactly as sequential
                        // processing would score them. (A deferred trigger
                        // swaps nothing mid-batch — the old model keeps
                        // scoring until the engine applies the replacement
                        // at a tick boundary.)
                        break;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Detects the context and extracts the authentication features of one
    /// window through the cached [`WindowFeatures`](crate::WindowFeatures)
    /// path: each device's
    /// magnitude streams, summaries, and planned spectra are computed once
    /// and serve both the detector and the authenticator.
    ///
    /// When the detector was trained with a different extractor than this
    /// pipeline's (possible via [`SmarterYou::new`]'s `detector` argument),
    /// the cache cannot be shared and the detector extracts its own
    /// features, exactly as the uncached path always did.
    fn detect_and_extract(
        &mut self,
        window: &DualDeviceWindow,
        scratch: &mut FeatureScratch,
    ) -> (UsageContext, Vec<f64>) {
        let features = self
            .extractor
            .window_features(window, self.cfg.device_set(), scratch);
        let context = if self.shared_extractor {
            self.detector
                .detect_from_features(features.context_features())
        } else {
            self.detector.detect(window)
        };
        (context, features.into_auth_features(self.cfg.device_set()))
    }

    /// Buffers one enrollment window and trains the first models when the
    /// buffers fill.
    fn enroll_window(
        &mut self,
        context: UsageContext,
        features: Vec<f64>,
    ) -> Result<ProcessOutcome, CoreError> {
        self.buffers[context.index()].push(features);
        let target = self.enrollment_target();
        let (st, mv) = (self.buffers[0].len(), self.buffers[1].len());
        let ready = match self.cfg.context_mode() {
            ContextMode::PerContext => st >= target && mv >= target,
            ContextMode::Unified => st + mv >= 2 * target,
        };
        if ready {
            self.train_from_buffers()?;
            self.push_event(SystemEvent::EnrollmentComplete { day: self.day });
        }
        Ok(ProcessOutcome::Enrolling {
            stationary: st,
            moving: mv,
        })
    }

    /// Applies one already-scored authentication decision: response module,
    /// retrain buffers, confidence tracker, events.
    fn apply_decision(
        &mut self,
        features: Vec<f64>,
        decision: AuthDecision,
    ) -> Result<ProcessOutcome, CoreError> {
        let action = self.response.on_decision(decision.accepted);
        if action == ResponseAction::Lock
            && !matches!(self.events.last(), Some(SystemEvent::Locked { .. }))
        {
            self.push_event(SystemEvent::Locked { day: self.day });
        }
        let mut retrained = false;
        if decision.accepted {
            // Keep a bounded buffer of fresh behaviour per context.
            let cap = self.enrollment_target();
            let buf = &mut self.recent[decision.context.index()];
            buf.push(features);
            if buf.len() > cap {
                buf.remove(0);
            }
            if self.tracker.record(self.day, decision.confidence) {
                match self.retrain_mode {
                    RetrainMode::Inline => {
                        self.retrain()?;
                        retrained = true;
                        self.push_event(SystemEvent::Retrained { day: self.day });
                    }
                    RetrainMode::Deferred => {
                        if matches!(self.retrain_state, RetrainState::Idle) {
                            // Capture now, fit later: scoring continues on
                            // the old model. The tracker resets here (as
                            // inline would) so it stays in lockstep with
                            // the inline path; the `Retrained` event waits
                            // for the apply. The outcome flag marks the
                            // *trigger*, same window as inline.
                            let request = self.capture_retrain_request();
                            self.retrain_state = RetrainState::Pending { request };
                            self.tracker.mark_retrained();
                            retrained = true;
                        }
                        // A trigger with a retrain already outstanding is
                        // suppressed: the tracker was cleared at capture,
                        // so this only fires after another full period of
                        // low-confidence windows while the job is out.
                    }
                }
            }
        } else {
            // Rejected windows still inform the tracker (they reset
            // the low-confidence run, per §V-I).
            self.tracker.record(self.day, decision.confidence);
        }
        Ok(ProcessOutcome::Decision {
            decision,
            action,
            retrained,
        })
    }

    /// Trains the initial authenticator from the enrollment buffers.
    fn train_from_buffers(&mut self) -> Result<(), CoreError> {
        let positives = [self.buffers[0].clone(), self.buffers[1].clone()];
        let auth = self
            .server
            .train_authenticator(&positives, &self.cfg, &mut self.rng)?;
        // Seed the retraining buffers with the enrollment data.
        self.recent = positives;
        self.authenticator = Some(auth);
        Ok(())
    }

    /// The per-context enrollment buffers accumulated so far — the windows
    /// the owner contributed during [`SystemPhase::Enrollment`]. Batched
    /// enrollment harvests these from a template pipeline and hands them
    /// to [`SmarterYou::enroll_with`] on each user's own pipeline.
    pub fn enrollment_buffers(&self) -> &[Vec<Vec<f64>>; 2] {
        &self.buffers
    }

    /// The system configuration this pipeline runs under.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Completes enrollment in one step against a prebuilt
    /// [`EnrollmentWorkspace`]: `buffers` become the pipeline's enrollment
    /// buffers and retrain seed, the authenticator is fitted off the
    /// workspace's shared negative block, and the workspace's epoch is
    /// adopted so later retrains stay pinned to the same frozen sample.
    ///
    /// Unlike the per-window path ([`SmarterYou::process_window`] during
    /// [`SystemPhase::Enrollment`]), this consumes **no pipeline
    /// randomness** — the negative sample was drawn once when the
    /// workspace was built. The fit is the retrain closed form run cold:
    /// the authenticator is bit-identical to a retrain over `buffers` with
    /// no previous tail, and no tail state is kept (see the
    /// `enroll_parity` suite).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if the pipeline is already enrolled;
    /// training failures are propagated with the pipeline left in the
    /// enrollment phase.
    pub fn enroll_with(
        &mut self,
        ws: &EnrollmentWorkspace,
        buffers: [Vec<Vec<f64>>; 2],
    ) -> Result<(), CoreError> {
        if self.phase() != SystemPhase::Enrollment {
            return Err(CoreError::InvalidConfig(
                "enroll_with called on an already-enrolled pipeline".into(),
            ));
        }
        // A cold retrain whose tail states are dropped: keeping them would
        // put `retrain_tails` into the snapshot of every user who never
        // retrained and change the first retrain's bits.
        let auth =
            ws.train_authenticator(&buffers, &self.cfg, &mut self.fit_caches, &mut [None, None])?;
        self.recent = buffers.clone();
        self.buffers = buffers;
        self.authenticator = Some(auth);
        self.negative_epoch = Some(ws.epoch().clone());
        self.push_event(SystemEvent::EnrollmentComplete { day: self.day });
        Ok(())
    }

    /// Retrains from the most recent accepted windows (§V-I: "upload the
    /// legitimate user's latest authentication feature vectors") with
    /// epoch-stable negative sampling through the shared per-epoch
    /// workspace: the frozen sample in `negative_epoch` is reused while
    /// the server pool is unchanged, its negative-Gram block comes out of
    /// `ws_cache`, and the previous fit's positive-tail factor identity in
    /// `retrain_tails` lets a retrain whose buffer shifted by only a few
    /// windows slide the Cholesky factor instead of refactoring
    /// (observable via [`SmarterYou::fit_cache_detail`]). Deferred mode
    /// runs the *same* handle entry point, which is what keeps
    /// deferred-sync retrains bit-identical to inline ones.
    fn retrain(&mut self) -> Result<(), CoreError> {
        let positives = [self.recent[0].clone(), self.recent[1].clone()];
        let auth = self.server.train_authenticator_epoch_shared(
            &positives,
            &self.cfg,
            &mut self.rng,
            &mut self.negative_epoch,
            &mut self.fit_caches,
            &mut self.retrain_tails,
            &self.ws_cache,
        )?;
        self.authenticator = Some(auth);
        self.tracker.mark_retrained();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context_detect::ContextDetectorConfig;
    use crate::server::TrainingServer;
    use parking_lot::Mutex;
    use rand::SeedableRng;
    use smarteryou_sensors::{
        Population, RawContext, TraceGenerator, UsageContext, UserProfile, WindowSpec,
    };

    /// Small end-to-end fixture: 2 s windows, small data size, 4 users'
    /// negatives in the server pool.
    struct Fixture {
        cfg: SystemConfig,
        detector: ContextDetector,
        server: Arc<Mutex<TrainingServer>>,
        spec: WindowSpec,
        owner: UserProfile,
        impostor: UserProfile,
    }

    fn fixture() -> Fixture {
        let cfg = SystemConfig::paper_default()
            .with_window_secs(2.0)
            .with_data_size(40);
        let spec = WindowSpec::from_seconds(2.0, 50.0);
        let population = Population::generate(6, 17);
        let extractor = FeatureExtractor::paper_default(50.0);

        // Train a context detector on users 2..6 (user-agnostic wrt 0/1).
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for user in &population.users()[2..] {
            let mut gen = TraceGenerator::new(user.clone(), 23);
            for ctx in [RawContext::SittingStanding, RawContext::MovingAround] {
                for w in gen.generate_windows(ctx, spec, 10) {
                    feats.push(extractor.context_features(&w));
                    labels.push(ctx.coarse());
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let detector = ContextDetector::train(
            extractor.clone(),
            &feats,
            &labels,
            ContextDetectorConfig {
                num_trees: 20,
                max_depth: 8,
            },
            &mut rng,
        )
        .unwrap();

        // Fill the server pool with users 2..6 as anonymized negatives.
        let mut server = TrainingServer::new();
        for user in &population.users()[2..] {
            let mut gen = TraceGenerator::new(user.clone(), 29);
            for (raw, ctx) in [
                (RawContext::SittingStanding, UsageContext::Stationary),
                (RawContext::MovingAround, UsageContext::Moving),
            ] {
                let f: Vec<Vec<f64>> = gen
                    .generate_windows(raw, spec, 30)
                    .iter()
                    .map(|w| extractor.auth_features(w, cfg.device_set()))
                    .collect();
                server.contribute(ctx, f);
            }
        }

        Fixture {
            cfg,
            detector,
            server: Arc::new(Mutex::new(server)),
            spec,
            owner: population.users()[0].clone(),
            impostor: population.users()[1].clone(),
        }
    }

    fn enroll(sys: &mut SmarterYou, owner: &UserProfile, spec: WindowSpec) {
        let mut gen = TraceGenerator::new(owner.clone(), 31);
        let mut guard = 0;
        while sys.phase() == SystemPhase::Enrollment && guard < 500 {
            guard += 1;
            let ctx = if guard % 2 == 0 {
                RawContext::SittingStanding
            } else {
                RawContext::MovingAround
            };
            for w in gen.generate_windows(ctx, spec, 5) {
                sys.process_window(&w).unwrap();
            }
        }
        assert_eq!(sys.phase(), SystemPhase::ContinuousAuth, "enrollment stuck");
    }

    #[test]
    fn enrollment_transitions_to_continuous_auth() {
        let f = fixture();
        let mut sys =
            SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 1).unwrap();
        assert_eq!(sys.phase(), SystemPhase::Enrollment);
        enroll(&mut sys, &f.owner, f.spec);
        assert!(matches!(
            sys.events()[0],
            SystemEvent::EnrollmentComplete { .. }
        ));
        assert!(sys.authenticator().is_some());
    }

    #[test]
    fn owner_mostly_accepted_impostor_mostly_rejected() {
        let f = fixture();
        let mut sys = SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 2)
            .unwrap()
            .with_response_policy(ResponsePolicy {
                rejects_to_lock: usize::MAX,
            });
        enroll(&mut sys, &f.owner, f.spec);

        let count_accepts = |sys: &mut SmarterYou, user: &UserProfile, seed: u64| {
            let mut gen = TraceGenerator::new(user.clone(), seed);
            let mut accepted = 0;
            let mut total = 0;
            for ctx in [RawContext::SittingStanding, RawContext::MovingAround] {
                for w in gen.generate_windows(ctx, f.spec, 15) {
                    if let ProcessOutcome::Decision { decision, .. } =
                        sys.process_window(&w).unwrap()
                    {
                        total += 1;
                        if decision.accepted {
                            accepted += 1;
                        }
                    }
                }
            }
            accepted as f64 / total as f64
        };
        let owner_rate = count_accepts(&mut sys, &f.owner, 41);
        let impostor_rate = count_accepts(&mut sys, &f.impostor, 43);
        assert!(owner_rate > 0.7, "owner accept rate {owner_rate}");
        assert!(impostor_rate < 0.3, "impostor accept rate {impostor_rate}");
    }

    /// A retrain policy that fires as soon as the rolling window fills with
    /// accepted (non-negative, below-huge-threshold) scores — used to force
    /// retrains deterministically in tests.
    fn eager_retrain(period: usize) -> RetrainPolicy {
        RetrainPolicy {
            threshold: 1e9,
            period,
            max_reject_fraction: 1.0,
        }
    }

    #[test]
    fn retrain_is_deterministic_per_seed() {
        // Guard for the future epoch-stable negative-sampling work: with a
        // fixed RNG seed, `SmarterYou::retrain` must reproduce identical
        // model parameters run after run — the negative sample drawn from
        // the server pool is a pure function of the seeded RNG stream.
        let f = fixture();
        let run = || {
            let mut sys = SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 77)
                .unwrap()
                .with_response_policy(ResponsePolicy {
                    rejects_to_lock: usize::MAX,
                })
                .with_retrain_policy(eager_retrain(5));
            enroll(&mut sys, &f.owner, f.spec);
            let mut gen = TraceGenerator::new(f.owner.clone(), 83);
            let mut retrains = 0;
            for ctx in [RawContext::SittingStanding, RawContext::MovingAround] {
                for w in gen.generate_windows(ctx, f.spec, 10) {
                    if let ProcessOutcome::Decision {
                        retrained: true, ..
                    } = sys.process_window(&w).unwrap()
                    {
                        retrains += 1;
                    }
                }
            }
            (sys, retrains)
        };
        let (a, retrains_a) = run();
        let (b, retrains_b) = run();
        assert!(retrains_a > 0, "test must exercise the retrain path");
        assert_eq!(retrains_a, retrains_b);
        // Identical weights, field for field (KrrModel derives PartialEq on
        // its raw parameters), identical events and tracker history.
        assert_eq!(a.authenticator(), b.authenticator());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.confidence_tracker(), b.confidence_tracker());
        // And a different seed draws a different negative sample.
        let mut c = SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 78)
            .unwrap()
            .with_response_policy(ResponsePolicy {
                rejects_to_lock: usize::MAX,
            })
            .with_retrain_policy(eager_retrain(5));
        enroll(&mut c, &f.owner, f.spec);
        assert_ne!(a.authenticator(), c.authenticator());
    }

    #[test]
    fn one_context_usage_streak_hits_the_krr_fit_cache() {
        // After the first retrain pins the negative epoch, a streak of
        // stationary-only windows leaves the *moving* context's recent
        // buffer untouched — so the next retrain presents the moving model
        // with an identical design matrix and must reuse the cached
        // Cholesky factorisation (ROADMAP "KRR fit cache" item).
        let f = fixture();
        let mut sys = SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 21)
            .unwrap()
            .with_response_policy(ResponsePolicy {
                rejects_to_lock: usize::MAX,
            })
            .with_retrain_policy(eager_retrain(4));
        enroll(&mut sys, &f.owner, f.spec);
        assert_eq!(sys.fit_cache_stats(), (0, 0), "caches start cold");

        let mut gen = TraceGenerator::new(f.owner.clone(), 91);
        let mut retrains = 0;
        for w in gen.generate_windows(RawContext::SittingStanding, f.spec, 30) {
            if let ProcessOutcome::Decision {
                retrained: true, ..
            } = sys.process_window(&w).unwrap()
            {
                retrains += 1;
            }
        }
        assert!(retrains >= 2, "streak produced only {retrains} retrains");
        let (hits, misses) = sys.fit_cache_stats();
        assert!(
            hits > 0,
            "label-stable refits never hit the fit cache ({misses} misses)"
        );
    }

    #[test]
    fn snapshot_restore_roundtrips_mid_stream() {
        let f = fixture();
        let mut sys = SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 5)
            .unwrap()
            .with_response_policy(ResponsePolicy {
                rejects_to_lock: usize::MAX,
            })
            .with_retrain_policy(eager_retrain(4));
        enroll(&mut sys, &f.owner, f.spec);
        let mut gen = TraceGenerator::new(f.owner.clone(), 59);
        for w in gen.generate_windows(RawContext::SittingStanding, f.spec, 6) {
            sys.process_window(&w).unwrap();
        }

        // Round-trip through the JSON wire form, then continue both the
        // original and the restored pipeline over the same future windows.
        let snap = sys.snapshot();
        let wire = snap.to_json();
        let back = crate::persist::PipelineSnapshot::from_json(&wire).unwrap();
        assert_eq!(snap, back);
        let mut restored = SmarterYou::restore(back, f.server.clone()).unwrap();
        assert_eq!(restored.phase(), sys.phase());
        assert_eq!(restored.events(), sys.events());

        for ctx in [RawContext::MovingAround, RawContext::SittingStanding] {
            for w in gen.generate_windows(ctx, f.spec, 8) {
                let expected = sys.process_window(&w).unwrap();
                let got = restored.process_window(&w).unwrap();
                match (expected, got) {
                    (
                        ProcessOutcome::Decision {
                            decision: d0,
                            action: a0,
                            retrained: r0,
                        },
                        ProcessOutcome::Decision {
                            decision: d1,
                            action: a1,
                            retrained: r1,
                        },
                    ) => {
                        assert_eq!(d0.confidence.to_bits(), d1.confidence.to_bits());
                        assert_eq!(
                            (d0.accepted, d0.context, a0, r0),
                            (d1.accepted, d1.context, a1, r1)
                        );
                    }
                    (e, g) => assert_eq!(e, g),
                }
            }
        }
        // Retrains consumed RNG words on both sides; states stay in lockstep.
        assert_eq!(sys.snapshot(), restored.snapshot());
    }

    #[test]
    fn impostor_gets_locked_quickly() {
        let f = fixture();
        let mut sys =
            SmarterYou::new(f.cfg.clone(), f.detector.clone(), f.server.clone(), 3).unwrap();
        enroll(&mut sys, &f.owner, f.spec);
        let mut gen = TraceGenerator::new(f.impostor.clone(), 47);
        let mut windows_until_lock = 0;
        'outer: for _ in 0..10 {
            for w in gen.generate_windows(RawContext::SittingStanding, f.spec, 5) {
                windows_until_lock += 1;
                sys.process_window(&w).unwrap();
                if sys.is_locked() {
                    break 'outer;
                }
            }
        }
        assert!(sys.is_locked(), "impostor never locked");
        assert!(
            windows_until_lock <= 10,
            "took {windows_until_lock} windows"
        );
        // Explicit auth restores access.
        sys.unlock_with_explicit_auth();
        assert!(!sys.is_locked());
    }
}
