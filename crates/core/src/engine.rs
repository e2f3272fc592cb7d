//! Batched, parallel fleet-scoring engine.
//!
//! A production deployment of SmarterYou does not authenticate one window at
//! a time: a cloud tier receives sensor windows from *many* enrolled devices
//! per tick and must score them continuously at low latency. [`FleetEngine`]
//! owns one [`SmarterYou`] pipeline per registered user, accepts a batch of
//! `(UserId, DualDeviceWindow)` pairs per tick, and advances every affected
//! pipeline concurrently with the order-preserving scoped-thread map from
//! [`crate::parallel`]. Within each pipeline, pending windows run in one
//! pass ([`SmarterYou::process_batch`]): each window is scored by its
//! context's model, as current at that window, and feature extraction runs
//! through the cached [`WindowFeatures`](crate::WindowFeatures) path. Each
//! tick thread keeps one [`FeatureScratch`](crate::FeatureScratch) (FFT
//! plan tables and batch buffers) in a `thread_local` and extracts every
//! pipeline it scores through it, so those pipelines share a hot workspace
//! instead of each using a cold one of its own. [`parallel_map_mut`]
//! spawns scoped worker threads on every call, so on a multi-core host a
//! worker's scratch, its spectrum plan included, lives for one tick, and
//! every tick plans the window length once per worker; only a sequential
//! tick keeps its scratch across ticks.
//!
//! Decisions are **bit-identical** to feeding the same windows through
//! sequential [`SmarterYou::process_window`] calls user by user: per-user
//! window order is preserved, every pipeline owns its own state and RNG, and
//! the shared [`TrainingHandle`] is only consulted during (re)training. The
//! batch-parity integration tests assert this equivalence on a seeded
//! population.
//!
//! # Idle-pipeline eviction — and the O(resident) contract
//!
//! At fleet scale most registered users are idle between ticks, and resident
//! pipelines are not free: each holds trained KRR models, a detector forest,
//! two retrain ring buffers and a planned FFT. With
//! [`FleetEngine::with_eviction`] the engine bounds residency: after every
//! tick, if more than `capacity` pipelines are in memory, the **least
//! recently submitted** ones (ticks-since-last-submit LRU) are snapshotted
//! into a pluggable [`SnapshotStore`] and dropped. A later
//! [`FleetEngine::submit`] for an evicted user rehydrates the pipeline
//! lazily from its snapshot before queueing the window.
//!
//! The engine is **two-tier** so that parked users cost nothing per tick:
//! live pipelines sit in a dense resident array that scoring and the
//! eviction scan walk, while registered-but-parked users are plain map
//! entries that no per-tick path ever visits. `tick()` is `O(resident)`,
//! not `O(registered)` — one engine (or shard) can hold millions of
//! registered users as long as the *active* set fits the residency cap.
//! [`TickReport::scanned_slots`] exposes the walked count so regressions
//! are testable.
//!
//! Eviction is **behaviour-free**: because snapshot/restore round-trips are
//! bit-identical (see [`crate::persist`]), an engine with aggressive
//! eviction produces exactly the decisions, scores, and retrain events of
//! an engine that never evicts — enforced by `tests/persist_parity.rs`.
//! [`TickReport::evictions`], [`TickReport::rehydrations`] and
//! [`TickReport::resident_pipelines`] expose the churn for monitoring.
//!
//! # Async ingestion
//!
//! Producers need not hold `&mut` access to the engine per window: an
//! attached bounded [`ingest::IngestQueue`] accepts `(UserId,
//! DualDeviceWindow)` pushes from any thread (typed backpressure — see
//! [`ingest::BackpressurePolicy`]) and every [`FleetEngine::tick`] drains
//! whatever has arrived before scoring, rehydrating parked users lazily
//! exactly as [`FleetEngine::submit`] would. Drained windows whose user is
//! unknown to this engine come back in
//! [`TickReport::misrouted`] — at fleet level the
//! [`shard::ShardedFleet`] re-delivers them to the user's current owning
//! shard, so migrations never lose in-queue windows. Decisions stay
//! bit-identical to the synchronous path (`tests/ingest_parity.rs`).
//!
//! # Ownership epochs and sharding
//!
//! When several engines share one snapshot store — the shards of a
//! [`shard::ShardedFleet`] — the store arbitrates ownership with a
//! monotonic per-user **epoch** (see [`SnapshotStore::acquire`]): an engine
//! claims the epoch when it registers a user against a store, and every
//! snapshot save is fenced on it. Moving a user between shards is an evict
//! on the source followed by [`FleetEngine::register_parked`] + lazy
//! rehydration on the target; the target's claim bumps the epoch, so a
//! late save from the source is rejected with
//! [`PersistError::StaleEpoch`] instead of clobbering newer state. Two
//! engines can never both persist a live pipeline for one user.
//!
//! # Example
//!
//! ```no_run
//! use smarteryou_core::engine::FleetEngine;
//! use smarteryou_core::persist::MemorySnapshotStore;
//! # fn pipelines() -> Vec<(smarteryou_sensors::UserId, smarteryou_core::SmarterYou)> { Vec::new() }
//! # fn next_tick() -> Vec<(smarteryou_sensors::UserId, smarteryou_sensors::DualDeviceWindow)> { Vec::new() }
//!
//! // Keep at most 10k pipelines resident; the rest live as snapshots.
//! let mut engine = FleetEngine::new()
//!     .with_eviction(Box::new(MemorySnapshotStore::new()), 10_000);
//! for (id, pipeline) in pipelines() {
//!     engine.register(id, pipeline).unwrap();
//! }
//! loop {
//!     let outcomes = engine.score_ticked(next_tick()).unwrap();
//!     println!("{} windows scored", outcomes.len());
//! }
//! ```

pub mod batch;
pub mod ingest;
pub mod shard;
pub mod training;

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;

use smarteryou_sensors::{DualDeviceWindow, UserId};

use crate::parallel::parallel_map_mut;
use crate::persist::{PersistError, SnapshotStore};
use crate::pipeline::{ProcessOutcome, SmarterYou};
use crate::server::TrainingHandle;
use crate::CoreError;

pub use batch::{TickReport, UserOutcomes};
pub use ingest::{BackpressurePolicy, IngestQueue, IngestRouter, RejectedWindow, WindowQueue};
pub use shard::{ShardRouter, ShardedFleet};
pub use training::{JobId, TrainingService};

/// A live pipeline in the dense resident array — the only per-user state
/// the per-tick paths ever walk.
#[derive(Debug)]
struct ResidentSlot {
    id: UserId,
    /// Registration sequence number; tick outcomes and LRU ties order by
    /// it, so reporting stays deterministic however the dense array is
    /// permuted by eviction churn.
    seq: u64,
    pipeline: SmarterYou,
    inbox: Vec<DualDeviceWindow>,
}

/// A registered user, resident or parked. Deliberately tiny while parked:
/// a map entry plus a shared training handle, never visited by `tick()`.
#[derive(Debug)]
struct UserEntry {
    seq: u64,
    /// Index into the resident array, or `None` while the pipeline lives
    /// in the snapshot store.
    resident: Option<usize>,
    /// Ownership epoch claimed against the snapshot store (0 when the
    /// engine has no store, or for users registered before one was
    /// installed — an unclaimed epoch that any later claim fences out).
    epoch: u64,
    /// Engine clock at the most recent submit (registration counts as
    /// activity); the eviction LRU orders by this.
    last_submit_tick: u64,
    /// Shared training-service handle, retained across eviction so
    /// rehydration reattaches the restored pipeline to the same service.
    server: Arc<dyn TrainingHandle>,
    /// Windows stashed while the user is parked (a migration carried them
    /// in but the pipeline could not be rehydrated at that moment). Drained
    /// into the inbox, ahead of newer submissions, at the next successful
    /// rehydration. Always empty while resident.
    stashed: Vec<DualDeviceWindow>,
}

/// One slot's tick result, tagged with its registration sequence so the
/// report can be re-ordered after the dense array's permutation.
type SlotTickResult = (u64, Result<UserOutcomes, (UserId, CoreError)>);

/// Eviction policy + store, present only when eviction is enabled.
#[derive(Debug)]
struct EvictionState {
    store: Box<dyn SnapshotStore>,
    capacity: usize,
    total_evictions: u64,
    total_rehydrations: u64,
}

/// Deferred-retrain machinery, present only when a [`TrainingService`] is
/// attached. Tracks which in-flight job belongs to which user so completed
/// results can be routed back — and so results for users that have since
/// been released or evicted are recognised as stale and discarded.
#[derive(Debug)]
struct TrainingState {
    service: TrainingService,
    /// Owner of every job this engine still expects a result for. A job
    /// missing from this map at delivery time was abandoned (release /
    /// eviction / migration) and its result must not be applied.
    jobs: HashMap<JobId, UserId>,
    total_started: u64,
    total_completed: u64,
    /// Canceled **or failed** jobs — both end a started job without a
    /// model landing, and folding them together keeps the invariant
    /// `started == completed + canceled + in_flight` exact.
    total_canceled: u64,
    /// Cancels performed outside the tick's training cycle (release /
    /// eviction), folded into the next [`TickReport`].
    canceled_since_tick: usize,
}

/// One user's batched-enrollment input: the per-context enrollment
/// feature buffers (as harvested via [`SmarterYou::enrollment_buffers`])
/// to train against the batch's shared negative workspace.
pub type EnrollmentEntry = (UserId, [Vec<Vec<f64>>; 2]);

/// Owns many per-user [`SmarterYou`] pipelines and scores queued windows in
/// parallel, batch by batch. See the [module docs](self) for the model.
#[derive(Debug, Default)]
pub struct FleetEngine {
    users: HashMap<UserId, UserEntry>,
    /// Registration order, kept as a sorted map so
    /// [`FleetEngine::user_ids`] is a lazy ordered walk instead of an
    /// allocate-and-sort over every registered user.
    by_seq: std::collections::BTreeMap<u64, UserId>,
    /// Dense array of live pipelines; every per-tick path is linear in
    /// this, never in `users`.
    resident: Vec<ResidentSlot>,
    eviction: Option<EvictionState>,
    /// Monotone tick counter; drives the idle LRU.
    clock: u64,
    next_seq: u64,
    /// Rehydrations performed since the last tick, reported by the next
    /// [`TickReport`].
    rehydrations_since_tick: usize,
    /// Total windows stashed on parked users (see `UserEntry::stashed`),
    /// so [`FleetEngine::pending`] stays O(resident).
    stashed_windows: usize,
    /// Attached async ingestion queue, drained at the start of every tick.
    /// `None` for engines fed only through the synchronous submit path.
    ingest: Option<Arc<WindowQueue>>,
    /// Attached training service for deferred retrains. `None` for engines
    /// whose pipelines all retrain inline.
    training: Option<TrainingState>,
}

impl FleetEngine {
    /// An engine with no registered users and eviction disabled (every
    /// registered pipeline stays resident).
    pub fn new() -> Self {
        FleetEngine::default()
    }

    /// Builder form of [`FleetEngine::enable_eviction`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_eviction(mut self, store: Box<dyn SnapshotStore>, capacity: usize) -> Self {
        self.enable_eviction(store, capacity);
        self
    }

    /// Enables idle-pipeline eviction: after each [`FleetEngine::tick`], if
    /// more than `capacity` pipelines are resident, the least recently
    /// submitted ones are snapshotted into `store` and dropped from memory,
    /// to be rehydrated lazily on their next submit. Safe to call on a
    /// populated engine (e.g. after a bulk enrollment phase); the next tick
    /// trims residency to `capacity`. Re-configuring (new store and/or
    /// capacity) is allowed only while every pipeline is resident —
    /// replacing the store while users are parked in the old one would
    /// strand their trained state; rehydrate them first. Lifetime
    /// eviction/rehydration totals survive re-configuration.
    ///
    /// Users registered before the store was installed keep the unclaimed
    /// ownership epoch 0 — their saves pass the fence until some other
    /// engine claims them through the shared store (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or if any registered user's pipeline
    /// is currently evicted (its snapshot lives in the store being
    /// replaced).
    pub fn enable_eviction(&mut self, store: Box<dyn SnapshotStore>, capacity: usize) {
        assert!(capacity > 0, "eviction capacity must be positive");
        assert!(
            self.resident_count() == self.len(),
            "cannot replace the snapshot store while pipelines are evicted \
             into the old one — rehydrate them first"
        );
        let (total_evictions, total_rehydrations) = self.eviction_totals();
        self.eviction = Some(EvictionState {
            store,
            capacity,
            total_evictions,
            total_rehydrations,
        });
    }

    /// The configured residency capacity, or `None` when eviction is
    /// disabled.
    pub fn eviction_capacity(&self) -> Option<usize> {
        self.eviction.as_ref().map(|e| e.capacity)
    }

    /// Mutable access to the configured snapshot store (`None` when
    /// eviction is disabled) — for operational tooling that inspects or
    /// migrates parked snapshots.
    pub fn snapshot_store_mut(&mut self) -> Option<&mut (dyn SnapshotStore + '_)> {
        self.eviction.as_mut().map(|e| &mut *e.store as _)
    }

    /// Pipelines currently resident in memory. O(1): residency is a dense
    /// array, not a scan over registered users.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Whether a registered user's pipeline is currently resident
    /// (`None` for unregistered users).
    pub fn is_resident(&self, id: UserId) -> Option<bool> {
        self.users.get(&id).map(|e| e.resident.is_some())
    }

    /// The ownership epoch this engine holds for a registered user
    /// (`None` for unregistered users; 0 means unclaimed — no store was
    /// present at registration).
    pub fn epoch_of(&self, id: UserId) -> Option<u64> {
        self.users.get(&id).map(|e| e.epoch)
    }

    /// Attaches an async ingestion queue: every subsequent
    /// [`FleetEngine::tick`] starts by draining whatever producers have
    /// pushed (see [`ingest`] for the model), before scoring. Producers
    /// keep a clone of the [`Arc`] and push from any thread. Replacing a
    /// queue closes the old one first (producers still holding it get
    /// [`IngestError::Closed`](crate::IngestError::Closed) rather than
    /// pushing into a queue nothing drains) and is allowed only once it is
    /// empty — its undrained windows would otherwise be stranded.
    ///
    /// # Panics
    ///
    /// Panics if a previously attached queue still holds windows. The old
    /// queue is closed *before* the emptiness check, so a racing producer
    /// cannot slip a window in between check and replacement.
    pub fn attach_ingest(&mut self, queue: Arc<WindowQueue>) {
        if let Some(old) = &self.ingest {
            old.close();
            assert!(
                old.is_empty(),
                "cannot replace an ingest queue that still holds windows — drain it first"
            );
        }
        self.ingest = Some(queue);
    }

    /// Builder/convenience form of [`FleetEngine::attach_ingest`] for a
    /// standalone (unsharded) engine: creates a bounded queue, attaches
    /// it, and returns the producer handle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or as [`FleetEngine::attach_ingest`].
    pub fn enable_ingest(
        &mut self,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Arc<WindowQueue> {
        let queue = Arc::new(IngestQueue::new(capacity, policy));
        self.attach_ingest(queue.clone());
        queue
    }

    /// The attached ingestion queue's producer handle (`None` when no
    /// queue is attached).
    pub fn ingest_queue(&self) -> Option<Arc<WindowQueue>> {
        self.ingest.clone()
    }

    /// Builder form of [`FleetEngine::enable_training`].
    pub fn with_training(mut self, service: TrainingService) -> Self {
        self.enable_training(service);
        self
    }

    /// Attaches a [`TrainingService`]: pipelines in
    /// [`RetrainMode::Deferred`](crate::pipeline::RetrainMode) have their
    /// captured retrain requests submitted to it at every tick boundary,
    /// and completed models are applied at the *next* tick boundary (the
    /// very same one when the service is
    /// [synchronous](TrainingService::synchronous)). Without a service,
    /// deferred pipelines keep scoring on their old model forever — their
    /// captured request just sits pending.
    ///
    /// # Panics
    ///
    /// Panics if a previously attached service still has jobs in flight:
    /// their results would be lost and the owning pipelines stuck
    /// mid-retrain.
    pub fn enable_training(&mut self, service: TrainingService) {
        if let Some(old) = &self.training {
            assert!(
                old.jobs.is_empty(),
                "cannot replace a training service with retrains in flight — \
                 tick until they drain first"
            );
        }
        let (total_started, total_completed, total_canceled) = self.retrain_totals();
        self.training = Some(TrainingState {
            service,
            jobs: HashMap::new(),
            total_started,
            total_completed,
            total_canceled,
            canceled_since_tick: 0,
        });
    }

    /// Whether a training service is attached.
    pub fn training_enabled(&self) -> bool {
        self.training.is_some()
    }

    /// Lifetime `(started, completed, canceled)` retrain-job totals
    /// (`(0, 0, 0)` when no training service has ever been attached).
    /// Failed jobs count as canceled, so at any point
    /// `started == completed + canceled + `[`retrains_in_flight`]`
    /// `(self)` exactly.
    ///
    /// [`retrains_in_flight`]: FleetEngine::retrains_in_flight
    pub fn retrain_totals(&self) -> (u64, u64, u64) {
        self.training
            .as_ref()
            .map(|t| (t.total_started, t.total_completed, t.total_canceled))
            .unwrap_or((0, 0, 0))
    }

    /// Retrain jobs currently in flight (submitted, neither applied nor
    /// canceled). 0 when no training service is attached.
    pub fn retrains_in_flight(&self) -> usize {
        self.training.as_ref().map(|t| t.jobs.len()).unwrap_or(0)
    }

    /// Registers a user's pipeline. Tick outcomes are reported in
    /// registration order. When a snapshot store is configured the engine
    /// claims the user's ownership epoch in it, fencing out any engine
    /// that previously owned the same user through a shared store.
    ///
    /// # Errors
    ///
    /// [`CoreError::AlreadyRegistered`] if the user is already registered
    /// (the existing registration is untouched);
    /// [`CoreError::Persist`] if the ownership claim cannot be persisted.
    pub fn register(&mut self, id: UserId, pipeline: SmarterYou) -> Result<(), CoreError> {
        if self.users.contains_key(&id) {
            return Err(CoreError::AlreadyRegistered(id));
        }
        let epoch = match self.eviction.as_mut() {
            Some(e) => e.store.acquire(id)?,
            None => 0,
        };
        let server = pipeline.training_handle().clone();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.users.insert(
            id,
            UserEntry {
                seq,
                resident: Some(self.resident.len()),
                epoch,
                last_submit_tick: self.clock,
                server,
                stashed: Vec::new(),
            },
        );
        self.by_seq.insert(seq, id);
        self.resident.push(ResidentSlot {
            id,
            seq,
            pipeline,
            inbox: Vec::new(),
        });
        Ok(())
    }

    /// Registers a user whose pipeline already lives in the snapshot store
    /// as a parked entry — the adoption half of a shard migration, and the
    /// cheap way to enroll an engine with millions of known-but-idle users.
    /// Claims the user's ownership epoch (fencing the previous owner); the
    /// pipeline rehydrates lazily on the first submit, attached to
    /// `server`.
    ///
    /// # Errors
    ///
    /// [`CoreError::AlreadyRegistered`] if the user is already registered
    /// — **resident or parked**. A silent overwrite here would fork
    /// ownership: the claim would bump the store epoch and fence this
    /// engine's own live pipeline out of ever saving again. The existing
    /// registration is left untouched. [`CoreError::InvalidConfig`] if no
    /// snapshot store is configured; [`CoreError::Persist`] if the
    /// ownership claim cannot be persisted.
    pub fn register_parked(
        &mut self,
        id: UserId,
        server: Arc<dyn TrainingHandle>,
    ) -> Result<(), CoreError> {
        self.register_parked_with(id, server, None)
    }

    /// [`FleetEngine::register_parked`] with a compare-and-swap ownership
    /// claim: adoption succeeds only if the store's epoch for `id` is still
    /// exactly `expected` — the epoch the caller observed when it decided
    /// to adopt. Between observing and adopting, another engine (possibly
    /// in another process) may have claimed the user; an unconditional
    /// acquire would then silently fence *that* owner out and fork the
    /// pipeline, while the CAS turns the race into a typed
    /// [`PersistError::StaleEpoch`] the caller can re-plan from.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::register_parked`], plus
    /// [`CoreError::Persist`]\([`PersistError::StaleEpoch`]\) when the
    /// claim loses the ownership race (nothing is registered).
    pub fn register_parked_at(
        &mut self,
        id: UserId,
        server: Arc<dyn TrainingHandle>,
        expected: u64,
    ) -> Result<(), CoreError> {
        self.register_parked_with(id, server, Some(expected))
    }

    fn register_parked_with(
        &mut self,
        id: UserId,
        server: Arc<dyn TrainingHandle>,
        expected: Option<u64>,
    ) -> Result<(), CoreError> {
        if self.users.contains_key(&id) {
            return Err(CoreError::AlreadyRegistered(id));
        }
        let eviction = self.eviction.as_mut().ok_or_else(|| {
            CoreError::InvalidConfig(
                "register_parked requires a snapshot store — enable eviction first".into(),
            )
        })?;
        let epoch = match expected {
            Some(expected) => eviction.store.acquire_cas(id, expected)?,
            None => eviction.store.acquire(id)?,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.users.insert(
            id,
            UserEntry {
                seq,
                resident: None,
                epoch,
                last_submit_tick: self.clock,
                server,
                stashed: Vec::new(),
            },
        );
        self.by_seq.insert(seq, id);
        Ok(())
    }

    /// Unregisters a user, parking their pipeline in the snapshot store —
    /// the source half of a shard migration. A resident pipeline is
    /// snapshotted under this engine's ownership epoch (so a migration that
    /// already lost the ownership race fails with
    /// [`PersistError::StaleEpoch`] instead of clobbering the new owner's
    /// state); an already-parked user is simply forgotten. Returns the
    /// user's undelivered queued windows plus their training handle, for
    /// the adopting engine to re-submit and reattach.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] for unregistered users;
    /// [`CoreError::InvalidConfig`] when no snapshot store is configured;
    /// [`CoreError::Persist`] when the parking save fails — the user stays
    /// registered and resident, nothing is lost.
    #[allow(clippy::type_complexity)]
    pub fn release(
        &mut self,
        id: UserId,
    ) -> Result<(Vec<DualDeviceWindow>, Arc<dyn TrainingHandle>), CoreError> {
        let entry = self.users.get(&id).ok_or(CoreError::UnknownUser(id))?;
        let windows = match entry.resident {
            Some(idx) => {
                if self.eviction.is_none() {
                    return Err(CoreError::InvalidConfig(
                        "release requires a snapshot store — enable eviction first".into(),
                    ));
                }
                let epoch = entry.epoch;
                let mut eviction = self.eviction.take().expect("checked above");
                let ResidentSlot {
                    seq,
                    mut pipeline,
                    inbox,
                    ..
                } = self.resident.swap_remove(idx);
                // An in-flight retrain cannot follow the user out: cancel
                // the job and revert to the captured request, which the
                // snapshot carries for the adopting engine to resubmit.
                Self::cancel_user_retrain(&mut self.training, &mut pipeline);
                // Consuming snapshot: the pipeline leaves memory either way.
                let snapshot = pipeline.into_snapshot();
                let result = eviction.store.save_fenced(id, epoch, &snapshot);
                match result {
                    Ok(()) => eviction.total_evictions += 1,
                    Err(e) => {
                        // Never drop unsaved state: rebuild from the
                        // snapshot still in hand and keep the user.
                        let server = self.users[&id].server.clone();
                        let pipeline = SmarterYou::restore(snapshot, server)
                            .expect("snapshot of a live pipeline restores");
                        self.resident.push(ResidentSlot {
                            id,
                            seq,
                            pipeline,
                            inbox,
                        });
                        self.eviction = Some(eviction);
                        // Only two slots moved: the one swapped into `idx`
                        // and the rebuilt pipeline at the tail.
                        self.fix_resident_index(idx);
                        self.fix_resident_index(self.resident.len() - 1);
                        return Err(CoreError::Persist(e));
                    }
                }
                self.eviction = Some(eviction);
                self.users.get_mut(&id).expect("looked up above").resident = None;
                // A single swap_remove: only the slot swapped into `idx`
                // (if any) changed position — no full O(resident) rebuild.
                self.fix_resident_index(idx);
                inbox
            }
            None => Vec::new(),
        };
        let mut entry = self.users.remove(&id).expect("looked up above");
        self.by_seq.remove(&entry.seq);
        // A parked user may hold stashed windows from an earlier migration
        // whose delivery never happened; hand them to the adopter too.
        let mut windows = windows;
        self.stashed_windows -= entry.stashed.len();
        windows.append(&mut entry.stashed);
        Ok((windows, entry.server))
    }

    /// Number of registered users (resident or parked).
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no users are registered.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Registered user ids, in registration order — a lazy walk of the
    /// sequence index, no allocation or sort however many users are
    /// registered.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.by_seq.values().copied()
    }

    /// Borrows a registered user's pipeline. Returns `None` for
    /// unregistered users **and** for registered users whose pipeline is
    /// currently evicted — call [`FleetEngine::rehydrate`] first to force
    /// residency.
    pub fn pipeline(&self, id: UserId) -> Option<&SmarterYou> {
        self.users
            .get(&id)
            .and_then(|e| e.resident)
            .map(|idx| &self.resident[idx].pipeline)
    }

    /// Mutably borrows a registered user's pipeline (e.g. to unlock after
    /// explicit authentication or advance its clock). `None` when
    /// unregistered or evicted, like [`FleetEngine::pipeline`].
    pub fn pipeline_mut(&mut self, id: UserId) -> Option<&mut SmarterYou> {
        self.users
            .get(&id)
            .and_then(|e| e.resident)
            .map(|idx| &mut self.resident[idx].pipeline)
    }

    /// Forces a user's pipeline into memory, rehydrating it from the
    /// snapshot store if it was evicted. No-op for resident users. This
    /// counts as rehydration churn but **not** as submit activity — an
    /// inspected-but-idle pipeline remains first in line for eviction.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] for unregistered users;
    /// [`CoreError::Persist`] when the snapshot is missing or corrupt, or
    /// when this engine lost the user's ownership race
    /// ([`PersistError::StaleEpoch`]).
    pub fn rehydrate(&mut self, id: UserId) -> Result<(), CoreError> {
        if !self.users.contains_key(&id) {
            return Err(CoreError::UnknownUser(id));
        }
        self.ensure_resident(id)
    }

    /// Loads a registered user's pipeline from the snapshot store if it is
    /// parked. The caller has already checked registration.
    fn ensure_resident(&mut self, id: UserId) -> Result<(), CoreError> {
        let entry = &self.users[&id];
        if entry.resident.is_some() {
            return Ok(());
        }
        let (seq, held) = (entry.seq, entry.epoch);
        let server = entry.server.clone();
        let eviction = self
            .eviction
            .as_mut()
            .expect("parked slot implies an eviction store");
        let snapshot = eviction
            .store
            .load(id)?
            .ok_or(CoreError::Persist(PersistError::MissingSnapshot(id)))?;
        // Read-side ownership fence: if another engine claimed this user
        // since we did, its state is the live one — rehydrating our stale
        // copy would fork the pipeline into two owners.
        let stored = eviction.store.epoch(id)?;
        if stored != held {
            return Err(CoreError::Persist(PersistError::StaleEpoch {
                id,
                held,
                stored,
            }));
        }
        let pipeline = SmarterYou::restore(snapshot, server)?;
        // The stored snapshot stays put as a crash-recovery copy: it can
        // never be *read* while the pipeline is resident (loads only happen
        // for parked entries, and eviction overwrites the entry first), and
        // deleting it would leave a durable store with no copy at all until
        // the next eviction — losing everything instead of just the
        // post-rehydration progress if the process dies.
        eviction.total_rehydrations += 1;
        self.rehydrations_since_tick += 1;
        let entry = self.users.get_mut(&id).expect("looked up above");
        entry.resident = Some(self.resident.len());
        // Windows stashed while parked are delivered first, ahead of
        // whatever the caller is about to submit — their original order.
        let inbox = std::mem::take(&mut entry.stashed);
        self.stashed_windows -= inbox.len();
        self.resident.push(ResidentSlot {
            id,
            seq,
            pipeline,
            inbox,
        });
        Ok(())
    }

    /// Stashes windows on a **parked** user, to be delivered at their next
    /// successful rehydration — the fallback a migration uses when carried
    /// windows cannot be re-queued right now (the target store failed to
    /// rehydrate); the windows survive instead of being dropped.
    pub(crate) fn stash_windows(&mut self, id: UserId, windows: Vec<DualDeviceWindow>) {
        let entry = self
            .users
            .get_mut(&id)
            .expect("stash for a registered user");
        assert!(
            entry.resident.is_none(),
            "stash is only for parked users — submit to a resident one"
        );
        self.stashed_windows += windows.len();
        entry.stashed.extend(windows);
    }

    /// Queues one window for `id`, to be scored by the next
    /// [`FleetEngine::tick`]. If the user's pipeline was evicted it is
    /// rehydrated from the snapshot store first (lazy rehydration).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] for an unregistered user;
    /// [`CoreError::Persist`] when rehydration fails — a distinct error
    /// path, so callers can tell "no such user" from "known user whose
    /// state could not be loaded".
    pub fn submit(&mut self, id: UserId, window: DualDeviceWindow) -> Result<(), CoreError> {
        self.submit_many(id, [window])
    }

    /// Queues a whole stream of windows for `id`, preserving order.
    /// Rehydrates an evicted pipeline first, like [`FleetEngine::submit`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] for an unregistered user;
    /// [`CoreError::Persist`] when rehydration fails.
    pub fn submit_many(
        &mut self,
        id: UserId,
        windows: impl IntoIterator<Item = DualDeviceWindow>,
    ) -> Result<(), CoreError> {
        if !self.users.contains_key(&id) {
            return Err(CoreError::UnknownUser(id));
        }
        self.ensure_resident(id)?;
        let entry = self.users.get_mut(&id).expect("checked above");
        entry.last_submit_tick = self.clock;
        let idx = entry.resident.expect("made resident above");
        self.resident[idx].inbox.extend(windows);
        Ok(())
    }

    /// Batched fleet enrollment: completes enrollment for every user in
    /// `batch` against **one** shared negative epoch and its precomputed
    /// Gram workspace (see [`TrainingServer::enrollment_workspace`]),
    /// instead of each pipeline paying a fresh negative-sampling pass and
    /// full refactorisation. Each user's enrollment buffers are installed
    /// via [`SmarterYou::enroll_with`]; enrollment counts as submit
    /// activity for eviction recency. Returns the number of users
    /// enrolled.
    ///
    /// The workspace is built from the first user's training handle and
    /// configuration — the batch must share both (one fleet, one server),
    /// which every fixture and deployment here does.
    ///
    /// [`TrainingServer::enrollment_workspace`]: crate::TrainingServer::enrollment_workspace
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if **any** user in the batch is
    /// unregistered (checked up front, before anything enrolls);
    /// rehydration and training failures abort the remainder of the batch
    /// (already-enrolled users keep their models).
    pub fn enroll_many(
        &mut self,
        batch: Vec<EnrollmentEntry>,
        rng: &mut StdRng,
    ) -> Result<usize, CoreError> {
        for (id, _) in &batch {
            if !self.users.contains_key(id) {
                return Err(CoreError::UnknownUser(*id));
            }
        }
        let Some(first) = batch.first().map(|(id, _)| *id) else {
            return Ok(0);
        };
        self.ensure_resident(first)?;
        let (handle, cfg) = {
            let entry = &self.users[&first];
            let idx = entry.resident.expect("made resident above");
            (
                entry.server.clone(),
                self.resident[idx].pipeline.config().clone(),
            )
        };
        let ws = handle.enrollment_workspace(&cfg, rng)?;
        let mut enrolled = 0;
        for (id, buffers) in batch {
            self.ensure_resident(id)?;
            let entry = self.users.get_mut(&id).expect("checked above");
            entry.last_submit_tick = self.clock;
            let idx = entry.resident.expect("made resident above");
            self.resident[idx].pipeline.enroll_with(&ws, buffers)?;
            enrolled += 1;
        }
        Ok(enrolled)
    }

    /// Windows currently queued across all users — resident inboxes plus
    /// any stashed on parked users awaiting rehydration. O(resident).
    /// Windows still sitting in an attached ingest queue are **not**
    /// counted until a tick drains them; see [`FleetEngine::ingest_queue`]
    /// ([`IngestQueue::len`]) for that backlog.
    pub fn pending(&self) -> usize {
        self.resident.iter().map(|s| s.inbox.len()).sum::<usize>() + self.stashed_windows
    }

    /// Queues one drained-ingest window for a **registered** user,
    /// rehydrating a parked pipeline first. When rehydration fails the
    /// window is stashed on the parked entry (delivered at the next
    /// successful rehydration, ahead of newer windows) and the failure is
    /// returned — the window is retained either way, never lost.
    pub(crate) fn deliver_ingest(
        &mut self,
        id: UserId,
        window: DualDeviceWindow,
    ) -> Result<(), CoreError> {
        debug_assert!(self.users.contains_key(&id), "deliver to a registered user");
        match self.ensure_resident(id) {
            Ok(()) => {
                let entry = self.users.get_mut(&id).expect("registered");
                entry.last_submit_tick = self.clock;
                let idx = entry.resident.expect("made resident above");
                self.resident[idx].inbox.push(window);
                Ok(())
            }
            Err(e) => {
                self.stash_windows(id, vec![window]);
                Err(e)
            }
        }
    }

    /// Drains the attached ingest queue (everything present at drain
    /// start) into per-user inboxes. Returns `(ingested, misrouted,
    /// errors)`: `ingested` counts windows retained for this engine's
    /// users (inbox or, on a failed rehydration, the parked stash);
    /// `misrouted` carries windows for users this engine does not know —
    /// at fleet level the sharded tick re-delivers them to the owning
    /// shard; `errors` records rehydration failures (the window is
    /// stashed, not lost).
    #[allow(clippy::type_complexity)]
    fn drain_ingest(
        &mut self,
    ) -> (
        usize,
        Vec<(UserId, DualDeviceWindow)>,
        Vec<(UserId, CoreError)>,
    ) {
        let Some(queue) = self.ingest.clone() else {
            return (0, Vec::new(), Vec::new());
        };
        let mut ingested = 0;
        let mut misrouted = Vec::new();
        let mut errors = Vec::new();
        for (id, window) in queue.drain_pending() {
            if !self.users.contains_key(&id) {
                misrouted.push((id, window));
                continue;
            }
            ingested += 1;
            if let Err(e) = self.deliver_ingest(id, window) {
                errors.push((id, e));
            }
        }
        (ingested, misrouted, errors)
    }

    /// Drains every queued window, advancing all affected pipelines in
    /// parallel. Outcomes are grouped per user in registration order; each
    /// user's outcomes are in their submission order. The tick walks only
    /// the resident array — parked users cost nothing, however many are
    /// registered.
    ///
    /// A pipeline failure (e.g. a retrain hitting
    /// [`CoreError::InsufficientData`]) is isolated to its user: the error
    /// is recorded in [`TickReport::errors`] — dropping that user's
    /// outcomes from this tick — while every other user's outcomes are
    /// still reported. Fleet operation must not lose one device's lock
    /// decision because another device's retrain failed.
    ///
    /// When eviction is enabled, the tick ends with an eviction pass: the
    /// least recently submitted resident pipelines are snapshotted out
    /// until at most `capacity` remain. A failed snapshot save keeps that
    /// pipeline resident (state is never dropped unsaved) and reports the
    /// failure in [`TickReport::eviction_errors`] — separate from scoring
    /// errors, because the tick's outcomes are still valid.
    ///
    /// When an ingest queue is attached the tick *starts* by draining it:
    /// every window present when the drain begins is delivered (with lazy
    /// rehydration) and scored this very tick, in per-user FIFO order.
    /// [`TickReport::ingested`], [`TickReport::ingest_errors`] and
    /// [`TickReport::misrouted`] report the drain.
    pub fn tick(&mut self) -> TickReport {
        let (ingested, misrouted, ingest_errors) = self.drain_ingest();
        let scanned = self.resident.len();
        // One extraction scratch per tick thread, shared across every
        // pipeline that thread scores: the FFT plan tables and transform
        // buffers stay cache-hot across users instead of being reloaded
        // cold from each pipeline's own scratch. `parallel_map_mut` spawns
        // scoped workers on every call, so on a worker the scratch and its
        // plan live for one tick; only a sequential tick keeps its
        // thread's scratch across ticks. A scratch holds no model state,
        // so outcomes are bit-identical to the per-pipeline path
        // (`tests/batch_parity.rs`).
        thread_local! {
            static TICK_SCRATCH: std::cell::RefCell<crate::FeatureScratch> =
                std::cell::RefCell::new(crate::FeatureScratch::default());
        }
        let mut results: Vec<SlotTickResult> = parallel_map_mut(&mut self.resident, |slot| {
            let windows = std::mem::take(&mut slot.inbox);
            let outcome = TICK_SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                match slot
                    .pipeline
                    .process_batch_with_scratch(&windows, &mut scratch)
                {
                    Ok(outcomes) => Ok(UserOutcomes {
                        user: slot.id,
                        outcomes,
                    }),
                    Err(e) => Err((slot.id, e)),
                }
            });
            (slot.seq, outcome)
        });
        // Eviction churn permutes the dense array; registration order is
        // restored from the sequence numbers.
        results.sort_unstable_by_key(|&(seq, _)| seq);
        let mut users = Vec::with_capacity(results.len());
        let mut errors = Vec::new();
        for (_, result) in results {
            match result {
                Ok(user) => {
                    if !user.outcomes.is_empty() {
                        users.push(user);
                    }
                }
                Err(failure) => errors.push(failure),
            }
        }
        let (retrains_started, retrains_completed, retrains_canceled, retrains_in_flight) =
            self.run_training_cycle(&mut errors);
        let (evicted, eviction_errors) = self.evict_idle();
        let rehydrated = std::mem::take(&mut self.rehydrations_since_tick);
        self.clock += 1;
        let resident = self.resident.len();
        TickReport::new(users, errors)
            .with_fleet_state(evicted, rehydrated, resident, scanned, eviction_errors)
            .with_ingest(ingested, misrouted, ingest_errors)
            .with_training(
                retrains_started,
                retrains_completed,
                retrains_canceled,
                retrains_in_flight,
            )
    }

    /// The tick-boundary training cycle, run after scoring and before the
    /// eviction pass (so a completed model lands before its pipeline can be
    /// parked). Three steps, each deterministic in registration order:
    ///
    /// 1. **Submit** — every resident pipeline holding a freshly captured
    ///    retrain request ([`RetrainMode::Deferred`] trigger this tick, or
    ///    a pending request carried in by rehydration/migration) has it
    ///    submitted to the service.
    /// 2. **Run** — a [synchronous](TrainingService::is_synchronous)
    ///    service executes everything queued right here on the caller
    ///    thread; a worker-backed one does nothing (its threads are already
    ///    on it).
    /// 3. **Apply** — every finished job whose owner is still known gets
    ///    its model installed via
    ///    [`apply_retrain`](SmarterYou::apply_retrain); results for
    ///    abandoned jobs are discarded (they were counted as canceled when
    ///    the engine abandoned them). Failed jobs count as canceled and
    ///    surface in [`TickReport::errors`].
    ///
    /// Returns `(started, completed, canceled, in_flight)` for the
    /// [`TickReport`]; `canceled` folds in cancels performed since the last
    /// tick outside this cycle (release/eviction/migration).
    ///
    /// [`RetrainMode::Deferred`]: crate::pipeline::RetrainMode::Deferred
    fn run_training_cycle(
        &mut self,
        errors: &mut Vec<(UserId, CoreError)>,
    ) -> (usize, usize, usize, usize) {
        let Some(mut training) = self.training.take() else {
            return (0, 0, 0, 0);
        };
        let mut started = 0;
        for slot in &mut self.resident {
            if let Some(request) = slot.pipeline.pending_retrain_request() {
                let handle = slot.pipeline.training_handle().clone();
                let job = training.service.submit(handle, request);
                slot.pipeline.note_retrain_submitted(job);
                training.jobs.insert(job, slot.id);
                training.total_started += 1;
                started += 1;
            }
        }
        training.service.run_pending();
        let mut completed = 0;
        let mut canceled = 0;
        for (job, result) in training.service.collect_ready() {
            let Some(user) = training.jobs.remove(&job) else {
                // Abandoned before delivery (release/eviction/migration):
                // already counted as canceled at abandon time, and the
                // owning pipeline has moved on — discard the stale result.
                continue;
            };
            let Some(idx) = self.users.get(&user).and_then(|e| e.resident) else {
                // Defensive: abandonment should always have removed the
                // mapping, but never apply a model to an absent pipeline.
                training.total_canceled += 1;
                canceled += 1;
                continue;
            };
            let pipeline = &mut self.resident[idx].pipeline;
            match result {
                Ok(output) => {
                    if pipeline.apply_retrain(job, output) {
                        training.total_completed += 1;
                        completed += 1;
                    } else {
                        training.total_canceled += 1;
                        canceled += 1;
                    }
                }
                Err(e) => {
                    pipeline.fail_retrain(job);
                    training.total_canceled += 1;
                    canceled += 1;
                    errors.push((user, e));
                }
            }
        }
        canceled += std::mem::take(&mut training.canceled_since_tick);
        let in_flight = training.jobs.len();
        self.training = Some(training);
        (started, completed, canceled, in_flight)
    }

    /// Abandons a pipeline's in-flight retrain as it leaves residency
    /// (release, eviction, migration): the service job is canceled — its
    /// result, even if the worker already finished, will never be applied —
    /// and the pipeline reverts to holding the captured request, so the
    /// snapshot carries it and the next owner resubmits after rehydration.
    /// Counted as canceled *here*, at abandonment, regardless of how the
    /// cancel races the worker: the accounting is deterministic even when
    /// the execution is not.
    fn cancel_user_retrain(training: &mut Option<TrainingState>, pipeline: &mut SmarterYou) {
        let Some(training) = training.as_mut() else {
            return;
        };
        if let Some(job) = pipeline.retrain_job() {
            training.service.cancel(job);
            if training.jobs.remove(&job).is_some() {
                training.total_canceled += 1;
                training.canceled_since_tick += 1;
            }
            pipeline.abandon_retrain_job();
        }
    }

    /// Trims residency to the configured capacity, evicting the least
    /// recently submitted pipelines first. Returns how many were evicted
    /// plus the save failures; a failed save keeps its pipeline resident.
    /// O(resident): only the dense array is scanned.
    fn evict_idle(&mut self) -> (usize, Vec<(UserId, PersistError)>) {
        let mut errors = Vec::new();
        let Some(mut eviction) = self.eviction.take() else {
            return (0, errors);
        };
        if self.resident.len() <= eviction.capacity {
            self.eviction = Some(eviction);
            return (0, errors);
        }
        // Oldest submit first; ties broken by registration order so the
        // pass is deterministic whatever the dense array's permutation.
        let mut order: Vec<usize> = (0..self.resident.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let slot = &self.resident[i];
            (self.users[&slot.id].last_submit_tick, slot.seq)
        });
        let excess = self.resident.len() - eviction.capacity;
        let mut victims = order[..excess].to_vec();
        // Descending, so each swap_remove leaves earlier victim indices
        // valid (the swapped-in tail element always has a larger index).
        victims.sort_unstable_by(|a, b| b.cmp(a));
        let mut evicted = 0;
        for i in victims {
            // Pre-check the ownership fence before consuming the pipeline:
            // a fenced-out user would be selected again every tick, and
            // without this check each tick would pay a full snapshot +
            // restore round-trip just to have the save rejected. The cheap
            // epoch read reports the same typed error instead.
            let held = self.users[&self.resident[i].id].epoch;
            match eviction.store.epoch(self.resident[i].id) {
                Ok(stored) if held < stored => {
                    errors.push((
                        self.resident[i].id,
                        PersistError::StaleEpoch {
                            id: self.resident[i].id,
                            held,
                            stored,
                        },
                    ));
                    continue;
                }
                Ok(_) => {}
                Err(e) => {
                    errors.push((self.resident[i].id, e));
                    continue;
                }
            }
            let ResidentSlot {
                id,
                seq,
                mut pipeline,
                inbox,
            } = self.resident.swap_remove(i);
            let epoch = self.users[&id].epoch;
            // A parked pipeline cannot receive a job result: cancel any
            // in-flight retrain and persist the captured request instead,
            // so rehydration resubmits rather than applying a stale model.
            Self::cancel_user_retrain(&mut self.training, &mut pipeline);
            // Consuming snapshot: the pipeline is leaving memory anyway, so
            // its state moves into the snapshot instead of being cloned.
            let snapshot = pipeline.into_snapshot();
            match eviction.store.save_fenced(id, epoch, &snapshot) {
                Ok(()) => {
                    evicted += 1;
                    eviction.total_evictions += 1;
                    self.users.get_mut(&id).expect("registered").resident = None;
                }
                Err(e) => {
                    // Never drop unsaved state: rebuild the pipeline from
                    // the snapshot still in hand (a snapshot taken from a
                    // live pipeline always restores) and surface the error.
                    let server = self.users[&id].server.clone();
                    let pipeline = SmarterYou::restore(snapshot, server)
                        .expect("snapshot of a live pipeline restores");
                    self.resident.push(ResidentSlot {
                        id,
                        seq,
                        pipeline,
                        inbox,
                    });
                    errors.push((id, e));
                }
            }
        }
        self.eviction = Some(eviction);
        self.reindex_residents();
        (evicted, errors)
    }

    /// Repairs one entry's index after a single `swap_remove` moved the
    /// tail slot into `idx`. No-op when `idx` is past the end (the removed
    /// slot was the tail itself).
    fn fix_resident_index(&mut self, idx: usize) {
        if let Some(slot_id) = self.resident.get(idx).map(|s| s.id) {
            self.users
                .get_mut(&slot_id)
                .expect("resident implies registered")
                .resident = Some(idx);
        }
    }

    /// Rebuilds every resident entry's index after the dense array was
    /// permuted (batch eviction). O(resident).
    fn reindex_residents(&mut self) {
        for idx in 0..self.resident.len() {
            let id = self.resident[idx].id;
            self.users
                .get_mut(&id)
                .expect("resident implies registered")
                .resident = Some(idx);
        }
    }

    /// Lifetime eviction and rehydration totals (`(0, 0)` when eviction is
    /// disabled).
    pub fn eviction_totals(&self) -> (u64, u64) {
        self.eviction
            .as_ref()
            .map(|e| (e.total_evictions, e.total_rehydrations))
            .unwrap_or((0, 0))
    }

    /// One-call tick: queues a batch of `(user, window)` pairs, scores them
    /// (together with anything already queued), and returns this batch's
    /// outcomes **in input order**. Evicted users rehydrate on their first
    /// window of the batch, exactly as [`FleetEngine::submit`] would.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if any user in the batch is unregistered
    /// (checked up front — nothing is queued or scored in that case);
    /// [`CoreError::Persist`] if a rehydration fails while queueing
    /// (earlier pairs of the batch stay queued for the next tick); or the
    /// first per-user pipeline failure if one of this batch's users errored
    /// (the other users' pipelines still advanced — use
    /// [`FleetEngine::submit`] + [`FleetEngine::tick`] for error-isolated
    /// reporting).
    pub fn score_ticked(
        &mut self,
        batch: Vec<(UserId, DualDeviceWindow)>,
    ) -> Result<Vec<(UserId, ProcessOutcome)>, CoreError> {
        // Validate before mutating any inbox so an unknown id is atomic.
        for (id, _) in &batch {
            if !self.users.contains_key(id) {
                return Err(CoreError::UnknownUser(*id));
            }
        }
        // Remember, per input position, which of its user's queued windows
        // it became, so outcomes can be re-interleaved into input order.
        let mut positions = Vec::with_capacity(batch.len());
        let mut order: Vec<UserId> = Vec::with_capacity(batch.len());
        for (id, window) in batch {
            self.ensure_resident(id)?;
            let entry = self.users.get_mut(&id).expect("validated above");
            entry.last_submit_tick = self.clock;
            let slot = &mut self.resident[entry.resident.expect("made resident above")];
            positions.push(slot.inbox.len());
            order.push(id);
            slot.inbox.push(window);
        }
        let report = self.tick();
        if let Some((_, error)) = report.errors().first() {
            return Err(error.clone());
        }
        let by_user: HashMap<UserId, &UserOutcomes> =
            report.users().iter().map(|u| (u.user, u)).collect();
        Ok(order
            .into_iter()
            .zip(positions)
            .map(|(id, pos)| (id, by_user[&id].outcomes[pos]))
            .collect())
    }
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        // Wake any producer parked on a full attached queue: the engine
        // that would have drained it is going away, so they get a typed
        // `Closed` error instead of blocking forever on the condvar.
        if let Some(queue) = &self.ingest {
            queue.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarteryou_sensors::{Population, TraceGenerator, WindowSpec};

    fn some_window() -> DualDeviceWindow {
        let owner = Population::generate(1, 11).users()[0].clone();
        let mut gen = TraceGenerator::new(owner, 13);
        gen.next_window(WindowSpec::from_seconds(2.0, 50.0))
    }

    #[test]
    fn empty_engine_bookkeeping() {
        let mut engine = FleetEngine::new();
        assert!(engine.is_empty());
        assert_eq!(engine.len(), 0);
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.resident_count(), 0);
        assert_eq!(engine.eviction_capacity(), None);
        assert_eq!(engine.eviction_totals(), (0, 0));
        assert!(engine.snapshot_store_mut().is_none());
        assert!(engine.user_ids().next().is_none());
        assert!(engine.pipeline(UserId(0)).is_none());
        assert!(engine.pipeline_mut(UserId(0)).is_none());
        assert_eq!(engine.is_resident(UserId(0)), None);
        assert_eq!(engine.epoch_of(UserId(0)), None);
        let outcomes = engine.score_ticked(vec![]).expect("empty batch is fine");
        assert!(outcomes.is_empty());
        assert!(engine.ingest_queue().is_none());
        assert!(!engine.training_enabled());
        assert_eq!(engine.retrain_totals(), (0, 0, 0));
        assert_eq!(engine.retrains_in_flight(), 0);
        let report = engine.tick();
        assert_eq!(report.windows_scored(), 0);
        assert_eq!(report.evictions(), 0);
        assert_eq!(report.rehydrations(), 0);
        assert_eq!(report.resident_pipelines(), 0);
        assert_eq!(report.scanned_slots(), 0);
        assert_eq!(report.ingested(), 0);
        assert_eq!(report.ingest_forwarded(), 0);
        assert!(report.ingest_errors().is_empty());
        assert!(report.misrouted().is_empty());
        assert_eq!(report.retrains_started(), 0);
        assert_eq!(report.retrains_completed(), 0);
        assert_eq!(report.retrains_canceled(), 0);
        assert_eq!(report.retrains_in_flight(), 0);
    }

    #[test]
    fn unregistered_user_is_a_typed_error() {
        let mut engine = FleetEngine::new();
        let w = some_window();
        assert_eq!(
            engine.submit(UserId(4), w.clone()),
            Err(CoreError::UnknownUser(UserId(4)))
        );
        assert_eq!(
            engine.submit_many(UserId(4), [w.clone()]),
            Err(CoreError::UnknownUser(UserId(4)))
        );
        assert_eq!(
            engine.score_ticked(vec![(UserId(4), w)]).unwrap_err(),
            CoreError::UnknownUser(UserId(4))
        );
        assert_eq!(
            engine.rehydrate(UserId(4)),
            Err(CoreError::UnknownUser(UserId(4)))
        );
        assert!(matches!(
            engine.release(UserId(4)),
            Err(CoreError::UnknownUser(UserId(4)))
        ));
    }

    #[test]
    fn register_parked_requires_a_store() {
        let mut engine = FleetEngine::new();
        let server: Arc<dyn TrainingHandle> =
            Arc::new(parking_lot::Mutex::new(crate::server::TrainingServer::new()));
        assert!(matches!(
            engine.register_parked(UserId(0), server),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_eviction_capacity_is_rejected() {
        FleetEngine::new().enable_eviction(Box::new(crate::persist::MemorySnapshotStore::new()), 0);
    }

    #[test]
    fn ingest_queue_attaches_and_reattaches_only_when_drained() {
        let mut engine = FleetEngine::new();
        let queue = engine.enable_ingest(2, BackpressurePolicy::Reject);
        assert!(engine.ingest_queue().is_some());
        queue.push((UserId(0), some_window())).expect("space");
        // The queued (unknown-user) window surfaces as misrouted, counted
        // by nothing else, and the drain empties the queue.
        let report = engine.tick();
        assert_eq!(report.ingested(), 0);
        assert_eq!(report.misrouted().len(), 1);
        assert!(queue.is_empty());
        // Empty queue: replacement allowed.
        engine.attach_ingest(Arc::new(IngestQueue::new(
            4,
            BackpressurePolicy::BlockingWait,
        )));
        assert_eq!(
            engine.ingest_queue().expect("attached").capacity(),
            4,
            "replacement queue installed"
        );
    }

    #[test]
    #[should_panic(expected = "drain it first")]
    fn replacing_a_nonempty_ingest_queue_is_rejected() {
        let mut engine = FleetEngine::new();
        let queue = engine.enable_ingest(2, BackpressurePolicy::Reject);
        queue.push((UserId(0), some_window())).expect("space");
        engine.attach_ingest(Arc::new(IngestQueue::new(2, BackpressurePolicy::Reject)));
    }
}
