//! UserId-routed sharding over the fleet engine.
//!
//! The paper's pipeline is strictly per-user, which makes the fleet
//! embarrassingly shardable: a [`ShardRouter`] hashes each [`UserId`] to a
//! home shard, a [`ShardedFleet`] runs N independent [`FleetEngine`]s over
//! **one shared** [`SnapshotStore`] (through [`SharedSnapshotStore`]), and
//! the versioned pipeline snapshot doubles as the inter-shard wire format —
//! moving a user is an evict on the source shard and a lazy rehydration on
//! the target, no extra serialization layer.
//!
//! ```text
//!                         ┌────────────────────────────┐
//!        submit(id, w)    │        ShardedFleet        │
//!      ───────────────▶   │  ShardRouter: hash(UserId) │
//!                         └──────┬──────┬──────┬───────┘
//!                                │      │      │        owner map
//!                     ┌──────────┘      │      └───────────┐
//!                     ▼                 ▼                  ▼
//!              ┌────────────┐   ┌────────────┐      ┌────────────┐
//!              │ FleetEngine│   │ FleetEngine│  …   │ FleetEngine│
//!              │  shard 0   │   │  shard 1   │      │  shard N-1 │
//!              │ (resident  │   │ (resident  │      │ (resident  │
//!              │  slots +   │   │  slots +   │      │  slots +   │
//!              │  LRU evict)│   │  LRU evict)│      │  LRU evict)│
//!              └─────┬──────┘   └─────┬──────┘      └─────┬──────┘
//!                    │ save_fenced(epoch) / load / acquire │
//!                    ▼                 ▼                   ▼
//!              ┌───────────────────────────────────────────────┐
//!              │     SharedSnapshotStore (one mutex'd store)   │
//!              │ per-user: binary snapshot + ownership epoch   │
//!              └───────────────────────────────────────────────┘
//! ```
//!
//! # Ownership: the epoch fence
//!
//! Exactly one shard may own a user's live pipeline. The shared store
//! persists a monotonic per-user **epoch**; registering a user on a shard
//! claims the next epoch ([`SnapshotStore::acquire`]) and every snapshot
//! save from that shard is fenced on the claim. A migration is therefore:
//!
//! 1. **source**: [`FleetEngine::release`] — snapshot + fenced save under
//!    the source's epoch, user forgotten;
//! 2. **target**: [`FleetEngine::register_parked`] — claims epoch + 1,
//!    rehydrates lazily on the first submit (undelivered windows are
//!    carried over).
//!
//! If the order ever inverts — the target claims before the source saved —
//! the source's save is rejected with [`PersistError::StaleEpoch`]: its
//! stale copy stays resident in memory (state is never silently dropped)
//! but can never again be persisted or rehydrated, so it cannot clobber
//! the new owner's state. Two shards can never both persist a live
//! pipeline.
//!
//! # Parity
//!
//! Sharding is behaviour-free: decisions, scores, and retrain events are
//! bit-identical to one eviction-disabled engine fed the same windows,
//! *including across forced migrations mid-stream* — enforced by
//! `tests/shard_parity.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;

use smarteryou_sensors::{DualDeviceWindow, UserId};

use crate::engine::ingest::{BackpressurePolicy, IngestQueue, IngestRouter};
use crate::engine::training::TrainingService;
use crate::engine::{EnrollmentEntry, FleetEngine, TickReport};
use crate::parallel::parallel_map_mut;
use crate::persist::{SharedSnapshotStore, SnapshotStore};
use crate::pipeline::SmarterYou;
use crate::server::TrainingHandle;
use crate::CoreError;

#[cfg(doc)]
use crate::persist::PersistError;

/// Pure, process-stable `UserId → shard` routing. Uses a fixed-constant
/// mix (SplitMix64's finalizer), **not** the standard library's keyed
/// `HashMap` hasher: routing must be a function of the id alone, identical
/// across process restarts and across machines, so that every node of a
/// future multi-process deployment computes the same home shard without
/// coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: usize,
}

impl ShardRouter {
    /// A router over `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "router needs at least one shard");
        ShardRouter { num_shards }
    }

    /// Number of shards routed over.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The home shard for `id` — a pure function of the id and the shard
    /// count.
    pub fn shard_of(&self, id: UserId) -> usize {
        (Self::mix(id.0 as u64) % self.num_shards as u64) as usize
    }

    /// SplitMix64 finalizer: a fixed, well-dispersed 64-bit mix so that
    /// dense sequential user ids spread evenly over the shards.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// N [`FleetEngine`] shards behind a [`ShardRouter`], sharing one
/// epoch-fenced snapshot store. See the [module docs](self) for the
/// topology and ownership protocol.
#[derive(Debug)]
pub struct ShardedFleet {
    router: ShardRouter,
    shards: Vec<FleetEngine>,
    store: SharedSnapshotStore,
    /// Current owning shard per user. Starts at the router's home shard;
    /// diverges only through explicit [`ShardedFleet::migrate`] calls
    /// (rebalancing, drains).
    owner: HashMap<UserId, usize>,
    /// Lifetime count of completed cross-shard migrations.
    migrations: u64,
    /// Async ingestion front door, when enabled: one bounded queue per
    /// shard, drained by each shard's tick.
    ingest: Option<IngestRouter>,
}

impl ShardedFleet {
    /// A fleet of `num_shards` shards sharing `store`, each shard holding
    /// at most `capacity_per_shard` resident pipelines (idle ones park in
    /// the shared store, exactly as [`FleetEngine::with_eviction`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` or `capacity_per_shard` is zero.
    pub fn new(
        num_shards: usize,
        store: Box<dyn SnapshotStore>,
        capacity_per_shard: usize,
    ) -> Self {
        let router = ShardRouter::new(num_shards);
        let store = SharedSnapshotStore::new(store);
        let shards = (0..num_shards)
            .map(|_| FleetEngine::new().with_eviction(Box::new(store.clone()), capacity_per_shard))
            .collect();
        ShardedFleet {
            router,
            shards,
            store,
            owner: HashMap::new(),
            migrations: 0,
            ingest: None,
        }
    }

    /// Enables async ingestion: one bounded queue (capacity
    /// `queue_capacity_per_shard`, backpressure `policy`) per shard,
    /// attached so each shard's tick drains its own queue. Returns the
    /// cloneable [`IngestRouter`] producers submit through; retrieve it
    /// again with [`ShardedFleet::ingest_router`].
    ///
    /// Reconfiguring (new capacity and/or policy) is allowed only while
    /// every queue is empty; the old queues are closed **before** the
    /// emptiness check — producers still holding the old router get
    /// [`IngestError::Closed`](crate::IngestError::Closed) instead of
    /// pushing into a queue nothing drains, and a racing push cannot slip
    /// in between check and swap.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity_per_shard` is zero, or if a previously
    /// enabled router's queues still hold undrained windows.
    pub fn enable_ingest(
        &mut self,
        queue_capacity_per_shard: usize,
        policy: BackpressurePolicy,
    ) -> IngestRouter {
        if let Some(old) = &self.ingest {
            old.close();
            assert_eq!(
                old.backlog(),
                0,
                "cannot reconfigure ingest while queues hold windows — tick until drained first"
            );
        }
        let queues: Vec<_> = (0..self.shards.len())
            .map(|_| Arc::new(IngestQueue::new(queue_capacity_per_shard, policy)))
            .collect();
        for (shard, queue) in self.shards.iter_mut().zip(&queues) {
            shard.attach_ingest(queue.clone());
        }
        let router = IngestRouter::new(self.router, queues);
        self.ingest = Some(router.clone());
        router
    }

    /// The ingestion front door (`None` until
    /// [`ShardedFleet::enable_ingest`]).
    pub fn ingest_router(&self) -> Option<IngestRouter> {
        self.ingest.clone()
    }

    /// Attaches one [`TrainingService`] **per shard**, built by `make`
    /// (e.g. `|| TrainingService::with_workers(2)`). Services cannot be
    /// shared across shards: each shard's engine routes completed jobs
    /// through its own job→user map, so a shared service would deliver one
    /// shard's results into another's collection pass. Deferred retrains
    /// canceled by a [migration](ShardedFleet::migrate) re-issue on the
    /// target shard automatically — the captured request travels inside
    /// the snapshot and the target's next tick resubmits it.
    ///
    /// # Panics
    ///
    /// As [`FleetEngine::enable_training`]: panics if any shard's previous
    /// service still has jobs in flight.
    pub fn enable_training(&mut self, mut make: impl FnMut() -> TrainingService) {
        for shard in &mut self.shards {
            shard.enable_training(make());
        }
    }

    /// Whether every shard has a training service attached.
    pub fn training_enabled(&self) -> bool {
        self.shards.iter().all(FleetEngine::training_enabled)
    }

    /// Fleet-wide lifetime `(started, completed, canceled)` retrain-job
    /// totals, summed over the shards (see
    /// [`FleetEngine::retrain_totals`]).
    pub fn retrain_totals(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, shard| {
            let (s, c, x) = shard.retrain_totals();
            (acc.0 + s, acc.1 + c, acc.2 + x)
        })
    }

    /// Retrain jobs currently in flight across all shards.
    pub fn retrains_in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(FleetEngine::retrains_in_flight)
            .sum()
    }

    /// The routing function.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Registered users across all shards.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether no users are registered.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Resident pipelines across all shards.
    pub fn resident_count(&self) -> usize {
        self.shards.iter().map(FleetEngine::resident_count).sum()
    }

    /// Lifetime count of completed cross-shard migrations.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The shard currently owning `id` (`None` for unregistered users).
    /// Equal to [`ShardRouter::shard_of`] unless the user was explicitly
    /// migrated.
    pub fn shard_of(&self, id: UserId) -> Option<usize> {
        self.owner.get(&id).copied()
    }

    /// Borrows one shard's engine (e.g. for counters).
    pub fn shard(&self, index: usize) -> &FleetEngine {
        &self.shards[index]
    }

    /// Mutably borrows one shard's engine (e.g. to rehydrate or inspect a
    /// pipeline in place). Cross-shard invariants are the caller's
    /// responsibility — prefer the fleet-level API.
    pub fn shard_mut(&mut self, index: usize) -> &mut FleetEngine {
        &mut self.shards[index]
    }

    /// A cloneable handle on the shared snapshot store (operational
    /// tooling; every shard already holds one).
    pub fn store(&self) -> SharedSnapshotStore {
        self.store.clone()
    }

    /// Registers a user's pipeline on their router-assigned home shard.
    /// Returns the shard index.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::register`].
    pub fn register(&mut self, id: UserId, pipeline: SmarterYou) -> Result<usize, CoreError> {
        if self.owner.contains_key(&id) {
            return Err(CoreError::AlreadyRegistered(id));
        }
        let shard = self.router.shard_of(id);
        self.shards[shard].register(id, pipeline)?;
        self.owner.insert(id, shard);
        Ok(shard)
    }

    /// Registers a user whose snapshot already lives in the shared store,
    /// parked on their home shard (claiming their ownership epoch). The
    /// cheap path for enrolling an engine with known-but-idle users.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::register_parked`].
    pub fn register_parked(
        &mut self,
        id: UserId,
        server: Arc<dyn TrainingHandle>,
    ) -> Result<usize, CoreError> {
        if self.owner.contains_key(&id) {
            return Err(CoreError::AlreadyRegistered(id));
        }
        let shard = self.router.shard_of(id);
        self.shards[shard].register_parked(id, server)?;
        self.owner.insert(id, shard);
        Ok(shard)
    }

    /// Queues one window on the user's owning shard (rehydrating their
    /// pipeline from the shared store if parked).
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::submit`].
    pub fn submit(&mut self, id: UserId, window: DualDeviceWindow) -> Result<(), CoreError> {
        let shard = *self.owner.get(&id).ok_or(CoreError::UnknownUser(id))?;
        self.shards[shard].submit(id, window)
    }

    /// Queues a stream of windows on the user's owning shard, preserving
    /// order.
    ///
    /// # Errors
    ///
    /// As [`FleetEngine::submit_many`].
    pub fn submit_many(
        &mut self,
        id: UserId,
        windows: impl IntoIterator<Item = DualDeviceWindow>,
    ) -> Result<(), CoreError> {
        let shard = *self.owner.get(&id).ok_or(CoreError::UnknownUser(id))?;
        self.shards[shard].submit_many(id, windows)
    }

    /// Batched enrollment across the fleet: groups `batch` by owning
    /// shard and runs one [`FleetEngine::enroll_many`] per shard, so each
    /// shard builds one shared negative-Gram workspace for its whole
    /// group (shard order, preserving `batch` order within a shard).
    /// Returns the total number of users enrolled.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] if any user is unowned (checked before
    /// any shard enrolls); per-shard failures abort the remaining shards.
    pub fn enroll_many(
        &mut self,
        batch: Vec<EnrollmentEntry>,
        rng: &mut StdRng,
    ) -> Result<usize, CoreError> {
        let mut per_shard: Vec<Vec<EnrollmentEntry>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (id, buffers) in batch {
            let shard = *self.owner.get(&id).ok_or(CoreError::UnknownUser(id))?;
            per_shard[shard].push((id, buffers));
        }
        let mut enrolled = 0;
        for (shard, group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            enrolled += self.shards[shard].enroll_many(group, rng)?;
        }
        Ok(enrolled)
    }

    /// Ticks every shard concurrently (one [`FleetEngine::tick`] each; the
    /// nested per-pipeline maps split the machine's thread budget across
    /// the shard workers, so total concurrency stays ≈ the core count —
    /// see [`crate::parallel`]). Returns one report per shard,
    /// index-aligned with the shard array.
    ///
    /// With ingest enabled, each shard's tick first drains its own queue
    /// (windows score on this very tick). Drained windows whose user was
    /// [migrated](ShardedFleet::migrate) away from their home shard are
    /// then re-delivered to the current owning shard — counted in
    /// [`TickReport::ingest_forwarded`] on the *home* shard's report —
    /// and score on the owner's next tick. A window is never scored on a
    /// stale shard; the only drop path is a user no shard knows, reported
    /// as a typed [`CoreError::UnknownUser`] in
    /// [`TickReport::ingest_errors`].
    pub fn tick(&mut self) -> Vec<TickReport> {
        let mut reports = parallel_map_mut(&mut self.shards, FleetEngine::tick);
        for report in &mut reports {
            let misrouted = report.take_misrouted();
            if misrouted.is_empty() {
                continue;
            }
            let mut forwarded = 0;
            for (id, window) in misrouted {
                let Some(&owner) = self.owner.get(&id) else {
                    report.push_ingest_error(id, CoreError::UnknownUser(id));
                    continue;
                };
                forwarded += 1;
                // A failed rehydration stashes the window on the owner's
                // parked entry — retained, delivered at the next
                // successful rehydration — so the error is informational.
                if let Err(e) = self.shards[owner].deliver_ingest(id, window) {
                    report.push_ingest_error(id, e);
                }
            }
            report.note_forwarded(forwarded);
        }
        reports
    }

    /// Moves a user to `target` shard: fenced evict on the source
    /// ([`FleetEngine::release`]), epoch claim + parked adoption on the
    /// target, undelivered queued windows carried over. No-op when the
    /// user already lives on `target`. The user's pipeline stays parked
    /// until their next submit on the target shard (lazy rehydration).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUser`] for unregistered users;
    /// [`CoreError::InvalidConfig`] for an out-of-range target;
    /// [`CoreError::Persist`] when the source save or the target's epoch
    /// claim fails — the user then stays on their current shard. Neither
    /// trained state nor queued windows are ever lost: once the handoff
    /// has committed, carried windows that cannot be re-queued right away
    /// (the target store failing a rehydration) are stashed on the parked
    /// entry and delivered at the user's next successful rehydration, and
    /// the migration still reports success.
    ///
    /// # Panics
    ///
    /// Panics if, after a failed target adoption, the source store cannot
    /// re-claim the user either (two consecutive epoch-claim failures on
    /// the same shared store) — continuing would leave the user registered
    /// nowhere while the fleet still routes for them.
    pub fn migrate(&mut self, id: UserId, target: usize) -> Result<(), CoreError> {
        let source = *self.owner.get(&id).ok_or(CoreError::UnknownUser(id))?;
        if target >= self.shards.len() {
            return Err(CoreError::InvalidConfig(format!(
                "target shard {target} out of range ({} shards)",
                self.shards.len()
            )));
        }
        if source == target {
            return Ok(());
        }
        // The source's held epoch is what the store will read after its
        // fenced release save — the target adopts with a CAS against it,
        // so an interloper (another process sharing the store) claiming
        // the user between release and adoption surfaces as a typed
        // `StaleEpoch` instead of silently fencing that claimant out.
        let source_epoch = self.shards[source]
            .epoch_of(id)
            .expect("owner map and shard registration agree");
        let (windows, server) = self.shards[source].release(id)?;
        // From here the user is registered nowhere; adopt on the target
        // (or, failing that, re-adopt on the source) before returning.
        if let Err(adopt_error) =
            self.shards[target].register_parked_at(id, server.clone(), source_epoch)
        {
            self.shards[source]
                .register_parked(id, server)
                .expect("re-claiming a just-released user on its own shard cannot fail twice");
            self.shards[source].stash_windows(id, windows);
            return Err(adopt_error);
        }
        self.owner.insert(id, target);
        self.migrations += 1;
        if !windows.is_empty() {
            // Re-queue the carried windows on the new owner — normally the
            // pipeline rehydrates immediately and they score on the next
            // tick. If the store cannot rehydrate right now, the migration
            // has already committed, so the windows are stashed for the
            // next successful rehydration rather than dropped (and rather
            // than reporting a half-done migration as failed).
            match self.shards[target].rehydrate(id) {
                Ok(()) => self.shards[target]
                    .submit_many(id, windows)
                    .expect("submitting to a resident pipeline cannot fail"),
                Err(_) => self.shards[target].stash_windows(id, windows),
            }
        }
        Ok(())
    }
}

impl Drop for ShardedFleet {
    fn drop(&mut self) {
        // Wake any producer parked on a full queue: the fleet that would
        // have drained it is going away, so they get a typed `Closed`
        // error instead of blocking forever.
        if let Some(ingest) = &self.ingest {
            ingest.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_a_pure_stable_function() {
        let router = ShardRouter::new(4);
        for id in 0..1000 {
            let shard = router.shard_of(UserId(id));
            assert!(shard < 4);
            assert_eq!(shard, ShardRouter::new(4).shard_of(UserId(id)));
        }
    }

    #[test]
    fn router_spreads_dense_ids() {
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for id in 0..10_000 {
            counts[router.shard_of(UserId(id))] += 1;
        }
        for &c in &counts {
            assert!(
                (2_000..=3_000).contains(&c),
                "unbalanced routing: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardRouter::new(0);
    }
}
