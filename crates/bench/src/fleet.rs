//! Shared fixtures for the fleet-engine throughput benchmarks: a simulated
//! population of enrolled pipelines behind a [`FleetEngine`] (or a
//! [`ShardedFleet`]), plus a window feed that keeps every tick supplied
//! with fresh sensor windows.
//!
//! Used by `benches/fleet.rs` (criterion latency samples) and the
//! `fleet` binary (windows/sec at 100 / 1k / 10k users). Distinct sensor
//! profiles are capped at [`FleetFixture::MAX_PROFILES`] — beyond that,
//! users cycle through the profile pool, which keeps fixture construction
//! linear in profile count while every user still owns a full pipeline,
//! model set and RNG stream.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smarteryou_core::engine::{
    BackpressurePolicy, FleetEngine, IngestRouter, ShardedFleet, TickReport, TrainingService,
};
use smarteryou_core::persist::MemorySnapshotStore;
use smarteryou_core::{
    ContextDetector, ContextDetectorConfig, CoreError, DeviceSet, FeatureExtractor, ResponsePolicy,
    RetrainMode, RetrainPolicy, SmarterYou, SystemConfig, TrainingHandle, TrainingServer,
};
use smarteryou_sensors::{
    DualDeviceWindow, Population, RawContext, TraceGenerator, UserId, WindowSpec,
};

/// Cap on distinct sensor profiles (fixture construction cost is linear in
/// this, while user count can grow to fleet scale).
const MAX_PROFILES: usize = 32;

/// The shared infrastructure every benchmark fleet is built on: a trained
/// context detector, an anonymized negative pool, and per-profile
/// enrollment + authentication window material.
struct FleetWorld {
    cfg: SystemConfig,
    detector: ContextDetector,
    server: Arc<Mutex<TrainingServer>>,
    /// Enrollment windows per profile (shared by all users of the profile).
    enrollment: Vec<Vec<DualDeviceWindow>>,
    /// Authentication windows per profile, cycled per tick.
    feed: Vec<Vec<DualDeviceWindow>>,
    profiles: usize,
}

fn build_world(num_users: usize, window_secs: f64, seed: u64) -> Result<FleetWorld, CoreError> {
    assert!(num_users > 0, "fleet needs at least one user");
    let profiles = num_users.min(MAX_PROFILES);
    let population = Population::generate(profiles + 4, seed);
    let cfg = SystemConfig::paper_default()
        .with_window_secs(window_secs)
        .with_data_size(40);
    let spec = WindowSpec::from_seconds(cfg.window_secs(), cfg.sample_rate());
    let extractor = FeatureExtractor::paper_default(cfg.sample_rate());

    // Anonymized negative pool + user-agnostic context detector from the
    // four reserve users.
    let mut ctx_features = Vec::new();
    let mut ctx_labels = Vec::new();
    let mut server = TrainingServer::new();
    for user in &population.users()[profiles..] {
        let mut gen = TraceGenerator::new(user.clone(), seed ^ 0x9E37);
        for raw in [RawContext::SittingStanding, RawContext::MovingAround] {
            let windows = gen.generate_windows(raw, spec, 25);
            for w in &windows {
                ctx_features.push(extractor.context_features(w));
                ctx_labels.push(raw.coarse());
            }
            server.contribute(
                raw.coarse(),
                windows
                    .iter()
                    .map(|w| extractor.auth_features(w, DeviceSet::Combined)),
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let detector = ContextDetector::train(
        extractor,
        &ctx_features,
        &ctx_labels,
        ContextDetectorConfig {
            num_trees: 16,
            max_depth: 8,
        },
        &mut rng,
    )?;
    let server = Arc::new(Mutex::new(server));

    // Per-profile window material: one enrollment stream (shared by all
    // users of the profile) and one authentication feed.
    let mut enrollment: Vec<Vec<DualDeviceWindow>> = Vec::with_capacity(profiles);
    let mut feed: Vec<Vec<DualDeviceWindow>> = Vec::with_capacity(profiles);
    for (p, user) in population.users()[..profiles].iter().enumerate() {
        let mut gen = TraceGenerator::new(user.clone(), seed ^ (p as u64) << 3);
        let mut enroll = Vec::new();
        for round in 0..26 {
            let ctx = if round % 2 == 0 {
                RawContext::SittingStanding
            } else {
                RawContext::MovingAround
            };
            enroll.extend(gen.generate_windows(ctx, spec, 2));
        }
        enrollment.push(enroll);
        let mut ticks = Vec::new();
        for ctx in [RawContext::SittingStanding, RawContext::MovingAround] {
            ticks.extend(gen.generate_windows(ctx, spec, 16));
        }
        // The ingest tier projects authentication windows down to the two
        // motion streams the pipeline consumes (see
        // `DualDeviceWindow::retain_motion`): every per-tick clone and
        // inbox hop then moves half the bytes. Enrollment streams stay
        // full-width — they are processed once, not per tick.
        for w in &mut ticks {
            w.retain_motion();
        }
        feed.push(ticks);
    }

    Ok(FleetWorld {
        cfg,
        detector,
        server,
        enrollment,
        feed,
        profiles,
    })
}

/// Enrolls one scratch template pipeline per profile through the
/// per-window path and harvests its per-context enrollment buffers — the
/// feature-level material batched enrollment
/// ([`FleetEngine::enroll_many`]) installs into every user of the
/// profile. O(profiles), bounded by [`FleetFixture::MAX_PROFILES`], so the
/// per-user cost of fixture construction is the shared-workspace fit, not
/// window processing.
fn harvest_enrollment_buffers(
    world: &FleetWorld,
    seed: u64,
) -> Result<Vec<[Vec<Vec<f64>>; 2]>, CoreError> {
    let mut buffers = Vec::with_capacity(world.profiles);
    for p in 0..world.profiles {
        let mut template = SmarterYou::new(
            world.cfg.clone(),
            world.detector.clone(),
            world.server.clone(),
            // Scratch seed, distinct from any registered user's stream.
            seed ^ 0xE17A ^ ((p as u64) << 7),
        )?
        .with_response_policy(ResponsePolicy {
            rejects_to_lock: usize::MAX,
        });
        // Context misdetections can leave a buffer short; repeat the
        // profile's enrollment stream until the buffers fill.
        for _pass in 0..9 {
            if template.authenticator().is_some() {
                break;
            }
            for w in &world.enrollment[p] {
                template.process_window(w)?;
            }
        }
        assert!(
            template.authenticator().is_some(),
            "profile {p} failed to enroll"
        );
        buffers.push(template.enrollment_buffers().clone());
    }
    Ok(buffers)
}

/// Material for the retrain-latency bench rows: the shared training
/// server (with its anonymized negative pool), the deployed system config,
/// and per-profile enrollment feature buffers — the positive class a
/// confidence-triggered retrain refits on.
pub struct RetrainMaterial {
    /// Deployed system configuration (window length, data size, ρ).
    pub cfg: SystemConfig,
    /// Training server holding the anonymized negative pool.
    pub server: Arc<Mutex<TrainingServer>>,
    /// Per-profile positive feature buffers, one `[stationary, moving]`
    /// pair each; users beyond the profile cap cycle through these.
    pub buffers: Vec<[Vec<Vec<f64>>; 2]>,
}

/// Builds the world + harvested enrollment buffers the retrain bench
/// refits against, without registering a fleet (the bench times the
/// training-handle calls directly, not engine ticks).
///
/// # Errors
///
/// Propagates pipeline construction/training failures.
///
/// # Panics
///
/// Panics if `num_users` is zero or a profile fails to enroll.
pub fn retrain_material(
    num_users: usize,
    window_secs: f64,
    seed: u64,
) -> Result<RetrainMaterial, CoreError> {
    let world = build_world(num_users, window_secs, seed)?;
    let buffers = harvest_enrollment_buffers(&world, seed)?;
    Ok(RetrainMaterial {
        cfg: world.cfg,
        server: world.server,
        buffers,
    })
}

/// A ready-to-tick fleet: every registered user has finished enrollment and
/// authenticates windows drawn from their sensor profile.
pub struct FleetFixture {
    engine: FleetEngine,
    server: Arc<Mutex<TrainingServer>>,
    /// Authentication windows per profile, cycled per tick.
    feed: Vec<Vec<DualDeviceWindow>>,
    /// Profile index per registered user.
    profile_of: Vec<usize>,
    cursor: usize,
}

impl FleetFixture {
    /// Cap on distinct sensor profiles (fixture construction cost is linear
    /// in this, while user count can grow to fleet scale).
    pub const MAX_PROFILES: usize = MAX_PROFILES;

    /// Builds a fleet of `num_users` enrolled pipelines on short 2 s
    /// windows (the historical baseline configuration).
    ///
    /// # Errors
    ///
    /// Propagates pipeline construction/training failures.
    ///
    /// # Panics
    ///
    /// Panics if `num_users` is zero or a pipeline fails to finish
    /// enrollment on its seeded window stream.
    pub fn build(num_users: usize, seed: u64) -> Result<Self, CoreError> {
        Self::build_with_window(num_users, 2.0, seed)
    }

    /// Builds a fleet of `num_users` enrolled pipelines with
    /// `window_secs`-long windows at 50 Hz. The paper's deployed window is
    /// 6 s (300 samples — not a power of two, i.e. the Bluestein FFT path).
    ///
    /// # Errors
    ///
    /// Propagates pipeline construction/training failures.
    ///
    /// # Panics
    ///
    /// Panics if `num_users` is zero or a pipeline fails to finish
    /// enrollment on its seeded window stream.
    pub fn build_with_window(
        num_users: usize,
        window_secs: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::build_inner(num_users, window_secs, seed, None)
    }

    /// Builds a fleet whose pipelines run [`RetrainMode::Deferred`] under
    /// `retrain` — the training-bench configuration. The caller attaches a
    /// [`TrainingService`] afterwards (see
    /// [`FleetFixture::enable_training`]); any retrain triggered before the
    /// service is attached parks as a pending request and is submitted on
    /// the first serviced tick.
    ///
    /// # Errors
    ///
    /// Propagates pipeline construction/training failures.
    ///
    /// # Panics
    ///
    /// Panics if `num_users` is zero or a pipeline fails to finish
    /// enrollment on its seeded window stream.
    pub fn build_deferred(
        num_users: usize,
        window_secs: f64,
        seed: u64,
        retrain: RetrainPolicy,
    ) -> Result<Self, CoreError> {
        Self::build_inner(num_users, window_secs, seed, Some(retrain))
    }

    fn build_inner(
        num_users: usize,
        window_secs: f64,
        seed: u64,
        retrain: Option<RetrainPolicy>,
    ) -> Result<Self, CoreError> {
        let world = build_world(num_users, window_secs, seed)?;
        // Window processing happens once per *profile*; users enroll on the
        // harvested feature buffers through the batched entry point below.
        let buffers = harvest_enrollment_buffers(&world, seed)?;

        let mut engine = FleetEngine::new();
        let mut profile_of = Vec::with_capacity(num_users);
        for u in 0..num_users {
            let profile = u % world.profiles;
            profile_of.push(profile);
            let mut pipeline = SmarterYou::new(
                world.cfg.clone(),
                world.detector.clone(),
                world.server.clone(),
                seed ^ (u as u64 + 1),
            )?
            // Fleet monitoring keeps scoring after rejections; locking every
            // device on its first odd window would make throughput numbers
            // unrepresentative.
            .with_response_policy(ResponsePolicy {
                rejects_to_lock: usize::MAX,
            });
            if let Some(policy) = retrain {
                pipeline = pipeline
                    .with_retrain_policy(policy)
                    .with_retrain_mode(RetrainMode::Deferred);
            }
            engine.register(UserId(u), pipeline)?;
        }
        // One pinned negative epoch + shared Gram workspace for the whole
        // fleet: per-user cost is the closed-form fit off the shared block.
        let batch: Vec<(UserId, [Vec<Vec<f64>>; 2])> = profile_of
            .iter()
            .enumerate()
            .map(|(u, &p)| (UserId(u), buffers[p].clone()))
            .collect();
        let enrolled = engine.enroll_many(batch, &mut StdRng::seed_from_u64(seed ^ 0xBA7C4))?;
        assert_eq!(
            enrolled, num_users,
            "batched enrollment must cover the fleet"
        );
        for u in 0..num_users {
            assert!(
                engine
                    .pipeline(UserId(u))
                    .expect("registered")
                    .authenticator()
                    .is_some(),
                "user {u} failed to enroll"
            );
        }

        Ok(FleetFixture {
            engine,
            server: world.server,
            feed: world.feed,
            profile_of,
            cursor: 0,
        })
    }

    /// Number of registered users (resident or parked).
    pub fn num_users(&self) -> usize {
        self.engine.len()
    }

    /// Switches the engine to bounded residency: at most `capacity`
    /// pipelines stay in memory after each tick, the rest round-tripping
    /// through an in-memory snapshot store (the serialized wire format, so
    /// the measured churn cost includes full encode/decode). Called after
    /// enrollment so fixture construction itself is unaffected.
    pub fn enable_eviction(&mut self, capacity: usize) {
        self.engine
            .enable_eviction(Box::new(MemorySnapshotStore::new()), capacity);
    }

    /// Attaches (or, once no retrains are in flight, replaces) the
    /// engine's [`TrainingService`]. Deferred-mode pipelines park their
    /// retrain triggers until a service is attached, so calling this after
    /// [`FleetFixture::build_deferred`] + warm-up gives the training bench
    /// a clean starting point.
    pub fn enable_training(&mut self, service: TrainingService) {
        self.engine.enable_training(service);
    }

    /// Registers `count` additional users as **parked** entries (no
    /// pipeline, no snapshot — they never submit): the registered-but-idle
    /// long tail a production shard carries. Requires
    /// [`FleetFixture::enable_eviction`] first. This is what the
    /// `resident_scan` bench scenario scales up to prove ticks are
    /// O(resident).
    pub fn park_users(&mut self, count: usize) {
        let base = self.engine.len();
        for k in 0..count {
            let server: Arc<dyn TrainingHandle> = self.server.clone();
            self.engine
                .register_parked(UserId(base + k), server)
                .expect("park user");
        }
    }

    /// Queues `per_user` fresh windows for each user in `users` (indices
    /// into the registered fleet); returns the number of windows queued.
    /// Unlike [`FleetFixture::submit_tick`], this touches only a subset —
    /// the access pattern that makes an eviction policy earn its keep.
    pub fn submit_tick_for(
        &mut self,
        users: impl IntoIterator<Item = usize>,
        per_user: usize,
    ) -> usize {
        let mut queued = 0;
        for u in users {
            let pool = &self.feed[self.profile_of[u]];
            for k in 0..per_user {
                let window = pool[(self.cursor + k) % pool.len()].clone();
                self.engine
                    .submit(UserId(u), window)
                    .expect("user registered");
                queued += 1;
            }
        }
        self.cursor = (self.cursor + per_user) % self.feed[0].len().max(1);
        queued
    }

    /// Borrows the engine (e.g. for direct `score_ticked` calls).
    pub fn engine_mut(&mut self) -> &mut FleetEngine {
        &mut self.engine
    }

    /// Queues `per_user` fresh windows for every user with a pipeline (the
    /// first `num_users` registered; parked extras from
    /// [`FleetFixture::park_users`] stay idle); returns the number of
    /// windows queued.
    pub fn submit_tick(&mut self, per_user: usize) -> usize {
        let users = self.profile_of.len();
        self.submit_tick_for(0..users, per_user)
    }

    /// Scores everything queued.
    ///
    /// # Panics
    ///
    /// Panics on pipeline training failures (not expected after enrollment).
    pub fn tick(&mut self) -> TickReport {
        let report = self.engine.tick();
        assert!(
            report.errors().is_empty(),
            "tick failed: {:?}",
            report.errors()
        );
        report
    }
}

/// A ready-to-tick **sharded** fleet: `num_users` enrolled pipelines routed
/// over N shards that share one in-memory snapshot store.
///
/// Construction processes enrollment windows once per sensor profile and
/// then enrolls every user through [`ShardedFleet::enroll_many`] — one
/// shared negative epoch and Gram workspace per shard, with each user
/// paying only the closed-form fit. Every user owns a full in-memory
/// pipeline with its own RNG stream, but window-level work stays linear in
/// profile count, which is what makes a 10k-user shard scenario practical
/// in CI.
pub struct ShardFixture {
    fleet: ShardedFleet,
    feed: Vec<Vec<DualDeviceWindow>>,
    profile_of: Vec<usize>,
    cursor: usize,
    /// Rotating cursor for forced-migration churn.
    migrate_next: usize,
}

impl ShardFixture {
    /// Builds `num_users` enrolled users over `num_shards` shards with
    /// `capacity_per_shard` resident pipelines each.
    ///
    /// # Errors
    ///
    /// Propagates pipeline construction/training failures.
    ///
    /// # Panics
    ///
    /// Panics if `num_users`, `num_shards` or `capacity_per_shard` is zero,
    /// or if a profile pipeline fails to finish enrollment.
    pub fn build(
        num_users: usize,
        num_shards: usize,
        capacity_per_shard: usize,
        window_secs: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let world = build_world(num_users, window_secs, seed)?;
        let buffers = harvest_enrollment_buffers(&world, seed)?;

        let mut fleet = ShardedFleet::new(
            num_shards,
            Box::new(MemorySnapshotStore::new()),
            capacity_per_shard,
        );
        let mut profile_of = Vec::with_capacity(num_users);
        for u in 0..num_users {
            let profile = u % world.profiles;
            profile_of.push(profile);
            let pipeline = SmarterYou::new(
                world.cfg.clone(),
                world.detector.clone(),
                world.server.clone(),
                seed ^ (u as u64 + 1),
            )?
            .with_response_policy(ResponsePolicy {
                rejects_to_lock: usize::MAX,
            });
            fleet.register(UserId(u), pipeline)?;
        }
        let batch: Vec<(UserId, [Vec<Vec<f64>>; 2])> = profile_of
            .iter()
            .enumerate()
            .map(|(u, &p)| (UserId(u), buffers[p].clone()))
            .collect();
        let enrolled = fleet.enroll_many(batch, &mut StdRng::seed_from_u64(seed ^ 0xBA7C4))?;
        assert_eq!(
            enrolled, num_users,
            "batched enrollment must cover the fleet"
        );

        Ok(ShardFixture {
            fleet,
            feed: world.feed,
            profile_of,
            cursor: 0,
            migrate_next: 0,
        })
    }

    /// Number of registered users.
    pub fn num_users(&self) -> usize {
        self.fleet.len()
    }

    /// Borrows the sharded fleet.
    pub fn fleet(&self) -> &ShardedFleet {
        &self.fleet
    }

    /// Enables (or reconfigures, once the queues are empty) the async
    /// ingestion front door — see
    /// [`ShardedFleet::enable_ingest`].
    pub fn enable_ingest(
        &mut self,
        queue_capacity_per_shard: usize,
        policy: BackpressurePolicy,
    ) -> IngestRouter {
        self.fleet.enable_ingest(queue_capacity_per_shard, policy)
    }

    /// The per-profile authentication window pool — producer threads clone
    /// windows out of this on the fly (cloning per push keeps the bench's
    /// memory bounded by the queue capacity, not the burst size).
    pub fn feed(&self) -> &[Vec<DualDeviceWindow>] {
        &self.feed
    }

    /// The sensor profile backing user `u`.
    pub fn profile_of(&self, u: usize) -> usize {
        self.profile_of[u]
    }

    /// Queues one fresh window for every user **through the ingest
    /// router** instead of the synchronous submit path; returns the number
    /// of windows queued.
    ///
    /// # Panics
    ///
    /// Panics if the router rejects a window — steady-state rows must size
    /// their queues so backpressure never engages.
    pub fn ingest_tick(&mut self, router: &IngestRouter) -> usize {
        for u in 0..self.profile_of.len() {
            let pool = &self.feed[self.profile_of[u]];
            let window = pool[self.cursor % pool.len()].clone();
            router
                .submit(UserId(u), window)
                .expect("steady ingest must not hit backpressure");
        }
        self.cursor += 1;
        self.profile_of.len()
    }

    /// Queues one fresh window for every user on their owning shard.
    pub fn submit_tick(&mut self) -> usize {
        for u in 0..self.profile_of.len() {
            let pool = &self.feed[self.profile_of[u]];
            let window = pool[self.cursor % pool.len()].clone();
            self.fleet.submit(UserId(u), window).expect("registered");
        }
        self.cursor += 1;
        self.profile_of.len()
    }

    /// Force-migrates the next `count` users (round-robin over the fleet)
    /// to their owning shard's neighbour — the rebalancing churn the
    /// `migration_churn` bench row measures. Returns how many migrations
    /// were performed.
    pub fn migrate_block(&mut self, count: usize) -> usize {
        let num_users = self.profile_of.len();
        let num_shards = self.fleet.num_shards();
        for _ in 0..count {
            let id = UserId(self.migrate_next % num_users);
            self.migrate_next += 1;
            let target = (self.fleet.shard_of(id).expect("registered") + 1) % num_shards;
            self.fleet.migrate(id, target).expect("migrate");
        }
        count
    }

    /// Ticks every shard; returns the per-shard reports.
    ///
    /// # Panics
    ///
    /// Panics on pipeline failures (not expected after enrollment).
    pub fn tick(&mut self) -> Vec<TickReport> {
        let reports = self.fleet.tick();
        for report in &reports {
            assert!(
                report.errors().is_empty(),
                "tick failed: {:?}",
                report.errors()
            );
        }
        reports
    }
}
