//! Parity suite for batched enrollment: `TrainingServer::enroll_many`
//! (one pinned negative epoch + shared Gram workspace for the whole
//! batch) runs the retrain closed form cold, so every authenticator is
//! bit-identical to `train_authenticator_epoch_shared` over the same
//! buffers, the batch's epoch and empty tails. Its decisions also agree
//! with the stack-and-fit per-user path — `train_authenticator_epoch`
//! seeded with the same pinned epoch — to tight epsilon on the paper's
//! deployed 300-sample window (6 s × 50 Hz). The closed form reorders
//! float summations, so that pin is epsilon parity, not bit parity (the
//! existing `batch_parity`/`persist_parity` suites keep the per-window
//! paths bit-identical).
//!
//! Also covers the pipeline/fleet plumbing: `SmarterYou::enroll_with`
//! completes the enrollment phase in one step, records the
//! `EnrollmentComplete` event, adopts the workspace epoch, and serves its
//! fits off the shared block (observable as fit-cache hits); enrollment
//! never persists a positive-tail factor in the snapshot;
//! `FleetEngine::enroll_many` batches a whole fleet against one workspace,
//! building it exactly once per call whatever the batch size (and
//! `ShardedFleet::enroll_many` at most once per non-empty shard) — the
//! property that keeps batched enrollment near-linear in fleet size.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{build_world, World, WorldSeeds};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use smarteryou::core::engine::ShardedFleet;
use smarteryou::core::persist::MemorySnapshotStore;
use smarteryou::core::{
    Authenticator, CoreError, EnrollmentWorkspace, FleetEngine, NegativeEpoch, ResponsePolicy,
    RetrainWorkspaceCache, SmarterYou, SystemConfig, SystemEvent, SystemPhase, TrainingHandle,
};
use smarteryou::ml::{KrrFitCache, KrrTailState};
use smarteryou::sensors::{UsageContext, UserId, UserProfile};

const SEEDS: WorldSeeds = WorldSeeds {
    population: 0xE27011,
    pool_gen: 0xE27012,
    detector_rng: 0xE27013,
};

/// The paper's deployed window: 6 s at 50 Hz = 300 samples.
const WINDOW_SECS: f64 = 6.0;

/// Decisions between the shared-workspace and sequential fits may differ
/// only by float summation order and the closed-form moment algebra
/// (`G − n·μμᵀ` vs a two-pass variance on raw sensor features whose
/// scales span orders of magnitude). Observed divergence is ~1e-9;
/// pinned at 1e-6 — six orders below the accept threshold's scale.
const EPS: f64 = 1e-6;

/// Harvests a user's per-context enrollment buffers by running a scratch
/// pipeline through the per-window enrollment path.
fn enroll_buffers(world: &World, user: &UserProfile, seed: u64) -> [Vec<Vec<f64>>; 2] {
    let mut pipeline = world.pipeline_with(
        seed,
        ResponsePolicy {
            rejects_to_lock: usize::MAX,
        },
        None,
    );
    let stream = world.window_stream(user, seed, 0);
    for _pass in 0..9 {
        if pipeline.authenticator().is_some() {
            break;
        }
        for w in &stream {
            pipeline.process_window(w).expect("window processes");
        }
    }
    assert!(
        pipeline.authenticator().is_some(),
        "scratch pipeline failed to enroll"
    );
    pipeline.enrollment_buffers().clone()
}

#[test]
fn enroll_many_matches_sequential_epoch_training() {
    let world = build_world(3, WINDOW_SECS, SEEDS);
    let users: Vec<[Vec<Vec<f64>>; 2]> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, profile)| enroll_buffers(&world, profile, 0xA11CE ^ (u as u64 + 1)))
        .collect();

    let (epoch, batched) = world
        .server
        .lock()
        .enroll_many(&users, &world.cfg, &mut StdRng::seed_from_u64(0xBEEF))
        .expect("batched enrollment");
    assert_eq!(batched.len(), users.len());

    // Probe set: genuine rows from every user (both contexts), so the
    // comparison covers accept- and reject-side confidences.
    let probes: Vec<Vec<f64>> = users
        .iter()
        .flat_map(|buffers| buffers.iter().flat_map(|slot| slot.iter().take(3).cloned()))
        .collect();

    for (user, batch_auth) in users.iter().zip(&batched) {
        // The frozen epoch fit consumes no randomness, so seeding the
        // sequential path with the batch's pinned epoch must reproduce
        // its training set exactly.
        let mut pinned = Some(epoch.clone());
        let mut caches: [KrrFitCache; 2] = Default::default();
        let sequential = world
            .server
            .lock()
            .train_authenticator_epoch(
                user,
                &world.cfg,
                &mut StdRng::seed_from_u64(0xD00D),
                &mut pinned,
                &mut caches,
            )
            .expect("sequential training");
        assert_eq!(
            pinned.as_ref().map(|e| e.pool_version()),
            Some(epoch.pool_version()),
            "sequential path must reuse the batch epoch, not resample"
        );
        for ctx in UsageContext::ALL {
            for probe in &probes {
                let a = batch_auth.authenticate(ctx, probe).confidence;
                let b = sequential.authenticate(ctx, probe).confidence;
                assert!(
                    (a - b).abs() < EPS,
                    "{ctx:?}: batched confidence {a} vs sequential {b}"
                );
            }
        }
    }
}

/// Enrollment is a cold retrain: every `enroll_many` authenticator equals
/// `train_authenticator_epoch_shared` over the same buffers, the batch's
/// pinned epoch, empty tails and a fresh workspace cache — one closed
/// form for both, with no epsilon between them.
#[test]
fn enroll_many_equals_a_cold_retrain_bit_for_bit() {
    let world = build_world(3, WINDOW_SECS, SEEDS);
    let users: Vec<[Vec<Vec<f64>>; 2]> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, profile)| enroll_buffers(&world, profile, 0xA11CE ^ (u as u64 + 1)))
        .collect();
    let server = world.server.lock();
    let (epoch, batched) = server
        .enroll_many(&users, &world.cfg, &mut StdRng::seed_from_u64(0xBEEF))
        .expect("batched enrollment");

    for (user, batch_auth) in users.iter().zip(&batched) {
        let mut pinned = Some(epoch.clone());
        let mut caches: [KrrFitCache; 2] = Default::default();
        let mut tails = [None, None];
        let retrained = server
            .train_authenticator_epoch_shared(
                user,
                &world.cfg,
                &mut StdRng::seed_from_u64(0xD00D),
                &mut pinned,
                &mut caches,
                &mut tails,
                &RetrainWorkspaceCache::new(),
            )
            .expect("cold retrain");
        assert_eq!(
            pinned.as_ref(),
            Some(&epoch),
            "retrain must reuse the epoch"
        );
        assert_eq!(batch_auth, &retrained, "enrollment must be a cold retrain");
        // `==` on floats forgives the sign of zero; the JSON export does not.
        assert_eq!(
            serde_json::to_string(batch_auth).expect("serializes"),
            serde_json::to_string(&retrained).expect("serializes"),
        );
    }
}

/// The `retrain_tails` entry of `pipeline`'s snapshot, read through the
/// JSON export.
fn persisted_tails(pipeline: &SmarterYou) -> Value {
    let tree: Value =
        serde_json::from_str(&pipeline.snapshot().to_json()).expect("snapshot JSON parses");
    tree.get("retrain_tails").cloned().unwrap_or(Value::Null)
}

/// Enrollment keeps no positive-tail factor: a pipeline enrolled through
/// `enroll_with` and one enrolled through `FleetEngine::enroll_many` both
/// snapshot with `retrain_tails` `[null, null]`. A user who never retrained
/// carries no factor in its snapshot, and its first retrain starts cold.
#[test]
fn enrollment_never_persists_a_tail() {
    let world = build_world(1, WINDOW_SECS, SEEDS);
    let buffers = enroll_buffers(&world, &world.users[0], 0x5EED);
    let policy = ResponsePolicy {
        rejects_to_lock: usize::MAX,
    };
    let no_tails = Value::Array(vec![Value::Null, Value::Null]);

    let ws = world
        .server
        .enrollment_workspace(&world.cfg, &mut StdRng::seed_from_u64(0xFACE))
        .expect("workspace builds");
    let mut pipeline = world.pipeline_with(0x0DD1, policy, None);
    pipeline
        .enroll_with(&ws, buffers.clone())
        .expect("batched enrollment");
    assert_eq!(persisted_tails(&pipeline), no_tails, "enroll_with");

    let mut engine = FleetEngine::new();
    engine
        .register(UserId(0), world.pipeline_with(0xF1EE7, policy, None))
        .expect("registers");
    engine
        .enroll_many(
            vec![(UserId(0), buffers)],
            &mut StdRng::seed_from_u64(0xCAB),
        )
        .expect("fleet enrollment");
    let enrolled = engine.pipeline(UserId(0)).expect("resident");
    assert!(
        enrolled.authenticator().is_some(),
        "fleet user not enrolled"
    );
    assert_eq!(
        persisted_tails(enrolled),
        no_tails,
        "FleetEngine::enroll_many"
    );
}

#[test]
fn enroll_with_completes_enrollment_and_hits_the_shared_block() {
    let world = build_world(1, WINDOW_SECS, SEEDS);
    let buffers = enroll_buffers(&world, &world.users[0], 0x5EED);

    let ws = world
        .server
        .enrollment_workspace(&world.cfg, &mut StdRng::seed_from_u64(0xFACE))
        .expect("workspace builds");

    let mut pipeline = world.pipeline_with(
        0x0DD1,
        ResponsePolicy {
            rejects_to_lock: usize::MAX,
        },
        None,
    );
    assert_eq!(pipeline.phase(), SystemPhase::Enrollment);
    assert_eq!(pipeline.fit_cache_stats(), (0, 0));

    pipeline
        .enroll_with(&ws, buffers.clone())
        .expect("batched enrollment");
    assert_eq!(pipeline.phase(), SystemPhase::ContinuousAuth);
    assert!(matches!(
        pipeline.events().last(),
        Some(SystemEvent::EnrollmentComplete { .. })
    ));
    // The production config is linear/primal: both per-context fits must
    // come off the shared negative block, never the sequential fallback.
    let (hits, misses) = pipeline.fit_cache_stats();
    assert!(hits >= 2, "expected ≥2 shared-block hits, saw {hits}");
    assert_eq!(misses, 0, "no fit may fall back to a full factorisation");
    assert_eq!(pipeline.enrollment_buffers(), &buffers);

    // Re-enrolling an enrolled pipeline is a typed error, not a retrain.
    assert!(matches!(
        pipeline.enroll_with(&ws, buffers),
        Err(CoreError::InvalidConfig(_))
    ));

    // The installed model matches the sequential frozen fit against the
    // same pinned epoch (the server-level parity is pinned exhaustively
    // by `enroll_many_matches_sequential_epoch_training`; this spot-check
    // proves the pipeline installed *that* model, wired to its adopted
    // epoch).
    let mut pinned = Some(ws.epoch().clone());
    let mut caches: [KrrFitCache; 2] = Default::default();
    let sequential = world
        .server
        .lock()
        .train_authenticator_epoch(
            pipeline.enrollment_buffers(),
            &world.cfg,
            &mut StdRng::seed_from_u64(0xD00D),
            &mut pinned,
            &mut caches,
        )
        .expect("sequential training");
    let installed = pipeline.authenticator().expect("enrolled");
    for ctx in UsageContext::ALL {
        for probe in pipeline.enrollment_buffers()[ctx.index()].iter().take(4) {
            let a = installed.authenticate(ctx, probe).confidence;
            let b = sequential.authenticate(ctx, probe).confidence;
            assert!((a - b).abs() < EPS, "{ctx:?}: installed {a} vs frozen {b}");
        }
    }

    // And the enrolled pipeline scores fresh windows end-to-end.
    let stream = world.window_stream(&world.users[0], 0x7E57, 4);
    for w in &stream[stream.len() - 4..] {
        let outcome = pipeline.process_window(w).expect("scores after enrollment");
        assert!(
            matches!(outcome, smarteryou::core::ProcessOutcome::Decision { .. }),
            "batched-enrolled pipeline must authenticate, got {outcome:?}"
        );
    }
}

#[test]
fn fleet_engine_enroll_many_batches_the_whole_fleet() {
    let world = build_world(3, WINDOW_SECS, SEEDS);
    let mut engine = FleetEngine::new();
    for u in 0..world.users.len() {
        let pipeline = world.pipeline_with(
            0xF1EE7 ^ (u as u64 + 1),
            ResponsePolicy {
                rejects_to_lock: usize::MAX,
            },
            None,
        );
        engine.register(UserId(u), pipeline).expect("registers");
    }
    let batch: Vec<(UserId, [Vec<Vec<f64>>; 2])> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, profile)| {
            (
                UserId(u),
                enroll_buffers(&world, profile, 0xA11CE ^ (u as u64 + 1)),
            )
        })
        .collect();

    // An unknown user anywhere in the batch fails up front — nobody
    // enrolls.
    let mut poisoned = batch.clone();
    poisoned.push((UserId(99), poisoned[0].1.clone()));
    assert!(matches!(
        engine.enroll_many(poisoned, &mut StdRng::seed_from_u64(1)),
        Err(CoreError::UnknownUser(UserId(99)))
    ));
    for u in 0..world.users.len() {
        assert!(engine
            .pipeline(UserId(u))
            .expect("registered")
            .authenticator()
            .is_none());
    }

    let enrolled = engine
        .enroll_many(batch, &mut StdRng::seed_from_u64(0xCAB))
        .expect("batched enrollment");
    assert_eq!(enrolled, world.users.len());
    for u in 0..world.users.len() {
        let pipeline = engine.pipeline(UserId(u)).expect("registered");
        assert!(pipeline.authenticator().is_some(), "user {u} not enrolled");
        let (hits, misses) = pipeline.fit_cache_stats();
        assert!(
            hits >= 2,
            "user {u}: expected shared-block hits, saw {hits}"
        );
        assert_eq!(misses, 0, "user {u}: unexpected fallback fit");
    }
}

/// A [`TrainingHandle`] that forwards every call to the world's server and
/// counts workspace builds and per-user training calls.
#[derive(Debug)]
struct CountingHandle {
    inner: Arc<dyn TrainingHandle>,
    workspaces: AtomicUsize,
    trainings: AtomicUsize,
}

impl CountingHandle {
    fn new(inner: Arc<dyn TrainingHandle>) -> Self {
        CountingHandle {
            inner,
            workspaces: AtomicUsize::new(0),
            trainings: AtomicUsize::new(0),
        }
    }

    fn workspaces(&self) -> usize {
        self.workspaces.load(Ordering::SeqCst)
    }

    fn trainings(&self) -> usize {
        self.trainings.load(Ordering::SeqCst)
    }
}

impl TrainingHandle for CountingHandle {
    fn train_authenticator(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<Authenticator, CoreError> {
        self.trainings.fetch_add(1, Ordering::SeqCst);
        self.inner.train_authenticator(positives, cfg, rng)
    }

    fn train_authenticator_epoch(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError> {
        self.trainings.fetch_add(1, Ordering::SeqCst);
        self.inner
            .train_authenticator_epoch(positives, cfg, rng, epoch, caches)
    }

    fn train_authenticator_epoch_shared(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
        tails: &mut [Option<KrrTailState>; 2],
        ws_cache: &RetrainWorkspaceCache,
    ) -> Result<Authenticator, CoreError> {
        self.trainings.fetch_add(1, Ordering::SeqCst);
        self.inner
            .train_authenticator_epoch_shared(positives, cfg, rng, epoch, caches, tails, ws_cache)
    }

    fn enrollment_workspace(
        &self,
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<EnrollmentWorkspace, CoreError> {
        self.workspaces.fetch_add(1, Ordering::SeqCst);
        self.inner.enrollment_workspace(cfg, rng)
    }
}

/// A fleet-monitoring pipeline of `world` that trains through `handle`.
fn counted_pipeline(world: &World, handle: &Arc<CountingHandle>, u: usize) -> SmarterYou {
    SmarterYou::new(
        world.cfg.clone(),
        world.detector.clone(),
        handle.clone(),
        0xC0DE ^ (u as u64 + 1),
    )
    .expect("valid config")
    .with_response_policy(ResponsePolicy {
        rejects_to_lock: usize::MAX,
    })
}

/// Batched enrollment must reuse the shared negative workspace: one
/// `FleetEngine::enroll_many` call builds it exactly once, for 3 users as
/// for 30 (the harvested buffers fanned out over the fleet), and never
/// falls back to per-user training. A per-user workspace or refit would
/// make enrollment cost superlinear in fleet size.
#[test]
fn enroll_many_builds_one_workspace_per_batch() {
    let world = build_world(3, WINDOW_SECS, SEEDS);
    let buffers: Vec<[Vec<Vec<f64>>; 2]> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, profile)| enroll_buffers(&world, profile, 0xA11CE ^ (u as u64 + 1)))
        .collect();
    let fan_out = |users: usize| -> Vec<(UserId, [Vec<Vec<f64>>; 2])> {
        (0..users)
            .map(|u| (UserId(u), buffers[u % buffers.len()].clone()))
            .collect()
    };

    for users in [3, 30] {
        let handle = Arc::new(CountingHandle::new(world.server.clone()));
        let mut engine = FleetEngine::new();
        for u in 0..users {
            engine
                .register(UserId(u), counted_pipeline(&world, &handle, u))
                .expect("registers");
        }
        let enrolled = engine
            .enroll_many(fan_out(users), &mut StdRng::seed_from_u64(0xCAB))
            .expect("batched enrollment");
        assert_eq!(enrolled, users);
        assert_eq!(
            handle.workspaces(),
            1,
            "{users} users: one enroll_many call must build one workspace"
        );
        assert_eq!(handle.trainings(), 0, "{users} users: per-user training");
        for u in 0..users {
            let pipeline = engine.pipeline(UserId(u)).expect("resident");
            assert!(pipeline.authenticator().is_some(), "user {u} not enrolled");
            assert_eq!(pipeline.fit_cache_stats().1, 0, "user {u}: fallback fit");
        }
    }

    // Sharded: one enroll_many per shard that owns a batch member, so at
    // most one workspace per non-empty shard.
    let users = 30;
    let handle = Arc::new(CountingHandle::new(world.server.clone()));
    let mut fleet = ShardedFleet::new(4, Box::new(MemorySnapshotStore::new()), users);
    let mut non_empty = std::collections::BTreeSet::new();
    for u in 0..users {
        non_empty.insert(
            fleet
                .register(UserId(u), counted_pipeline(&world, &handle, u))
                .expect("registers"),
        );
    }
    let enrolled = fleet
        .enroll_many(fan_out(users), &mut StdRng::seed_from_u64(0xCAB))
        .expect("sharded batched enrollment");
    assert_eq!(enrolled, users);
    assert!(
        handle.workspaces() <= non_empty.len(),
        "{} workspaces for {} non-empty shards",
        handle.workspaces(),
        non_empty.len()
    );
    assert_eq!(handle.trainings(), 0, "sharded: per-user training");
    for u in 0..users {
        let shard = fleet.shard_of(UserId(u)).expect("owned");
        let pipeline = fleet.shard(shard).pipeline(UserId(u)).expect("resident");
        assert!(pipeline.authenticator().is_some(), "user {u} not enrolled");
        assert_eq!(pipeline.fit_cache_stats().1, 0, "user {u}: fallback fit");
    }
}
