//! Builds a workload's fleet from a seed: the shared world (population,
//! context detector, anonymized negative pool, per-profile windows), the
//! 4-shard `ShardedFleet` with every user enrolled, and the window feed.
//!
//! Distinct sensor profiles are capped at `MAX_PROFILES`; users cycle
//! through them, so window-level set-up work stays linear in profiles while
//! every user still owns a full pipeline, model set and RNG stream.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smarteryou_core::engine::{BackpressurePolicy, IngestRouter, ShardedFleet, TrainingService};
use smarteryou_core::{
    ContextDetector, ContextDetectorConfig, DeviceSet, FeatureExtractor, MemorySnapshotStore,
    ResponsePolicy, RetrainMode, RetrainPolicy, SmarterYou, SnapshotStore, SystemConfig,
    TrainingHandle, TrainingServer,
};
use smarteryou_sensors::{
    DualDeviceWindow, Population, RawContext, TraceGenerator, UserId, WindowSpec,
};

use crate::trace::{Recorder, TimedStore, TimedTrainer};
use crate::workload::{Retrain, Workload};

/// Cap on distinct sensor profiles.
const MAX_PROFILES: usize = 32;
/// Shards in every workload's fleet.
pub const SHARDS: usize = 4;
/// The paper's deployed window: 6 s at 50 Hz, 300 samples.
const WINDOW_SECS: f64 = 6.0;
/// One window in this many per user comes from another user's profile.
const IMPOSTOR_EVERY: u64 = 10;

/// Set-up material shared by every user of a fleet.
pub struct World {
    pub cfg: SystemConfig,
    pub detector: ContextDetector,
    pub server: Arc<Mutex<TrainingServer>>,
    /// Per-profile enrollment feature buffers, harvested once per profile.
    pub buffers: Vec<[Vec<Vec<f64>>; 2]>,
    /// Per-profile authentication windows (motion streams only, as the
    /// ingest tier ships them).
    pub feed: Vec<Vec<DualDeviceWindow>>,
}

/// A seed-derived 64-bit mix (SplitMix64 finalizer).
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds the world for `users` users from `seed`.
pub fn build_world(users: usize, seed: u64) -> Result<World, String> {
    let profiles = users.clamp(2, MAX_PROFILES);
    let population = Population::generate(profiles + 4, seed);
    let cfg = SystemConfig::paper_default()
        .with_window_secs(WINDOW_SECS)
        .with_data_size(40);
    let spec = WindowSpec::from_seconds(cfg.window_secs(), cfg.sample_rate());
    let extractor = FeatureExtractor::paper_default(cfg.sample_rate());

    // The anonymized negative pool and the user-agnostic context detector
    // come from four reserve users who are not in the fleet.
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
    let detector = ContextDetector::train(
        extractor.clone(),
        &ctx_features,
        &ctx_labels,
        ContextDetectorConfig {
            num_trees: 16,
            max_depth: 8,
        },
        &mut StdRng::seed_from_u64(seed ^ 0xF00D),
    )
    .map_err(|e| format!("context detector: {e}"))?;
    let server = Arc::new(Mutex::new(server));

    let mut buffers = Vec::with_capacity(profiles);
    let mut feed = Vec::with_capacity(profiles);
    for (p, user) in population.users()[..profiles].iter().enumerate() {
        let mut gen = TraceGenerator::new(user.clone(), seed ^ ((p as u64) << 3));
        // Enrollment buffers per profile, filed under the true context: a
        // detector-routed enrollment can leave a buffer short for some
        // seeds, and every seed must set up. Every user of the profile
        // enrolls on these through the batched shared-workspace path.
        // Two windows per session, so the models see several postures.
        let mut profile_buffers: [Vec<Vec<f64>>; 2] = Default::default();
        for _ in 0..cfg.data_size() / 4 {
            for raw in [RawContext::SittingStanding, RawContext::MovingAround] {
                for w in gen.generate_windows(raw, spec, 2) {
                    profile_buffers[raw.coarse().index()]
                        .push(extractor.auth_features(&w, cfg.device_set()));
                }
            }
        }
        buffers.push(profile_buffers);

        // The authentication feed: 32 windows from sessions unseen in
        // enrollment.
        let mut windows = Vec::new();
        for _ in 0..4 {
            for raw in [RawContext::SittingStanding, RawContext::MovingAround] {
                windows.extend(gen.generate_windows(raw, spec, 4));
            }
        }
        for w in &mut windows {
            w.retain_motion();
        }
        feed.push(windows);
    }
    Ok(World {
        cfg,
        detector,
        server,
        buffers,
        feed,
    })
}

/// Which profile and pool slot a user's `k`-th window comes from, and
/// whether it is an impostor window (another profile's behaviour).
pub fn window_source(world: &World, seed: u64, user: usize, k: u64) -> (usize, usize, bool) {
    let profiles = world.feed.len();
    let own = user % profiles;
    let h = mix(seed ^ mix(user as u64) ^ k.wrapping_mul(0xA24B_AED4_963E_E407));
    let phase = mix(seed ^ 0x1A7E ^ user as u64) % IMPOSTOR_EVERY;
    let impostor = (k + phase).is_multiple_of(IMPOSTOR_EVERY);
    let profile = if impostor {
        (own + 1 + (h >> 32) as usize % (profiles - 1)) % profiles
    } else {
        own
    };
    (profile, h as usize % world.feed[profile].len(), impostor)
}

/// The bench-side instrumentation handed to a traced fleet.
#[derive(Default)]
pub struct Probes {
    pub store: Arc<Recorder>,
    pub trainer: Arc<Recorder>,
}

/// A built fleet plus what the run loop needs to drive it.
pub struct Fleet {
    pub fleet: ShardedFleet,
    pub router: IngestRouter,
    /// The handle every pipeline trains through (timed when traced).
    pub handle: Arc<dyn TrainingHandle>,
}

/// Builds and enrolls `workload`'s fleet over `world`; `probes` wraps the
/// snapshot store and the training handle in timing decorators.
pub fn build_fleet(
    workload: &Workload,
    world: &World,
    seed: u64,
    probes: Option<&Probes>,
) -> Result<Fleet, String> {
    let mut store: Box<dyn SnapshotStore> = Box::new(MemorySnapshotStore::new());
    let mut handle: Arc<dyn TrainingHandle> = world.server.clone();
    if let Some(probes) = probes {
        store = Box::new(TimedStore::new(store, probes.store.clone()));
        handle = Arc::new(TimedTrainer::new(
            world.server.clone(),
            probes.trainer.clone(),
        ));
    }
    let mut fleet = ShardedFleet::new(SHARDS, store, workload.capacity_per_shard);
    let policy = match workload.retrain {
        // The tracker fires only when the rolling median lies in
        // [0, threshold): a zero threshold never fires.
        Retrain::Never => RetrainPolicy {
            threshold: 0.0,
            ..RetrainPolicy::default()
        },
        Retrain::Eager { period } => RetrainPolicy {
            threshold: 1e9,
            period,
            ..RetrainPolicy::default()
        },
    };
    let profiles = world.feed.len();
    for u in 0..workload.users {
        let mut pipeline = SmarterYou::new(
            world.cfg.clone(),
            world.detector.clone(),
            handle.clone(),
            seed ^ (u as u64 + 1),
        )
        .map_err(|e| format!("user {u}: {e}"))?
        // Fleet monitoring keeps scoring after rejections.
        .with_response_policy(ResponsePolicy {
            rejects_to_lock: usize::MAX,
        })
        .with_retrain_policy(policy);
        if workload.deferred_training() {
            pipeline = pipeline.with_retrain_mode(RetrainMode::Deferred);
        }
        fleet
            .register(UserId(u), pipeline)
            .map_err(|e| format!("register user {u}: {e}"))?;
    }
    let batch = (0..workload.users)
        .map(|u| (UserId(u), world.buffers[u % profiles].clone()))
        .collect();
    let enrolled = fleet
        .enroll_many(batch, &mut StdRng::seed_from_u64(seed ^ 0xBA7C4))
        .map_err(|e| format!("enrollment: {e}"))?;
    if enrolled != workload.users {
        return Err(format!("enrolled {enrolled} of {} users", workload.users));
    }
    if workload.deferred_training() {
        fleet.enable_training(TrainingService::synchronous);
    }
    // Reject queues sized at twice the largest possible per-shard tick
    // load: a rejection is a failure, never a design point.
    let router = fleet.enable_ingest(2 * workload.block.max(1), BackpressurePolicy::Reject);
    Ok(Fleet {
        fleet,
        router,
        handle,
    })
}
