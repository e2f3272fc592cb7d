//! Evict/restore parity for the fleet engine: an engine that aggressively
//! evicts idle pipelines to a snapshot store and rehydrates them on submit
//! must produce **bit-identical** decisions, scores, and retrain events to
//! an eviction-disabled engine fed the same windows — the persistence
//! counterpart of `tests/batch_parity.rs`. Also pins the typed error split
//! between "unknown user" and "known user whose snapshot failed to load".

mod common;

use common::{assert_outcomes_identical, build_world as build_common_world, World, WorldSeeds};
use smarteryou::core::engine::FleetEngine;
use smarteryou::core::persist::{FileSnapshotStore, MemorySnapshotStore, PersistError};
use smarteryou::core::{CoreError, ProcessOutcome, ResponsePolicy, RetrainPolicy, SmarterYou};
use smarteryou::sensors::{DualDeviceWindow, UserId};

fn build_world(num_users: usize, window_secs: f64) -> World {
    // Seeds pin this suite's window streams independently of batch_parity's.
    build_common_world(
        num_users,
        window_secs,
        WorldSeeds {
            population: 55_001,
            pool_gen: 3,
            detector_rng: 9,
        },
    )
}

/// This suite's pipeline: keeps scoring after rejections and retrains
/// eagerly (every `retrain_period` accepted windows), so parity runs
/// exercise the retrain path — including the RNG draws whose state must
/// survive eviction.
fn pipeline(world: &World, seed: u64, retrain_period: usize) -> SmarterYou {
    world.pipeline_with(
        seed,
        ResponsePolicy {
            rejects_to_lock: usize::MAX,
        },
        Some(RetrainPolicy {
            threshold: 1e9,
            period: retrain_period,
            max_reject_fraction: 1.0,
        }),
    )
}

/// Runs the same interleaved tick schedule through a reference engine
/// (no eviction) and a churn engine (aggressive eviction), asserting
/// bit-identical outcomes per user plus real eviction/rehydration traffic.
fn run_parity(world: &World, capacity: usize, auth_windows: usize, retrain_period: usize) {
    let num_users = world.users.len();
    let streams: Vec<Vec<DualDeviceWindow>> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, user)| world.window_stream(user, 7_000 + u as u64, auth_windows))
        .collect();

    let mut reference = FleetEngine::new();
    let mut churn =
        FleetEngine::new().with_eviction(Box::new(MemorySnapshotStore::new()), capacity);
    for u in 0..num_users {
        reference
            .register(UserId(u), pipeline(world, u as u64 + 1, retrain_period))
            .expect("register");
        churn
            .register(UserId(u), pipeline(world, u as u64 + 1, retrain_period))
            .expect("register");
    }

    let mut cursors = vec![0usize; num_users];
    let mut ref_outcomes: Vec<Vec<ProcessOutcome>> = vec![Vec::new(); num_users];
    let mut churn_outcomes: Vec<Vec<ProcessOutcome>> = vec![Vec::new(); num_users];
    let mut round = 0usize;
    let (mut total_evictions, mut total_rehydrations, mut total_retrains) =
        (0usize, 0usize, 0usize);
    while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
        // Vary both the tick size and which users participate, so some
        // pipelines sit idle for several ticks and age out of the LRU.
        let per_user = round % 3 + 1;
        let mut batch = Vec::new();
        for (u, stream) in streams.iter().enumerate() {
            if !round.is_multiple_of(u % 3 + 1) {
                continue; // user u skips this tick
            }
            for _ in 0..per_user {
                if cursors[u] < stream.len() {
                    batch.push((UserId(u), stream[cursors[u]].clone()));
                    cursors[u] += 1;
                }
            }
        }
        for (id, w) in &batch {
            reference.submit(*id, w.clone()).expect("reference submit");
            churn.submit(*id, w.clone()).expect("churn submit");
        }
        let ref_report = reference.tick();
        let churn_report = churn.tick();
        assert!(ref_report.errors().is_empty(), "{:?}", ref_report.errors());
        assert!(
            churn_report.errors().is_empty(),
            "{:?}",
            churn_report.errors()
        );
        assert_eq!(ref_report.evictions(), 0);
        assert!(
            churn_report.resident_pipelines() <= capacity,
            "eviction pass left {} resident (capacity {capacity})",
            churn_report.resident_pipelines()
        );
        total_evictions += churn_report.evictions();
        total_rehydrations += churn_report.rehydrations();
        total_retrains += churn_report.retrains();
        assert_eq!(churn_report.retrains(), ref_report.retrains());
        // Inline-mode pipelines never touch the training service: the
        // deferred-retrain counters must stay exactly zero through churn.
        for report in [&ref_report, &churn_report] {
            assert_eq!(report.retrains_started(), 0);
            assert_eq!(report.retrains_completed(), 0);
            assert_eq!(report.retrains_canceled(), 0);
            assert_eq!(report.retrains_in_flight(), 0);
        }
        for user in ref_report.users() {
            ref_outcomes[user.user.0].extend(user.outcomes.iter().cloned());
        }
        for user in churn_report.users() {
            churn_outcomes[user.user.0].extend(user.outcomes.iter().cloned());
        }
        round += 1;
    }

    assert!(
        total_evictions > 0 && total_rehydrations > 0,
        "parity run produced no churn (evictions {total_evictions}, \
         rehydrations {total_rehydrations})"
    );
    assert!(
        total_retrains > 0,
        "parity run never exercised the retrain path"
    );
    let (evictions, rehydrations) = churn.eviction_totals();
    assert_eq!(evictions as usize, total_evictions);
    assert_eq!(rehydrations as usize, total_rehydrations);
    for u in 0..num_users {
        assert_outcomes_identical(&ref_outcomes[u], &churn_outcomes[u], &format!("user {u}"));
    }
}

#[test]
fn evicting_engine_matches_eviction_disabled_engine() {
    // Many users, capacity 2: every tick evicts most of the fleet, so a
    // typical pipeline round-trips through the store several times.
    let world = build_world(6, 2.0);
    run_parity(&world, 2, 20, 6);
}

#[test]
fn eviction_parity_holds_at_the_paper_window() {
    // The deployed 6 s × 50 Hz = 300-sample window: parity must survive the
    // real-FFT plan being dropped and rebuilt on rehydration.
    let world = build_world(2, 6.0);
    run_parity(&world, 1, 12, 5);
}

#[test]
fn file_backed_store_round_trips_pipelines() {
    let world = build_world(2, 2.0);
    static UNIQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "smarteryou-parity-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let store = FileSnapshotStore::new(&dir).expect("store dir");
    let mut engine = FleetEngine::new().with_eviction(Box::new(store), 1);
    for u in 0..2usize {
        engine
            .register(UserId(u), pipeline(&world, u as u64 + 1, 6))
            .expect("register");
    }
    // Drive both users through enrollment into auth, forcing churn through
    // the on-disk store every tick.
    let streams: Vec<Vec<DualDeviceWindow>> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, user)| world.window_stream(user, 31 + u as u64, 8))
        .collect();
    for chunk in 0..15 {
        for (u, stream) in streams.iter().enumerate() {
            let lo = (chunk * 4).min(stream.len());
            let hi = ((chunk + 1) * 4).min(stream.len());
            engine
                .submit_many(UserId(u), stream[lo..hi].iter().cloned())
                .expect("submit");
        }
        let report = engine.tick();
        assert!(report.errors().is_empty(), "{:?}", report.errors());
        assert!(report.resident_pipelines() <= 1);
    }
    let (evictions, rehydrations) = engine.eviction_totals();
    assert!(evictions > 0 && rehydrations > 0);
    // Both users finished enrollment even though at most one was ever
    // resident at a time.
    for u in 0..2usize {
        engine.rehydrate(UserId(u)).expect("rehydrate");
        assert!(engine
            .pipeline(UserId(u))
            .expect("resident")
            .authenticator()
            .is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[should_panic(expected = "rehydrate them first")]
fn replacing_the_store_with_evicted_users_is_rejected() {
    // Swapping in a new snapshot store while users are parked in the old
    // one would strand their trained state — the engine must refuse.
    let world = build_world(2, 2.0);
    let mut engine = FleetEngine::new().with_eviction(Box::new(MemorySnapshotStore::new()), 1);
    for u in 0..2usize {
        engine
            .register(UserId(u), pipeline(&world, u as u64 + 1, 6))
            .expect("register");
    }
    let window = world.window_stream(&world.users[0], 13, 0)[0].clone();
    engine.submit(UserId(1), window).expect("submit");
    let report = engine.tick();
    assert_eq!(report.evictions(), 1);
    assert!(report.eviction_errors().is_empty());
    engine.enable_eviction(Box::new(MemorySnapshotStore::new()), 8);
}

#[test]
fn unknown_user_and_failed_rehydration_are_distinct_errors() {
    let world = build_world(1, 2.0);
    let mut engine = FleetEngine::new().with_eviction(Box::new(MemorySnapshotStore::new()), 1);
    engine
        .register(UserId(0), pipeline(&world, 1, 6))
        .expect("register");
    let window = world.window_stream(&world.users[0], 77, 0)[0].clone();

    // Unregistered user: typed UnknownUser, from every submission path.
    assert_eq!(
        engine.submit(UserId(9), window.clone()),
        Err(CoreError::UnknownUser(UserId(9)))
    );
    assert_eq!(
        engine
            .score_ticked(vec![(UserId(9), window.clone())])
            .unwrap_err(),
        CoreError::UnknownUser(UserId(9))
    );

    // Registering a second user and ticking evicts the idle one (capacity
    // 1). Purging its snapshot makes the next submit a *persistence*
    // failure — a known user whose state is gone, not an unknown user.
    engine
        .register(UserId(1), pipeline(&world, 2, 6))
        .expect("register");
    engine.submit(UserId(1), window.clone()).expect("submit");
    let report = engine.tick();
    assert_eq!(report.evictions(), 1);
    assert_eq!(engine.is_resident(UserId(0)), Some(false));
    engine
        .snapshot_store_mut()
        .expect("eviction enabled")
        .remove(UserId(0))
        .expect("purge");
    assert_eq!(
        engine.submit(UserId(0), window),
        Err(CoreError::Persist(PersistError::MissingSnapshot(UserId(0))))
    );
}
