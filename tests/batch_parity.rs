//! Parity tests for the batched scoring paths: `SmarterYou::process_batch`
//! and the `FleetEngine` must produce **bit-identical** decisions to the
//! sequential `process_window` loop on the same seeded population, and the
//! grouped scorer behind both must match the scalar
//! `Authenticator::authenticate` on trained models. This is the contract
//! that lets the fleet engine replace the one-window-at-a-time hot path
//! without changing any authentication outcome.

mod common;

use common::{assert_outcomes_identical, build_world as build_common_world, World, WorldSeeds};
use smarteryou::core::engine::FleetEngine;
use smarteryou::core::{ProcessOutcome, ResponsePolicy, SmarterYou};
use smarteryou::sensors::{DualDeviceWindow, UsageContext, UserId};

fn build_world(num_users: usize) -> World {
    build_world_with_window(num_users, 2.0)
}

fn build_world_with_window(num_users: usize, window_secs: f64) -> World {
    // Seeds pin this suite's historical window streams and decisions.
    build_common_world(
        num_users,
        window_secs,
        WorldSeeds {
            population: 77_001,
            pool_gen: 7,
            detector_rng: 5,
        },
    )
}

/// This suite's pipeline: keep scoring after rejections so long
/// impostor-free runs and mixed batches stay comparable window for window.
fn pipeline(world: &World, seed: u64) -> SmarterYou {
    world.pipeline_with(seed, ResponsePolicy { rejects_to_lock: 3 }, None)
}

#[test]
fn process_batch_matches_sequential_processing() {
    let world = build_world(2);
    for (u, user) in world.users.iter().enumerate() {
        let windows = world.window_stream(user, 900 + u as u64, 24);

        let mut sequential = pipeline(&world, u as u64 + 1);
        let seq_outcomes: Vec<ProcessOutcome> = windows
            .iter()
            .map(|w| sequential.process_window(w).expect("sequential"))
            .collect();

        let mut batched = pipeline(&world, u as u64 + 1);
        let batch_outcomes = batched.process_batch(&windows).expect("batched");

        assert_outcomes_identical(&seq_outcomes, &batch_outcomes, &format!("user {u}"));
        assert_eq!(sequential.events(), batched.events(), "user {u} events");
        assert_eq!(
            sequential.confidence_tracker().history(),
            batched.confidence_tracker().history(),
            "user {u} tracker history"
        );
    }
}

#[test]
fn process_batch_matches_sequential_at_paper_window() {
    // The deployed 6 s × 50 Hz = 300-sample window is not a power of two
    // (its real FFT runs a packed 150-point mixed-radix transform); batch
    // and sequential scoring must stay bit-identical through the planned
    // spectral kernels too.
    let world = build_world_with_window(1, 6.0);
    let user = &world.users[0];
    let windows = world.window_stream(user, 4_100, 16);

    let mut sequential = pipeline(&world, 31);
    let seq_outcomes: Vec<ProcessOutcome> = windows
        .iter()
        .map(|w| sequential.process_window(w).expect("sequential"))
        .collect();

    let mut batched = pipeline(&world, 31);
    let batch_outcomes = batched.process_batch(&windows).expect("batched");

    assert_outcomes_identical(&seq_outcomes, &batch_outcomes, "paper window");
    assert_eq!(sequential.events(), batched.events(), "paper window events");
}

#[test]
fn scalar_and_grouped_scoring_agree_on_trained_models() {
    // `process_window` is the one-window case of `process_batch`, so the
    // pipeline scores only through `authenticate_grouped`; pin the scalar
    // scorer to it on enrolled models at the paper window, over the
    // owner's and another user's windows in both contexts.
    let world = build_world_with_window(2, 6.0);
    let mut owner = pipeline(&world, 47);
    for w in world.window_stream(&world.users[0], 5_200, 0) {
        owner.process_window(&w).expect("enrollment");
    }
    let auth = owner.authenticator().expect("enrollment completes");
    let extractor = world.detector.extractor();
    let items: Vec<(UsageContext, Vec<f64>)> = world
        .users
        .iter()
        .enumerate()
        .flat_map(|(u, user)| world.window_stream(user, 5_300 + u as u64, 24))
        .map(|w| {
            let features = extractor.auth_features(&w, world.cfg.device_set());
            (world.detector.detect(&w), features)
        })
        .collect();

    let grouped = auth.authenticate_grouped(&items);
    assert_eq!(grouped.len(), items.len());
    for (i, ((context, features), g)) in items.iter().zip(&grouped).enumerate() {
        let scalar = auth.authenticate(*context, features);
        assert_eq!(
            scalar.confidence.to_bits(),
            g.confidence.to_bits(),
            "window {i}: confidence diverges ({} vs {})",
            scalar.confidence,
            g.confidence
        );
        assert_eq!(scalar.accepted, g.accepted, "window {i}: verdict");
        assert_eq!(scalar.context, g.context, "window {i}: context");
    }
    // Neither side of the comparison is vacuous: both contexts and both
    // verdicts occur.
    for context in UsageContext::ALL {
        assert!(
            items.iter().any(|(c, _)| *c == context),
            "{context:?} unseen"
        );
    }
    assert!(grouped.iter().any(|d| d.accepted), "no acceptance");
    assert!(grouped.iter().any(|d| !d.accepted), "no rejection");
}

#[test]
fn fleet_engine_matches_sequential_population() {
    let num_users = 4;
    let world = build_world(num_users);
    let streams: Vec<Vec<DualDeviceWindow>> = world
        .users
        .iter()
        .enumerate()
        .map(|(u, user)| world.window_stream(user, 1_300 + u as u64, 16))
        .collect();

    // Reference: each user's stream through a sequential pipeline.
    let mut reference: Vec<Vec<ProcessOutcome>> = Vec::new();
    for (u, stream) in streams.iter().enumerate() {
        let mut sequential = pipeline(&world, u as u64 + 1);
        reference.push(
            stream
                .iter()
                .map(|w| sequential.process_window(w).expect("sequential"))
                .collect(),
        );
    }

    // Fleet: same pipelines behind the engine, windows interleaved across
    // users and delivered over several ticks of varying size.
    let mut engine = FleetEngine::new();
    for u in 0..num_users {
        engine
            .register(UserId(u), pipeline(&world, u as u64 + 1))
            .expect("register");
    }
    let mut cursors = vec![0usize; num_users];
    let mut fleet: Vec<Vec<ProcessOutcome>> = vec![Vec::new(); num_users];
    let mut round = 0usize;
    while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
        // Tick size varies: 1, 2, 3 windows per user per tick, cycling.
        let per_user = round % 3 + 1;
        let mut batch = Vec::new();
        for (u, stream) in streams.iter().enumerate() {
            for _ in 0..per_user {
                if cursors[u] < stream.len() {
                    batch.push((UserId(u), stream[cursors[u]].clone()));
                    cursors[u] += 1;
                }
            }
        }
        let outcomes = engine.score_ticked(batch).expect("tick");
        for (id, outcome) in outcomes {
            fleet[id.0].push(outcome);
        }
        round += 1;
    }

    for u in 0..num_users {
        assert_outcomes_identical(&reference[u], &fleet[u], &format!("user {u}"));
    }
}

#[test]
fn tick_report_aggregates_population_counters() {
    let world = build_world(2);
    let mut engine = FleetEngine::new();
    for u in 0..2usize {
        engine
            .register(UserId(u), pipeline(&world, u as u64 + 9))
            .expect("register");
    }
    let mut total = 0usize;
    for (u, user) in world.users.iter().enumerate() {
        for w in world.window_stream(user, 2_800 + u as u64, 8) {
            engine.submit(UserId(u), w).expect("submit");
            total += 1;
        }
    }
    assert_eq!(engine.pending(), total);
    let report = engine.tick();
    assert!(
        report.errors().is_empty(),
        "tick errors: {:?}",
        report.errors()
    );
    assert_eq!(engine.pending(), 0);
    assert_eq!(report.windows_scored(), total);
    assert_eq!(
        report.enrolling() + report.accepts() + report.rejections(),
        total
    );
    // Both owners finished enrollment during the tick and were then
    // overwhelmingly accepted on their own data.
    for u in 0..2usize {
        assert!(engine
            .pipeline(UserId(u))
            .unwrap()
            .authenticator()
            .is_some());
    }
    assert!(report.accepts() > report.rejections());
}
