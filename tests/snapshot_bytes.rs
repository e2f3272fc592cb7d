//! Byte-level guard for the binary snapshot wire format: a golden
//! version-1 snapshot is committed as `fixtures/pipeline_v1.snapshot.bin`,
//! and this suite fails unless the current codec decodes it and re-encodes
//! it to exactly the committed bytes. `snapshot_compat` pins that old
//! snapshots keep *restoring*; this suite pins the *bytes* the stores
//! write, so a codec change that reorders fields, changes a tag or widens
//! a number is caught even when the result would still load.
//!
//! The captured pipeline holds every kind of field the format carries: a
//! per-context authenticator, a negative epoch, positive-tail factors for
//! both contexts, a deferred retrain in flight, events, tracker history, a
//! planned window and an RNG word above `i64::MAX` (the unsigned tag).
//!
//! Regenerate the fixture (only when intentionally re-baselining the wire
//! format, which requires a `SNAPSHOT_VERSION` bump) with:
//!
//! ```text
//! cargo test --test snapshot_bytes regenerate -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use smarteryou::core::persist::PipelineSnapshot;
use smarteryou::core::{
    ContextDetector, ContextDetectorConfig, DeviceSet, FeatureExtractor, ResponsePolicy,
    RetrainMode, RetrainPolicy, SmarterYou, SystemConfig, SystemEvent, TrainingServer,
    SNAPSHOT_VERSION,
};
use smarteryou::sensors::{Population, RawContext, TraceGenerator, WindowSpec};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("pipeline_v1.snapshot.bin")
}

/// Builds the deterministic pipeline the binary fixture captures: enrolled
/// per-context, retrained inline once (negative epoch and tail factors),
/// then switched to deferred mode and driven until a retrain is captured
/// but not yet applied.
fn build_wire_pipeline() -> SmarterYou {
    let cfg = SystemConfig::paper_default()
        .with_window_secs(2.0)
        .with_data_size(32);
    let spec = WindowSpec::from_seconds(cfg.window_secs(), cfg.sample_rate());
    let population = Population::generate(4, 515_151);
    let extractor = FeatureExtractor::paper_default(cfg.sample_rate());

    let mut ctx_features = Vec::new();
    let mut ctx_labels = Vec::new();
    let mut server = TrainingServer::new();
    for user in &population.users()[1..] {
        let mut gen = TraceGenerator::new(user.clone(), 23);
        for raw in [RawContext::SittingStanding, RawContext::MovingAround] {
            let windows = gen.generate_windows(raw, spec, 12);
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
    let mut rng = StdRng::seed_from_u64(31);
    let detector = ContextDetector::train(
        extractor,
        &ctx_features,
        &ctx_labels,
        ContextDetectorConfig {
            num_trees: 3,
            max_depth: 4,
        },
        &mut rng,
    )
    .expect("detector trains");

    // Any non-negative median is "low" under this threshold, so a retrain
    // triggers every `period` accepted windows.
    let mut sys = SmarterYou::new(cfg, detector, Arc::new(Mutex::new(server)), 11)
        .expect("valid config")
        .with_response_policy(ResponsePolicy {
            rejects_to_lock: usize::MAX,
        })
        .with_retrain_policy(RetrainPolicy {
            threshold: 1e9,
            period: 3,
            max_reject_fraction: 1.0,
        });
    let mut gen = TraceGenerator::new(population.users()[0].clone(), 37);
    let mut round = 0;
    let mut step = |sys: &mut SmarterYou, round: &mut usize| {
        *round += 1;
        assert!(*round < 400, "fixture pipeline never reached its state");
        let ctx = if round.is_multiple_of(2) {
            RawContext::SittingStanding
        } else {
            RawContext::MovingAround
        };
        for w in gen.generate_windows(ctx, spec, 2) {
            sys.process_window(&w).expect("process");
        }
    };
    while !sys
        .events()
        .iter()
        .any(|e| matches!(e, SystemEvent::Retrained { .. }))
    {
        step(&mut sys, &mut round);
    }
    let mut sys = sys.with_retrain_mode(RetrainMode::Deferred);
    while !sys.retrain_outstanding() {
        step(&mut sys, &mut round);
    }
    sys
}

/// The value under `key` in an object, or `Null` when absent.
fn get<'v>(value: &'v Value, key: &str) -> &'v Value {
    value.get(key).unwrap_or(&Value::Null)
}

/// Panics unless `snapshot` holds every field kind the fixture promises.
fn assert_covers_every_field_kind(snapshot: &PipelineSnapshot) {
    let tree: Value = serde_json::from_str(&snapshot.to_json()).expect("snapshot JSON parses");
    let auth = get(&tree, "authenticator");
    assert_eq!(get(auth, "mode"), &Value::Str("PerContext".into()));
    assert_eq!(get(auth, "models").as_array().map(<[_]>::len), Some(2));
    assert_ne!(get(&tree, "negative_epoch"), &Value::Null);
    assert_eq!(get(&tree, "retrain_mode"), &Value::Str("Deferred".into()));
    let in_flight = get(&tree, "retrain_in_flight");
    assert_ne!(in_flight, &Value::Null, "a deferred retrain is in flight");
    // The capture moves the tails into the request.
    let tails = get(in_flight, "retrain_tails")
        .as_array()
        .expect("tails array");
    assert!(
        tails.iter().all(|t| t != &Value::Null),
        "both contexts carry a tail factor"
    );
    assert!(get(&tree, "events")
        .as_array()
        .is_some_and(|e| !e.is_empty()));
    assert!(get(get(&tree, "tracker"), "history")
        .as_array()
        .is_some_and(|h| !h.is_empty()));
    assert_ne!(get(&tree, "planned_window"), &Value::Null);
    let unsigned = [get(&tree, "rng_state"), get(in_flight, "rng_state")]
        .into_iter()
        .flat_map(|words| words.as_array().expect("rng words"))
        .any(|w| matches!(w, Value::UInt(_)));
    assert!(unsigned, "an RNG word above i64::MAX");
}

#[test]
fn committed_binary_fixture_reproduces_byte_for_byte() {
    let bytes = std::fs::read(fixture_path()).expect(
        "fixtures/pipeline_v1.snapshot.bin missing — run \
         `cargo test --test snapshot_bytes regenerate -- --ignored`",
    );
    let snapshot =
        PipelineSnapshot::from_bytes(&bytes).expect("the committed binary snapshot decodes");
    assert_eq!(snapshot.version(), SNAPSHOT_VERSION);
    assert_covers_every_field_kind(&snapshot);
    assert!(
        snapshot.to_bytes() == bytes,
        "re-encoding the committed snapshot changed its wire bytes"
    );
    let via_json =
        PipelineSnapshot::from_json(&snapshot.to_json()).expect("the JSON export decodes");
    assert_eq!(via_json, snapshot, "both wire forms decode to one snapshot");
}

#[test]
#[ignore = "regenerates the committed binary fixture; run explicitly when re-baselining"]
fn regenerate() {
    let snapshot = build_wire_pipeline().snapshot();
    assert_covers_every_field_kind(&snapshot);
    std::fs::write(fixture_path(), snapshot.to_bytes()).expect("write binary fixture");
    println!("wrote {}", fixture_path().display());
}
