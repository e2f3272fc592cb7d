//! Forward-compatibility guard for the pipeline snapshot format: a golden
//! version-1 snapshot is committed under `fixtures/`, and this suite fails
//! if the current code can no longer restore it — the CI tripwire that
//! forces any format-affecting change to either stay compatible or bump
//! `SNAPSHOT_VERSION` with an explicit migration.
//!
//! Regenerate the fixture (only when intentionally re-baselining, which
//! requires a version bump if the old fixture no longer restores) with:
//!
//! ```text
//! cargo test --test snapshot_compat regenerate -- --ignored
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use smarteryou::core::persist::{FileSnapshotStore, PersistError, PipelineSnapshot, SnapshotStore};
use smarteryou::core::{
    ContextDetector, ContextDetectorConfig, CoreError, DeviceSet, FeatureExtractor, ResponsePolicy,
    SmarterYou, SystemConfig, TrainingServer, SNAPSHOT_VERSION,
};
use smarteryou::sensors::{
    Population, RawContext, TraceGenerator, UsageContext, UserId, WindowSpec,
};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn snapshot_path() -> PathBuf {
    fixture_dir().join("pipeline_v1.snapshot.json")
}

fn expected_path() -> PathBuf {
    fixture_dir().join("pipeline_v1.expected.json")
}

/// Behaviour pinned alongside the golden snapshot. The probe is a fixed
/// synthetic feature vector scored through pure arithmetic (no
/// platform-dependent transcendentals), so the confidence bits are stable
/// across machines.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenExpectation {
    snapshot_version: u32,
    enrolled: bool,
    num_features: usize,
    events: usize,
    probe_confidence_bits: u64,
    probe_accepted: bool,
}

/// Deterministic probe of `width` features in a plausible scaled range.
fn probe_vector(width: usize) -> Vec<f64> {
    (0..width)
        .map(|i| ((i * 37 + 11) % 23) as f64 * 0.25 - 2.5)
        .collect()
}

fn expectation_for(
    snapshot: &PipelineSnapshot,
    server: Arc<Mutex<TrainingServer>>,
) -> GoldenExpectation {
    let pipeline = SmarterYou::restore(snapshot.clone(), server).expect("golden snapshot restores");
    let auth = pipeline
        .authenticator()
        .expect("golden snapshot is enrolled");
    let probe = probe_vector(auth.num_features());
    let decision = auth.authenticate(UsageContext::Stationary, &probe);
    GoldenExpectation {
        snapshot_version: snapshot.version(),
        enrolled: snapshot.is_enrolled(),
        num_features: auth.num_features(),
        events: pipeline.events().len(),
        probe_confidence_bits: decision.confidence.to_bits(),
        probe_accepted: decision.accepted,
    }
}

/// Builds the deterministic enrolled pipeline the golden fixture captures.
fn build_golden_pipeline() -> SmarterYou {
    let cfg = SystemConfig::paper_default()
        .with_window_secs(2.0)
        .with_data_size(40);
    let spec = WindowSpec::from_seconds(cfg.window_secs(), cfg.sample_rate());
    let population = Population::generate(5, 424_242);
    let extractor = FeatureExtractor::paper_default(cfg.sample_rate());

    let mut ctx_features = Vec::new();
    let mut ctx_labels = Vec::new();
    let mut server = TrainingServer::new();
    for user in &population.users()[1..] {
        let mut gen = TraceGenerator::new(user.clone(), 17);
        for raw in [RawContext::SittingStanding, RawContext::MovingAround] {
            let windows = gen.generate_windows(raw, spec, 20);
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
    let mut rng = StdRng::seed_from_u64(13);
    let detector = ContextDetector::train(
        extractor,
        &ctx_features,
        &ctx_labels,
        ContextDetectorConfig {
            num_trees: 8,
            max_depth: 6,
        },
        &mut rng,
    )
    .expect("detector trains");

    let mut sys = SmarterYou::new(cfg, detector, Arc::new(Mutex::new(server)), 7)
        .expect("valid config")
        .with_response_policy(ResponsePolicy {
            rejects_to_lock: usize::MAX,
        });
    let owner = population.users()[0].clone();
    let mut gen = TraceGenerator::new(owner, 29);
    let mut guard = 0;
    while sys.authenticator().is_none() && guard < 500 {
        guard += 1;
        let ctx = if guard % 2 == 0 {
            RawContext::SittingStanding
        } else {
            RawContext::MovingAround
        };
        for w in gen.generate_windows(ctx, spec, 5) {
            sys.process_window(&w).expect("process");
        }
    }
    assert!(sys.authenticator().is_some(), "enrollment stuck");
    // A few authenticated windows so the tracker and retrain buffers carry
    // non-trivial state into the fixture.
    for w in gen.generate_windows(RawContext::SittingStanding, spec, 6) {
        sys.process_window(&w).expect("process");
    }
    sys
}

#[test]
fn restores_committed_golden_snapshot() {
    let json = std::fs::read_to_string(snapshot_path()).expect(
        "fixtures/pipeline_v1.snapshot.json missing — run \
         `cargo test --test snapshot_compat regenerate -- --ignored`",
    );
    let snapshot = PipelineSnapshot::from_json(&json)
        .expect("current code must keep restoring the committed v1 snapshot");
    assert_eq!(snapshot.version(), SNAPSHOT_VERSION);

    let expected: GoldenExpectation = serde_json::from_str(
        &std::fs::read_to_string(expected_path()).expect("expected-values fixture missing"),
    )
    .expect("expected-values fixture parses");
    let got = expectation_for(&snapshot, Arc::new(Mutex::new(TrainingServer::new())));
    assert_eq!(
        got, expected,
        "restored snapshot behaviour diverged from the committed baseline"
    );

    // The wire form re-serializes losslessly: parse(serialize(parse(x)))
    // is identical to parse(x).
    let again = PipelineSnapshot::from_json(&snapshot.to_json()).expect("reserialize");
    assert_eq!(again, snapshot);
}

/// A store directory written by a build that stored JSON: the golden
/// fixture, copied in under a user's snapshot name, loads through the
/// store's binary reader and keeps its pinned behaviour — and re-saving it
/// (now binary) changes nothing.
#[test]
fn file_store_loads_a_legacy_json_snapshot() {
    let dir =
        std::env::temp_dir().join(format!("smarteryou-snapshot-compat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("store dir");
    std::fs::copy(snapshot_path(), dir.join("user00.snapshot.json")).expect("copy golden fixture");
    let mut store = FileSnapshotStore::new(&dir).expect("store opens");
    let id = UserId(0);
    let snapshot = store
        .load(id)
        .expect("legacy JSON snapshot loads")
        .expect("snapshot present");

    let expected: GoldenExpectation = serde_json::from_str(
        &std::fs::read_to_string(expected_path()).expect("expected-values fixture missing"),
    )
    .expect("expected-values fixture parses");
    let got = expectation_for(&snapshot, Arc::new(Mutex::new(TrainingServer::new())));
    assert_eq!(got, expected, "legacy snapshot behaviour diverged");

    store.save(id, &snapshot).expect("re-save");
    assert_ne!(
        std::fs::read(dir.join("user00.snapshot.json")).expect("re-saved file")[0],
        b'{',
        "re-saved in the binary form"
    );
    assert_eq!(store.load(id).expect("binary reload"), Some(snapshot));
    std::fs::remove_dir_all(&dir).ok();
}

/// The value under `key` in a JSON object.
fn field_mut<'v>(object: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(fields) = object else {
        panic!("expected an object holding {key}");
    };
    let (_, value) = fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no field {key}"));
    value
}

/// A decoded snapshot bypasses the `SystemConfig::with_*` builders, so
/// restore must reject every configuration they would, and every
/// configuration that disagrees with the snapshot's own models: the golden
/// fixture with one out-of-range or mismatched configuration edit restores
/// to a typed `InvalidConfig`, never a panic or a pipeline that scores.
#[test]
fn restore_rejects_out_of_range_configurations() {
    let json = std::fs::read_to_string(snapshot_path()).expect("golden fixture");
    let golden: Value = serde_json::from_str(&json).expect("golden fixture parses");
    let cases: [(&str, &[(&str, Value)]); 6] = [
        // 2 s × 50 Hz → -2 s × -50 Hz keeps the 100-sample window.
        (
            "negative window and rate",
            &[
                ("window_secs", Value::Float(-2.0)),
                ("sample_rate", Value::Float(-50.0)),
            ],
        ),
        ("negative rho", &[("rho", Value::Float(-1.0))]),
        ("zero rho", &[("rho", Value::Float(0.0))]),
        ("zero data size", &[("data_size", Value::Int(0))]),
        ("data size 2", &[("data_size", Value::Int(2))]),
        // The fixture's models score 28 combined features; phone-only
        // extraction yields 14.
        (
            "device set narrower than the models",
            &[("device_set", Value::Str("PhoneOnly".into()))],
        ),
    ];
    for (label, edits) in cases {
        let mut value = golden.clone();
        let cfg = field_mut(&mut value, "cfg");
        for (key, new) in edits {
            *field_mut(cfg, key) = new.clone();
        }
        let snapshot =
            PipelineSnapshot::from_json(&serde_json::to_string(&value).expect("re-encodes"))
                .unwrap_or_else(|e| panic!("{label}: edited fixture decodes: {e}"));
        let restored = SmarterYou::restore(snapshot, Arc::new(Mutex::new(TrainingServer::new())));
        assert!(
            matches!(restored, Err(CoreError::InvalidConfig(_))),
            "{label}: expected InvalidConfig, got {:?}",
            restored.map(|_| "a restored pipeline")
        );
    }
}

/// Element `i` of a JSON array.
fn item_mut(array: &mut Value, i: usize) -> &mut Value {
    let Value::Array(items) = array else {
        panic!("expected an array holding item {i}");
    };
    &mut items[i]
}

/// The elements of a JSON array.
fn items_mut(array: &mut Value) -> &mut Vec<Value> {
    let Value::Array(items) = array else {
        panic!("expected an array");
    };
    items
}

/// The per-context authentication models of a golden snapshot tree.
fn auth_models(root: &mut Value) -> &mut Vec<Value> {
    items_mut(field_mut(field_mut(root, "authenticator"), "models"))
}

/// The forest of a golden snapshot tree's context detector.
fn forest(root: &mut Value) -> &mut Value {
    field_mut(field_mut(root, "detector"), "forest")
}

/// The node arena of tree `t` of the detector's forest.
fn tree_nodes(root: &mut Value, t: usize) -> &mut Vec<Value> {
    items_mut(field_mut(
        item_mut(field_mut(forest(root), "trees"), t),
        "nodes",
    ))
}

/// The payload of a `Split` or `Leaf` node.
fn node_body<'v>(node: &'v mut Value, kind: &str) -> Option<&'v mut Value> {
    let Value::Object(entries) = node else {
        panic!("expected a tagged node");
    };
    entries.iter_mut().find(|(k, _)| k == kind).map(|(_, v)| v)
}

/// The first node of `kind` in tree 0's arena.
fn first_node<'v>(root: &'v mut Value, kind: &str) -> &'v mut Value {
    tree_nodes(root, 0)
        .iter_mut()
        .find_map(|node| node_body(node, kind))
        .unwrap_or_else(|| panic!("tree 0 holds a {kind} node"))
}

/// Pops the last element of the array under `key`.
fn pop(object: &mut Value, key: &str) {
    items_mut(field_mut(object, key)).pop();
}

/// Models and decision trees decode only in shapes their constructors and
/// builders produce: each golden-fixture edit below would otherwise decode
/// into a pipeline that panics, or loops forever, once it scores or
/// detects a window. Every one is a typed `Malformed` at decode.
#[test]
fn decoding_rejects_models_and_trees_that_cannot_score() {
    let json = std::fs::read_to_string(snapshot_path()).expect("golden fixture");
    let golden: Value = serde_json::from_str(&json).expect("golden fixture parses");
    type Edit = fn(&mut Value);
    let cases: [(&str, Edit); 15] = [
        ("no authentication models", |root| auth_models(root).clear()),
        ("one per-context model", |root| {
            auth_models(root).pop();
        }),
        ("unified mode with two models", |root| {
            *field_mut(field_mut(root, "authenticator"), "mode") = Value::Str("Unified".into());
        }),
        ("scaler stds narrower than its means", |root| {
            pop(field_mut(&mut auth_models(root)[0], "scaler"), "stds");
        }),
        ("scaler narrower than its classifier", |root| {
            let scaler = field_mut(&mut auth_models(root)[1], "scaler");
            pop(scaler, "means");
            pop(scaler, "stds");
        }),
        ("centring mean narrower than the weights", |root| {
            pop(field_mut(&mut auth_models(root)[1], "krr"), "x_mean");
        }),
        ("weights narrower than the centring mean", |root| {
            let krr = field_mut(&mut auth_models(root)[1], "krr");
            pop(field_mut(field_mut(krr, "kind"), "Linear"), "w");
        }),
        ("per-context models of different widths", |root| {
            let model = &mut auth_models(root)[1];
            let scaler = field_mut(model, "scaler");
            pop(scaler, "means");
            pop(scaler, "stds");
            let krr = field_mut(model, "krr");
            pop(krr, "x_mean");
            pop(field_mut(field_mut(krr, "kind"), "Linear"), "w");
        }),
        ("root split pointing at itself", |root| {
            *field_mut(first_node(root, "Split"), "left") = Value::Int(0);
        }),
        ("split child past the arena", |root| {
            let len = tree_nodes(root, 0).len();
            *field_mut(first_node(root, "Split"), "right") = Value::Int(len as i64);
        }),
        ("split on a feature past the width", |root| {
            *field_mut(first_node(root, "Split"), "feature") = Value::Int(14);
        }),
        ("leaf counting three classes", |root| {
            items_mut(field_mut(first_node(root, "Leaf"), "counts")).push(Value::Int(0));
        }),
        ("empty node arena", |root| tree_nodes(root, 0).clear()),
        ("forest without trees", |root| {
            items_mut(field_mut(forest(root), "trees")).clear();
        }),
        ("trees of different widths", |root| {
            let trees = field_mut(forest(root), "trees");
            *field_mut(item_mut(trees, 1), "num_features") = Value::Int(15);
        }),
    ];
    for (label, edit) in cases {
        let mut value = golden.clone();
        edit(&mut value);
        let edited = serde_json::to_string(&value).expect("re-encodes");
        let decoded = PipelineSnapshot::from_json(&edited);
        assert!(
            matches!(decoded, Err(PersistError::Malformed(_))),
            "{label}: expected Malformed, got {:?}",
            decoded.map(|_| "a decoded snapshot")
        );
    }

    // A detector forest over three classes, consistent in itself, still
    // cannot map every vote to a usage context.
    let mut value = golden.clone();
    let forest = forest(&mut value);
    *field_mut(forest, "num_classes") = Value::Int(3);
    for tree in items_mut(field_mut(forest, "trees")) {
        *field_mut(tree, "num_classes") = Value::Int(3);
        for node in items_mut(field_mut(tree, "nodes")) {
            if let Some(leaf) = node_body(node, "Leaf") {
                items_mut(field_mut(leaf, "counts")).push(Value::Int(0));
            }
        }
    }
    let edited = serde_json::to_string(&value).expect("re-encodes");
    assert!(
        matches!(
            PipelineSnapshot::from_json(&edited),
            Err(PersistError::Malformed(msg)) if msg.contains("contexts")
        ),
        "three-class detector forest"
    );
}

#[test]
#[ignore = "regenerates the committed golden fixture; run explicitly when re-baselining"]
fn regenerate() {
    let pipeline = build_golden_pipeline();
    let snapshot = pipeline.snapshot();
    std::fs::create_dir_all(fixture_dir()).expect("fixtures dir");
    std::fs::write(snapshot_path(), snapshot.to_json()).expect("write snapshot fixture");
    let expected = expectation_for(&snapshot, Arc::new(Mutex::new(TrainingServer::new())));
    std::fs::write(
        expected_path(),
        serde_json::to_string_pretty(&expected).expect("expectation serializes"),
    )
    .expect("write expectation fixture");
    println!(
        "wrote {} and {}",
        snapshot_path().display(),
        expected_path().display()
    );
}
