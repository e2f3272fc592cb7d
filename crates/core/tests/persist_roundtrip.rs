//! Property suite for the pipeline snapshot format: arbitrary pipelines —
//! random seeds, contexts, enrollment-buffer fill levels, and mid-retrain
//! tracker states — must satisfy `restore(snapshot(p)) == p` field for
//! field **through the binary wire form** (and decode to the same snapshot
//! through the JSON export), and corrupted, truncated or forged snapshots
//! in either form must be rejected with a typed error, never a panic.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use smarteryou_core::persist::{PersistError, PipelineSnapshot};
use smarteryou_core::{
    ContextDetector, ContextDetectorConfig, DeviceSet, FeatureExtractor, ProcessOutcome,
    ResponsePolicy, RetrainPolicy, SmarterYou, SystemConfig, TrainingServer,
};
use smarteryou_sensors::{
    DualDeviceWindow, Population, RawContext, TraceGenerator, UserProfile, WindowSpec,
};

/// Shared infra (detector + anonymized pool) that every generated pipeline
/// attaches to — built once, the expensive part of the fixture.
struct World {
    cfg: SystemConfig,
    detector: ContextDetector,
    server: Arc<Mutex<TrainingServer>>,
    spec: WindowSpec,
    users: Vec<UserProfile>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let cfg = SystemConfig::paper_default()
            .with_window_secs(2.0)
            .with_data_size(40);
        let spec = WindowSpec::from_seconds(cfg.window_secs(), cfg.sample_rate());
        let population = Population::generate(7, 90_210);
        let extractor = FeatureExtractor::paper_default(cfg.sample_rate());

        let mut ctx_features = Vec::new();
        let mut ctx_labels = Vec::new();
        let mut server = TrainingServer::new();
        for user in &population.users()[3..] {
            let mut gen = TraceGenerator::new(user.clone(), 19);
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
        let mut rng = StdRng::seed_from_u64(23);
        let detector = ContextDetector::train(
            extractor,
            &ctx_features,
            &ctx_labels,
            ContextDetectorConfig {
                num_trees: 12,
                max_depth: 8,
            },
            &mut rng,
        )
        .expect("detector trains");
        World {
            cfg,
            detector,
            server: Arc::new(Mutex::new(server)),
            spec,
            users: population.users()[..3].to_vec(),
        }
    })
}

/// Builds a pipeline and advances it through `enroll_rounds` alternating
/// enrollment rounds and then `auth_windows` authentication windows — so
/// low parameters leave it mid-enrollment with partially filled buffers,
/// and higher ones land it mid-retrain-window in continuous auth.
fn arbitrary_pipeline(
    seed: u64,
    user: usize,
    enroll_rounds: usize,
    auth_windows: usize,
    period: usize,
) -> (SmarterYou, TraceGenerator) {
    let w = world();
    let mut sys = SmarterYou::new(w.cfg.clone(), w.detector.clone(), w.server.clone(), seed)
        .expect("valid config")
        .with_response_policy(ResponsePolicy { rejects_to_lock: 3 })
        .with_retrain_policy(RetrainPolicy {
            threshold: 0.9,
            period,
            max_reject_fraction: 0.5,
        });
    let mut gen = TraceGenerator::new(w.users[user].clone(), seed ^ 0xABCD);
    for round in 0..enroll_rounds {
        let ctx = if round % 2 == 0 {
            RawContext::SittingStanding
        } else {
            RawContext::MovingAround
        };
        for w in gen.generate_windows(ctx, world().spec, 2) {
            sys.process_window(&w).expect("process");
        }
    }
    for round in 0..auth_windows.div_ceil(3) {
        let ctx = if round % 2 == 0 {
            RawContext::MovingAround
        } else {
            RawContext::SittingStanding
        };
        for w in gen.generate_windows(ctx, world().spec, 3) {
            sys.process_window(&w).expect("process");
        }
    }
    (sys, gen)
}

fn future_windows(gen: &mut TraceGenerator, n: usize) -> Vec<DualDeviceWindow> {
    let mut out = gen.generate_windows(RawContext::SittingStanding, world().spec, n / 2);
    out.extend(gen.generate_windows(RawContext::MovingAround, world().spec, n - n / 2));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn roundtrip_is_field_for_field_identical(
        params in (
            (0..1_000u64, 0..3usize),         // pipeline seed, user profile
            (0..18usize, 0..16usize, 2..7usize), // enrollment rounds (13+
                // finishes enrollment), post-enrollment windows, retrain
                // rolling-window period
        )
    ) {
        let ((seed, user), (enroll_rounds, auth_windows, period)) = params;
        let (mut original, mut gen) =
            arbitrary_pipeline(seed, user, enroll_rounds, auth_windows, period);

        // Snapshot → bytes → decode → restore.
        let snap = original.snapshot();
        let wire = snap.to_bytes();
        let parsed = PipelineSnapshot::from_bytes(&wire);
        prop_assert!(parsed.is_ok(), "valid wire form rejected: {parsed:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(&snap, &parsed);
        // Both wire forms decode to the same snapshot.
        let via_json = PipelineSnapshot::from_json(&snap.to_json());
        prop_assert!(via_json.is_ok(), "JSON export rejected: {via_json:?}");
        prop_assert_eq!(&parsed, &via_json.unwrap());
        let restored = SmarterYou::restore(parsed, world().server.clone());
        prop_assert!(restored.is_ok(), "restore failed: {restored:?}");
        let mut restored = restored.unwrap();

        // Field-for-field: re-snapshotting the restored pipeline captures
        // exactly the same state, and the observable accessors agree.
        prop_assert_eq!(&restored.snapshot(), &snap);
        prop_assert_eq!(restored.phase(), original.phase());
        prop_assert_eq!(restored.events(), original.events());
        prop_assert_eq!(restored.is_locked(), original.is_locked());
        prop_assert_eq!(
            restored.confidence_tracker().rolling_len(),
            original.confidence_tracker().rolling_len()
        );
        prop_assert_eq!(
            restored.confidence_tracker().windows_since_retrain(),
            original.confidence_tracker().windows_since_retrain()
        );

        // Behavioural equality: both advance identically over the same
        // future windows (retrains included — the RNG stream must match).
        for w in future_windows(&mut gen, 6) {
            let a = original.process_window(&w).expect("original");
            let b = restored.process_window(&w).expect("restored");
            match (a, b) {
                (
                    ProcessOutcome::Decision { decision: da, action: aa, retrained: ra },
                    ProcessOutcome::Decision { decision: db, action: ab, retrained: rb },
                ) => {
                    prop_assert_eq!(da.confidence.to_bits(), db.confidence.to_bits());
                    prop_assert_eq!(da.accepted, db.accepted);
                    prop_assert_eq!(da.context, db.context);
                    prop_assert_eq!(aa, ab);
                    prop_assert_eq!(ra, rb);
                }
                (a, b) => prop_assert_eq!(a, b),
            }
        }
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }

    #[test]
    fn corrupted_snapshots_are_rejected_not_panics(
        params in (0..1_000usize, 0..256u32)
    ) {
        let (cut, flip) = params;
        static WIRE: OnceLock<String> = OnceLock::new();
        let wire = WIRE.get_or_init(|| {
            let (sys, _) = arbitrary_pipeline(42, 0, 16, 6, 4);
            sys.snapshot().to_json()
        });

        // Truncation at an arbitrary byte: typed error, never a panic.
        let at = (cut * wire.len() / 1_000).min(wire.len() - 1);
        prop_assert!(wire.is_char_boundary(at));
        prop_assert!(PipelineSnapshot::from_json(&wire[..at]).is_err());

        // Single-byte corruption anywhere: must never panic. (It may still
        // parse — flipping a digit yields a different but valid snapshot —
        // so only the absence of a crash is asserted.)
        let pos = (flip as usize * 997) % wire.len();
        let mut bytes = wire.clone().into_bytes();
        bytes[pos] = bytes[pos].wrapping_add(1).clamp(0x20, 0x7e);
        if let Ok(s) = String::from_utf8(bytes) {
            let _ = PipelineSnapshot::from_json(&s);
        }
    }
}

/// The binary wire form of one mid-retrain pipeline, shared by the
/// hostile-input properties below.
fn binary_wire() -> &'static [u8] {
    static WIRE: OnceLock<Vec<u8>> = OnceLock::new();
    WIRE.get_or_init(|| arbitrary_pipeline(42, 0, 16, 6, 4).0.snapshot().to_bytes())
}

/// The errors a decoder may answer hostile input with.
fn is_typed_decode_error(e: &PersistError) -> bool {
    matches!(
        e,
        PersistError::Malformed(_)
            | PersistError::WrongFormat(_)
            | PersistError::UnsupportedVersion { .. }
    )
}

/// Unsigned LEB128, as the wire format writes lengths and integers.
fn varint(mut n: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
    out
}

fn replace_first(hay: &[u8], needle: &[u8], with: &[u8]) -> Vec<u8> {
    let at = hay
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("pattern present in the wire form");
    [&hay[..at], with, &hay[at + needle.len()..]].concat()
}

// Layout constants from the wire-format table in `persist`'s module docs.
const MAGIC_LEN: usize = 8;
const TAG_INT: u8 = 0x03;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hostile_binary_snapshots_are_typed_errors(
        params in (
            (0..1_000_000usize, 0..1_000_000usize, 0..8u32), // cut, flip position, flip bit
            (1..u64::MAX / 2, 10..40usize, 65..20_000usize),  // length excess, varint bytes, depth
            (2..100_000u32, 0..u64::MAX),                     // future version, bad magic
        )
    ) {
        let ((cut, flip_at, bit), (excess, varint_len, depth), (version, magic)) = params;
        let wire = binary_wire();
        let magic_bytes = &wire[..MAGIC_LEN];
        let with_magic = |body: &[u8]| [magic_bytes, body].concat();
        let malformed = |bytes: &[u8]| {
            matches!(PipelineSnapshot::from_bytes(bytes), Err(PersistError::Malformed(_)))
        };

        // Truncation anywhere.
        let at = cut * wire.len() / 1_000_000;
        prop_assert!(malformed(&wire[..at]), "truncation at byte {at}");

        // A flipped bit anywhere: a different snapshot or a typed error.
        let mut flipped = wire.to_vec();
        flipped[flip_at * wire.len() / 1_000_000] ^= 1 << bit;
        if let Err(e) = PipelineSnapshot::from_bytes(&flipped) {
            prop_assert!(is_typed_decode_error(&e), "untyped error {e:?}");
        }

        // Length prefixes claiming more than the bytes remaining — mostly
        // far more than any allocator could serve — for a string, an array
        // and an object: rejected before allocating.
        let tail = &wire[MAGIC_LEN..];
        let claim = tail.len() as u64 + excess;
        for tag in [TAG_STR, TAG_ARRAY, TAG_OBJECT] {
            let forged = with_magic(&[&[tag][..], &varint(claim), tail].concat());
            prop_assert!(malformed(&forged), "tag {tag:#04x} claiming {claim}");
        }

        // A varint running past 64 bits.
        let mut long = vec![TAG_INT];
        long.extend(std::iter::repeat_n(0xff, varint_len));
        long.push(0x01);
        prop_assert!(malformed(&with_magic(&long)));

        // Nesting deeper than the decoder's limit, however deep.
        let mut nested = [TAG_ARRAY, 0x01].repeat(depth);
        nested.push(0x00);
        prop_assert!(malformed(&with_magic(&nested)));

        // A future schema version: typed, checked before the body.
        let future = replace_first(
            wire,
            &[b"\x07version".as_slice(), &[TAG_INT], &varint(2)].concat(),
            &[b"\x07version".as_slice(), &[TAG_INT], &varint(2 * u64::from(version))].concat(),
        );
        prop_assert!(
            matches!(
                PipelineSnapshot::from_bytes(&future),
                Err(PersistError::UnsupportedVersion { found, supported: 1 }) if found == version
            ),
            "version {version}"
        );

        // Any other 8-byte lead is some other document.
        let alien_magic = magic.to_le_bytes();
        if alien_magic != magic_bytes && alien_magic[0] != b'{' {
            let alien = [&alien_magic[..], tail].concat();
            prop_assert!(matches!(
                PipelineSnapshot::from_bytes(&alien),
                Err(PersistError::WrongFormat(_))
            ));
        }
    }
}

/// An over-long **legacy** snapshot — written before the event log and
/// tracker history were ring-buffered, so both arrays are huge and the
/// bounding fields are absent — must restore with the logs truncated to
/// their most recent entries, without a version bump (the fields were
/// always plain JSON arrays).
#[test]
fn overlong_legacy_snapshot_restores_truncated() {
    use serde::Value;
    use smarteryou_core::DEFAULT_EVENT_CAPACITY;

    fn obj_remove(value: &mut Value, key: &str) {
        if let Value::Object(entries) = value {
            entries.retain(|(k, _)| k != key);
        }
    }
    fn obj_get_mut<'v>(value: &'v mut Value, key: &str) -> &'v mut Value {
        match value {
            Value::Object(entries) => entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .expect("key present"),
            other => panic!("expected object, found {}", other.kind()),
        }
    }

    let (sys, _) = arbitrary_pipeline(11, 2, 16, 9, 4);
    let period = sys.confidence_tracker().policy().period;
    let mut value: Value =
        serde_json::from_str(&sys.snapshot().to_json()).expect("snapshot parses as a value tree");

    // Strip the post-v1 fields, turning this into a legacy document …
    obj_remove(&mut value, "event_capacity");
    obj_remove(&mut value, "negative_epoch");
    obj_remove(obj_get_mut(&mut value, "tracker"), "retention");
    // … and blow up both unbounded-era logs far past today's bounds.
    let events: Vec<Value> = (0..DEFAULT_EVENT_CAPACITY + 700)
        .map(|i| {
            Value::Object(vec![(
                "Retrained".to_string(),
                Value::Object(vec![("day".to_string(), Value::Float(i as f64))]),
            )])
        })
        .collect();
    *obj_get_mut(&mut value, "events") = Value::Array(events);
    let history: Vec<Value> = (0..5_000)
        .map(|i| Value::Array(vec![Value::Float(i as f64), Value::Float(0.5)]))
        .collect();
    *obj_get_mut(obj_get_mut(&mut value, "tracker"), "history") = Value::Array(history);

    let legacy_json = serde_json::to_string(&value).expect("value tree serializes");
    let parsed = PipelineSnapshot::from_json(&legacy_json).expect("legacy wire form parses");
    let restored =
        SmarterYou::restore(parsed, world().server.clone()).expect("legacy snapshot restores");

    // Both logs come back bounded, keeping their most recent entries.
    assert_eq!(restored.event_capacity(), DEFAULT_EVENT_CAPACITY);
    assert_eq!(restored.events().len(), DEFAULT_EVENT_CAPACITY);
    assert!(matches!(
        restored.events().last(),
        Some(smarteryou_core::SystemEvent::Retrained { day })
            if *day == (DEFAULT_EVENT_CAPACITY + 700 - 1) as f64
    ));
    let tracker = restored.confidence_tracker();
    assert_eq!(tracker.history_retention(), period);
    assert_eq!(tracker.history().len(), period);
    assert!((tracker.history().back().unwrap().0 - 4_999.0).abs() < 1e-12);

    // And the bounded state round-trips stably from here on.
    let again = restored.snapshot();
    let back = PipelineSnapshot::from_json(&again.to_json()).expect("reserialize");
    assert_eq!(back, again);
}

#[test]
fn versioned_header_mismatch_is_a_typed_error() {
    let (sys, _) = arbitrary_pipeline(7, 1, 16, 4, 3);
    let wire = sys.snapshot().to_json();

    let future = wire.replacen("\"version\":1", "\"version\":9", 1);
    assert_ne!(future, wire);
    assert!(matches!(
        PipelineSnapshot::from_json(&future),
        Err(PersistError::UnsupportedVersion {
            found: 9,
            supported: 1
        })
    ));

    let alien = wire.replacen("smarteryou.pipeline", "acme.toaster", 1);
    assert!(matches!(
        PipelineSnapshot::from_json(&alien),
        Err(PersistError::WrongFormat(f)) if f == "acme.toaster"
    ));
    // The binary form carries the same envelope.
    let alien = replace_first(
        &sys.snapshot().to_bytes(),
        b"smarteryou.pipeline",
        b"acme.toaster.v2.bin",
    );
    assert!(matches!(
        PipelineSnapshot::from_bytes(&alien),
        Err(PersistError::WrongFormat(f)) if f == "acme.toaster.v2.bin"
    ));

    // Dropping the header entirely is malformed, not a panic.
    assert!(matches!(
        PipelineSnapshot::from_json("{}"),
        Err(PersistError::Malformed(_))
    ));
    assert!(matches!(
        PipelineSnapshot::from_json("not json at all"),
        Err(PersistError::Malformed(_))
    ));
}
