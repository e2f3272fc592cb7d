//! Versioned snapshot/restore persistence for per-user pipelines.
//!
//! A fleet deployment cannot keep millions of [`SmarterYou`] pipelines
//! resident: most devices are idle most of the time, yet their models must
//! survive process restarts and device/session churn without re-enrollment
//! (§V-I's continuous retraining makes the state genuinely stateful — the
//! enrollment and retrain buffers, confidence tracker, and RNG position all
//! influence future decisions). This module provides the wire format for
//! parking that state:
//!
//! * [`PipelineSnapshot`] — a self-contained, schema-checked capture of one
//!   pipeline: configuration, context-detector forest, per-context KRR
//!   models, enrollment + retrain ring buffers, confidence tracker,
//!   response-module state, event log, clock, RNG state, and the
//!   window-length FFT plan key.
//! * [`SmarterYou::snapshot`] / [`SmarterYou::restore`] — the round-trip.
//!   Restoration is **bit-identical**: a pipeline evicted after window *k*
//!   and restored produces exactly the same decisions, scores, and retrain
//!   events for windows *k+1..n* as one that never left memory (enforced by
//!   `tests/persist_parity.rs` and the round-trip property suite).
//! * [`SnapshotStore`] — pluggable storage, with [`MemorySnapshotStore`]
//!   (binary snapshots in a map — every save/load still exercises the wire
//!   format) and [`FileSnapshotStore`] (one binary file per user, written
//!   atomically) provided. The fleet engine drives either through its
//!   idle-eviction policy.
//!
//! # Wire format
//!
//! A snapshot streams through its serde impls, which emit and consume the
//! events of the `serde` data model (null, bool, integer, float, string,
//! array, object). [`PipelineSnapshot::to_bytes`] writes each event
//! straight to a compact binary encoding, and
//! [`PipelineSnapshot::from_bytes`] decodes the fields straight off those
//! bytes; no intermediate value tree is built either way. The binary form
//! is the only one the stores write:
//!
//! ```text
//! snapshot := 89 53 59 53 4E 41 50 01   8-byte magic ("\x89SYSNAP\x01")
//!             value
//! value    := 00 | 01 | 02              null | false | true
//!           | 03 varint(zigzag(i64))    signed integer
//!           | 04 varint(u64)            unsigned integer above i64::MAX
//!           | 05 f64                    raw little-endian bits
//!           | 06 varint(len) UTF-8      string
//!           | 07 varint(n) value{n}     array
//!           | 08 varint(n) (varint(len) UTF-8 value){n}
//!                                       object, field order preserved
//! varint   := unsigned LEB128, at most 10 bytes
//! ```
//!
//! Floats travel as raw bits, so the round-trip is bit-exact without any
//! decimal formatting or parsing (non-finite values included — JSON writes
//! those as `null`; [`PipelineSnapshot::validate`] stays the gate on what
//! a pipeline may hold). The decoder treats its input as hostile: lengths
//! are checked against the bytes remaining before allocating; over-long
//! varints, nesting deeper than a fixed limit (inside skipped values too),
//! unknown tags, invalid UTF-8 and trailing bytes are rejected; and each
//! failure is a typed [`PersistError`].
//!
//! Struct fields decode by name, in any order; unknown keys are skipped,
//! and for a repeated key the first occurrence wins. Numbers coerce as the
//! data model allows: a float field accepts an integer, and an integer
//! field an integral float.
//!
//! JSON ([`PipelineSnapshot::to_json`] / [`PipelineSnapshot::from_json`])
//! is the debug and golden-fixture export. It renders the same events
//! through a `serde::Value` tree, so both forms share every field name,
//! field-defaulting rule and schema check — one serde impl per type serves
//! both. JSON is read as a legacy input too:
//! [`PipelineSnapshot::from_bytes`] hands a document starting with `{` to
//! the JSON reader, so snapshots written by older builds, and the
//! committed golden fixture, keep loading.
//!
//! # Version & compatibility policy
//!
//! Snapshots are externally tagged with a format magic
//! ([`SNAPSHOT_FORMAT`]) and a version number ([`SNAPSHOT_VERSION`]), the
//! first two entries of every snapshot this crate writes, checked
//! **before** any body field is decoded:
//!
//! * A snapshot with the wrong magic is rejected with
//!   [`PersistError::WrongFormat`] — it is some other document.
//! * A snapshot with a different version is rejected with
//!   [`PersistError::UnsupportedVersion`]. Version *N* readers never guess
//!   at version *M* bodies; a future version bump must ship an explicit
//!   migration that reads the old body shape.
//! * A snapshot that is truncated or corrupt, or that decodes but violates
//!   the schema (a matrix whose data length disagrees with its dimensions,
//!   ragged feature buffers, a zero retrain period) is rejected with
//!   [`PersistError::Malformed`]. Corruption is always a typed error,
//!   never a panic and never a silently wrong pipeline.
//!
//! The version covers the *semantic* content too: any change to what the
//! recorded numbers mean (feature order, RNG algorithm, tracker semantics)
//! must bump [`SNAPSHOT_VERSION`], because a restored pipeline replays
//! those semantics. CI pins this with two committed golden fixtures:
//! `fixtures/pipeline_v1.snapshot.json`, which the current code must keep
//! restoring to its pinned probe decision, and
//! `fixtures/pipeline_v1.snapshot.bin`, which it must decode and re-encode
//! to the same bytes.
//!
//! This format is also the planned wire format between shards: moving a
//! user from one engine process to another is an evict on the source and a
//! rehydrate on the target.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::fault::{points, FaultPlan};

use smarteryou_ml::KrrTailState;
use smarteryou_sensors::{UserId, WindowSpec};

use crate::auth::Authenticator;
use crate::config::SystemConfig;
use crate::context_detect::ContextDetector;
use crate::engine::training::RetrainRequest;
use crate::pipeline::{RetrainMode, SystemEvent};
use crate::response::ResponseModule;
use crate::retrain::ConfidenceTracker;
use crate::server::NegativeEpoch;
#[cfg(doc)]
use crate::SmarterYou;

mod wire;

/// Format magic every pipeline snapshot starts with.
pub const SNAPSHOT_FORMAT: &str = "smarteryou.pipeline";

/// Snapshot schema version written and accepted by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be produced, stored, loaded, or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The document's format magic is not [`SNAPSHOT_FORMAT`].
    WrongFormat(String),
    /// The document's version differs from [`SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// Version recorded in the document.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The document is truncated or corrupt (invalid binary or JSON), or
    /// decodes into state that violates the schema's invariants (ragged
    /// buffers, inconsistent widths, …).
    Malformed(String),
    /// A store was asked to rehydrate a user it holds no snapshot for.
    MissingSnapshot(UserId),
    /// An epoch-fenced operation lost the ownership race: the store has
    /// already been claimed at a newer epoch by another engine (see
    /// [`SnapshotStore::acquire`]). The caller no longer owns this user and
    /// must drop its copy of the pipeline instead of persisting it.
    StaleEpoch {
        /// The user whose ownership was contested.
        id: UserId,
        /// The epoch the caller holds (its claim when it last acquired).
        held: u64,
        /// The newer epoch persisted in the store.
        stored: u64,
    },
    /// The underlying storage failed (I/O errors from a file-backed store).
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::WrongFormat(found) => {
                write!(f, "not a {SNAPSHOT_FORMAT} snapshot (format tag `{found}`)")
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            PersistError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            PersistError::MissingSnapshot(id) => {
                write!(f, "no snapshot stored for {id}")
            }
            PersistError::StaleEpoch { id, held, stored } => {
                write!(
                    f,
                    "stale ownership epoch for {id}: holding {held}, store at {stored}"
                )
            }
            PersistError::Io(msg) => write!(f, "snapshot store I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// The wire form of an outstanding deferred retrain: the trigger-time
/// request minus what restore can rebuild locally — fit caches come back
/// cold (they never change model bits) and the config is the pipeline's
/// own. A job id is deliberately not persisted: it is meaningless outside
/// the engine that issued it, and a restored pipeline always re-enters the
/// *pending* state for its owning engine to resubmit.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PersistedRetrain {
    pub(crate) positives: [Vec<Vec<f64>>; 2],
    pub(crate) rng_state: [u64; 4],
    pub(crate) negative_epoch: Option<NegativeEpoch>,
    /// Positive-tail factor identity captured with the request. Unlike the
    /// fit caches, tails persist: a slid factor is not bit-identical to a
    /// fresh one, so dropping them would break restore bit-parity for a
    /// request resumed on another engine.
    pub(crate) retrain_tails: [Option<KrrTailState>; 2],
    pub(crate) day: f64,
}

/// Hand-written so requests persisted before `retrain_tails` existed keep
/// parsing (cold tails — the job simply refits from scratch); the vendored
/// serde derive has no `#[serde(default)]`.
impl serde::Deserialize for PersistedRetrain {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "PersistedRetrain";
        decode_fields!(
            d,
            TY,
            positives,
            rng_state,
            negative_epoch,
            retrain_tails,
            day
        );
        Ok(PersistedRetrain {
            positives: required(positives, TY, "positives")?,
            rng_state: required(rng_state, TY, "rng_state")?,
            negative_epoch: required(negative_epoch, TY, "negative_epoch")?,
            retrain_tails: retrain_tails.unwrap_or([None, None]),
            day: required(day, TY, "day")?,
        })
    }
}

impl PersistedRetrain {
    /// Strips a live request down to its wire form.
    pub(crate) fn from_request(request: &RetrainRequest) -> Self {
        PersistedRetrain {
            positives: request.positives.clone(),
            rng_state: request.rng_state,
            negative_epoch: request.negative_epoch.clone(),
            retrain_tails: request.retrain_tails.clone(),
            day: request.day,
        }
    }

    /// Rebuilds a live request for the restored pipeline (cold caches).
    pub(crate) fn into_request(self, cfg: SystemConfig) -> RetrainRequest {
        RetrainRequest {
            positives: self.positives,
            cfg,
            rng_state: self.rng_state,
            negative_epoch: self.negative_epoch,
            fit_caches: Default::default(),
            retrain_tails: self.retrain_tails,
            day: self.day,
        }
    }
}

/// A self-contained capture of one [`SmarterYou`] pipeline's state — see
/// the [module docs](self) for the format and compatibility policy.
///
/// Produced by [`SmarterYou::snapshot`]; consumed by [`SmarterYou::restore`]
/// (which reattaches the shared [`TrainingHandle`](crate::TrainingHandle),
/// the only part of a pipeline that is fleet-shared rather than per-user).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineSnapshot {
    pub(crate) format: String,
    pub(crate) version: u32,
    pub(crate) cfg: SystemConfig,
    pub(crate) detector: ContextDetector,
    pub(crate) authenticator: Option<Authenticator>,
    pub(crate) response: ResponseModule,
    pub(crate) tracker: ConfidenceTracker,
    pub(crate) buffers: [Vec<Vec<f64>>; 2],
    pub(crate) recent: [Vec<Vec<f64>>; 2],
    pub(crate) events: Vec<SystemEvent>,
    pub(crate) day: f64,
    pub(crate) rng_state: [u64; 4],
    /// Window-length plan key: shape of the windows the pipeline's FFT plan
    /// was built for, so restore can re-plan before the first window
    /// arrives. `None` when no window had been extracted yet.
    pub(crate) planned_window: Option<WindowSpec>,
    /// Ring-buffer bound on the [`SystemEvent`] log. Snapshots written
    /// before the bound existed restore with the default capacity (and an
    /// over-long legacy log is truncated to its most recent entries).
    pub(crate) event_capacity: usize,
    /// Frozen per-device negative sample driving label-stable retrains
    /// (see [`NegativeEpoch`]); `None` until the first retrain drew one.
    /// Absent in pre-epoch snapshots, which restore with `None`.
    pub(crate) negative_epoch: Option<NegativeEpoch>,
    /// Per-context positive-tail factor identity from the previous
    /// shared-workspace retrain ([`KrrTailState`]); persisted because a
    /// slid factor is not bit-identical to a fresh one, so restore
    /// bit-parity depends on it. Absent in pre-tail snapshots, which
    /// restore cold (the next retrain refits from scratch).
    pub(crate) retrain_tails: [Option<KrrTailState>; 2],
    /// How retrain triggers execute ([`RetrainMode::Inline`] historically
    /// and by default; absent in pre-training-service snapshots).
    pub(crate) retrain_mode: RetrainMode,
    /// An outstanding deferred retrain, captured at trigger time. `None`
    /// when idle — and always `None` in inline mode.
    pub(crate) retrain_in_flight: Option<PersistedRetrain>,
}

/// Hand-written so that fields added after version 1 shipped can default
/// when missing — the vendored serde derive has no `#[serde(default)]`,
/// and the committed golden v1 fixture must keep restoring without a
/// version bump (the additions change no existing field's meaning).
impl serde::Deserialize for PipelineSnapshot {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "PipelineSnapshot";
        decode_fields!(
            d,
            TY,
            format,
            version,
            cfg,
            detector,
            authenticator,
            response,
            tracker,
            buffers,
            recent,
            events,
            day,
            rng_state,
            planned_window,
            event_capacity,
            negative_epoch,
            retrain_tails,
            retrain_mode,
            retrain_in_flight,
        );
        Ok(PipelineSnapshot {
            format: required(format, TY, "format")?,
            version: required(version, TY, "version")?,
            cfg: required(cfg, TY, "cfg")?,
            detector: required(detector, TY, "detector")?,
            authenticator: required(authenticator, TY, "authenticator")?,
            response: required(response, TY, "response")?,
            tracker: required(tracker, TY, "tracker")?,
            buffers: required(buffers, TY, "buffers")?,
            recent: required(recent, TY, "recent")?,
            events: required(events, TY, "events")?,
            day: required(day, TY, "day")?,
            rng_state: required(rng_state, TY, "rng_state")?,
            planned_window: required(planned_window, TY, "planned_window")?,
            event_capacity: event_capacity.unwrap_or(crate::pipeline::DEFAULT_EVENT_CAPACITY),
            negative_epoch: negative_epoch.unwrap_or(None),
            retrain_tails: retrain_tails.unwrap_or([None, None]),
            retrain_mode: retrain_mode.unwrap_or(RetrainMode::Inline),
            retrain_in_flight: retrain_in_flight.unwrap_or(None),
        })
    }
}

/// Checks the format/version envelope at the head of a snapshot's
/// top-level object, before any body field is decoded, so an incompatible
/// snapshot fails with a version error rather than a missing-field error
/// from a different schema. Every snapshot this crate writes leads with
/// the two envelope fields, so the scan stops after them; other entries
/// met before both are found are skipped.
fn check_envelope<D: serde::Deserializer>(d: &mut D) -> Result<(), PersistError> {
    use serde::__private::{field, object, required};
    const TY: &str = "PipelineSnapshot";
    let read = |d: &mut D| -> Result<(String, u32), serde::DeError> {
        let (mut format, mut version) = (None, None);
        for _ in 0..object(d, TY)? {
            if format.is_some() && version.is_some() {
                break;
            }
            match d.key()? {
                "format" if format.is_none() => format = Some(field(d, TY, "format")?),
                "version" if version.is_none() => version = Some(field(d, TY, "version")?),
                _ => d.skip()?,
            }
        }
        Ok((
            required(format, TY, "format")?,
            required(version, TY, "version")?,
        ))
    };
    let (format, version) = read(d).map_err(|e| PersistError::Malformed(e.to_string()))?;
    if format != SNAPSHOT_FORMAT {
        return Err(PersistError::WrongFormat(format));
    }
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    Ok(())
}

impl PipelineSnapshot {
    /// Schema version recorded in this snapshot.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether the captured pipeline had finished enrollment.
    pub fn is_enrolled(&self) -> bool {
        self.authenticator.is_some()
    }

    /// Serializes to the binary wire form the stores write (see the
    /// [module docs](self#wire-format)).
    pub fn to_bytes(&self) -> Vec<u8> {
        wire::encode(self)
    }

    /// Decodes and schema-checks a snapshot from its binary wire form. A
    /// document starting with `{` is a legacy JSON snapshot and is read
    /// through [`PipelineSnapshot::from_json`].
    ///
    /// # Errors
    ///
    /// * [`PersistError::WrongFormat`] for bytes that are neither a binary
    ///   snapshot nor JSON, or a document of another format;
    /// * [`PersistError::UnsupportedVersion`] from the envelope check,
    ///   which runs before body decoding;
    /// * [`PersistError::Malformed`] for truncated or corrupt bytes and
    ///   invariant violations (see [`PipelineSnapshot::validate`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.first() == Some(&b'{') {
            let json = std::str::from_utf8(bytes)
                .map_err(|e| PersistError::Malformed(format!("legacy JSON snapshot: {e}")))?;
            return Self::from_json(json);
        }
        check_envelope(&mut wire::Reader::new(bytes)?)?;
        let snapshot: Self = wire::decode(bytes)?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Serializes to compact JSON: the debug and golden-fixture export.
    /// Stores write [`PipelineSnapshot::to_bytes`].
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot data model always serializes")
    }

    /// Parses and schema-checks a snapshot from its JSON form.
    ///
    /// # Errors
    ///
    /// * [`PersistError::Malformed`] for invalid JSON or invariant
    ///   violations (see [`PipelineSnapshot::validate`]);
    /// * [`PersistError::WrongFormat`] / [`PersistError::UnsupportedVersion`]
    ///   from the envelope check, which runs before body decoding.
    pub fn from_json(json: &str) -> Result<Self, PersistError> {
        let value: serde::Value =
            serde_json::from_str(json).map_err(|e| PersistError::Malformed(e.to_string()))?;
        check_envelope(&mut serde::ValueDeserializer::new(&value))?;
        let snapshot =
            Self::from_value(&value).map_err(|e| PersistError::Malformed(e.to_string()))?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Checks the cross-field invariants a structurally valid decode can
    /// still violate. [`SmarterYou::restore`] runs this too, so a snapshot
    /// assembled in memory gets the same scrutiny as one off the wire.
    ///
    /// # Errors
    ///
    /// [`PersistError`] variants as described on each check.
    pub fn validate(&self) -> Result<(), PersistError> {
        if self.format != SNAPSHOT_FORMAT {
            return Err(PersistError::WrongFormat(self.format.clone()));
        }
        if self.version != SNAPSHOT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: self.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if !self.day.is_finite() {
            return Err(PersistError::Malformed(format!(
                "non-finite clock day {}",
                self.day
            )));
        }
        if self.tracker.policy().period == 0 {
            return Err(PersistError::Malformed(
                "confidence tracker period is zero".into(),
            ));
        }
        // All-zero is xoshiro256++'s degenerate fixed point (every output
        // 0 forever) and unreachable from any real generator — a restored
        // pipeline must never sample from it silently.
        if self.rng_state == [0u64; 4] {
            return Err(PersistError::Malformed(
                "all-zero RNG state is not a valid generator".into(),
            ));
        }
        if self.event_capacity == 0 {
            return Err(PersistError::Malformed("event log capacity is zero".into()));
        }
        if let Some(retrain) = &self.retrain_in_flight {
            // The captured request replays a training call: its RNG state
            // and day obey the same invariants as the pipeline's own.
            if retrain.rng_state == [0u64; 4] {
                return Err(PersistError::Malformed(
                    "all-zero RNG state in the in-flight retrain".into(),
                ));
            }
            if !retrain.day.is_finite() {
                return Err(PersistError::Malformed(format!(
                    "non-finite in-flight retrain day {}",
                    retrain.day
                )));
            }
        }
        // Every buffered feature vector must share one width, and that
        // width must match the models that will score future windows.
        let mut width: Option<usize> = self.authenticator.as_ref().map(|a| a.num_features());
        let epoch_rows = self
            .negative_epoch
            .iter()
            .flat_map(|e| e.rows().iter().enumerate())
            .map(|(ctx, buf)| ("negative epoch", ctx, buf));
        let retrain_rows = self
            .retrain_in_flight
            .iter()
            .flat_map(|r| r.positives.iter().enumerate())
            .map(|(ctx, buf)| ("in-flight retrain", ctx, buf));
        for (kind, ctx, buf) in [("enrollment", &self.buffers), ("retrain", &self.recent)]
            .into_iter()
            .flat_map(|(kind, buffers)| buffers.iter().enumerate().map(move |(c, b)| (kind, c, b)))
            .chain(epoch_rows)
            .chain(retrain_rows)
        {
            for row in buf {
                match width {
                    None => width = Some(row.len()),
                    Some(w) if row.len() == w => {}
                    Some(w) => {
                        return Err(PersistError::Malformed(format!(
                            "{kind} buffer for context {ctx} holds a {}-feature \
                             vector where {w} features are expected",
                            row.len()
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Where evicted pipelines go. Implementations deal in whole snapshots and
/// must be durable enough for the deployment: an engine that evicts through
/// a store trusts [`SnapshotStore::load`] to return exactly what
/// [`SnapshotStore::save`] was given.
///
/// # Ownership epochs
///
/// When one store is shared by several engines (the sharded fleet), the
/// store doubles as the ownership arbiter: next to each snapshot it
/// persists a **monotonic per-user epoch**. An engine claims a user with
/// [`SnapshotStore::acquire`] (bumping the epoch) and passes its claimed
/// epoch to every [`SnapshotStore::save_fenced`]; a save carrying an epoch
/// older than the persisted one means another engine has since claimed the
/// user, and is rejected with [`PersistError::StaleEpoch`] — so two shards
/// can never both persist state for one live pipeline, whatever the
/// interleaving. Epochs survive restarts wherever the snapshots do.
pub trait SnapshotStore: fmt::Debug + Send {
    /// Persists `snapshot` under `id`, replacing any previous snapshot.
    /// Unfenced: single-engine deployments that never share the store may
    /// skip the epoch protocol.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] (or store-specific variants) on failure; the
    /// engine keeps the pipeline resident when a save fails.
    fn save(&mut self, id: UserId, snapshot: &PipelineSnapshot) -> Result<(), PersistError>;

    /// Loads the snapshot stored under `id`, or `None` when absent.
    ///
    /// Note: the engine leaves a user's last-saved snapshot in place after
    /// rehydrating them (a crash-recovery copy, overwritten by the next
    /// eviction), so a store may hold entries for currently resident users.
    ///
    /// # Errors
    ///
    /// Propagates storage and decode failures.
    fn load(&mut self, id: UserId) -> Result<Option<PipelineSnapshot>, PersistError>;

    /// Drops the snapshot stored under `id` (no-op when absent) — but
    /// **retains the ownership epoch as a tombstone**. Deleting the epoch
    /// would reset the fence to 0, letting an engine that still holds a
    /// stale claim pass [`SnapshotStore::save_fenced`] and resurrect a
    /// deregistered user; keeping it means such a save stays a typed
    /// [`PersistError::StaleEpoch`] even across remove + re-register.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on storage failure.
    fn remove(&mut self, id: UserId) -> Result<(), PersistError>;

    /// The ownership epoch persisted for `id` (0 when never acquired).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on storage failure.
    fn epoch(&mut self, id: UserId) -> Result<u64, PersistError>;

    /// Claims the next ownership epoch for `id`: persists and returns
    /// `epoch(id) + 1`. From this instant any engine still holding an older
    /// epoch is fenced out — its next [`SnapshotStore::save_fenced`] fails.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on storage failure.
    fn acquire(&mut self, id: UserId) -> Result<u64, PersistError>;

    /// Compare-and-swap form of [`SnapshotStore::acquire`]: claims epoch
    /// `expected + 1` **iff** the persisted epoch is exactly `expected`,
    /// returning the newly held epoch. A mismatch is a typed
    /// [`PersistError::StaleEpoch`] carrying the actual stored epoch — the
    /// caller lost an ownership race (or holds outdated knowledge) and
    /// must not adopt the user.
    ///
    /// The default implementation is check-then-acquire, which is atomic
    /// only for stores driven from one thread at a time; a store shared
    /// across threads or processes must make the CAS genuinely atomic
    /// ([`SharedSnapshotStore`] holds its mutex across the compound call,
    /// [`FileSnapshotStore`] serializes through a per-user lock file).
    ///
    /// # Errors
    ///
    /// [`PersistError::StaleEpoch`] when the stored epoch is not
    /// `expected`; [`PersistError::Io`] on storage failure.
    fn acquire_cas(&mut self, id: UserId, expected: u64) -> Result<u64, PersistError> {
        let stored = self.epoch(id)?;
        if stored != expected {
            return Err(PersistError::StaleEpoch {
                id,
                held: expected,
                stored,
            });
        }
        self.acquire(id)
    }

    /// [`SnapshotStore::save`] guarded by the ownership fence: rejected
    /// with [`PersistError::StaleEpoch`] when `epoch` is older than the
    /// persisted epoch for `id`. Nothing is written on rejection.
    ///
    /// # Errors
    ///
    /// [`PersistError::StaleEpoch`] on a lost ownership race;
    /// [`PersistError::Io`] on storage failure.
    fn save_fenced(
        &mut self,
        id: UserId,
        epoch: u64,
        snapshot: &PipelineSnapshot,
    ) -> Result<(), PersistError> {
        let stored = self.epoch(id)?;
        if epoch < stored {
            return Err(PersistError::StaleEpoch {
                id,
                held: epoch,
                stored,
            });
        }
        self.save(id, snapshot)
    }

    /// Number of snapshots currently stored. A convenience view that may
    /// report 0 when the backing storage is unreadable — callers that must
    /// distinguish "empty" from "broken" use [`SnapshotStore::try_len`].
    fn len(&self) -> usize;

    /// Number of snapshots currently stored, with storage failures
    /// surfaced instead of swallowed: an unreadable store directory is
    /// [`PersistError::Io`], never a silent `Ok(0)`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the backing storage cannot be enumerated.
    fn try_len(&self) -> Result<usize, PersistError> {
        Ok(self.len())
    }

    /// Whether the store holds no snapshots.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory [`SnapshotStore`] keeping each snapshot as its binary wire
/// form ([`PipelineSnapshot::to_bytes`]) — saves and loads go through the
/// full encode/decode path, so even in-process eviction proves the
/// round-trip, and the stored bytes are exactly what a cross-process shard
/// handoff would ship.
#[derive(Debug, Default)]
pub struct MemorySnapshotStore {
    entries: HashMap<usize, Vec<u8>>,
    epochs: HashMap<usize, u64>,
}

impl MemorySnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        MemorySnapshotStore::default()
    }

    /// Total bytes of serialized snapshots held.
    pub fn stored_bytes(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }
}

impl SnapshotStore for MemorySnapshotStore {
    fn save(&mut self, id: UserId, snapshot: &PipelineSnapshot) -> Result<(), PersistError> {
        // Overwrite the user's previous bytes in place, so a stored
        // snapshot never moves. Saves run on the tick's worker threads, and
        // glibc's allocator gives each thread an arena of its own: a fresh
        // buffer per save would land in the saving thread's arena while the
        // old one went back to its own, spreading the store across arenas
        // by a different amount in every run of an evicting fleet.
        wire::encode_into(self.entries.entry(id.0).or_default(), snapshot);
        Ok(())
    }

    fn load(&mut self, id: UserId) -> Result<Option<PipelineSnapshot>, PersistError> {
        self.entries
            .get(&id.0)
            .map(|bytes| PipelineSnapshot::from_bytes(bytes))
            .transpose()
    }

    fn remove(&mut self, id: UserId) -> Result<(), PersistError> {
        // The epoch stays behind as a tombstone — see the trait docs.
        self.entries.remove(&id.0);
        Ok(())
    }

    fn epoch(&mut self, id: UserId) -> Result<u64, PersistError> {
        Ok(self.epochs.get(&id.0).copied().unwrap_or(0))
    }

    fn acquire(&mut self, id: UserId) -> Result<u64, PersistError> {
        let epoch = self.epochs.entry(id.0).or_insert(0);
        *epoch += 1;
        Ok(*epoch)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One write-ahead-journal record: the intent (or commit) of a compound
/// store operation, persisted *before* the operation's data write so a
/// crash in between leaves evidence instead of ambiguity. One record per
/// journal file; the journal itself is written atomically, so recovery
/// only ever sees a whole record or no journal at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JournalRecord {
    /// `"save"`, `"acquire"`, or `"remove"`.
    op: String,
    /// `"intent"` (data write may or may not have landed) or `"commit"`
    /// (data write landed; only the journal cleanup remained).
    state: String,
    /// For saves: the fence epoch the save carried (0 when unfenced).
    /// For acquires: the epoch being claimed.
    epoch: u64,
    /// For saves: FNV-1a hash of the snapshot wire bytes being written, so
    /// recovery can tell whether the data write landed.
    hash: u64,
    /// For saves: byte length of the snapshot wire bytes (a cheap
    /// pre-filter for the hash comparison).
    len: u64,
}

/// How a stranded write-ahead journal was resolved during recovery — the
/// store's verdict on what a crashed process's in-flight operation
/// amounted to. Survivors use this to pick the correct replay point: a
/// committed save means the crashed owner's last window checkpoint landed;
/// a rolled-back save means it did not and the window must be re-derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalResolution {
    /// The interrupted save's data write landed (or the save had already
    /// committed); the stored snapshot is the journaled one.
    SaveCommitted {
        /// Fence epoch the save carried (0 when unfenced).
        epoch: u64,
    },
    /// The interrupted save never wrote its data; the stored snapshot is
    /// the previous committed one.
    SaveRolledBack {
        /// Fence epoch the save carried (0 when unfenced).
        epoch: u64,
    },
    /// The interrupted acquire's epoch bump landed: the (now dead) claimant
    /// holds `to` on disk, and the next CAS must expect it.
    AcquireCommitted {
        /// The epoch the crashed claimant had claimed.
        to: u64,
    },
    /// The interrupted acquire never bumped the epoch; the previous owner's
    /// claim stands.
    AcquireRolledBack {
        /// The epoch the crashed claimant was trying to claim.
        to: u64,
    },
    /// The interrupted remove deleted the snapshot (tombstoned epoch
    /// retained either way).
    RemoveCommitted,
    /// The interrupted remove never deleted the snapshot.
    RemoveRolledBack,
}

/// What [`FileSnapshotStore::new`] cleaned up while opening a directory —
/// the crash debris of whatever process died over it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Orphaned `*.tmp` files swept (a crash between temp-write and
    /// rename). Never counted by `len()` and never loadable. Temps of a
    /// user whose lock a live process holds are not swept.
    pub swept_temps: usize,
    /// Per-user lock files whose holding process is provably dead.
    pub stale_locks: usize,
    /// Stranded journals resolved, as `(file stem, resolution)` pairs.
    pub journals: Vec<(String, JournalResolution)>,
}

/// RAII guard for a per-user lock file: the path exists for exactly as
/// long as the guard lives. Dropped on unwind too — which is why the
/// crash-faithful fault mode is `abort` (no unwinding), leaving the lock
/// held for the survivor's staleness check to reap.
#[derive(Debug)]
struct StemLock {
    path: PathBuf,
}

impl Drop for StemLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// FNV-1a over the snapshot wire bytes: cheap, dependency-free, and stable
/// across processes — exactly what the journal needs to decide whether an
/// interrupted data write landed (this is integrity evidence against a
/// *crash*, not an adversary).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Start time of process `pid`, in clock ticks since boot: field 22 of
/// `/proc/<pid>/stat`. `None` where procfs is absent or unreadable. With
/// the PID it names a process uniquely, even across PID reuse.
fn process_start_time(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Field 2 is the command name in parentheses and may itself contain
    // spaces or parentheses, so count fields from the last `)`: the field
    // after it is field 3, making field 22 the 20th.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

/// What this process writes into the lock files it creates:
/// `pid:starttime`, or a bare `pid` where the start time is unavailable.
fn own_lock_stamp() -> &'static str {
    static STAMP: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    STAMP.get_or_init(|| {
        let pid = std::process::id();
        match process_start_time(pid) {
            Some(start) => format!("{pid}:{start}"),
            None => pid.to_string(),
        }
    })
}

/// Parses a lock stamp into `(pid, start time)`: `pid:starttime`, or the
/// bare `pid` that older builds wrote. `None` for anything else.
fn parse_lock_stamp(content: &str) -> Option<(u32, Option<u64>)> {
    let content = content.trim();
    match content.split_once(':') {
        Some((pid, start)) => Some((pid.parse().ok()?, Some(start.parse().ok()?))),
        None => Some((content.parse().ok()?, None)),
    }
}

/// How long a lock attempt spins against a *live* holder before giving up
/// with a typed error. Compound store ops are milliseconds; seconds of
/// contention means something is wedged.
const LOCK_PATIENCE: Duration = Duration::from_secs(5);
/// Sleep between lock attempts while a live holder works.
const LOCK_RETRY_SLEEP: Duration = Duration::from_millis(2);
/// Age past which a lock file with no readable holder PID (the holder died
/// between creating the file and writing its PID, or the platform has no
/// liveness probe) is considered abandoned.
const LOCK_UNKNOWN_HOLDER_GRACE: Duration = Duration::from_secs(10);
/// Bound on unconditional-acquire CAS retries; beyond this the store
/// reports contention instead of livelocking.
const ACQUIRE_RETRY_LIMIT: u32 = 64;

/// File-backed [`SnapshotStore`]: one `<user>.snapshot.json` per user in a
/// directory, holding the binary wire form ([`PipelineSnapshot::to_bytes`])
/// and written atomically (temp file + rename) so a crash mid-save never
/// leaves a truncated snapshot under the user's name. The `.json` suffix is
/// historical: directories written by older builds hold JSON under the
/// same names, and [`SnapshotStore::load`] still reads them.
///
/// # Cross-process crash safety
///
/// This store is safe to share between OS processes over one directory:
///
/// * Every compound operation (fenced save, epoch acquire, remove) is
///   serialized by a per-user **lock file** (`<user>.lock`, created with
///   `O_EXCL`, stamped `pid:starttime` by its owner). A lock whose holder
///   is provably dead — its PID is gone, or now names a process with a
///   different start time — is stolen and the dead holder's debris
///   recovered first.
/// * Each compound operation runs under a per-user **write-ahead journal**
///   (`<user>.journal`): intent record → data write → commit record →
///   journal removal, every step an atomic rename. A process killed at any
///   point leaves a journal that [`FileSnapshotStore::new`] (or the next
///   lock winner) resolves to a consistent snapshot+epoch pair — see
///   [`JournalResolution`].
/// * [`SnapshotStore::acquire_cas`] is a true compare-and-swap under the
///   lock: of N processes racing to claim epoch `e+1`, exactly one wins
///   and the rest get typed [`PersistError::StaleEpoch`].
///
/// A [`FaultPlan`] can be injected at construction to kill the process at
/// any labeled protocol point ([`crate::fault::points`]); production code
/// paths pay one branch per point.
#[derive(Debug)]
pub struct FileSnapshotStore {
    dir: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    recovery: RecoveryReport,
}

impl FileSnapshotStore {
    /// Opens (creating if needed) a snapshot directory, then runs crash
    /// recovery over it: reaps lock files whose holders are dead, then
    /// sweeps orphaned `*.tmp` files and resolves stranded write-ahead
    /// journals of every user whose lock it can take. A user locked by a
    /// live process is left to that process. The findings are available
    /// from [`FileSnapshotStore::recovery_report`].
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created or
    /// enumerated; [`PersistError::Malformed`] when a stranded journal is
    /// unparseable.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        Self::open(dir.into(), None)
    }

    /// [`FileSnapshotStore::new`] with a kill-point [`FaultPlan`] armed —
    /// the crash-recovery test matrix's entry point.
    ///
    /// # Errors
    ///
    /// As [`FileSnapshotStore::new`].
    pub fn with_fault_plan(
        dir: impl Into<PathBuf>,
        plan: Arc<FaultPlan>,
    ) -> Result<Self, PersistError> {
        Self::open(dir.into(), Some(plan))
    }

    fn open(dir: PathBuf, fault: Option<Arc<FaultPlan>>) -> Result<Self, PersistError> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| PersistError::Io(format!("create {}: {e}", dir.display())))?;
        let mut store = FileSnapshotStore {
            dir,
            fault,
            recovery: RecoveryReport::default(),
        };
        store.recovery = store.recover_all()?;
        Ok(store)
    }

    /// The directory snapshots are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What opening this store cleaned up (crash debris of a previous
    /// process). Survivor logic reads the journal resolutions here to pick
    /// its replay point after adopting a crashed node's users.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Runs crash recovery for one user on demand: takes the per-user lock
    /// (stealing it from a dead holder if needed) and resolves any
    /// stranded journal. Returns the resolution, or `None` when there was
    /// nothing to recover. Useful when adopting a user from a node that
    /// died *after* this store was opened.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on lock contention against a live holder or
    /// storage failure; [`PersistError::Malformed`] for an unparseable
    /// journal.
    pub fn recover_user(&mut self, id: UserId) -> Result<Option<JournalResolution>, PersistError> {
        let stem = id.to_string();
        let (_lock, resolution) = self.lock_stem(&stem)?;
        Ok(resolution)
    }

    fn snapshot_path_of(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.snapshot.json"))
    }

    /// Sidecar carrying the ownership epoch — separate from the snapshot so
    /// pre-epoch snapshot files keep loading (a missing sidecar reads as
    /// epoch 0) and an [`SnapshotStore::acquire`] never rewrites the (much
    /// larger) snapshot body.
    fn epoch_path_of(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.epoch"))
    }

    fn lock_path_of(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.lock"))
    }

    fn journal_path_of(&self, stem: &str) -> PathBuf {
        self.dir.join(format!("{stem}.journal"))
    }

    fn fault_hit(&self, label: &str) {
        if let Some(plan) = &self.fault {
            plan.hit(label);
        }
    }

    /// Atomically writes `content` to `path` (temp file + fsync + rename +
    /// directory sync), so a crash mid-write never leaves a truncated file
    /// under the final name.
    fn write_atomic(&self, path: &Path, content: &[u8]) -> Result<(), PersistError> {
        use std::io::Write;
        let tmp = path.with_extension(
            path.extension()
                .map(|e| format!("{}.tmp", e.to_string_lossy()))
                .unwrap_or_else(|| "tmp".to_string()),
        );
        // Write + fsync the temp file *before* the rename: journalling
        // filesystems may commit the rename ahead of the data blocks, and
        // an un-synced rename could surface an empty file under the final
        // name after a crash.
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| PersistError::Io(format!("create {}: {e}", tmp.display())))?;
        file.write_all(content)
            .map_err(|e| PersistError::Io(format!("write {}: {e}", tmp.display())))?;
        file.sync_all()
            .map_err(|e| PersistError::Io(format!("sync {}: {e}", tmp.display())))?;
        drop(file);
        std::fs::rename(&tmp, path)
            .map_err(|e| PersistError::Io(format!("rename to {}: {e}", path.display())))?;
        // Sync the directory too: callers drop their in-memory copy the
        // moment this returns, so the rename itself must be durable, not
        // just the file contents.
        std::fs::File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| PersistError::Io(format!("sync {}: {e}", self.dir.display())))
    }

    /// Atomically replaces `stem`'s journal with `record`.
    fn write_journal(&self, stem: &str, record: &JournalRecord) -> Result<(), PersistError> {
        let text = serde_json::to_string(record).expect("journal record serializes");
        self.write_atomic(&self.journal_path_of(stem), text.as_bytes())
    }

    /// Whether the process named in a lock file is provably no longer
    /// running. Conservative: "unknown" means *not* dead (except for very
    /// old locks with no readable PID).
    fn lock_holder_dead(path: &Path) -> bool {
        let content = std::fs::read_to_string(path).unwrap_or_default();
        match parse_lock_stamp(&content) {
            Some((pid, stamped_start)) if cfg!(target_os = "linux") => {
                if !Path::new("/proc").join(pid.to_string()).exists() {
                    return true;
                }
                // A live PID is the holder only if it is the same process:
                // one recycled since the lock was stamped started later.
                // A legacy bare-PID stamp, or an unreadable start time,
                // reads as alive — the safe direction (we wait instead of
                // stealing a live holder's lock).
                matches!(
                    (stamped_start, process_start_time(pid)),
                    (Some(stamped), Some(now)) if stamped != now
                )
            }
            Some((pid, _)) if pid == std::process::id() => false,
            // No liveness probe on this platform, or the holder died
            // between creating the lock and stamping it (or the file is
            // unreadable): only age can convict it.
            _ => Self::lock_older_than(path, LOCK_UNKNOWN_HOLDER_GRACE),
        }
    }

    fn lock_older_than(path: &Path, age: Duration) -> bool {
        path.metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .map(|elapsed| elapsed > age)
            .unwrap_or(false)
    }

    /// One attempt to take the per-user lock: `Ok(Some(..))` on success
    /// (with any stranded journal already resolved), `Ok(None)` when a
    /// live process holds it. Dead holders are reaped inline.
    fn try_lock_stem(
        &self,
        stem: &str,
    ) -> Result<Option<(StemLock, Option<JournalResolution>)>, PersistError> {
        use std::io::Write;
        let path = self.lock_path_of(stem);
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Best-effort stamp: failing to write it only degrades
                    // a future staleness check to the age rule.
                    let _ = file.write_all(own_lock_stamp().as_bytes());
                    let _ = file.sync_all();
                    let guard = StemLock { path };
                    // Whoever wins the lock inherits the duty of resolving
                    // the previous (possibly crashed) holder's journal
                    // before building on the files it governs.
                    let resolution = self.resolve_journal(stem)?;
                    return Ok(Some((guard, resolution)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Self::lock_holder_dead(&path) {
                        // Reap and retry; racing survivors may both
                        // remove (idempotent) — exactly one wins the
                        // subsequent create_new.
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    return Ok(None);
                }
                Err(e) => {
                    return Err(PersistError::Io(format!(
                        "create lock {}: {e}",
                        path.display()
                    )));
                }
            }
        }
    }

    /// Takes the per-user lock, waiting out a live holder up to
    /// [`LOCK_PATIENCE`]. Returns the guard plus any journal resolution
    /// performed on the way in.
    fn lock_stem(&self, stem: &str) -> Result<(StemLock, Option<JournalResolution>), PersistError> {
        let deadline = std::time::Instant::now() + LOCK_PATIENCE;
        loop {
            if let Some(locked) = self.try_lock_stem(stem)? {
                return Ok(locked);
            }
            if std::time::Instant::now() >= deadline {
                return Err(PersistError::Io(format!(
                    "lock {}: held by a live process past {:?}",
                    self.lock_path_of(stem).display(),
                    LOCK_PATIENCE
                )));
            }
            std::thread::sleep(LOCK_RETRY_SLEEP);
        }
    }

    /// Resolves the stranded journal for `stem`, if any. Caller must hold
    /// the per-user lock (or otherwise have exclusive access). See
    /// [`JournalResolution`] for the verdicts; the journal file is removed
    /// once resolved.
    fn resolve_journal(&self, stem: &str) -> Result<Option<JournalResolution>, PersistError> {
        let jpath = self.journal_path_of(stem);
        let text = match std::fs::read_to_string(&jpath) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(PersistError::Io(format!("read {}: {e}", jpath.display()))),
        };
        let record: JournalRecord = serde_json::from_str(&text)
            .map_err(|e| PersistError::Malformed(format!("journal {}: {e}", jpath.display())))?;
        let resolution = match (record.op.as_str(), record.state.as_str()) {
            ("save", "commit") => JournalResolution::SaveCommitted {
                epoch: record.epoch,
            },
            ("save", "intent") => {
                // Did the interrupted data write land? The snapshot file
                // is only ever replaced by a whole atomic rename, so its
                // content is either the journaled write or the previous
                // committed one — the hash decides which.
                let landed = match std::fs::read(self.snapshot_path_of(stem)) {
                    Ok(bytes) => bytes.len() as u64 == record.len && fnv1a(&bytes) == record.hash,
                    Err(_) => false,
                };
                if landed {
                    JournalResolution::SaveCommitted {
                        epoch: record.epoch,
                    }
                } else {
                    JournalResolution::SaveRolledBack {
                        epoch: record.epoch,
                    }
                }
            }
            ("acquire", "commit") => JournalResolution::AcquireCommitted { to: record.epoch },
            ("acquire", "intent") => {
                let stored = self.read_epoch(stem)?;
                if stored >= record.epoch {
                    JournalResolution::AcquireCommitted { to: record.epoch }
                } else {
                    JournalResolution::AcquireRolledBack { to: record.epoch }
                }
            }
            ("remove", "commit") => JournalResolution::RemoveCommitted,
            ("remove", "intent") => {
                if self.snapshot_path_of(stem).exists() {
                    JournalResolution::RemoveRolledBack
                } else {
                    JournalResolution::RemoveCommitted
                }
            }
            (op, state) => {
                return Err(PersistError::Malformed(format!(
                    "journal {}: unknown op/state `{op}`/`{state}`",
                    jpath.display()
                )));
            }
        };
        self.remove_journal(stem)?;
        Ok(Some(resolution))
    }

    /// Removes the journal file (the final step of every compound op) and
    /// makes the removal durable.
    fn remove_journal(&self, stem: &str) -> Result<(), PersistError> {
        let jpath = self.journal_path_of(stem);
        match std::fs::remove_file(&jpath) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(PersistError::Io(format!("remove {}: {e}", jpath.display()))),
        }
        std::fs::File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| PersistError::Io(format!("sync {}: {e}", self.dir.display())))
    }

    /// Reads the epoch sidecar for `stem` (0 when absent). A corrupt
    /// sidecar is on-disk corruption, not transient I/O — typed
    /// [`PersistError::Malformed`] so recovery policy can tell them apart.
    fn read_epoch(&self, stem: &str) -> Result<u64, PersistError> {
        let path = self.epoch_path_of(stem);
        match std::fs::read_to_string(&path) {
            Ok(text) => text.trim().parse::<u64>().map_err(|e| {
                PersistError::Malformed(format!("corrupt epoch file {}: {e}", path.display()))
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(PersistError::Io(format!("read {}: {e}", path.display()))),
        }
    }

    /// The open-time sweep: dead holders' locks first, then each user's
    /// orphaned temps and stranded journal, under that user's lock. Users
    /// whose lock is held by a *live* process are skipped entirely — that
    /// holder owns their cleanup, and since every `write_atomic` runs under
    /// the per-user lock, a temp next to a live lock may be a write in
    /// flight.
    fn recover_all(&mut self) -> Result<RecoveryReport, PersistError> {
        let mut report = RecoveryReport::default();
        let mut locks = Vec::new();
        // Per-user debris, keyed by file stem: the user's temps (empty
        // when the user only has a journal).
        let mut debris: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| PersistError::Io(format!("read dir {}: {e}", self.dir.display())))?;
        for entry in entries {
            let entry = entry
                .map_err(|e| PersistError::Io(format!("read dir {}: {e}", self.dir.display())))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let stem = name.split('.').next().unwrap_or_default().to_string();
            if name.ends_with(".tmp") {
                debris.entry(stem).or_default().push(entry.path());
            } else if name.ends_with(".lock") {
                locks.push(entry.path());
            } else if name.ends_with(".journal") {
                debris.entry(stem).or_default();
            }
        }
        for lock in locks {
            if Self::lock_holder_dead(&lock) && std::fs::remove_file(&lock).is_ok() {
                report.stale_locks += 1;
            }
        }
        for (stem, temps) in debris {
            // Try once and move on: a live holder finishes its own write.
            // Taking the lock resolves the journal; the temps go after it,
            // since a journal is only ever read under its final name.
            let Some((_lock, resolution)) = self.try_lock_stem(&stem)? else {
                continue;
            };
            for tmp in temps {
                if std::fs::remove_file(&tmp).is_ok() {
                    report.swept_temps += 1;
                }
            }
            if let Some(resolution) = resolution {
                report.journals.push((stem, resolution));
            }
        }
        Ok(report)
    }

    /// The shared body of [`SnapshotStore::save`] and
    /// [`SnapshotStore::save_fenced`]: fence check (when `fence` is given),
    /// then journaled atomic write, all under the per-user lock.
    fn save_journaled(
        &mut self,
        id: UserId,
        snapshot: &PipelineSnapshot,
        fence: Option<u64>,
    ) -> Result<(), PersistError> {
        self.fault_hit(points::SAVE_ENTER);
        let stem = id.to_string();
        let (_lock, _prior) = self.lock_stem(&stem)?;
        if let Some(held) = fence {
            let stored = self.read_epoch(&stem)?;
            if held < stored {
                return Err(PersistError::StaleEpoch { id, held, stored });
            }
        }
        let bytes = snapshot.to_bytes();
        let mut record = JournalRecord {
            op: "save".to_string(),
            state: "intent".to_string(),
            epoch: fence.unwrap_or(0),
            hash: fnv1a(&bytes),
            len: bytes.len() as u64,
        };
        self.write_journal(&stem, &record)?;
        self.fault_hit(points::SAVE_INTENT);
        self.write_atomic(&self.snapshot_path_of(&stem), &bytes)?;
        self.fault_hit(points::SAVE_DATA);
        record.state = "commit".to_string();
        self.write_journal(&stem, &record)?;
        self.fault_hit(points::SAVE_COMMIT);
        self.remove_journal(&stem)
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn save(&mut self, id: UserId, snapshot: &PipelineSnapshot) -> Result<(), PersistError> {
        self.save_journaled(id, snapshot, None)
    }

    fn save_fenced(
        &mut self,
        id: UserId,
        epoch: u64,
        snapshot: &PipelineSnapshot,
    ) -> Result<(), PersistError> {
        // Unlike the trait's default check-then-save, the check and the
        // write share one per-user lock hold — a concurrent cross-process
        // acquire cannot slip between them.
        self.save_journaled(id, snapshot, Some(epoch))
    }

    fn load(&mut self, id: UserId) -> Result<Option<PipelineSnapshot>, PersistError> {
        let path = self.snapshot_path_of(&id.to_string());
        match std::fs::read(&path) {
            Ok(bytes) => PipelineSnapshot::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PersistError::Io(format!("read {}: {e}", path.display()))),
        }
    }

    fn remove(&mut self, id: UserId) -> Result<(), PersistError> {
        self.fault_hit(points::REMOVE_ENTER);
        let stem = id.to_string();
        let (_lock, _prior) = self.lock_stem(&stem)?;
        let record = JournalRecord {
            op: "remove".to_string(),
            state: "intent".to_string(),
            epoch: 0,
            hash: 0,
            len: 0,
        };
        self.write_journal(&stem, &record)?;
        let path = self.snapshot_path_of(&stem);
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(PersistError::Io(format!("remove {}: {e}", path.display()))),
        }
        self.fault_hit(points::REMOVE_DATA);
        // The `.epoch` sidecar is deliberately left behind as a tombstone —
        // see the trait docs on `remove`.
        self.remove_journal(&stem)
    }

    fn epoch(&mut self, id: UserId) -> Result<u64, PersistError> {
        self.read_epoch(&id.to_string())
    }

    fn acquire(&mut self, id: UserId) -> Result<u64, PersistError> {
        // Unconditional claim as a bounded CAS retry loop: each round reads
        // the current epoch and race-safely claims the next; losing a round
        // just means someone else moved the epoch first.
        for _ in 0..ACQUIRE_RETRY_LIMIT {
            let current = self.epoch(id)?;
            match self.acquire_cas(id, current) {
                Err(PersistError::StaleEpoch { .. }) => continue,
                outcome => return outcome,
            }
        }
        Err(PersistError::Io(format!(
            "acquire {id}: CAS retry limit ({ACQUIRE_RETRY_LIMIT}) exhausted under contention"
        )))
    }

    fn acquire_cas(&mut self, id: UserId, expected: u64) -> Result<u64, PersistError> {
        self.fault_hit(points::ACQUIRE_ENTER);
        let stem = id.to_string();
        let (_lock, _prior) = self.lock_stem(&stem)?;
        let stored = self.read_epoch(&stem)?;
        if stored != expected {
            return Err(PersistError::StaleEpoch {
                id,
                held: expected,
                stored,
            });
        }
        let next = expected + 1;
        let mut record = JournalRecord {
            op: "acquire".to_string(),
            state: "intent".to_string(),
            epoch: next,
            hash: 0,
            len: 0,
        };
        self.write_journal(&stem, &record)?;
        self.fault_hit(points::ACQUIRE_INTENT);
        self.write_atomic(&self.epoch_path_of(&stem), next.to_string().as_bytes())?;
        self.fault_hit(points::ACQUIRE_EPOCH);
        record.state = "commit".to_string();
        self.write_journal(&stem, &record)?;
        self.fault_hit(points::ACQUIRE_COMMIT);
        self.remove_journal(&stem)?;
        Ok(next)
    }

    fn len(&self) -> usize {
        self.try_len().unwrap_or(0)
    }

    fn try_len(&self) -> Result<usize, PersistError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| PersistError::Io(format!("read dir {}: {e}", self.dir.display())))?;
        let mut count = 0;
        for entry in entries {
            let entry = entry
                .map_err(|e| PersistError::Io(format!("read dir {}: {e}", self.dir.display())))?;
            if entry
                .file_name()
                .to_string_lossy()
                .ends_with(".snapshot.json")
            {
                count += 1;
            }
        }
        Ok(count)
    }
}

/// A cloneable [`SnapshotStore`] handle letting several engines — the
/// shards of a [`ShardedFleet`](crate::engine::shard::ShardedFleet) —
/// share one underlying store. Every operation takes the store mutex, so a
/// compound fenced save (epoch check + write) is atomic with respect to
/// the other shards, which is exactly what makes the ownership fence
/// race-free in-process. For cross-process sharding the same contract must
/// come from the backing storage (compare-and-swap on the epoch).
#[derive(Debug, Clone)]
pub struct SharedSnapshotStore {
    inner: std::sync::Arc<parking_lot::Mutex<Box<dyn SnapshotStore>>>,
}

impl SharedSnapshotStore {
    /// Wraps `store` for sharing; clone the handle once per shard.
    pub fn new(store: Box<dyn SnapshotStore>) -> Self {
        SharedSnapshotStore {
            inner: std::sync::Arc::new(parking_lot::Mutex::new(store)),
        }
    }

    /// Runs `f` with exclusive access to the underlying store (e.g. for
    /// operational tooling inspecting parked snapshots).
    pub fn with_store<R>(&self, f: impl FnOnce(&mut dyn SnapshotStore) -> R) -> R {
        f(&mut **self.inner.lock())
    }
}

impl SnapshotStore for SharedSnapshotStore {
    fn save(&mut self, id: UserId, snapshot: &PipelineSnapshot) -> Result<(), PersistError> {
        self.inner.lock().save(id, snapshot)
    }

    fn load(&mut self, id: UserId) -> Result<Option<PipelineSnapshot>, PersistError> {
        self.inner.lock().load(id)
    }

    fn remove(&mut self, id: UserId) -> Result<(), PersistError> {
        self.inner.lock().remove(id)
    }

    fn epoch(&mut self, id: UserId) -> Result<u64, PersistError> {
        self.inner.lock().epoch(id)
    }

    fn acquire(&mut self, id: UserId) -> Result<u64, PersistError> {
        self.inner.lock().acquire(id)
    }

    fn acquire_cas(&mut self, id: UserId, expected: u64) -> Result<u64, PersistError> {
        // One mutex hold across the whole compound CAS — in-process racers
        // serialize here; the inner store's own protocol (if any) handles
        // cross-process racers.
        self.inner.lock().acquire_cas(id, expected)
    }

    fn save_fenced(
        &mut self,
        id: UserId,
        epoch: u64,
        snapshot: &PipelineSnapshot,
    ) -> Result<(), PersistError> {
        // One mutex hold across check + write: the fence must not
        // interleave with another shard's acquire. Delegating (rather than
        // re-implementing check-then-save here) also preserves the inner
        // store's own compound protocol — a file-backed store fences under
        // its cross-process per-user lock.
        self.inner.lock().save_fenced(id, epoch, snapshot)
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }

    fn try_len(&self) -> Result<usize, PersistError> {
        self.inner.lock().try_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal structurally valid snapshot (enrollment phase, nothing
    /// buffered) for format-level tests; full-pipeline round-trips live in
    /// the integration suites.
    fn minimal_snapshot() -> PipelineSnapshot {
        use crate::features::FeatureExtractor;
        use crate::response::ResponsePolicy;
        use crate::retrain::RetrainPolicy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let extractor = FeatureExtractor::paper_default(50.0);
        let mut rng: StdRng = SeedableRng::seed_from_u64(7);
        let detector = crate::context_detect::ContextDetector::train(
            extractor,
            &[
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![0.1, 0.9],
                vec![0.9, 0.1],
            ],
            &[
                smarteryou_sensors::UsageContext::Stationary,
                smarteryou_sensors::UsageContext::Moving,
                smarteryou_sensors::UsageContext::Stationary,
                smarteryou_sensors::UsageContext::Moving,
            ],
            crate::context_detect::ContextDetectorConfig {
                num_trees: 2,
                max_depth: 2,
            },
            &mut rng,
        )
        .unwrap();
        PipelineSnapshot {
            format: SNAPSHOT_FORMAT.to_string(),
            version: SNAPSHOT_VERSION,
            cfg: SystemConfig::paper_default(),
            detector,
            authenticator: None,
            response: ResponseModule::new(ResponsePolicy::default()),
            tracker: ConfidenceTracker::new(RetrainPolicy::default()),
            buffers: [vec![vec![1.0, 2.0]], Vec::new()],
            recent: [Vec::new(), Vec::new()],
            events: vec![SystemEvent::EnrollmentComplete { day: 0.5 }],
            day: 0.5,
            rng_state: [1, 2, 3, u64::MAX],
            planned_window: Some(WindowSpec::from_seconds(6.0, 50.0)),
            event_capacity: crate::pipeline::DEFAULT_EVENT_CAPACITY,
            negative_epoch: None,
            retrain_tails: [None, None],
            retrain_mode: RetrainMode::Inline,
            retrain_in_flight: None,
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let snap = minimal_snapshot();
        let back = PipelineSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.version(), SNAPSHOT_VERSION);
        assert!(!back.is_enrolled());
    }

    #[test]
    fn binary_roundtrip_agrees_with_json_and_reads_legacy_json() {
        let snap = minimal_snapshot();
        let bytes = snap.to_bytes();
        let json = snap.to_json();
        assert!(bytes.starts_with(&wire::MAGIC));
        assert!(
            bytes.len() < json.len(),
            "{} vs {}",
            bytes.len(),
            json.len()
        );
        let back = PipelineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back, PipelineSnapshot::from_json(&json).unwrap());
        // A legacy JSON snapshot handed to the binary reader still loads.
        assert_eq!(PipelineSnapshot::from_bytes(json.as_bytes()).unwrap(), snap);
        assert!(matches!(
            PipelineSnapshot::from_bytes(b"{\"format\":"),
            Err(PersistError::Malformed(_))
        ));
    }

    /// Struct fields decode by name on both wire forms: entries in any
    /// order after the envelope, unknown keys skipped at any depth, and the
    /// first occurrence of a repeated key winning (as `Value::get` does).
    #[test]
    fn both_wire_forms_apply_the_field_rules() {
        use serde::{Serialize, Value};

        fn entries(value: &mut Value) -> &mut Vec<(String, Value)> {
            match value {
                Value::Object(entries) => entries,
                other => panic!("expected an object, found {}", other.kind()),
            }
        }
        fn reverse_objects(value: &mut Value) {
            match value {
                Value::Object(entries) => {
                    entries.reverse();
                    entries.iter_mut().for_each(|(_, v)| reverse_objects(v));
                }
                Value::Array(items) => items.iter_mut().for_each(reverse_objects),
                _ => {}
            }
        }

        let mut snap = minimal_snapshot();
        snap.retrain_mode = RetrainMode::Deferred;
        snap.retrain_in_flight = Some(PersistedRetrain {
            positives: [vec![vec![3.0, 4.0]], Vec::new()],
            rng_state: [9, 8, 7, 6],
            negative_epoch: None,
            retrain_tails: [None, None],
            day: 1.25,
        });
        let mut tree = snap.to_value();
        let top = entries(&mut tree);
        let body: Vec<_> = top.drain(2..).rev().collect();
        assert_eq!(
            [top[0].0.as_str(), top[1].0.as_str()],
            ["format", "version"],
            "the envelope leads"
        );
        top.extend(body);
        top.iter_mut().skip(2).for_each(|(_, v)| reverse_objects(v));
        // Unknown keys at the top level and inside a nested struct …
        top.push((
            "added_later".into(),
            Value::Array(vec![Value::Str("x".into()), Value::Object(Vec::new())]),
        ));
        let (_, cfg) = top.iter_mut().find(|(k, _)| k == "cfg").expect("cfg");
        entries(cfg).insert(1, ("unknown_knob".into(), Value::Float(0.5)));
        // … and a repeated key, whose first occurrence wins.
        top.push(("day".into(), Value::Float(snap.day + 7.0)));

        let json = serde_json::to_string(&tree).unwrap();
        assert_eq!(PipelineSnapshot::from_json(&json).unwrap(), snap);
        assert_eq!(
            PipelineSnapshot::from_bytes(&wire::encode(&tree)).unwrap(),
            snap
        );

        // An unknown key whose value nests far past MAX_DEPTH: the skip
        // stops at the limit with a typed error, however deep the bytes go.
        entries(&mut tree).push(("deep".into(), Value::Null));
        let mut deep = wire::encode(&tree);
        assert_eq!(
            deep.pop(),
            Some(0x00),
            "the placeholder null ends the bytes"
        );
        for _ in 0..100_000 {
            deep.extend_from_slice(&[0x07, 0x01]); // a one-item array
        }
        deep.push(0x00);
        assert!(matches!(
            PipelineSnapshot::from_bytes(&deep),
            Err(PersistError::Malformed(msg)) if msg.contains("nesting")
        ));
    }

    #[test]
    fn legacy_json_nested_past_the_parser_limit_is_malformed() {
        // The JSON form of the case above: an unknown key whose value nests
        // 100,000 levels deep. The parser stops at its depth limit with a
        // typed error instead of recursing once per level.
        use serde::{Serialize, Value};

        let mut tree = minimal_snapshot().to_value();
        match &mut tree {
            Value::Object(entries) => entries.push(("deep".into(), Value::Null)),
            other => panic!("expected an object, found {}", other.kind()),
        }
        let json = serde_json::to_string(&tree).unwrap();
        let nested = format!("\"deep\":{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let json = json.replacen("\"deep\":null", &nested, 1);
        assert!(json.len() > 200_000, "the placeholder was replaced");
        for result in [
            PipelineSnapshot::from_json(&json),
            PipelineSnapshot::from_bytes(json.as_bytes()),
        ] {
            assert!(matches!(
                result,
                Err(PersistError::Malformed(msg)) if msg.contains("nesting")
            ));
        }
    }

    #[test]
    fn binary_truncation_at_every_offset_is_malformed() {
        let bytes = minimal_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    PipelineSnapshot::from_bytes(&bytes[..cut]),
                    Err(PersistError::Malformed(_))
                ),
                "truncation at byte {cut} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn wrong_format_and_version_are_typed_errors() {
        let snap = minimal_snapshot();
        let json = snap.to_json();
        let wrong = json.replacen(SNAPSHOT_FORMAT, "someone.else", 1);
        assert!(matches!(
            PipelineSnapshot::from_json(&wrong),
            Err(PersistError::WrongFormat(f)) if f == "someone.else"
        ));
        let newer = json.replacen("\"version\":1", "\"version\":2", 1);
        assert_ne!(newer, json);
        assert!(matches!(
            PipelineSnapshot::from_json(&newer),
            Err(PersistError::UnsupportedVersion {
                found: 2,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    #[test]
    fn ragged_buffers_are_rejected() {
        let mut snap = minimal_snapshot();
        snap.buffers[1].push(vec![1.0, 2.0, 3.0]); // width 3 vs width 2
        assert!(matches!(
            PipelineSnapshot::from_json(&snap.to_json()),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn all_zero_rng_state_is_rejected() {
        let mut snap = minimal_snapshot();
        snap.rng_state = [0; 4];
        assert!(matches!(
            snap.validate(),
            Err(PersistError::Malformed(msg)) if msg.contains("RNG")
        ));
    }

    #[test]
    fn memory_store_roundtrips_and_counts() {
        let mut store = MemorySnapshotStore::new();
        let snap = minimal_snapshot();
        assert!(store.is_empty());
        assert_eq!(store.load(UserId(3)).unwrap(), None);
        store.save(UserId(3), &snap).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.stored_bytes() > 0);
        assert_eq!(store.load(UserId(3)).unwrap(), Some(snap.clone()));
        // A save overwrites the previous bytes in place: a shorter snapshot
        // saved over a longer one must leave none of the longer one behind.
        let mut longer = snap.clone();
        longer.retrain_mode = RetrainMode::Deferred;
        longer.retrain_in_flight = Some(PersistedRetrain {
            positives: [vec![vec![3.0, 4.0]], Vec::new()],
            rng_state: [9, 8, 7, 6],
            negative_epoch: None,
            retrain_tails: [None, None],
            day: 1.25,
        });
        store.save(UserId(3), &longer).unwrap();
        assert_eq!(store.load(UserId(3)).unwrap(), Some(longer));
        store.save(UserId(3), &snap).unwrap();
        assert_eq!(store.stored_bytes(), snap.to_bytes().len());
        assert_eq!(store.load(UserId(3)).unwrap(), Some(snap));
        store.remove(UserId(3)).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn legacy_snapshot_without_new_fields_restores_with_defaults() {
        // A v1 document written before `event_capacity` / `negative_epoch`
        // existed: strip the new fields from the wire form and parse.
        let snap = minimal_snapshot();
        let json = snap.to_json();
        let legacy = json
            .replace(
                &format!(
                    ",\"event_capacity\":{}",
                    crate::pipeline::DEFAULT_EVENT_CAPACITY
                ),
                "",
            )
            .replace(",\"negative_epoch\":null", "")
            .replace(",\"retrain_tails\":[null,null]", "")
            .replace(",\"retrain_mode\":\"Inline\"", "")
            .replace(",\"retrain_in_flight\":null", "");
        assert!(legacy.len() < json.len(), "fields were not stripped");
        assert!(
            !legacy.contains("retrain_mode")
                && !legacy.contains("retrain_in_flight")
                && !legacy.contains("retrain_tails"),
            "training-service fields were not stripped"
        );
        let parsed = PipelineSnapshot::from_json(&legacy).expect("legacy v1 parses");
        assert_eq!(
            parsed.event_capacity,
            crate::pipeline::DEFAULT_EVENT_CAPACITY
        );
        assert_eq!(parsed.negative_epoch, None);
        assert_eq!(parsed.retrain_mode, RetrainMode::Inline);
        assert_eq!(parsed.retrain_in_flight, None);
        assert_eq!(parsed, snap);
    }

    #[test]
    fn in_flight_retrain_roundtrips_and_is_validated() {
        // An outstanding deferred retrain rides the wire with the
        // trigger-time request; its rows join the width check and its RNG
        // state obeys the non-degenerate rule.
        let mut snap = minimal_snapshot();
        snap.retrain_mode = RetrainMode::Deferred;
        snap.retrain_in_flight = Some(PersistedRetrain {
            positives: [vec![vec![3.0, 4.0]], Vec::new()],
            rng_state: [9, 8, 7, 6],
            negative_epoch: None,
            retrain_tails: [None, None],
            day: 1.25,
        });
        let back = PipelineSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);

        let mut ragged = snap.clone();
        ragged.retrain_in_flight.as_mut().unwrap().positives[1].push(vec![1.0, 2.0, 3.0]);
        assert!(matches!(
            ragged.validate(),
            Err(PersistError::Malformed(msg)) if msg.contains("in-flight retrain")
        ));

        let mut degenerate = snap;
        degenerate.retrain_in_flight.as_mut().unwrap().rng_state = [0; 4];
        assert!(matches!(
            degenerate.validate(),
            Err(PersistError::Malformed(msg)) if msg.contains("in-flight retrain")
        ));
    }

    #[test]
    fn memory_store_epoch_fence() {
        let mut store = MemorySnapshotStore::new();
        let snap = minimal_snapshot();
        let id = UserId(5);
        assert_eq!(store.epoch(id).unwrap(), 0);
        // First owner claims epoch 1 and saves under it.
        let held = store.acquire(id).unwrap();
        assert_eq!(held, 1);
        store.save_fenced(id, held, &snap).unwrap();
        // A second owner claims epoch 2: the first owner's next save is a
        // typed stale-epoch rejection and writes nothing.
        let newer = store.acquire(id).unwrap();
        assert_eq!(newer, 2);
        assert_eq!(
            store.save_fenced(id, held, &snap),
            Err(PersistError::StaleEpoch {
                id,
                held: 1,
                stored: 2
            })
        );
        store.save_fenced(id, newer, &snap).unwrap();
        // Removal drops the snapshot but tombstones the epoch: a stale
        // owner's save after remove + re-register is still fenced out.
        store.remove(id).unwrap();
        assert_eq!(store.epoch(id).unwrap(), newer);
        let reregistered = store.acquire(id).unwrap();
        assert_eq!(reregistered, newer + 1);
        assert!(matches!(
            store.save_fenced(id, held, &snap),
            Err(PersistError::StaleEpoch { .. })
        ));
    }

    #[test]
    fn file_store_epoch_fence_persists_across_reopen() {
        static UNIQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smarteryou-epoch-test-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let snap = minimal_snapshot();
        let id = UserId(2);
        let held = {
            let mut store = FileSnapshotStore::new(&dir).unwrap();
            let held = store.acquire(id).unwrap();
            store.save_fenced(id, held, &snap).unwrap();
            held
        };
        // A fresh handle on the same directory (a process restart) sees the
        // persisted epoch and keeps fencing.
        let mut store = FileSnapshotStore::new(&dir).unwrap();
        assert_eq!(store.epoch(id).unwrap(), held);
        assert_eq!(store.acquire(id).unwrap(), held + 1);
        assert!(matches!(
            store.save_fenced(id, held, &snap),
            Err(PersistError::StaleEpoch { .. })
        ));
        // The epoch sidecar is not mistaken for a snapshot.
        assert_eq!(store.len(), 1);
        // Remove tombstones the epoch: the fence survives deregistration.
        store.remove(id).unwrap();
        assert_eq!(store.epoch(id).unwrap(), held + 1);
        assert_eq!(store.load(id).unwrap(), None);
        assert!(matches!(
            store.save_fenced(id, held, &snap),
            Err(PersistError::StaleEpoch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_store_serializes_the_fence() {
        let mut a = SharedSnapshotStore::new(Box::new(MemorySnapshotStore::new()));
        let mut b = a.clone();
        let snap = minimal_snapshot();
        let id = UserId(9);
        let held_a = a.acquire(id).unwrap();
        let held_b = b.acquire(id).unwrap();
        assert_eq!((held_a, held_b), (1, 2));
        assert!(matches!(
            a.save_fenced(id, held_a, &snap),
            Err(PersistError::StaleEpoch { .. })
        ));
        b.save_fenced(id, held_b, &snap).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a.load(id).unwrap(), Some(snap));
        a.with_store(|s| s.remove(id)).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn file_store_roundtrips_atomically() {
        static UNIQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smarteryou-persist-test-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let mut store = FileSnapshotStore::new(&dir).unwrap();
        assert_eq!(store.dir(), dir.as_path());
        let snap = minimal_snapshot();
        store.save(UserId(7), &snap).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.load(UserId(7)).unwrap(), Some(snap.clone()));
        // Overwrite is a replace, not an append.
        store.save(UserId(7), &snap).unwrap();
        assert_eq!(store.len(), 1);
        store.remove(UserId(7)).unwrap();
        assert_eq!(store.load(UserId(7)).unwrap(), None);
        store.remove(UserId(7)).unwrap(); // absent remove is a no-op
        std::fs::remove_dir_all(&dir).ok();
    }
}
