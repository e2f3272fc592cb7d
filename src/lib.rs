//! # SmarterYou
//!
//! A full reproduction of *“Implicit Smartphone User Authentication with
//! Sensors and Contextual Machine Learning”* (Lee & Lee, DSN 2017) as a Rust
//! workspace. This facade crate re-exports every sub-crate so applications
//! can depend on a single `smarteryou` package.
//!
//! * [`core`] — the authentication pipeline (feature extraction, context
//!   detection, per-context KRR models, retraining).
//! * [`sensors`] — the synthetic smartphone/smartwatch sensor substrate.
//! * [`ml`] — from-scratch classifiers (KRR, SVM, naive Bayes, random
//!   forest, …) and cross-validation.
//! * [`dsp`] — FFT/DFT, spectral peaks, magnitude series.
//! * [`stats`] — KS test, Fisher score, correlation, FAR/FRR metrics.
//! * [`linalg`] — dense matrices and solvers.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end enrollment +
//! continuous-authentication run against the simulated population.
//!
//! # Batch engine
//!
//! A cloud tier scoring many devices should not call
//! [`SmarterYou::process_window`](core::SmarterYou::process_window) per
//! window. [`FleetEngine`](core::engine::FleetEngine) owns one pipeline per
//! registered user, takes a `(UserId, DualDeviceWindow)` batch per tick,
//! scores each user's windows in order, each by the model of its detected
//! context, and advances all users in parallel — with decisions
//! bit-identical to the sequential loop (see `tests/batch_parity.rs`):
//!
//! ```no_run
//! use smarteryou::core::engine::FleetEngine;
//! use smarteryou::sensors::UserId;
//! # fn pipeline_for(_u: usize) -> smarteryou::core::SmarterYou { unimplemented!() }
//! # fn windows_this_tick() -> Vec<(UserId, smarteryou::sensors::DualDeviceWindow)> { vec![] }
//!
//! let mut engine = FleetEngine::new();
//! for u in 0..1_000 {
//!     engine.register(UserId(u), pipeline_for(u)).unwrap();
//! }
//! // Per tick: deliver every device's freshly captured windows at once.
//! let outcomes = engine.score_ticked(windows_this_tick()).unwrap();
//! for (user, outcome) in outcomes {
//!     // react to decisions/locks per user
//!     let _ = (user, outcome);
//! }
//! ```
//!
//! The fleet benchmark in `fleetbench/` measures windows/s and per-window
//! decision latency on four named workloads; `BENCH_fleetbench.json` holds
//! its committed result.
//!
//! At fleet scale most users are idle between ticks, so the engine can cap
//! how many pipelines stay resident:
//! [`FleetEngine::with_eviction`](core::engine::FleetEngine::with_eviction)
//! snapshots the least recently submitted pipelines into a pluggable
//! [`SnapshotStore`](core::persist::SnapshotStore) (versioned binary wire
//! format, see [`core::persist`]) and rehydrates them lazily on submit —
//! with decisions, scores, and retrain events **bit-identical** to a
//! never-evicted engine (`tests/persist_parity.rs`). Ticks cost
//! O(resident), never O(registered), so parked users are free.
//!
//! One engine is one shard:
//! [`ShardedFleet`](core::engine::shard::ShardedFleet) routes users over N
//! engines by a pure `UserId` hash
//! ([`ShardRouter`](core::engine::shard::ShardRouter)), all sharing one
//! epoch-fenced snapshot store — migrating a user between shards is an
//! evict + rehydrate, a stale owner's write is a typed
//! [`StaleEpoch`](core::persist::PersistError::StaleEpoch) rejection, and
//! decisions stay bit-identical across migrations
//! (`tests/shard_parity.rs`; design notes in `docs/sharding.md`).
//!
//! Producers don't need `&mut` fleet access per window:
//! [`ShardedFleet::enable_ingest`](core::engine::shard::ShardedFleet::enable_ingest)
//! puts a bounded MPSC ring in front of every shard and hands back a
//! cloneable [`IngestRouter`](core::engine::ingest::IngestRouter) that any
//! thread can submit through, with typed backpressure
//! ([`BackpressurePolicy`](core::engine::ingest::BackpressurePolicy):
//! reject-with-the-window-back or block-until-space). Each shard's tick
//! drains its own queue; windows queued for migrated users are forwarded
//! to the owning shard, never scored stale, never lost — and decisions
//! stay bit-identical to the synchronous path (`tests/ingest_parity.rs`;
//! design notes in `docs/ingestion.md`).

pub use smarteryou_core as core;
pub use smarteryou_dsp as dsp;
pub use smarteryou_linalg as linalg;
pub use smarteryou_ml as ml;
pub use smarteryou_sensors as sensors;
pub use smarteryou_stats as stats;
