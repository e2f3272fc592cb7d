//! Bench-side tracing: span buffers, and timing decorators for the two
//! seams the engine calls through (`SnapshotStore`, `TrainingHandle`).
//! Nothing here is compiled into the library; spans are recorded only
//! around calls into each module's public surface.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use smarteryou_core::{
    Authenticator, CoreError, EnrollmentWorkspace, NegativeEpoch, PersistError, PipelineSnapshot,
    RetrainWorkspaceCache, SnapshotStore, SystemConfig, TrainingHandle, TrainingServer,
};
use smarteryou_ml::{KrrFitCache, KrrTailState};
use smarteryou_sensors::UserId;

/// Busy and waiting time accumulated by a decorator. Statistics only: the
/// counters publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: AtomicBool,
    busy_ns: AtomicU64,
    wait_ns: AtomicU64,
}

impl Recorder {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn record(&self, wait: Duration, busy: Duration) {
        if self.enabled.load(Ordering::Relaxed) {
            self.wait_ns
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
            self.busy_ns
                .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// `(busy, wait)` so far.
    pub fn totals(&self) -> (Duration, Duration) {
        (
            Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            Duration::from_nanos(self.wait_ns.load(Ordering::Relaxed)),
        )
    }
}

/// Times every call into the wrapped store. Every method forwards,
/// including the defaulted compound ones, so the inner store's own
/// locking (the file store's per-user lock files) stays in force.
#[derive(Debug)]
pub struct TimedStore {
    inner: Box<dyn SnapshotStore>,
    rec: Arc<Recorder>,
}

impl TimedStore {
    pub fn new(inner: Box<dyn SnapshotStore>, rec: Arc<Recorder>) -> Self {
        TimedStore { inner, rec }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn SnapshotStore) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.rec.record(Duration::ZERO, start.elapsed());
        out
    }
}

impl SnapshotStore for TimedStore {
    fn save(&mut self, id: UserId, snapshot: &PipelineSnapshot) -> Result<(), PersistError> {
        self.timed(|s| s.save(id, snapshot))
    }

    fn load(&mut self, id: UserId) -> Result<Option<PipelineSnapshot>, PersistError> {
        self.timed(|s| s.load(id))
    }

    fn remove(&mut self, id: UserId) -> Result<(), PersistError> {
        self.timed(|s| s.remove(id))
    }

    fn epoch(&mut self, id: UserId) -> Result<u64, PersistError> {
        self.timed(|s| s.epoch(id))
    }

    fn acquire(&mut self, id: UserId) -> Result<u64, PersistError> {
        self.timed(|s| s.acquire(id))
    }

    fn acquire_cas(&mut self, id: UserId, expected: u64) -> Result<u64, PersistError> {
        self.timed(|s| s.acquire_cas(id, expected))
    }

    fn save_fenced(
        &mut self,
        id: UserId,
        epoch: u64,
        snapshot: &PipelineSnapshot,
    ) -> Result<(), PersistError> {
        self.timed(|s| s.save_fenced(id, epoch, snapshot))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn try_len(&self) -> Result<usize, PersistError> {
        self.inner.try_len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// A training handle that takes the `TrainingServer` lock itself, so the
/// wait for the lock and the work under it are timed separately.
#[derive(Debug)]
pub struct TimedTrainer {
    server: Arc<Mutex<TrainingServer>>,
    rec: Arc<Recorder>,
}

impl TimedTrainer {
    pub fn new(server: Arc<Mutex<TrainingServer>>, rec: Arc<Recorder>) -> Self {
        TimedTrainer { server, rec }
    }

    fn timed<R>(&self, f: impl FnOnce(&TrainingServer) -> R) -> R {
        let asked = Instant::now();
        let server = self.server.lock();
        let locked = Instant::now();
        let out = f(&server);
        drop(server);
        self.rec.record(locked - asked, locked.elapsed());
        out
    }
}

impl TrainingHandle for TimedTrainer {
    fn train_authenticator(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<Authenticator, CoreError> {
        self.timed(|s| s.train_authenticator(positives, cfg, rng))
    }

    fn train_authenticator_epoch(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError> {
        self.timed(|s| s.train_authenticator_epoch(positives, cfg, rng, epoch, caches))
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
        self.timed(|s| {
            s.train_authenticator_epoch_shared(positives, cfg, rng, epoch, caches, tails, ws_cache)
        })
    }

    fn enrollment_workspace(
        &self,
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<EnrollmentWorkspace, CoreError> {
        self.timed(|s| s.enrollment_workspace(cfg, rng))
    }
}

/// Durations of one span kind, in a buffer preallocated before the
/// measured loop and summarised at exit.
#[derive(Debug)]
pub struct Spans {
    ns: Vec<u64>,
}

impl Spans {
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            ns: Vec::with_capacity(capacity),
        }
    }

    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    /// Times `f` into this buffer.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.push(start.elapsed());
        out
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns.iter().sum())
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
        }
    }

    /// Nearest-rank quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        quantile(&mut self.ns, q)
    }
}

/// Nearest-rank quantile of `values` (sorted in place; 0 when empty).
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64
}
