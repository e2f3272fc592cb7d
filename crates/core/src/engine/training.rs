//! The fleet's training service: retrain jobs leave the tick path.
//!
//! A retrain used to run synchronously inside [`FleetEngine::tick`]
//! (`SmarterYou::retrain` behind the [`TrainingHandle`] seam), stalling
//! every co-resident user's scoring for the duration of two KRR fits. This
//! module moves the fit onto a [`TrainingService`]: the pipeline *captures*
//! everything a retrain needs into a self-contained [`RetrainRequest`]
//! (positive windows, config, RNG state, negative epoch, fit caches), the
//! engine submits it at the tick boundary, workers execute it off-thread,
//! and the fitted [`RetrainOutput`] is applied back onto the pipeline at a
//! *later* tick boundary — the pipeline keeps scoring on its old model in
//! between.
//!
//! # Shared-workspace retrains
//!
//! Retrain jobs do **not** pay a fresh negative pass plus an O(n³) refit:
//! every job resolves its pinned [`NegativeEpoch`] through the service's
//! [`RetrainWorkspaceCache`], so the negative-Gram block is computed once
//! per epoch and each fit is one m×m closed-form solve. The request also
//! carries the pipeline's per-context positive-tail factor identity
//! ([`KrrTailState`]); when only a few buffer windows changed since the
//! previous fit, the Cholesky factor is slid with rank-1 updates instead of
//! refactored. The synchronous parity mode and inline retraining use the
//! same entry point, so deferred-vs-inline bit-parity is preserved.
//!
//! # Determinism
//!
//! [`execute`] is a pure function of its request: it rebuilds the
//! pipeline's RNG from the captured state, runs the same
//! [`TrainingHandle::train_authenticator_epoch_shared`] call inline
//! retraining would have run, and carries the post-training
//! RNG/epoch/cache/tail state back
//! in the output. A service in *synchronous* mode
//! ([`TrainingService::synchronous`]) runs submitted jobs in submission
//! order on the caller's thread during [`TrainingService::run_pending`], so
//! a deferred retrain applied at the same tick boundary is bit-identical
//! to the inline path (`tests/training_parity.rs` pins this). Worker-thread
//! mode trades that lockstep for tick latency: results land whenever they
//! finish, and only the *application* stays tick-aligned.
//!
//! # Cancellation
//!
//! Every job carries a [`CancelToken`]. Cancellation and result delivery
//! race through one atomic compare-and-swap: a worker *commits* the token
//! immediately before pushing its result, so a job whose cancel won can
//! never deliver — the invariant eviction and migration rely on to abandon
//! in-flight retrains without ever applying a stale model (see
//! `docs/training.md`).
//!
//! [`FleetEngine::tick`]: crate::engine::FleetEngine::tick
//! [`TrainingHandle`]: crate::server::TrainingHandle
//! [`TrainingHandle::train_authenticator_epoch_shared`]:
//!     crate::server::TrainingHandle::train_authenticator_epoch_shared

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::StdRng;

use smarteryou_ml::{KrrFitCache, KrrTailState};

use crate::auth::Authenticator;
use crate::config::SystemConfig;
use crate::error::CoreError;
use crate::parallel::CancelToken;
use crate::server::{NegativeEpoch, RetrainWorkspaceCache, TrainingHandle};

/// Identifies one submitted retrain job within its [`TrainingService`].
/// Monotonic per service; never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Everything a retrain needs, captured from the pipeline at trigger time.
/// Self-contained by construction: executing the request must not read any
/// further pipeline state, so the job can run on another thread while the
/// pipeline keeps scoring (and mutating its buffers) on the old model.
#[derive(Debug, Clone)]
pub struct RetrainRequest {
    /// Per-context positive windows (a clone of the pipeline's rolling
    /// `recent` buffers at trigger time).
    pub(crate) positives: [Vec<Vec<f64>>; 2],
    /// The pipeline's system configuration.
    pub(crate) cfg: SystemConfig,
    /// RNG state at trigger time. Scoring consumes no randomness, so this
    /// is still the pipeline's live state when the job executes — inline
    /// retraining would have drawn from exactly this point.
    pub(crate) rng_state: [u64; 4],
    /// The pipeline's negative epoch (redraw is keyed off the server's
    /// pool stamp, same as inline).
    pub(crate) negative_epoch: Option<NegativeEpoch>,
    /// Per-context KRR fit caches. Caches never change model bits, so a
    /// request rebuilt with cold caches (e.g. after evict/restore) still
    /// produces a bit-identical model.
    pub(crate) fit_caches: [KrrFitCache; 2],
    /// Per-context positive-tail factor identity from the pipeline's
    /// previous fit: lets the job slide the cached Cholesky factor when
    /// only a few buffer windows changed. Purely an accelerator — a
    /// request rebuilt with cold tails still produces an
    /// equivalent-to-epsilon model via the full closed-form refit.
    pub(crate) retrain_tails: [Option<KrrTailState>; 2],
    /// Pipeline day at trigger time — the timestamp the eventual
    /// `Retrained` event carries.
    pub(crate) day: f64,
}

/// The fitted model plus the post-training pipeline state a completed job
/// hands back: applying an output installs exactly what inline retraining
/// would have left behind.
#[derive(Debug)]
pub struct RetrainOutput {
    pub(crate) authenticator: Authenticator,
    pub(crate) rng_state: [u64; 4],
    pub(crate) negative_epoch: Option<NegativeEpoch>,
    pub(crate) fit_caches: [KrrFitCache; 2],
    pub(crate) retrain_tails: [Option<KrrTailState>; 2],
    pub(crate) day: f64,
}

/// Executes one retrain request against a training handle. Pure in the
/// request: same request + same handle pool state → bit-identical output,
/// on any thread. Builds its shared workspace into a throwaway cache —
/// callers executing more than one job against the same epoch should use
/// [`execute_shared`] with a long-lived [`RetrainWorkspaceCache`] (the
/// service's workers do).
///
/// # Errors
///
/// Propagates training failures from the handle.
pub fn execute(
    handle: &Arc<dyn TrainingHandle>,
    request: RetrainRequest,
) -> Result<RetrainOutput, CoreError> {
    execute_shared(handle, request, &RetrainWorkspaceCache::new())
}

/// [`execute`] against a caller-owned [`RetrainWorkspaceCache`], so the
/// per-epoch negative-Gram block is built once and reused across jobs. The
/// cache never changes results — it only decides who pays the workspace
/// construction cost.
///
/// # Errors
///
/// Propagates training failures from the handle.
pub fn execute_shared(
    handle: &Arc<dyn TrainingHandle>,
    request: RetrainRequest,
    ws_cache: &RetrainWorkspaceCache,
) -> Result<RetrainOutput, CoreError> {
    let RetrainRequest {
        positives,
        cfg,
        rng_state,
        mut negative_epoch,
        mut fit_caches,
        mut retrain_tails,
        day,
    } = request;
    let mut rng = StdRng::from_state(rng_state);
    let authenticator = handle.train_authenticator_epoch_shared(
        &positives,
        &cfg,
        &mut rng,
        &mut negative_epoch,
        &mut fit_caches,
        &mut retrain_tails,
        ws_cache,
    )?;
    Ok(RetrainOutput {
        authenticator,
        rng_state: rng.state(),
        negative_epoch,
        fit_caches,
        retrain_tails,
        day,
    })
}

/// One queued job: the request plus the handle to execute it against and
/// the token deciding the cancel/deliver race.
struct Job {
    id: JobId,
    token: CancelToken,
    handle: Arc<dyn TrainingHandle>,
    request: RetrainRequest,
}

/// Worker-facing queue state.
struct JobQueue {
    jobs: VecDeque<Job>,
    /// Set by `Drop`: workers drain remaining jobs, then exit.
    closed: bool,
}

/// State shared between the service facade and its workers.
struct Shared {
    queue: Mutex<JobQueue>,
    available: Condvar,
    /// Completed results awaiting [`TrainingService::collect_ready`].
    /// Push order = completion order (= submission order in sync mode).
    ready: Mutex<Vec<(JobId, Result<RetrainOutput, CoreError>)>>,
    /// Tokens of jobs submitted but not yet finished or canceled, keyed by
    /// job id — the cancel entry point.
    tokens: Mutex<HashMap<JobId, CancelToken>>,
    /// Per-epoch shared negative-Gram workspaces, reused across every job
    /// the service executes (worker or synchronous mode alike).
    ws_cache: RetrainWorkspaceCache,
}

impl Shared {
    /// Runs one job to completion: skip if canceled, otherwise execute and
    /// deliver iff the commit beats any concurrent cancel.
    fn run_job(&self, job: Job) {
        let Job {
            id,
            token,
            handle,
            request,
        } = job;
        if !token.is_canceled() {
            let result = execute_shared(&handle, request, &self.ws_cache);
            if token.try_commit() {
                self.ready
                    .lock()
                    .expect("ready queue poisoned")
                    .push((id, result));
            }
        }
        self.tokens.lock().expect("token map poisoned").remove(&id);
    }
}

/// Accepts retrain jobs and returns fitted models asynchronously, with
/// per-job cancellation. Two modes:
///
/// - **Synchronous** ([`TrainingService::synchronous`]): no workers; jobs
///   run in submission order on the caller's thread during
///   [`TrainingService::run_pending`]. Deterministic — the mode the parity
///   suites pin against inline retraining.
/// - **Worker threads** ([`TrainingService::with_workers`]): jobs run on a
///   pool behind a condvar'd queue; [`TrainingService::run_pending`] is a
///   no-op and results land in [`TrainingService::collect_ready`] whenever
///   they finish.
///
/// All methods take `&self`: the service is shared-nothing from the
/// caller's perspective, with interior synchronization.
pub struct TrainingService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_job: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for TrainingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingService")
            .field("workers", &self.workers.len())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl TrainingService {
    /// A deterministic service with no worker threads: submitted jobs wait
    /// for [`TrainingService::run_pending`] and execute in submission order
    /// on the calling thread.
    #[must_use]
    pub fn synchronous() -> Self {
        Self::build(0)
    }

    /// A service running jobs on `workers` background threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (use
    /// [`TrainingService::synchronous`] for the deterministic mode).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "worker mode needs at least one thread");
        Self::build(workers)
    }

    fn build(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            ready: Mutex::new(Vec::new()),
            tokens: Mutex::new(HashMap::new()),
            ws_cache: RetrainWorkspaceCache::new(),
        });
        let workers = (0..workers)
            .map(|k| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("smarteryou-train-{k}"))
                    .spawn(move || loop {
                        let job = {
                            let mut queue = shared.queue.lock().expect("job queue poisoned");
                            loop {
                                if let Some(job) = queue.jobs.pop_front() {
                                    break job;
                                }
                                if queue.closed {
                                    return;
                                }
                                queue = shared.available.wait(queue).expect("job queue poisoned");
                            }
                        };
                        shared.run_job(job);
                    })
                    .expect("spawn training worker")
            })
            .collect();
        TrainingService {
            shared,
            workers,
            next_job: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Whether this service runs in the deterministic no-worker mode.
    #[must_use]
    pub fn is_synchronous(&self) -> bool {
        self.workers.is_empty()
    }

    /// Queues a retrain job against `handle`; workers (or the next
    /// [`TrainingService::run_pending`] in sync mode) pick it up.
    pub fn submit(&self, handle: Arc<dyn TrainingHandle>, request: RetrainRequest) -> JobId {
        let id = JobId(
            self.next_job
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let token = CancelToken::new();
        self.shared
            .tokens
            .lock()
            .expect("token map poisoned")
            .insert(id, token.clone());
        {
            let mut queue = self.shared.queue.lock().expect("job queue poisoned");
            queue.jobs.push_back(Job {
                id,
                token,
                handle,
                request,
            });
        }
        self.shared.available.notify_one();
        id
    }

    /// Cancels a job. Returns `true` iff the cancel won the race — the job
    /// will never deliver a result. `false` means the job already finished
    /// (its result may already sit in the ready queue, or have been
    /// collected) or was already canceled.
    pub fn cancel(&self, job: JobId) -> bool {
        match self
            .shared
            .tokens
            .lock()
            .expect("token map poisoned")
            .remove(&job)
        {
            Some(token) => token.cancel(),
            None => false,
        }
    }

    /// Synchronous mode's execution step: runs every queued job, in
    /// submission order, on the calling thread. No-op in worker mode (the
    /// pool is already on it).
    pub fn run_pending(&self) {
        if !self.is_synchronous() {
            return;
        }
        loop {
            let job = {
                let mut queue = self.shared.queue.lock().expect("job queue poisoned");
                queue.jobs.pop_front()
            };
            match job {
                Some(job) => self.shared.run_job(job),
                None => break,
            }
        }
    }

    /// Drains completed jobs, in completion order. Canceled jobs never
    /// appear here.
    #[must_use]
    pub fn collect_ready(&self) -> Vec<(JobId, Result<RetrainOutput, CoreError>)> {
        std::mem::take(&mut *self.shared.ready.lock().expect("ready queue poisoned"))
    }

    /// Jobs submitted but not yet finished or canceled. Exact in sync mode
    /// and at quiescence; a moving target while workers are mid-job.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.tokens.lock().expect("token map poisoned").len()
    }
}

impl Drop for TrainingService {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("job queue poisoned");
            queue.closed = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked already surfaced its panic where the
            // result was awaited; don't double-panic in drop.
            let _ = worker.join();
        }
    }
}
