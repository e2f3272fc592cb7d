//! Order-preserving parallel map utilities shared by the experiment harness
//! and the fleet-scoring [`engine`](crate::engine).
//!
//! Built on `std::thread::scope`, so borrowed inputs work without `Arc` and
//! a panicking worker propagates to the caller. Work is split into one
//! contiguous chunk per thread, which preserves output order by
//! construction and keeps per-item overhead at a single index computation.
//!
//! # Nesting
//!
//! Calls are **nesting-aware** through a thread-local *thread budget*: a
//! top-level map may use up to `available_parallelism` threads, and each
//! worker it spawns inherits an equal share of that budget for any maps it
//! runs in turn — so total concurrency stays ≈ the core count however
//! deeply maps nest. The sharded fleet relies on this: a
//! [`ShardedFleet::tick`](crate::engine::shard::ShardedFleet::tick) maps
//! over its shards in parallel and each shard's engine maps over its
//! resident pipelines; on a 16-core box a 4-shard tick runs 4 shard
//! workers × 4 pipeline threads each instead of either 4×16
//! oversubscription or 4×1 idle cores. The ordering guarantee is identical
//! at every depth.

/// Order-preserving parallel map over a slice.
///
/// Uses up to `available_parallelism` threads (falling back to 4 when the
/// parallelism probe fails; bounded by the inherited budget when nested —
/// see the module docs) and degrades to a plain sequential map for
/// single-item or single-thread workloads, so callers can use it
/// unconditionally.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let budget = thread_budget();
    let threads = budget.min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let child_budget = (budget / threads).max(1);
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || in_worker(child_budget, || c.iter().map(f).collect::<Vec<R>>()))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    })
}

/// Order-preserving parallel map over a mutable slice: each item is visited
/// exactly once with exclusive access, and the per-item results come back in
/// input order. This is the fleet engine's scoring primitive — one stateful
/// per-user pipeline per item, advanced concurrently.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let budget = thread_budget();
    let threads = budget.min(items.len().max(1));
    if threads <= 1 {
        return items.iter_mut().map(&f).collect();
    }
    let child_budget = (budget / threads).max(1);
    let chunk = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|c| {
                s.spawn(move || in_worker(child_budget, || c.iter_mut().map(f).collect::<Vec<R>>()))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map_mut worker panicked"))
            .collect()
    })
}

/// Job states for [`CancelToken`]: the token starts `PENDING` and makes
/// exactly one transition — to `CANCELED` (the canceller won; the job's
/// result must never be delivered) or to `COMMITTED` (the worker won; the
/// result is delivered and cancellation can no longer retract it).
const PENDING: u8 = 0;
const CANCELED: u8 = 1;
const COMMITTED: u8 = 2;

/// A shared cancellation flag with *commit* semantics: the race between
/// "cancel this job" and "deliver this job's result" is decided by a single
/// compare-and-swap, so a canceled job can **never** deliver a result.
///
/// Lifecycle: the token starts pending. [`CancelToken::cancel`] moves it to
/// canceled iff it is still pending; a worker calls
/// [`CancelToken::try_commit`] immediately before delivering its result and
/// delivers only if the commit won. Exactly one of the two transitions ever
/// succeeds.
///
/// Clones share state — hand one end to the worker and keep the other.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: std::sync::Arc<std::sync::atomic::AtomicU8>,
}

impl CancelToken {
    /// A fresh, pending token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Returns `true` iff this call won the race —
    /// the job was still pending and will never deliver a result. Returns
    /// `false` if the job already committed (its result stands) or was
    /// already canceled.
    pub fn cancel(&self) -> bool {
        self.state
            .compare_exchange(
                PENDING,
                CANCELED,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            )
            .is_ok()
    }

    /// Claims the right to deliver the job's result. Returns `true` iff the
    /// job was still pending; after a `true` return, [`CancelToken::cancel`]
    /// can no longer retract the result. Workers call this immediately
    /// before delivery and drop the result on `false`.
    pub fn try_commit(&self) -> bool {
        self.state
            .compare_exchange(
                PENDING,
                COMMITTED,
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
            )
            .is_ok()
    }

    /// Whether cancellation won. Long-running jobs poll this to bail out
    /// early; `false` means pending *or* committed.
    pub fn is_canceled(&self) -> bool {
        self.state.load(std::sync::atomic::Ordering::Acquire) == CANCELED
    }

    /// Whether the job committed its result.
    pub fn is_committed(&self) -> bool {
        self.state.load(std::sync::atomic::Ordering::Acquire) == COMMITTED
    }
}

/// A join handle whose job can be abandoned: [`CancelableJoinHandle::join`]
/// returns `None` iff the job was canceled before it committed, and
/// dropping the handle cancels the job (best-effort — a job that already
/// committed keeps its side effects, but its result is discarded either
/// way).
///
/// Built from [`spawn_cancelable`] / [`spawn_cancelable_with_token`].
#[derive(Debug)]
pub struct CancelableJoinHandle<T> {
    token: CancelToken,
    handle: Option<std::thread::JoinHandle<Option<T>>>,
}

impl<T> CancelableJoinHandle<T> {
    /// A clone of the job's token, e.g. to cancel from another owner.
    #[must_use]
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Requests cancellation; see [`CancelToken::cancel`].
    pub fn cancel(&self) -> bool {
        self.token.cancel()
    }

    /// Whether cancellation won the race.
    pub fn is_canceled(&self) -> bool {
        self.token.is_canceled()
    }

    /// Waits for the worker and returns its result, or `None` if the job
    /// was canceled before it committed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the worker closure.
    pub fn join(mut self) -> Option<T> {
        let handle = self.handle.take().expect("join handle present until join");
        handle.join().expect("cancelable worker panicked")
    }
}

impl<T> Drop for CancelableJoinHandle<T> {
    fn drop(&mut self) {
        // Cancel-on-drop: an abandoned handle must not leave a job racing
        // to deliver into nowhere. The thread itself is detached — it
        // observes the canceled token, skips delivery, and exits.
        self.token.cancel();
    }
}

/// Spawns `f` on its own thread under a fresh [`CancelToken`]. The closure
/// receives the token so it can poll [`CancelToken::is_canceled`] at its own
/// granularity; its return value is delivered only if the job commits.
pub fn spawn_cancelable<T, F>(f: F) -> CancelableJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&CancelToken) -> T + Send + 'static,
{
    spawn_cancelable_with_token(CancelToken::new(), f)
}

/// Like [`spawn_cancelable`], but under a caller-supplied token — cancel the
/// token *before* calling this and `f` never runs at all (cancel-before-
/// start).
pub fn spawn_cancelable_with_token<T, F>(token: CancelToken, f: F) -> CancelableJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce(&CancelToken) -> T + Send + 'static,
{
    let worker_token = token.clone();
    let handle = std::thread::spawn(move || {
        if worker_token.is_canceled() {
            return None;
        }
        let result = f(&worker_token);
        if worker_token.try_commit() {
            Some(result)
        } else {
            None
        }
    });
    CancelableJoinHandle {
        token,
        handle: Some(handle),
    }
}

thread_local! {
    /// The nested-map thread budget for the current thread: `None` at top
    /// level (use the machine's parallelism), `Some(n)` inside a map
    /// worker (this thread's share of its parent's budget).
    static THREAD_BUDGET: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Threads the current context may use for a map: the inherited worker
/// share, or the machine parallelism at top level.
fn thread_budget() -> usize {
    THREAD_BUDGET.with(|b| b.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Runs `work` with the current thread's budget set to `budget`. Worker
/// threads are fresh per scope, but save/restore anyway so the behaviour
/// does not depend on that detail.
fn in_worker<R>(budget: usize, work: impl FnOnce() -> R) -> R {
    let previous = THREAD_BUDGET.with(|b| b.replace(Some(budget)));
    let result = work();
    THREAD_BUDGET.with(|b| b.set(previous));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_small_inputs() {
        assert_eq!(parallel_map(&[1], |&x: &i32| x + 1), vec![2]);
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, |&x: &i32| x).is_empty());
    }

    #[test]
    fn parallel_map_mut_mutates_every_item_once() {
        let mut items: Vec<u64> = (0..257).collect();
        let out = parallel_map_mut(&mut items, |x| {
            *x += 1;
            *x
        });
        assert_eq!(items, (1..258).collect::<Vec<_>>());
        assert_eq!(out, items);
    }

    #[test]
    fn parallel_map_mut_handles_small_inputs() {
        let mut empty: Vec<i32> = Vec::new();
        assert!(parallel_map_mut(&mut empty, |x| *x).is_empty());
        let mut one = vec![7];
        assert_eq!(parallel_map_mut(&mut one, |x| *x * 3), vec![21]);
    }

    #[test]
    fn cancel_before_start_never_runs_the_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let token = CancelToken::new();
        assert!(token.cancel(), "first cancel wins");
        assert!(!token.cancel(), "second cancel is a no-op");
        let ran = Arc::new(AtomicBool::new(false));
        let witness = ran.clone();
        let handle = spawn_cancelable_with_token(token, move |_| {
            witness.store(true, Ordering::SeqCst);
            42
        });
        assert_eq!(handle.join(), None);
        assert!(!ran.load(Ordering::SeqCst), "canceled job must never run");
    }

    #[test]
    fn cancel_mid_run_discards_the_result() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let started = Arc::new(AtomicBool::new(false));
        let witness = started.clone();
        let handle = spawn_cancelable(move |token| {
            witness.store(true, Ordering::SeqCst);
            // Park until the canceller acts, then try to deliver anyway —
            // the commit CAS must lose.
            while !token.is_canceled() {
                std::thread::yield_now();
            }
            7
        });
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert!(handle.cancel(), "cancel races no committer here");
        assert!(handle.is_canceled());
        assert_eq!(handle.join(), None, "canceled job delivered a result");
    }

    #[test]
    fn dropping_the_handle_cancels_the_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let started = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let (started_w, witness) = (started.clone(), finished.clone());
        let handle = spawn_cancelable(move |token| {
            started_w.store(true, Ordering::SeqCst);
            while !token.is_canceled() {
                std::thread::yield_now();
            }
            witness.store(true, Ordering::SeqCst);
            1
        });
        // Drop only once the job runs: a handle dropped before the worker
        // starts cancels it before `f` is ever called, and `finished` would
        // never be set.
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let token = handle.token();
        drop(handle);
        assert!(token.is_canceled(), "drop must cancel");
        // The detached worker observes the cancel, exits, and never commits.
        while !finished.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert!(!token.is_committed(), "dropped job committed a result");
    }

    #[test]
    fn committed_jobs_ignore_late_cancels() {
        let handle = spawn_cancelable(|_| 5u32);
        // Wait for the worker to commit, then cancel: the result stands.
        while !handle.token().is_committed() {
            std::thread::yield_now();
        }
        assert!(!handle.cancel(), "cancel after commit must lose");
        assert_eq!(handle.join(), Some(5));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The core cancellation guarantee under racing interleavings: a
        /// cancel that *wins* means the job never delivers, and a job that
        /// delivers means every cancel *lost*. Work length and cancel
        /// timing vary so the race lands on both sides across cases.
        #[test]
        fn canceled_jobs_never_deliver_results(
            (work, cancel_flag, spins) in (0..2_000u32, 0..2u32, 0..64u32)
        ) {
            let do_cancel = cancel_flag == 1;
            let token = CancelToken::new();
            let handle = spawn_cancelable_with_token(token.clone(), move |t| {
                for _ in 0..work {
                    if t.is_canceled() {
                        break;
                    }
                    std::hint::spin_loop();
                }
                99u64
            });
            let cancel_won = if do_cancel {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                token.cancel()
            } else {
                false
            };
            let result = handle.join();
            proptest::prop_assert!(
                !(cancel_won && result.is_some()),
                "a winning cancel must suppress delivery"
            );
            proptest::prop_assert!(
                result.is_some() || cancel_won,
                "a job only fails to deliver when a cancel won"
            );
            if !do_cancel {
                proptest::prop_assert_eq!(result, Some(99));
            }
        }
    }

    #[test]
    fn nested_maps_split_the_thread_budget_and_stay_ordered() {
        // An outer parallel map whose items each run an inner map: every
        // worker's inner budget must be its fair share of the machine
        // budget (total concurrency ≈ core count, never outer × cores),
        // and the combined output must stay in order.
        let machine = thread_budget();
        let outer: Vec<u64> = (0..16).collect();
        let outer_threads = machine.min(outer.len());
        let expected_inner_budget = (machine / outer_threads.max(1)).max(1);
        let out = parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..8).collect();
            let inner_budget = thread_budget();
            let sums = parallel_map(&inner, |&y| x * 100 + y);
            (inner_budget, sums)
        });
        for (x, (inner_budget, sums)) in out.iter().enumerate() {
            // Single-thread runners never spawn workers, so the inner call
            // sees the full (=1) machine budget rather than a worker share.
            if outer_threads > 1 {
                assert_eq!(
                    *inner_budget, expected_inner_budget,
                    "worker budget must be the parent's share"
                );
                assert!(*inner_budget * outer_threads <= machine.max(outer_threads));
            }
            let expected: Vec<u64> = (0..8).map(|y| x as u64 * 100 + y).collect();
            assert_eq!(sums, &expected);
        }
    }
}
