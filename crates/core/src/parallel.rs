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
    let mut refs: Vec<&T> = items.iter().collect();
    parallel_map_mut(&mut refs, |item| f(item))
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
    fn committed_jobs_ignore_late_cancels() {
        let token = CancelToken::new();
        let (committed_tx, committed_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                committed_tx
                    .send(token.try_commit())
                    .expect("receiver alive")
            });
            // Cancel only once the worker has committed: the result stands.
            assert!(
                committed_rx.recv().expect("worker sends"),
                "uncontested commit"
            );
            assert!(!token.cancel(), "cancel after commit must lose");
        });
        assert!(token.is_committed());
        assert!(!token.is_canceled());
        assert!(!token.try_commit(), "a token commits once");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The core cancellation guarantee under racing interleavings:
        /// exactly one of cancel and commit wins, so a cancel that *wins*
        /// means the worker never delivers, and a worker that delivers
        /// means every cancel *lost*. A barrier releases the worker and the
        /// canceller together; work length and cancel delay vary so the
        /// race lands on both sides across cases.
        #[test]
        fn canceled_jobs_never_deliver_results(
            (work, cancel_flag, spins) in (0..2_000u32, 0..2u32, 0..64u32)
        ) {
            let do_cancel = cancel_flag == 1;
            let token = CancelToken::new();
            let start = std::sync::Barrier::new(2);
            let (delivered, cancel_won) = std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    start.wait();
                    for _ in 0..work {
                        if token.is_canceled() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                    // Deliver only if the commit wins.
                    token.try_commit().then_some(99u64)
                });
                start.wait();
                let cancel_won = do_cancel && {
                    for _ in 0..spins {
                        std::hint::spin_loop();
                    }
                    token.cancel()
                };
                (worker.join().expect("worker panicked"), cancel_won)
            });
            proptest::prop_assert!(
                !(cancel_won && delivered.is_some()),
                "a winning cancel must suppress delivery"
            );
            proptest::prop_assert!(
                delivered.is_some() || cancel_won,
                "a job only fails to deliver when a cancel won"
            );
            proptest::prop_assert_eq!(delivered.is_some(), token.is_committed());
            proptest::prop_assert_eq!(cancel_won, token.is_canceled());
            // The race decided the token for good: a later cancel or
            // commit (a second cancel included) loses.
            proptest::prop_assert!(!token.cancel(), "a decided token ignores cancels");
            proptest::prop_assert!(!token.try_commit(), "a decided token ignores commits");
            if !do_cancel {
                proptest::prop_assert_eq!(delivered, Some(99));
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
