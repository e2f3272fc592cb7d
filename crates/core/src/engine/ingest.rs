//! Bounded async ingestion in front of the per-shard tick loop.
//!
//! The paper's deployed setting is a continuous 50 Hz sensor stream per
//! device: windows arrive bursty and unevenly timed from many devices at
//! once, while each shard's tick loop wants to consume them in calm,
//! batch-sized gulps. The synchronous [`FleetEngine::submit`] path couples
//! the two — a producer must hold `&mut` access to the owning shard for
//! every window. This module decouples them:
//!
//! * [`IngestQueue`] — a bounded multi-producer ring. Any number of
//!   threads push concurrently; the owning shard's tick drains whatever
//!   has arrived. The bound is enforced by a typed
//!   [`BackpressurePolicy`]: [`Reject`](BackpressurePolicy::Reject) hands
//!   the window straight back with
//!   [`IngestError::QueueFull`], [`BlockingWait`](BackpressurePolicy::BlockingWait)
//!   parks the producer until the consumer frees space. Nothing is ever
//!   silently dropped.
//! * [`IngestRouter`] — the cloneable, thread-safe front door of a
//!   [`ShardedFleet`](crate::engine::ShardedFleet): routes each
//!   `(UserId, DualDeviceWindow)` through the fleet's pure [`ShardRouter`]
//!   and pushes it onto the home shard's queue.
//!
//! ```text
//!   producer threads                         shard tick loop
//!   ───────────────────┐
//!    submit(id, w) ────┤   ┌─────────────────────┐
//!    submit(id, w) ────┼──▶│ IngestQueue (ring,  │──▶ drain_pending()
//!    submit(id, w) ────┤   │  bounded, MPSC)     │     └▶ inboxes ▶ tick
//!   ───────────────────┘   └─────────────────────┘
//!          ▲ QueueFull / blocked when full (BackpressurePolicy)
//! ```
//!
//! # Ordering and parity
//!
//! Per-user FIFO is preserved end to end: a user's windows always route to
//! the same queue (the router is a pure function of the id), the ring is
//! FIFO, and the drain delivers into the pipeline inbox in pop order. Since
//! every pipeline's outcome stream is a function of its own window
//! sequence alone, a fleet fed through these queues stays **bit-identical**
//! to direct sequential [`SmarterYou::process_window`](crate::SmarterYou::process_window)
//! calls — enforced, with eviction churn and mid-stream migrations layered
//! on top, by `tests/ingest_parity.rs`.
//!
//! Cross-user interleaving (which user's window pops first) is *not*
//! specified and may vary run to run under concurrent producers; it cannot
//! affect any decision, because pipelines share no scoring state.
//!
//! # Migration
//!
//! Queues are addressed by the *home* shard (the pure hash), while
//! ownership can diverge through explicit
//! [`ShardedFleet::migrate`](crate::engine::ShardedFleet::migrate) calls.
//! A drained window whose user is not registered on the draining shard is
//! reported back as *misrouted* and re-delivered by the fleet to the
//! current owner — never scored on the stale shard, never lost. See
//! `docs/ingestion.md` for the full walk-through.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use smarteryou_sensors::{DualDeviceWindow, UserId};

use crate::engine::ShardRouter;
use crate::error::IngestError;

#[cfg(doc)]
use crate::engine::FleetEngine;

/// What a full ingest queue does to the producer. The policy is fixed at
/// queue construction so every producer observes the same contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// A push against a full queue fails fast with
    /// [`IngestError::QueueFull`], handing the window back to the caller
    /// (who may retry after the next drain, shed the load, or buffer it
    /// upstream). The queue loses exactly the windows it reported —
    /// nothing more.
    Reject,
    /// A push against a full queue blocks the producer thread until the
    /// consumer drains space (or the queue is closed). No window handed to
    /// a `BlockingWait` queue is ever lost.
    BlockingWait,
}

/// The payload queue a [`FleetEngine`] drains: one `(user, window)` entry
/// per submitted sensor window.
pub type WindowQueue = IngestQueue<(UserId, DualDeviceWindow)>;

/// Ring state behind the queue's mutex.
struct RingState<T> {
    /// Fixed-capacity ring storage; `None` slots are free.
    buf: Box<[Option<T>]>,
    /// Index of the oldest entry.
    head: usize,
    /// Entries currently queued.
    len: usize,
    /// Once closed, pushes fail with [`IngestError::Closed`]; draining the
    /// remaining entries stays allowed.
    closed: bool,
}

impl<T> RingState<T> {
    fn enqueue(&mut self, item: T) {
        debug_assert!(self.len < self.buf.len());
        let tail = (self.head + self.len) % self.buf.len();
        debug_assert!(self.buf[tail].is_none());
        self.buf[tail] = Some(item);
        self.len += 1;
    }

    fn dequeue(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.buf[self.head].take().expect("queued slot is filled");
        self.head = (self.head + 1) % self.buf.len();
        self.len -= 1;
        Some(item)
    }
}

/// A bounded multi-producer / single-drainer ring with a typed
/// backpressure policy. Producers share it behind an [`Arc`]; the owning
/// engine drains it at the start of every tick.
///
/// Generic over the payload so the backpressure invariants are
/// property-testable without building sensor windows
/// (`crates/core/tests/ingest_backpressure.rs`); the fleet instantiates it
/// as [`WindowQueue`].
pub struct IngestQueue<T> {
    state: Mutex<RingState<T>>,
    /// Signalled whenever space frees up or the queue closes, waking
    /// [`BlockingWait`](BackpressurePolicy::BlockingWait) producers.
    space: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
}

impl<T> IngestQueue<T> {
    /// A queue bounded at `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        assert!(capacity > 0, "ingest queue capacity must be positive");
        IngestQueue {
            state: Mutex::new(RingState {
                buf: (0..capacity).map(|_| None).collect(),
                head: 0,
                len: 0,
                closed: false,
            }),
            space: Condvar::new(),
            capacity,
            policy,
        }
    }

    /// The fixed bound. [`IngestQueue::len`] never exceeds this.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backpressure policy every producer observes.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// Entries currently queued (a snapshot — concurrent producers may
    /// change it immediately).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`IngestQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues one entry, honouring the backpressure policy. On failure
    /// the entry is handed back untouched alongside the typed error, so a
    /// rejected window is the *caller's* to retry or shed — the queue
    /// never swallows it.
    ///
    /// # Errors
    ///
    /// [`IngestError::QueueFull`] when the queue is at capacity under
    /// [`BackpressurePolicy::Reject`]; [`IngestError::Closed`] once
    /// [`IngestQueue::close`] has been called (a
    /// [`BlockingWait`](BackpressurePolicy::BlockingWait) producer parked
    /// on a full queue is woken with this error too).
    pub fn push(&self, item: T) -> Result<(), (T, IngestError)> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err((item, IngestError::Closed));
            }
            if state.len < self.capacity {
                state.enqueue(item);
                return Ok(());
            }
            match self.policy {
                BackpressurePolicy::Reject => {
                    return Err((
                        item,
                        IngestError::QueueFull {
                            capacity: self.capacity,
                        },
                    ));
                }
                BackpressurePolicy::BlockingWait => {
                    state = self
                        .space
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Pops the oldest entry, freeing space for blocked producers. Allowed
    /// after [`IngestQueue::close`] — closing stops intake, not drainage.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        let item = state.dequeue();
        if item.is_some() {
            drop(state);
            self.space.notify_all();
        }
        item
    }

    /// Drains every entry present when the call acquired the lock, in FIFO
    /// order, then wakes blocked producers. Entries pushed while the drain
    /// is handing back its batch wait for the next drain — so one drain
    /// never exceeds `capacity` entries and a fast producer cannot trap
    /// the consumer in an endless pop loop.
    pub fn drain_pending(&self) -> Vec<T> {
        let mut state = self.lock();
        let count = state.len;
        let mut drained = Vec::with_capacity(count);
        for _ in 0..count {
            drained.push(state.dequeue().expect("len entries are queued"));
        }
        if count > 0 {
            drop(state);
            self.space.notify_all();
        }
        drained
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`IngestError::Closed`] and every producer parked on a full queue
    /// is woken with the same error. Queued entries remain drainable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.space.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingState<T>> {
        // A producer can only poison the mutex by panicking mid-push; the
        // ring mutates atomically per operation, so the state is still
        // consistent — keep draining rather than cascading the panic.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T> fmt::Debug for IngestQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.lock();
        f.debug_struct("IngestQueue")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("len", &state.len)
            .field("closed", &state.closed)
            .finish()
    }
}

/// A window the queue would not take, handed back to the producer with the
/// typed reason. Nothing about the window was consumed — it can be
/// resubmitted as-is after the next drain.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedWindow {
    /// The user the window was submitted for.
    pub user: UserId,
    /// The home shard whose queue was full (or closed).
    pub shard: usize,
    /// The window itself, returned untouched.
    pub window: DualDeviceWindow,
    /// Why the queue refused it.
    pub error: IngestError,
}

/// The cloneable, thread-safe submission front door of a sharded fleet:
/// routes each window through the fleet's pure [`ShardRouter`] and pushes
/// it onto the home shard's bounded [`IngestQueue`]. Obtain one from
/// [`ShardedFleet::enable_ingest`](crate::engine::ShardedFleet::enable_ingest)
/// and clone it freely into producer threads.
#[derive(Debug, Clone)]
pub struct IngestRouter {
    router: ShardRouter,
    queues: Arc<[Arc<WindowQueue>]>,
}

impl IngestRouter {
    /// Builds a router over one queue per shard. The fleet constructs this
    /// (and attaches the same queues to its shard engines).
    ///
    /// # Panics
    ///
    /// Panics if the queue count differs from the router's shard count.
    pub(crate) fn new(router: ShardRouter, queues: Vec<Arc<WindowQueue>>) -> Self {
        assert_eq!(
            router.num_shards(),
            queues.len(),
            "one ingest queue per shard"
        );
        IngestRouter {
            router,
            queues: queues.into(),
        }
    }

    /// Number of shards (and queues) routed over.
    pub fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// The home shard `id` routes to — a pure function of the id, never
    /// affected by migrations (see the module docs).
    pub fn shard_of(&self, id: UserId) -> usize {
        self.router.shard_of(id)
    }

    /// The backpressure policy of the underlying queues.
    pub fn policy(&self) -> BackpressurePolicy {
        self.queues[0].policy()
    }

    /// Per-queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queues[0].capacity()
    }

    /// Entries currently queued on one shard's queue.
    pub fn queue_len(&self, shard: usize) -> usize {
        self.queues[shard].len()
    }

    /// Entries currently queued across all shards.
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Submits one window for `id` onto its home shard's queue, honouring
    /// the backpressure policy. Thread-safe; callable from any number of
    /// producers concurrently. The fleet scores it on the tick that drains
    /// it (per-user FIFO preserved).
    ///
    /// # Errors
    ///
    /// [`RejectedWindow`] (boxed — it carries the full window back
    /// untouched), with [`IngestError::QueueFull`] under
    /// [`BackpressurePolicy::Reject`] or [`IngestError::Closed`] after the
    /// fleet shut the queues down. A
    /// [`BackpressurePolicy::BlockingWait`] router only ever fails with
    /// `Closed`.
    pub fn submit(&self, id: UserId, window: DualDeviceWindow) -> Result<(), Box<RejectedWindow>> {
        let shard = self.router.shard_of(id);
        self.queues[shard]
            .push((id, window))
            .map_err(|((user, window), error)| {
                Box::new(RejectedWindow {
                    user,
                    shard,
                    window,
                    error,
                })
            })
    }

    /// Closes every queue: blocked producers wake with
    /// [`IngestError::Closed`], new submissions fail, queued windows stay
    /// drainable by the fleet.
    pub fn close(&self) {
        for queue in self.queues.iter() {
            queue.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_fifo_and_bounded() {
        let queue: IngestQueue<u32> = IngestQueue::new(3, BackpressurePolicy::Reject);
        assert_eq!(queue.capacity(), 3);
        assert!(queue.is_empty());
        for i in 0..3 {
            queue.push(i).expect("space");
        }
        assert_eq!(queue.len(), 3);
        let (back, err) = queue.push(99).expect_err("full");
        assert_eq!(back, 99);
        assert_eq!(err, IngestError::QueueFull { capacity: 3 });
        assert_eq!(queue.pop(), Some(0));
        queue.push(3).expect("space freed");
        assert_eq!(queue.drain_pending(), vec![1, 2, 3]);
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn close_fails_pushes_but_keeps_entries_drainable() {
        let queue: IngestQueue<u32> = IngestQueue::new(4, BackpressurePolicy::Reject);
        queue.push(7).expect("space");
        queue.close();
        assert!(queue.is_closed());
        let (back, err) = queue.push(8).expect_err("closed");
        assert_eq!((back, err), (8, IngestError::Closed));
        assert_eq!(queue.drain_pending(), vec![7]);
    }

    #[test]
    fn blocking_wait_parks_until_space_frees() {
        let queue: Arc<IngestQueue<u32>> =
            Arc::new(IngestQueue::new(1, BackpressurePolicy::BlockingWait));
        queue.push(0).expect("space");
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1))
        };
        // The producer is (or is about to be) parked on the full ring.
        // Pop exactly once: FIFO hands back the pre-existing entry and
        // frees the space the parked push is waiting for — the producer's
        // own entry must stay queued for the final drain.
        assert_eq!(queue.pop(), Some(0));
        producer.join().expect("producer").expect("push succeeds");
        assert_eq!(queue.drain_pending(), vec![1]);
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let queue: Arc<IngestQueue<u32>> =
            Arc::new(IngestQueue::new(1, BackpressurePolicy::BlockingWait));
        queue.push(0).expect("space");
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(1))
        };
        // Give the producer a chance to park, then close under it.
        while !producer.is_finished() {
            queue.close();
            std::thread::yield_now();
        }
        let (back, err) = producer.join().expect("producer").expect_err("closed");
        assert_eq!((back, err), (1, IngestError::Closed));
        // The pre-close entry survived.
        assert_eq!(queue.drain_pending(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        IngestQueue::<u32>::new(0, BackpressurePolicy::Reject);
    }
}
