//! Cross-process ownership protocol suite for [`FileSnapshotStore`]: the
//! epoch compare-and-swap under concurrent acquirers, the epoch tombstone
//! on remove, typed corruption errors, orphan-temp sweeping, dead-holder
//! lock stealing (PID reuse included), and write-ahead-journal recovery at
//! every labeled kill
//! point (panic-mode fault injection — the crash-faithful abort-mode
//! matrix lives in `tests/crash_recovery.rs` at the workspace root).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};

use parking_lot::Mutex;
use proptest::prelude::*;

use smarteryou_core::fault::{points, FaultPlan};
use smarteryou_core::persist::{
    FileSnapshotStore, JournalResolution, PersistError, PipelineSnapshot, SnapshotStore,
};
use smarteryou_core::{
    ContextDetector, ContextDetectorConfig, FeatureExtractor, SmarterYou, SystemConfig,
    TrainingServer,
};
use smarteryou_sensors::{UsageContext, UserId};

fn temp_store_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "smarteryou-epoch-cas-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small but fully valid pipeline snapshot (fresh, unenrolled pipeline
/// over a 4-window toy detector); `seed` varies the RNG state so two
/// snapshots with different seeds differ at the byte level.
fn tiny_snapshot(seed: u64) -> PipelineSnapshot {
    static DETECTOR: OnceLock<ContextDetector> = OnceLock::new();
    let detector = DETECTOR.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let extractor = FeatureExtractor::paper_default(50.0);
        let mut rng: StdRng = SeedableRng::seed_from_u64(7);
        ContextDetector::train(
            extractor,
            &[
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![0.1, 0.9],
                vec![0.9, 0.1],
            ],
            &[
                UsageContext::Stationary,
                UsageContext::Moving,
                UsageContext::Stationary,
                UsageContext::Moving,
            ],
            ContextDetectorConfig {
                num_trees: 2,
                max_depth: 2,
            },
            &mut rng,
        )
        .expect("toy detector trains")
    });
    let server = Arc::new(Mutex::new(TrainingServer::new()));
    SmarterYou::new(
        SystemConfig::paper_default(),
        detector.clone(),
        server,
        seed,
    )
    .expect("valid config")
    .snapshot()
}

#[test]
fn cas_single_winner_among_racing_processes_handles() {
    // N independent store handles on one directory (each handle is what a
    // separate process would hold) all CAS from the same observed epoch:
    // exactly one wins, everyone else gets a typed StaleEpoch carrying the
    // actual stored value.
    let dir = temp_store_dir("single-winner");
    let id = UserId(4);
    let results: Vec<_> = (0..4)
        .map(|_| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                let mut store = FileSnapshotStore::new(dir).unwrap();
                store.acquire_cas(id, 0)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let winners = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(winners, 1, "exactly one CAS winner: {results:?}");
    for r in &results {
        match r {
            Ok(e) => assert_eq!(*e, 1),
            Err(PersistError::StaleEpoch {
                held: 0, stored, ..
            }) => {
                assert_eq!(*stored, 1, "losers observe the winner's claim")
            }
            Err(other) => panic!("losers must fail typed, got {other:?}"),
        }
    }
    let mut store = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(store.epoch(id).unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Concurrent unconditional acquirers (CAS retry loops under the hood)
    /// over one directory: every claim wins a *distinct* epoch value — no
    /// epoch is ever handed out twice, no claim is silently overwritten —
    /// and the final stored epoch equals the total number of claims.
    #[test]
    fn concurrent_acquirers_never_share_an_epoch(
        threads in 2usize..5,
        claims_per_thread in 1usize..4,
    ) {
        let dir = temp_store_dir("acquirers");
        let id = UserId(1);
        let claimed: Arc<StdMutex<Vec<u64>>> = Arc::new(StdMutex::new(Vec::new()));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let dir = dir.clone();
                let claimed = Arc::clone(&claimed);
                std::thread::spawn(move || {
                    let mut store = FileSnapshotStore::new(dir).unwrap();
                    for _ in 0..claims_per_thread {
                        let epoch = store.acquire(id).unwrap();
                        claimed.lock().unwrap().push(epoch);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut epochs = claimed.lock().unwrap().clone();
        let total = threads * claims_per_thread;
        prop_assert_eq!(epochs.len(), total);
        epochs.sort_unstable();
        let expected: Vec<u64> = (1..=total as u64).collect();
        // Distinct + dense: epochs 1..=total each won exactly once.
        prop_assert_eq!(epochs, expected);
        let mut store = FileSnapshotStore::new(&dir).unwrap();
        prop_assert_eq!(store.epoch(id).unwrap(), total as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stale_owner_cannot_resurrect_a_removed_user() {
    // Regression for the epoch tombstone: remove used to delete the
    // `.epoch` sidecar, so a stale owner's save after remove+re-register
    // passed the (reset-to-0) fence and resurrected the deregistered user.
    let dir = temp_store_dir("tombstone");
    let mut store = FileSnapshotStore::new(&dir).unwrap();
    let id = UserId(3);
    let stale_snap = tiny_snapshot(111);
    let fresh_snap = tiny_snapshot(222);
    assert_ne!(stale_snap.to_json(), fresh_snap.to_json());

    let old_held = store.acquire(id).unwrap();
    store.save_fenced(id, old_held, &stale_snap).unwrap();
    // Deregistration drops the snapshot but the fence survives...
    store.remove(id).unwrap();
    assert_eq!(store.load(id).unwrap(), None);
    assert_eq!(store.epoch(id).unwrap(), old_held);
    // ...so after re-registration the stale owner stays fenced out.
    let new_held = store.acquire(id).unwrap();
    store.save_fenced(id, new_held, &fresh_snap).unwrap();
    assert!(matches!(
        store.save_fenced(id, old_held, &stale_snap),
        Err(PersistError::StaleEpoch { held, stored, .. }) if held == old_held && stored == new_held
    ));
    assert_eq!(store.load(id).unwrap(), Some(fresh_snap));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_epoch_is_malformed_and_unreadable_is_io() {
    let dir = temp_store_dir("epoch-errors");
    let mut store = FileSnapshotStore::new(&dir).unwrap();
    let id = UserId(5);
    // Corruption arm: garbage in the sidecar is on-disk damage, typed
    // Malformed so recovery policy can treat it differently from a
    // transient read failure.
    std::fs::write(dir.join(format!("{id}.epoch")), "not-a-number").unwrap();
    assert!(matches!(
        store.epoch(id),
        Err(PersistError::Malformed(msg)) if msg.contains("epoch")
    ));
    // I/O arm: a sidecar that cannot be read as a file at all (here: it is
    // a directory) is transient-or-environmental, typed Io.
    let id2 = UserId(6);
    std::fs::create_dir(dir.join(format!("{id2}.epoch"))).unwrap();
    assert!(matches!(store.epoch(id2), Err(PersistError::Io(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn try_len_distinguishes_broken_store_from_empty() {
    let dir = temp_store_dir("try-len");
    let store = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(store.try_len().unwrap(), 0);
    assert_eq!(store.len(), 0);
    // Pull the directory out from under the handle: the lossy `len()`
    // still reads 0, but `try_len` surfaces the failure.
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(matches!(store.try_len(), Err(PersistError::Io(_))));
    assert_eq!(store.len(), 0);
}

#[test]
fn orphaned_temps_are_swept_on_open_and_never_counted() {
    let dir = temp_store_dir("temp-sweep");
    let id = UserId(2);
    {
        let mut store = FileSnapshotStore::new(&dir).unwrap();
        store.save(id, &tiny_snapshot(9)).unwrap();
    }
    // A crash between temp-write and rename strands `*.tmp` files; plant
    // the debris a dead writer would leave.
    std::fs::write(dir.join("user09.snapshot.json.tmp"), "half-written").unwrap();
    std::fs::write(dir.join("user09.epoch.tmp"), "4").unwrap();
    let mut store = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(store.recovery_report().swept_temps, 2);
    assert_eq!(store.try_len().unwrap(), 1, "temps are never counted");
    assert_eq!(
        store.load(UserId(9)).unwrap(),
        None,
        "temps are never loaded"
    );
    assert_eq!(store.epoch(UserId(9)).unwrap(), 0);
    assert!(!dir.join("user09.snapshot.json.tmp").exists());
    assert_eq!(store.load(id).unwrap(), Some(tiny_snapshot(9)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Opening a store never deletes a write in flight: every `write_atomic`
/// runs under the per-user lock, so a temp next to a lock whose holder is
/// alive survives the open-time sweep, while a temp next to a dead
/// holder's lock is crash debris, swept and counted.
#[test]
fn temps_under_a_live_lock_survive_open_dead_holders_are_swept() {
    let dir = temp_store_dir("live-temp");
    FileSnapshotStore::new(&dir).unwrap();
    let (live, dead) = (UserId(3), UserId(5));
    let live_lock = dir.join(format!("{live}.lock"));
    let live_tmp = dir.join(format!("{live}.journal.tmp"));
    let dead_lock = dir.join(format!("{dead}.lock"));
    let dead_tmp = dir.join(format!("{dead}.snapshot.json.tmp"));
    // Our own PID: a live holder mid-write.
    std::fs::write(&live_lock, format!("{}", std::process::id())).unwrap();
    std::fs::write(&live_tmp, "in flight").unwrap();
    // A PID no process can have: the holder is provably dead.
    std::fs::write(&dead_lock, "4000000000").unwrap();
    std::fs::write(&dead_tmp, "half-written").unwrap();

    let store = FileSnapshotStore::new(&dir).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.swept_temps, 1, "only the dead holder's temp goes");
    assert_eq!(report.stale_locks, 1);
    assert!(
        live_tmp.exists(),
        "a live holder's temp is its write in flight"
    );
    assert!(live_lock.exists());
    assert!(!dead_tmp.exists());
    assert!(!dead_lock.exists(), "the sweep releases the lock it took");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_holder_lock_is_stolen_live_holder_is_respected() {
    let dir = temp_store_dir("locks");
    let id = UserId(8);
    {
        FileSnapshotStore::new(&dir).unwrap();
    }
    // A lock whose holder PID provably no longer runs is reaped at open.
    std::fs::write(dir.join(format!("{id}.lock")), "4000000000").unwrap();
    let mut store = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(store.recovery_report().stale_locks, 1);
    assert!(!dir.join(format!("{id}.lock")).exists());
    assert_eq!(store.acquire(id).unwrap(), 1);

    // A lock held by a live process (here: ourselves — the conservative
    // direction) is left alone, and a journal under it is that holder's to
    // resolve, not ours.
    std::fs::write(
        dir.join(format!("{id}.lock")),
        format!("{}", std::process::id()),
    )
    .unwrap();
    std::fs::write(
        dir.join(format!("{id}.journal")),
        r#"{"op":"acquire","state":"intent","epoch":2,"hash":0,"len":0}"#,
    )
    .unwrap();
    let mut reopened = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(reopened.recovery_report().stale_locks, 0);
    assert!(reopened.recovery_report().journals.is_empty());
    assert!(dir.join(format!("{id}.lock")).exists());
    assert!(dir.join(format!("{id}.journal")).exists());
    // Once the "live" holder is gone, on-demand recovery resolves it: the
    // intent never bumped the epoch, so the claim rolls back.
    std::fs::remove_file(dir.join(format!("{id}.lock"))).unwrap();
    assert_eq!(
        reopened.recover_user(id).unwrap(),
        Some(JournalResolution::AcquireRolledBack { to: 2 })
    );
    assert_eq!(reopened.epoch(id).unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A lock stamped `pid:starttime` names one process even after its PID is
/// recycled: a live PID whose start time differs from the stamp belongs to
/// a newer process, so the stamping holder is dead and its lock is stolen;
/// a matching start time is the holder itself and is respected.
#[cfg(target_os = "linux")]
#[test]
fn lock_naming_a_recycled_pid_is_stolen() {
    let pid = std::process::id();
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // Field 22 (start time), counted from after the parenthesized name.
    let start: u64 = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .nth(19)
        .unwrap()
        .parse()
        .unwrap();

    let dir = temp_store_dir("pid-reuse");
    let id = UserId(8);
    let lock = dir.join(format!("{id}.lock"));
    FileSnapshotStore::new(&dir).unwrap();

    // Our PID, but a process that started at another time: recycled.
    std::fs::write(&lock, format!("{pid}:{}", start + 1)).unwrap();
    let mut store = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(store.recovery_report().stale_locks, 1);
    assert!(!lock.exists());
    assert_eq!(store.acquire(id).unwrap(), 1);

    // Our PID and our start time: the live holder.
    std::fs::write(&lock, format!("{pid}:{start}")).unwrap();
    let reopened = FileSnapshotStore::new(&dir).unwrap();
    assert_eq!(reopened.recovery_report().stale_locks, 0);
    assert!(lock.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Journal recovery at every store-internal kill point, in panic mode: the
/// fault unwinds (releasing the lock guard, as a non-crash error path
/// would) but leaves the journal exactly as a crash at that point does.
/// Reopening the directory must resolve each to the documented verdict and
/// leave the snapshot+epoch pair consistent.
#[test]
fn journal_recovery_matrix_under_panic_faults() {
    let id = UserId(1);
    let old_snap = tiny_snapshot(1000);
    let new_snap = tiny_snapshot(2000);

    struct Case {
        point: &'static str,
        op: Op,
        expect: JournalResolution,
        /// Snapshot expected on disk after recovery: `true` = the new
        /// (interrupted) write, `false` = the old one.
        new_data_visible: bool,
        /// Epoch expected on disk after recovery.
        epoch_after: u64,
    }
    enum Op {
        SaveFenced,
        Acquire,
        Remove,
    }
    // Every case starts from: epoch 1 held, `old_snap` saved under it.
    let cases = [
        Case {
            point: points::SAVE_INTENT,
            op: Op::SaveFenced,
            expect: JournalResolution::SaveRolledBack { epoch: 1 },
            new_data_visible: false,
            epoch_after: 1,
        },
        Case {
            point: points::SAVE_DATA,
            op: Op::SaveFenced,
            expect: JournalResolution::SaveCommitted { epoch: 1 },
            new_data_visible: true,
            epoch_after: 1,
        },
        Case {
            point: points::SAVE_COMMIT,
            op: Op::SaveFenced,
            expect: JournalResolution::SaveCommitted { epoch: 1 },
            new_data_visible: true,
            epoch_after: 1,
        },
        Case {
            point: points::ACQUIRE_INTENT,
            op: Op::Acquire,
            expect: JournalResolution::AcquireRolledBack { to: 2 },
            new_data_visible: false,
            epoch_after: 1,
        },
        Case {
            point: points::ACQUIRE_EPOCH,
            op: Op::Acquire,
            expect: JournalResolution::AcquireCommitted { to: 2 },
            new_data_visible: false,
            epoch_after: 2,
        },
        Case {
            point: points::ACQUIRE_COMMIT,
            op: Op::Acquire,
            expect: JournalResolution::AcquireCommitted { to: 2 },
            new_data_visible: false,
            epoch_after: 2,
        },
        Case {
            point: points::REMOVE_DATA,
            op: Op::Remove,
            expect: JournalResolution::RemoveCommitted,
            new_data_visible: false,
            epoch_after: 1,
        },
    ];

    for case in cases {
        let dir = temp_store_dir("journal-matrix");
        {
            let mut seeded = FileSnapshotStore::new(&dir).unwrap();
            let held = seeded.acquire(id).unwrap();
            assert_eq!(held, 1);
            seeded.save_fenced(id, held, &old_snap).unwrap();
        }
        let plan = FaultPlan::panic_at(case.point, 1);
        let mut store = FileSnapshotStore::with_fault_plan(&dir, Arc::clone(&plan)).unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| match case.op {
            Op::SaveFenced => store.save_fenced(id, 1, &new_snap).map(|_| ()),
            Op::Acquire => store.acquire_cas(id, 1).map(|_| ()),
            Op::Remove => store.remove(id),
        }));
        assert!(unwound.is_err(), "{}: fault must fire", case.point);
        assert!(
            dir.join(format!("{id}.journal")).exists(),
            "{}: the interrupted op leaves its journal",
            case.point
        );
        drop(store);

        // A survivor opening the directory resolves the stranded journal.
        let mut survivor = FileSnapshotStore::new(&dir).unwrap();
        let report = survivor.recovery_report().clone();
        assert_eq!(
            report.journals,
            vec![(id.to_string(), case.expect)],
            "{}: resolution verdict",
            case.point
        );
        assert!(
            !dir.join(format!("{id}.journal")).exists(),
            "{}: resolved journal is removed",
            case.point
        );
        let on_disk = survivor.load(id).unwrap();
        match case.op {
            Op::Remove => assert_eq!(on_disk, None, "{}: snapshot removed", case.point),
            _ => {
                let expected = if case.new_data_visible {
                    &new_snap
                } else {
                    &old_snap
                };
                assert_eq!(
                    on_disk.as_ref(),
                    Some(expected),
                    "{}: snapshot consistency",
                    case.point
                );
            }
        }
        assert_eq!(
            survivor.epoch(id).unwrap(),
            case.epoch_after,
            "{}: epoch consistency",
            case.point
        );
        // The store is fully operational after recovery: the next CAS from
        // the recovered epoch succeeds.
        let next = survivor.acquire_cas(id, case.epoch_after).unwrap();
        assert_eq!(next, case.epoch_after + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn enter_points_fire_before_anything_is_written() {
    // The `.enter` points sit before the lock and the journal: a crash
    // there leaves no debris at all, and recovery is a no-op.
    let id = UserId(4);
    for point in [
        points::SAVE_ENTER,
        points::ACQUIRE_ENTER,
        points::REMOVE_ENTER,
    ] {
        let dir = temp_store_dir("enter-points");
        let plan = FaultPlan::panic_at(point, 1);
        let mut store = FileSnapshotStore::with_fault_plan(&dir, plan).unwrap();
        let snap = tiny_snapshot(5);
        let unwound = catch_unwind(AssertUnwindSafe(|| match point {
            p if p == points::SAVE_ENTER => store.save(id, &snap).map(|_| ()),
            p if p == points::ACQUIRE_ENTER => store.acquire(id).map(|_| ()),
            _ => store.remove(id),
        }));
        assert!(unwound.is_err(), "{point}: fault must fire");
        drop(store);
        let survivor = FileSnapshotStore::new(&dir).unwrap();
        assert_eq!(
            survivor.recovery_report(),
            &smarteryou_core::persist::RecoveryReport::default()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
