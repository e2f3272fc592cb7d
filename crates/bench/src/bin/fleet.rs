//! Fleet-engine throughput benchmark at the paper's deployed window
//! (6 s × 50 Hz = 300 samples): windows/sec scored by the batched
//! multi-user engine at 100, 1 000 and 10 000 simulated users, plus a
//! 300-sample spectrum microbench isolating the planned-FFT gain.
//!
//! ```text
//! cargo run --release -p smarteryou-bench --bin fleet [-- --quick]
//! ```
//!
//! `--quick` drops the 10 000-user row for CI/smoke runs. Results are
//! printed *and* written to `BENCH_fleet.json` so the perf trajectory is
//! machine-readable across PRs.
//!
//! The run fails (exit 1) if any spectral computation during the fleet
//! ticks fell back to the O(n²) reference DFT — the planned Bluestein path
//! must serve the non-power-of-two production window.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use smarteryou_bench::fleet::{retrain_material, FleetFixture, ShardFixture};
use smarteryou_core::engine::{BackpressurePolicy, TrainingService};
use smarteryou_core::{NegativeEpoch, RetrainPolicy, RetrainWorkspaceCache};
use smarteryou_dsp::{dft_fallback_count, SpectrumPlan, SpectrumScratch};
use smarteryou_ml::{KrrFitCache, KrrTailState};
use smarteryou_sensors::UserId;

/// The paper's deployed window: 6 s at 50 Hz = 300 samples.
const WINDOW_SECS: f64 = 6.0;
const SAMPLE_RATE_HZ: f64 = 50.0;
const WINDOW_SAMPLES: usize = (WINDOW_SECS * SAMPLE_RATE_HZ) as usize;

#[derive(Debug, Serialize)]
struct ThroughputRow {
    windows_per_user_per_tick: usize,
    ticks: usize,
    windows: usize,
    secs: f64,
    windows_per_sec: f64,
    /// Logical cores visible to this run (`available_parallelism`). The
    /// tick loop is single-threaded, but recording the machine width makes
    /// per-core rates comparable across differently-sized runners.
    cores: usize,
    /// `windows_per_sec / cores` — the per-core rate the exit guard holds
    /// against the seed floor.
    windows_per_sec_per_core: f64,
}

#[derive(Debug, Serialize)]
struct FleetSize {
    users: usize,
    build_secs: f64,
    rows: Vec<ThroughputRow>,
}

#[derive(Debug, Serialize)]
struct EnrollRow {
    users: usize,
    build_secs: f64,
    users_per_sec: f64,
}

/// Fixture-construction (enrollment) cost per fleet size, derived from the
/// `fleet` rows — no extra builds. Since enrollment went through
/// `FleetEngine::enroll_many` (one shared negative epoch + Gram workspace
/// per fleet), the per-user cost is a closed-form fit and build time must
/// scale near-linearly; the exit guard holds a 10× fleet to ≤ ~15× the
/// build time.
#[derive(Debug, Serialize)]
struct EnrollBench {
    rows: Vec<EnrollRow>,
}

#[derive(Debug, Serialize)]
struct ChurnRow {
    /// How the per-tick working set moves: 0 keeps the same `capacity`
    /// users hot (steady state, no churn after warm-up); `capacity` shifts
    /// the whole working set every tick (worst case: every submit
    /// rehydrates, every tick evicts).
    working_set_stride: usize,
    ticks: usize,
    windows: usize,
    evictions: u64,
    rehydrations: u64,
    secs: f64,
    windows_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct EvictionChurnBench {
    users: usize,
    /// Resident-pipeline cap enforced after every tick.
    capacity: usize,
    rows: Vec<ChurnRow>,
}

#[derive(Debug, Serialize)]
struct ResidentScanRow {
    registered: usize,
    parked: usize,
    ticks: usize,
    windows: usize,
    secs: f64,
    windows_per_sec: f64,
}

/// The O(resident) proof row: tick cost with a huge registered-but-parked
/// tail vs the same resident set alone.
#[derive(Debug, Serialize)]
struct ResidentScanBench {
    resident: usize,
    rows: Vec<ResidentScanRow>,
    /// `rows[1].secs / rows[0].secs` — ≈1.0 when the tick is O(resident).
    parked_overhead_ratio: f64,
}

#[derive(Debug, Serialize)]
struct ShardRow {
    scenario: &'static str,
    ticks: usize,
    windows: usize,
    migrations: u64,
    evictions: u64,
    rehydrations: u64,
    secs: f64,
    windows_per_sec: f64,
}

/// UserId-routed shards over one shared, epoch-fenced snapshot store —
/// steady-state scoring plus a forced-migration churn row (each migration
/// is a fenced evict on the source shard + adopt/rehydrate on the target).
#[derive(Debug, Serialize)]
struct ShardBench {
    users: usize,
    shards: usize,
    capacity_per_shard: usize,
    rows: Vec<ShardRow>,
}

#[derive(Debug, Serialize)]
struct IngestRow {
    scenario: &'static str,
    policy: &'static str,
    queue_capacity_per_shard: usize,
    ticks: usize,
    windows_submitted: usize,
    /// Windows the shard ticks actually scored. Under `BlockingWait` this
    /// **must** equal `windows_submitted` — the run fails otherwise.
    windows_scored: usize,
    secs: f64,
    windows_per_sec: f64,
}

/// Async ingestion in front of the sharded fleet: producers push through
/// the bounded per-shard queues ([`smarteryou_core::engine::IngestRouter`])
/// instead of holding `&mut` fleet access. `steady` feeds one window per
/// user per tick from one thread (queues sized so backpressure never
/// engages); `burst` hammers deliberately tiny `BlockingWait` queues from
/// four concurrent producer threads while the main thread ticks — the
/// worst-case handoff pattern, and the guard that blocking backpressure
/// loses nothing.
#[derive(Debug, Serialize)]
struct IngestBench {
    users: usize,
    shards: usize,
    producer_threads: usize,
    rows: Vec<IngestRow>,
}

#[derive(Debug, Serialize)]
struct TrainingRow {
    scenario: &'static str,
    /// Worker threads behind the [`TrainingService`]; 0 = synchronous
    /// apply-at-tick-boundary mode (retrains execute on the tick thread).
    workers: usize,
    ticks: usize,
    windows: usize,
    retrains_started: u64,
    retrains_completed: u64,
    retrains_canceled: u64,
    /// Peak `retrains_in_flight` observed across the measured ticks — the
    /// async rows must show real overlap, the sync/idle rows must stay 0.
    max_in_flight: usize,
    /// `started − completed − canceled` after the drain loop. Positive =
    /// a retrain was lost, negative = one was double-applied; either fails
    /// the run.
    lost_retrains: i64,
    p50_tick_ms: f64,
    p99_tick_ms: f64,
}

/// Deferred retraining behind the [`TrainingService`]: per-tick latency
/// distribution with 0 retrains in flight (`deferred_idle`), with retrains
/// executing on the tick thread at the boundary (`deferred_sync` — the
/// bit-identical reference mode, see `tests/training_parity.rs`), and with
/// retrains overlapping scoring on worker threads (`deferred_async`). The
/// tick path only wins if the async p99 stays near the idle row while the
/// sync row absorbs the full fit cost.
#[derive(Debug, Serialize)]
struct TrainingBench {
    users: usize,
    retrain_period: usize,
    rows: Vec<TrainingRow>,
}

#[derive(Debug, Serialize)]
struct RetrainRow {
    scenario: &'static str,
    /// Retrain jobs executed (users × rounds).
    jobs: usize,
    /// Per-job fit latency — one confidence-retrain resolved end to end.
    p50_fit_ms: f64,
    p99_fit_ms: f64,
    /// Fit-cache traffic summed over every job's caches: `shared_hits`
    /// are closed-form solves off the shared negative-Gram workspace
    /// (incl. incremental tail slides), `keyed_hits` are per-user keyed
    /// reuse, `misses` are true full-cost stack-and-fit fallbacks.
    shared_hits: u64,
    keyed_hits: u64,
    misses: u64,
}

/// Confidence-retrain latency, legacy stack-and-fit vs the shared-workspace
/// path, at the deployed config: every user retrains against the same
/// pinned negative epoch (the storm shape), then twice more after sliding
/// its positive buffer by one window — the tail-slide case. The storm row
/// must report **zero true fit-cache misses** (the run fails otherwise):
/// one workspace build amortizes across the fleet and every job resolves
/// as an m×m closed-form solve or an incremental Cholesky slide.
#[derive(Debug, Serialize)]
struct RetrainBench {
    users: usize,
    rounds: usize,
    rows: Vec<RetrainRow>,
    /// Legacy p50 / shared p50 — the headline per-job win.
    speedup_p50: f64,
}

#[derive(Debug, Serialize)]
struct KernelRow {
    kernel: &'static str,
    /// Operations timed per path (the per-op rates below divide by this).
    ops: usize,
    reference_ns_per_op: f64,
    fast_ns_per_op: f64,
    /// `reference / fast` — the exit guard fails the run if any kernel is
    /// materially slower than its scalar reference.
    speedup: f64,
}

/// Microbenches for the vectorized kernels at the deployed 300-sample
/// window: the one-pass summary, the chunked magnitude kernel and the
/// 4-lane batched spectrum. Each row times a scalar reference against the
/// kernel the fleet rows above actually ran.
#[derive(Debug, Serialize)]
struct KernelBench {
    rows: Vec<KernelRow>,
}

#[derive(Debug, Serialize)]
struct SpectrumMicrobench {
    samples: usize,
    planned_spectra_per_sec: f64,
    dft_reference_spectra_per_sec: f64,
    planned_speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    quick: bool,
    window_secs: f64,
    sample_rate_hz: f64,
    window_samples: usize,
    /// O(n²) DFT invocations observed while the fleet sizes ran — must be
    /// zero: the production window is served by the planned Bluestein path.
    dft_fallbacks_during_fleet: u64,
    fleet: Vec<FleetSize>,
    /// Batched-enrollment scaling: fixture build cost per fleet size, with
    /// an exit guard against superlinear regressions.
    enroll: EnrollBench,
    /// Throughput with bounded residency: idle pipelines snapshotted to an
    /// in-memory store (full binary encode/decode per round-trip) and
    /// rehydrated on submit. Decisions stay bit-identical to the unevicted
    /// engine (`tests/persist_parity.rs`); this measures what the churn
    /// costs.
    eviction_churn: EvictionChurnBench,
    /// Tick cost is O(resident), not O(registered): a 99× parked tail must
    /// cost ≈ nothing.
    resident_scan: ResidentScanBench,
    /// 4-shard routed fleet over a shared store, incl. forced-migration
    /// churn. Decisions stay bit-identical to a single engine
    /// (`tests/shard_parity.rs`).
    shard: ShardBench,
    /// Bounded async ingestion queues in front of the 4-shard fleet,
    /// steady + burst. Decisions stay bit-identical to the synchronous
    /// path (`tests/ingest_parity.rs`); `BlockingWait` must lose nothing.
    ingest: IngestBench,
    /// Tick latency under deferred retraining: idle floor, synchronous
    /// apply-at-boundary, and worker-backed async overlap. Sync mode stays
    /// bit-identical to inline retraining (`tests/training_parity.rs`);
    /// every row must account for all of its retrains.
    training: TrainingBench,
    /// Per-job confidence-retrain fit latency, legacy stack-and-fit vs the
    /// shared negative-Gram workspace + incremental Cholesky tail slides.
    /// Results agree to 1e-6 (`tests/training_parity.rs`); the storm row
    /// must run with zero true fit-cache misses.
    retrain: RetrainBench,
    /// Vectorized-kernel microbenches (one-pass summary, chunked magnitude,
    /// batched spectrum) against scalar references, with an exit guard
    /// that no kernel regressed below its reference.
    kernels: KernelBench,
    spectrum_microbench: SpectrumMicrobench,
}

/// Logical cores visible to the process; 1 when the runtime cannot tell.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn measure(num_users: usize) -> FleetSize {
    let build_start = Instant::now();
    let mut fixture =
        FleetFixture::build_with_window(num_users, WINDOW_SECS, 0xF1EE7).expect("fixture builds");
    let build_secs = build_start.elapsed().as_secs_f64();

    // Warm up until the core is actually busy — first-touch allocation,
    // branch predictors and the frequency governor all need more than one
    // 5ms tick to settle after the memory-bound fixture build.
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < 0.3 {
        fixture.submit_tick(1);
        fixture.tick();
    }

    let mut rows = Vec::new();
    for per_user in [1usize, 4] {
        // Each pass ticks until the sample is long enough to dampen
        // scheduler / frequency-governor noise: at least 5 ticks AND at
        // least 0.3s of measured work (a 100-user tick is ~5ms; 5 of
        // those alone is a coin flip). The row reports the best of five
        // passes — interference is strictly additive, so the fastest pass
        // is the closest estimate of what the machine can actually do.
        const MIN_TICKS: usize = 5;
        const MIN_SECS: f64 = 0.3;
        const PASSES: usize = 5;
        let mut ticks = 0usize;
        let mut windows = 0usize;
        let mut accepts = 0usize;
        let mut rejections = 0usize;
        let mut secs = f64::INFINITY;
        let mut throughput = 0.0f64;
        for _ in 0..PASSES {
            let mut pass_ticks = 0usize;
            let mut pass_windows = 0usize;
            let mut pass_accepts = 0usize;
            let mut pass_rejections = 0usize;
            let start = Instant::now();
            while pass_ticks < MIN_TICKS || start.elapsed().as_secs_f64() < MIN_SECS {
                pass_windows += fixture.submit_tick(per_user);
                let report = fixture.tick();
                pass_accepts += report.accepts();
                pass_rejections += report.rejections();
                pass_ticks += 1;
            }
            let pass_secs = start.elapsed().as_secs_f64();
            let pass_throughput = pass_windows as f64 / pass_secs;
            if pass_throughput > throughput {
                ticks = pass_ticks;
                windows = pass_windows;
                accepts = pass_accepts;
                rejections = pass_rejections;
                secs = pass_secs;
                throughput = pass_throughput;
            }
        }
        let cores = cores();
        let per_core = throughput / cores as f64;
        println!(
            "{num_users:>7} users  {per_user} win/user/tick  {windows:>7} windows in {secs:>7.3}s  \
             {throughput:>12.0} windows/sec  ({per_core:.0}/core × {cores}, accept {accepts}, \
             reject {rejections})"
        );
        rows.push(ThroughputRow {
            windows_per_user_per_tick: per_user,
            ticks,
            windows,
            secs,
            windows_per_sec: throughput,
            cores,
            windows_per_sec_per_core: per_core,
        });
    }
    println!("{num_users:>7} users  fixture build (enrollment + model training): {build_secs:.2}s");
    FleetSize {
        users: num_users,
        build_secs,
        rows,
    }
}

/// Measures tick throughput with eviction enabled: a fleet of `num_users`
/// enrolled pipelines capped at `capacity` resident, driven by a working
/// set of `capacity` active users per tick. Stride 0 is the friendly case
/// (the hot set stays hot); stride = `capacity` rotates the whole working
/// set each tick, so every submit rehydrates from a snapshot and every
/// tick evicts a full working set — the upper bound on churn cost.
fn measure_churn(num_users: usize, capacity: usize) -> EvictionChurnBench {
    let mut fixture =
        FleetFixture::build_with_window(num_users, WINDOW_SECS, 0xCAFE).expect("fixture builds");
    fixture.enable_eviction(capacity);
    // Warm-up: establish the initial resident set and evict the rest.
    fixture.submit_tick_for(0..capacity, 1);
    fixture.tick();

    let mut rows = Vec::new();
    for stride in [0usize, capacity] {
        let ticks = 5;
        let mut windows = 0usize;
        let (evictions_before, rehydrations_before) = fixture.engine_mut().eviction_totals();
        let start = Instant::now();
        for t in 0..ticks {
            // (t + 1): the warm-up left users 0..capacity resident, so the
            // first strided tick must already rotate away from them —
            // otherwise one of the measured ticks is churn-free and the
            // "worst case" number is diluted.
            let first = ((t + 1) * stride) % num_users;
            windows += fixture.submit_tick_for((first..first + capacity).map(|u| u % num_users), 1);
            fixture.tick();
        }
        let secs = start.elapsed().as_secs_f64();
        let (evictions_after, rehydrations_after) = fixture.engine_mut().eviction_totals();
        let evictions = evictions_after - evictions_before;
        let rehydrations = rehydrations_after - rehydrations_before;
        let throughput = windows as f64 / secs;
        println!(
            "{num_users:>7} users  cap {capacity}  stride {stride:>4}  {windows:>6} windows in \
             {secs:>7.3}s  {throughput:>10.0} windows/sec  \
             (evictions {evictions}, rehydrations {rehydrations})"
        );
        rows.push(ChurnRow {
            working_set_stride: stride,
            ticks,
            windows,
            evictions,
            rehydrations,
            secs,
            windows_per_sec: throughput,
        });
    }
    EvictionChurnBench {
        users: num_users,
        capacity,
        rows,
    }
}

/// Measures tick throughput for a fixed 100-resident working set, first
/// with nothing else registered and then with `parked` additional
/// registered-but-parked users. Before the resident-slot index, every tick
/// walked all registered slots; now the parked tail must be free.
fn measure_resident_scan(parked: usize) -> ResidentScanBench {
    let resident = 100usize;
    let mut rows = Vec::new();
    for parked in [0usize, parked] {
        let mut fixture =
            FleetFixture::build_with_window(resident, WINDOW_SECS, 0xD1CE).expect("fixture builds");
        fixture.enable_eviction(resident + 28);
        fixture.park_users(parked);
        // Warm-up tick.
        fixture.submit_tick(1);
        fixture.tick();
        let ticks = 10;
        let mut windows = 0usize;
        let start = Instant::now();
        for _ in 0..ticks {
            windows += fixture.submit_tick(1);
            let report = fixture.tick();
            assert_eq!(report.scanned_slots(), resident, "tick walked parked slots");
        }
        let secs = start.elapsed().as_secs_f64();
        let throughput = windows as f64 / secs;
        println!(
            "{:>7} registered ({resident} resident)  {windows:>6} windows in {secs:>7.3}s  \
             {throughput:>10.0} windows/sec",
            resident + parked
        );
        rows.push(ResidentScanRow {
            registered: resident + parked,
            parked,
            ticks,
            windows,
            secs,
            windows_per_sec: throughput,
        });
    }
    let parked_overhead_ratio = rows[1].secs / rows[0].secs;
    println!("parked-tail overhead ratio: {parked_overhead_ratio:.2}× (≈1.0 = O(resident))");
    ResidentScanBench {
        resident,
        rows,
        parked_overhead_ratio,
    }
}

/// Measures the 4-shard routed fleet: steady-state scoring (all users
/// submitting on their home shards) and a forced-migration churn row where
/// a block of users is rebalanced to neighbouring shards every tick.
fn measure_shard(num_users: usize, num_shards: usize) -> ShardBench {
    // 10% headroom over the mean shard load: hash routing is balanced but
    // not exact, and the steady row must measure scoring, not avoidable
    // eviction churn on the fullest shard.
    let mean = num_users.div_ceil(num_shards);
    let capacity_per_shard = mean + (mean / 10).max(64);
    let build_start = Instant::now();
    let mut fixture = ShardFixture::build(
        num_users,
        num_shards,
        capacity_per_shard,
        WINDOW_SECS,
        0x5AD5,
    )
    .expect("fixture builds");
    println!(
        "{num_users:>7} users / {num_shards} shards  fixture build: {:.2}s",
        build_start.elapsed().as_secs_f64()
    );
    // Warm-up tick.
    fixture.submit_tick();
    fixture.tick();

    let migration_block = (num_users / 40).max(1);
    let mut rows = Vec::new();
    for (scenario, block) in [("steady", 0usize), ("migration_churn", migration_block)] {
        let ticks = 5;
        let mut windows = 0usize;
        let mut migrations = 0u64;
        let totals_before: (u64, u64) = (0..num_shards)
            .map(|s| fixture.fleet().shard(s).eviction_totals())
            .fold((0, 0), |(e, r), (te, tr)| (e + te, r + tr));
        let start = Instant::now();
        for _ in 0..ticks {
            migrations += fixture.migrate_block(block) as u64;
            windows += fixture.submit_tick();
            fixture.tick();
        }
        let secs = start.elapsed().as_secs_f64();
        let totals_after: (u64, u64) = (0..num_shards)
            .map(|s| fixture.fleet().shard(s).eviction_totals())
            .fold((0, 0), |(e, r), (te, tr)| (e + te, r + tr));
        let throughput = windows as f64 / secs;
        println!(
            "{num_users:>7} users / {num_shards} shards  {scenario:<15}  {windows:>7} windows in \
             {secs:>7.3}s  {throughput:>10.0} windows/sec  (migrations {migrations})"
        );
        rows.push(ShardRow {
            scenario,
            ticks,
            windows,
            migrations,
            evictions: totals_after.0 - totals_before.0,
            rehydrations: totals_after.1 - totals_before.1,
            secs,
            windows_per_sec: throughput,
        });
    }
    assert_eq!(
        fixture.fleet().migrations(),
        rows.iter().map(|r| r.migrations).sum::<u64>(),
        "fleet migration counter disagrees with the bench schedule"
    );
    ShardBench {
        users: num_users,
        shards: num_shards,
        capacity_per_shard,
        rows,
    }
}

/// Measures the async ingestion front door on a 4-shard fleet. `steady`:
/// one producer, one window per user per tick, `Reject` queues sized so
/// backpressure never engages — the pure routing+queue overhead vs the
/// synchronous `shard` rows. `burst`: four producer threads blocking-push
/// three windows per user into deliberately tiny `BlockingWait` queues
/// while the main thread ticks — concurrent handoff under constant
/// backpressure. Returns the rows; the caller fails the run if the burst
/// scored fewer windows than were submitted (blocking backpressure must
/// lose nothing).
fn measure_ingest(num_users: usize, num_shards: usize) -> IngestBench {
    let mean = num_users.div_ceil(num_shards);
    let capacity_per_shard = mean + (mean / 10).max(64);
    let producer_threads = 4;
    let build_start = Instant::now();
    // Same seed as the shard scenario: its per-profile enrollment streams
    // are known to converge for every profile.
    let mut fixture = ShardFixture::build(
        num_users,
        num_shards,
        capacity_per_shard,
        WINDOW_SECS,
        0x5AD5,
    )
    .expect("fixture builds");
    println!(
        "{num_users:>7} users / {num_shards} shards  ingest fixture build: {:.2}s",
        build_start.elapsed().as_secs_f64()
    );
    let mut rows = Vec::new();

    // Steady: queues comfortably above the per-shard tick load (hash
    // routing is balanced but not exact).
    let steady_capacity = mean * 2;
    let router = fixture.enable_ingest(steady_capacity, BackpressurePolicy::Reject);
    fixture.ingest_tick(&router);
    fixture.tick(); // warm-up
    let ticks = 5;
    let mut submitted = 0usize;
    let mut scored = 0usize;
    let start = Instant::now();
    for _ in 0..ticks {
        submitted += fixture.ingest_tick(&router);
        for report in fixture.tick() {
            assert!(report.ingest_errors().is_empty(), "ingest delivery failed");
            scored += report.windows_scored();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let throughput = scored as f64 / secs;
    println!(
        "{num_users:>7} users / {num_shards} shards  async_ingest steady  {scored:>7} windows in \
         {secs:>7.3}s  {throughput:>10.0} windows/sec  (queue cap {steady_capacity}/shard)"
    );
    rows.push(IngestRow {
        scenario: "steady",
        policy: "Reject",
        queue_capacity_per_shard: steady_capacity,
        ticks,
        windows_submitted: submitted,
        windows_scored: scored,
        secs,
        windows_per_sec: throughput,
    });

    // Burst: tiny BlockingWait queues, four concurrent producers pushing
    // three windows per user, main thread draining via ticks.
    let burst_capacity = (mean / 4).max(1);
    let router = fixture.enable_ingest(burst_capacity, BackpressurePolicy::BlockingWait);
    let burst_per_user = 3usize;
    let submitted = num_users * burst_per_user;
    // Producers clone windows out of the shared per-profile pool on the
    // fly: queued memory stays bounded by the queue capacity.
    let feed: Vec<Vec<_>> = fixture.feed().to_vec();
    let profile_of: Vec<usize> = (0..num_users).map(|u| fixture.profile_of(u)).collect();
    let mut scored = 0usize;
    let mut ticks = 0usize;
    let start = Instant::now();
    std::thread::scope(|s| {
        let chunk = num_users.div_ceil(producer_threads);
        for range in (0..num_users).collect::<Vec<_>>().chunks(chunk) {
            let router = router.clone();
            let feed = &feed;
            let profile_of = &profile_of;
            let range = range.to_vec();
            s.spawn(move || {
                for u in range {
                    let pool = &feed[profile_of[u]];
                    for k in 0..burst_per_user {
                        let window = pool[k % pool.len()].clone();
                        router
                            .submit(UserId(u), window)
                            .expect("BlockingWait producers park, they never fail");
                    }
                }
            });
        }
        while scored < submitted {
            for report in fixture.tick() {
                assert!(report.ingest_errors().is_empty(), "ingest delivery failed");
                scored += report.windows_scored();
            }
            ticks += 1;
            if ticks >= 100_000 {
                // Wake parked producers before panicking, so the scope's
                // implicit join cannot hang on a blocked thread.
                router.close();
                panic!("burst scenario never drained");
            }
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let throughput = scored as f64 / secs;
    println!(
        "{num_users:>7} users / {num_shards} shards  async_ingest burst   {scored:>7} windows in \
         {secs:>7.3}s  {throughput:>10.0} windows/sec  (queue cap {burst_capacity}/shard, \
         {producer_threads} producers, {ticks} ticks)"
    );
    rows.push(IngestRow {
        scenario: "burst",
        policy: "BlockingWait",
        queue_capacity_per_shard: burst_capacity,
        ticks,
        windows_submitted: submitted,
        windows_scored: scored,
        secs,
        windows_per_sec: throughput,
    });

    IngestBench {
        users: num_users,
        shards: num_shards,
        producer_threads,
        rows,
    }
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Measures per-tick latency (p50/p99) under deferred retraining. Three
/// rows on identical fleets: a policy that never triggers (0 retrains in
/// flight — the floor), an eager policy on the synchronous service (every
/// retrain executes on the tick thread at the boundary), and the same
/// eager policy on a 2-worker service (retrains overlap scoring; the tick
/// only pays the apply). Each row drains to zero in flight afterwards and
/// reports `lost_retrains` — the caller fails the run if any retrain was
/// lost or double-applied.
fn measure_training(num_users: usize, retrain_period: usize) -> TrainingBench {
    // `threshold: 0.0` can never trigger (the gate is `0 ≤ median < 0`);
    // `threshold: 1e9` triggers every `retrain_period` accepted windows.
    let never = RetrainPolicy {
        threshold: 0.0,
        period: 30,
        max_reject_fraction: 1.0,
    };
    let eager = RetrainPolicy {
        threshold: 1e9,
        period: retrain_period,
        max_reject_fraction: 1.0,
    };
    let mut rows = Vec::new();
    for (scenario, policy, workers) in [
        ("deferred_idle", never, 0usize),
        ("deferred_sync", eager, 0),
        ("deferred_async", eager, 2),
    ] {
        let mut fixture = FleetFixture::build_deferred(num_users, WINDOW_SECS, 0x7EA1, policy)
            .expect("fixture builds");
        fixture.enable_training(if workers == 0 {
            TrainingService::synchronous()
        } else {
            TrainingService::with_workers(workers)
        });
        // Warm-up: submit any retrain captured during enrollment build and
        // drain it, so every row starts with zero retrains in flight.
        fixture.submit_tick(1);
        fixture.tick();
        while fixture.engine_mut().retrains_in_flight() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            fixture.tick();
        }
        let base = fixture.engine_mut().retrain_totals();

        let ticks = 16;
        let mut windows = 0usize;
        let mut max_in_flight = 0usize;
        let mut samples_ms = Vec::with_capacity(ticks);
        for _ in 0..ticks {
            windows += fixture.submit_tick(1);
            let start = Instant::now();
            let report = fixture.tick();
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            max_in_flight = max_in_flight.max(report.retrains_in_flight());
        }
        // Drain: empty ticks submit parked triggers and apply completed
        // jobs; no new windows means no new triggers, so this terminates.
        let mut drain_ticks = 0usize;
        while fixture.engine_mut().retrains_in_flight() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            fixture.tick();
            drain_ticks += 1;
            assert!(drain_ticks < 100_000, "training bench never drained");
        }
        let totals = fixture.engine_mut().retrain_totals();
        let (started, completed, canceled) =
            (totals.0 - base.0, totals.1 - base.1, totals.2 - base.2);
        let lost_retrains = started as i64 - completed as i64 - canceled as i64;
        samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p50_tick_ms = percentile_ms(&samples_ms, 0.50);
        let p99_tick_ms = percentile_ms(&samples_ms, 0.99);
        println!(
            "{num_users:>7} users  {scenario:<14}  {workers} workers  tick p50 {p50_tick_ms:>8.2}ms  \
             p99 {p99_tick_ms:>8.2}ms  (retrains {started} started / {completed} completed / \
             {canceled} canceled, peak in flight {max_in_flight})"
        );
        rows.push(TrainingRow {
            scenario,
            workers,
            ticks,
            windows,
            retrains_started: started,
            retrains_completed: completed,
            retrains_canceled: canceled,
            max_in_flight,
            lost_retrains,
            p50_tick_ms,
            p99_tick_ms,
        });
    }
    TrainingBench {
        users: num_users,
        retrain_period,
        rows,
    }
}

/// Measures per-job confidence-retrain fit latency at the deployed config.
/// Every user retrains against the same pinned negative epoch — the storm
/// shape the fleet produces when a drift event trips many trackers in one
/// tick — then `rounds - 1` more times after sliding its positive buffer
/// by one window per context. `legacy_stack_and_fit` re-runs the full
/// negative pass + O(n³) refit per job; `shared_workspace_storm` resolves
/// each job off one shared negative-Gram workspace (closed-form m×m solve,
/// then incremental Cholesky tail slides).
fn measure_retrain(num_users: usize, rounds: usize) -> RetrainBench {
    let material =
        retrain_material(num_users, WINDOW_SECS, 0x2E7A).expect("retrain material builds");
    let server = material.server.lock();
    let profiles = material.buffers.len();
    // Per-user positive buffers, slid by one window per context between
    // rounds (pop the oldest, re-append it: removed = added = 1, well
    // inside the tail-slide budget, and fully deterministic).
    let mut positives: Vec<[Vec<Vec<f64>>; 2]> = (0..num_users)
        .map(|u| material.buffers[u % profiles].clone())
        .collect();
    let slide = |positives: &mut [[Vec<Vec<f64>>; 2]]| {
        for per_user in positives.iter_mut() {
            for buf in per_user.iter_mut() {
                let oldest = buf.remove(0);
                buf.push(oldest);
            }
        }
    };

    // Identical retrain-RNG seeds pin every user to the same sampled
    // negative epoch, as a synchronized drift event would.
    let mut rows = Vec::new();
    let mut p50s = Vec::new();
    for scenario in ["legacy_stack_and_fit", "shared_workspace_storm"] {
        let shared = scenario == "shared_workspace_storm";
        let ws_cache = RetrainWorkspaceCache::new();
        let mut rngs: Vec<StdRng> = (0..num_users)
            .map(|_| StdRng::seed_from_u64(0xD21F7))
            .collect();
        let mut epochs: Vec<Option<NegativeEpoch>> = vec![None; num_users];
        let mut caches: Vec<[KrrFitCache; 2]> = (0..num_users)
            .map(|_| [KrrFitCache::default(), KrrFitCache::default()])
            .collect();
        let mut tails: Vec<[Option<KrrTailState>; 2]> = vec![[None, None]; num_users];
        let mut samples_ms = Vec::with_capacity(num_users * rounds);
        for round in 0..rounds {
            if round > 0 {
                slide(&mut positives);
            }
            for u in 0..num_users {
                let start = Instant::now();
                let fitted = if shared {
                    server.train_authenticator_epoch_shared(
                        &positives[u],
                        &material.cfg,
                        &mut rngs[u],
                        &mut epochs[u],
                        &mut caches[u],
                        &mut tails[u],
                        &ws_cache,
                    )
                } else {
                    server.train_authenticator_epoch(
                        &positives[u],
                        &material.cfg,
                        &mut rngs[u],
                        &mut epochs[u],
                        &mut caches[u],
                    )
                };
                samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
                fitted.expect("retrain fits");
            }
        }
        // Rewind the buffers so both scenarios refit identical positives.
        for _ in 1..rounds {
            slide(&mut positives);
        }
        let (shared_hits, keyed_hits, misses) = caches
            .iter()
            .flatten()
            .fold((0u64, 0u64, 0u64), |(s, k, m), c| {
                (s + c.shared_hits(), k + c.keyed_hits(), m + c.misses())
            });
        samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p50_fit_ms = percentile_ms(&samples_ms, 0.50);
        let p99_fit_ms = percentile_ms(&samples_ms, 0.99);
        p50s.push(p50_fit_ms);
        println!(
            "{num_users:>7} users  retrain {scenario:<22}  {} jobs  fit p50 {p50_fit_ms:>7.3}ms  \
             p99 {p99_fit_ms:>7.3}ms  (cache: {shared_hits} shared / {keyed_hits} keyed / \
             {misses} miss)",
            samples_ms.len()
        );
        rows.push(RetrainRow {
            scenario,
            jobs: samples_ms.len(),
            p50_fit_ms,
            p99_fit_ms,
            shared_hits,
            keyed_hits,
            misses,
        });
    }
    let speedup_p50 = p50s[0] / p50s[1].max(1e-9);
    println!("retrain per-job p50 speedup (legacy / shared): {speedup_p50:.1}×");
    RetrainBench {
        users: num_users,
        rounds,
        rows,
        speedup_p50,
    }
}

/// Times each vectorized kernel against a scalar reference at the deployed
/// shapes. Every "fast" column here is the exact code the fleet rows above
/// ran; each reference is the scalar code it replaced, inlined here where
/// the library no longer ships it. A magnitude-stream-shaped signal
/// (gravity offset + small fluctuations) keeps the one-pass variance in
/// its numerically interesting regime.
fn measure_kernels() -> KernelBench {
    use smarteryou_dsp::{axis_magnitude, magnitude_series_into, BatchSpectrumScratch};
    use smarteryou_stats::Summary;

    let mut rows = Vec::new();
    let mut time =
        |label: &'static str, ops: usize, reference: &mut dyn FnMut(), fast: &mut dyn FnMut()| {
            // Warm both paths, then interleave measurement order (reference
            // first) so cache state favours neither.
            reference();
            fast();
            let start = Instant::now();
            reference();
            let reference_ns = start.elapsed().as_secs_f64() * 1e9 / ops as f64;
            let start = Instant::now();
            fast();
            let fast_ns = start.elapsed().as_secs_f64() * 1e9 / ops as f64;
            let speedup = reference_ns / fast_ns.max(1e-9);
            println!(
            "kernel {label:<22} reference {reference_ns:>9.1} ns/op  fast {fast_ns:>9.1} ns/op  \
             ({speedup:.2}×)"
        );
            rows.push(KernelRow {
                kernel: label,
                ops,
                reference_ns_per_op: reference_ns,
                fast_ns_per_op: fast_ns,
                speedup,
            });
        };

    // One-pass 4-lane summary at the 300-sample magnitude stream; the
    // reference is the two-pass scalar loop it replaced (sum/min/max in
    // slice order, then the centred sum of squares).
    let signal: Vec<f64> = (0..WINDOW_SAMPLES)
        .map(|i| 9.81 + (i as f64 * 0.23).sin() + 0.4 * (i as f64 * 0.71).cos())
        .collect();
    let two_pass = |data: &[f64]| {
        let n = data.len();
        let mut sum = 0.0f64;
        let mut min = f64::NAN;
        let mut max = f64::NAN;
        for &v in data {
            sum += v;
            min = if min.is_nan() { v } else { min.min(v) };
            max = if max.is_nan() { v } else { max.max(v) };
        }
        let mean = if n == 0 { f64::NAN } else { sum / n as f64 };
        let variance = if n < 2 {
            f64::NAN
        } else {
            data.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        };
        Summary {
            count: n,
            mean,
            variance,
            min,
            max,
        }
    };
    let iters = 50_000usize;
    time(
        "summary_300",
        iters,
        &mut || {
            for _ in 0..iters {
                std::hint::black_box(two_pass(std::hint::black_box(&signal)));
            }
        },
        &mut || {
            for _ in 0..iters {
                std::hint::black_box(Summary::from_slice(std::hint::black_box(&signal)));
            }
        },
    );

    // Chunked 3-axis magnitude at 300 samples; the reference is the
    // per-sample `axis_magnitude` map the seed ran.
    let (x, y, z): (Vec<f64>, Vec<f64>, Vec<f64>) = (
        signal.clone(),
        signal.iter().map(|v| v * 0.7 + 0.1).collect(),
        signal.iter().map(|v| v * 0.3 - 0.2).collect(),
    );
    let mut out_ref = Vec::with_capacity(WINDOW_SAMPLES);
    let mut out_fast = Vec::with_capacity(WINDOW_SAMPLES);
    time(
        "magnitude_300",
        iters,
        &mut || {
            for _ in 0..iters {
                out_ref.clear();
                out_ref.extend(
                    x.iter()
                        .zip(&y)
                        .zip(&z)
                        .map(|((&a, &b), &c)| axis_magnitude(a, b, c)),
                );
                std::hint::black_box(&out_ref);
            }
        },
        &mut || {
            for _ in 0..iters {
                magnitude_series_into(&x, &y, &z, &mut out_fast);
                std::hint::black_box(&out_fast);
            }
        },
    );

    // Batched 4-lane spectrum vs four scalar transforms; ns per spectrum.
    let plan = SpectrumPlan::new(WINDOW_SAMPLES);
    let lanes = [&signal, &x, &y, &z];
    let mut scalar_scratch = SpectrumScratch::default();
    let mut batch_scratch = BatchSpectrumScratch::default();
    let mut outs_ref = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut outs_fast = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let spectra = 4 * 5_000usize;
    time(
        "spectrum_300_batch4",
        spectra,
        &mut || {
            for _ in 0..spectra / 4 {
                for (lane, out) in lanes.iter().zip(outs_ref.iter_mut()) {
                    plan.magnitude_into(lane, &mut scalar_scratch, out);
                }
                std::hint::black_box(&outs_ref);
            }
        },
        &mut || {
            for _ in 0..spectra / 4 {
                let [o0, o1, o2, o3] = &mut outs_fast;
                plan.magnitude_batch4_into(
                    [&signal, &x, &y, &z].map(|v| v.as_slice()),
                    &mut batch_scratch,
                    [o0, o1, o2, o3],
                );
                std::hint::black_box(&outs_fast);
            }
        },
    );

    KernelBench { rows }
}

/// Times the planned spectrum against the O(n²) reference at the deployed
/// 300-sample window. The reference intentionally calls [`smarteryou_dsp::dft`],
/// so this must run *after* the fallback counter has been checked.
fn spectrum_microbench() -> SpectrumMicrobench {
    let signal: Vec<f64> = (0..WINDOW_SAMPLES)
        .map(|i| 9.81 + (i as f64 * 0.23).sin() + 0.4 * (i as f64 * 0.71).cos())
        .collect();

    let plan = SpectrumPlan::new(WINDOW_SAMPLES);
    let mut scratch = SpectrumScratch::default();
    let mut out = Vec::new();
    plan.magnitude_into(&signal, &mut scratch, &mut out); // warm buffers
    let planned_iters = 20_000usize;
    let start = Instant::now();
    for _ in 0..planned_iters {
        plan.magnitude_into(&signal, &mut scratch, &mut out);
        std::hint::black_box(&out);
    }
    let planned_per_sec = planned_iters as f64 / start.elapsed().as_secs_f64();

    // O(n²) reference: mean removal + direct DFT + one-sided scaling, the
    // shape of the pre-plan fallback path.
    let dft_iters = 200usize;
    let start = Instant::now();
    for _ in 0..dft_iters {
        let n = signal.len();
        let mean = signal.iter().sum::<f64>() / n as f64;
        let buf: Vec<smarteryou_dsp::Complex> = signal
            .iter()
            .map(|&s| smarteryou_dsp::Complex::from_real(s - mean))
            .collect();
        let transformed = smarteryou_dsp::dft(&buf);
        let spectrum: Vec<f64> = transformed[..=n / 2]
            .iter()
            .map(|z| z.abs() * 2.0 / n as f64)
            .collect();
        std::hint::black_box(spectrum);
    }
    let dft_per_sec = dft_iters as f64 / start.elapsed().as_secs_f64();

    println!(
        "spectrum @ {WINDOW_SAMPLES} samples: planned {planned_per_sec:.0}/sec, \
         O(n²) reference {dft_per_sec:.0}/sec ({:.1}× faster)",
        planned_per_sec / dft_per_sec
    );
    SpectrumMicrobench {
        samples: WINDOW_SAMPLES,
        planned_spectra_per_sec: planned_per_sec,
        dft_reference_spectra_per_sec: dft_per_sec,
        planned_speedup: planned_per_sec / dft_per_sec,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    smarteryou_bench::header(
        "fleet",
        "batched multi-user scoring throughput (FleetEngine::tick, 300-sample windows)",
    );
    let sizes: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let baseline = dft_fallback_count();
    let mut fleet = Vec::new();
    for &n in sizes {
        fleet.push(measure(n));
        println!();
    }
    // Eviction churn at the mid-size fleet: enough users that bounded
    // residency matters, small enough that the scenario stays a smoke test
    // in --quick runs.
    let (churn_users, churn_capacity) = if quick { (200, 50) } else { (1_000, 250) };
    let eviction_churn = measure_churn(churn_users, churn_capacity);
    println!();
    // O(resident) proof: 100 hot users against a parked tail 19×/99× the
    // resident set.
    let resident_scan = measure_resident_scan(if quick { 1_900 } else { 9_900 });
    println!();
    // The sharded fleet, steady and under forced-migration rebalancing.
    let shard = measure_shard(if quick { 1_000 } else { 10_000 }, 4);
    println!();
    // Async ingestion in front of the shards: steady single-producer rows
    // plus a threaded BlockingWait burst.
    let ingest = measure_ingest(if quick { 1_000 } else { 10_000 }, 4);
    println!();
    // Deferred retraining: tick latency with 0 retrains in flight, with
    // retrains on the tick thread, and with retrains on worker threads.
    let training = measure_training(if quick { 64 } else { 128 }, 6);
    println!();
    // Per-job retrain fit latency: legacy stack-and-fit vs the shared
    // negative-Gram workspace with incremental tail slides.
    let retrain = measure_retrain(if quick { 48 } else { 128 }, 3);
    println!();
    let fallbacks = dft_fallback_count() - baseline;

    // Vectorized kernels against the scalar code they replaced.
    let kernels = measure_kernels();
    println!();

    // The microbench runs the reference DFT on purpose; check the fleet
    // fallback count first so the guard only sees production work.
    let microbench = spectrum_microbench();

    let enroll = EnrollBench {
        rows: fleet
            .iter()
            .map(|f| EnrollRow {
                users: f.users,
                build_secs: f.build_secs,
                users_per_sec: f.users as f64 / f.build_secs.max(1e-9),
            })
            .collect(),
    };
    for row in &enroll.rows {
        println!(
            "enroll {:>7} users in {:>7.3}s  ({:>9.0} users/sec)",
            row.users, row.build_secs, row.users_per_sec
        );
    }
    println!();

    let report = BenchReport {
        bench: "fleet".to_string(),
        quick,
        window_secs: WINDOW_SECS,
        sample_rate_hz: SAMPLE_RATE_HZ,
        window_samples: WINDOW_SAMPLES,
        dft_fallbacks_during_fleet: fallbacks,
        fleet,
        enroll,
        eviction_churn,
        resident_scan,
        shard,
        ingest,
        training,
        retrain,
        kernels,
        spectrum_microbench: microbench,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Echo the report before any failure exit so CI logs always carry the
    // machine-readable numbers, fallback regressions included.
    println!("{json}");
    std::fs::write("BENCH_fleet.json", json + "\n").expect("BENCH_fleet.json written");
    println!("wrote BENCH_fleet.json");

    // Enrollment must stay near-linear in fleet size: with the shared
    // negative-Gram workspace a 10× fleet costs ≈1× extra (fixed world
    // setup dominates), so ≤ ~15× is a loose ceiling that still catches a
    // return to per-user refactorisation (historically ~40× per decade).
    for pair in report.enroll.rows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.users == a.users * 10 && b.build_secs > 15.0 * a.build_secs {
            eprintln!(
                "FAIL: enrollment build cost is superlinear — {} users took {:.2}s but \
                 {} users took {:.2}s (> 15× for 10× the fleet); batched enrollment \
                 must reuse the shared negative workspace",
                a.users, a.build_secs, b.users, b.build_secs
            );
            std::process::exit(1);
        }
    }
    if fallbacks > 0 {
        eprintln!(
            "FAIL: {fallbacks} spectral computation(s) fell back to the O(n²) DFT \
             during fleet scoring — the planned FFT must cover the production window"
        );
        std::process::exit(1);
    }
    // The async ingest scenario must account for every submitted window:
    // BlockingWait is contractually loss-free, and the steady Reject row
    // sizes its queues so backpressure never engages.
    for row in &report.ingest.rows {
        if row.windows_scored != row.windows_submitted {
            eprintln!(
                "FAIL: async_ingest {} row dropped windows ({} submitted, {} scored) — \
                 bounded ingestion must never lose a window",
                row.scenario, row.windows_submitted, row.windows_scored
            );
            std::process::exit(1);
        }
    }
    // The production-config retrain storm must resolve every job off the
    // shared negative-Gram workspace: a true fit-cache miss means a job
    // fell back to the full-cost stack-and-fit, which is exactly the
    // regression the shared path exists to prevent.
    for row in &report.retrain.rows {
        if row.scenario == "shared_workspace_storm" && row.misses > 0 {
            eprintln!(
                "FAIL: shared-workspace retrain storm took {} true fit-cache miss(es) over \
                 {} jobs ({} shared hits, {} keyed hits) — every storm job must resolve off \
                 the shared negative-Gram block or an incremental tail slide",
                row.misses, row.jobs, row.shared_hits, row.keyed_hits
            );
            std::process::exit(1);
        }
    }
    // Every vectorized kernel must actually beat (or at least match) its
    // scalar reference — a kernel slower than the code it replaced is a
    // regression however the fleet rows look. 10% headroom absorbs timer
    // noise on the cheaper kernels.
    for row in &report.kernels.rows {
        if row.fast_ns_per_op > row.reference_ns_per_op * 1.10 {
            eprintln!(
                "FAIL: kernel {} is slower than its scalar reference \
                 ({:.1} ns/op vs {:.1} ns/op) — the vectorized kernel must not regress",
                row.kernel, row.fast_ns_per_op, row.reference_ns_per_op
            );
            std::process::exit(1);
        }
    }
    // Fleet throughput must stay above the seed per-core floor. The floors
    // are the slowest committed pre-vectorization rows (windows/sec on the
    // 1-core reference runner) with a 0.9× noise margin; the vectorized
    // kernels are expected to clear them by ≥2×, so tripping this guard
    // means the extraction stack regressed badly, not that a run was
    // merely noisy.
    const SEED_FLOORS: &[(usize, usize, f64)] = &[
        (100, 1, 9_008.0),
        (100, 4, 8_707.0),
        (1_000, 1, 7_765.0),
        (1_000, 4, 5_325.0),
        (10_000, 1, 5_137.0),
        (10_000, 4, 4_882.0),
    ];
    for size in &report.fleet {
        for row in &size.rows {
            let Some(&(_, _, floor)) = SEED_FLOORS
                .iter()
                .find(|&&(u, p, _)| u == size.users && p == row.windows_per_user_per_tick)
            else {
                continue;
            };
            if row.windows_per_sec_per_core < floor * 0.9 {
                eprintln!(
                    "FAIL: fleet row ({} users, {} win/user/tick) ran at {:.0} windows/sec/core, \
                     below the seed floor of {:.0} — the vectorized kernels must never be \
                     slower than the scalar seed",
                    size.users, row.windows_per_user_per_tick, row.windows_per_sec_per_core, floor
                );
                std::process::exit(1);
            }
        }
    }
    // Every submitted retrain must be accounted for after the drain:
    // started == completed + canceled exactly. Positive drift means a
    // retrain was lost (never applied, never canceled); negative means one
    // was applied or canceled twice.
    for row in &report.training.rows {
        if row.lost_retrains != 0 {
            eprintln!(
                "FAIL: training {} row {} a retrain ({} started, {} completed, {} canceled) — \
                 the deferred path must never lose or double-apply a model",
                row.scenario,
                if row.lost_retrains > 0 {
                    "lost"
                } else {
                    "double-applied"
                },
                row.retrains_started,
                row.retrains_completed,
                row.retrains_canceled
            );
            std::process::exit(1);
        }
    }
}
