//! One benchmark run: set up, warm up, measure in a closed loop, drain,
//! check, and summarise.
//!
//! Per tick the loop pushes the tick's windows through
//! `IngestRouter::submit`, performs the workload's forced migration, and
//! calls `ShardedFleet::tick`. A window's decision latency runs from its
//! submit call to the return of the tick that decided it, matched through
//! a per-user FIFO of push times.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use smarteryou_core::engine::{ShardedFleet, TickReport};
use smarteryou_core::{
    DeviceSet, FeatureExtractor, FeatureScratch, FileSnapshotStore, NegativeEpoch,
    PipelineSnapshot, ProcessOutcome, RetrainMode, RetrainWorkspaceCache, SmarterYou,
    SnapshotStore,
};
use smarteryou_dsp::{dft_fallback_count, SpectrumPlan, SpectrumScratch};
use smarteryou_sensors::{SensorKind, UsageContext, UserId};
use smarteryou_stats::Summary;

use crate::fixture::{self, Fleet, Probes, World, SHARDS};
use crate::host;
use crate::trace::{quantile, Spans};
use crate::workload::Workload;

/// Side replays per traced tick: windows through extraction, context and
/// scoring; snapshots through encode/decode/restore and side-store I/O;
/// retrain fits.
const REPLAY_WINDOWS: usize = 64;
const REPLAY_SNAPSHOTS: usize = 4;
const REPLAY_FITS: usize = 1;
/// Users whose decisions are re-derived by a sequential shadow pipeline.
const SHADOW_USERS: usize = 8;
/// Ticks the final drain may take to decide forwarded windows.
const DRAIN_TICKS: usize = 8;
/// Owner (impostor) windows needed before the FRR (FAR) sanity gate
/// applies.
const GATE_SAMPLES: u64 = 200;
/// Reference bursts after each set-up.
const SETUP_BURSTS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured wall time; the run also makes at least
    /// `workload.min_ticks` measured ticks.
    pub seconds: f64,
    /// Traced run: the measured time is split into an untraced half and a
    /// traced half, and per-layer metrics come from the traced half.
    pub trace: bool,
    /// Directory (inside the checkout) for the traced run's side snapshot
    /// store; created fresh and removed at the end.
    pub scratch_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything a run found.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub trace: bool,
    /// Correctness violations; empty means correct.
    pub violations: Vec<String>,
    /// Windows pushed.
    pub attempted: u64,
    /// Windows never decided, plus failed eviction saves and migrations.
    pub failed: u64,
    /// Order-independent FNV-1a digest of every decision of the warm-up
    /// and the first `min_ticks` measured ticks.
    pub digest: u64,
    /// The end-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Secondary numbers: accuracy, failures, counts, host fingerprint.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Removes the side store's directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent too, unless another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A window pushed but not yet decided.
struct Pending {
    pushed: Instant,
    seq: u64,
    profile: usize,
    slot: usize,
    impostor: bool,
}

/// Decision and failure counts.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    decided: u64,
    accepted: u64,
    owner: u64,
    owner_rejected: u64,
    impostor: u64,
    impostor_accepted: u64,
    scored: u64,
    evictions: u64,
    rehydrations: u64,
    forwarded: u64,
    retrains_started: u64,
    tick_errors: u64,
    ingest_errors: u64,
    eviction_errors: u64,
}

/// Side-replay spans and counts (traced phase only).
struct Replays {
    features: Spans,
    magnitude: Spans,
    summary: Spans,
    spectrum: Spans,
    detect: Spans,
    score: Spans,
    encode: Spans,
    decode: Spans,
    restore: Spans,
    save: Spans,
    load: Spans,
    fit: Spans,
    moving: u64,
    snapshot_bytes: u64,
}

impl Replays {
    fn new(ticks: usize) -> Self {
        let windows = ticks * REPLAY_WINDOWS;
        let snapshots = ticks * REPLAY_SNAPSHOTS;
        Replays {
            features: Spans::with_capacity(windows),
            magnitude: Spans::with_capacity(windows),
            summary: Spans::with_capacity(windows),
            spectrum: Spans::with_capacity(windows),
            detect: Spans::with_capacity(windows),
            score: Spans::with_capacity(windows),
            encode: Spans::with_capacity(snapshots),
            decode: Spans::with_capacity(snapshots),
            restore: Spans::with_capacity(snapshots),
            save: Spans::with_capacity(snapshots),
            load: Spans::with_capacity(snapshots),
            fit: Spans::with_capacity(ticks * REPLAY_FITS),
            moving: 0,
            snapshot_bytes: 0,
        }
    }
}

/// One measured phase.
///
/// End-to-end numbers are kept twice: as measured, and scaled to the
/// reference host speed. After every tick, outside the measured interval,
/// a [`host::reference_burst`] runs; the tick's wall time, CPU time and
/// decision latencies are multiplied by `nominal ÷ burst` before they are
/// summed. A burst right after the tick sees the same host slowdown as the
/// tick did, so the scaled numbers keep what the code under test costs
/// and lose most of what the host's drift costs.
struct Phase {
    ticks: u64,
    /// Σ (first push → tick return) over the phase's ticks.
    wall: Duration,
    /// Process CPU over the same intervals.
    cpu: Duration,
    /// Process CPU inside `ShardedFleet::tick` calls only.
    tick_cpu: Duration,
    tally: Tally,
    /// Decision latencies, ns.
    latencies: Vec<u64>,
    scaled_wall: f64,
    scaled_cpu: f64,
    scaled_latencies: Vec<u64>,
    submit: Spans,
    tick: Spans,
    store_busy: Duration,
    trainer_busy: Duration,
    trainer_wait: Duration,
    replays: Option<Replays>,
    /// The reference burst after every tick.
    reference: Spans,
}

impl Phase {
    fn new(expected_ticks: usize, block: usize, traced: bool) -> Self {
        Phase {
            ticks: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            tick_cpu: Duration::ZERO,
            tally: Tally::default(),
            latencies: Vec::with_capacity(expected_ticks * block),
            scaled_wall: 0.0,
            scaled_cpu: 0.0,
            scaled_latencies: Vec::with_capacity(expected_ticks * block),
            submit: Spans::with_capacity(if traced { expected_ticks * block } else { 0 }),
            tick: Spans::with_capacity(expected_ticks),
            store_busy: Duration::ZERO,
            trainer_busy: Duration::ZERO,
            trainer_wait: Duration::ZERO,
            replays: traced.then(|| Replays::new(expected_ticks)),
            reference: Spans::with_capacity(expected_ticks),
        }
    }

    fn throughput(&self) -> f64 {
        self.tally.decided as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Folds one measured tick's wall time, CPU time and decision latencies
    /// into the raw and scaled sums, given the reference burst after it.
    fn add_tick(&mut self, wall: Duration, cpu: Duration, latencies: &[u64], burst: Duration) {
        let f = host::REFERENCE_NOMINAL_NS / (burst.as_nanos() as f64).max(1.0);
        self.reference.push(burst);
        self.wall += wall;
        self.cpu += cpu;
        self.scaled_wall += wall.as_secs_f64() * f;
        self.scaled_cpu += cpu.as_secs_f64() * f;
        self.latencies.extend_from_slice(latencies);
        self.scaled_latencies
            .extend(latencies.iter().map(|&l| (l as f64 * f) as u64));
    }
}

/// Bench-side state for the traced phase's side replays.
struct ReplayTools {
    /// Declared first so it is dropped (the directory removed) after the
    /// store that writes into it.
    side_store: FileSnapshotStore,
    side_dir: ScratchDir,
    extractor: FeatureExtractor,
    scratch: FeatureScratch,
    plan: SpectrumPlan,
    spectrum_scratch: SpectrumScratch,
    magnitude: Vec<f64>,
    spectrum: Vec<f64>,
    fit_rng: StdRng,
    fit_epoch: Option<NegativeEpoch>,
    fit_workspaces: RetrainWorkspaceCache,
}

/// What a tick is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TickKind {
    Warmup,
    Measured,
    Drain,
}

struct Runner<'a> {
    opts: &'a Options,
    world: World,
    fleet: Fleet,
    probes: Option<Probes>,
    fifo: Vec<VecDeque<Pending>>,
    next_seq: Vec<u64>,
    shadows: BTreeMap<usize, SmarterYou>,
    shadow_mismatches: u64,
    orphan_outcomes: u64,
    tick_no: u64,
    digest: u64,
    digest_ticks_left: usize,
    pushed: u64,
    decided: u64,
    rejected: u64,
    migrate_errors: u64,
    roaming: Option<UserId>,
    tick_pushes: Vec<(usize, usize, usize)>,
    /// Decision latencies of the current tick, ns.
    tick_latencies: Vec<u64>,
    whole: Tally,
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Set-up failures (the fleet could not be built) are errors; anything
/// that goes wrong after set-up is counted as failed or reported as a
/// correctness violation instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let workload = &opts.workload;
    let dft_before = dft_fallback_count();

    // Set-up, repeated from nothing: `setup_s` is the median, each
    // repetition scaled to the reference host speed by reference bursts
    // taken right after it.
    let probes = opts.trace.then(Probes::default);
    let mut setup_times = Vec::with_capacity(workload.setups);
    let mut setup_scaled = Vec::with_capacity(workload.setups);
    let mut built = None;
    for _ in 0..workload.setups.max(1) {
        drop(built.take());
        let start = Instant::now();
        let world = fixture::build_world(workload.users, opts.seed)?;
        let fleet = fixture::build_fleet(workload, &world, opts.seed, probes.as_ref())?;
        let took = start.elapsed().as_secs_f64();
        let mut bursts = Spans::with_capacity(SETUP_BURSTS);
        for _ in 0..SETUP_BURSTS {
            bursts.push(host::reference_burst());
        }
        setup_times.push(took);
        setup_scaled.push(took * host::REFERENCE_NOMINAL_NS / bursts.quantile_ns(0.5));
        built = Some((world, fleet));
    }
    let (world, fleet) = built.expect("at least one set-up");
    setup_scaled.sort_by(f64::total_cmp);
    let setup_s = setup_scaled[setup_scaled.len() / 2];

    let mut runner = Runner::new(opts, world, fleet, probes);
    for _ in 0..workload.warmup_ticks {
        runner.tick(TickKind::Warmup, None, None);
    }

    let (mut untraced, traced) = if opts.trace {
        let half = opts.seconds / 2.0;
        let a = runner.phase(half, workload.min_ticks, false, None);
        let mut tools = ReplayTools::new(&runner.world, &opts.scratch_dir)?;
        let side_fs = host::filesystem_of(&tools.side_dir.0);
        runner.prime_fit_replay(&mut tools);
        let b = runner.phase(half, workload.min_ticks.div_ceil(2), true, Some(&mut tools));
        (a, Some((b, side_fs)))
    } else {
        (
            runner.phase(opts.seconds, workload.min_ticks, false, None),
            None,
        )
    };
    runner.drain();

    let mut violations = runner.check();
    let dft = dft_fallback_count() - dft_before;
    if dft != 0 {
        violations.push(format!("{dft} spectra fell back to the O(n^2) DFT"));
    }
    let whole = runner.whole;
    let frr = ratio(whole.owner_rejected, whole.owner);
    let far = ratio(whole.impostor_accepted, whole.impostor);
    // A sanity gate, not an accuracy claim: a scorer that accepts or
    // rejects everything fails it. Tiny runs decide too few windows for
    // the rates to mean anything.
    if (whole.owner >= GATE_SAMPLES && frr > 0.5) || (whole.impostor >= GATE_SAMPLES && far > 0.75)
    {
        violations.push(format!("implausible decisions: frr {frr}, far {far}"));
    }

    let failed = (runner.pushed - runner.decided.min(runner.pushed))
        + whole.eviction_errors
        + runner.migrate_errors;
    let mut context: Vec<(&'static str, String)> = vec![
        ("failed_frac", ratio(failed, runner.pushed).to_string()),
        ("frr", frr.to_string()),
        ("far", far.to_string()),
        ("decision_digest", format!("{:016x}", runner.digest)),
        ("windows_pushed", runner.pushed.to_string()),
        ("windows_decided", runner.decided.to_string()),
        ("ingest_rejected", runner.rejected.to_string()),
        ("tick_errors", whole.tick_errors.to_string()),
        ("ingest_errors", whole.ingest_errors.to_string()),
        ("eviction_errors", whole.eviction_errors.to_string()),
        ("migrate_errors", runner.migrate_errors.to_string()),
        ("shadow_users", runner.shadows.len().to_string()),
        ("measured_ticks", untraced.ticks.to_string()),
        ("measured_seconds", untraced.wall.as_secs_f64().to_string()),
        ("setup_runs_s", format!("{setup_times:?}")),
    ];
    context.extend(fingerprint(opts));
    let slowdown = untraced.reference.quantile_ns(0.5) / host::REFERENCE_NOMINAL_NS;
    context.push(("host_slowdown", slowdown.to_string()));

    let metrics = match traced {
        None => {
            setup_times.sort_by(f64::total_cmp);
            let unscaled = end_to_end(&untraced, false, setup_times[setup_times.len() / 2]);
            let unscaled: Vec<(&str, f64)> = unscaled.iter().map(|m| (m.name, m.value)).collect();
            context.push(("unscaled", format!("{unscaled:?}")));
            end_to_end(&untraced, true, setup_s)
        }
        Some((mut traced, side_fs)) => {
            context.push(("traced_ticks", traced.ticks.to_string()));
            context.push(("side_store_fs", side_fs));
            per_layer(&mut traced, &untraced, runner.fit_cache_detail())
        }
    };
    Ok(Report {
        workload: workload.clone(),
        trace: opts.trace,
        violations,
        attempted: runner.pushed,
        failed,
        digest: runner.digest,
        metrics,
        context,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn fingerprint(opts: &Options) -> Vec<(&'static str, String)> {
    let w = &opts.workload;
    vec![
        ("nproc", host::nproc().to_string()),
        ("cpu_model", host::cpu_model()),
        ("rustc", host::command_line("rustc", &["-V"])),
        ("git_head", host::git_head()),
        ("seed", opts.seed.to_string()),
        ("users", w.users.to_string()),
        ("shards", SHARDS.to_string()),
        ("capacity_per_shard", w.capacity_per_shard.to_string()),
        ("block", w.block.to_string()),
        ("advance", w.advance.to_string()),
        ("retrain", format!("{:?}", w.retrain)),
        ("migrations_per_tick", w.migrations_per_tick.to_string()),
        ("warmup_ticks", w.warmup_ticks.to_string()),
        ("fleet_store", "memory".into()),
    ]
}

/// The end-to-end metrics, `scaled` to the reference host speed (see
/// [`Phase`]) or as measured.
fn end_to_end(phase: &Phase, scaled: bool, setup_s: f64) -> Vec<Metric> {
    let (wall, cpu, mut latencies) = if scaled {
        (
            phase.scaled_wall,
            phase.scaled_cpu,
            phase.scaled_latencies.clone(),
        )
    } else {
        (
            phase.wall.as_secs_f64(),
            phase.cpu.as_secs_f64(),
            phase.latencies.clone(),
        )
    };
    let decided = phase.tally.decided.max(1) as f64;
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("throughput_wps", "1/s", decided / wall.max(1e-9)),
        m(
            "decision_p50_ms",
            "ms",
            quantile(&mut latencies, 0.50) / 1e6,
        ),
        m(
            "decision_p99_ms",
            "ms",
            quantile(&mut latencies, 0.99) / 1e6,
        ),
        m("cpu_ms_per_kwin", "ms", cpu * 1e6 / decided),
        m("peak_rss_mb", "MiB", host::peak_rss_mb()),
        m("setup_s", "s", setup_s),
    ]
}

/// `fit_cache` is the `(shared hits, keyed hits, misses)` of the resident
/// pipelines' KRR fit caches at the end of the run.
fn per_layer(traced: &mut Phase, untraced: &Phase, fit_cache: (u64, u64, u64)) -> Vec<Metric> {
    let (shared, keyed, missed) = fit_cache;
    let lookups = shared + keyed + missed;
    let ticks = traced.ticks.max(1) as f64;
    let tick_wall = traced.tick.total().as_secs_f64().max(1e-9);
    let t = traced.tally;
    let r = traced.replays.as_mut().expect("traced phase has replays");
    let replayed = r.features.len().max(1) as f64;
    let cpu_us_per_window = traced.tick_cpu.as_secs_f64() * 1e6 / t.decided.max(1) as f64;
    let m = |name, unit, value| Metric { name, unit, value };
    let us = |s: &mut Spans, q| s.quantile_ns(q) / 1e3;
    vec![
        m("ingest.submit_us.p50", "us", us(&mut traced.submit, 0.50)),
        m("ingest.submit_us.p99", "us", us(&mut traced.submit, 0.99)),
        m("ingest.forwarded", "1/tick", t.forwarded as f64 / ticks),
        m(
            "engine.tick_ms.p50",
            "ms",
            traced.tick.quantile_ns(0.50) / 1e6,
        ),
        m(
            "engine.tick_ms.p99",
            "ms",
            traced.tick.quantile_ns(0.99) / 1e6,
        ),
        m(
            "engine.core_util",
            "share",
            traced.tick_cpu.as_secs_f64() / (tick_wall * host::nproc() as f64),
        ),
        m("engine.windows_per_tick", "count", t.scored as f64 / ticks),
        m("engine.evictions", "1/tick", t.evictions as f64 / ticks),
        m(
            "engine.rehydrations",
            "1/tick",
            t.rehydrations as f64 / ticks,
        ),
        m(
            "features.window_features_us.p50",
            "us",
            us(&mut r.features, 0.50),
        ),
        m(
            "features.window_features_us.p99",
            "us",
            us(&mut r.features, 0.99),
        ),
        m(
            "features.cpu_share",
            "share",
            r.features.mean_ns() / 1e3 / cpu_us_per_window.max(1e-9),
        ),
        m("kernel.summary_ns.p50", "ns", r.summary.quantile_ns(0.50)),
        m("kernel.spectrum_us.p50", "us", us(&mut r.spectrum, 0.50)),
        m(
            "kernel.magnitude_ns.p50",
            "ns",
            r.magnitude.quantile_ns(0.50),
        ),
        m("context.detect_us.p50", "us", us(&mut r.detect, 0.50)),
        m("context.moving_share", "share", r.moving as f64 / replayed),
        m("auth.score_us.p50", "us", us(&mut r.score, 0.50)),
        m("auth.accept_share", "share", ratio(t.accepted, t.decided)),
        m("training.fit_us.p50", "us", us(&mut r.fit, 0.50)),
        m("training.fit_us.p99", "us", us(&mut r.fit, 0.99)),
        m(
            "training.tick_share",
            "share",
            traced.trainer_busy.as_secs_f64() / tick_wall,
        ),
        m(
            "training.lock_wait_share",
            "share",
            traced.trainer_wait.as_secs_f64() / tick_wall,
        ),
        m(
            "training.retrains_per_window",
            "ratio",
            ratio(t.retrains_started, t.decided),
        ),
        m("training.fit_cache_shared", "share", ratio(shared, lookups)),
        m("training.fit_cache_keyed", "share", ratio(keyed, lookups)),
        m("training.fit_cache_miss", "share", ratio(missed, lookups)),
        m("persist.store_save_us.p50", "us", us(&mut r.save, 0.50)),
        m("persist.store_save_us.p99", "us", us(&mut r.save, 0.99)),
        m("persist.store_load_us.p50", "us", us(&mut r.load, 0.50)),
        m("persist.store_load_us.p99", "us", us(&mut r.load, 0.99)),
        m("persist.encode_us.p50", "us", us(&mut r.encode, 0.50)),
        m("persist.decode_us.p50", "us", us(&mut r.decode, 0.50)),
        m("persist.restore_us.p50", "us", us(&mut r.restore, 0.50)),
        m(
            "persist.snapshot_bytes.mean",
            "bytes",
            r.snapshot_bytes as f64 / r.encode.len().max(1) as f64,
        ),
        m(
            "persist.tick_share",
            "share",
            traced.store_busy.as_secs_f64() / tick_wall,
        ),
        m(
            "trace_overhead",
            "ratio",
            traced.throughput() / untraced.throughput().max(1e-9),
        ),
    ]
}

impl ReplayTools {
    fn new(world: &World, side_dir: &Path) -> Result<Self, String> {
        let samples = world.cfg.window_samples();
        Ok(ReplayTools {
            extractor: FeatureExtractor::paper_default(world.cfg.sample_rate()),
            scratch: FeatureScratch::default(),
            plan: SpectrumPlan::new(samples),
            spectrum_scratch: SpectrumScratch::default(),
            magnitude: Vec::with_capacity(samples),
            spectrum: Vec::with_capacity(samples),
            side_store: FileSnapshotStore::new(side_dir).map_err(|e| format!("side store: {e}"))?,
            side_dir: ScratchDir(side_dir.to_path_buf()),
            fit_rng: StdRng::seed_from_u64(0xF17),
            fit_epoch: None,
            fit_workspaces: RetrainWorkspaceCache::new(),
        })
    }
}

impl<'a> Runner<'a> {
    fn new(opts: &'a Options, world: World, fleet: Fleet, probes: Option<Probes>) -> Self {
        let w = &opts.workload;
        let fifo = (0..w.users).map(|_| VecDeque::new()).collect();
        // Shadow pipelines: copies of a few users' freshly enrolled
        // pipelines, fed the same windows one at a time through
        // `process_window` with inline retraining. The fleet must decide
        // exactly as they do, bit for bit.
        let stride = (w.users / SHADOW_USERS.min(w.users)).max(1);
        let mut shadows = BTreeMap::new();
        for u in (0..w.users).step_by(stride).take(SHADOW_USERS) {
            if let Some(p) = pipeline(&fleet.fleet, UserId(u)) {
                shadows.insert(u, p.clone().with_retrain_mode(RetrainMode::Inline));
            }
        }
        Runner {
            opts,
            world,
            fleet,
            probes,
            fifo,
            next_seq: vec![0; w.users],
            shadows,
            shadow_mismatches: 0,
            orphan_outcomes: 0,
            tick_no: 0,
            digest: 0,
            digest_ticks_left: w.warmup_ticks + w.min_ticks,
            pushed: 0,
            decided: 0,
            rejected: 0,
            migrate_errors: 0,
            roaming: None,
            tick_pushes: Vec::with_capacity(w.block),
            tick_latencies: Vec::with_capacity(w.block),
            whole: Tally::default(),
        }
    }

    /// Runs measured ticks until both `seconds` of wall time and
    /// `min_ticks` ticks have passed.
    fn phase(
        &mut self,
        seconds: f64,
        min_ticks: usize,
        traced: bool,
        mut tools: Option<&mut ReplayTools>,
    ) -> Phase {
        let expected = expected_ticks(seconds, min_ticks);
        let mut phase = Phase::new(expected, self.opts.workload.block, traced);
        if let Some(probes) = &self.probes {
            probes.store.set_enabled(traced);
            probes.trainer.set_enabled(traced);
        }
        let start = Instant::now();
        while phase.ticks < min_ticks as u64 || start.elapsed().as_secs_f64() < seconds {
            self.tick(TickKind::Measured, Some(&mut phase), tools.as_deref_mut());
        }
        if let Some(probes) = &self.probes {
            probes.store.set_enabled(false);
            probes.trainer.set_enabled(false);
        }
        phase
    }

    /// One closed-loop tick.
    fn tick(
        &mut self,
        kind: TickKind,
        mut phase: Option<&mut Phase>,
        tools: Option<&mut ReplayTools>,
    ) {
        let traced = phase.as_ref().is_some_and(|p| p.replays.is_some());
        let t = self.tick_no;
        self.tick_no += 1;
        self.tick_pushes.clear();
        self.tick_latencies.clear();

        // The windows "arrive" before the clock starts: copying them out of
        // the feed is the generator's cost, not the fleet's.
        let mut arrivals = Vec::new();
        if kind != TickKind::Drain {
            for u in self.opts.workload.block_at(t) {
                let seq = self.next_seq[u];
                self.next_seq[u] += 1;
                let (profile, slot, impostor) =
                    fixture::window_source(&self.world, self.opts.seed, u, seq);
                let window = self.world.feed[profile][slot].clone();
                arrivals.push((u, seq, profile, slot, impostor, window));
            }
        }

        let loop_start = Instant::now();
        let cpu_start = host::process_cpu();
        if kind != TickKind::Drain {
            for (u, seq, profile, slot, impostor, window) in arrivals {
                let pushed = Instant::now();
                let result = self.fleet.router.submit(UserId(u), window);
                if traced {
                    if let Some(p) = phase.as_deref_mut() {
                        p.submit.push(pushed.elapsed());
                    }
                }
                self.pushed += 1;
                match result {
                    Ok(()) => {
                        self.fifo[u].push_back(Pending {
                            pushed,
                            seq,
                            profile,
                            slot,
                            impostor,
                        });
                        self.tick_pushes.push((u, profile, slot));
                    }
                    Err(_) => self.rejected += 1,
                }
            }
            for _ in 0..self.opts.workload.migrations_per_tick {
                self.migrate(t);
            }
        }

        let (store0, busy0, wait0) = self.recorder_totals();
        let tick_cpu0 = host::process_cpu();
        let tick_start = Instant::now();
        let reports = self.fleet.fleet.tick();
        let done = Instant::now();
        let cpu_done = host::process_cpu();
        let (store1, busy1, wait1) = self.recorder_totals();

        let mut tally = Tally::default();
        for report in &reports {
            self.absorb(report, done, kind, &mut tally);
        }
        add(&mut self.whole, &tally);
        if self.digest_ticks_left > 0 && kind != TickKind::Drain {
            self.digest_ticks_left -= 1;
        }

        if let Some(p) = phase {
            p.ticks += 1;
            p.tick_cpu += cpu_done - tick_cpu0;
            p.tick.push(done - tick_start);
            p.store_busy += store1 - store0;
            p.trainer_busy += busy1 - busy0;
            p.trainer_wait += wait1 - wait0;
            add(&mut p.tally, &tally);
            if let (Some(r), Some(tools)) = (p.replays.as_mut(), tools) {
                self.replay(r, tools);
            }
            let burst = host::reference_burst();
            p.add_tick(
                done - loop_start,
                cpu_done - cpu_start,
                &self.tick_latencies,
                burst,
            );
        }
    }

    /// `(store busy, trainer busy, trainer lock wait)` so far.
    fn recorder_totals(&self) -> (Duration, Duration, Duration) {
        self.probes.as_ref().map_or(Default::default(), |p| {
            let (store, _) = p.store.totals();
            let (busy, wait) = p.trainer.totals();
            (store, busy, wait)
        })
    }

    /// One forced migration. Odd ticks send a block member to the next
    /// shard, even ticks bring it home again: at most one user is ever
    /// away, so forwarded windows occur at a steady rate however long the
    /// run. Shadow users never roam (a user whose queued windows travel
    /// can be scored two per tick, which inline retraining would decide
    /// differently).
    fn migrate(&mut self, t: u64) {
        let fleet = &mut self.fleet.fleet;
        let (id, target) = match self.roaming.take() {
            Some(id) => (id, fleet.router().shard_of(id)),
            None => {
                let w = &self.opts.workload;
                let block: Vec<usize> = w.block_at(t).collect();
                let mut pick = (fixture::mix(self.opts.seed ^ t) as usize) % block.len();
                while self.shadows.contains_key(&block[pick]) {
                    pick = (pick + 1) % block.len();
                }
                let id = UserId(block[pick]);
                let Some(owner) = fleet.shard_of(id) else {
                    self.migrate_errors += 1;
                    return;
                };
                self.roaming = Some(id);
                (id, (owner + 1) % fleet.num_shards())
            }
        };
        if fleet.migrate(id, target).is_err() {
            self.migrate_errors += 1;
        }
    }

    /// Matches a shard report's outcomes to pending pushes.
    fn absorb(&mut self, report: &TickReport, done: Instant, kind: TickKind, tally: &mut Tally) {
        tally.scored += report.windows_scored() as u64;
        tally.evictions += report.evictions() as u64;
        tally.rehydrations += report.rehydrations() as u64;
        tally.forwarded += report.ingest_forwarded() as u64;
        tally.retrains_started += report.retrains_started() as u64;
        tally.tick_errors += report.errors().len() as u64;
        tally.ingest_errors += report.ingest_errors().len() as u64;
        tally.eviction_errors += report.eviction_errors().len() as u64;
        let digesting = self.digest_ticks_left > 0 && kind != TickKind::Drain;
        for user in report.users() {
            let u = user.user.0;
            for outcome in &user.outcomes {
                let Some(pending) = self.fifo.get_mut(u).and_then(VecDeque::pop_front) else {
                    self.orphan_outcomes += 1;
                    continue;
                };
                let ProcessOutcome::Decision { decision, .. } = outcome else {
                    continue;
                };
                self.decided += 1;
                tally.decided += 1;
                tally.accepted += u64::from(decision.accepted);
                if pending.impostor {
                    tally.impostor += 1;
                    tally.impostor_accepted += u64::from(decision.accepted);
                } else {
                    tally.owner += 1;
                    tally.owner_rejected += u64::from(!decision.accepted);
                }
                self.tick_latencies
                    .push((done - pending.pushed).as_nanos() as u64);
                if digesting {
                    self.digest = self.digest.wrapping_add(fnv1a(&[
                        u as u64,
                        pending.seq,
                        u64::from(decision.accepted),
                        decision.confidence.to_bits(),
                    ]));
                }
                if let Some(shadow) = self.shadows.get_mut(&u) {
                    let window = &self.world.feed[pending.profile][pending.slot];
                    let same = matches!(
                        shadow.process_window(window),
                        Ok(ProcessOutcome::Decision { decision: d, .. })
                            if d.accepted == decision.accepted
                                && d.confidence.to_bits() == decision.confidence.to_bits()
                    );
                    if !same {
                        self.shadow_mismatches += 1;
                    }
                }
            }
        }
    }

    /// Ticks until every pushed window is decided (forwarded windows need
    /// one extra tick) or the drain budget runs out.
    fn drain(&mut self) {
        for _ in 0..DRAIN_TICKS {
            if self.fifo.iter().all(VecDeque::is_empty) && self.fleet.router.backlog() == 0 {
                break;
            }
            self.tick(TickKind::Drain, None, None);
        }
    }

    fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let undecided: u64 = self.fifo.iter().map(|q| q.len() as u64).sum();
        let accounted = self.decided + undecided + self.rejected;
        // Enrolling outcomes would pop a push without deciding it.
        if accounted > self.pushed || self.orphan_outcomes > 0 {
            violations.push(format!(
                "window accounting: pushed {}, decided {}, undecided {undecided}, rejected {}, \
                 outcomes without a push {}",
                self.pushed, self.decided, self.rejected, self.orphan_outcomes
            ));
        }
        let (started, completed, canceled) = self.fleet.fleet.retrain_totals();
        let in_flight = self.fleet.fleet.retrains_in_flight() as u64;
        if started != completed + canceled + in_flight {
            violations.push(format!(
                "retrain accounting: started {started} != completed {completed} + canceled \
                 {canceled} + in flight {in_flight}"
            ));
        }
        if self.shadow_mismatches > 0 {
            violations.push(format!(
                "{} decisions differ from the sequential shadow pipelines",
                self.shadow_mismatches
            ));
        }
        violations
    }

    fn fit_cache_detail(&self) -> (u64, u64, u64) {
        (0..self.opts.workload.users)
            .filter_map(|u| pipeline(&self.fleet.fleet, UserId(u)))
            .map(SmarterYou::fit_cache_detail)
            .fold((0, 0, 0), |a, d| (a.0 + d.0, a.1 + d.1, a.2 + d.2))
    }

    /// One unrecorded fit so the replayed fits find their negative epoch
    /// and shared workspace built, as a fleet's retrains do.
    fn prime_fit_replay(&self, tools: &mut ReplayTools) {
        let resident = self
            .tick_pushes
            .iter()
            .find_map(|&(u, _, _)| pipeline(&self.fleet.fleet, UserId(u)));
        if let Some(p) = resident {
            fit_replay(&self.world, p, tools, &mut Spans::with_capacity(1));
        }
    }

    /// Side replays of pure calls on a sample of this tick's inputs.
    fn replay(&self, r: &mut Replays, tools: &mut ReplayTools) {
        let pushes = &self.tick_pushes;
        for &(u, profile, slot) in sample(pushes, REPLAY_WINDOWS) {
            let w = &self.world.feed[profile][slot];
            let wf = r.features.time(|| {
                tools
                    .extractor
                    .window_features(w, DeviceSet::Combined, &mut tools.scratch)
            });
            r.magnitude.time(|| {
                w.phone
                    .magnitude_into(SensorKind::Accelerometer, &mut tools.magnitude)
            });
            black_box(r.summary.time(|| Summary::from_slice(&tools.magnitude)));
            r.spectrum.time(|| {
                tools.plan.magnitude_into(
                    &tools.magnitude,
                    &mut tools.spectrum_scratch,
                    &mut tools.spectrum,
                )
            });
            black_box(&tools.spectrum);
            let detector = &self.world.detector;
            let context = r
                .detect
                .time(|| detector.detect_from_features(wf.context_features()));
            r.moving += u64::from(context == UsageContext::Moving);
            if let Some(auth) =
                pipeline(&self.fleet.fleet, UserId(u)).and_then(SmarterYou::authenticator)
            {
                let items = [(context, wf.auth_features(DeviceSet::Combined))];
                black_box(r.score.time(|| auth.authenticate_grouped(&items)));
            }
        }

        // Snapshots and fits need a resident pipeline; the tick's eviction
        // pass may have parked some of its users again.
        let resident: Vec<(UserId, &SmarterYou)> = pushes
            .iter()
            .filter_map(|&(u, _, _)| Some((UserId(u), pipeline(&self.fleet.fleet, UserId(u))?)))
            .collect();
        for &(id, p) in sample(&resident, REPLAY_SNAPSHOTS) {
            let snapshot = p.snapshot();
            let json = r.encode.time(|| snapshot.to_json());
            r.snapshot_bytes += json.len() as u64;
            let Ok(decoded) = r.decode.time(|| PipelineSnapshot::from_json(&json)) else {
                continue;
            };
            let handle = Arc::clone(&self.fleet.handle);
            black_box(r.restore.time(|| SmarterYou::restore(decoded, handle)).ok());
            black_box(r.save.time(|| tools.side_store.save(id, &snapshot)).ok());
            black_box(r.load.time(|| tools.side_store.load(id)).ok());
        }

        for &(_, p) in sample(&resident, REPLAY_FITS) {
            fit_replay(&self.world, p, tools, &mut r.fit);
        }
    }
}

/// At most `n` items spread evenly over `items`.
fn sample<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    items.iter().step_by(items.len().div_ceil(n).max(1)).take(n)
}

/// Replays one retrain fit of `p`'s enrollment buffers against the
/// bench's pinned negative epoch and shared workspace, under the server
/// lock, as a confidence-triggered retrain would run.
fn fit_replay(world: &World, p: &SmarterYou, tools: &mut ReplayTools, spans: &mut Spans) {
    let positives = p.enrollment_buffers().clone();
    let cfg = p.config().clone();
    let server = world.server.lock();
    let mut caches = Default::default();
    let mut tails = [None, None];
    let fitted = spans.time(|| {
        server.train_authenticator_epoch_shared(
            &positives,
            &cfg,
            &mut tools.fit_rng,
            &mut tools.fit_epoch,
            &mut caches,
            &mut tails,
            &tools.fit_workspaces,
        )
    });
    black_box(fitted.ok());
}

/// A resident user's pipeline, wherever it lives.
fn pipeline(fleet: &ShardedFleet, id: UserId) -> Option<&SmarterYou> {
    fleet.shard(fleet.shard_of(id)?).pipeline(id)
}

fn expected_ticks(seconds: f64, min_ticks: usize) -> usize {
    // A generous guess for preallocation; buffers still grow if exceeded.
    min_ticks.max((seconds * 100.0) as usize)
}

fn add(into: &mut Tally, t: &Tally) {
    into.decided += t.decided;
    into.accepted += t.accepted;
    into.owner += t.owner;
    into.owner_rejected += t.owner_rejected;
    into.impostor += t.impostor;
    into.impostor_accepted += t.impostor_accepted;
    into.scored += t.scored;
    into.evictions += t.evictions;
    into.rehydrations += t.rehydrations;
    into.forwarded += t.forwarded;
    into.retrains_started += t.retrains_started;
    into.tick_errors += t.tick_errors;
    into.ingest_errors += t.ingest_errors;
    into.eviction_errors += t.eviction_errors;
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
