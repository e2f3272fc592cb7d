//! The four named workloads. Every one shares the load shape: 300-sample
//! windows, a 4-shard fleet fed only through `IngestRouter::submit` in a
//! closed loop (push one tick's windows, then tick), one impostor window
//! in ten, no producer or training worker threads.
//!
//! Evicted pipelines go to a `MemorySnapshotStore`, which keeps the JSON
//! wire form, so every eviction and rehydration pays the full snapshot
//! encode and decode. A `FileSnapshotStore` would add the host's disk to
//! every number: on a shared disk its fsync costs drift run to run by more
//! than any bound worth having. The traced run times the file store's
//! save and load on the side instead.

/// When the confidence tracker asks for a retrain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retrain {
    /// Never: training stays idle.
    Never,
    /// Whenever the rolling median is non-negative, every `period` windows;
    /// retrains are deferred to a synchronous per-shard training service.
    Eager { period: usize },
}

/// Run size: `Full` for measurement, `Tiny` for `--quick` and the smoke
/// test (at most 16 users).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One workload's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub users: usize,
    /// Resident pipelines per shard after the tick's eviction pass.
    pub capacity_per_shard: usize,
    /// Users fed one window per tick: a contiguous block of user ids...
    pub block: usize,
    /// ...whose start advances this far every tick (mod `users`).
    pub advance: usize,
    pub retrain: Retrain,
    /// Forced cross-shard migrations per tick.
    pub migrations_per_tick: usize,
    /// Unmeasured ticks before measurement starts. The first tick of an
    /// evicting workload parks everyone outside the block, so afterwards
    /// every user has a stored snapshot.
    pub warmup_ticks: usize,
    /// Repetitions of the set-up, whose median is `setup_s`.
    pub setups: usize,
    /// Measured ticks the run makes at least, whatever `--seconds` says;
    /// the decision digest covers warm-up plus this many ticks.
    pub min_ticks: usize,
}

impl Workload {
    /// Whether retrains go through the deferred path and a training
    /// service (the only configuration in which they happen here).
    pub fn deferred_training(&self) -> bool {
        matches!(self.retrain, Retrain::Eager { .. })
    }

    /// The users fed on tick `t`, in push order.
    pub fn block_at(&self, t: u64) -> impl Iterator<Item = usize> + '_ {
        let start = (t as usize).wrapping_mul(self.advance) % self.users;
        (0..self.block).map(move |i| (start + i) % self.users)
    }
}

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["steady", "churn", "drift", "mixed"];

/// Looks a workload up by name.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let full = scale == Scale::Full;
    let (setups, min_ticks, warmup_ticks) = if full { (3, 20, 5) } else { (1, 4, 1) };
    let w = match name {
        // Extraction is nearly all of per-window CPU; persist and training
        // are idle, so this is the side that must not move when they are
        // optimised.
        "steady" => {
            let users = if full { 500 } else { 16 };
            Workload {
                name: "steady",
                users,
                capacity_per_shard: users,
                block: users,
                advance: 0,
                retrain: Retrain::Never,
                migrations_per_tick: 0,
                warmup_ticks,
                setups,
                min_ticks,
            }
        }
        // Every window rehydrates and every tick evicts: persist dominates
        // the tick and extraction is a few percent.
        "churn" => Workload {
            name: "churn",
            users: if full { 2000 } else { 16 },
            capacity_per_shard: if full { 4 } else { 1 },
            block: if full { 16 } else { 4 },
            advance: if full { 16 } else { 4 },
            retrain: Retrain::Never,
            migrations_per_tick: 0,
            warmup_ticks,
            setups,
            min_ticks,
        },
        // A retrain storm: every accepted window retrains (period 1), so
        // training and its lock take a large share of the tick while
        // persist stays idle.
        "drift" => {
            let users = if full { 250 } else { 8 };
            Workload {
                name: "drift",
                users,
                capacity_per_shard: users,
                block: users,
                advance: 0,
                retrain: Retrain::Eager { period: 1 },
                migrations_per_tick: 0,
                warmup_ticks,
                setups,
                min_ticks,
            }
        }
        // Every layer at once, including windows forwarded after a
        // migration: catches a gain in one layer that costs another.
        "mixed" => Workload {
            name: "mixed",
            users: if full { 1000 } else { 16 },
            capacity_per_shard: if full { 75 } else { 2 },
            block: if full { 250 } else { 8 },
            advance: if full { 5 } else { 2 },
            retrain: Retrain::Eager {
                period: if full { 30 } else { 3 },
            },
            migrations_per_tick: 1,
            warmup_ticks,
            setups,
            min_ticks,
        },
        _ => return None,
    };
    Some(w)
}
