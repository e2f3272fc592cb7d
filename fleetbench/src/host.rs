//! Process and host probes: CPU clock, peak memory, and the host
//! fingerprint every report carries.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed so far by every thread of this process,
/// exited ones included. `/proc/self/stat` has the same number at 10 ms
/// resolution, which is coarser than one tick.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable, correctly laid out `struct
    // timespec` (two 64-bit fields on 64-bit Linux), and the clock id is a
    // constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Median [`reference_burst`] time on the reference host (2-core Intel
/// Xeon, model 143) when it runs at its usual speed.
pub const REFERENCE_NOMINAL_NS: f64 = 560_000.0;

const REFERENCE_SAMPLES: usize = 300;
const REFERENCE_BINS: usize = 40;

/// Times one burst of a fixed kernel that no change to the repository can
/// touch, shaped like a fleet tick in miniature: fresh allocations filled
/// with transcendental math, a spawned scoped worker, and a 300-sample
/// magnitude + summary + 40-bin DFT on both threads.
///
/// On a shared host the speed of a tick drifts by tens of percent within a
/// minute (co-tenants, page-fault and thread-start costs), far more than
/// any run can average out. The run's median burst time tracks that drift
/// closely, so end-to-end times are scaled by it to a fixed host speed.
pub fn reference_burst() -> Duration {
    let start = Instant::now();
    let (n, bins) = (REFERENCE_SAMPLES, REFERENCE_BINS);
    let signal: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.11).sin()).collect();
    let phase = |i: usize| ((i % n) * (i / n)) as f64 * 0.02;
    let cos: Vec<f64> = (0..n * bins).map(|i| phase(i).cos()).collect();
    let sin: Vec<f64> = (0..n * bins).map(|i| phase(i).sin()).collect();
    let dft = || {
        let mut out = 0.0;
        for _ in 0..4 {
            let mag: Vec<f64> = signal
                .chunks_exact(3)
                .map(|a| (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt())
                .collect();
            let mean = mag.iter().sum::<f64>() / n as f64;
            let var = mag.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
            let mut peak = f64::MIN;
            for (c, s) in cos.chunks_exact(n).zip(sin.chunks_exact(n)) {
                let (mut re, mut im) = (0.0, 0.0);
                for ((m, c), s) in mag.iter().zip(c).zip(s) {
                    re += m * c;
                    im += m * s;
                }
                peak = peak.max(re * re + im * im);
            }
            out += peak + var;
        }
        std::hint::black_box(out)
    };
    std::thread::scope(|s| {
        s.spawn(dft);
        dft();
    });
    start.elapsed()
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Logical cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, or `"unknown"` when it
/// cannot be run. `output()` waits for the child to exit.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit being measured. Only `./.git` is consulted, so a checkout
/// that is not a repository reads `"unknown"` instead of borrowing the
/// commit of an enclosing one.
pub fn git_head() -> String {
    command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
}

/// The filesystem type holding `path` (longest matching mount point in
/// `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let fs = fields.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
