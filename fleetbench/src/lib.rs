//! The fleet benchmark: four named workloads run a 4-shard `ShardedFleet`
//! in a closed loop and report per-window decision latency, throughput,
//! CPU, memory and set-up time on the library's shipped configuration. A
//! traced run of the same workload and seed breaks the tick down by layer.
//! See `README.md` next to this crate for the workloads, metrics and
//! bounds.

pub mod fixture;
pub mod host;
pub mod run;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;

pub use run::{run, Metric, Options, Report};
pub use workload::{workload, Scale, Workload, NAMES};

impl Report {
    /// The full report as one JSON object: workload, checks, metrics and
    /// context (accuracy, failures, host fingerprint).
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":{},\"trace\":{},\"correct\":{},\"violations\":[",
            json_str(self.workload.name),
            self.trace,
            self.correct()
        );
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(v));
        }
        out.push_str("],\"metrics\":");
        out.push_str(&metrics_json(&self.metrics));
        out.push_str(",\"context\":{");
        for (i, (k, v)) in self.context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_str(v));
        }
        out.push_str("}}");
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Non-finite values are not JSON; report them as 0 (the smoke test
        // rejects them before they get here).
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(m.name),
            json_str(m.unit)
        );
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
