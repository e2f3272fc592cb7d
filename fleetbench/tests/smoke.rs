//! Every workload at a tiny size (at most 16 users, a handful of ticks),
//! untraced and traced: every metric `BENCHMARK.json` names is reported
//! and finite, nothing fails, the checks pass, and the decision digest is
//! a function of the seed.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde::Value;
use smarteryou_fleetbench::{run, workload, Options, Report, Scale, NAMES};

fn tiny(name: &str, seed: u64, trace: bool) -> Report {
    let opts = Options {
        workload: workload(name, Scale::Tiny).expect("known workload"),
        seed,
        seconds: 0.0,
        trace,
        scratch_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{name}-{seed}-{trace}")),
    };
    let report = run(&opts).expect("tiny fleet sets up");
    assert!(report.correct(), "{name}: {:?}", report.violations);
    assert!(report.attempted > 0, "{name}: nothing pushed");
    assert_eq!(report.failed, 0, "{name}: {}", report.summary_json());
    report
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is a list"))
        .iter()
        .map(|entry| match entry.get("name") {
            Some(Value::Str(name)) => name.clone(),
            other => panic!("BENCHMARK.json: {key} entry without a name: {other:?}"),
        })
        .collect()
}

fn assert_reports_exactly(report: &Report, expected: &[String]) {
    let got: BTreeSet<&str> = report.metrics.iter().map(|m| m.name).collect();
    let want: BTreeSet<&str> = expected.iter().map(String::as_str).collect();
    assert_eq!(got, want, "{}: metric names", report.workload.name);
    for m in &report.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            report.workload.name,
            m.name,
            m.value
        );
    }
}

#[test]
fn every_workload_reports_every_metric() {
    let doc = benchmark_json();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    assert_eq!(names(&doc, "workloads"), NAMES.map(String::from).to_vec());
    for name in NAMES {
        let untraced = tiny(name, 7, false);
        assert_reports_exactly(&untraced, &end_to_end);
        let traced = tiny(name, 7, true);
        assert_reports_exactly(&traced, &per_layer);
        // Tracing observes; it must not change a single decision.
        assert_eq!(untraced.digest, traced.digest, "{name}: traced digest");
        let last = traced.result_json();
        assert!(
            last.starts_with("{\"correct\":true,\"attempted\":"),
            "{last}"
        );
    }
}

#[test]
fn digest_follows_the_seed() {
    let a = tiny("mixed", 3, false);
    let b = tiny("mixed", 3, false);
    let c = tiny("mixed", 4, false);
    assert_eq!(a.digest, b.digest, "same seed, same decisions");
    assert_ne!(a.digest, c.digest, "another seed, other inputs");
}

#[test]
fn benchmark_json_obeys_the_limits() {
    let doc = benchmark_json();
    let valid = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut seen = BTreeSet::new();
    for (key, max) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
        let list = names(&doc, key);
        assert!(
            !list.is_empty() && list.len() <= max,
            "{key}: {} entries",
            list.len()
        );
        for name in list {
            assert!(valid(&name), "{key}: bad name {name:?}");
            assert!(seen.insert(name.clone()), "{key}: {name} used twice");
        }
    }
    let end_to_end = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("list");
    let setup = end_to_end
        .iter()
        .find(|m| matches!(m.get("name"), Some(Value::Str(n)) if n == "setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert!(matches!(setup.get("unit"), Some(Value::Str(u)) if u == "s"));
    for m in end_to_end {
        let bound = match m.get("bound") {
            Some(Value::Float(b)) => *b,
            other => panic!("bound {other:?}"),
        };
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        assert!(matches!(m.get("better"), Some(Value::Str(b)) if b == "lower" || b == "higher"));
    }
}
