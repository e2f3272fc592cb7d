//! Shared helpers for the `repro-*` binaries: table formatting and
//! paper-vs-measured reporting.
//!
//! Each `repro-<id>` binary in `src/bin/` regenerates one table or figure
//! of the paper (the id names it: `repro-table7`, `repro-fig5`, ...) and
//! prints the paper's value next to the measured one. Run them with
//! `cargo run --release -p smarteryou-bench --bin repro-<id>`. The fleet
//! benchmark lives in `fleetbench/`.

use std::fmt::Display;

/// Prints a section header for one experiment.
pub fn header(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints one `label: paper vs measured` comparison row.
pub fn compare_row(label: &str, paper: impl Display, measured: impl Display) {
    println!("{label:<42} paper {paper:>10}    measured {measured:>10}");
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Formats a float with the given precision.
pub fn num(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Renders a simple ASCII sparkline of a series (used for figure shapes).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| BARS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

/// Parses `--quick` from the command line: repro binaries run at paper
/// scale by default and at test scale with `--quick`.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Reports a CLI flag error — naming the offending flag — prints the
/// binary's usage line, and exits with status 1. For development tools
/// that hand-roll flag loops; a typo should produce a diagnosis, not a
/// panic backtrace.
pub fn flag_error(flag: &str, problem: &str, usage: &str) -> ! {
    eprintln!("error: {flag}: {problem}");
    eprintln!("usage: {usage}");
    std::process::exit(1);
}

/// Parses the value of `flag` from the argument stream: `value` is the
/// token following the flag (if any). Missing or unparsable values print
/// the usage line and exit 1, naming the flag.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>, usage: &str) -> T {
    let raw = match value {
        Some(raw) => raw,
        None => flag_error(flag, "expected a value", usage),
    };
    match raw.parse() {
        Ok(parsed) => parsed,
        Err(_) => flag_error(
            flag,
            &format!(
                "invalid value {raw:?} (expected {})",
                std::any::type_name::<T>()
            ),
            usage,
        ),
    }
}

/// The experiment configuration a repro binary should use.
pub fn repro_config() -> smarteryou_core::experiment::ExperimentConfig {
    if quick_mode() {
        smarteryou_core::experiment::ExperimentConfig::quick()
    } else {
        smarteryou_core::experiment::ExperimentConfig::paper_default()
    }
}

/// Generates multi-session raw windows per user in one coarse context —
/// the input shape the §V-B/C/D selection studies need (see
/// `smarteryou_core::selection::sensor_fisher_scores` for why multi-session
/// single-context data is required).
pub fn collect_raw_windows(
    cfg: &smarteryou_core::experiment::ExperimentConfig,
    context: smarteryou_sensors::RawContext,
    sessions: usize,
    per_session: usize,
) -> Vec<Vec<smarteryou_sensors::DualDeviceWindow>> {
    collect_raw_windows_spaced(cfg, context, sessions, per_session, 0.2)
}

/// [`collect_raw_windows`] with an explicit between-session day step.
/// The correlation tables (III/IV) use a *short* span: over weeks, shared
/// behavioural drift makes every pair of features co-vary, which would
/// swamp the window-level correlation structure the paper measures.
pub fn collect_raw_windows_spaced(
    cfg: &smarteryou_core::experiment::ExperimentConfig,
    context: smarteryou_sensors::RawContext,
    sessions: usize,
    per_session: usize,
    day_step: f64,
) -> Vec<Vec<smarteryou_sensors::DualDeviceWindow>> {
    use smarteryou_sensors::{Population, TraceGenerator};
    let population = Population::generate(cfg.num_users, cfg.seed);
    let spec = cfg.window_spec();
    population
        .iter()
        .map(|u| {
            let mut gen = TraceGenerator::with_config(u.clone(), cfg.seed ^ 0xF00D, cfg.generator);
            let mut out = Vec::with_capacity(sessions * per_session);
            for _ in 0..sessions {
                gen.advance_days(day_step);
                out.extend(gen.generate_windows(context, spec, per_session));
            }
            out
        })
        .collect()
}

/// Per-user candidate-feature matrices (18 columns: 9 kinds × accel, gyro)
/// for one device, from raw windows — the layout expected by
/// `selection::ks_feature_quality` and `selection::mean_feature_correlation`.
pub fn candidate_feature_matrices(
    windows_by_user: &[Vec<smarteryou_sensors::DualDeviceWindow>],
    device: smarteryou_sensors::DeviceKind,
    sample_rate: f64,
) -> Vec<smarteryou_linalg::Matrix> {
    use smarteryou_core::FeatureSet;
    use smarteryou_sensors::SensorKind;
    let set = FeatureSet::all_candidates();
    windows_by_user
        .iter()
        .map(|windows| {
            let rows: Vec<Vec<f64>> = windows
                .iter()
                .map(|w| {
                    let dev = w.device(device);
                    let mut row =
                        set.extract(&dev.magnitude(SensorKind::Accelerometer), sample_rate);
                    row.extend(set.extract(&dev.magnitude(SensorKind::Gyroscope), sample_rate));
                    row
                })
                .collect();
            smarteryou_linalg::Matrix::from_rows(&rows).expect("uniform width")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.981), "98.1%");
    }

    #[test]
    fn flag_value_parses_well_formed_input() {
        let users: usize = flag_value("--users", Some("12".to_string()), "usage");
        assert_eq!(users, 12);
        let noise: f64 = flag_value("--noise", Some("0.25".to_string()), "usage");
        assert_eq!(noise, 0.25);
    }

    #[test]
    fn raw_window_collection_shapes() {
        let mut cfg = smarteryou_core::experiment::ExperimentConfig::quick();
        cfg.num_users = 2;
        let windows =
            collect_raw_windows(&cfg, smarteryou_sensors::RawContext::SittingStanding, 2, 3);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].len(), 6);
        let mats = candidate_feature_matrices(
            &windows,
            smarteryou_sensors::DeviceKind::Smartphone,
            cfg.sample_rate,
        );
        assert_eq!(mats[0].cols(), 18);
    }

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(sparkline(&[]).is_empty());
    }
}
