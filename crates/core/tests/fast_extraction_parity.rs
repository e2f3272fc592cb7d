//! Bit-equality contract for cached feature extraction:
//! [`FeatureExtractor::window_features`] equals the per-purpose extractors
//! [`FeatureExtractor::auth_features`] and
//! [`FeatureExtractor::context_features`] bit for bit, for every
//! [`DeviceSet`], at the paper's 300-sample window and at 128 samples.
//!
//! The window's shape picks the spectrum layout: the four magnitude streams
//! go through one batched transform when both devices are needed, spectral
//! features are on and both devices' streams share a length; otherwise each
//! device is extracted on its own. Both layouts are held to the same
//! contract, so neither can drift from the per-purpose extractors.

use proptest::prelude::*;
use proptest::TestCaseError;

use smarteryou_core::{DeviceSet, FeatureExtractor, FeatureKind, FeatureScratch, FeatureSet};
use smarteryou_sensors::{DualDeviceWindow, Population, RawContext, TraceGenerator, WindowSpec};

fn windows(seed: u64, count: usize, window_secs: f64) -> Vec<DualDeviceWindow> {
    let spec = WindowSpec::from_seconds(window_secs, 50.0);
    let population = Population::generate(2, seed);
    let mut out = Vec::new();
    for user in population.users() {
        let mut gen = TraceGenerator::new(user.clone(), seed ^ 0x5EED);
        out.extend(gen.generate_windows(RawContext::SittingStanding, spec, count / 2));
        out.extend(gen.generate_windows(RawContext::MovingAround, spec, count - count / 2));
    }
    out
}

fn assert_bits(got: &[f64], want: &[f64], label: &str) -> Result<(), TestCaseError> {
    prop_assert!(got.len() == want.len(), "{}: length", label);
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{}: feature {} is {} but the per-purpose extractor gives {}",
            label,
            i,
            a,
            b
        );
    }
    Ok(())
}

/// One shared scratch across calls, as a fleet tick uses it: plans and
/// buffers carried over from earlier windows (other lengths included) must
/// not leak into the result.
fn check_window(
    extractor: &FeatureExtractor,
    w: &DualDeviceWindow,
    devices: DeviceSet,
    scratch: &mut FeatureScratch,
) -> Result<(), TestCaseError> {
    let cached = extractor.window_features(w, devices, scratch);
    let want_auth = extractor.auth_features(w, devices);
    assert_bits(
        cached.context_features(),
        &extractor.context_features(w),
        "context",
    )?;
    assert_bits(&cached.auth_features(devices), &want_auth, "auth")?;
    assert_bits(&cached.into_auth_features(devices), &want_auth, "into_auth")?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn window_features_match_per_purpose_extractors(seed in 0u64..1_000_000) {
        let extractor = FeatureExtractor::paper_default(50.0);
        let mut scratch = FeatureScratch::default();
        // 6.0 s is the paper's deployed window (300 samples, even length →
        // packed real path over a 150-point mixed-radix transform); 2.56 s
        // lands on 128 samples (a power of two).
        for secs in [6.0, 2.56] {
            for w in windows(seed, 4, secs) {
                for devices in DeviceSet::ALL {
                    check_window(&extractor, &w, devices, &mut scratch)?;
                }
            }
        }
    }
}

/// The shapes the batched layout cannot serve go per device: a window whose
/// two devices' streams differ in length, and a feature set without
/// spectral features.
#[test]
fn per_device_layout_matches_per_purpose_extractors() {
    let long = windows(7, 2, 6.0);
    let short = windows(7, 2, 2.56);
    let mut scratch = FeatureScratch::default();

    let paper = FeatureExtractor::paper_default(50.0);
    for (phone, watch) in [(&long[0], &short[0]), (&short[1], &long[1])] {
        let uneven = DualDeviceWindow {
            phone: phone.phone.clone(),
            watch: watch.watch.clone(),
        };
        for devices in DeviceSet::ALL {
            check_window(&paper, &uneven, devices, &mut scratch).unwrap();
        }
    }

    let time_domain: Vec<FeatureKind> = FeatureKind::ALL
        .into_iter()
        .filter(FeatureKind::is_time_domain)
        .collect();
    let stats_only = FeatureExtractor::new(FeatureSet::custom(time_domain), 50.0);
    assert!(!stats_only.feature_set().needs_spectrum());
    for w in long.iter().chain(&short) {
        for devices in DeviceSet::ALL {
            check_window(&stats_only, w, devices, &mut scratch).unwrap();
        }
    }
}
