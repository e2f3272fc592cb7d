//! Zero-redundancy per-window feature extraction.
//!
//! The naive pipeline recomputes overlapping work three times per window:
//! the context detector extracts the phone feature vector
//! ([`FeatureExtractor::context_features`]), the authenticator extracts the
//! phone *and* watch vectors ([`FeatureExtractor::auth_features`]), and
//! every extraction rebuilds the magnitude streams, summaries, and spectra
//! from the raw axis samples — allocating on each step.
//!
//! [`WindowFeatures`] computes each device's per-sensor magnitude stream,
//! [`Summary`](smarteryou_stats::Summary), and magnitude spectrum **exactly
//! once** and serves both consumers from the result. [`FeatureScratch`]
//! carries the planned FFT ([`SpectrumPlan`]) for the current window length
//! plus all intermediate buffers, so a pipeline scoring a steady stream of
//! same-length windows performs no allocation and no transform planning in
//! the spectral kernels.
//!
//! The window's shape picks the spectrum layout: when both devices are
//! needed, spectral features are on and the two devices' streams share a
//! non-zero length, all four magnitude streams go through one 4-lane
//! [`SpectrumPlan::magnitude_batch4_into`]; otherwise each stream goes
//! through [`SpectrumPlan::magnitude_into`]. Both layouts, like the naive
//! extractors, use the single [`Summary::from_slice`](smarteryou_stats::Summary::from_slice)
//! kernel and [`FeatureSet::extract_from_parts_into`](crate::FeatureSet::extract_from_parts_into),
//! and a batched lane is bit-equal to a single-stream spectrum, so the
//! cached vectors are **bit-identical** to the naive ones — asserted by
//! this module's tests and the core crate's extraction parity suite, and
//! relied on by the batch-parity suite.

use smarteryou_dsp::{spectral_peaks, SpectrumPlan, SpectrumScratch};
use smarteryou_sensors::{DualDeviceWindow, SensorKind, SensorWindow};
use smarteryou_stats as stats;

use crate::features::{DeviceSet, FeatureExtractor};

/// Reusable workspace for [`FeatureExtractor::window_features`]: the
/// spectrum plan for the current window length plus every intermediate
/// buffer the extraction touches.
///
/// Cloning yields an independent workspace (plans are plain precomputed
/// tables). The plan is rebuilt automatically if the window length changes,
/// so one scratch can serve mixed-length streams — it is simply fastest
/// when the length is stable, as in steady-state fleet scoring.
#[derive(Debug, Clone, Default)]
pub struct FeatureScratch {
    plan: Option<SpectrumPlan>,
    /// Workspace of both spectrum layouts.
    spectrum_scratch: SpectrumScratch,
    magnitude: Vec<f64>,
    spectrum: Vec<f64>,
    /// The four magnitude streams of one window (phone/watch ×
    /// accel/gyro), gathered for the batched spectrum transform.
    batch_magnitude: [Vec<f64>; 4],
    /// The four corresponding one-sided magnitude spectra.
    batch_spectrum: [Vec<f64>; 4],
}

impl FeatureScratch {
    /// Window length (in samples) the current spectrum plan was built for,
    /// or `None` when no window has been extracted yet. This is the plan
    /// key a pipeline snapshot records so a restored pipeline can re-plan
    /// its FFT before the first post-restore window arrives.
    pub fn planned_len(&self) -> Option<usize> {
        self.plan.as_ref().map(SpectrumPlan::len)
    }

    /// Ensures the spectrum plan covers `n`-sample windows, building it if
    /// missing or sized for a different length. Plans are pure precomputed
    /// tables, so warming one up never changes extraction results — it only
    /// moves the one-time planning cost out of the first window.
    pub fn prepare(&mut self, n: usize) {
        if self.plan.as_ref().map(SpectrumPlan::len) != Some(n) {
            self.plan = Some(SpectrumPlan::new(n));
        }
    }
}

/// The features of one [`DualDeviceWindow`], computed once and shared by
/// the context detector and the authenticator.
///
/// Produced by [`FeatureExtractor::window_features`]. The phone vector *is*
/// the context feature vector (§V-E reuses Eq. 3), so context detection
/// costs nothing beyond the authentication extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFeatures {
    devices: DeviceSet,
    phone: Vec<f64>,
    /// Empty when `devices == DeviceSet::PhoneOnly` (never requested).
    watch: Vec<f64>,
}

impl WindowFeatures {
    /// The context feature vector (§V-E): the smartphone vector of Eq. 3.
    /// Bit-identical to [`FeatureExtractor::context_features`].
    pub fn context_features(&self) -> &[f64] {
        &self.phone
    }

    /// The authentication feature vector of Eq. 4. Bit-identical to
    /// [`FeatureExtractor::auth_features`] with the same `devices`.
    ///
    /// # Panics
    ///
    /// Panics if `devices` needs the watch but the cache was computed for
    /// [`DeviceSet::PhoneOnly`].
    pub fn auth_features(&self, devices: DeviceSet) -> Vec<f64> {
        self.assert_serves(devices);
        match devices {
            DeviceSet::PhoneOnly => self.phone.clone(),
            DeviceSet::WatchOnly => self.watch.clone(),
            DeviceSet::Combined => {
                let mut out = Vec::with_capacity(self.phone.len() + self.watch.len());
                out.extend_from_slice(&self.phone);
                out.extend_from_slice(&self.watch);
                out
            }
        }
    }

    /// Consuming variant of [`WindowFeatures::auth_features`]: moves the
    /// cached vectors out instead of cloning, for the runtime hot path
    /// where the cache is dropped right after.
    ///
    /// # Panics
    ///
    /// Panics if `devices` needs the watch but the cache was computed for
    /// [`DeviceSet::PhoneOnly`].
    pub fn into_auth_features(self, devices: DeviceSet) -> Vec<f64> {
        self.assert_serves(devices);
        match devices {
            DeviceSet::PhoneOnly => self.phone,
            DeviceSet::WatchOnly => self.watch,
            DeviceSet::Combined => {
                let mut out = self.phone;
                out.extend_from_slice(&self.watch);
                out
            }
        }
    }

    fn assert_serves(&self, devices: DeviceSet) {
        if devices != DeviceSet::PhoneOnly {
            assert!(
                self.devices != DeviceSet::PhoneOnly,
                "WindowFeatures computed for PhoneOnly cannot serve {devices:?}"
            );
        }
    }
}

impl FeatureExtractor {
    /// Extracts every feature of `window` exactly once, for reuse by both
    /// the context detector and the authenticator.
    ///
    /// `devices` declares which authentication ablation will be served:
    /// [`DeviceSet::PhoneOnly`] skips the watch extraction entirely (the
    /// phone vector doubles as the context vector either way).
    ///
    /// The outputs are bit-identical to
    /// [`FeatureExtractor::context_features`] /
    /// [`FeatureExtractor::auth_features`] on the same window, whichever
    /// spectrum layout the window's shape selects (see the module docs).
    pub fn window_features(
        &self,
        window: &DualDeviceWindow,
        devices: DeviceSet,
        scratch: &mut FeatureScratch,
    ) -> WindowFeatures {
        let n = window.phone.len();
        if devices != DeviceSet::PhoneOnly
            && self.feature_set().needs_spectrum()
            && n > 0
            && window.watch.len() == n
        {
            return self.window_features_batched(window, devices, scratch);
        }
        let phone = self.device_features_cached(&window.phone, scratch);
        let watch = if devices == DeviceSet::PhoneOnly {
            Vec::new()
        } else {
            self.device_features_cached(&window.watch, scratch)
        };
        WindowFeatures {
            devices,
            phone,
            watch,
        }
    }

    /// Extraction of both devices at once: the window's four magnitude
    /// streams (phone/watch × accelerometer/gyroscope) go through one
    /// 4-lane batched spectrum call instead of four single-stream FFTs —
    /// the deployed shape. The caller guarantees both devices' streams
    /// share a non-zero length.
    fn window_features_batched(
        &self,
        window: &DualDeviceWindow,
        devices: DeviceSet,
        scratch: &mut FeatureScratch,
    ) -> WindowFeatures {
        let n = window.phone.len();
        let streams = [
            (&window.phone, SensorKind::Accelerometer),
            (&window.phone, SensorKind::Gyroscope),
            (&window.watch, SensorKind::Accelerometer),
            (&window.watch, SensorKind::Gyroscope),
        ];
        for (buf, (device, sensor)) in scratch.batch_magnitude.iter_mut().zip(streams) {
            device.magnitude_into(sensor, buf);
        }
        let summaries = scratch
            .batch_magnitude
            .each_ref()
            .map(|m| stats::Summary::from_slice(m));
        scratch.prepare(n);
        let FeatureScratch {
            plan,
            batch_magnitude,
            batch_spectrum,
            spectrum_scratch,
            ..
        } = scratch;
        let plan = plan.as_ref().expect("prepared above");
        let [m0, m1, m2, m3] = batch_magnitude;
        let [s0, s1, s2, s3] = batch_spectrum;
        plan.magnitude_batch4_into(
            [m0.as_slice(), m1.as_slice(), m2.as_slice(), m3.as_slice()],
            spectrum_scratch,
            [s0, s1, s2, s3],
        );
        let set = self.feature_set();
        let mut phone = Vec::with_capacity(self.features_per_device());
        let mut watch = Vec::with_capacity(self.features_per_device());
        for (l, summary) in summaries.iter().enumerate() {
            let peaks = spectral_peaks(&scratch.batch_spectrum[l], self.sample_rate());
            let out = if l < 2 { &mut phone } else { &mut watch };
            set.extract_from_parts_into(summary, peaks, out);
        }
        WindowFeatures {
            devices,
            phone,
            watch,
        }
    }

    /// One device's feature vector (Eq. 3) through the planned, buffered
    /// single-stream extraction path.
    fn device_features_cached(
        &self,
        window: &SensorWindow,
        scratch: &mut FeatureScratch,
    ) -> Vec<f64> {
        let set = self.feature_set();
        let needs_spectrum = set.needs_spectrum();
        let mut out = Vec::with_capacity(self.features_per_device());
        for sensor in [SensorKind::Accelerometer, SensorKind::Gyroscope] {
            window.magnitude_into(sensor, &mut scratch.magnitude);
            let summary = stats::Summary::from_slice(&scratch.magnitude);
            let peaks = if needs_spectrum {
                let n = scratch.magnitude.len();
                scratch.prepare(n);
                let plan = scratch.plan.as_ref().expect("plan set above");
                plan.magnitude_into(
                    &scratch.magnitude,
                    &mut scratch.spectrum_scratch,
                    &mut scratch.spectrum,
                );
                spectral_peaks(&scratch.spectrum, self.sample_rate())
            } else {
                None
            };
            set.extract_from_parts_into(&summary, peaks, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use smarteryou_sensors::{Population, RawContext, TraceGenerator, WindowSpec};

    fn windows(spec: WindowSpec, count: usize) -> Vec<DualDeviceWindow> {
        let owner = Population::generate(1, 41).users()[0].clone();
        let mut gen = TraceGenerator::new(owner, 9);
        let mut out = gen.generate_windows(RawContext::MovingAround, spec, count / 2);
        out.extend(gen.generate_windows(RawContext::SittingStanding, spec, count - count / 2));
        out
    }

    fn assert_bits_equal(a: &[f64], b: &[f64], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: entry {i} diverges ({x} vs {y})"
            );
        }
    }

    #[test]
    fn cached_extraction_is_bit_identical_to_naive() {
        // The paper's deployed 300-sample window (packed 150 = 5·5·3·2
        // mixed-radix transform) and a power-of-two shorter one.
        for spec in [
            WindowSpec::from_seconds(6.0, 50.0),
            WindowSpec::from_seconds(2.56, 50.0),
        ] {
            let extractor = FeatureExtractor::paper_default(spec.sample_rate);
            let mut scratch = FeatureScratch::default();
            for (i, w) in windows(spec, 6).iter().enumerate() {
                let cached = extractor.window_features(w, DeviceSet::Combined, &mut scratch);
                assert_bits_equal(
                    cached.context_features(),
                    &extractor.context_features(w),
                    &format!("window {i} context"),
                );
                for devices in DeviceSet::ALL {
                    assert_bits_equal(
                        &cached.auth_features(devices),
                        &extractor.auth_features(w, devices),
                        &format!("window {i} auth {devices:?}"),
                    );
                    // The consuming hot-path variant must agree too.
                    assert_bits_equal(
                        &cached.clone().into_auth_features(devices),
                        &extractor.auth_features(w, devices),
                        &format!("window {i} into_auth {devices:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn all_candidate_features_also_match() {
        // Range/Peak2Freq exercise every branch of the mapping kernel.
        let spec = WindowSpec::from_seconds(3.0, 50.0);
        let extractor = FeatureExtractor::new(FeatureSet::all_candidates(), 50.0);
        let mut scratch = FeatureScratch::default();
        for w in windows(spec, 4) {
            let cached = extractor.window_features(&w, DeviceSet::Combined, &mut scratch);
            assert_bits_equal(
                &cached.auth_features(DeviceSet::Combined),
                &extractor.auth_features(&w, DeviceSet::Combined),
                "all-candidates",
            );
        }
    }

    #[test]
    fn phone_only_skips_watch_and_serves_phone() {
        let spec = WindowSpec::from_seconds(2.0, 50.0);
        let extractor = FeatureExtractor::paper_default(50.0);
        let mut scratch = FeatureScratch::default();
        let w = &windows(spec, 2)[0];
        let cached = extractor.window_features(w, DeviceSet::PhoneOnly, &mut scratch);
        assert_bits_equal(
            &cached.auth_features(DeviceSet::PhoneOnly),
            &extractor.auth_features(w, DeviceSet::PhoneOnly),
            "phone-only",
        );
        assert!(cached.watch.is_empty());
    }

    #[test]
    #[should_panic(expected = "PhoneOnly")]
    fn phone_only_cache_rejects_combined_request() {
        let spec = WindowSpec::from_seconds(2.0, 50.0);
        let extractor = FeatureExtractor::paper_default(50.0);
        let mut scratch = FeatureScratch::default();
        let w = &windows(spec, 2)[0];
        extractor
            .window_features(w, DeviceSet::PhoneOnly, &mut scratch)
            .auth_features(DeviceSet::Combined);
    }

    #[test]
    fn scratch_plan_follows_window_length() {
        let extractor = FeatureExtractor::paper_default(50.0);
        let mut scratch = FeatureScratch::default();
        for spec in [
            WindowSpec::from_seconds(2.0, 50.0),
            WindowSpec::from_seconds(6.0, 50.0),
        ] {
            let w = &windows(spec, 2)[0];
            extractor.window_features(w, DeviceSet::Combined, &mut scratch);
            assert_eq!(
                scratch.plan.as_ref().map(SpectrumPlan::len),
                Some(spec.samples),
                "plan tracks the most recent window length"
            );
        }
    }
}
