//! Signal-processing substrate for the SmarterYou reproduction.
//!
//! The paper derives frequency-domain features (main/secondary spectral
//! peaks, §V-C) from 50 Hz accelerometer and gyroscope streams via the
//! discrete Fourier transform. This crate implements the required DSP from
//! scratch: complex numbers, planned O(n log n) FFTs for *arbitrary*
//! lengths (mixed-radix Cooley–Tukey for lengths whose prime factors are
//! all 2, 3 or 5 — the paper's 6 s × 50 Hz = 300-sample window is not a
//! power of two, but 300 = 2²·3·5² — and a Bluestein chirp-z path for every
//! other length), a real-input half-complex fast path, spectral-peak
//! extraction and the 3-axis magnitude reduction.
//!
//! Throughput-critical callers precompute an [`FftPlan`] / [`SpectrumPlan`]
//! per window length and reuse [`FftScratch`] / [`SpectrumScratch`]
//! workspace, making steady-state transforms allocation-free (see the
//! [`plan`] module docs).
//!
//! # Example
//!
//! Extract the dominant frequency of a 2 Hz sinusoid sampled at 50 Hz:
//!
//! ```
//! use smarteryou_dsp::{magnitude_spectrum, spectral_peaks};
//!
//! let fs = 50.0;
//! let signal: Vec<f64> = (0..300)
//!     .map(|i| (2.0 * std::f64::consts::PI * 2.0 * i as f64 / fs).sin())
//!     .collect();
//! let spectrum = magnitude_spectrum(&signal);
//! let peaks = spectral_peaks(&spectrum, fs).expect("non-empty spectrum");
//! assert!((peaks.main_frequency - 2.0).abs() < 0.2);
//! ```

mod complex;
mod fft;
pub mod plan;
mod spectrum;

pub use complex::Complex;
pub use fft::{dft, dft_fallback_count, fft, ifft};
pub use plan::{
    BatchSpectrumScratch, FftPlan, FftScratch, RealFftPlan, SpectrumPlan, SpectrumScratch,
};
pub use spectrum::{magnitude_spectrum, spectral_peaks, SpectralPeaks};

/// Magnitude of a 3-axis sample: `sqrt(x² + y² + z²)` (§V-C of the paper).
pub fn axis_magnitude(x: f64, y: f64, z: f64) -> f64 {
    (x * x + y * y + z * z).sqrt()
}

/// Applies [`axis_magnitude`] over parallel axis slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn magnitude_series(x: &[f64], y: &[f64], z: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    magnitude_series_into(x, y, z, &mut out);
    out
}

/// [`magnitude_series`] into a caller-owned buffer (cleared first), so hot
/// loops can reuse one allocation across windows.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn magnitude_series_into(x: &[f64], y: &[f64], z: &[f64], out: &mut Vec<f64>) {
    assert!(
        x.len() == y.len() && y.len() == z.len(),
        "magnitude_series: axis length mismatch"
    );
    out.clear();
    out.extend(
        x.iter()
            .zip(y)
            .zip(z)
            .map(|((&x, &y), &z)| axis_magnitude(x, y, z)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_of_unit_axes() {
        assert!((axis_magnitude(1.0, 0.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((axis_magnitude(1.0, 2.0, 2.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn magnitude_series_matches_pointwise() {
        let m = magnitude_series(&[3.0, 0.0], &[4.0, 0.0], &[0.0, 5.0]);
        assert_eq!(m, vec![5.0, 5.0]);
    }
}
