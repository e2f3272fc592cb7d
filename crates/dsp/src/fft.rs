use std::f64::consts::PI;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::{FftPlan, FftScratch};
use crate::Complex;

/// Process-wide count of [`dft`] invocations.
///
/// The direct O(n²) transform is a *reference* implementation: every
/// production path runs a planned O(n log n) transform ([`FftPlan`] handles
/// every length, mixed-radix or Bluestein), so outside of tests this
/// counter must stay at zero. The fleet benchmark asserts exactly that,
/// guarding against a future change quietly reintroducing the quadratic
/// fallback.
static DFT_CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of times the O(n²) [`dft`] reference has run in this process.
pub fn dft_fallback_count() -> u64 {
    DFT_CALLS.load(Ordering::Relaxed)
}

/// Discrete Fourier transform by direct summation: O(n²).
///
/// The reference implementation that the planned transforms are tested
/// against. Not used by any production path — see [`dft_fallback_count`].
pub fn dft(input: &[Complex]) -> Vec<Complex> {
    DFT_CALLS.fetch_add(1, Ordering::Relaxed);
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let step = -2.0 * PI / n as f64;
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (t, &x) in input.iter().enumerate() {
                acc += x * Complex::cis(step * (k * t % n) as f64);
            }
            acc
        })
        .collect()
}

/// Forward Fourier transform of any length in O(n log n).
///
/// Plans the transform on the fly ([`FftPlan`]): mixed-radix Cooley–Tukey
/// for lengths whose prime factors are all 2, 3 or 5, Bluestein's chirp-z
/// algorithm for lengths with a larger prime factor. Hot paths
/// that transform many same-length buffers should hold an [`FftPlan`] (or a
/// [`SpectrumPlan`](crate::SpectrumPlan)) instead of calling this.
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    FftPlan::new(input.len()).process(&mut buf, &mut FftScratch::default());
    buf
}

/// Inverse Fourier transform, normalised by `1/n` so `ifft(fft(x)) == x`.
///
/// Same planning strategy as [`fft`].
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    FftPlan::new(input.len()).process_inverse(&mut buf, &mut FftScratch::default());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real_signal(n: usize, f: impl Fn(usize) -> f64) -> Vec<Complex> {
        (0..n).map(|i| Complex::from_real(f(i))).collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} != {y:?}"
            );
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        assert!(dft(&[]).is_empty());
    }

    #[test]
    fn dft_calls_are_counted() {
        let before = dft_fallback_count();
        dft(&[Complex::ONE, Complex::ZERO]);
        assert!(dft_fallback_count() > before);
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let x = real_signal(8, |_| 1.0);
        let y = fft(&x);
        assert!((y[0].re - 8.0).abs() < 1e-9);
        for z in &y[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_dft_on_power_of_two() {
        let x = real_signal(64, |i| {
            (i as f64 * 0.37).sin() + 0.2 * (i as f64 * 1.7).cos()
        });
        assert_close(&fft(&x), &dft(&x), 1e-8);
    }

    #[test]
    fn non_power_of_two_matches_dft() {
        // 300 samples (the paper's deployed window, 2²·3·5²) runs the
        // mixed-radix kernel, not the quadratic fallback — and agrees with
        // the direct reference.
        let x = real_signal(300, |i| (i as f64 * 0.21).sin());
        assert_close(&fft(&x), &dft(&x), 1e-7);
    }

    #[test]
    fn ifft_inverts_fft_power_of_two() {
        let x = real_signal(128, |i| (i as f64).sin() * 0.5 + (i % 7) as f64);
        let back = ifft(&fft(&x));
        assert_close(&back, &x, 1e-9);
    }

    #[test]
    fn ifft_inverts_fft_arbitrary_length() {
        let x = real_signal(150, |i| (i as f64 * 0.11).cos());
        let back = ifft(&fft(&x));
        assert_close(&back, &x, 1e-7);
    }

    #[test]
    fn single_tone_lands_in_expected_bin() {
        // 8 cycles over 64 samples -> bin 8 (and its mirror 56).
        let n = 64;
        let x = real_signal(n, |i| (2.0 * PI * 8.0 * i as f64 / n as f64).cos());
        let y = fft(&x);
        let mags: Vec<f64> = y.iter().map(|z| z.abs()).collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(peak == 8 || peak == n - 8);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let x = real_signal(n, |i| ((i * i) as f64 * 0.01).sin());
        let y = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }
}
