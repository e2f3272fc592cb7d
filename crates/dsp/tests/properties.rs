//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use smarteryou_dsp::{
    dft, fft, ifft, magnitude_spectrum, Complex, FftPlan, FftScratch, Segmenter, SpectrumPlan,
    SpectrumScratch, WindowFunction,
};

fn real_buf(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(-100.0..100.0f64, len)
        .prop_map(|v| v.into_iter().map(Complex::from_real).collect())
}

/// A random length in `2..=512` together with a signal of that length.
/// Always includes the paper's deployed 300-sample window via the explicit
/// case below; here lengths are drawn uniformly, covering the mixed-radix
/// and Bluestein strategies alike.
fn sized_buf() -> impl Strategy<Value = Vec<Complex>> {
    (2usize..=512, prop::collection::vec(-100.0..100.0f64, 512)).prop_map(|(len, v)| {
        v.into_iter()
            .take(len)
            .map(Complex::from_real)
            .collect::<Vec<Complex>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ifft_fft_roundtrip_pow2(x in real_buf(64)) {
        let back = ifft(&fft(&x));
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a.re - b.re).abs() < 1e-7);
            prop_assert!(a.im.abs() < 1e-7);
        }
    }

    #[test]
    fn ifft_fft_roundtrip_arbitrary(x in real_buf(75)) {
        let back = ifft(&fft(&x));
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_matches_dft(x in real_buf(32)) {
        let a = fft(&x);
        let b = dft(&x);
        for (l, r) in a.iter().zip(&b) {
            prop_assert!((l.re - r.re).abs() < 1e-6);
            prop_assert!((l.im - r.im).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_is_linear(x in real_buf(32), y in real_buf(32), k in -5.0..5.0f64) {
        let combined: Vec<Complex> = x.iter().zip(&y)
            .map(|(a, b)| *a + b.scale(k))
            .collect();
        let lhs = fft(&combined);
        let fx = fft(&x);
        let fy = fft(&y);
        for i in 0..32 {
            let rhs = fx[i] + fy[i].scale(k);
            prop_assert!((lhs[i].re - rhs.re).abs() < 1e-6);
            prop_assert!((lhs[i].im - rhs.im).abs() < 1e-6);
        }
    }

    #[test]
    fn planned_fft_matches_dft_at_any_length(x in sized_buf()) {
        // Mixed-radix (lengths whose prime factors are all 2, 3 or 5) and
        // Bluestein (every other length) must agree with the O(n²)
        // reference at every length — the property that lets the planned
        // path replace the quadratic fallback wholesale.
        let mut buf = x.clone();
        FftPlan::new(x.len()).process(&mut buf, &mut FftScratch::default());
        let reference = dft(&x);
        let tol = 1e-8 * x.len() as f64;
        for (l, r) in buf.iter().zip(&reference) {
            prop_assert!((l.re - r.re).abs() < tol, "{l:?} vs {r:?}");
            prop_assert!((l.im - r.im).abs() < tol, "{l:?} vs {r:?}");
        }
    }

    #[test]
    fn planned_fft_matches_dft_at_paper_window(x in real_buf(300)) {
        // The deployed 6 s × 50 Hz window, pinned explicitly.
        let mut buf = x.clone();
        FftPlan::new(300).process(&mut buf, &mut FftScratch::default());
        let reference = dft(&x);
        for (l, r) in buf.iter().zip(&reference) {
            prop_assert!((l.re - r.re).abs() < 1e-6);
            prop_assert!((l.im - r.im).abs() < 1e-6);
        }
    }

    #[test]
    fn planned_spectrum_is_bit_identical_to_magnitude_spectrum(
        signal in prop::collection::vec(-50.0..50.0f64, 2..400),
    ) {
        // The free function is a thin wrapper over the plan; reusing a
        // plan + scratch across calls must not change a single bit — the
        // contract the core feature cache relies on.
        let plan = SpectrumPlan::new(signal.len());
        let mut scratch = SpectrumScratch::default();
        let mut planned = Vec::new();
        plan.magnitude_into(&signal, &mut scratch, &mut planned);
        plan.magnitude_into(&signal, &mut scratch, &mut planned); // reused scratch
        let naive = magnitude_spectrum(&signal);
        prop_assert_eq!(planned.len(), naive.len());
        for (a, b) in planned.iter().zip(&naive) {
            prop_assert!(a.to_bits() == b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn spectrum_is_nonnegative_and_sized(signal in prop::collection::vec(-50.0..50.0f64, 10..200)) {
        let spec = magnitude_spectrum(&signal);
        prop_assert_eq!(spec.len(), signal.len() / 2 + 1);
        prop_assert!(spec.iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn spectrum_invariant_to_dc_offset(
        signal in prop::collection::vec(-10.0..10.0f64, 64),
        offset in -100.0..100.0f64,
    ) {
        let shifted: Vec<f64> = signal.iter().map(|&s| s + offset).collect();
        let a = magnitude_spectrum(&signal);
        let b = magnitude_spectrum(&shifted);
        for (l, r) in a.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    #[test]
    fn window_coefficients_bounded(n in 2usize..64) {
        for wf in [WindowFunction::Rectangular, WindowFunction::Hann, WindowFunction::Hamming] {
            for c in wf.coefficients(n) {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&c));
            }
        }
    }

    #[test]
    fn segmenter_count_is_consistent(
        window in 1usize..50,
        hop in 1usize..50,
        n in 0usize..500,
    ) {
        let seg = Segmenter::new(window, hop).unwrap();
        let data = vec![0.0; n];
        prop_assert_eq!(seg.count(n), seg.windows(&data).count());
        // Every produced window has the full length.
        prop_assert!(seg.windows(&data).all(|w| w.len() == window));
    }
}
