//! Parity proptests pinning the single summary kernel,
//! [`Summary::from_slice`], to its oracle: the free per-statistic functions
//! [`mean`], [`variance`], [`min`] and [`max`]. Mean and variance agree
//! within epsilon (the kernel's 4-lane sums reassociate); min and max are
//! exact. The NaN contract is exact too: mean and variance are NaN as soon
//! as one sample is, min and max only when every sample is.

use proptest::prelude::*;
use proptest::TestCaseError;
use smarteryou_stats::{max, mean, min, variance, Summary};

/// A random length together with a signal of that length, covering short
/// inputs, ragged tails (length not a multiple of 4), and the paper's
/// deployed 300-sample window via the fixed cases below.
fn sized_buf() -> impl Strategy<Value = Vec<f64>> {
    (0usize..=512, prop::collection::vec(-100.0..100.0f64, 512))
        .prop_map(|(len, v)| v.into_iter().take(len).collect())
}

/// Accelerometer-magnitude-shaped data: a large common offset (gravity)
/// with small fluctuations, the regime where a naive one-pass variance
/// loses the most precision.
fn offset_buf() -> impl Strategy<Value = Vec<f64>> {
    (
        4usize..=512,
        500.0..1000.0f64,
        prop::collection::vec(-1.0..1.0f64, 512),
    )
        .prop_map(|(len, base, v)| v.into_iter().take(len).map(|x| base + x).collect())
}

/// `a` is `b` up to a relative epsilon; equal values (infinities included)
/// and NaN pairs match, a NaN against a number does not.
fn assert_close(a: f64, b: f64, rel: f64, abs: f64) -> Result<(), TestCaseError> {
    if a == b || (a.is_nan() && b.is_nan()) {
        return Ok(());
    }
    prop_assert!(
        (a - b).abs() <= rel * b.abs().max(abs),
        "summary {a} vs free function {b}"
    );
    Ok(())
}

fn assert_exact(a: f64, b: f64, field: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
        "{field}: summary {a} vs free function {b}"
    );
    Ok(())
}

fn check_matches_oracle(data: &[f64]) -> Result<(), TestCaseError> {
    let s = Summary::from_slice(data);
    prop_assert_eq!(s.count, data.len());
    assert_exact(s.min, min(data), "min")?;
    assert_exact(s.max, max(data), "max")?;
    assert_close(s.mean, mean(data), 1e-12, 1e-12)?;
    // Variance subtracts large near-equal quantities in the one-pass form;
    // the first-element shift keeps it stable but not bit-equal.
    assert_close(s.variance, variance(data), 1e-9, 1e-9)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn summary_matches_free_functions(data in sized_buf()) {
        check_matches_oracle(&data)?;
    }

    #[test]
    fn summary_matches_free_functions_on_offset_data(data in offset_buf()) {
        check_matches_oracle(&data)?;
    }

    #[test]
    fn summary_on_deployed_window(data in prop::collection::vec(-20.0..20.0f64, 300)) {
        check_matches_oracle(&data)?;
    }

    /// NaN samples at random positions: mean and variance turn NaN, min
    /// and max keep skipping them.
    #[test]
    fn summary_keeps_the_nan_contract(
        data in sized_buf(),
        spots in prop::collection::vec(0usize..512, 1..=8),
    ) {
        let mut data = data;
        for &i in &spots {
            if let Some(v) = data.get_mut(i) {
                *v = f64::NAN;
            }
        }
        check_matches_oracle(&data)?;
    }
}

/// Every length from 0 to 400, clean, with one NaN (first, middle and last
/// sample) and all NaN, plus one infinity, pinned so every tail length of
/// the 4-lane loop meets every contract.
#[test]
fn summary_nan_contract_at_every_length() {
    for n in 0usize..=400 {
        let clean: Vec<f64> = (0..n).map(|i| 9.81 + (i as f64 * 0.7).sin()).collect();
        check_matches_oracle(&clean).unwrap();
        for spot in [0, n / 2, n.saturating_sub(1)] {
            if n == 0 {
                break;
            }
            let mut one_nan = clean.clone();
            one_nan[spot] = f64::NAN;
            let s = Summary::from_slice(&one_nan);
            assert!(
                s.mean.is_nan() && s.variance.is_nan(),
                "n={n} NaN at {spot}"
            );
            assert_eq!(s.min.is_nan(), n == 1, "n={n} NaN at {spot}: min");
            check_matches_oracle(&one_nan).unwrap();

            let mut one_inf = clean.clone();
            one_inf[spot] = f64::INFINITY;
            check_matches_oracle(&one_inf).unwrap();
        }
        let all_nan = vec![f64::NAN; n];
        let s = Summary::from_slice(&all_nan);
        assert!(s.mean.is_nan() && s.variance.is_nan(), "n={n} all NaN");
        assert!(s.min.is_nan() && s.max.is_nan(), "n={n} all NaN");
        check_matches_oracle(&all_nan).unwrap();
    }
}
