//! Parity proptests pinning the batched (4-lane SoA) spectrum layout to the
//! single-stream one, and the magnitude series to `axis_magnitude`. Both
//! spectrum layouts run the same lane-generic transform kernel (its 4-lane
//! and 1-lane instances) and the same operations in the same order per
//! lane, down to the final `sqrt(re² + im²) · (2/n)`, so every batched lane
//! must be `to_bits`-equal to `SpectrumPlan::magnitude_into`, and the
//! magnitude series, a per-sample map of `axis_magnitude`, bit-equal to it.

use proptest::prelude::*;
use proptest::TestCaseError;
use smarteryou_dsp::{
    axis_magnitude, magnitude_series_into, BatchSpectrumScratch, SpectrumPlan, SpectrumScratch,
};

/// Four distinct same-length signals plus the length, drawn so mixed-radix
/// (only 2, 3 and 5 divide), Bluestein (a larger prime factor), the odd
/// direct path and the packed-real even path all appear; the deployed
/// 300-sample window is pinned in the fixed case below.
fn four_lanes() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1usize..=320, prop::collection::vec(-50.0..50.0f64, 4 * 320)).prop_map(|(n, pool)| (n, pool))
}

fn check_batch_matches_scalar(n: usize, pool: &[f64]) -> Result<(), TestCaseError> {
    let lanes: Vec<Vec<f64>> = (0..4).map(|l| pool[l * n..(l + 1) * n].to_vec()).collect();
    let plan = SpectrumPlan::new(n);

    let mut scalar_scratch = SpectrumScratch::default();
    let mut expected = vec![Vec::new(); 4];
    for (lane, out) in lanes.iter().zip(expected.iter_mut()) {
        plan.magnitude_into(lane, &mut scalar_scratch, out);
    }

    let mut batch_scratch = BatchSpectrumScratch::default();
    let (mut g0, mut g1, mut g2, mut g3) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    plan.magnitude_batch4_into(
        [
            lanes[0].as_slice(),
            lanes[1].as_slice(),
            lanes[2].as_slice(),
            lanes[3].as_slice(),
        ],
        &mut batch_scratch,
        [&mut g0, &mut g1, &mut g2, &mut g3],
    );

    for (lane, (got, want)) in [g0, g1, g2, g3].iter().zip(&expected).enumerate() {
        prop_assert_eq!(got.len(), want.len());
        for (k, (&a, &b)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "lane {} bin {}: batched {} vs single-stream {}",
                lane,
                k,
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batched_spectrum_matches_scalar((n, pool) in four_lanes()) {
        check_batch_matches_scalar(n, &pool)?;
    }

    /// The magnitude series must be **bit-identical** to mapping
    /// [`axis_magnitude`] over the axes — it feeds both spectrum layouts.
    #[test]
    fn magnitude_series_is_bit_identical_to_axis_magnitude(
        xyz in prop::collection::vec((-40.0..40.0f64, -40.0..40.0f64, -40.0..40.0f64), 0..=310)
    ) {
        let x: Vec<f64> = xyz.iter().map(|t| t.0).collect();
        let y: Vec<f64> = xyz.iter().map(|t| t.1).collect();
        let z: Vec<f64> = xyz.iter().map(|t| t.2).collect();
        let mut out = Vec::new();
        magnitude_series_into(&x, &y, &z, &mut out);
        prop_assert_eq!(out.len(), xyz.len());
        for (i, &(a, b, c)) in xyz.iter().enumerate() {
            prop_assert!(
                out[i].to_bits() == axis_magnitude(a, b, c).to_bits(),
                "sample {} differs from axis_magnitude",
                i
            );
        }
    }
}

/// The deployed window lengths, pinned: 300 samples (6.0 s at 50 Hz, even →
/// packed real path over a mixed-radix 150 = 5·5·3·2 transform), 100 (2 s;
/// packed 50 = 5·5·2), 360 (packed 180 = 5·4·3·3) and 128 (packed 64 =
/// 4·4·4), Bluestein inner transforms at 299 (13·23, direct) and 302 (packed
/// 151, prime), plus lengths straddling the 4-lane interleave boundaries.
#[test]
fn batched_spectrum_covers_deployed_lengths() {
    for n in [1usize, 2, 3, 4, 5, 100, 127, 128, 150, 299, 300, 302, 360] {
        let pool: Vec<f64> = (0..4 * n)
            .map(|i| (i as f64 * 0.37).sin() * 12.0 + (i % 7) as f64)
            .collect();
        check_batch_matches_scalar(n, &pool).unwrap();
    }
}
