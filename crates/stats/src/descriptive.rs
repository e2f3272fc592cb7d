use serde::{Deserialize, Serialize};

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample variance (n−1 denominator); `NaN` for fewer than two
/// samples.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return f64::NAN;
    }
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Sample standard deviation; `NaN` for fewer than two samples.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Minimum value; `NaN` for an empty slice.
pub fn min(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .fold(f64::NAN, |acc, v| if acc.is_nan() { v } else { acc.min(v) })
}

/// Maximum value; `NaN` for an empty slice.
pub fn max(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .fold(f64::NAN, |acc, v| if acc.is_nan() { v } else { acc.max(v) })
}

/// Range (`max − min`); `NaN` for an empty slice.
pub fn range(data: &[f64]) -> f64 {
    max(data) - min(data)
}

/// Quantile `q ∈ [0, 1]` with linear interpolation between order statistics;
/// `NaN` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if data.is_empty() {
        return f64::NAN;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (0.5 quantile); `NaN` for an empty slice.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// One-pass descriptive summary of a sample.
///
/// # Example
///
/// ```
/// use smarteryou_stats::Summary;
///
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `data` in one pass.
    ///
    /// The pass is 4-lane chunked (`chunks_exact(4)` with four independent
    /// accumulators per statistic and a scalar tail), so it autovectorizes
    /// on stable Rust. The running sums are shifted by the first element
    /// (`s = Σ(x−x₀)`, `ss = Σ(x−x₀)²`; `var = (ss − s²/n)/(n−1)`), which
    /// keeps the one-pass variance stable for streams with a large mean,
    /// such as gravity-dominated accelerometer magnitudes. The lane sums
    /// reassociate, so mean and variance are within a few ulps of the free
    /// functions [`mean`] and [`variance`], not bit-equal to them. The lane
    /// count and reduction order are fixed, so equal inputs always give
    /// equal outputs.
    ///
    /// NaN contract, the same as the free functions: mean and variance are
    /// `NaN` if any sample is `NaN`; min and max skip `NaN` samples and are
    /// `NaN` only when every sample is. An empty slice gives `NaN` for all
    /// four, and a one-sample slice a `NaN` variance.
    pub fn from_slice(data: &[f64]) -> Self {
        let n = data.len();
        // A non-finite shift would poison every lane (∞ − ∞); shifting by
        // zero keeps ±∞ samples at the free functions' results.
        let shift = data
            .first()
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let mut s = [0.0f64; 4];
        let mut ss = [0.0f64; 4];
        // `f64::min`/`max` return the non-NaN operand, so NaN seeds give
        // the free functions' NaN-skipping folds.
        let mut mn = [f64::NAN; 4];
        let mut mx = [f64::NAN; 4];
        let chunks = data.chunks_exact(4);
        let tail = chunks.remainder();
        for c in chunks {
            for l in 0..4 {
                let d = c[l] - shift;
                s[l] += d;
                ss[l] += d * d;
                mn[l] = mn[l].min(c[l]);
                mx[l] = mx[l].max(c[l]);
            }
        }
        let mut s_t = (s[0] + s[1]) + (s[2] + s[3]);
        let mut ss_t = (ss[0] + ss[1]) + (ss[2] + ss[3]);
        let mut mn_t = mn[0].min(mn[1]).min(mn[2].min(mn[3]));
        let mut mx_t = mx[0].max(mx[1]).max(mx[2].max(mx[3]));
        for &v in tail {
            let d = v - shift;
            s_t += d;
            ss_t += d * d;
            mn_t = mn_t.min(v);
            mx_t = mx_t.max(v);
        }
        let nf = n as f64;
        // 0/0 makes the mean NaN for an empty slice.
        let mean = shift + s_t / nf;
        // `(n − 1) = 0` makes a one-sample variance NaN. Constant streams
        // can leave `ss − s²/n` a few ulps below zero; clamp those to 0,
        // but let NaN through (`NaN < 0` is false).
        let variance = (ss_t - s_t * s_t / nf) / (nf - 1.0);
        let variance = if variance < 0.0 { 0.0 } else { variance };
        Summary {
            count: n,
            mean,
            variance,
            min: mn_t,
            max: mx_t,
        }
    }

    /// Range (`max − min`).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_sample() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        // Sum of squared deviations = 32; unbiased variance = 32/7.
        assert!((variance(&data) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_produce_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(min(&[]).is_nan());
        assert!(max(&[]).is_nan());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn min_max_range() {
        let data = [3.0, -1.0, 4.0, 1.5];
        assert_eq!(min(&data), -1.0);
        assert_eq!(max(&data), 4.0);
        assert_eq!(range(&data), 5.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert_eq!(median(&data), 2.5);
        assert_eq!(quantile(&data, 0.25), 1.75);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let data = [9.0, 1.0, 5.0];
        assert_eq!(median(&data), 5.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_matches_free_functions_on_a_window() {
        // A gravity-offset sinusoid like a real accelerometer magnitude
        // stream, at the paper's 300-sample window and ragged tail lengths.
        for n in [300usize, 301, 302, 303, 8, 11] {
            let data: Vec<f64> = (0..n).map(|i| 9.81 + (i as f64 * 0.37).sin()).collect();
            let s = Summary::from_slice(&data);
            assert_eq!(s.count, n);
            assert_eq!(s.min.to_bits(), min(&data).to_bits(), "min is exact");
            assert_eq!(s.max.to_bits(), max(&data).to_bits(), "max is exact");
            assert!((s.mean - mean(&data)).abs() <= 1e-12 * mean(&data).abs());
            let v = variance(&data);
            assert!((s.variance - v).abs() <= 1e-9 * v.abs().max(1.0));
        }
    }

    #[test]
    fn summary_short_input_contracts() {
        let e = Summary::from_slice(&[]);
        assert_eq!(e.count, 0);
        assert!(e.mean.is_nan() && e.variance.is_nan() && e.min.is_nan() && e.max.is_nan());
        let one = Summary::from_slice(&[3.5]);
        assert_eq!(one.mean, 3.5);
        assert!(one.variance.is_nan());
        assert_eq!((one.min, one.max), (3.5, 3.5));
    }

    #[test]
    fn summary_constant_stream_has_zero_variance() {
        let data = vec![42.0; 300];
        let s = Summary::from_slice(&data);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.mean, 42.0);
        assert_eq!((s.min, s.max), (42.0, 42.0));
    }

    #[test]
    fn summary_matches_free_functions() {
        let data = [1.0, 2.0, 3.0];
        let s = Summary::from_slice(&data);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.variance, 1.0);
        assert_eq!(s.range(), 2.0);
        assert!((s.std_dev() - 1.0).abs() < 1e-12);
    }
}
