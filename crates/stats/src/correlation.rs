use crate::descriptive::mean;

/// Pearson product-moment correlation coefficient between two equal-length
/// samples.
///
/// Returns `NaN` when either sample has zero variance or fewer than two
/// points (matching the convention that correlation is undefined there).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use smarteryou_stats::pearson;
///
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    if x.len() < 2 {
        return f64::NAN;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let da = a - mx;
        let db = b - my;
        cov += da * db;
        vx += da * da;
        vy += db * db;
    }
    if vx == 0.0 || vy == 0.0 {
        return f64::NAN;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
        assert!(pearson(&[1.0], &[2.0]).is_nan());
    }

    #[test]
    fn uncorrelated_orthogonal_pattern() {
        let x = [1.0, -1.0, 1.0, -1.0];
        let y = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn pearson_bounded() {
        // A pseudo-random-ish pair stays within [-1, 1].
        let x: Vec<f64> = (0..50).map(|i| ((i * 37 % 11) as f64).sin()).collect();
        let y: Vec<f64> = (0..50).map(|i| ((i * 17 % 7) as f64).cos()).collect();
        let r = pearson(&x, &y);
        assert!((-1.0..=1.0).contains(&r));
    }
}
