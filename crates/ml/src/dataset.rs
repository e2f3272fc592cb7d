use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use smarteryou_linalg::Matrix;

use crate::MlError;

/// A binary-labelled dataset: rows of `x` with labels in {−1, +1}.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    x: Matrix,
    y: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset, validating that rows and labels line up and that
    /// labels are ±1.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] on mismatch or bad labels.
    pub fn new(x: Matrix, y: Vec<f64>) -> Result<Self, MlError> {
        if x.rows() != y.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} rows but {} labels",
                x.rows(),
                y.len()
            )));
        }
        if y.iter().any(|&l| l != 1.0 && l != -1.0) {
            return Err(MlError::InvalidTrainingData(
                "labels must be +1 or -1".into(),
            ));
        }
        Ok(Dataset { x, y })
    }

    /// Builds a dataset by stacking positive rows (label +1) then negative
    /// rows (label −1).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] if either side is empty or
    /// rows are ragged.
    pub fn from_classes(positives: &[Vec<f64>], negatives: &[Vec<f64>]) -> Result<Self, MlError> {
        if positives.is_empty() || negatives.is_empty() {
            return Err(MlError::InvalidTrainingData(
                "both classes must be non-empty".into(),
            ));
        }
        let mut rows: Vec<&[f64]> = Vec::with_capacity(positives.len() + negatives.len());
        rows.extend(positives.iter().map(|v| v.as_slice()));
        rows.extend(negatives.iter().map(|v| v.as_slice()));
        let x = Matrix::from_rows(&rows)
            .map_err(|e| MlError::InvalidTrainingData(format!("ragged feature rows: {e}")))?;
        let mut y = vec![1.0; positives.len()];
        y.extend(std::iter::repeat_n(-1.0, negatives.len()));
        Dataset::new(x, y)
    }

    /// The design matrix (rows are samples).
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The label vector (entries ±1).
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features per sample.
    pub fn num_features(&self) -> usize {
        self.x.cols()
    }

    /// Extracts the subset at `indices` (clones rows).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let rows: Vec<&[f64]> = indices.iter().map(|&i| self.x.row(i)).collect();
        let x = Matrix::from_rows(&rows).expect("rows share width");
        let y = indices.iter().map(|&i| self.y[i]).collect();
        Dataset { x, y }
    }
}

/// Z-score feature scaler fitted on training data and applied to test data —
/// fit/transform must be split this way to avoid leaking test statistics
/// into training (the cross-validation harness does this per fold).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

/// Hand-written (rather than derived) so deserialization is shape-checked:
/// `means` and `stds` of different lengths are a typed error instead of a
/// scaler whose [`Scaler::transform_vec`] width assert would later panic.
impl serde::Deserialize for Scaler {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        decode_fields!(d, "Scaler", means, stds);
        let (means, stds): (Vec<f64>, Vec<f64>) = (
            required(means, "Scaler", "means")?,
            required(stds, "Scaler", "stds")?,
        );
        if means.len() != stds.len() {
            return Err(serde::DeError::custom(format!(
                "Scaler: {} means but {} stds",
                means.len(),
                stds.len()
            )));
        }
        Ok(Scaler { means, stds })
    }
}

impl Scaler {
    /// Learns per-column means and standard deviations from `x`.
    /// Zero-variance columns get a std of 1 so they map to 0 rather than NaN.
    pub fn fit(x: &Matrix) -> Self {
        let n = x.rows().max(1) as f64;
        let m = x.cols();
        let mut means = vec![0.0; m];
        for row in x.iter_rows() {
            for (acc, &v) in means.iter_mut().zip(row) {
                *acc += v;
            }
        }
        for v in &mut means {
            *v /= n;
        }
        let mut vars = vec![0.0; m];
        for row in x.iter_rows() {
            for ((acc, &v), &mu) in vars.iter_mut().zip(row).zip(&means) {
                let d = v - mu;
                *acc += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Scaler { means, stds }
    }

    /// Builds a scaler directly from precomputed per-column moments —
    /// used by the shared-workspace enrollment path, which derives the
    /// moments from cached Gram/sum blocks instead of a data pass. The
    /// caller is responsible for applying the same zero-variance clamp
    /// as [`Scaler::fit`] (std of 1 for degenerate columns).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub(crate) fn from_moments(means: Vec<f64>, stds: Vec<f64>) -> Self {
        assert_eq!(means.len(), stds.len(), "moment width mismatch");
        Scaler { means, stds }
    }

    /// Number of features the scaler was fitted on.
    pub fn num_features(&self) -> usize {
        self.means.len()
    }

    /// Scales a single feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted width.
    pub fn transform_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.means.len(), "scaler width mismatch");
        x.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((&v, &mu), &s)| (v - mu) / s)
            .collect()
    }

    /// Scales every row of a matrix.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let rows: Vec<Vec<f64>> = x.iter_rows().map(|r| self.transform_vec(r)).collect();
        Matrix::from_rows(&rows).expect("uniform width")
    }
}

/// Random train/test split of `n` indices with the given test fraction.
///
/// # Panics
///
/// Panics if `test_fraction` is outside `(0, 1)`.
pub fn train_test_split<R: Rng>(
    n: usize,
    test_fraction: f64,
    rng: &mut R,
) -> (Vec<usize>, Vec<usize>) {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test fraction must be in (0, 1)"
    );
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let n_test = ((n as f64) * test_fraction).round().max(1.0) as usize;
    let n_test = n_test.min(n.saturating_sub(1)).max(1);
    let test = idx[..n_test].to_vec();
    let train = idx[n_test..].to_vec();
    (train, test)
}

/// Partitions `0..n` into `k` disjoint folds of near-equal size, shuffled.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
pub fn k_fold_indices<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<Vec<usize>> {
    assert!(k > 0 && k <= n, "need 0 < k <= n (k={k}, n={n})");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut folds = vec![Vec::with_capacity(n / k + 1); k];
    for (i, v) in idx.into_iter().enumerate() {
        folds[i % k].push(v);
    }
    folds
}

/// Stratified k-fold: both classes are spread evenly across folds so every
/// fold contains positives and negatives (the paper's 10-fold CV with a
/// 1-vs-34 class imbalance needs this to keep FRR defined in every fold).
///
/// # Panics
///
/// Panics if `k == 0` or either class has fewer than `k` members.
pub fn stratified_k_fold<R: Rng>(y: &[f64], k: usize, rng: &mut R) -> Vec<Vec<usize>> {
    assert!(k > 0, "k must be positive");
    let mut pos: Vec<usize> = (0..y.len()).filter(|&i| y[i] > 0.0).collect();
    let mut neg: Vec<usize> = (0..y.len()).filter(|&i| y[i] <= 0.0).collect();
    assert!(
        pos.len() >= k && neg.len() >= k,
        "each class needs at least k={k} samples (pos={}, neg={})",
        pos.len(),
        neg.len()
    );
    pos.shuffle(rng);
    neg.shuffle(rng);
    let mut folds = vec![Vec::new(); k];
    for (i, v) in pos.into_iter().enumerate() {
        folds[i % k].push(v);
    }
    for (i, v) in neg.into_iter().enumerate() {
        folds[i % k].push(v);
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn dataset_validates_labels() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        assert!(Dataset::new(x.clone(), vec![1.0, -1.0]).is_ok());
        assert!(Dataset::new(x.clone(), vec![1.0, 0.0]).is_err());
        assert!(Dataset::new(x, vec![1.0]).is_err());
    }

    #[test]
    fn from_classes_stacks_and_labels() {
        let d =
            Dataset::from_classes(&[vec![1.0, 2.0]], &[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.y(), &[1.0, -1.0, -1.0]);
        assert_eq!(d.x().row(2), &[5.0, 6.0]);
        assert!(Dataset::from_classes(&[], &[vec![1.0]]).is_err());
    }

    #[test]
    fn subset_selects_rows() {
        let d = Dataset::from_classes(&[vec![1.0]], &[vec![2.0], vec![3.0]]).unwrap();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.x().row(0), &[3.0]);
        assert_eq!(s.y(), &[-1.0, 1.0]);
    }

    #[test]
    fn scaler_standardises_columns() {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]).unwrap();
        let s = Scaler::fit(&x);
        let t = s.transform(&x);
        // Column 0: mean 2, population std 1 -> -1 and +1.
        assert!((t[(0, 0)] + 1.0).abs() < 1e-12);
        assert!((t[(1, 0)] - 1.0).abs() < 1e-12);
        // Zero-variance column maps to zero, not NaN.
        assert_eq!(t[(0, 1)], 0.0);
    }

    #[test]
    fn train_test_split_partitions() {
        let (train, test) = train_test_split(10, 0.3, &mut rng());
        assert_eq!(train.len() + test.len(), 10);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn k_fold_covers_all_indices() {
        let folds = k_fold_indices(23, 5, &mut rng());
        assert_eq!(folds.len(), 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..23).collect::<Vec<_>>());
        // Sizes are near-equal.
        assert!(folds.iter().all(|f| (4..=5).contains(&f.len())));
    }

    #[test]
    fn stratified_folds_contain_both_classes() {
        let mut y = vec![1.0; 20];
        y.extend(vec![-1.0; 80]);
        let folds = stratified_k_fold(&y, 10, &mut rng());
        for f in &folds {
            assert!(f.iter().any(|&i| y[i] > 0.0), "fold lacks positives");
            assert!(f.iter().any(|&i| y[i] < 0.0), "fold lacks negatives");
        }
    }

    #[test]
    #[should_panic(expected = "at least k")]
    fn stratified_panics_when_class_too_small() {
        let y = vec![1.0, -1.0, -1.0, -1.0];
        stratified_k_fold(&y, 2, &mut rng());
    }
}
