use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use smarteryou_linalg::Matrix;

use crate::{DecisionTree, DecisionTreeModel, MlError};

/// Random forest (Ho 1995 / Breiman 2001): bagged CART trees with per-split
/// feature subsampling.
///
/// This is the paper's context-detection classifier (§V-E, Table V): a
/// user-agnostic model that labels each window *stationary* or *moving*
/// before the per-context authentication model is selected.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use smarteryou_linalg::Matrix;
/// use smarteryou_ml::RandomForest;
///
/// # fn main() -> Result<(), smarteryou_ml::MlError> {
/// let x = Matrix::from_rows(&[&[0.1], &[0.2], &[0.9], &[1.1]]).unwrap();
/// let y = [0usize, 0, 1, 1];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let model = RandomForest::new(20).fit(&x, &y, 2, &mut rng)?;
/// assert_eq!(model.predict(&[0.15]), 0);
/// assert_eq!(model.predict(&[1.0]), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    min_samples_split: usize,
    /// Features per split; `None` = ⌈√M⌉ (the usual heuristic).
    max_features: Option<usize>,
}

impl Default for RandomForest {
    fn default() -> Self {
        RandomForest {
            n_trees: 50,
            max_depth: 12,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

impl RandomForest {
    /// Creates a forest of `n_trees` trees with default depth 12 and √M
    /// feature subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `n_trees == 0`.
    pub fn new(n_trees: usize) -> Self {
        assert!(n_trees > 0, "forest needs at least one tree");
        RandomForest {
            n_trees,
            ..RandomForest::default()
        }
    }

    /// Limits the depth of each tree.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "max depth must be positive");
        self.max_depth = depth;
        self
    }

    /// Overrides the number of features examined per split.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_max_features(mut self, k: usize) -> Self {
        assert!(k > 0, "max features must be positive");
        self.max_features = Some(k);
        self
    }

    /// Trains on rows of `x` with class labels `y < num_classes`.
    ///
    /// Each tree gets a bootstrap resample of the rows and an independent
    /// RNG stream derived from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] for malformed inputs.
    pub fn fit(
        &self,
        x: &Matrix,
        y: &[usize],
        num_classes: usize,
        rng: &mut StdRng,
    ) -> Result<RandomForestModel, MlError> {
        if x.rows() != y.len() || x.rows() == 0 {
            return Err(MlError::InvalidTrainingData(format!(
                "{} rows vs {} labels",
                x.rows(),
                y.len()
            )));
        }
        let m = x.cols();
        let k = self
            .max_features
            .unwrap_or_else(|| (m as f64).sqrt().ceil() as usize)
            .clamp(1, m);
        let template = DecisionTree::new()
            .with_max_depth(self.max_depth)
            .with_min_samples_split(self.min_samples_split)
            .with_max_features(k);

        let n = x.rows();
        let mut trees = Vec::with_capacity(self.n_trees);
        for _ in 0..self.n_trees {
            // Bootstrap sample with replacement.
            let idx: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            let rows: Vec<&[f64]> = idx.iter().map(|&i| x.row(i)).collect();
            let bx = Matrix::from_rows(&rows).expect("uniform width");
            let by: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
            let mut tree_rng = StdRng::seed_from_u64(rng.random());
            trees.push(template.fit(&bx, &by, num_classes, &mut tree_rng)?);
        }
        Ok(RandomForestModel { trees, num_classes })
    }
}

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RandomForestModel {
    trees: Vec<DecisionTreeModel>,
    num_classes: usize,
}

/// Hand-written (rather than derived) so deserialization is shape-checked:
/// an empty forest, or trees that disagree with each other on width or
/// with the forest on classes, are a typed error instead of a forest whose
/// votes would divide by zero or panic in a width assert.
impl serde::Deserialize for RandomForestModel {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "RandomForestModel";
        decode_fields!(d, TY, trees, num_classes);
        let forest = RandomForestModel {
            trees: required(trees, TY, "trees")?,
            num_classes: required(num_classes, TY, "num_classes")?,
        };
        let Some(first) = forest.trees.first() else {
            return Err(serde::DeError::custom(format!("{TY}: no trees")));
        };
        if forest.trees.iter().any(|t| {
            t.num_features() != first.num_features() || t.num_classes() != forest.num_classes
        }) {
            return Err(serde::DeError::custom(format!(
                "{TY}: trees disagree on feature width or class count"
            )));
        }
        Ok(forest)
    }
}

impl RandomForestModel {
    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of features each tree expects.
    pub fn num_features(&self) -> usize {
        self.trees.first().map_or(0, |t| t.num_features())
    }

    /// Mean per-class probability across trees.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.num_classes];
        for tree in &self.trees {
            for (a, p) in acc.iter_mut().zip(tree.predict_proba(x)) {
                *a += p;
            }
        }
        let k = 1.0 / self.trees.len() as f64;
        for a in &mut acc {
            *a *= k;
        }
        acc
    }

    /// Majority-vote class for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_proba(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    /// Noisy two-moon-ish classes on a 2-D grid.
    fn dataset() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let t = i as f64 / 120.0 * std::f64::consts::PI;
            let jitter = (((i as u64 * 2654435761) % 997) as f64 / 997.0 - 0.5) * 0.3;
            if i % 2 == 0 {
                rows.push(vec![t.cos() + jitter, t.sin() + jitter]);
                y.push(0);
            } else {
                rows.push(vec![1.0 - t.cos() + jitter, 0.5 - t.sin() + jitter]);
                y.push(1);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn forest_fits_nonlinear_classes() {
        let (x, y) = dataset();
        let model = RandomForest::new(30).fit(&x, &y, 2, &mut rng()).unwrap();
        let correct = (0..x.rows())
            .filter(|&i| model.predict(x.row(i)) == y[i])
            .count();
        assert!(correct as f64 / x.rows() as f64 > 0.9);
    }

    #[test]
    fn forest_beats_single_shallow_tree_on_noisy_data() {
        let (x, y) = dataset();
        let tree = DecisionTree::new()
            .with_max_depth(2)
            .fit(&x, &y, 2, &mut rng())
            .unwrap();
        let forest = RandomForest::new(40)
            .with_max_depth(6)
            .fit(&x, &y, 2, &mut rng())
            .unwrap();
        let acc = |pred: &dyn Fn(&[f64]) -> usize| {
            (0..x.rows()).filter(|&i| pred(x.row(i)) == y[i]).count() as f64 / x.rows() as f64
        };
        let tree_acc = acc(&|r| tree.predict(r));
        let forest_acc = acc(&|r| forest.predict(r));
        assert!(forest_acc >= tree_acc, "{forest_acc} vs {tree_acc}");
    }

    #[test]
    fn proba_is_distribution() {
        let (x, y) = dataset();
        let model = RandomForest::new(10).fit(&x, &y, 2, &mut rng()).unwrap();
        let p = model.predict_proba(&[0.5, 0.5]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = dataset();
        let m1 = RandomForest::new(10)
            .fit(&x, &y, 2, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let m2 = RandomForest::new(10)
            .fit(&x, &y, 2, &mut StdRng::seed_from_u64(9))
            .unwrap();
        assert_eq!(m1.predict(&[0.3, 0.3]), m2.predict(&[0.3, 0.3]));
    }

    #[test]
    fn rejects_empty_data() {
        let x = Matrix::from_rows(&[&[1.0]]).unwrap();
        assert!(RandomForest::new(3).fit(&x, &[], 2, &mut rng()).is_err());
    }
}
