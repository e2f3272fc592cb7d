use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use smarteryou_linalg::Matrix;

use crate::MlError;

/// CART decision-tree trainer (Gini impurity, binary splits) over
/// `usize`-labelled classes.
///
/// Used standalone and as the base learner of [`crate::RandomForest`], the
/// paper's context-detection classifier (§V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTree {
    max_depth: usize,
    min_samples_split: usize,
    /// Features examined per split; `None` means all (plain CART).
    max_features: Option<usize>,
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree {
            max_depth: 12,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

impl DecisionTree {
    /// Creates a trainer with default depth 12 and no feature subsampling.
    pub fn new() -> Self {
        DecisionTree::default()
    }

    /// Limits tree depth (root = depth 0).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "max depth must be positive");
        self.max_depth = depth;
        self
    }

    /// Minimum samples required to attempt a split.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn with_min_samples_split(mut self, n: usize) -> Self {
        assert!(n >= 2, "min samples split must be at least 2");
        self.min_samples_split = n;
        self
    }

    /// Examines only `k` random features per split (random-forest mode).
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
    /// `rng` is used only when feature subsampling is enabled; pass any
    /// seeded RNG for deterministic forests.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] when shapes mismatch, data
    /// is empty, or a label is out of range.
    pub fn fit(
        &self,
        x: &Matrix,
        y: &[usize],
        num_classes: usize,
        rng: &mut StdRng,
    ) -> Result<DecisionTreeModel, MlError> {
        if x.rows() != y.len() {
            return Err(MlError::InvalidTrainingData(format!(
                "{} rows but {} labels",
                x.rows(),
                y.len()
            )));
        }
        if x.rows() == 0 || x.cols() == 0 || num_classes == 0 {
            return Err(MlError::InvalidTrainingData("empty training data".into()));
        }
        if let Some(&bad) = y.iter().find(|&&l| l >= num_classes) {
            return Err(MlError::InvalidTrainingData(format!(
                "label {bad} out of range for {num_classes} classes"
            )));
        }
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..x.rows()).collect();
        let mut builder = Builder {
            x,
            y,
            num_classes,
            config: *self,
            nodes: &mut nodes,
            rng,
        };
        builder.build(&indices, 0);
        Ok(DecisionTreeModel {
            nodes,
            num_features: x.cols(),
            num_classes,
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Per-class sample counts that reached this leaf.
        counts: Vec<u32>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child in the node arena (`value <= threshold`).
        left: usize,
        /// Index of the right child.
        right: usize,
    },
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [usize],
    num_classes: usize,
    config: DecisionTree,
    nodes: &'a mut Vec<Node>,
    rng: &'a mut StdRng,
}

impl Builder<'_> {
    /// Builds the subtree over `indices`, returning its arena index.
    fn build(&mut self, indices: &[usize], depth: usize) -> usize {
        let counts = self.class_counts(indices);
        let n_nonzero = counts.iter().filter(|&&c| c > 0).count();
        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || n_nonzero <= 1
        {
            return self.push_leaf(counts);
        }
        match self.best_split(indices) {
            None => self.push_leaf(counts),
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                    .iter()
                    .partition(|&&i| self.x[(i, feature)] <= threshold);
                if left_idx.is_empty() || right_idx.is_empty() {
                    return self.push_leaf(counts);
                }
                // Reserve our slot before recursing so children land after.
                let slot = self.nodes.len();
                self.nodes.push(Node::Leaf { counts: Vec::new() });
                let left = self.build(&left_idx, depth + 1);
                let right = self.build(&right_idx, depth + 1);
                self.nodes[slot] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                slot
            }
        }
    }

    fn push_leaf(&mut self, counts: Vec<u32>) -> usize {
        self.nodes.push(Node::Leaf { counts });
        self.nodes.len() - 1
    }

    fn class_counts(&self, indices: &[usize]) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_classes];
        for &i in indices {
            counts[self.y[i]] += 1;
        }
        counts
    }

    /// Finds the (feature, threshold) minimising weighted Gini impurity;
    /// `None` when no split improves on the parent.
    fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f64)> {
        let m = self.x.cols();
        let mut features: Vec<usize> = (0..m).collect();
        if let Some(k) = self.config.max_features {
            features.shuffle(self.rng);
            features.truncate(k.min(m));
        }

        let parent_counts = self.class_counts(indices);
        let parent_gini = gini(&parent_counts);
        let n = indices.len() as f64;

        let mut best: Option<(f64, usize, f64)> = None; // (impurity, feature, threshold)
        for &f in &features {
            // Sort the node's samples by this feature once, then sweep.
            let mut sorted: Vec<(f64, usize)> = indices
                .iter()
                .map(|&i| (self.x[(i, f)], self.y[i]))
                .collect();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

            let mut left_counts = vec![0u32; self.num_classes];
            let mut right_counts = parent_counts.clone();
            for w in 0..sorted.len() - 1 {
                let (v, label) = sorted[w];
                left_counts[label] += 1;
                right_counts[label] -= 1;
                let next_v = sorted[w + 1].0;
                if next_v <= v {
                    continue; // can't split between equal values
                }
                let nl = (w + 1) as f64;
                let nr = n - nl;
                let impurity = (nl * gini(&left_counts) + nr * gini(&right_counts)) / n;
                // Accept zero-gain splits too (needed for XOR-like data where
                // no single split improves Gini); recursion still terminates
                // because children are strictly smaller and depth is capped.
                if best.map_or(impurity <= parent_gini + 1e-12, |(b, _, _)| impurity < b) {
                    best = Some((impurity, f, (v + next_v) / 2.0));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

/// Gini impurity of a class-count vector.
fn gini(counts: &[u32]) -> f64 {
    let total: u32 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

/// A trained decision tree (arena-allocated nodes).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTreeModel {
    nodes: Vec<Node>,
    num_features: usize,
    num_classes: usize,
}

/// Hand-written (rather than derived) so deserialization is shape-checked.
/// The builder pushes every child after its parent, so a decoded arena
/// must have that shape too: a child pointing back at itself or an
/// ancestor would send [`DecisionTreeModel::predict_proba`] round a cycle
/// forever, and a child past the arena, a feature past the width or a leaf
/// of the wrong class count would make it panic. Each is a typed error.
impl serde::Deserialize for DecisionTreeModel {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "DecisionTreeModel";
        decode_fields!(d, TY, nodes, num_features, num_classes);
        let tree = DecisionTreeModel {
            nodes: required(nodes, TY, "nodes")?,
            num_features: required(num_features, TY, "num_features")?,
            num_classes: required(num_classes, TY, "num_classes")?,
        };
        tree.check_arena()
            .map_err(|e| serde::DeError::custom(format!("{TY}: {e}")))?;
        Ok(tree)
    }
}

impl DecisionTreeModel {
    /// Number of features the tree expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes the tree was trained over.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total nodes in the tree (splits + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The arena shape the builder guarantees and prediction relies on.
    fn check_arena(&self) -> Result<(), String> {
        let len = self.nodes.len();
        if len == 0 {
            return Err("empty node arena".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Leaf { counts } => {
                    if counts.len() != self.num_classes {
                        return Err(format!(
                            "leaf {i} counts {} classes of {}",
                            counts.len(),
                            self.num_classes
                        ));
                    }
                    if counts
                        .iter()
                        .try_fold(0u32, |a, &c| a.checked_add(c))
                        .is_none()
                    {
                        return Err(format!("leaf {i} counts overflow"));
                    }
                }
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    if *feature >= self.num_features {
                        return Err(format!(
                            "split {i} tests feature {feature} of {}",
                            self.num_features
                        ));
                    }
                    if let Some(child) = [*left, *right].into_iter().find(|&c| c <= i || c >= len) {
                        return Err(format!(
                            "split {i} points at node {child}, not a later node of the {len}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-class vote distribution at the leaf `x` reaches (normalised).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_features()`.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_features, "feature width mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { counts } => {
                    let total: u32 = counts.iter().sum();
                    if total == 0 {
                        return vec![1.0 / self.num_classes as f64; self.num_classes];
                    }
                    return counts.iter().map(|&c| c as f64 / total as f64).collect();
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Most likely class for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_features()`.
    pub fn predict(&self, x: &[f64]) -> usize {
        let proba = self.predict_proba(x);
        proba
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
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
    }

    #[test]
    fn learns_axis_aligned_boundary() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 10.0, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<usize> = rows.iter().map(|r| usize::from(r[0] > 2.0)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = DecisionTree::new().fit(&x, &y, 2, &mut rng()).unwrap();
        assert_eq!(tree.predict(&[1.0, 5.0]), 0);
        assert_eq!(tree.predict(&[3.5, 5.0]), 1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let y = [0usize, 0, 1, 1];
        let tree = DecisionTree::new().fit(&x, &y, 2, &mut rng()).unwrap();
        for (row, &label) in x.iter_rows().zip(&y) {
            assert_eq!(tree.predict(row), label);
        }
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [1usize, 1, 1];
        let tree = DecisionTree::new().fit(&x, &y, 2, &mut rng()).unwrap();
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[5.0]), 1);
    }

    #[test]
    fn depth_limit_caps_tree() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..64).map(|i| (i / 2) % 2).collect(); // needs many splits
        let x = Matrix::from_rows(&rows).unwrap();
        let shallow = DecisionTree::new()
            .with_max_depth(2)
            .fit(&x, &y, 2, &mut rng())
            .unwrap();
        let deep = DecisionTree::new()
            .with_max_depth(10)
            .fit(&x, &y, 2, &mut rng())
            .unwrap();
        assert!(shallow.num_nodes() < deep.num_nodes());
        assert!(shallow.num_nodes() <= 7); // depth-2 binary tree
    }

    #[test]
    fn predict_proba_sums_to_one() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]).unwrap();
        let y = [0usize, 0, 1, 1];
        let tree = DecisionTree::new().fit(&x, &y, 2, &mut rng()).unwrap();
        let p = tree.predict_proba(&[1.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_range_labels() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        assert!(DecisionTree::new().fit(&x, &[0, 5], 2, &mut rng()).is_err());
        assert!(DecisionTree::new().fit(&x, &[0], 2, &mut rng()).is_err());
    }
}
