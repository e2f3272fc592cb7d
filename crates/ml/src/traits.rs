use smarteryou_linalg::Matrix;

use crate::MlError;

/// A trained binary classifier over dense feature vectors.
///
/// The positive class (+1) is the legitimate user throughout the workspace.
/// `decision` returns a real-valued score; the paper's *confidence score*
/// `CS(k) = xₖᵀ w*` (§V-I) is exactly this value for the KRR model. There
/// is no batch form: the pipeline scores each window by one `decision`
/// call on the model of its context.
pub trait BinaryClassifier: Send + Sync {
    /// Real-valued decision score; positive means "legitimate user".
    fn decision(&self, x: &[f64]) -> f64;

    /// Hard accept/reject decision at the zero threshold.
    fn predict(&self, x: &[f64]) -> bool {
        self.decision(x) >= 0.0
    }

    /// Number of features the model expects.
    fn num_features(&self) -> usize;
}

/// A configuration that can train a [`BinaryClassifier`] from ±1-labelled
/// data. Implemented by the deterministic trainers (KRR, linear regression,
/// naive Bayes); randomized trainers (SVM-SMO, random forest) take an
/// explicit RNG in their inherent `fit` instead.
pub trait BinaryTrainer {
    /// The model type this trainer produces.
    type Model: BinaryClassifier;

    /// Trains on rows of `x` with labels `y` in {−1, +1}.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidTrainingData`] for malformed inputs and
    /// trainer-specific errors otherwise.
    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Self::Model, MlError>;
}

impl BinaryClassifier for Box<dyn BinaryClassifier> {
    fn decision(&self, x: &[f64]) -> f64 {
        (**self).decision(x)
    }

    fn predict(&self, x: &[f64]) -> bool {
        (**self).predict(x)
    }

    fn num_features(&self) -> usize {
        (**self).num_features()
    }
}
