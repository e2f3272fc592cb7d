//! From-scratch machine-learning substrate for the SmarterYou reproduction.
//!
//! The paper evaluates four binary classifiers for user authentication
//! (Table VI) — **kernel ridge regression** (the system's choice, §V-F2),
//! SVM, linear regression and naive Bayes — plus a **random forest** for
//! user-agnostic context detection (§V-E). All of them are implemented here
//! with no external ML dependencies, along with datasets, z-score scaling,
//! stratified k-fold cross-validation and evaluation helpers.
//!
//! The KRR implementation exposes both the **dual** form of Eq. 6
//! (`w* = Φ[K + ρIₙ]⁻¹y`, O(N³)-ish) and the **primal** form of Eq. 7
//! (`w* = [S + ρI_J]⁻¹Φy`, O(M³)-ish) so the paper's complexity-reduction
//! claim (§V-H1 and the appendix equivalence proof) is reproducible — see
//! `tests/krr_equivalence.rs` and the `repro-complexity` binary, which times
//! the two forms.
//!
//! # Example
//!
//! ```
//! use smarteryou_linalg::Matrix;
//! use smarteryou_ml::{BinaryClassifier, KernelRidge};
//!
//! # fn main() -> Result<(), smarteryou_ml::MlError> {
//! // Two separable clusters on a line.
//! let x = Matrix::from_rows(&[&[-2.0], &[-1.5], &[1.6], &[2.1]]).unwrap();
//! let y = [-1.0, -1.0, 1.0, 1.0];
//! let model = KernelRidge::new(0.1).fit(&x, &y)?;
//! assert!(model.decision(&[1.8]) > 0.0);
//! assert!(model.decision(&[-1.8]) < 0.0);
//! # Ok(())
//! # }
//! ```

mod dataset;
mod error;
mod forest;
mod kernel;
mod krr;
mod linreg;
mod metrics;
mod naive_bayes;
mod svm;
mod traits;
mod tree;
mod workspace;

pub use dataset::{stratified_k_fold, Dataset, Scaler};
pub use error::MlError;
pub use forest::{RandomForest, RandomForestModel};
pub use kernel::Kernel;
pub use krr::{KernelRidge, KrrFitCache, KrrModel, KrrSolver};
pub use linreg::{LinearRegression, LinearRegressionModel};
pub use metrics::{cross_validate, evaluate_binary, CrossValidationReport};
pub use naive_bayes::{GaussianNaiveBayes, GaussianNaiveBayesModel};
pub use svm::{Svm, SvmModel};
pub use traits::{BinaryClassifier, BinaryTrainer};
pub use tree::{DecisionTree, DecisionTreeModel};
pub use workspace::{KrrSharedWorkspace, KrrTailState};

use rand::rngs::StdRng;
use smarteryou_linalg::Matrix;

/// The four classification algorithms compared in Table VI of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Kernel ridge regression (the paper's pick).
    Krr,
    /// Support vector machine trained with SMO.
    Svm,
    /// Ordinary least-squares regression on ±1 labels.
    LinearRegression,
    /// Gaussian naive Bayes.
    NaiveBayes,
}

impl Algorithm {
    /// All algorithms in the order Table VI lists them.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Krr,
        Algorithm::Svm,
        Algorithm::LinearRegression,
        Algorithm::NaiveBayes,
    ];

    /// Human-readable name matching the paper's Table VI rows.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Krr => "KRR",
            Algorithm::Svm => "SVM",
            Algorithm::LinearRegression => "Linear Regression",
            Algorithm::NaiveBayes => "Naive Bayes",
        }
    }

    /// Trains this algorithm with its default hyperparameters on ±1 labels,
    /// returning a type-erased classifier.
    ///
    /// # Errors
    ///
    /// Propagates the underlying trainer's error (degenerate data, singular
    /// systems, …).
    pub fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        rng: &mut StdRng,
    ) -> Result<Box<dyn BinaryClassifier>, MlError> {
        match self {
            Algorithm::Krr => Ok(Box::new(KernelRidge::new(1.0).fit(x, y)?)),
            Algorithm::Svm => Ok(Box::new(Svm::new(1.0).fit(x, y, rng)?)),
            Algorithm::LinearRegression => Ok(Box::new(LinearRegression::new().fit(x, y)?)),
            Algorithm::NaiveBayes => Ok(Box::new(GaussianNaiveBayes::new().fit(x, y)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn algorithm_names_match_paper() {
        assert_eq!(Algorithm::Krr.name(), "KRR");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn all_algorithms_fit_separable_data() {
        let x = Matrix::from_rows(&[
            &[-2.0, -1.9],
            &[-1.5, -2.2],
            &[-1.8, -1.4],
            &[1.6, 2.0],
            &[2.1, 1.7],
            &[1.9, 2.3],
        ])
        .unwrap();
        let y = [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(1);
        for alg in Algorithm::ALL {
            let model = alg.fit(&x, &y, &mut rng).unwrap();
            assert!(model.decision(&[2.0, 2.0]) > 0.0, "{alg:?} positive side");
            assert!(model.decision(&[-2.0, -2.0]) < 0.0, "{alg:?} negative side");
        }
    }
}
