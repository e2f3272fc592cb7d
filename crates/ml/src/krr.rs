use serde::{Deserialize, Serialize};

use smarteryou_linalg::{vector, Cholesky, Matrix};

use crate::error::validate_binary;
use crate::{BinaryClassifier, BinaryTrainer, Kernel, MlError};

/// Which of the two mathematically equivalent KRR solutions to compute.
///
/// The paper's appendix proves Eq. 6 (dual) ≡ Eq. 7 (primal); §V-H1 builds
/// on that to reduce training complexity from `O(N^2.373)` to `O(M^2.373)`
/// (N = training samples ≈ 720, M = features = 28). Both paths are kept so
/// the claim is testable and benchmarkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KrrSolver {
    /// Solve the M×M system `[S + ρI_J]⁻¹ Φy` (Eq. 7). Identity kernel only.
    Primal,
    /// Solve the N×N system `Φ[K + ρI_N]⁻¹ y` (Eq. 6). Any kernel.
    Dual,
    /// Primal when the kernel is linear and M < N, dual otherwise.
    #[default]
    Auto,
}

/// Kernel ridge regression trainer — the paper's authentication classifier
/// (§V-F2).
///
/// Fits `w* = argmin_w ρ‖w‖² + Σ (wᵀxₖ − yₖ)²` (Eq. 5) on ±1 labels.
/// Features and labels are centred internally, which provides the intercept.
///
/// # Example
///
/// ```
/// use smarteryou_linalg::Matrix;
/// use smarteryou_ml::{BinaryClassifier, KernelRidge, KrrSolver};
///
/// # fn main() -> Result<(), smarteryou_ml::MlError> {
/// let x = Matrix::from_rows(&[&[0.0, 1.0], &[0.2, 0.8], &[1.0, 0.0], &[0.9, 0.1]]).unwrap();
/// let y = [1.0, 1.0, -1.0, -1.0];
/// let primal = KernelRidge::new(0.5).with_solver(KrrSolver::Primal).fit(&x, &y)?;
/// let dual = KernelRidge::new(0.5).with_solver(KrrSolver::Dual).fit(&x, &y)?;
/// // Appendix equivalence: both forms give the same classifier.
/// let q = [0.3, 0.7];
/// assert!((primal.decision(&q) - dual.decision(&q)).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelRidge {
    pub(crate) rho: f64,
    pub(crate) kernel: Kernel,
    pub(crate) solver: KrrSolver,
}

impl KernelRidge {
    /// Creates a trainer with ridge parameter `rho > 0`, linear (identity)
    /// kernel and automatic solver choice.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not strictly positive and finite.
    pub fn new(rho: f64) -> Self {
        assert!(
            rho.is_finite() && rho > 0.0,
            "rho must be positive, got {rho}"
        );
        KernelRidge {
            rho,
            kernel: Kernel::Linear,
            solver: KrrSolver::Auto,
        }
    }

    /// Selects the kernel (non-linear kernels force the dual solver).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Forces a particular solver.
    pub fn with_solver(mut self, solver: KrrSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Ridge parameter ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Trains on rows of `x` with ±1 labels.
    ///
    /// # Errors
    ///
    /// * [`MlError::InvalidTrainingData`] for malformed inputs;
    /// * [`MlError::InvalidParameter`] if [`KrrSolver::Primal`] is requested
    ///   with a non-linear kernel;
    /// * [`MlError::Linalg`] if the ridge system cannot be solved.
    pub fn fit(&self, x: &Matrix, y: &[f64]) -> Result<KrrModel, MlError> {
        self.fit_impl(x, y, None)
    }

    /// [`KernelRidge::fit`] with a reusable [`KrrFitCache`].
    ///
    /// The expensive part of a KRR fit is factoring the regularised system
    /// (`S + ρI_M` or `K + ρI_N`), which depends only on the design matrix,
    /// the kernel and ρ — *not* on the labels. When the cache already holds
    /// a factorisation for an identical `(x, kernel, ρ, solver)` tuple the
    /// factorisation is reused and only the two triangular solves run,
    /// turning a label-only refit from `O(dim³)` into `O(dim²)`. Results
    /// are bit-identical to an uncached [`KernelRidge::fit`].
    ///
    /// # Errors
    ///
    /// Same as [`KernelRidge::fit`].
    pub fn fit_with_cache(
        &self,
        cache: &mut KrrFitCache,
        x: &Matrix,
        y: &[f64],
    ) -> Result<KrrModel, MlError> {
        self.fit_impl(x, y, Some(cache))
    }

    /// Returns the configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Resolves the effective solver for this configuration on `n`×`m` data.
    pub(crate) fn resolve_solver(&self, n: usize, m: usize) -> Result<KrrSolver, MlError> {
        Ok(match (self.solver, self.kernel) {
            (KrrSolver::Primal, Kernel::Linear) => KrrSolver::Primal,
            (KrrSolver::Primal, _) => {
                return Err(MlError::InvalidParameter(
                    "primal KRR solver requires the linear (identity) kernel".into(),
                ))
            }
            (KrrSolver::Dual, _) => KrrSolver::Dual,
            (KrrSolver::Auto, Kernel::Linear) if m < n => KrrSolver::Primal,
            (KrrSolver::Auto, _) => KrrSolver::Dual,
        })
    }

    fn fit_impl(
        &self,
        x: &Matrix,
        y: &[f64],
        cache: Option<&mut KrrFitCache>,
    ) -> Result<KrrModel, MlError> {
        validate_binary(x, y)?;
        let n = x.rows();
        let m = x.cols();
        let solver = self.resolve_solver(n, m)?;
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|&l| l - y_mean).collect();

        // The label-independent prefix (centring + gram + Cholesky) either
        // comes from the cache or is computed and optionally stored there.
        let factored: std::borrow::Cow<'_, KrrFactorization> = match cache {
            Some(cache) => {
                let hit = cache.key.as_ref().is_some_and(|key| {
                    key.rho_bits == self.rho.to_bits()
                        && key.kernel == self.kernel
                        && key.solver == solver
                        && key.x == *x
                });
                if hit {
                    cache.keyed_hits += 1;
                } else {
                    cache.factored = Some(KrrFactorization::compute(self, solver, x)?);
                    cache.key = Some(KrrFitKey::new(self, solver, x));
                    cache.misses += 1;
                }
                std::borrow::Cow::Borrowed(cache.factored.as_ref().expect("filled above"))
            }
            None => std::borrow::Cow::Owned(KrrFactorization::compute(self, solver, x)?),
        };

        let kind = match solver {
            KrrSolver::Primal | KrrSolver::Auto => {
                // Eq. 7: w* = [S + ρ I_M]⁻¹ X y with S = Σ xₖxₖᵀ (M×M).
                let mut w = factored.xc.transpose().matvec(&yc)?;
                factored.chol.solve_into(&mut w)?;
                KrrKind::Linear { w }
            }
            KrrSolver::Dual => {
                // Eq. 6: α = [K + ρ I_N]⁻¹ y; for the linear kernel collapse
                // to explicit weights w = Xᵀα so prediction cost matches.
                let mut alphas = yc.clone();
                factored.chol.solve_into(&mut alphas)?;
                match self.kernel {
                    Kernel::Linear => {
                        let w = factored.xc.transpose().matvec(&alphas)?;
                        KrrKind::Linear { w }
                    }
                    kernel => KrrKind::Kernelized {
                        kernel,
                        train: factored.xc.clone(),
                        alphas,
                    },
                }
            }
        };

        Ok(KrrModel {
            kind,
            x_mean: factored.x_mean.clone(),
            y_mean,
            rho: self.rho,
        })
    }
}

/// The label-independent part of a KRR fit: centred features plus the
/// Cholesky factor of the regularised system.
#[derive(Debug, Clone)]
pub(crate) struct KrrFactorization {
    x_mean: Vec<f64>,
    xc: Matrix,
    chol: Cholesky,
}

impl KrrFactorization {
    fn compute(trainer: &KernelRidge, solver: KrrSolver, x: &Matrix) -> Result<Self, MlError> {
        let n = x.rows();
        let m = x.cols();
        // Centre features; the label mean (applied later) is the intercept.
        let x_mean: Vec<f64> = (0..m)
            .map(|c| x.col(c).iter().sum::<f64>() / n as f64)
            .collect();
        let mut xc = x.clone();
        for r in 0..n {
            let row = xc.row_mut(r);
            for (v, mu) in row.iter_mut().zip(&x_mean) {
                *v -= mu;
            }
        }
        let chol = match solver {
            KrrSolver::Primal | KrrSolver::Auto => {
                let mut s = xc.gram_columns();
                s.add_diagonal(trainer.rho);
                s.cholesky()?
            }
            KrrSolver::Dual => {
                let mut k = trainer.kernel.gram(&xc);
                k.add_diagonal(trainer.rho);
                k.cholesky()?
            }
        };
        Ok(KrrFactorization { x_mean, xc, chol })
    }
}

/// Cache key: the exact training configuration plus the full design
/// matrix. The matrix is compared element for element on lookup — the
/// O(n·m) check costs the same pass a fingerprint hash would, but makes
/// cache validity exact rather than probabilistic, which an
/// authentication model cache must be.
#[derive(Debug, Clone, PartialEq)]
struct KrrFitKey {
    rho_bits: u64,
    kernel: Kernel,
    solver: KrrSolver,
    x: Matrix,
}

impl KrrFitKey {
    fn new(trainer: &KernelRidge, solver: KrrSolver, x: &Matrix) -> Self {
        KrrFitKey {
            rho_bits: trainer.rho.to_bits(),
            kernel: trainer.kernel,
            solver,
            x: x.clone(),
        }
    }
}

/// Reusable state for [`KernelRidge::fit_with_cache`]: remembers the last
/// design matrix's centring and Cholesky factorisation so label-only refits
/// skip the cubic factorisation step.
///
/// Accounting distinguishes *how* the cubic factorisation was avoided:
/// [`KrrFitCache::keyed_hits`] counts exact key matches in
/// [`KernelRidge::fit_with_cache`], [`KrrFitCache::shared_hits`] counts
/// fits served off a shared enrollment/retrain workspace block, and
/// [`KrrFitCache::misses`] counts fits that paid a full factorisation —
/// whether from a key mismatch or from a shared-workspace fallback. The
/// split exists so a "zero misses under the production config" guard
/// cannot be masked by fallback fits that used to be folded into one
/// merged hit counter.
#[derive(Debug, Clone, Default)]
pub struct KrrFitCache {
    key: Option<KrrFitKey>,
    factored: Option<KrrFactorization>,
    shared_hits: u64,
    keyed_hits: u64,
    misses: u64,
}

impl KrrFitCache {
    /// An empty cache.
    pub fn new() -> Self {
        KrrFitCache::default()
    }

    /// Number of fits that avoided a full factorisation, from either
    /// source: `shared_hits() + keyed_hits()`.
    pub fn hits(&self) -> u64 {
        self.shared_hits + self.keyed_hits
    }

    /// Number of fits served off a shared workspace's precomputed block.
    pub fn shared_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Number of fits that reused the keyed factorisation via an exact
    /// `(x, kernel, ρ, solver)` match.
    pub fn keyed_hits(&self) -> u64 {
        self.keyed_hits
    }

    /// Number of fits that paid a full factorisation (keyed-cache miss or
    /// shared-workspace fallback).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops the cached factorisation (e.g. to bound memory).
    pub fn clear(&mut self) {
        self.key = None;
        self.factored = None;
    }

    /// Records a fit served off a shared enrollment workspace: the
    /// label-independent prefix (negative Gram block / factor) was reused
    /// rather than recomputed, which is the same economy a key match in
    /// [`KernelRidge::fit_with_cache`] buys.
    pub fn note_shared_hit(&mut self) {
        self.shared_hits += 1;
    }

    /// Records a shared-workspace fit that could not reuse the shared
    /// prefix (unsupported kernel/solver combination) and fell back to a
    /// full factorisation — a true miss: the full cubic cost was paid.
    pub fn note_shared_miss(&mut self) {
        self.misses += 1;
    }
}

impl BinaryTrainer for KernelRidge {
    type Model = KrrModel;

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<KrrModel, MlError> {
        KernelRidge::fit(self, x, y)
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum KrrKind {
    Linear {
        w: Vec<f64>,
    },
    Kernelized {
        kernel: Kernel,
        train: Matrix,
        alphas: Vec<f64>,
    },
}

/// A trained KRR classifier.
///
/// For the linear kernel the model is an explicit weight vector `w*`; the
/// paper's confidence score `CS(k) = xₖᵀ w*` (§V-I) is [`KrrModel::decision`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KrrModel {
    pub(crate) kind: KrrKind,
    pub(crate) x_mean: Vec<f64>,
    pub(crate) y_mean: f64,
    pub(crate) rho: f64,
}

/// Hand-written (rather than derived) so deserialization is shape-checked:
/// a weight vector, training matrix or dual coefficient list whose width
/// disagrees with `x_mean` is a typed error instead of a model whose
/// scoring would later panic in a width assert.
impl serde::Deserialize for KrrModel {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "KrrModel";
        decode_fields!(d, TY, kind, x_mean, y_mean, rho);
        let model = KrrModel {
            kind: required(kind, TY, "kind")?,
            x_mean: required(x_mean, TY, "x_mean")?,
            y_mean: required(y_mean, TY, "y_mean")?,
            rho: required(rho, TY, "rho")?,
        };
        let width = model.x_mean.len();
        let consistent = match &model.kind {
            KrrKind::Linear { w } => w.len() == width,
            KrrKind::Kernelized { train, alphas, .. } => {
                train.cols() == width && alphas.len() == train.rows()
            }
        };
        if !consistent {
            return Err(serde::DeError::custom(format!(
                "{TY}: parameters disagree with the {width}-feature centring mean"
            )));
        }
        Ok(model)
    }
}

impl KrrModel {
    /// Explicit weight vector for linear-kernel models, `None` for
    /// kernelized ones.
    pub fn weights(&self) -> Option<&[f64]> {
        match &self.kind {
            KrrKind::Linear { w } => Some(w),
            KrrKind::Kernelized { .. } => None,
        }
    }

    /// Ridge parameter the model was trained with.
    pub fn rho(&self) -> f64 {
        self.rho
    }
}

impl BinaryClassifier for KrrModel {
    /// # Panics
    ///
    /// Panics if `x` differs in width from the training features.
    fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.x_mean.len(),
            "decision: feature width mismatch"
        );
        match &self.kind {
            // Centre and dot in one pass: the products are summed left to
            // right, exactly as `vector::dot` sums a centred copy, so the
            // score keeps its bits without the copy.
            KrrKind::Linear { w } => {
                let dot: f64 = w
                    .iter()
                    .zip(x)
                    .zip(&self.x_mean)
                    .map(|((w, &v), &mu)| w * (v - mu))
                    .sum();
                dot + self.y_mean
            }
            KrrKind::Kernelized {
                kernel,
                train,
                alphas,
            } => {
                let xc: Vec<f64> = x.iter().zip(&self.x_mean).map(|(&v, &mu)| v - mu).collect();
                let k = kernel.against(train, &xc);
                vector::dot(&k, alphas) + self.y_mean
            }
        }
    }

    fn num_features(&self) -> usize {
        self.x_mean.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Matrix, Vec<f64>) {
        let x = Matrix::from_rows(&[
            &[0.0, 1.0],
            &[0.2, 0.9],
            &[-0.1, 1.1],
            &[1.0, 0.0],
            &[0.9, -0.1],
            &[1.1, 0.2],
        ])
        .unwrap();
        let y = vec![1.0, 1.0, 1.0, -1.0, -1.0, -1.0];
        (x, y)
    }

    #[test]
    fn separates_toy_clusters() {
        let (x, y) = toy();
        let model = KernelRidge::new(0.1).fit(&x, &y).unwrap();
        assert!(model.decision(&[0.0, 1.0]) > 0.0);
        assert!(model.decision(&[1.0, 0.0]) < 0.0);
        assert!(model.predict(&[0.1, 0.95]));
        assert!(!model.predict(&[1.05, 0.0]));
    }

    #[test]
    fn primal_and_dual_weights_agree() {
        let (x, y) = toy();
        let p = KernelRidge::new(0.7)
            .with_solver(KrrSolver::Primal)
            .fit(&x, &y)
            .unwrap();
        let d = KernelRidge::new(0.7)
            .with_solver(KrrSolver::Dual)
            .fit(&x, &y)
            .unwrap();
        let wp = p.weights().unwrap();
        let wd = d.weights().unwrap();
        for (a, b) in wp.iter().zip(wd) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn primal_rejects_nonlinear_kernel() {
        let (x, y) = toy();
        let err = KernelRidge::new(0.5)
            .with_kernel(Kernel::Rbf { gamma: 1.0 })
            .with_solver(KrrSolver::Primal)
            .fit(&x, &y)
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidParameter(_)));
    }

    #[test]
    fn rbf_kernel_solves_xor() {
        // XOR is not linearly separable; RBF-KRR handles it.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let model = KernelRidge::new(0.01)
            .with_kernel(Kernel::Rbf { gamma: 3.0 })
            .fit(&x, &y)
            .unwrap();
        assert!(model.decision(&[0.05, 0.05]) > 0.0);
        assert!(model.decision(&[0.95, 0.95]) > 0.0);
        assert!(model.decision(&[0.05, 0.95]) < 0.0);
        assert!(model.decision(&[0.95, 0.05]) < 0.0);
        assert!(model.weights().is_none());
    }

    #[test]
    fn larger_rho_shrinks_weights() {
        let (x, y) = toy();
        let small = KernelRidge::new(0.01).fit(&x, &y).unwrap();
        let large = KernelRidge::new(100.0).fit(&x, &y).unwrap();
        let norm_small = vector::norm(small.weights().unwrap());
        let norm_large = vector::norm(large.weights().unwrap());
        assert!(norm_large < norm_small);
    }

    #[test]
    fn rejects_single_class() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        assert!(KernelRidge::new(1.0).fit(&x, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn imbalanced_labels_keep_intercept_sane() {
        // 1 positive vs 5 negatives: centring keeps the positive sample on
        // the positive side of its own decision.
        let x = Matrix::from_rows(&[
            &[5.0, 5.0],
            &[0.0, 0.1],
            &[0.1, 0.0],
            &[-0.1, 0.1],
            &[0.0, -0.1],
            &[0.1, 0.1],
        ])
        .unwrap();
        let y = vec![1.0, -1.0, -1.0, -1.0, -1.0, -1.0];
        let model = KernelRidge::new(0.1).fit(&x, &y).unwrap();
        assert!(model.decision(&[5.0, 5.0]) > 0.0);
        assert!(model.decision(&[0.0, 0.0]) < 0.0);
    }

    /// The linear score centres and dots in one pass, and must keep the
    /// bits of `vector::dot` over a centred copy. The design has five
    /// features and a nonzero mean: with two, a sum taken in another order
    /// can still round to the same bits.
    #[test]
    fn linear_decision_is_bit_identical_to_dot_over_centred_copy() {
        let feature = |i: usize| {
            let t = i as f64;
            let s = if i.is_multiple_of(2) { 1.0 } else { -1.0 };
            vec![
                3.0 + 0.7 * s + 0.01 * t,
                -1.5 + 0.3 * t,
                10.0 + 2.1 * s,
                0.25 * t * t,
                5.0 - 0.9 * s * t,
            ]
        };
        let x = Matrix::from_rows(&(0..12).map(feature).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for solver in [KrrSolver::Primal, KrrSolver::Dual] {
            let model = KernelRidge::new(0.3)
                .with_solver(solver)
                .fit(&x, &y)
                .unwrap();
            assert!(model.x_mean.iter().all(|&mu| mu != 0.0));
            let w = model.weights().unwrap();
            for q in (0..9).map(|i| feature(3 * i + 1)) {
                let centred: Vec<f64> = q.iter().zip(&model.x_mean).map(|(v, mu)| v - mu).collect();
                let reference = vector::dot(w, &centred) + model.y_mean;
                assert_eq!(
                    model.decision(&q).to_bits(),
                    reference.to_bits(),
                    "{solver:?}: {} vs {reference}",
                    model.decision(&q)
                );
            }
        }
    }

    #[test]
    fn fit_cache_reuses_factorization_bit_exactly() {
        let (x, y) = toy();
        let trainer = KernelRidge::new(0.5);
        let mut cache = KrrFitCache::new();

        let cold = trainer.fit_with_cache(&mut cache, &x, &y).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        // Label-only refit: hits the cache and matches an uncached fit.
        let flipped: Vec<f64> = y.iter().map(|v| -v).collect();
        let warm = trainer.fit_with_cache(&mut cache, &x, &flipped).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let reference = trainer.fit(&x, &flipped).unwrap();
        assert_eq!(warm, reference);

        // Same labels again: cached fit equals the original cold fit.
        let again = trainer.fit_with_cache(&mut cache, &x, &y).unwrap();
        assert_eq!(again, cold);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));

        // Any data change invalidates the entry.
        let mut x2 = x.clone();
        x2[(0, 0)] += 1e-9;
        let fresh = trainer.fit_with_cache(&mut cache, &x2, &y).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(fresh, trainer.fit(&x2, &y).unwrap());

        // A different rho also misses.
        let _ = KernelRidge::new(0.7)
            .fit_with_cache(&mut cache, &x2, &y)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        cache.clear();
        let _ = trainer.fit_with_cache(&mut cache, &x2, &y).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
    }

    #[test]
    fn fit_cache_splits_shared_and_keyed_hits() {
        let (x, y) = toy();
        let trainer = KernelRidge::new(0.5);
        let mut cache = KrrFitCache::new();
        let _ = trainer.fit_with_cache(&mut cache, &x, &y).unwrap();
        let _ = trainer.fit_with_cache(&mut cache, &x, &y).unwrap();
        cache.note_shared_hit();
        cache.note_shared_miss();
        // One keyed hit (second fit), one shared hit, and two true misses
        // (the cold fit plus the shared fallback) — the merged `hits()`
        // view stays the sum of both hit kinds.
        assert_eq!(
            (cache.shared_hits(), cache.keyed_hits(), cache.misses()),
            (1, 1, 2)
        );
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn model_serde_roundtrip() {
        let (x, y) = toy();
        let model = KernelRidge::new(0.5).fit(&x, &y).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: KrrModel = serde_json::from_str(&json).unwrap();
        let q = [0.4, 0.6];
        assert!((model.decision(&q) - back.decision(&q)).abs() < 1e-15);
    }
}
