use serde::{Deserialize, Serialize};

use smarteryou_linalg::{vector, Matrix};

/// Kernel functions for kernel ridge regression and the SVM.
///
/// The paper uses the *identity kernel* (`~φ(x) = x`, i.e. a linear kernel)
/// so the primal complexity reduction of §V-H1 applies; RBF is provided for
/// ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Kernel {
    /// Identity feature map: `k(a, b) = aᵀb`. The paper's choice.
    #[default]
    Linear,
    /// Gaussian RBF: `k(a, b) = exp(−γ‖a − b‖²)`.
    Rbf {
        /// Bandwidth parameter γ > 0.
        gamma: f64,
    },
    /// Polynomial: `k(a, b) = (aᵀb + c)^d`.
    Polynomial {
        /// Degree `d ≥ 1`.
        degree: u32,
        /// Offset `c`.
        coef: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel on a pair of vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => vector::dot(a, b),
            Kernel::Rbf { gamma } => (-gamma * vector::squared_distance(a, b)).exp(),
            Kernel::Polynomial { degree, coef } => (vector::dot(a, b) + coef).powi(degree as i32),
        }
    }

    /// Gram matrix `K[i][j] = k(xᵢ, xⱼ)` over the rows of `x`.
    pub fn gram(&self, x: &Matrix) -> Matrix {
        match self {
            // Specialised symmetric path for the linear kernel.
            Kernel::Linear => x.gram(),
            _ => {
                let n = x.rows();
                let mut k = Matrix::zeros(n, n);
                for i in 0..n {
                    let ri = x.row(i);
                    for j in i..n {
                        let v = self.eval(ri, x.row(j));
                        k[(i, j)] = v;
                        k[(j, i)] = v;
                    }
                }
                k
            }
        }
    }

    /// Kernel vector `[k(x₁, q), …, k(xₙ, q)]` against the rows of `x`.
    pub fn against(&self, x: &Matrix, q: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.rows());
        self.against_into(x, q, &mut out);
        out
    }

    /// [`Kernel::against`] into a caller-owned buffer (cleared first), so
    /// batch scoring can reuse one allocation across many queries. Same
    /// per-entry arithmetic, so results are bit-identical.
    pub fn against_into(&self, x: &Matrix, q: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..x.rows()).map(|i| self.eval(x.row(i), q)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_kernel_is_dot_product() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_kernel_properties() {
        let k = Kernel::Rbf { gamma: 0.5 };
        // k(x, x) = 1 and decays with distance.
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn polynomial_kernel_known_value() {
        let k = Kernel::Polynomial {
            degree: 2,
            coef: 1.0,
        };
        // (1*1 + 1)² = 4
        assert_eq!(k.eval(&[1.0], &[1.0]), 4.0);
    }

    #[test]
    fn gram_is_symmetric_for_all_kernels() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, -1.0], &[2.0, 2.0]]).unwrap();
        for k in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.3 },
            Kernel::Polynomial {
                degree: 3,
                coef: 0.5,
            },
        ] {
            let g = k.gram(&x);
            assert!(g.is_symmetric(1e-12), "{k:?}");
        }
    }

    #[test]
    fn against_matches_eval() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let q = [2.0, 3.0];
        let v = Kernel::Linear.against(&x, &q);
        assert_eq!(v, vec![2.0, 3.0]);
    }
}
