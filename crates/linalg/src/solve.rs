use serde::Serialize;

use crate::{LinalgError, Matrix};

/// LU factorisation with partial pivoting: `P * A = L * U`.
///
/// Produced by [`Matrix::lu`]; reusable across multiple right-hand sides,
/// which is how [`Matrix::inverse`] amortises the factorisation cost.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper, including diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original index of factored row `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidShape`] for non-square input,
    /// [`LinalgError::Singular`] if no usable pivot exists.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::InvalidShape(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        // Scale of the matrix for the relative singularity threshold.
        let scale = lu.max_abs().max(1.0);
        let tiny = f64::EPSILON * scale * (n as f64);

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= tiny {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    let sub = factor * lu[(k, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    #[allow(clippy::needless_range_loop)] // substitution kernels read clearest with indices
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` for every column of `B` with one stored
    /// factorisation. Each column gets exactly the arithmetic of
    /// [`Lu::solve`], so results are bit-identical to column-wise calls.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_many(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve_many",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for c in 0..b.cols() {
            for r in 0..n {
                col[r] = b[(r, c)];
            }
            let x = self.solve(&col)?;
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        Ok(out)
    }
}

/// Cholesky factorisation `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// Roughly twice as fast as LU for the ridge systems (`K + ρI`) the ML crate
/// solves, and fails loudly when regularisation is missing (a useful
/// diagnostic: an unregularised gram matrix of collinear features is not PD).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

/// Hand-written (rather than derived) so deserialization is shape-checked:
/// a snapshot carrying a non-square factor — truncated, corrupted, or
/// forged — is rejected with a typed error instead of producing a factor
/// whose triangular solves would later panic.
impl serde::Deserialize for Cholesky {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        serde::__private::decode_fields!(d, "Cholesky", l);
        let l: Matrix = serde::__private::required(l, "Cholesky", "l")?;
        if l.rows() != l.cols() {
            return Err(serde::DeError::custom(format!(
                "Cholesky factor must be square, got {}x{}",
                l.rows(),
                l.cols()
            )));
        }
        Ok(Cholesky { l })
    }
}

impl Cholesky {
    /// Factors a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidShape`] for non-square input,
    /// [`LinalgError::NotPositiveDefinite`] if a non-positive pivot appears
    /// (the matrix is not SPD to working precision).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::InvalidShape(format!(
                "Cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward/backward substitution.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `b` holds the right-hand side,
    /// on exit the solution. The allocation-free variant of
    /// [`Cholesky::solve`] — same arithmetic, so results are bit-identical;
    /// hot refit paths reuse one buffer across many solves.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`; `b`
    /// is untouched on error.
    #[allow(clippy::needless_range_loop)] // substitution kernels read clearest with indices
    pub fn solve_into(&self, b: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward: L y = b.
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * b[j];
            }
            b[i] = sum / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * b[j];
            }
            b[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Rank-1 **update**: rewrites the factor so it factors `A + v vᵀ`,
    /// in O(n²) instead of the O(n³) refactorisation. Uses the classic
    /// sequence of Givens-style plane rotations (one per pivot); an update
    /// can never lose positive definiteness, so it is infallible apart
    /// from the length check.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `v.len() != self.dim()`.
    pub fn update(&mut self, v: &[f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky update",
                lhs: (n, n),
                rhs: (v.len(), 1),
            });
        }
        let mut w = v.to_vec();
        for k in 0..n {
            if w[k] == 0.0 {
                // c=1, s=0 — an exact no-op for this pivot; skipping keeps
                // rows untouched by the update bit-identical (the sparse
                // ridge-diagonal ops of a tail slide rely on this).
                continue;
            }
            let lkk = self.l[(k, k)];
            let r = (lkk * lkk + w[k] * w[k]).sqrt();
            let c = r / lkk;
            let s = w[k] / lkk;
            self.l[(k, k)] = r;
            for (i, wi) in w.iter_mut().enumerate().skip(k + 1) {
                self.l[(i, k)] = (self.l[(i, k)] + s * *wi) / c;
                *wi = c * *wi - s * self.l[(i, k)];
            }
        }
        Ok(())
    }

    /// Rank-1 **downdate**: rewrites the factor so it factors `A − v vᵀ`,
    /// in O(n²). Unlike [`Cholesky::update`] this can fail — subtracting
    /// `v vᵀ` may drive a pivot to (or below, or within rounding of) zero.
    /// The feasibility of every pivot is checked on a scratch copy first,
    /// so on error the stored factor is **unchanged** and holds no NaNs.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `v.len() != self.dim()`;
    /// [`LinalgError::DowndateNotPositiveDefinite`] when the downdated
    /// matrix is not SPD to working precision (pivot² would fall below
    /// `ε · pivot²` of the current factor).
    pub fn downdate(&mut self, v: &[f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky downdate",
                lhs: (n, n),
                rhs: (v.len(), 1),
            });
        }
        let mut l = self.l.clone();
        let mut w = v.to_vec();
        for k in 0..n {
            if w[k] == 0.0 {
                continue;
            }
            let lkk = l[(k, k)];
            let d = lkk * lkk - w[k] * w[k];
            // Relative guard: a pivot collapsing to within rounding error
            // of zero means the downdated matrix is (numerically) rank
            // deficient — surface a typed error instead of sqrt of a
            // negative (NaN) or a catastrophically cancelled pivot.
            if d <= f64::EPSILON * lkk * lkk {
                return Err(LinalgError::DowndateNotPositiveDefinite);
            }
            let r = d.sqrt();
            let c = r / lkk;
            let s = w[k] / lkk;
            l[(k, k)] = r;
            for i in (k + 1)..n {
                l[(i, k)] = (l[(i, k)] - s * w[i]) / c;
                w[i] = c * w[i] - s * l[(i, k)];
            }
        }
        self.l = l;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap()
    }

    #[test]
    fn lu_solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn lu_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::InvalidShape(_))));
    }

    #[test]
    fn lu_handles_permutation() {
        // Leading zero forces a pivot swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_solve_matches_lu_solve() {
        let a = spd3();
        let b = [1.0, -2.0, 0.5];
        let x1 = a.cholesky().unwrap().solve(&b).unwrap();
        let x2 = a.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn solve_many_matches_columnwise_solve() {
        let a = spd3();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 1.5], &[0.5, -0.25]]).unwrap();
        let lu = a.lu().unwrap();
        let xs_lu = lu.solve_many(&b).unwrap();
        for c in 0..2 {
            let col = b.col(c);
            let x_lu = lu.solve(&col).unwrap();
            for r in 0..3 {
                assert_eq!(xs_lu[(r, c)].to_bits(), x_lu[r].to_bits());
            }
        }
    }

    #[test]
    fn solve_many_checks_shape() {
        let a = spd3();
        let b = Matrix::zeros(2, 2);
        assert!(matches!(
            a.lu().unwrap().solve_many(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cholesky_serde_roundtrips_bit_exactly_and_rejects_non_square() {
        let ch = spd3().cholesky().unwrap();
        let json = serde_json::to_string(&ch).unwrap();
        let back: Cholesky = serde_json::from_str(&json).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(back.l()[(i, j)].to_bits(), ch.l()[(i, j)].to_bits());
            }
        }
        let forged = r#"{"l":{"rows":2,"cols":1,"data":[1.0,1.0]}}"#;
        assert!(serde_json::from_str::<Cholesky>(forged).is_err());
    }

    #[test]
    fn solve_checks_rhs_length() {
        let a = spd3();
        assert!(matches!(
            a.cholesky().unwrap().solve(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.lu().unwrap().solve(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
