use std::fmt;
use std::ops::{Index, IndexMut};

use serde::Serialize;

use crate::solve::{Cholesky, Lu};
use crate::LinalgError;

/// A dense, row-major matrix of `f64`.
///
/// This is deliberately small: the SmarterYou pipeline never needs more than
/// a few hundred rows/columns (the kernel ridge regression dual form tops out
/// at the training-set size, N ≈ 800).
///
/// # Example
///
/// ```
/// use smarteryou_linalg::Matrix;
///
/// # fn main() -> Result<(), smarteryou_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.matmul(&a.transpose())?;
/// assert_eq!(b[(0, 0)], 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Hand-written (rather than derived) so deserialization is shape-checked:
/// a snapshot whose `data` length disagrees with `rows × cols` — truncated,
/// corrupted, or forged — is rejected with a typed error instead of
/// producing a matrix whose indexing would later panic.
impl serde::Deserialize for Matrix {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        decode_fields!(d, "Matrix", rows, cols, data);
        Matrix::from_vec(
            required(rows, "Matrix", "rows")?,
            required(cols, "Matrix", "cols")?,
            required(data, "Matrix", "data")?,
        )
        .map_err(|e| serde::DeError::custom(format!("Matrix: {e}")))
    }
}

impl Matrix {
    /// Creates a `rows`×`cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        // checked_mul: untrusted dimensions (e.g. a forged snapshot) must
        // not wrap in release builds and slip past the length check.
        let expected = rows.checked_mul(cols).ok_or_else(|| {
            LinalgError::InvalidShape(format!("{rows}x{cols} matrix size overflows"))
        })?;
        if data.len() != expected {
            return Err(LinalgError::InvalidShape(format!(
                "expected {expected} elements for a {rows}x{cols} matrix, got {}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `rows` is empty or ragged.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidShape("no rows".to_string()));
        }
        let cols = rows[0].as_ref().len();
        if cols == 0 {
            return Err(LinalgError::InvalidShape("empty rows".to_string()));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            let r = r.as_ref();
            if r.len() != cols {
                return Err(LinalgError::InvalidShape(format!(
                    "row {i} has {} columns, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a column vector (n×1 matrix) from a slice.
    pub fn column(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * k).collect(),
        }
    }

    /// Adds `k` to each diagonal entry, in place. Used for ridge terms
    /// (`K + ρI`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&mut self, k: f64) {
        assert_eq!(
            self.rows, self.cols,
            "add_diagonal requires a square matrix"
        );
        for i in 0..self.rows {
            self[(i, i)] += k;
        }
    }

    /// Gram matrix `self * selfᵀ` (rows as vectors), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = self
                    .row(i)
                    .iter()
                    .zip(self.row(j))
                    .map(|(a, b)| a * b)
                    .sum();
                out[(i, j)] = dot;
                out[(j, i)] = dot;
            }
        }
        out
    }

    /// Gram matrix of the columns: `selfᵀ * self`, exploiting symmetry.
    pub fn gram_columns(&self) -> Matrix {
        let m = self.cols;
        let mut out = Matrix::zeros(m, m);
        for row in self.iter_rows() {
            for i in 0..m {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..m {
                    out[(i, j)] += a * row[j];
                }
            }
        }
        for i in 0..m {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Maximum absolute entry (∞-norm over elements); 0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Returns `true` if the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a zero pivot is encountered, or
    /// [`LinalgError::InvalidShape`] if the matrix is not square.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::factor(self)
    }

    /// Cholesky factorisation (`self = L Lᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if the matrix is not
    /// symmetric positive definite, or [`LinalgError::InvalidShape`] if it is
    /// not square.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::factor(self)
    }

    /// Solves `self * x = b` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Propagates factorisation errors and dimension mismatches.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.lu()?.solve(b)
    }

    /// Computes the inverse via LU.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular matrices.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.lu()?.solve_many(&Matrix::identity(self.rows))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::InvalidShape(_))
        ));
    }

    #[test]
    fn deserialize_is_shape_checked() {
        let m = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 4.0]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        // Same dims, short data: typed error, not a panic later.
        let bad = json.replace("[1.5,-2.0,0.25,4.0]", "[1.5,-2.0,0.25]");
        assert_ne!(bad, json, "corruption must have applied");
        assert!(serde_json::from_str::<Matrix>(&bad).is_err());
        // Inconsistent dims with plausible data length.
        let bad = json.replace("\"rows\":2", "\"rows\":3");
        assert!(serde_json::from_str::<Matrix>(&bad).is_err());
        // Forged dims whose product wraps usize: typed error, not a
        // zero-storage matrix that panics on first index.
        let huge = (1usize << 32).to_string();
        let bad = json
            .replace("\"rows\":2", &format!("\"rows\":{huge}"))
            .replace("\"cols\":2", &format!("\"cols\":{huge}"));
        assert!(serde_json::from_str::<Matrix>(&bad).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidShape(_)));
        let err = Matrix::from_rows::<Vec<f64>>(&[]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidShape(_)));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]).unwrap();
        let v = [3.0, 4.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, -2.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 0.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, 4.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn gram_is_x_xt() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]).unwrap();
        let g = x.gram();
        let expect = x.matmul(&x.transpose()).unwrap();
        assert_eq!(g, expect);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn gram_columns_is_xt_x() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]).unwrap();
        let g = x.gram_columns();
        let expect = x.transpose().matmul(&x).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - expect[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn add_diagonal_ridge() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diagonal(0.5);
        assert_eq!(a[(1, 1)], 0.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn inverse_of_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.solve(&[1.0, 1.0]), Err(LinalgError::Singular)));
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }
}
