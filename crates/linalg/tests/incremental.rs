//! Property tests for the incremental Cholesky primitives: rank-1
//! update/downdate must agree with a full refactorisation to tight epsilon
//! over random SPD matrices, and a downdate that would lose positive
//! definiteness must surface a typed error (never a NaN-poisoned factor).

use proptest::prelude::*;
use proptest::TestCaseError;
use smarteryou_linalg::{LinalgError, Matrix};

/// Strategy: a well-conditioned SPD matrix built as `A Aᵀ + n·I` from a
/// random square matrix with bounded entries.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0..2.0f64, n * n).prop_map(move |data| {
        let a = Matrix::from_vec(n, n, data).expect("sized data");
        let mut g = a.gram();
        g.add_diagonal(n as f64);
        g
    })
}

fn vec_n(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2.0..2.0f64, n)
}

/// `A + v vᵀ` (or minus), densely.
fn rank1_shift(a: &Matrix, v: &[f64], sign: f64) -> Matrix {
    let n = a.rows();
    let mut out = a.clone();
    for i in 0..n {
        for j in 0..n {
            out[(i, j)] += sign * v[i] * v[j];
        }
    }
    out
}

fn assert_factor_close(
    incremental: &Matrix,
    refactored: &Matrix,
    eps: f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(incremental.shape(), refactored.shape());
    for i in 0..incremental.rows() {
        for j in 0..=i {
            let (l, r) = (incremental[(i, j)], refactored[(i, j)]);
            let scale = 1.0f64.max(r.abs());
            prop_assert!(
                (l - r).abs() <= eps * scale,
                "L[{i}][{j}] diverged: incremental {l} vs refactored {r}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank1_update_matches_refactorisation(a in spd_matrix(6), v in vec_n(6)) {
        let mut ch = a.cholesky().unwrap();
        ch.update(&v).unwrap();
        let full = rank1_shift(&a, &v, 1.0).cholesky().unwrap();
        assert_factor_close(ch.l(), full.l(), 1e-9)?;
    }

    #[test]
    fn rank1_downdate_matches_refactorisation(a in spd_matrix(6), v in vec_n(6)) {
        // Downdate the updated matrix: `(A + vvᵀ) − vvᵀ` is certainly SPD,
        // so the downdate must succeed and land back on chol(A).
        let up = rank1_shift(&a, &v, 1.0);
        let mut ch = up.cholesky().unwrap();
        ch.downdate(&v).unwrap();
        let full = a.cholesky().unwrap();
        assert_factor_close(ch.l(), full.l(), 1e-8)?;
    }

    #[test]
    fn singular_downdate_is_typed_error_not_nan(a in spd_matrix(5)) {
        // v = the factor's own first column zeroes the first pivot
        // bit-exactly (`L Lᵀ − l₀ l₀ᵀ` is rank-deficient), so the downdate
        // must refuse with the typed error and leave the factor untouched.
        let mut ch = a.cholesky().unwrap();
        let before = ch.l().clone();
        let v: Vec<f64> = (0..a.rows()).map(|i| before[(i, 0)]).collect();
        prop_assert_eq!(ch.downdate(&v), Err(LinalgError::DowndateNotPositiveDefinite));
        for i in 0..a.rows() {
            for j in 0..=i {
                prop_assert!(ch.l()[(i, j)].to_bits() == before[(i, j)].to_bits(),
                    "factor mutated by failed downdate at [{i}][{j}]");
                prop_assert!(ch.l()[(i, j)].is_finite());
            }
        }
    }

    #[test]
    fn solve_into_is_bit_identical_to_solve(a in spd_matrix(6), b in vec_n(6)) {
        let ch = a.cholesky().unwrap();
        let x = ch.solve(&b).unwrap();
        let mut y = b.clone();
        ch.solve_into(&mut y).unwrap();
        for (l, r) in x.iter().zip(&y) {
            prop_assert!(l.to_bits() == r.to_bits());
        }
    }

    #[test]
    fn updated_factor_solves_the_updated_system(a in spd_matrix(6), v in vec_n(6), b in vec_n(6)) {
        let mut ch = a.cholesky().unwrap();
        ch.update(&v).unwrap();
        let x = ch.solve(&b).unwrap();
        let ax = rank1_shift(&a, &v, 1.0).matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-6, "residual {l} vs {r}");
        }
    }
}

#[test]
fn downdate_dimension_checked() {
    let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
    let mut ch = a.cholesky().unwrap();
    assert!(matches!(
        ch.downdate(&[1.0]),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        ch.update(&[1.0, 2.0, 3.0]),
        Err(LinalgError::DimensionMismatch { .. })
    ));
}
