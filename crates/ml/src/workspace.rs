//! Shared negative-Gram workspace for KRR enrollment and retrains.
//!
//! Every user fitted against the same frozen negative sample solves a
//! ridge system whose negative block is identical; only the (much
//! smaller) positive block differs per user. [`KrrSharedWorkspace`]
//! precomputes the negative block once and
//! [`KernelRidge::fit_scaled_shared_tail`] reuses it per fit. That one
//! closed form serves enrollment (a cold fit: no previous tail) and every
//! confidence-triggered retrain:
//!
//! * **Primal / linear kernel** (the production path): the raw negative
//!   column Gram `NᵀN` and the negative column sums are shared. Each fit
//!   adds its positive contributions and solves the raw system
//!   `A = PᵀP + NᵀN − n·μμᵀ + ρ·D²`, `w = D·A⁻¹·((Σpos − Σneg) − n·ȳ·μ)`,
//!   where `D` holds the clamped per-column stds of the stacked rows —
//!   O(n_pos·M² + M³) per fit instead of O((n_pos+n_neg)·M² + M³), with no
//!   second pass over the negatives. It reproduces the sequential
//!   `Scaler::fit` → transform → [`KernelRidge::fit`] pipeline on the
//!   stacked `[positives; negatives]` rows without materialising them.
//! * Anything else (the dual solver, which `Auto` picks when features ≥
//!   rows, or a non-linear kernel) runs that sequential pipeline on the
//!   stacked rows: per-fit z-scoring rescales every column, so no kernel
//!   block survives from one user to the next. [`KrrFitCache`] counters
//!   make the distinction observable.
//!
//! Shared fits agree with the sequential pipeline to tight epsilon (the
//! summation order differs, so not bit-for-bit) — pinned by this module's
//! tests and by the core crate's `enroll_parity` suite.
//!
//! **Retrain tail-slide.** Confidence-triggered retrains repeat the fit
//! with a positive tail that usually differs from the previous fit by only
//! a few buffer windows. [`KernelRidge::fit_scaled_shared_tail`] therefore
//! keeps a [`KrrTailState`] per model — the previous tail, its moments and
//! the Cholesky factor of `A` — and slides that factor with rank-1
//! [`Cholesky::update`]/[`Cholesky::downdate`] ops when the new tail is a
//! bitwise slide of the old one, instead of refactoring from scratch. The
//! raw form is what makes sliding possible: per-fit z-scoring rescales
//! every entry of the scaled system, but in the raw system a changed row
//! is a rank-1 term and the re-scaling is confined to the ridge diagonal
//! `ρD²` (one sparse rank-1 op per column).

use serde::{Deserialize, Serialize};

use smarteryou_linalg::{Cholesky, Matrix};

use crate::krr::{KrrFitCache, KrrKind, KrrModel};
use crate::{Kernel, KernelRidge, KrrSolver, MlError, Scaler};

/// The per-pool precomputed negative block of a KRR fit: built once per
/// `NegativeEpoch`, reused by every enrollment and retrain against it.
#[derive(Debug, Clone)]
pub struct KrrSharedWorkspace {
    /// Trainer configuration the blocks were computed under; fits must
    /// use an identical configuration.
    trainer: KernelRidge,
    /// The raw (uncentred) negative rows, labelled −1.
    neg: Matrix,
    /// Per-column sums of the negative rows (shared centring term).
    neg_col_sum: Vec<f64>,
    /// Raw negative column Gram `NᵀN` — linear kernel only.
    neg_gram_cols: Option<Matrix>,
}

impl KrrSharedWorkspace {
    /// Number of negative rows in the shared block.
    pub fn num_negatives(&self) -> usize {
        self.neg.rows()
    }
}

/// Incremental-retrain state for one model fit against a
/// [`KrrSharedWorkspace`]: everything
/// [`KernelRidge::fit_scaled_shared_tail`] needs to turn the next retrain
/// into a handful of rank-1 factor ops instead of a fresh factorisation.
///
/// The state is pinned to the negative block it was built against (guarded
/// by `neg_rows` and the caller clearing it on epoch resample) and rides in
/// pipeline snapshots: a rank-1-slid factor is *not* bit-identical to a
/// freshly computed one, so evict/restore parity requires persisting the
/// factor itself, not recomputing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KrrTailState {
    /// The exact positive rows (the tail) of the previous fit.
    positives: Matrix,
    /// Per-column sums of those rows.
    pos_col_sum: Vec<f64>,
    /// Diagonal of the positive column Gram `PᵀP`.
    pos_gram_diag: Vec<f64>,
    /// Clamped per-column stds the previous fit scaled by (the `D` whose
    /// `ρD²` sits on the factor's diagonal).
    stds: Vec<f64>,
    /// Cholesky factor of the previous fit's raw system `A = Gc + ρD²`.
    factor: Cholesky,
    /// Negative-row count of the workspace the factor was built against.
    neg_rows: usize,
    /// Ridge parameter baked into the factor's diagonal.
    rho: f64,
}

impl KrrTailState {
    /// Whether this state can seed a slide against a workspace with `m`
    /// features, `neg_rows` negatives and ridge `rho`. Length checks guard
    /// against panics on states restored from forged snapshots.
    fn compatible(&self, m: usize, neg_rows: usize, rho: f64) -> bool {
        self.positives.cols() == m
            && self.positives.rows() > 0
            && self.neg_rows == neg_rows
            && self.rho.to_bits() == rho.to_bits()
            && self.factor.dim() == m
            && self.pos_col_sum.len() == m
            && self.pos_gram_diag.len() == m
            && self.stds.len() == m
    }
}

/// Detects the sliding-window overlap between the previous fit's tail and
/// the new one. The tail is a chronological window over the positive
/// buffer, so it can only lose rows at the front and gain rows at the
/// back: returns `(removed, added)` — the previous tail's first `removed`
/// rows fell off and the new tail's last `added` rows are fresh — or
/// `None` when no such alignment exists (rows compared bitwise).
fn slide_alignment(prev: &Matrix, next: &Matrix) -> Option<(usize, usize)> {
    let n_prev = prev.rows();
    let n_next = next.rows();
    let start = n_prev.saturating_sub(n_next);
    's: for removed in start..n_prev {
        // `removed == n_prev` (kept = 0) would be a full replacement, not
        // a slide — the loop bound excludes it so callers re-base instead.
        let kept = n_prev - removed;
        for i in 0..kept {
            let (a, b) = (prev.row(removed + i), next.row(i));
            if !a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
                continue 's;
            }
        }
        return Some((removed, n_next - kept));
    }
    None
}

/// The tail-slide decision rule: slide only when the number of rank-1 row
/// ops (`removed + added`) is at most half the previous tail, with a floor
/// of 4 for small tails — beyond that the op sequence costs more than the
/// fresh factorisation it replaces.
fn slide_budget(prev_rows: usize) -> usize {
    (prev_rows / 2).max(4)
}

/// Same zero-variance clamp as `Scaler::fit`: the subtraction form of the
/// variance can dip microscopically negative for near-constant columns,
/// hence the `max(0.0)`.
fn clamped_stds(pos_gram_diag: &[f64], neg_gram: &Matrix, means: &[f64], n: f64) -> Vec<f64> {
    pos_gram_diag
        .iter()
        .enumerate()
        .map(|(j, &pd)| {
            let col_sq = pd + neg_gram[(j, j)];
            let var = ((col_sq - n * means[j] * means[j]) / n).max(0.0);
            let s = var.sqrt();
            if s > 1e-12 {
                s
            } else {
                1.0
            }
        })
        .collect()
}

/// Solves the raw system `A` against a ready factor and assembles the
/// scaled model: `z = A⁻¹·((Σpos − Σneg) − n·ȳ·μ)`, `w = D·z`. Shared by
/// the full refit and the slide path so both produce identical model
/// shapes (zero centring vector; the caller pairs it with the scaler of
/// the same closed-form moments).
#[allow(clippy::too_many_arguments)] // private solver shared by refit + slide
fn solve_a_form(
    chol: &Cholesky,
    rho: f64,
    pos_col_sum: &[f64],
    neg_col_sum: &[f64],
    means: &[f64],
    stds: &[f64],
    n: f64,
    y_mean: f64,
) -> Result<KrrModel, MlError> {
    let m = means.len();
    let mut z: Vec<f64> = (0..m)
        .map(|j| (pos_col_sum[j] - neg_col_sum[j]) - n * y_mean * means[j])
        .collect();
    chol.solve_into(&mut z)?;
    let w: Vec<f64> = z.iter().zip(stds).map(|(&zj, &dj)| dj * zj).collect();
    Ok(KrrModel {
        kind: KrrKind::Linear { w },
        x_mean: vec![0.0; m],
        y_mean,
        rho,
    })
}

impl KernelRidge {
    /// Precomputes the shared negative block for fits against a fixed
    /// negative sample: the negative column sums, plus the raw column Gram
    /// `NᵀN` when the kernel is linear. Other kernels keep only the rows,
    /// which [`KernelRidge::fit_scaled_shared_tail`] stacks for its
    /// sequential fallback.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidTrainingData`] for an empty negative matrix.
    pub fn shared_workspace(&self, negatives: Matrix) -> Result<KrrSharedWorkspace, MlError> {
        if negatives.rows() == 0 || negatives.cols() == 0 {
            return Err(MlError::InvalidTrainingData(
                "shared workspace needs a non-empty negative block".into(),
            ));
        }
        let m = negatives.cols();
        let mut neg_col_sum = vec![0.0; m];
        for row in negatives.iter_rows() {
            for (s, &v) in neg_col_sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        let neg_gram_cols = (self.kernel == Kernel::Linear).then(|| negatives.gram_columns());
        Ok(KrrSharedWorkspace {
            trainer: *self,
            neg: negatives,
            neg_col_sum,
            neg_gram_cols,
        })
    }

    /// Fits one user's scaled model against the workspace's shared
    /// negative block: the design matrix is the user's `positives`
    /// (labelled +1) stacked over the workspace negatives (labelled −1)
    /// and z-scored as `Scaler::fit` would z-score the stack. Returns the
    /// fitted scaler together with a model that expects **scaled** inputs
    /// (apply the scaler before scoring).
    ///
    /// `tail` is the previous fit's [`KrrTailState`]. Enrollment passes
    /// `&mut None` (a cold fit) and drops the result; a retrain keeps it,
    /// so a positive tail that *slid* by only a few rows costs a handful
    /// of rank-1 factor ops. Behaviour by path:
    /// * **Slide** — the new tail bitwise-overlaps the previous one and
    ///   `removed + added ≤ max(4, previous rows / 2)`: the cached factor
    ///   is cloned, slid with [`Cholesky::update`]/[`Cholesky::downdate`],
    ///   and `tail` is re-committed. Counts a shared hit.
    /// * **Full refit** — no usable tail, no alignment, over budget, or
    ///   the slide failed (e.g. `DowndateNotPositiveDefinite` on a
    ///   near-singular slide, which leaves the cached factor untouched
    ///   because the ops ran on a clone): one fresh m×m factorisation of
    ///   the raw system off the shared negative block, re-basing `tail`.
    ///   Still a shared hit.
    /// * **Fallback** — non-(primal, linear) configuration: the sequential
    ///   pipeline on the stacked rows, `tail` cleared, counts a true miss.
    ///
    /// z-scored columns have exactly zero mean, so the closed form pins
    /// the model's centring vector to zero instead of the ~1e-16 residue
    /// the sequential pipeline measures: full refits agree with
    /// `Scaler::fit` → [`KernelRidge::fit`] on the stacked rows to tight
    /// epsilon, not bit for bit, and a slide agrees with its own full
    /// refit to rank-1-accumulation accuracy — pinned by this module's
    /// tests.
    ///
    /// # Errors
    ///
    /// [`MlError::InvalidParameter`] if this trainer's configuration
    /// differs from the one the workspace was built with;
    /// [`MlError::InvalidTrainingData`] for empty/mismatched positives;
    /// [`MlError::Linalg`] if the ridge system cannot be solved.
    pub fn fit_scaled_shared_tail(
        &self,
        cache: &mut KrrFitCache,
        ws: &KrrSharedWorkspace,
        positives: &Matrix,
        tail: &mut Option<KrrTailState>,
    ) -> Result<(Scaler, KrrModel), MlError> {
        if *self != ws.trainer {
            return Err(MlError::InvalidParameter(
                "shared workspace was built under a different trainer configuration".into(),
            ));
        }
        let m = ws.neg.cols();
        if positives.rows() == 0 {
            return Err(MlError::InvalidTrainingData(
                "shared fit needs at least one positive row".into(),
            ));
        }
        if positives.cols() != m {
            return Err(MlError::InvalidTrainingData(format!(
                "positive rows have {} features, negative block has {m}",
                positives.cols()
            )));
        }
        let n = positives.rows() + ws.neg.rows();
        let solver = self.resolve_solver(n, m)?;
        let primal_gram = match solver {
            KrrSolver::Primal | KrrSolver::Auto => ws.neg_gram_cols.as_ref(),
            KrrSolver::Dual => None,
        };
        match primal_gram {
            Some(gram) => {
                cache.note_shared_hit();
                self.fit_scaled_primal_tail(ws, gram, positives, tail)
            }
            None => {
                // No shared closed form for this combination: sequential
                // stacked pipeline, and the tail (raw-system factor) has
                // no successor to slide from.
                *tail = None;
                cache.note_shared_miss();
                let (stacked, y) = stack(positives, &ws.neg)?;
                let scaler = Scaler::fit(&stacked);
                let model = self.fit(&scaler.transform(&stacked), &y)?;
                Ok((scaler, model))
            }
        }
    }

    /// Scaled primal path over the raw system (see the [module
    /// docs](self)): tries the incremental slide off `tail`, falls back to
    /// a full refit that re-bases `tail`.
    fn fit_scaled_primal_tail(
        &self,
        ws: &KrrSharedWorkspace,
        neg_gram: &Matrix,
        positives: &Matrix,
        tail: &mut Option<KrrTailState>,
    ) -> Result<(Scaler, KrrModel), MlError> {
        let m = positives.cols();
        let n_p = positives.rows();
        let n_n = ws.neg.rows();
        let n = (n_p + n_n) as f64;
        let y_mean = (n_p as f64 - n_n as f64) / n;
        let mut pos_col_sum = vec![0.0; m];
        for row in positives.iter_rows() {
            for (s, &v) in pos_col_sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        let means: Vec<f64> = pos_col_sum
            .iter()
            .zip(&ws.neg_col_sum)
            .map(|(&p, &ng)| (p + ng) / n)
            .collect();

        if let Some(prev) = tail.as_ref() {
            if prev.compatible(m, n_n, self.rho) {
                if let Some((removed, added)) = slide_alignment(&prev.positives, positives) {
                    if removed + added <= slide_budget(prev.positives.rows()) {
                        if let Ok((scaler, model, next)) = self.slide_tail(
                            ws,
                            neg_gram,
                            prev,
                            positives,
                            removed,
                            &pos_col_sum,
                            &means,
                            y_mean,
                        ) {
                            *tail = Some(next);
                            return Ok((scaler, model));
                        }
                        // The slide ran on a clone, so a failure (typically
                        // DowndateNotPositiveDefinite) left `prev.factor`
                        // byte-identical; fall through to the full refit.
                    }
                }
            }
        }

        let pos_gram = positives.gram_columns();
        let pos_gram_diag: Vec<f64> = (0..m).map(|j| pos_gram[(j, j)]).collect();
        let stds = clamped_stds(&pos_gram_diag, neg_gram, &means, n);
        let mut a = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                a[(i, j)] = pos_gram[(i, j)] + neg_gram[(i, j)] - n * means[i] * means[j];
            }
            a[(i, i)] += self.rho * stds[i] * stds[i];
        }
        let chol = a.cholesky()?;
        let model = solve_a_form(
            &chol,
            self.rho,
            &pos_col_sum,
            &ws.neg_col_sum,
            &means,
            &stds,
            n,
            y_mean,
        )?;
        *tail = Some(KrrTailState {
            positives: positives.clone(),
            pos_col_sum,
            pos_gram_diag,
            stds: stds.clone(),
            factor: chol,
            neg_rows: n_n,
            rho: self.rho,
        });
        Ok((Scaler::from_moments(means, stds), model))
    }

    /// Slides the previous fit's factor to the new tail: rank-1 updates
    /// for added rows, the old mean term added back, rank-1 downdates for
    /// removed rows and the new mean term, then one sparse `eⱼ` op per
    /// column for the ridge-diagonal delta `ρ·(dⱼ'² − dⱼ²)` (the zero
    /// prefix makes each one O((m−j)²)). The op order is fixed —
    /// additions before removals, so mass arrives before it leaves — which
    /// keeps repeat runs bit-reproducible. All ops run on a **clone** of
    /// the cached factor; `prev` is never mutated, so any error leaves the
    /// caller's state byte-identical.
    #[allow(clippy::too_many_arguments)] // moments precomputed by the one caller
    fn slide_tail(
        &self,
        ws: &KrrSharedWorkspace,
        neg_gram: &Matrix,
        prev: &KrrTailState,
        positives: &Matrix,
        removed: usize,
        pos_col_sum: &[f64],
        means: &[f64],
        y_mean: f64,
    ) -> Result<(Scaler, KrrModel, KrrTailState), MlError> {
        let m = positives.cols();
        let n_p = positives.rows();
        let n_prev = prev.positives.rows();
        let kept = n_prev - removed;
        let n_old = (n_prev + prev.neg_rows) as f64;
        let n = (n_p + prev.neg_rows) as f64;

        // Slide the positive Gram diagonal, then the new clamped stds.
        let mut pos_gram_diag = prev.pos_gram_diag.clone();
        for r in kept..n_p {
            for (d, &v) in pos_gram_diag.iter_mut().zip(positives.row(r)) {
                *d += v * v;
            }
        }
        for r in 0..removed {
            for (d, &v) in pos_gram_diag.iter_mut().zip(prev.positives.row(r)) {
                *d -= v * v;
            }
        }
        let stds = clamped_stds(&pos_gram_diag, neg_gram, means, n);

        let mut chol = prev.factor.clone();
        // 1. Added rows (updates cannot lose positive definiteness).
        for r in kept..n_p {
            chol.update(positives.row(r))?;
        }
        // 2. Add back the old mean term +n_old·μ_old·μ_oldᵀ …
        let sqrt_n_old = n_old.sqrt();
        let v_old: Vec<f64> = prev
            .pos_col_sum
            .iter()
            .zip(&ws.neg_col_sum)
            .map(|(&p, &ng)| sqrt_n_old * ((p + ng) / n_old))
            .collect();
        chol.update(&v_old)?;
        // 3. Removed rows (downdates can fail near singularity).
        for r in 0..removed {
            chol.downdate(prev.positives.row(r))?;
        }
        // 4. … and subtract the new mean term −n·μμᵀ.
        let sqrt_n = n.sqrt();
        let v_new: Vec<f64> = means.iter().map(|&mu| sqrt_n * mu).collect();
        chol.downdate(&v_new)?;
        // 5. Per-column ridge-diagonal deltas.
        let mut e = vec![0.0; m];
        for j in 0..m {
            let delta = self.rho * (stds[j] * stds[j] - prev.stds[j] * prev.stds[j]);
            if delta > 0.0 {
                e[j] = delta.sqrt();
                chol.update(&e)?;
            } else if delta < 0.0 {
                e[j] = (-delta).sqrt();
                chol.downdate(&e)?;
            }
            e[j] = 0.0;
        }

        let model = solve_a_form(
            &chol,
            self.rho,
            pos_col_sum,
            &ws.neg_col_sum,
            means,
            &stds,
            n,
            y_mean,
        )?;
        let scaler = Scaler::from_moments(means.to_vec(), stds.clone());
        let next = KrrTailState {
            positives: positives.clone(),
            pos_col_sum: pos_col_sum.to_vec(),
            pos_gram_diag,
            stds,
            factor: chol,
            neg_rows: prev.neg_rows,
            rho: self.rho,
        };
        Ok((scaler, model, next))
    }
}

/// Stacks `[positives; negatives]` with ±1 labels — the design matrix the
/// sequential fit sees, used by the fallback path and by parity tests.
fn stack(positives: &Matrix, negatives: &Matrix) -> Result<(Matrix, Vec<f64>), MlError> {
    let rows: Vec<&[f64]> = positives.iter_rows().chain(negatives.iter_rows()).collect();
    let stacked = Matrix::from_rows(&rows)?;
    let mut y = vec![1.0; positives.rows()];
    y.extend(std::iter::repeat_n(-1.0, negatives.rows()));
    Ok((stacked, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryClassifier;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, offset: f64) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| rng.random_range(-1.0..1.0) + offset)
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn probes(rng: &mut StdRng, cols: usize) -> Matrix {
        random_matrix(rng, 8, cols, 0.25)
    }

    #[test]
    fn scaled_shared_handles_constant_columns() {
        // A zero-variance column exercises the std clamp in the closed
        // form; it must match `Scaler::fit`'s clamp, not divide by ~0.
        let neg_rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![1.0, (i as f64) * 0.1 - 0.5, (i as f64).sin()])
            .collect();
        let pos_rows: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![1.0, (i as f64) * 0.2 + 0.4, (i as f64).cos()])
            .collect();
        let neg = Matrix::from_rows(&neg_rows).unwrap();
        let pos = Matrix::from_rows(&pos_rows).unwrap();
        let trainer = KernelRidge::new(0.8);
        let ws = trainer.shared_workspace(neg.clone()).unwrap();
        let (scaler, model) = trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &pos, &mut None)
            .unwrap();
        let (stacked, y) = stack(&pos, &neg).unwrap();
        let seq_scaler = Scaler::fit(&stacked);
        let seq_model = trainer.fit(&seq_scaler.transform(&stacked), &y).unwrap();
        let q = [1.0, 0.3, -0.2];
        let a = model.decision(&scaler.transform_vec(&q));
        let b = seq_model.decision(&seq_scaler.transform_vec(&q));
        assert!(a.is_finite());
        assert!((a - b).abs() < 1e-9, "clamped column diverged: {a} vs {b}");
    }

    /// Chronological slide of a positive tail: drop `removed` rows from
    /// the front, append `added` fresh rows at the back.
    fn slide_rows(rng: &mut StdRng, prev: &Matrix, removed: usize, added: usize) -> Matrix {
        let mut rows: Vec<Vec<f64>> = prev.iter_rows().skip(removed).map(|r| r.to_vec()).collect();
        for _ in 0..added {
            rows.push(
                (0..prev.cols())
                    .map(|_| rng.random_range(-1.0..1.0) + 0.7)
                    .collect(),
            );
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn tail_fit_matches_sequential_scaler_pipeline() {
        let mut rng = StdRng::seed_from_u64(41);
        let neg = random_matrix(&mut rng, 24, 5, 0.0);
        let trainer = KernelRidge::new(0.8);
        let ws = trainer.shared_workspace(neg.clone()).unwrap();
        let mut cache = KrrFitCache::new();
        for _ in 0..4 {
            let pos = random_matrix(&mut rng, 12, 5, 0.7);
            let mut tail = None;
            let (scaler, model) = trainer
                .fit_scaled_shared_tail(&mut cache, &ws, &pos, &mut tail)
                .unwrap();
            assert!(tail.is_some(), "full refit must re-base the tail");
            // Sequential pipeline: fit the scaler on the stacked rows,
            // transform, then fit KRR on the scaled matrix.
            let (stacked, y) = stack(&pos, &neg).unwrap();
            let seq_scaler = Scaler::fit(&stacked);
            let seq_model = trainer.fit(&seq_scaler.transform(&stacked), &y).unwrap();
            let q = probes(&mut rng, 5);
            for row in q.iter_rows() {
                let a = model.decision(&scaler.transform_vec(row));
                let b = seq_model.decision(&seq_scaler.transform_vec(row));
                assert!((a - b).abs() < 1e-9, "closed form {a} vs sequential {b}");
            }
        }
        assert_eq!(
            (cache.shared_hits(), cache.keyed_hits(), cache.misses()),
            (4, 0, 0)
        );
    }

    #[test]
    fn tail_slide_matches_full_refit() {
        let mut rng = StdRng::seed_from_u64(43);
        let neg = random_matrix(&mut rng, 24, 5, 0.0);
        let trainer = KernelRidge::new(0.8);
        let ws = trainer.shared_workspace(neg.clone()).unwrap();
        let mut pos = random_matrix(&mut rng, 12, 5, 0.7);
        let mut cache = KrrFitCache::new();
        let mut tail = None;
        trainer
            .fit_scaled_shared_tail(&mut cache, &ws, &pos, &mut tail)
            .unwrap();
        // A few consecutive slides, each within budget, each checked
        // against a from-scratch refit of the same tail.
        for step in 0..4 {
            pos = slide_rows(&mut rng, &pos, 2, 2);
            assert_eq!(
                slide_alignment(&tail.as_ref().unwrap().positives, &pos),
                Some((2, 2))
            );
            let (scaler, model) = trainer
                .fit_scaled_shared_tail(&mut cache, &ws, &pos, &mut tail)
                .unwrap();
            let mut fresh_tail = None;
            let (f_scaler, f_model) = trainer
                .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &pos, &mut fresh_tail)
                .unwrap();
            // The slid factor is not bit-identical to the fresh one, but
            // decisions must agree to rank-1-accumulation accuracy.
            let q = probes(&mut rng, 5);
            for row in q.iter_rows() {
                let a = model.decision(&scaler.transform_vec(row));
                let b = f_model.decision(&f_scaler.transform_vec(row));
                assert!((a - b).abs() < 1e-8, "step {step}: slide {a} vs refit {b}");
            }
        }
        // Every fit above was served off the shared block.
        assert_eq!((cache.hits(), cache.misses()), (5, 0));
        // An unalignable tail (all rows replaced) re-bases instead of sliding.
        let fresh = random_matrix(&mut rng, pos.rows(), 5, 0.7);
        assert_eq!(
            slide_alignment(&tail.as_ref().unwrap().positives, &fresh),
            None
        );
        trainer
            .fit_scaled_shared_tail(&mut cache, &ws, &fresh, &mut tail)
            .unwrap();
        assert_eq!(
            tail.as_ref().unwrap().positives,
            fresh,
            "re-based tail pins the new rows"
        );
    }

    #[test]
    fn tail_slide_handles_growing_buffer() {
        // Warm-up regime: the tail grows (adds only, nothing removed).
        let mut rng = StdRng::seed_from_u64(47);
        let neg = random_matrix(&mut rng, 20, 4, 0.0);
        let trainer = KernelRidge::new(1.0);
        let ws = trainer.shared_workspace(neg.clone()).unwrap();
        let mut pos = random_matrix(&mut rng, 10, 4, 0.6);
        let mut cache = KrrFitCache::new();
        let mut tail = None;
        trainer
            .fit_scaled_shared_tail(&mut cache, &ws, &pos, &mut tail)
            .unwrap();
        pos = slide_rows(&mut rng, &pos, 0, 3);
        assert_eq!(
            slide_alignment(&tail.as_ref().unwrap().positives, &pos),
            Some((0, 3))
        );
        let (scaler, model) = trainer
            .fit_scaled_shared_tail(&mut cache, &ws, &pos, &mut tail)
            .unwrap();
        let (f_scaler, f_model) = trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &pos, &mut None)
            .unwrap();
        let q = probes(&mut rng, 4);
        for row in q.iter_rows() {
            let a = model.decision(&scaler.transform_vec(row));
            let b = f_model.decision(&f_scaler.transform_vec(row));
            assert!((a - b).abs() < 1e-8, "grow-slide {a} vs refit {b}");
        }
    }

    #[test]
    fn over_budget_slide_takes_the_full_refit() {
        let mut rng = StdRng::seed_from_u64(53);
        let neg = random_matrix(&mut rng, 24, 5, 0.0);
        let trainer = KernelRidge::new(0.8);
        let ws = trainer.shared_workspace(neg).unwrap();
        let pos = random_matrix(&mut rng, 12, 5, 0.7);
        let mut tail = None;
        trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &pos, &mut tail)
            .unwrap();
        // 4 removed + 4 added = 8 ops > budget max(4, 12/2) = 6.
        let next = slide_rows(&mut rng, &pos, 4, 4);
        assert!(slide_alignment(&pos, &next).is_some());
        assert!(4 + 4 > slide_budget(pos.rows()));
        let (scaler, model) = trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &next, &mut tail)
            .unwrap();
        // Over budget means the result must be bit-identical to a
        // from-scratch refit (no rank-1 drift).
        let (f_scaler, f_model) = trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &next, &mut None)
            .unwrap();
        assert_eq!(scaler, f_scaler);
        assert_eq!(model, f_model);
    }

    #[test]
    fn near_singular_slide_falls_back_without_corruption() {
        // Satellite regression: a slide whose downdate goes non-PD must
        // (a) leave the cached factor byte-identical — the ops run on a
        // clone — and (b) make the entry point fall back to a full refit
        // whose result is bit-identical to a tail-less fit.
        let mut rng = StdRng::seed_from_u64(59);
        let neg = random_matrix(&mut rng, 24, 5, 0.0);
        let trainer = KernelRidge::new(0.8);
        let ws = trainer.shared_workspace(neg).unwrap();
        let pos = random_matrix(&mut rng, 12, 5, 0.7);
        let mut tail = None;
        trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &pos, &mut tail)
            .unwrap();
        // Tamper the recorded tail so the front row claims far more mass
        // than the factor actually contains: downdating it drives the
        // system negative definite, the numerical shape of a
        // near-singular slide.
        let prev = tail.as_mut().unwrap();
        for j in 0..5 {
            prev.positives[(0, j)] *= 1e4;
        }
        let next = slide_rows(&mut rng, &prev.positives, 1, 1);
        assert_eq!(slide_alignment(&prev.positives, &next), Some((1, 1)));
        let factor_before = prev.factor.clone();
        // The slide itself must fail without touching the cached factor.
        let m = next.cols();
        let n = (next.rows() + ws.neg.rows()) as f64;
        let mut pos_col_sum = vec![0.0; m];
        for row in next.iter_rows() {
            for (s, &v) in pos_col_sum.iter_mut().zip(row) {
                *s += v;
            }
        }
        let means: Vec<f64> = pos_col_sum
            .iter()
            .zip(&ws.neg_col_sum)
            .map(|(&p, &ng)| (p + ng) / n)
            .collect();
        let y_mean = (next.rows() as f64 - ws.neg.rows() as f64) / n;
        let gram = ws.neg_gram_cols.as_ref().unwrap();
        let slide = trainer.slide_tail(&ws, gram, prev, &next, 1, &pos_col_sum, &means, y_mean);
        assert!(slide.is_err(), "tampered downdate must fail");
        for i in 0..5 {
            for j in 0..=i {
                assert_eq!(
                    prev.factor.l()[(i, j)].to_bits(),
                    factor_before.l()[(i, j)].to_bits(),
                    "cached factor must be byte-identical after a failed slide"
                );
            }
        }
        // The public entry point absorbs the failure: full refit,
        // bit-identical to a tail-less fit, tail re-based.
        let mut cache = KrrFitCache::new();
        let (scaler, model) = trainer
            .fit_scaled_shared_tail(&mut cache, &ws, &next, &mut tail)
            .unwrap();
        let (f_scaler, f_model) = trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &next, &mut None)
            .unwrap();
        assert_eq!(scaler, f_scaler);
        assert_eq!(model, f_model);
        assert_eq!(tail.as_ref().unwrap().positives, next);
        // A recovered fallback still came off the shared block: no miss.
        assert_eq!((cache.shared_hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn tail_fallback_clears_state_and_counts_miss() {
        let mut rng = StdRng::seed_from_u64(61);
        let neg = random_matrix(&mut rng, 16, 4, 0.0);
        let trainer = KernelRidge::new(0.5).with_kernel(Kernel::Rbf { gamma: 0.7 });
        let ws = trainer.shared_workspace(neg.clone()).unwrap();
        let pos = random_matrix(&mut rng, 6, 4, 0.9);
        let mut cache = KrrFitCache::new();
        let mut tail = None;
        let (scaler, model) = trainer
            .fit_scaled_shared_tail(&mut cache, &ws, &pos, &mut tail)
            .unwrap();
        assert!(tail.is_none(), "non-primal fallback cannot seed a tail");
        assert_eq!(
            (cache.shared_hits(), cache.keyed_hits(), cache.misses()),
            (0, 0, 1)
        );
        let (stacked, y) = stack(&pos, &neg).unwrap();
        let seq_scaler = Scaler::fit(&stacked);
        let seq_model = trainer.fit(&seq_scaler.transform(&stacked), &y).unwrap();
        assert_eq!(scaler, seq_scaler);
        assert_eq!(model, seq_model, "fallback is exactly the sequential fit");
    }

    #[test]
    fn tail_state_serde_roundtrips_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(67);
        let neg = random_matrix(&mut rng, 20, 4, 0.0);
        let trainer = KernelRidge::new(1.0);
        let ws = trainer.shared_workspace(neg).unwrap();
        let pos = random_matrix(&mut rng, 10, 4, 0.6);
        let mut tail = None;
        trainer
            .fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, &pos, &mut tail)
            .unwrap();
        let state = tail.unwrap();
        let json = serde_json::to_string(&state).unwrap();
        let back: KrrTailState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        // PartialEq on f64 would accept -0.0 == 0.0; the slide contract
        // needs the factor bit-exact across evict/restore.
        for i in 0..state.factor.dim() {
            for j in 0..=i {
                assert_eq!(
                    back.factor.l()[(i, j)].to_bits(),
                    state.factor.l()[(i, j)].to_bits()
                );
            }
        }
    }

    #[test]
    fn trainer_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(19);
        let neg = random_matrix(&mut rng, 8, 3, 0.0);
        let ws = KernelRidge::new(0.5).shared_workspace(neg).unwrap();
        let pos = random_matrix(&mut rng, 4, 3, 0.5);
        assert!(matches!(
            KernelRidge::new(0.7).fit_scaled_shared_tail(
                &mut KrrFitCache::new(),
                &ws,
                &pos,
                &mut None
            ),
            Err(MlError::InvalidParameter(_))
        ));
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(23);
        let trainer = KernelRidge::new(0.5);
        assert!(trainer.shared_workspace(Matrix::zeros(0, 3)).is_err());
        let ws = trainer
            .shared_workspace(random_matrix(&mut rng, 6, 3, 0.0))
            .unwrap();
        let fit = |pos: &Matrix| {
            trainer.fit_scaled_shared_tail(&mut KrrFitCache::new(), &ws, pos, &mut None)
        };
        assert!(fit(&Matrix::zeros(0, 3)).is_err());
        assert!(fit(&random_matrix(&mut rng, 2, 4, 0.0)).is_err());
    }
}
