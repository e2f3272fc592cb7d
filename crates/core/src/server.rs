use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use smarteryou_linalg::Matrix;
use smarteryou_ml::{KernelRidge, KrrFitCache, KrrSharedWorkspace, KrrTailState, Scaler};
use smarteryou_sensors::UsageContext;

use crate::auth::{AuthModel, Authenticator};
use crate::config::{ContextMode, SystemConfig};
use crate::CoreError;

/// The cloud training module (§IV-A3).
///
/// Holds an **anonymized** pool of authentication feature vectors
/// contributed by participating users. When a phone requests a model, the
/// server combines the requesting user's positive windows with a balanced
/// sample of other users' windows as negatives and fits the per-context KRR
/// classifiers that are then downloaded to the device.
///
/// Feature vectors are stored without user identities — the only structure
/// kept is the coarse context label, mirroring the paper's privacy note
/// ("a user's training module can use other users' feature data but has no
/// way to know the other users' identities").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingServer {
    /// Negative pools per [`UsageContext::index`].
    pools: [Vec<Vec<f64>>; 2],
    /// Bumped on every pool-changing contribution; a device's frozen
    /// [`NegativeEpoch`] records the version it sampled, so an unchanged
    /// pool lets retrains reuse the sample (and with it the KRR fit
    /// cache).
    pool_version: u64,
    /// Order-sensitive running fingerprint of the pool contents, checked
    /// *alongside* the version: a snapshot's [`NegativeEpoch`] outlives
    /// this process, and a rebuilt server could coincidentally reach the
    /// same bare counter with entirely different data — the fingerprint
    /// ties the staleness check to what the pool actually holds.
    pool_fingerprint: u64,
}

impl TrainingServer {
    /// An empty server.
    pub fn new() -> Self {
        TrainingServer::default()
    }

    /// Uploads anonymized feature vectors observed under `context`.
    /// An empty contribution changes nothing — devices' pinned negative
    /// epochs stay valid.
    pub fn contribute(
        &mut self,
        context: UsageContext,
        features: impl IntoIterator<Item = Vec<f64>>,
    ) {
        let pool = &mut self.pools[context.index()];
        let before = pool.len();
        for row in features {
            // Fold the row into the running fingerprint (FNV-1a over the
            // context tag and raw f64 bits, rotated so ordering matters).
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ context.index() as u64;
            for &v in &row {
                h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
            }
            self.pool_fingerprint = self.pool_fingerprint.rotate_left(1) ^ h;
            pool.push(row);
        }
        if self.pools[context.index()].len() > before {
            self.pool_version += 1;
        }
    }

    /// Version counter of the anonymized pool, bumped per pool-changing
    /// contribution.
    pub fn pool_version(&self) -> u64 {
        self.pool_version
    }

    /// The `(version, content fingerprint)` pair a [`NegativeEpoch`] is
    /// pinned against.
    fn pool_stamp(&self) -> (u64, u64) {
        (self.pool_version, self.pool_fingerprint)
    }

    /// Number of pooled vectors for a context.
    pub fn pool_size(&self, context: UsageContext) -> usize {
        self.pools[context.index()].len()
    }

    /// Trains one model for `context` (or a unified model when `None`)
    /// from the user's positive windows and the anonymized pool.
    ///
    /// Sampling is balanced: `data_size/2` positives and as many negatives,
    /// shuffled by `rng`. The feature scaler is fitted on the combined
    /// training matrix (and shipped with the model, so the phone applies
    /// the same normalisation at test time).
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientData`] when either side has no windows;
    /// training failures are propagated.
    pub fn train_model(
        &self,
        context: Option<UsageContext>,
        positives: &[Vec<f64>],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<AuthModel, CoreError> {
        self.train_model_impl(context, positives, cfg, rng, None)
    }

    /// [`TrainingServer::train_model`] with a reusable KRR fit cache: when a
    /// refit resolves to the exact same scaled training matrix and ridge
    /// parameter, the cached Cholesky factorisation is reused (bit-identical
    /// models either way). The fleet engine threads one cache per context
    /// through its retrain path.
    ///
    /// # Errors
    ///
    /// Same as [`TrainingServer::train_model`].
    pub fn train_model_cached(
        &self,
        context: Option<UsageContext>,
        positives: &[Vec<f64>],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        cache: &mut KrrFitCache,
    ) -> Result<AuthModel, CoreError> {
        self.train_model_impl(context, positives, cfg, rng, Some(cache))
    }

    fn train_model_impl(
        &self,
        context: Option<UsageContext>,
        positives: &[Vec<f64>],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        cache: Option<&mut KrrFitCache>,
    ) -> Result<AuthModel, CoreError> {
        let negatives: Vec<&Vec<f64>> = match context {
            Some(c) => self.pools[c.index()].iter().collect(),
            None => self.pools.iter().flatten().collect(),
        };
        if positives.is_empty() || negatives.is_empty() {
            return Err(CoreError::InsufficientData(format!(
                "positives={}, pool={}",
                positives.len(),
                negatives.len()
            )));
        }
        let per_class = cfg.data_size() / 2;

        let mut pos_idx: Vec<usize> = (0..positives.len()).collect();
        pos_idx.shuffle(rng);
        pos_idx.truncate(per_class.min(positives.len()));
        let mut neg_idx: Vec<usize> = (0..negatives.len()).collect();
        neg_idx.shuffle(rng);
        neg_idx.truncate(per_class.min(negatives.len()));

        let mut rows: Vec<&[f64]> = Vec::with_capacity(pos_idx.len() + neg_idx.len());
        let mut y = Vec::with_capacity(rows.capacity());
        for &i in &pos_idx {
            rows.push(&positives[i]);
            y.push(1.0);
        }
        for &i in &neg_idx {
            rows.push(negatives[i]);
            y.push(-1.0);
        }
        fit_model(rows, &y, cfg, cache)
    }

    /// Trains the full [`Authenticator`] for a user according to the
    /// configured [`ContextMode`]. `positives[c]` holds the user's windows
    /// for context index `c`.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainingServer::train_model`] failures.
    pub fn train_authenticator(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<Authenticator, CoreError> {
        let mut caches: [KrrFitCache; 2] = Default::default();
        self.train_authenticator_cached(positives, cfg, rng, &mut caches)
    }

    /// [`TrainingServer::train_authenticator`] with per-context KRR fit
    /// caches, so a device's periodic retrains can skip refactoring when
    /// the sampled training matrix has not changed.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainingServer::train_model`] failures.
    pub fn train_authenticator_cached(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError> {
        match cfg.context_mode() {
            ContextMode::Unified => {
                let all: Vec<Vec<f64>> = positives.iter().flatten().cloned().collect();
                let model = self.train_model_cached(None, &all, cfg, rng, &mut caches[0])?;
                Ok(Authenticator::unified(model, cfg.accept_threshold()))
            }
            ContextMode::PerContext => {
                let mut models = Vec::with_capacity(2);
                for ctx in UsageContext::ALL {
                    models.push(self.train_model_cached(
                        Some(ctx),
                        &positives[ctx.index()],
                        cfg,
                        rng,
                        &mut caches[ctx.index()],
                    )?);
                }
                Authenticator::per_context(models, cfg.accept_threshold())
            }
        }
    }

    /// Draws a device's frozen negative sample for the current pool
    /// version: `data_size/2` pooled vectors per model (per context, or one
    /// pooled draw in unified mode), shuffled by `rng` and then **pinned**.
    /// Retrains against a pinned sample keep the design-matrix rows stable,
    /// which is what lets [`KernelRidge::fit_with_cache`] reuse its
    /// Cholesky factorisation (see
    /// [`TrainingServer::train_authenticator_epoch`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientData`] when a required pool is empty.
    pub fn sample_negative_epoch(
        &self,
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<NegativeEpoch, CoreError> {
        let per_class = cfg.data_size() / 2;
        let sample = |pool: Vec<&Vec<f64>>, rng: &mut StdRng| -> Result<Vec<Vec<f64>>, CoreError> {
            if pool.is_empty() {
                return Err(CoreError::InsufficientData("empty negative pool".into()));
            }
            let mut idx: Vec<usize> = (0..pool.len()).collect();
            idx.shuffle(rng);
            idx.truncate(per_class.min(pool.len()));
            Ok(idx.into_iter().map(|i| pool[i].clone()).collect())
        };
        let rows = match cfg.context_mode() {
            ContextMode::PerContext => [
                sample(self.pools[0].iter().collect(), rng)?,
                sample(self.pools[1].iter().collect(), rng)?,
            ],
            ContextMode::Unified => [
                sample(self.pools.iter().flatten().collect(), rng)?,
                Vec::new(),
            ],
        };
        Ok(NegativeEpoch {
            pool_version: self.pool_version,
            pool_fingerprint: self.pool_fingerprint,
            rows: Arc::new(rows),
        })
    }

    /// Retrains the [`Authenticator`] with **epoch-stable sampling**: the
    /// negatives come from `epoch`'s frozen sample, (re)drawn only when the
    /// anonymized pool has changed since it was pinned, and the positives
    /// are the most recent `data_size/2` buffered windows in buffer order —
    /// no per-fit shuffling. A retrain whose inputs did not change between
    /// fits therefore presents the *identical* design matrix and reuses the
    /// cached Cholesky factorisation in `caches` (an `O(dim³)` →
    /// `O(dim²)` refit); inspect [`KrrFitCache::hits`] to observe it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientData`] when either side of a model's
    /// training set is empty; training failures are propagated.
    pub fn train_authenticator_epoch(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError> {
        if epoch
            .as_ref()
            .is_none_or(|e| (e.pool_version, e.pool_fingerprint) != self.pool_stamp())
        {
            *epoch = Some(self.sample_negative_epoch(cfg, rng)?);
        }
        let epoch = epoch.as_ref().expect("pinned above");
        match cfg.context_mode() {
            ContextMode::Unified => {
                let all: Vec<Vec<f64>> = positives.iter().flatten().cloned().collect();
                let model = self.train_model_frozen(&all, &epoch.rows[0], cfg, &mut caches[0])?;
                Ok(Authenticator::unified(model, cfg.accept_threshold()))
            }
            ContextMode::PerContext => {
                let mut models = Vec::with_capacity(2);
                for ctx in UsageContext::ALL {
                    models.push(self.train_model_frozen(
                        &positives[ctx.index()],
                        &epoch.rows[ctx.index()],
                        cfg,
                        &mut caches[ctx.index()],
                    )?);
                }
                Authenticator::per_context(models, cfg.accept_threshold())
            }
        }
    }

    /// [`TrainingServer::train_authenticator_epoch`] routed through the
    /// same shared negative-Gram blocks enrollment uses: the per-epoch
    /// [`EnrollmentWorkspace`] is looked up in (or built into) `ws_cache`,
    /// so each retrain resolves to one m×m closed-form solve instead of a
    /// fresh negative pass plus an O(n³) refit. `tails` carries the
    /// positive-tail factor identity from the previous fit per context
    /// slot; when only a few buffer windows changed since then the
    /// Cholesky factor is *slid* with rank-1 updates/downdates instead of
    /// refactored (see `KernelRidge::fit_scaled_shared_tail`). A pool
    /// change resamples the epoch and clears the tails — a slid factor is
    /// only meaningful against the negatives it was built over.
    ///
    /// # Errors
    ///
    /// Same as [`TrainingServer::train_authenticator_epoch`].
    #[allow(clippy::too_many_arguments)]
    pub fn train_authenticator_epoch_shared(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
        tails: &mut [Option<KrrTailState>; 2],
        ws_cache: &RetrainWorkspaceCache,
    ) -> Result<Authenticator, CoreError> {
        if epoch
            .as_ref()
            .is_none_or(|e| (e.pool_version, e.pool_fingerprint) != self.pool_stamp())
        {
            *epoch = Some(self.sample_negative_epoch(cfg, rng)?);
            // The tails factor in the old epoch's negatives: stale.
            *tails = [None, None];
        }
        let epoch = epoch.as_ref().expect("pinned above");
        let ws = ws_cache.workspace_for(epoch, cfg)?;
        ws.train_authenticator_tail(positives, cfg, caches, tails)
    }

    /// Pins a fresh [`NegativeEpoch`] and precomputes the per-context
    /// [`KrrSharedWorkspace`] blocks over it — the shared prefix of every
    /// enrollment fit against this pool sample. Build once per enrollment
    /// batch, then call [`EnrollmentWorkspace::train_authenticator`] per
    /// user: each user pays O(n_pos·M² + M³) instead of a fresh pass over
    /// the negatives plus a full refactorisation.
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientData`] when a required pool is empty;
    /// workspace construction failures are propagated.
    pub fn enrollment_workspace(
        &self,
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<EnrollmentWorkspace, CoreError> {
        let epoch = self.sample_negative_epoch(cfg, rng)?;
        EnrollmentWorkspace::over(epoch, cfg)
    }

    /// Batched fleet enrollment: pins **one** negative epoch, precomputes
    /// the shared workspace over it, and fits every user's authenticator
    /// against the shared block. Returns the pinned epoch (each enrolled
    /// pipeline should adopt it so later retrains stay epoch-stable)
    /// alongside one authenticator per entry of `users`, in order.
    ///
    /// Decisions agree with per-user [`train_authenticator_epoch`]
    /// (seeded with the same epoch) to tight epsilon — pinned by the
    /// workspace-root `enroll_parity` suite.
    ///
    /// [`train_authenticator_epoch`]: TrainingServer::train_authenticator_epoch
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientData`] when a required pool is empty or a
    /// user has no positive windows; fit failures fail the whole batch.
    pub fn enroll_many(
        &self,
        users: &[[Vec<Vec<f64>>; 2]],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<(NegativeEpoch, Vec<Authenticator>), CoreError> {
        let ws = self.enrollment_workspace(cfg, rng)?;
        let mut caches: [KrrFitCache; 2] = Default::default();
        let auths = users
            .iter()
            .map(|positives| ws.train_authenticator(positives, cfg, &mut caches))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((ws.epoch, auths))
    }

    /// One model fit over a deterministic design matrix: the most recent
    /// `data_size/2` positives (buffer order — §V-I retrains on the
    /// "latest authentication feature vectors") stacked over the frozen
    /// negatives, scaler fitted on the stack, KRR solved through the fit
    /// cache. Consumes no randomness.
    fn train_model_frozen(
        &self,
        positives: &[Vec<f64>],
        negatives: &[Vec<f64>],
        cfg: &SystemConfig,
        cache: &mut KrrFitCache,
    ) -> Result<AuthModel, CoreError> {
        if positives.is_empty() || negatives.is_empty() {
            return Err(CoreError::InsufficientData(format!(
                "positives={}, frozen negatives={}",
                positives.len(),
                negatives.len()
            )));
        }
        let per_class = cfg.data_size() / 2;
        let tail = positives.len().saturating_sub(per_class);
        let mut rows: Vec<&[f64]> = Vec::with_capacity(positives.len() - tail + negatives.len());
        let mut y = Vec::with_capacity(rows.capacity());
        for row in &positives[tail..] {
            rows.push(row);
            y.push(1.0);
        }
        for row in negatives {
            rows.push(row);
            y.push(-1.0);
        }
        fit_model(rows, &y, cfg, Some(cache))
    }
}

/// The shared fit tail: stacks the assembled `(rows, labels)` into a
/// matrix, fits the scaler on it, and solves the KRR system (through the
/// cache when one is supplied). Both the per-fit-sampled and the
/// frozen-epoch training paths end here, so scaling and error semantics
/// cannot diverge between them.
fn fit_model(
    rows: Vec<&[f64]>,
    y: &[f64],
    cfg: &SystemConfig,
    cache: Option<&mut KrrFitCache>,
) -> Result<AuthModel, CoreError> {
    let x = Matrix::from_rows(&rows)
        .map_err(|e| CoreError::InsufficientData(format!("ragged features: {e}")))?;
    let scaler = Scaler::fit(&x);
    let xs = scaler.transform(&x);
    let trainer = KernelRidge::new(cfg.rho());
    let krr = match cache {
        Some(cache) => trainer.fit_with_cache(cache, &xs, y)?,
        None => trainer.fit(&xs, y)?,
    };
    Ok(AuthModel::new(scaler, krr))
}

/// A device's frozen negative sample: the pooled vectors it trains against
/// until the anonymized pool changes. Rides along in the pipeline snapshot
/// so an evicted-and-rehydrated device retrains bit-identically to one
/// that never left memory (resampling on restore would consume different
/// randomness).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NegativeEpoch {
    /// [`TrainingServer::pool_version`] the sample was drawn at.
    pool_version: u64,
    /// Content fingerprint of the pool the sample was drawn from. The
    /// epoch outlives the server process inside pipeline snapshots, and a
    /// rebuilt server's bare counter could coincidentally match; the
    /// fingerprint ties staleness to the actual pool contents.
    pool_fingerprint: u64,
    /// Sampled negative rows per [`UsageContext::index`]; unified mode
    /// keeps its single pooled draw in slot 0. Shared, not copied, by the
    /// pipelines that adopt the epoch (one enrollment batch pins one
    /// epoch for all its users); the wire form is the rows themselves.
    rows: Arc<[Vec<Vec<f64>>; 2]>,
}

impl NegativeEpoch {
    /// Pool version the sample was pinned at.
    pub fn pool_version(&self) -> u64 {
        self.pool_version
    }

    /// Sampled rows per context slot.
    pub(crate) fn rows(&self) -> &[Vec<Vec<f64>>; 2] {
        &self.rows
    }
}

/// A pinned [`NegativeEpoch`] bundled with the precomputed shared-Gram
/// blocks every enrollment fit against it reuses ([`KrrSharedWorkspace`]
/// per context slot). Built once per enrollment batch by
/// [`TrainingServer::enrollment_workspace`]; immutable thereafter, so one
/// workspace can serve any number of users.
#[derive(Debug, Clone)]
pub struct EnrollmentWorkspace {
    /// The frozen negative sample the blocks were computed over. Enrolled
    /// pipelines adopt it so their later retrains reuse the same rows.
    epoch: NegativeEpoch,
    /// Trainer configuration shared by every fit (must match the one the
    /// workspace blocks were built under).
    trainer: KernelRidge,
    /// Shared negative blocks per [`UsageContext::index`]; `None` for a
    /// slot the epoch holds no rows for (unified mode leaves slot 1
    /// empty).
    workspaces: [Option<KrrSharedWorkspace>; 2],
}

impl EnrollmentWorkspace {
    /// Precomputes the shared blocks over an already-pinned epoch.
    fn over(epoch: NegativeEpoch, cfg: &SystemConfig) -> Result<Self, CoreError> {
        let trainer = KernelRidge::new(cfg.rho());
        let mut workspaces = [None, None];
        for (slot, rows) in epoch.rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let neg = Matrix::from_rows(&refs)
                .map_err(|e| CoreError::InsufficientData(format!("ragged negatives: {e}")))?;
            workspaces[slot] = Some(trainer.shared_workspace(neg)?);
        }
        Ok(EnrollmentWorkspace {
            epoch,
            trainer,
            workspaces,
        })
    }

    /// The negative epoch the shared blocks were computed over.
    pub fn epoch(&self) -> &NegativeEpoch {
        &self.epoch
    }

    /// Fits one user's [`Authenticator`] against the shared blocks,
    /// mirroring [`TrainingServer::train_authenticator_epoch`]'s frozen
    /// path: tail-`data_size/2` positives per model, scaler fitted over
    /// the stacked rows (via the closed-form moments), no randomness
    /// consumed. `caches` records a shared-block hit or fallback miss per
    /// fit.
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientData`] when a model has no positives or
    /// the epoch holds no negatives for its slot; fit failures are
    /// propagated.
    pub fn train_authenticator(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError> {
        match cfg.context_mode() {
            ContextMode::Unified => {
                let all: Vec<Vec<f64>> = positives.iter().flatten().cloned().collect();
                let model = self.train_model_shared(&all, 0, cfg, &mut caches[0])?;
                Ok(Authenticator::unified(model, cfg.accept_threshold()))
            }
            ContextMode::PerContext => {
                let mut models = Vec::with_capacity(2);
                for ctx in UsageContext::ALL {
                    models.push(self.train_model_shared(
                        &positives[ctx.index()],
                        ctx.index(),
                        cfg,
                        &mut caches[ctx.index()],
                    )?);
                }
                Authenticator::per_context(models, cfg.accept_threshold())
            }
        }
    }

    /// Retrain variant of [`EnrollmentWorkspace::train_authenticator`]:
    /// every model fit additionally threads the per-slot
    /// [`KrrTailState`] through
    /// [`KernelRidge::fit_scaled_shared_tail`], so a retrain whose
    /// positive tail shifted by only a few buffer windows slides the
    /// previous Cholesky factor instead of refactoring.
    ///
    /// # Errors
    ///
    /// Same as [`EnrollmentWorkspace::train_authenticator`].
    pub fn train_authenticator_tail(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        caches: &mut [KrrFitCache; 2],
        tails: &mut [Option<KrrTailState>; 2],
    ) -> Result<Authenticator, CoreError> {
        match cfg.context_mode() {
            ContextMode::Unified => {
                let all: Vec<Vec<f64>> = positives.iter().flatten().cloned().collect();
                let model =
                    self.train_model_shared_tail(&all, 0, cfg, &mut caches[0], &mut tails[0])?;
                Ok(Authenticator::unified(model, cfg.accept_threshold()))
            }
            ContextMode::PerContext => {
                let mut models = Vec::with_capacity(2);
                for ctx in UsageContext::ALL {
                    models.push(self.train_model_shared_tail(
                        &positives[ctx.index()],
                        ctx.index(),
                        cfg,
                        &mut caches[ctx.index()],
                        &mut tails[ctx.index()],
                    )?);
                }
                Authenticator::per_context(models, cfg.accept_threshold())
            }
        }
    }

    /// One tail-sliding shared-block fit: same design matrix as
    /// [`EnrollmentWorkspace::train_model_shared`], solved through
    /// [`KernelRidge::fit_scaled_shared_tail`] so consecutive retrains
    /// with overlapping positive tails reuse the previous factorisation.
    fn train_model_shared_tail(
        &self,
        positives: &[Vec<f64>],
        slot: usize,
        cfg: &SystemConfig,
        cache: &mut KrrFitCache,
        tail: &mut Option<KrrTailState>,
    ) -> Result<AuthModel, CoreError> {
        let ws = self.workspaces[slot].as_ref().ok_or_else(|| {
            CoreError::InsufficientData(format!("no frozen negatives for context slot {slot}"))
        })?;
        if positives.is_empty() {
            return Err(CoreError::InsufficientData(format!(
                "positives=0, frozen negatives={}",
                ws.num_negatives()
            )));
        }
        let per_class = cfg.data_size() / 2;
        let start = positives.len().saturating_sub(per_class);
        let rows: Vec<&[f64]> = positives[start..].iter().map(Vec::as_slice).collect();
        let pos = Matrix::from_rows(&rows)
            .map_err(|e| CoreError::InsufficientData(format!("ragged features: {e}")))?;
        let (scaler, krr) = self.trainer.fit_scaled_shared_tail(cache, ws, &pos, tail)?;
        Ok(AuthModel::new(scaler, krr))
    }

    /// One shared-block model fit: the same design matrix as
    /// `train_model_frozen` (tail positives over the epoch's negatives),
    /// solved through [`KernelRidge::fit_scaled_shared_cached`].
    fn train_model_shared(
        &self,
        positives: &[Vec<f64>],
        slot: usize,
        cfg: &SystemConfig,
        cache: &mut KrrFitCache,
    ) -> Result<AuthModel, CoreError> {
        let ws = self.workspaces[slot].as_ref().ok_or_else(|| {
            CoreError::InsufficientData(format!("no frozen negatives for context slot {slot}"))
        })?;
        if positives.is_empty() {
            return Err(CoreError::InsufficientData(format!(
                "positives=0, frozen negatives={}",
                ws.num_negatives()
            )));
        }
        let per_class = cfg.data_size() / 2;
        let tail = positives.len().saturating_sub(per_class);
        let rows: Vec<&[f64]> = positives[tail..].iter().map(Vec::as_slice).collect();
        let pos = Matrix::from_rows(&rows)
            .map_err(|e| CoreError::InsufficientData(format!("ragged features: {e}")))?;
        let (scaler, krr) = self.trainer.fit_scaled_shared_cached(cache, ws, &pos)?;
        Ok(AuthModel::new(scaler, krr))
    }
}

/// A small shared cache of per-[`NegativeEpoch`] enrollment workspaces for
/// the **retrain** path. Enrollment builds its workspace once per batch and
/// drops it; retrains arrive one job at a time, spread over ticks, and
/// would otherwise rebuild the negative-Gram block per job. This cache
/// keys the block on `(epoch, trainer)` so every retrain against the same
/// pinned sample reuses the same precomputed negatives.
///
/// Cheaply cloneable (the entries live behind an `Arc`): the training
/// worker, the synchronous parity mode and each pipeline's inline fallback
/// can all share one cache. Holding it **does not** affect results — the
/// workspace is a pure function of the epoch and the trainer config — it
/// only changes who pays the construction cost. Bounded to a handful of
/// epochs (fleets converge on one shared epoch per pool version); the
/// oldest entry is evicted first.
#[derive(Debug, Clone, Default)]
pub struct RetrainWorkspaceCache {
    entries: Arc<Mutex<Vec<Arc<EnrollmentWorkspace>>>>,
}

impl RetrainWorkspaceCache {
    /// At most this many distinct `(epoch, trainer)` workspaces are kept;
    /// a fleet mid-pool-rollover briefly needs two.
    const MAX_ENTRIES: usize = 8;

    /// An empty cache.
    pub fn new() -> Self {
        RetrainWorkspaceCache::default()
    }

    /// Number of cached per-epoch workspaces.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache holds no workspaces yet.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// The shared workspace for `epoch` under `cfg`'s trainer, building
    /// and caching it on first sight. Construction happens under the cache
    /// lock so concurrent retrain workers against a fresh epoch serialize
    /// on one build instead of racing duplicate ones.
    ///
    /// # Errors
    ///
    /// Propagates workspace-construction failures
    /// ([`CoreError::InsufficientData`] on ragged negatives, ML errors).
    pub fn workspace_for(
        &self,
        epoch: &NegativeEpoch,
        cfg: &SystemConfig,
    ) -> Result<Arc<EnrollmentWorkspace>, CoreError> {
        let trainer = KernelRidge::new(cfg.rho());
        let mut entries = self.entries.lock();
        if let Some(hit) = entries
            .iter()
            .find(|ws| ws.trainer == trainer && ws.epoch == *epoch)
        {
            return Ok(Arc::clone(hit));
        }
        let built = Arc::new(EnrollmentWorkspace::over(epoch.clone(), cfg)?);
        if entries.len() >= RetrainWorkspaceCache::MAX_ENTRIES {
            entries.remove(0);
        }
        entries.push(Arc::clone(&built));
        Ok(built)
    }
}

/// How a pipeline reaches its training service. Today the only deployment
/// is the in-process [`TrainingServer`] behind a mutex (every
/// `Arc<Mutex<TrainingServer>>` coerces straight into
/// `Arc<dyn TrainingHandle>`), but the pipeline and fleet engine only ever
/// see this trait — the seam where a future out-of-process training
/// service (RPC to a real cloud tier) plugs in without touching the
/// per-user state machine. Shards share one handle across threads, hence
/// `Send + Sync` with interior locking.
pub trait TrainingHandle: fmt::Debug + Send + Sync {
    /// Trains the initial [`Authenticator`] from enrollment buffers (see
    /// [`TrainingServer::train_authenticator`]).
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    fn train_authenticator(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<Authenticator, CoreError>;

    /// Retrains with epoch-stable negative sampling (see
    /// [`TrainingServer::train_authenticator_epoch`]).
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    fn train_authenticator_epoch(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError>;

    /// Retrains through the shared per-epoch workspace with incremental
    /// positive-tail factor reuse (see
    /// [`TrainingServer::train_authenticator_epoch_shared`]).
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    #[allow(clippy::too_many_arguments)]
    fn train_authenticator_epoch_shared(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
        tails: &mut [Option<KrrTailState>; 2],
        ws_cache: &RetrainWorkspaceCache,
    ) -> Result<Authenticator, CoreError>;

    /// Pins a negative epoch and precomputes the shared enrollment blocks
    /// over it (see [`TrainingServer::enrollment_workspace`]) — the entry
    /// point batched fleet enrollment builds once and reuses per user.
    ///
    /// # Errors
    ///
    /// Propagates sampling and workspace-construction failures.
    fn enrollment_workspace(
        &self,
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<EnrollmentWorkspace, CoreError>;
}

impl TrainingHandle for Mutex<TrainingServer> {
    fn train_authenticator(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<Authenticator, CoreError> {
        self.lock().train_authenticator(positives, cfg, rng)
    }

    fn train_authenticator_epoch(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
    ) -> Result<Authenticator, CoreError> {
        self.lock()
            .train_authenticator_epoch(positives, cfg, rng, epoch, caches)
    }

    fn train_authenticator_epoch_shared(
        &self,
        positives: &[Vec<Vec<f64>>; 2],
        cfg: &SystemConfig,
        rng: &mut StdRng,
        epoch: &mut Option<NegativeEpoch>,
        caches: &mut [KrrFitCache; 2],
        tails: &mut [Option<KrrTailState>; 2],
        ws_cache: &RetrainWorkspaceCache,
    ) -> Result<Authenticator, CoreError> {
        self.lock()
            .train_authenticator_epoch_shared(positives, cfg, rng, epoch, caches, tails, ws_cache)
    }

    fn enrollment_workspace(
        &self,
        cfg: &SystemConfig,
        rng: &mut StdRng,
    ) -> Result<EnrollmentWorkspace, CoreError> {
        self.lock().enrollment_workspace(cfg, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    /// Positive cluster near +2, negative pool near −2, two features.
    fn setup() -> (TrainingServer, Vec<Vec<f64>>) {
        let mut server = TrainingServer::new();
        for ctx in UsageContext::ALL {
            let negs: Vec<Vec<f64>> = (0..60)
                .map(|i| vec![-2.0 - 0.01 * i as f64, -2.0 + 0.01 * i as f64])
                .collect();
            server.contribute(ctx, negs);
        }
        let pos: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![2.0 + 0.01 * i as f64, 2.0 - 0.01 * i as f64])
            .collect();
        (server, pos)
    }

    fn small_cfg() -> SystemConfig {
        SystemConfig::paper_default().with_data_size(80)
    }

    #[test]
    fn trains_separating_model() {
        let (server, pos) = setup();
        let model = server
            .train_model(
                Some(UsageContext::Stationary),
                &pos,
                &small_cfg(),
                &mut rng(),
            )
            .unwrap();
        assert!(model.confidence(&[2.0, 2.0]) > 0.0);
        assert!(model.confidence(&[-2.0, -2.0]) < 0.0);
    }

    #[test]
    fn pool_accounting() {
        let (server, _) = setup();
        assert_eq!(server.pool_size(UsageContext::Stationary), 60);
        assert_eq!(server.pool_size(UsageContext::Moving), 60);
    }

    #[test]
    fn empty_pool_is_an_error() {
        let server = TrainingServer::new();
        let err = server
            .train_model(
                Some(UsageContext::Moving),
                &[vec![1.0]],
                &small_cfg(),
                &mut rng(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientData(_)));
    }

    #[test]
    fn per_context_authenticator_has_two_models() {
        let (server, pos) = setup();
        let positives = [pos.clone(), pos.clone()];
        let auth = server
            .train_authenticator(&positives, &small_cfg(), &mut rng())
            .unwrap();
        assert_eq!(auth.mode(), ContextMode::PerContext);
        assert!(
            auth.authenticate(UsageContext::Moving, &[2.0, 2.0])
                .accepted
        );
    }

    #[test]
    fn unified_authenticator_pools_contexts() {
        let (server, pos) = setup();
        let positives = [pos.clone(), pos];
        let cfg = small_cfg().with_context_mode(ContextMode::Unified);
        let auth = server
            .train_authenticator(&positives, &cfg, &mut rng())
            .unwrap();
        assert_eq!(auth.mode(), ContextMode::Unified);
        let a = auth.authenticate(UsageContext::Stationary, &[2.0, 2.0]);
        let b = auth.authenticate(UsageContext::Moving, &[2.0, 2.0]);
        assert_eq!(a.confidence, b.confidence);
    }

    #[test]
    fn epoch_retrain_reuses_the_sample_and_hits_the_fit_cache() {
        let (server, pos) = setup();
        let cfg = small_cfg();
        let positives = [pos.clone(), pos.clone()];
        let mut rng = rng();
        let mut epoch = None;
        let mut caches: [KrrFitCache; 2] = Default::default();

        let a = server
            .train_authenticator_epoch(&positives, &cfg, &mut rng, &mut epoch, &mut caches)
            .unwrap();
        let pinned = epoch.clone().expect("epoch pinned by first fit");
        assert_eq!(pinned.pool_version(), server.pool_version());
        assert_eq!(caches.iter().map(|c| c.hits()).sum::<u64>(), 0);

        // Same positives, unchanged pool: the sample is reused (no RNG
        // draw), every design matrix is identical, and both context fits
        // reuse their cached factorisation — bit-identical models.
        let b = server
            .train_authenticator_epoch(&positives, &cfg, &mut rng, &mut epoch, &mut caches)
            .unwrap();
        assert_eq!(epoch.as_ref(), Some(&pinned));
        assert_eq!(caches.iter().map(|c| c.hits()).sum::<u64>(), 2);
        assert_eq!(a, b);

        // A pool contribution bumps the version: the next retrain resamples
        // and refactors.
        let mut server = server;
        server.contribute(UsageContext::Stationary, vec![vec![0.0, 0.0]]);
        server
            .train_authenticator_epoch(&positives, &cfg, &mut rng, &mut epoch, &mut caches)
            .unwrap();
        assert_ne!(epoch.as_ref(), Some(&pinned));
        assert_eq!(
            epoch.as_ref().unwrap().pool_version(),
            server.pool_version()
        );
        assert_eq!(caches.iter().map(|c| c.hits()).sum::<u64>(), 2);
    }

    #[test]
    fn epoch_retrain_takes_the_most_recent_positives() {
        // With more positives than data_size/2, the frozen path must train
        // on the tail (the latest windows), not the head: shifting one new
        // window in changes the model even though the sample is frozen.
        let (server, pos) = setup();
        let cfg = SystemConfig::paper_default().with_data_size(40); // 20 per class
        let mut rng = rng();
        let mut epoch = None;
        let mut caches: [KrrFitCache; 2] = Default::default();
        let positives = [pos.clone(), pos.clone()];
        let a = server
            .train_authenticator_epoch(&positives, &cfg, &mut rng, &mut epoch, &mut caches)
            .unwrap();
        let mut shifted = pos.clone();
        shifted.push(vec![3.5, 3.5]);
        let positives = [shifted.clone(), shifted];
        let b = server
            .train_authenticator_epoch(&positives, &cfg, &mut rng, &mut epoch, &mut caches)
            .unwrap();
        assert_ne!(a, b, "a fresh window must reach the training set");
    }

    #[test]
    fn empty_contribution_does_not_invalidate_epochs() {
        let (mut server, _) = setup();
        let stamp = server.pool_stamp();
        server.contribute(UsageContext::Stationary, std::iter::empty());
        assert_eq!(
            server.pool_stamp(),
            stamp,
            "an empty upload must not devalidate pinned negative epochs"
        );
        server.contribute(UsageContext::Stationary, vec![vec![1.0, 1.0]]);
        assert_ne!(server.pool_stamp(), stamp);
    }

    #[test]
    fn rebuilt_pool_with_matching_version_is_caught_by_the_fingerprint() {
        // A NegativeEpoch outlives the server process inside snapshots: a
        // rebuilt server can reach the same bare version count with
        // different data, and the content fingerprint must still force a
        // resample.
        let mut a = TrainingServer::new();
        let mut b = TrainingServer::new();
        for i in 0..4 {
            for ctx in UsageContext::ALL {
                a.contribute(ctx, vec![vec![i as f64, 0.0]]);
                b.contribute(ctx, vec![vec![i as f64, 7.0]]);
            }
        }
        assert_eq!(a.pool_version(), b.pool_version());
        assert_ne!(a.pool_stamp(), b.pool_stamp());
        let cfg = small_cfg();
        let mut rng = rng();
        let epoch_a = a.sample_negative_epoch(&cfg, &mut rng).unwrap();
        // An epoch pinned against server A is stale on server B even
        // though the version counters agree.
        let mut epoch = Some(epoch_a.clone());
        let mut caches: [KrrFitCache; 2] = Default::default();
        let positives = [vec![vec![2.0, 2.0]; 4], vec![vec![2.0, 2.0]; 4]];
        b.train_authenticator_epoch(
            &positives,
            &SystemConfig::paper_default().with_data_size(20),
            &mut rng,
            &mut epoch,
            &mut caches,
        )
        .unwrap();
        assert_ne!(
            epoch.as_ref(),
            Some(&epoch_a),
            "fingerprint forced a resample"
        );
    }

    #[test]
    fn enroll_many_matches_per_user_epoch_training() {
        let (server, pos) = setup();
        let cfg = SystemConfig::paper_default().with_data_size(40);
        let users: Vec<[Vec<Vec<f64>>; 2]> = (0..4)
            .map(|u| {
                let shifted: Vec<Vec<f64>> = pos
                    .iter()
                    .map(|r| r.iter().map(|v| v + 0.05 * u as f64).collect())
                    .collect();
                [shifted.clone(), shifted]
            })
            .collect();
        let (epoch, auths) = server.enroll_many(&users, &cfg, &mut rng()).unwrap();
        assert_eq!(auths.len(), users.len());
        assert_eq!(epoch.pool_version(), server.pool_version());
        // Per-user sequential path, seeded with the same pinned epoch —
        // the frozen fit consumes no RNG, so decisions must agree to
        // tight epsilon.
        for (user, batched) in users.iter().zip(&auths) {
            let mut pinned = Some(epoch.clone());
            let mut caches: [KrrFitCache; 2] = Default::default();
            let sequential = server
                .train_authenticator_epoch(user, &cfg, &mut rng(), &mut pinned, &mut caches)
                .unwrap();
            assert_eq!(pinned.as_ref(), Some(&epoch), "epoch must stay pinned");
            for ctx in UsageContext::ALL {
                for probe in [[2.1, 1.9], [-2.0, -2.2], [0.3, -0.4]] {
                    let a = batched.authenticate(ctx, &probe).confidence;
                    let b = sequential.authenticate(ctx, &probe).confidence;
                    assert!((a - b).abs() < 1e-9, "batched {a} vs sequential {b}");
                }
            }
        }
    }

    #[test]
    fn enroll_many_unified_mode_and_counters() {
        let (server, pos) = setup();
        let cfg = small_cfg().with_context_mode(ContextMode::Unified);
        let ws = server.enrollment_workspace(&cfg, &mut rng()).unwrap();
        let mut caches: [KrrFitCache; 2] = Default::default();
        let positives = [pos.clone(), pos];
        let auth = ws
            .train_authenticator(&positives, &cfg, &mut caches)
            .unwrap();
        assert_eq!(auth.mode(), ContextMode::Unified);
        assert!(
            auth.authenticate(UsageContext::Moving, &[2.0, 2.0])
                .accepted
        );
        // Production config is linear/primal: the fit must come off the
        // shared block, not the fallback.
        assert_eq!((caches[0].hits(), caches[0].misses()), (1, 0));
    }

    #[test]
    fn shared_epoch_retrain_matches_frozen_path() {
        let (server, pos) = setup();
        let cfg = SystemConfig::paper_default().with_data_size(40);
        let positives = [pos.clone(), pos.clone()];
        // Legacy frozen path pins the epoch and is the reference.
        let mut epoch = None;
        let mut legacy_caches: [KrrFitCache; 2] = Default::default();
        let legacy = server
            .train_authenticator_epoch(&positives, &cfg, &mut rng(), &mut epoch, &mut legacy_caches)
            .unwrap();
        // Shared path over the *same* pinned epoch: no resample, one
        // workspace built, every fit off the shared block, tails seeded.
        let ws_cache = RetrainWorkspaceCache::new();
        let mut caches: [KrrFitCache; 2] = Default::default();
        let mut tails = [None, None];
        let shared = server
            .train_authenticator_epoch_shared(
                &positives,
                &cfg,
                &mut rng(),
                &mut epoch,
                &mut caches,
                &mut tails,
                &ws_cache,
            )
            .unwrap();
        assert_eq!(ws_cache.len(), 1);
        assert!(tails.iter().all(Option::is_some));
        for cache in &caches {
            assert_eq!(
                (cache.shared_hits(), cache.keyed_hits(), cache.misses()),
                (1, 0, 0)
            );
        }
        for ctx in UsageContext::ALL {
            for probe in [[2.1, 1.9], [-2.0, -2.2], [0.3, -0.4]] {
                let a = legacy.authenticate(ctx, &probe).confidence;
                let b = shared.authenticate(ctx, &probe).confidence;
                assert!((a - b).abs() < 1e-6, "legacy {a} vs shared {b}");
            }
        }
        // A second retrain with one fresh window slides the tail instead
        // of refactoring; the workspace is a cache hit.
        let mut shifted = pos.clone();
        shifted.push(vec![2.3, 1.8]);
        let positives = [shifted.clone(), shifted];
        server
            .train_authenticator_epoch_shared(
                &positives,
                &cfg,
                &mut rng(),
                &mut epoch,
                &mut caches,
                &mut tails,
                &ws_cache,
            )
            .unwrap();
        assert_eq!(ws_cache.len(), 1, "same epoch must reuse the workspace");
        for cache in &caches {
            assert_eq!((cache.shared_hits(), cache.misses()), (2, 0));
        }
    }

    #[test]
    fn shared_epoch_retrain_resample_clears_tails() {
        let (mut server, pos) = setup();
        let cfg = SystemConfig::paper_default().with_data_size(40);
        let positives = [pos.clone(), pos];
        let ws_cache = RetrainWorkspaceCache::new();
        let mut epoch = None;
        let mut caches: [KrrFitCache; 2] = Default::default();
        let mut tails = [None, None];
        server
            .train_authenticator_epoch_shared(
                &positives,
                &cfg,
                &mut rng(),
                &mut epoch,
                &mut caches,
                &mut tails,
                &ws_cache,
            )
            .unwrap();
        let pinned = epoch.clone().unwrap();
        let first_tail = tails[0].clone().unwrap();
        // Pool change → resample → the old factor must not survive into
        // the new epoch (its negatives changed underneath it).
        server.contribute(UsageContext::Stationary, vec![vec![0.1, -0.1]]);
        server
            .train_authenticator_epoch_shared(
                &positives,
                &cfg,
                &mut rng(),
                &mut epoch,
                &mut caches,
                &mut tails,
                &ws_cache,
            )
            .unwrap();
        assert_ne!(epoch.as_ref(), Some(&pinned));
        assert_ne!(
            tails[0].as_ref(),
            Some(&first_tail),
            "tails must be re-based on the fresh epoch"
        );
        assert_eq!(ws_cache.len(), 2, "one workspace per distinct epoch");
    }

    #[test]
    fn enroll_many_fails_on_empty_pool_or_user() {
        let empty = TrainingServer::new();
        assert!(matches!(
            empty.enroll_many(&[], &small_cfg(), &mut rng()),
            Err(CoreError::InsufficientData(_))
        ));
        let (server, pos) = setup();
        let users = [[pos, Vec::new()]];
        assert!(matches!(
            server.enroll_many(&users, &small_cfg(), &mut rng()),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn empty_pool_fails_epoch_sampling() {
        let server = TrainingServer::new();
        let err = server
            .sample_negative_epoch(&small_cfg(), &mut rng())
            .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientData(_)));
    }

    #[test]
    fn balanced_sampling_caps_at_data_size() {
        let (server, pos) = setup();
        // data_size 40 → 20 per class even though 60 are available.
        let cfg = SystemConfig::paper_default().with_data_size(40);
        // No direct observability of the sample count, but training must
        // succeed and produce a sane model.
        let model = server
            .train_model(Some(UsageContext::Moving), &pos, &cfg, &mut rng())
            .unwrap();
        assert!(model.confidence(&[2.5, 2.5]) > 0.0);
    }
}
