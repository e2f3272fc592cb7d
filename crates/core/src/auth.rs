use serde::{Deserialize, Serialize};

use smarteryou_ml::{BinaryClassifier, KrrModel, Scaler};
use smarteryou_sensors::UsageContext;

use crate::config::ContextMode;
use crate::CoreError;

/// One trained per-context authentication model: a feature scaler plus the
/// KRR classifier whose parameters the smartphone downloads from the
/// authentication server (§IV-A3).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuthModel {
    scaler: Scaler,
    krr: KrrModel,
}

/// Hand-written (rather than derived) so a decoded model is shape-checked:
/// a scaler and classifier of different widths are a typed error instead
/// of a model whose scoring would later panic in a width assert.
impl serde::Deserialize for AuthModel {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        decode_fields!(d, "AuthModel", scaler, krr);
        let model = AuthModel::new(
            required(scaler, "AuthModel", "scaler")?,
            required(krr, "AuthModel", "krr")?,
        );
        if model.scaler.num_features() != model.krr.num_features() {
            return Err(serde::DeError::custom(format!(
                "AuthModel: {}-feature scaler for a {}-feature classifier",
                model.scaler.num_features(),
                model.krr.num_features()
            )));
        }
        Ok(model)
    }
}

impl AuthModel {
    /// Packages a scaler + classifier pair.
    pub fn new(scaler: Scaler, krr: KrrModel) -> Self {
        AuthModel { scaler, krr }
    }

    /// The confidence score `CS(k) = xₖᵀ w*` (§V-I) of a raw (unscaled)
    /// authentication feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature width differs from the training width.
    pub fn confidence(&self, features: &[f64]) -> f64 {
        self.krr.decision(&self.scaler.transform_vec(features))
    }

    /// Number of raw features expected.
    pub fn num_features(&self) -> usize {
        self.scaler.num_features()
    }

    /// Borrows the underlying classifier.
    pub fn classifier(&self) -> &KrrModel {
        &self.krr
    }
}

/// Outcome of authenticating one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuthDecision {
    /// Whether the window was attributed to the legitimate owner.
    pub accepted: bool,
    /// Confidence score (distance from the classifier boundary).
    pub confidence: f64,
    /// Context under which the decision was made.
    pub context: UsageContext,
}

/// The authentication component of the testing module (§IV-A2): holds the
/// per-context models and classifies authentication feature vectors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Authenticator {
    mode: ContextMode,
    /// Per [`UsageContext::index`] slot; `Unified` mode stores one model in
    /// slot 0.
    models: Vec<AuthModel>,
    threshold: f64,
}

/// Hand-written (rather than derived) so a decoded authenticator passes
/// the checks of [`Authenticator::per_context`] and
/// [`Authenticator::unified`]: a model list of the wrong length or of
/// disagreeing widths is a typed error instead of a later index panic.
impl serde::Deserialize for Authenticator {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "Authenticator";
        decode_fields!(d, TY, mode, models, threshold);
        let models: Vec<AuthModel> = required(models, TY, "models")?;
        let threshold = required(threshold, TY, "threshold")?;
        match required(mode, TY, "mode")? {
            ContextMode::PerContext => Authenticator::per_context(models, threshold)
                .map_err(|e| serde::DeError::custom(format!("{TY}: {e}"))),
            ContextMode::Unified => match <[AuthModel; 1]>::try_from(models) {
                Ok([model]) => Ok(Authenticator::unified(model, threshold)),
                Err(models) => Err(serde::DeError::custom(format!(
                    "{TY}: expected 1 unified model, got {}",
                    models.len()
                ))),
            },
        }
    }
}

impl Authenticator {
    /// Builds a per-context authenticator from models indexed like
    /// [`UsageContext::ALL`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the model count or feature
    /// widths are inconsistent.
    pub fn per_context(models: Vec<AuthModel>, threshold: f64) -> Result<Self, CoreError> {
        if models.len() != UsageContext::ALL.len() {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} per-context models, got {}",
                UsageContext::ALL.len(),
                models.len()
            )));
        }
        if models[1..]
            .iter()
            .any(|m| m.num_features() != models[0].num_features())
        {
            return Err(CoreError::InvalidConfig(
                "per-context models disagree on feature width".into(),
            ));
        }
        Ok(Authenticator {
            mode: ContextMode::PerContext,
            models,
            threshold,
        })
    }

    /// Builds a unified (context-ignoring) authenticator.
    pub fn unified(model: AuthModel, threshold: f64) -> Self {
        Authenticator {
            mode: ContextMode::Unified,
            models: vec![model],
            threshold,
        }
    }

    /// Context handling mode.
    pub fn mode(&self) -> ContextMode {
        self.mode
    }

    /// Acceptance threshold on the confidence score.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of raw features expected per window.
    pub fn num_features(&self) -> usize {
        self.models[0].num_features()
    }

    /// The model that would be used under `context`.
    pub fn model_for(&self, context: UsageContext) -> &AuthModel {
        match self.mode {
            ContextMode::Unified => &self.models[0],
            ContextMode::PerContext => &self.models[context.index()],
        }
    }

    /// Authenticates one window's feature vector under the detected context.
    ///
    /// # Panics
    ///
    /// Panics if the feature width differs from the training width.
    pub fn authenticate(&self, context: UsageContext, features: &[f64]) -> AuthDecision {
        let confidence = self.model_for(context).confidence(features);
        AuthDecision {
            accepted: confidence >= self.threshold,
            confidence,
            context,
        }
    }

    /// Authenticates a mixed-context window batch: each row is scored by
    /// its context's model through [`Authenticator::authenticate`], and
    /// the decisions come back in input order.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from the training width.
    pub fn authenticate_grouped(&self, items: &[(UsageContext, Vec<f64>)]) -> Vec<AuthDecision> {
        items
            .iter()
            .map(|(context, features)| self.authenticate(*context, features))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarteryou_linalg::Matrix;
    use smarteryou_ml::KernelRidge;

    /// Builds a trivial model that accepts vectors near (1, 1).
    fn model(positive_at: f64) -> AuthModel {
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                let jitter = i as f64 * 0.01;
                if i % 2 == 0 {
                    vec![positive_at + jitter, positive_at - jitter]
                } else {
                    vec![-positive_at - jitter, -positive_at + jitter]
                }
            })
            .collect();
        let y: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let scaler = Scaler::fit(&x);
        let xs = scaler.transform(&x);
        let krr = KernelRidge::new(0.1).fit(&xs, &y).unwrap();
        AuthModel::new(scaler, krr)
    }

    #[test]
    fn per_context_routes_to_the_right_model() {
        let auth = Authenticator::per_context(vec![model(1.0), model(1.0)], 0.0).unwrap();
        let d = auth.authenticate(UsageContext::Moving, &[1.0, 1.0]);
        assert!(d.accepted);
        assert_eq!(d.context, UsageContext::Moving);
        assert!(d.confidence > 0.0);
        let d = auth.authenticate(UsageContext::Stationary, &[-1.0, -1.0]);
        assert!(!d.accepted);
    }

    #[test]
    fn unified_uses_single_model() {
        let auth = Authenticator::unified(model(2.0), 0.0);
        assert_eq!(auth.mode(), ContextMode::Unified);
        let a = auth.authenticate(UsageContext::Stationary, &[2.0, 2.0]);
        let b = auth.authenticate(UsageContext::Moving, &[2.0, 2.0]);
        assert_eq!(a.confidence, b.confidence);
    }

    #[test]
    fn threshold_shifts_decisions() {
        let strict = Authenticator::unified(model(1.0), 10.0);
        assert!(
            !strict
                .authenticate(UsageContext::Moving, &[1.0, 1.0])
                .accepted
        );
        let lax = Authenticator::unified(model(1.0), -10.0);
        assert!(
            lax.authenticate(UsageContext::Moving, &[-1.0, -1.0])
                .accepted
        );
    }

    #[test]
    fn per_context_validates_model_count() {
        let err = Authenticator::per_context(vec![model(1.0)], 0.0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn grouped_decisions_match_scalar_decisions_in_input_order() {
        let auth = Authenticator::per_context(vec![model(1.0), model(2.0)], 0.1).unwrap();
        let probes = [
            vec![1.0, 1.0],
            vec![-0.5, 0.25],
            vec![2.0, -2.0],
            vec![0.0, 0.0],
        ];
        let items: Vec<(UsageContext, Vec<f64>)> = probes
            .iter()
            .enumerate()
            .map(|(i, p)| (UsageContext::ALL[i % 2], p.clone()))
            .collect();
        let grouped = auth.authenticate_grouped(&items);
        for ((ctx, feats), d) in items.iter().zip(&grouped) {
            let scalar = auth.authenticate(*ctx, feats);
            assert_eq!(d.confidence.to_bits(), scalar.confidence.to_bits());
            assert_eq!(d.accepted, scalar.accepted);
            assert_eq!(d.context, *ctx);
        }
    }

    #[test]
    fn grouped_handles_empty_and_single_context_batches() {
        let auth = Authenticator::unified(model(1.0), 0.0);
        assert!(auth.authenticate_grouped(&[]).is_empty());
        let items = vec![(UsageContext::Moving, vec![1.0, 1.0])];
        let out = auth.authenticate_grouped(&items);
        assert_eq!(out.len(), 1);
        assert!(out[0].accepted);
    }

    #[test]
    fn model_exposes_confidence_and_width() {
        let m = model(1.0);
        assert_eq!(m.num_features(), 2);
        assert!(m.confidence(&[1.0, 1.0]) > 0.0);
        assert!(m.classifier().weights().is_some());
    }
}
