use std::sync::Arc;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use smarteryou_linalg::Matrix;
use smarteryou_ml::{RandomForest, RandomForestModel};
use smarteryou_sensors::{DualDeviceWindow, UsageContext};
use smarteryou_stats::ConfusionMatrix;

use crate::features::FeatureExtractor;
use crate::CoreError;

/// User-agnostic context detector (§V-E): a random forest over the
/// smartphone feature vector of Eq. 3 that labels each window *stationary*
/// or *moving* before the per-context authentication model is chosen.
///
/// "User-agnostic" means the forest is trained on *other* users' data and
/// applied to the current user — reproduced by training on a population that
/// excludes the device owner (see
/// [`crate::experiment::context_detection_experiment`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContextDetector {
    /// Shared by every clone: a fleet hands one trained detector to each
    /// of its pipelines, and the forest never changes after training.
    forest: Arc<RandomForestModel>,
    extractor: FeatureExtractor,
}

/// Hand-written (rather than derived) so a decoded forest votes over
/// exactly the [`UsageContext`] classes: any other class count is a typed
/// error instead of a vote [`ContextDetector::detect_from_features`] could
/// not map to a context.
impl serde::Deserialize for ContextDetector {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        decode_fields!(d, "ContextDetector", forest, extractor);
        let forest: RandomForestModel = required(forest, "ContextDetector", "forest")?;
        if forest.num_classes() != UsageContext::ALL.len() {
            return Err(serde::DeError::custom(format!(
                "ContextDetector: a {}-class forest for {} contexts",
                forest.num_classes(),
                UsageContext::ALL.len()
            )));
        }
        Ok(ContextDetector {
            forest: Arc::new(forest),
            extractor: required(extractor, "ContextDetector", "extractor")?,
        })
    }
}

/// Training configuration for the context detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextDetectorConfig {
    /// Trees in the forest.
    pub num_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
}

impl Default for ContextDetectorConfig {
    fn default() -> Self {
        ContextDetectorConfig {
            num_trees: 50,
            max_depth: 10,
        }
    }
}

impl ContextDetector {
    /// Trains the detector from labelled smartphone feature vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientData`] when the training set is
    /// empty or single-class, and propagates forest-training failures.
    pub fn train(
        extractor: FeatureExtractor,
        features: &[Vec<f64>],
        labels: &[UsageContext],
        cfg: ContextDetectorConfig,
        rng: &mut StdRng,
    ) -> Result<Self, CoreError> {
        if features.is_empty() || features.len() != labels.len() {
            return Err(CoreError::InsufficientData(format!(
                "{} feature rows vs {} labels",
                features.len(),
                labels.len()
            )));
        }
        let first = labels[0];
        if labels.iter().all(|&l| l == first) {
            return Err(CoreError::InsufficientData(
                "context training data covers a single context".into(),
            ));
        }
        let x = Matrix::from_rows(features)
            .map_err(|e| CoreError::InsufficientData(format!("ragged features: {e}")))?;
        let y: Vec<usize> = labels.iter().map(|l| l.index()).collect();
        let forest = RandomForest::new(cfg.num_trees)
            .with_max_depth(cfg.max_depth)
            .fit(&x, &y, UsageContext::ALL.len(), rng)?;
        Ok(ContextDetector {
            forest: Arc::new(forest),
            extractor,
        })
    }

    /// Detects the context of a window (extracts phone features internally).
    ///
    /// Standalone convenience: the runtime pipeline instead computes
    /// [`WindowFeatures`](crate::WindowFeatures) once per window and calls
    /// [`ContextDetector::detect_from_features`] with the cached phone
    /// vector, so detection shares the authenticator's extraction work.
    pub fn detect(&self, window: &DualDeviceWindow) -> UsageContext {
        self.detect_from_features(&self.extractor.context_features(window))
    }

    /// Detects the context from a pre-extracted phone feature vector
    /// (e.g. [`WindowFeatures::context_features`](crate::WindowFeatures::context_features)).
    ///
    /// # Panics
    ///
    /// Panics if the feature width differs from the training width.
    pub fn detect_from_features(&self, features: &[f64]) -> UsageContext {
        let class = self.forest.predict(features);
        UsageContext::from_index(class).expect("forest trained over UsageContext classes")
    }

    /// The feature extractor the detector was built with.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Evaluates on held-out labelled features, producing the Table V
    /// confusion matrix.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != labels.len()`.
    pub fn evaluate(&self, features: &[Vec<f64>], labels: &[UsageContext]) -> ConfusionMatrix {
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        let mut cm = ConfusionMatrix::new(
            UsageContext::ALL
                .iter()
                .map(|c| c.name().to_string())
                .collect(),
        );
        for (f, l) in features.iter().zip(labels) {
            cm.record(l.index(), self.detect_from_features(f).index());
        }
        cm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use smarteryou_sensors::{Population, RawContext, TraceGenerator, WindowSpec};

    fn training_data(
        users: usize,
        windows_per_ctx: usize,
    ) -> (FeatureExtractor, Vec<Vec<f64>>, Vec<UsageContext>) {
        let population = Population::generate(users, 11);
        let extractor = FeatureExtractor::paper_default(50.0);
        let spec = WindowSpec::from_seconds(2.0, 50.0);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for user in population.iter() {
            let mut gen = TraceGenerator::new(user.clone(), 21);
            for ctx in [RawContext::SittingStanding, RawContext::MovingAround] {
                for w in gen.generate_windows(ctx, spec, windows_per_ctx) {
                    feats.push(extractor.context_features(&w));
                    labels.push(ctx.coarse());
                }
            }
        }
        (extractor, feats, labels)
    }

    #[test]
    fn detects_stationary_vs_moving() {
        let (extractor, feats, labels) = training_data(4, 12);
        let mut rng = StdRng::seed_from_u64(1);
        let det = ContextDetector::train(
            extractor.clone(),
            &feats,
            &labels,
            ContextDetectorConfig::default(),
            &mut rng,
        )
        .unwrap();

        // Evaluate on a user *not* in the training population (user-agnostic).
        let holdout = Population::generate(6, 99).users()[5].clone();
        let mut gen = TraceGenerator::new(holdout, 31);
        let spec = WindowSpec::from_seconds(2.0, 50.0);
        let mut correct = 0;
        let mut total = 0;
        for ctx in [RawContext::SittingStanding, RawContext::MovingAround] {
            for w in gen.generate_windows(ctx, spec, 15) {
                total += 1;
                if det.detect(&w) == ctx.coarse() {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "user-agnostic context accuracy {acc}");
    }

    #[test]
    fn evaluate_builds_confusion_matrix() {
        let (extractor, feats, labels) = training_data(3, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let det = ContextDetector::train(
            extractor,
            &feats,
            &labels,
            ContextDetectorConfig::default(),
            &mut rng,
        )
        .unwrap();
        let cm = det.evaluate(&feats, &labels);
        assert_eq!(cm.total() as usize, feats.len());
        assert!(cm.accuracy() > 0.9);
        assert_eq!(cm.labels()[0], "stationary");
    }

    #[test]
    fn training_requires_both_contexts() {
        let (extractor, feats, _) = training_data(2, 4);
        let labels = vec![UsageContext::Stationary; feats.len()];
        let mut rng = StdRng::seed_from_u64(3);
        let err = ContextDetector::train(
            extractor,
            &feats,
            &labels,
            ContextDetectorConfig::default(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientData(_)));
    }

    #[test]
    fn training_rejects_empty() {
        let extractor = FeatureExtractor::paper_default(50.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(ContextDetector::train(
            extractor,
            &[],
            &[],
            ContextDetectorConfig::default(),
            &mut rng
        )
        .is_err());
    }
}
