//! Statistics substrate for the SmarterYou reproduction.
//!
//! The paper's feature-engineering methodology rests on three statistical
//! tools, all implemented here from scratch:
//!
//! * **Fisher scores** (§V-B, Table II) for sensor selection,
//! * the **two-sample Kolmogorov–Smirnov test** (§V-C, Figure 3) for
//!   dropping features that cannot distinguish user pairs, and
//! * **Pearson correlation** (§V-C/D, Tables III & IV) for dropping
//!   redundant features and justifying the two-device design.
//!
//! Evaluation metrics (confusion matrices, FAR/FRR/accuracy, box-plot
//! summaries for Figure 3) live here too, shared by the ML crate and the
//! benchmark harness.

mod boxplot;
mod confusion;
mod correlation;
mod descriptive;
mod fisher;
mod ks;
mod metrics;

pub use boxplot::BoxStats;
pub use confusion::ConfusionMatrix;
pub use correlation::pearson;
pub use descriptive::{max, mean, median, min, quantile, range, std_dev, variance, Summary};
pub use fisher::fisher_score;
pub use ks::{ks_statistic, ks_test, KsOutcome};
pub use metrics::BinaryOutcomes;
