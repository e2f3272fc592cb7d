use serde::{Deserialize, Serialize};

/// Outcome counts of a binary authentication experiment.
///
/// Terminology follows the paper (§V-F3): the *positive* class is the
/// legitimate user.
///
/// * **FRR** (false reject rate): fraction of the legitimate user's windows
///   misclassified as someone else.
/// * **FAR** (false accept rate): fraction of other users' windows
///   misclassified as the legitimate user.
///
/// # Example
///
/// ```
/// use smarteryou_stats::BinaryOutcomes;
///
/// let mut o = BinaryOutcomes::default();
/// o.record(true, true);   // legitimate accepted
/// o.record(true, false);  // legitimate rejected -> FRR
/// o.record(false, false); // impostor rejected
/// o.record(false, true);  // impostor accepted -> FAR
/// assert_eq!(o.frr(), 0.5);
/// assert_eq!(o.far(), 0.5);
/// assert_eq!(o.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryOutcomes {
    /// Legitimate windows accepted (true positives).
    pub true_accepts: u64,
    /// Legitimate windows rejected (false negatives).
    pub false_rejects: u64,
    /// Impostor windows rejected (true negatives).
    pub true_rejects: u64,
    /// Impostor windows accepted (false positives).
    pub false_accepts: u64,
}

impl BinaryOutcomes {
    /// Creates empty outcome counts (same as `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decision: `legitimate` is ground truth, `accepted` the
    /// classifier's verdict.
    pub fn record(&mut self, legitimate: bool, accepted: bool) {
        match (legitimate, accepted) {
            (true, true) => self.true_accepts += 1,
            (true, false) => self.false_rejects += 1,
            (false, true) => self.false_accepts += 1,
            (false, false) => self.true_rejects += 1,
        }
    }

    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.true_accepts + self.false_rejects + self.true_rejects + self.false_accepts
    }

    /// False reject rate; `NaN` with no legitimate observations.
    pub fn frr(&self) -> f64 {
        let n = self.true_accepts + self.false_rejects;
        if n == 0 {
            return f64::NAN;
        }
        self.false_rejects as f64 / n as f64
    }

    /// False accept rate; `NaN` with no impostor observations.
    pub fn far(&self) -> f64 {
        let n = self.true_rejects + self.false_accepts;
        if n == 0 {
            return f64::NAN;
        }
        self.false_accepts as f64 / n as f64
    }

    /// Balanced accuracy: the paper reports accuracy alongside FAR/FRR on
    /// class-imbalanced data (1 legitimate user vs 34 impostors), which only
    /// squares with the reported numbers when accuracy averages the
    /// per-class rates, i.e. `1 − (FAR + FRR)/2`.
    pub fn accuracy(&self) -> f64 {
        1.0 - (self.far() + self.frr()) / 2.0
    }

    /// Raw (unbalanced) accuracy over all decisions; `NaN` when empty.
    pub fn raw_accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return f64::NAN;
        }
        (self.true_accepts + self.true_rejects) as f64 / total as f64
    }

    /// Merges counts from another experiment run.
    pub fn merge(&mut self, other: &BinaryOutcomes) {
        self.true_accepts += other.true_accepts;
        self.false_rejects += other.false_rejects;
        self.true_rejects += other.true_rejects;
        self.false_accepts += other.false_accepts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_from_known_counts() {
        let o = BinaryOutcomes {
            true_accepts: 90,
            false_rejects: 10,
            true_rejects: 95,
            false_accepts: 5,
        };
        assert!((o.frr() - 0.10).abs() < 1e-12);
        assert!((o.far() - 0.05).abs() < 1e-12);
        assert!((o.accuracy() - 0.925).abs() < 1e-12);
        assert!((o.raw_accuracy() - 185.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_class_rates_are_nan() {
        let o = BinaryOutcomes::default();
        assert!(o.frr().is_nan());
        assert!(o.far().is_nan());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BinaryOutcomes::default();
        a.record(true, true);
        let mut b = BinaryOutcomes::default();
        b.record(false, false);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.true_rejects, 1);
    }
}
