use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// When to retrain the authentication models (§V-I).
///
/// The paper's rule: retrain when the confidence score of an authenticated
/// user stays below a threshold `ε_CS` for a period of time. We implement
/// the "period of low scores" test robustly as a **rolling median** over the
/// last `period` windows: occasional outlier windows (a bump produces an
/// extreme score) neither trigger nor suppress retraining.
///
/// Attacker safety (§V-I): a trigger additionally requires the rolling
/// median to be non-negative *and* rejections to be rare within the window.
/// An attacker's windows are overwhelmingly rejected (negative scores), so
/// he cannot steer the system into retraining on his data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetrainPolicy {
    /// The confidence threshold `ε_CS` (the paper uses 0.2).
    pub threshold: f64,
    /// Rolling-window length in windows.
    pub period: usize,
    /// Maximum fraction of rejected (negative-score) windows tolerated
    /// inside the rolling window.
    pub max_reject_fraction: f64,
}

impl Default for RetrainPolicy {
    fn default() -> Self {
        RetrainPolicy {
            threshold: 0.2,
            period: 30,
            max_reject_fraction: 0.4,
        }
    }
}

/// Tracks the time series of confidence scores and decides when retraining
/// is warranted (the right-hand plot of Figure 7).
///
/// The retrain decision only ever reads the rolling window of the last
/// `period` scores; the `(day, score)` history exists for the Figure 7
/// plots. At one window a minute an unbounded history grows by ~500k
/// entries a year — and rides along in every pipeline snapshot — so it is
/// ring-buffered to [`ConfidenceTracker::history_retention`] entries: the
/// runtime default keeps just the rolling window's worth, and experiment
/// harnesses that plot the series opt into a larger retention with
/// [`ConfidenceTracker::with_history_retention`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConfidenceTracker {
    policy: RetrainPolicy,
    recent: VecDeque<f64>,
    since_retrain: usize,
    /// Ring of the last `retention` scores; a deque so the one-in-one-out
    /// at the cap is O(1) whatever the retention (serialized as a plain
    /// JSON array either way).
    history: VecDeque<(f64, f64)>,
    retention: usize,
}

/// Hand-written so snapshots written before the history ring existed (no
/// `retention` field) still parse: they restore with the default retention
/// and an over-long legacy history is truncated to its most recent
/// entries. The vendored serde derive has no `#[serde(default)]`.
impl serde::Deserialize for ConfidenceTracker {
    fn deserialize<D: serde::Deserializer>(d: &mut D) -> Result<Self, serde::DeError> {
        use serde::__private::{decode_fields, required};
        const TY: &str = "ConfidenceTracker";
        decode_fields!(d, TY, policy, recent, since_retrain, history, retention);
        let policy: RetrainPolicy = required(policy, TY, "policy")?;
        let retention = retention.unwrap_or(policy.period);
        let mut history: VecDeque<(f64, f64)> = required(history, TY, "history")?;
        if history.len() > retention {
            history.drain(..history.len() - retention);
        }
        Ok(ConfidenceTracker {
            policy,
            recent: required(recent, TY, "recent")?,
            since_retrain: required(since_retrain, TY, "since_retrain")?,
            history,
            retention,
        })
    }
}

impl ConfidenceTracker {
    /// Creates a tracker with the given policy and the default history
    /// retention (one rolling window's worth of entries).
    ///
    /// # Panics
    ///
    /// Panics if the policy period is zero.
    pub fn new(policy: RetrainPolicy) -> Self {
        assert!(policy.period > 0, "retrain period must be positive");
        ConfidenceTracker {
            policy,
            recent: VecDeque::with_capacity(policy.period),
            since_retrain: 0,
            history: VecDeque::new(),
            retention: policy.period,
        }
    }

    /// Overrides how many `(day, score)` history entries are retained for
    /// plotting (the retrain decision never reads beyond the rolling
    /// window). Experiment harnesses regenerating Figure 7 pass a retention
    /// covering the whole run; truncates immediately if already over.
    pub fn with_history_retention(mut self, retention: usize) -> Self {
        self.retention = retention;
        if self.history.len() > retention {
            self.history.drain(..self.history.len() - retention);
        }
        self
    }

    /// The configured history ring size.
    pub fn history_retention(&self) -> usize {
        self.retention
    }

    /// The active policy.
    pub fn policy(&self) -> &RetrainPolicy {
        &self.policy
    }

    /// Records the confidence score of one window at simulated `day`.
    /// Returns `true` when the rolling window signals sustained low-but-
    /// legitimate confidence — the caller should retrain and then call
    /// [`ConfidenceTracker::mark_retrained`].
    pub fn record(&mut self, day: f64, confidence: f64) -> bool {
        if self.retention > 0 {
            if self.history.len() == self.retention {
                self.history.pop_front();
            }
            self.history.push_back((day, confidence));
        }
        if self.recent.len() == self.policy.period {
            self.recent.pop_front();
        }
        self.recent.push_back(confidence);
        self.since_retrain += 1;
        if self.recent.len() < self.policy.period || self.since_retrain < self.policy.period {
            return false;
        }
        let vals: Vec<f64> = self.recent.iter().copied().collect();
        let med = smarteryou_stats::median(&vals);
        let reject_fraction = vals.iter().filter(|&&v| v < 0.0).count() as f64 / vals.len() as f64;
        med >= 0.0
            && med < self.policy.threshold
            && reject_fraction <= self.policy.max_reject_fraction
    }

    /// Resets the rolling window after a retrain (history is kept).
    pub fn mark_retrained(&mut self) {
        self.recent.clear();
        self.since_retrain = 0;
    }

    /// Scores currently held in the rolling window (`0..=period`). Together
    /// with [`ConfidenceTracker::windows_since_retrain`] this is the
    /// mid-retrain state a pipeline snapshot must carry: a tracker restored
    /// with a half-full window must trigger on exactly the same future
    /// window as one that never left memory.
    pub fn rolling_len(&self) -> usize {
        self.recent.len()
    }

    /// Windows recorded since the last retrain (or since creation, before
    /// the first retrain).
    pub fn windows_since_retrain(&self) -> usize {
        self.since_retrain
    }

    /// Number of below-threshold scores currently in the rolling window.
    pub fn below_count(&self) -> usize {
        self.recent
            .iter()
            .filter(|&&v| v < self.policy.threshold)
            .count()
    }

    /// Retained `(day, confidence)` history, oldest first (the most recent
    /// [`ConfidenceTracker::history_retention`] entries).
    pub fn history(&self) -> &VecDeque<(f64, f64)> {
        &self.history
    }

    /// Mean confidence per integer day.
    pub fn daily_means(&self) -> Vec<(u32, f64)> {
        let mut sums: std::collections::BTreeMap<u32, (f64, usize)> = Default::default();
        for &(day, cs) in &self.history {
            let e = sums.entry(day.floor() as u32).or_insert((0.0, 0));
            e.0 += cs;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(d, (sum, n))| (d, sum / n as f64))
            .collect()
    }

    /// Median confidence per integer day — the series plotted in Figure 7.
    /// (Median, not mean: the occasional bump/drop window produces an
    /// extreme score that would dominate a daily mean.)
    pub fn daily_medians(&self) -> Vec<(u32, f64)> {
        let mut by_day: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for &(day, cs) in &self.history {
            by_day.entry(day.floor() as u32).or_default().push(cs);
        }
        by_day
            .into_iter()
            .map(|(d, vals)| (d, smarteryou_stats::median(&vals)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(period: usize) -> ConfidenceTracker {
        ConfidenceTracker::new(RetrainPolicy {
            threshold: 0.2,
            period,
            max_reject_fraction: 0.2,
        })
    }

    #[test]
    fn healthy_scores_never_trigger() {
        let mut t = tracker(3);
        for i in 0..20 {
            assert!(!t.record(i as f64 * 0.1, 0.8));
        }
        assert_eq!(t.below_count(), 0);
    }

    #[test]
    fn sustained_low_scores_trigger() {
        let mut t = tracker(3);
        assert!(!t.record(0.0, 0.1));
        assert!(!t.record(0.1, 0.15));
        assert!(t.record(0.2, 0.05), "window full of low scores triggers");
        t.mark_retrained();
        // After retraining the window must refill before triggering again.
        assert!(!t.record(0.3, 0.1));
        assert!(!t.record(0.4, 0.1));
        assert!(t.record(0.5, 0.1));
    }

    #[test]
    fn single_outlier_does_not_mask_the_trend() {
        let mut t = tracker(5);
        // Four low scores and one huge outlier: median still low → trigger.
        t.record(0.0, 0.1);
        t.record(0.1, 0.12);
        t.record(0.2, 40.0);
        t.record(0.3, 0.08);
        assert!(t.record(0.4, 0.1));
    }

    #[test]
    fn recovery_keeps_the_median_high() {
        let mut t = tracker(3);
        t.record(0.0, 0.1);
        // Majority-healthy window: median 0.9 → no trigger.
        assert!(!t.record(0.1, 0.9));
        assert!(!t.record(0.2, 0.9));
    }

    #[test]
    fn attacker_rejections_cannot_trigger_retraining() {
        // Mostly-negative scores: median negative → blocked.
        let mut t = tracker(4);
        for i in 0..40 {
            assert!(!t.record(i as f64, -0.5), "attacker window {i}");
        }
        // Mixed accept/reject: reject fraction 50% > 20% → still blocked.
        let mut t = tracker(4);
        for i in 0..40 {
            let cs = if i % 2 == 0 { 0.1 } else { -0.4 };
            assert!(!t.record(i as f64, cs), "alternating window {i}");
        }
    }

    #[test]
    fn daily_series_aggregate_by_day() {
        let mut t = tracker(100);
        t.record(0.2, 1.0);
        t.record(0.8, 0.5);
        t.record(1.1, 0.3);
        let means = t.daily_means();
        assert_eq!(means.len(), 2);
        assert!((means[0].1 - 0.75).abs() < 1e-12);
        let medians = t.daily_medians();
        assert!((medians[0].1 - 0.75).abs() < 1e-12);
        assert!((medians[1].1 - 0.3).abs() < 1e-12);
        assert_eq!(t.history().len(), 3);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_is_rejected() {
        tracker(0);
    }

    #[test]
    fn history_is_ring_buffered_to_the_retention() {
        let mut t = tracker(4); // default retention = period = 4
        assert_eq!(t.history_retention(), 4);
        for i in 0..10 {
            t.record(i as f64 * 0.01, 0.5 + i as f64);
        }
        // Only the last four (day, score) pairs survive; the rolling
        // window and trigger logic are unaffected by the trim.
        assert_eq!(t.history().len(), 4);
        assert!((t.history()[0].1 - 6.5).abs() < 1e-12);
        assert!((t.history()[3].1 - 9.5).abs() < 1e-12);
        assert_eq!(t.rolling_len(), 4);
    }

    #[test]
    fn custom_retention_keeps_more_and_truncates_on_shrink() {
        let mut t = tracker(3).with_history_retention(100);
        for i in 0..50 {
            t.record(i as f64, 0.5);
        }
        assert_eq!(t.history().len(), 50);
        let t = t.with_history_retention(10);
        assert_eq!(t.history().len(), 10);
        assert!((t.history()[0].0 - 40.0).abs() < 1e-12);
        // Zero retention keeps no plot history at all (pure runtime mode).
        let mut t = tracker(3).with_history_retention(0);
        assert!(!t.record(0.0, 0.1));
        assert!(t.history().is_empty());
        assert_eq!(t.rolling_len(), 1, "rolling window still tracks");
    }
}
