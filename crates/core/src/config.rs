use serde::{Deserialize, Serialize};

use crate::features::DeviceSet;
use crate::CoreError;

/// Whether authentication uses per-context models or one unified model —
/// the context ablation axis of Table VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContextMode {
    /// One model trained on all windows regardless of context
    /// ("w/o context" rows).
    Unified,
    /// One model per detected coarse context ("w/ context" rows) — the
    /// deployed configuration.
    PerContext,
}

impl ContextMode {
    /// Both modes, unified first (Table VII row order).
    pub const ALL: [ContextMode; 2] = [ContextMode::Unified, ContextMode::PerContext];

    /// Display name matching Table VII.
    pub fn name(&self) -> &'static str {
        match self {
            ContextMode::Unified => "w/o context",
            ContextMode::PerContext => "w/ context",
        }
    }
}

/// Deployment parameters of the SmarterYou system (§V's design choices).
///
/// Defaults are the paper's deployed configuration: 6-second windows at
/// 50 Hz, 800-window training sets, per-context KRR with the identity
/// kernel, phone + watch features.
///
/// # Example
///
/// ```
/// use smarteryou_core::{ContextMode, DeviceSet, SystemConfig};
///
/// let cfg = SystemConfig::paper_default()
///     .with_window_secs(8.0)
///     .with_device_set(DeviceSet::PhoneOnly);
/// assert_eq!(cfg.window_secs(), 8.0);
/// assert_eq!(cfg.context_mode(), ContextMode::PerContext);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    window_secs: f64,
    sample_rate: f64,
    data_size: usize,
    rho: f64,
    accept_threshold: f64,
    context_mode: ContextMode,
    device_set: DeviceSet,
}

impl SystemConfig {
    /// The deployed configuration from the paper's design study.
    pub fn paper_default() -> Self {
        SystemConfig {
            window_secs: 6.0,      // §V-F3: stable beyond 6 s
            sample_rate: 50.0,     // §V-A
            data_size: 800,        // §V-F3: accuracy peaks near 800
            rho: 1.0,              // ridge parameter of Eq. 5
            accept_threshold: 0.2, // security-leaning operating point (§V-F3)
            context_mode: ContextMode::PerContext,
            device_set: DeviceSet::Combined,
        }
    }

    /// Window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Sensor sampling rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Samples per window.
    pub fn window_samples(&self) -> usize {
        (self.window_secs * self.sample_rate).round().max(1.0) as usize
    }

    /// Total training windows per model (positives + negatives).
    pub fn data_size(&self) -> usize {
        self.data_size
    }

    /// Ridge parameter ρ of Eq. 5.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Decision threshold on the confidence score; scores at or above it
    /// accept the user. The default (0.2) is the security-leaning operating
    /// point that lands the paper's FRR/FAR balance (§V-F3 argues a large
    /// FAR is more harmful than a large FRR).
    pub fn accept_threshold(&self) -> f64 {
        self.accept_threshold
    }

    /// Context handling mode.
    pub fn context_mode(&self) -> ContextMode {
        self.context_mode
    }

    /// Device ablation choice.
    pub fn device_set(&self) -> DeviceSet {
        self.device_set
    }

    /// Sets the window length.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not strictly positive.
    pub fn with_window_secs(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "window length must be positive");
        self.window_secs = secs;
        self
    }

    /// Sets the sampling rate.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive.
    pub fn with_sample_rate(mut self, hz: f64) -> Self {
        assert!(hz > 0.0, "sample rate must be positive");
        self.sample_rate = hz;
        self
    }

    /// Sets the training-set size (total windows, both classes).
    ///
    /// # Panics
    ///
    /// Panics if `n < 20` (too small for stratified 10-fold CV).
    pub fn with_data_size(mut self, n: usize) -> Self {
        assert!(n >= 20, "data size too small");
        self.data_size = n;
        self
    }

    /// Sets the ridge parameter.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not strictly positive and finite.
    pub fn with_rho(mut self, rho: f64) -> Self {
        assert!(rho.is_finite() && rho > 0.0, "rho must be positive");
        self.rho = rho;
        self
    }

    /// Sets the acceptance threshold.
    pub fn with_accept_threshold(mut self, t: f64) -> Self {
        self.accept_threshold = t;
        self
    }

    /// Sets the context mode.
    pub fn with_context_mode(mut self, mode: ContextMode) -> Self {
        self.context_mode = mode;
        self
    }

    /// Sets the device ablation.
    pub fn with_device_set(mut self, devices: DeviceSet) -> Self {
        self.device_set = devices;
        self
    }

    /// Validates every field the `with_*` builders assert on, plus
    /// cross-field consistency (window must hold at least a few samples
    /// for the DFT features to exist). A decoded snapshot bypasses the
    /// builders, so this is the check that keeps its configuration in
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the window length, the
    /// sampling rate or ρ is not finite and positive, the training-set
    /// size is below 20, or the window is too short.
    pub fn validate(&self) -> Result<(), CoreError> {
        for (name, value) in [
            ("window length", self.window_secs),
            ("sample rate", self.sample_rate),
            ("rho", self.rho),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be finite and positive, got {value}"
                )));
            }
        }
        if self.data_size < 20 {
            return Err(CoreError::InvalidConfig(format!(
                "data size {} is too small (at least 20)",
                self.data_size
            )));
        }
        if self.window_samples() < 8 {
            return Err(CoreError::InvalidConfig(format!(
                "window of {} samples is too short for spectral features",
                self.window_samples()
            )));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_design_study() {
        let cfg = SystemConfig::paper_default();
        assert_eq!(cfg.window_secs(), 6.0);
        assert_eq!(cfg.sample_rate(), 50.0);
        assert_eq!(cfg.window_samples(), 300);
        assert_eq!(cfg.data_size(), 800);
        assert_eq!(cfg.context_mode(), ContextMode::PerContext);
        assert_eq!(cfg.device_set(), DeviceSet::Combined);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_update_fields() {
        let cfg = SystemConfig::paper_default()
            .with_window_secs(2.0)
            .with_sample_rate(100.0)
            .with_data_size(200)
            .with_rho(0.5)
            .with_accept_threshold(0.0)
            .with_context_mode(ContextMode::Unified)
            .with_device_set(DeviceSet::WatchOnly);
        assert_eq!(cfg.window_samples(), 200);
        assert_eq!(cfg.rho(), 0.5);
        assert_eq!(cfg.accept_threshold(), 0.0);
        assert_eq!(cfg.context_mode().name(), "w/o context");
    }

    #[test]
    fn too_short_window_fails_validation() {
        let cfg = SystemConfig::paper_default()
            .with_window_secs(0.1)
            .with_sample_rate(50.0);
        assert!(matches!(cfg.validate(), Err(CoreError::InvalidConfig(_))));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        SystemConfig::paper_default().with_window_secs(0.0);
    }
}
