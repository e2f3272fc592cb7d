//! Integration tests asserting the *shape* of the paper's headline results
//! at a reduced scale. The simulator is tuned to the paper's bands by the
//! population constants in `crates/sensors/src/profile.rs` (`calibration`)
//! and the generator's noise scale (`GeneratorConfig::noise_scale`); the
//! `calibrate` bin (`crates/bench/src/bin/calibrate.rs`) prints the
//! headline numbers at a chosen scale. These span all crates: simulator →
//! features → ML → experiment harness.

use smarteryou::core::experiment::{
    collect_population_features, evaluate_authentication, ExperimentConfig,
};
use smarteryou::core::{ContextMode, DeviceSet};
use smarteryou::ml::Algorithm;

/// Shared reduced-scale config: large enough for the orderings to be
/// stable, small enough for CI.
fn shape_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default();
    cfg.num_users = 14;
    cfg.windows_per_context = 160;
    cfg.data_size = 240;
    cfg.window_secs = 4.0;
    cfg.repeats = 1;
    cfg
}

#[test]
fn table7_ordering_holds() {
    let cfg = shape_cfg();
    let data = collect_population_features(&cfg);
    let eval = |device, mode| {
        evaluate_authentication(&data, &cfg, device, mode, Algorithm::Krr).accuracy()
    };
    let phone_unified = eval(DeviceSet::PhoneOnly, ContextMode::Unified);
    let combo_unified = eval(DeviceSet::Combined, ContextMode::Unified);
    let phone_ctx = eval(DeviceSet::PhoneOnly, ContextMode::PerContext);
    let combo_ctx = eval(DeviceSet::Combined, ContextMode::PerContext);

    // Paper's Table VII ordering: context helps, the second device helps,
    // and the deployed configuration is the best of the four.
    assert!(
        combo_ctx > phone_ctx,
        "combination {combo_ctx} should beat phone-only {phone_ctx} (w/ context)"
    );
    assert!(
        combo_unified > phone_unified,
        "combination {combo_unified} should beat phone-only {phone_unified} (w/o context)"
    );
    assert!(
        combo_ctx > combo_unified,
        "context {combo_ctx} should beat unified {combo_unified} (combination)"
    );
    assert!(
        phone_ctx > phone_unified,
        "context {phone_ctx} should beat unified {phone_unified} (phone)"
    );
    // Bands (generous at reduced scale): deployed config in the high 90s,
    // unified phone-only well below.
    assert!(combo_ctx > 0.93, "deployed accuracy {combo_ctx}");
    assert!(
        phone_unified < 0.93,
        "weakest config accuracy {phone_unified}"
    );
}

#[test]
fn table6_algorithm_ordering_holds() {
    let cfg = shape_cfg();
    let data = collect_population_features(&cfg);
    let eval = |alg| {
        evaluate_authentication(
            &data,
            &cfg,
            DeviceSet::Combined,
            ContextMode::PerContext,
            alg,
        )
        .accuracy()
    };
    let krr = eval(Algorithm::Krr);
    let nb = eval(Algorithm::NaiveBayes);
    let lin = eval(Algorithm::LinearRegression);

    // Paper's Table VI shape: the regularised kernel method clearly beats
    // the unregularised and independence-assuming baselines.
    assert!(krr > nb, "KRR {krr} should beat naive Bayes {nb}");
    assert!(krr > lin, "KRR {krr} should beat linear regression {lin}");
}
