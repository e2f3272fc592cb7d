//! Synthetic smartphone + smartwatch sensor substrate for the SmarterYou
//! reproduction.
//!
//! The original paper evaluates on two weeks of free-form sensor data from
//! 35 human participants carrying a Nexus 5 and a Moto 360 — data we do not
//! have. This crate substitutes a **generative user population model**: each
//! simulated user is a draw of biomechanical and habit parameters (gait
//! cadence and shape, device pose, micro-gesture energy, tremor), and sensor
//! windows are synthesized from those parameters plus session effects,
//! environmental noise, behavioural drift and occasional outliers.
//!
//! Main entry points:
//!
//! * [`Population`] — generate the 35-participant study population
//!   (Figure 2 demographics).
//! * [`TraceGenerator`] — produce [`DualDeviceWindow`]s per context,
//!   session and day.
//! * [`MimicryAttacker`] — masquerading adversaries for the §V-G attack.
//! * [`PowerModel`] — the battery accounting behind Table VIII.
//!
//! # Example
//!
//! ```
//! use smarteryou_sensors::{Population, RawContext, TraceGenerator, WindowSpec};
//!
//! let population = Population::generate(35, 42);
//! let owner = population.users()[0].clone();
//! let mut gen = TraceGenerator::new(owner, 7);
//! let windows = gen.generate_windows(RawContext::MovingAround, WindowSpec::default(), 10);
//! assert_eq!(windows.len(), 10);
//! ```

mod attacker;
mod battery;
mod context;
mod demographics;
mod drift;
mod generator;
mod population;
mod profile;
pub(crate) mod rand_util;
mod types;

pub use attacker::MimicryAttacker;
pub use battery::{PowerModel, PowerScenario};
pub use context::{RawContext, UsageContext};
pub use demographics::{
    assign_demographics, AgeBand, Demographics, Gender, AGE_COUNTS, GENDER_COUNTS,
};
pub use drift::{DriftState, DriftTarget};
pub use generator::{GeneratorConfig, TraceGenerator, WindowSpec};
pub use population::Population;
pub use profile::{UserId, UserProfile, GRAVITY};
pub use types::{DeviceKind, DualDeviceWindow, SensorKind, SensorWindow, SAMPLE_RATE_HZ};
