//! # fdb-device — behavioural models of passive backscatter hardware
//!
//! Everything a battery-free tag is made of, modelled at the level that
//! determines link behaviour:
//!
//! * [`antenna`] — the reflection switch: two impedance states, a residual
//!   structural reflection, and the power split between the reflected and
//!   absorbed fractions. This is where the *self-interference* of
//!   full-duplex backscatter physically originates.
//! * [`detector`] — the receive chain: square-law rectifier + RC low-pass +
//!   input-referred detector noise.
//! * [`comparator`] — the hysteresis slicer that digitises the envelope.
//! * [`harvester`] — RF-harvesting front end with a sensitivity floor and
//!   saturating efficiency, feeding a storage capacitor that powers the
//!   tag's load (energy-outage experiments read this).
//! * [`oscillator`] — the cheap RC clock whose ppm error and jitter bound
//!   how long a tag can stay bit-synchronised.
//! * [`tag`] — the composed device with one configuration struct.
//!
//! No RF magic happens here: field-level combining of multiple propagation
//! paths lives in `fdb-core`, which hands each device the complex incident
//! field at its antenna.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod antenna;
pub mod comparator;
pub mod detector;
pub mod harvester;
pub mod oscillator;
pub mod tag;

pub use antenna::ReflectionSwitch;
pub use comparator::Comparator;
pub use detector::DetectorChain;
pub use harvester::{Harvester, HarvesterConfig};
pub use oscillator::TagClock;
pub use tag::{TagConfig, TagHardware};

