//! # fdb-sim — reproducible scenario running, sweeping and reporting
//!
//! The bridge between the sample-level PHY/MAC and the experiment harness:
//!
//! * [`metrics`] — aggregation types (BER counters with confidence
//!   intervals, delivery/energy/airtime tallies).
//! * [`runner`] — runs N frames of a scenario with a seeded RNG and
//!   produces [`metrics::LinkMetrics`]; every run is reproducible
//!   bit-for-bit from `(config, seed)`.
//! * [`faults`] — scripted impairment plans ([`faults::FaultPlan`])
//!   injected into a run at deterministic frame/sample offsets, seeded
//!   stochastic plan generators ([`faults::FaultGen`]), plus the
//!   invariant checks the fault-conformance harness asserts.
//! * [`scenario`] — serde specs for end-to-end adaptive-MAC sessions
//!   ([`scenario::ScenarioSpec`]) and adaptive-vs-oblivious ablation
//!   pairs ([`scenario::AblationPair`]) with margin gates.
//! * [`matrix`] — the PhyConfig × FaultPlan conformance grid
//!   ([`matrix::run_matrix`]), moved here from `fdb-bench` so the job
//!   service can run grids without depending on the experiment harness.
//! * [`job`] — the unified serde job surface ([`job::JobSpec`]): one
//!   enum covering link measurements, fault-matrix grids, MAC
//!   scenario/ablation sessions and city-scale runs, with a stable
//!   content address per job for result caching.
//! * [`city`] — event-driven city-scale simulation
//!   ([`city::CityEngine`]): thousands of harvesting tags contending
//!   through the FD feedback primitives, idle tags costing ~zero, every
//!   tag's trajectory keyed independently so active-tag ledgers are
//!   invariant to the idle population.
//! * [`sweep`] — order-preserving parallel parameter sweeps on
//!   `std::thread::scope` workers (one seed per point, derived
//!   deterministically).
//! * [`report`] — CSV and markdown emitters used by every experiment
//!   binary, so EXPERIMENTS.md tables regenerate byte-identically.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod city;
pub mod faults;
pub mod job;
pub mod matrix;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sweep;

pub use city::{CityEngine, CityFidelity, CityReport, CityScenarioSpec, TagLedger};
pub use faults::{check_frame_invariants, check_link_invariants, FaultGen, FaultPlan, FaultSpec};
pub use job::{JobProgress, JobResult, JobSpec, MatrixScenario, NamedPlan, RunControl};
pub use matrix::MatrixCell;
pub use scenario::{AblationPair, FaultSource, PairOutcome, ScenarioSpec};
pub use metrics::LinkMetrics;
pub use runner::{run_link, LinkRun, MeasureSpec};
pub use sweep::parallel_sweep;
