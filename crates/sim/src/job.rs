//! The unified serde job surface: one [`JobSpec`] enum covering every
//! long-running computation the workspace knows how to run — link
//! measurements ([`MeasureSpec`]), fault-conformance grids
//! ([`crate::matrix`]), and adaptive-MAC scenario / ablation sessions
//! ([`ScenarioSpec`] / [`AblationPair`]) — so the job service, the probe
//! CLI, and tests all speak the same typed protocol.
//!
//! ## Content addressing
//!
//! Every job carries its full input (link config, spec, seeds) inside the
//! enum, so its canonical JSON form *is* the `(PhyConfig, JobSpec, seed)`
//! tuple the determinism work guarantees byte-exact results for. A job's
//! [`content_hash`](JobSpec::content_hash) — the 128-bit
//! [`ContentHash`] of that canonical form under the [`JobSpec::HASH_DOMAIN`]
//! version prefix — therefore addresses its result: same hash, same
//! result bytes. The service's on-disk cache is keyed by exactly this
//! hash, and `tests/job_hash.rs` pins golden hash vectors so a serde
//! reshape breaks CI instead of silently cold-starting (or aliasing) the
//! cache.
//!
//! ## Execution
//!
//! [`JobSpec::run`] executes any job with a [`RunControl`]: cooperative
//! cancellation (polled between frames / grid cells), coarse progress
//! callbacks, and — for link jobs — a caller-owned [`TraceSink`]
//! receiving the run's event stream (refused with `PhyError::TraceSink`
//! unless [`fdb_core::trace::ENABLED`]).

use crate::city::{CityEngine, CityReport, CityScenarioSpec};
use crate::matrix::{class_plans, run_cell, MatrixCell};
use crate::metrics::LinkMetrics;
use crate::runner::{run_link, LinkRun, MeasureSpec};
use crate::scenario::{AblationPair, PairOutcome, ScenarioSpec};
use fdb_core::hash::ContentHash;
use fdb_core::link::LinkConfig;
use fdb_core::trace::TraceSink;
use fdb_core::PhyError;
use fdb_mac::scenario::AdaptationReport;
use serde::{Deserialize, Serialize};

/// One labelled scenario of a matrix grid (a named `(link, spec)` pair).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixScenario {
    /// Label carried into each [`MatrixCell`].
    pub label: String,
    /// The link to measure.
    pub link: LinkConfig,
    /// How to measure it.
    pub spec: MeasureSpec,
}

/// One labelled fault plan of a matrix grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NamedPlan {
    /// Label carried into each [`MatrixCell`].
    pub label: String,
    /// The scripted schedule.
    pub plan: crate::faults::FaultPlan,
}

/// Any job the service can run, fully described in serde.
///
/// Externally tagged (`{"Link":{...}}`), like every workspace enum, and
/// self-contained: configs, specs, and seeds all travel inside, so the
/// canonical JSON of a `JobSpec` determines its result byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobSpec {
    /// One seeded link measurement ([`run_link`]).
    Link {
        /// The link to measure.
        link: LinkConfig,
        /// How to measure it (frames, payload, seed, faults, trace).
        spec: MeasureSpec,
    },
    /// A PhyConfig × FaultPlan conformance grid
    /// ([`crate::matrix::run_matrix`]).
    Matrix {
        /// The grid's scenarios (rows).
        scenarios: Vec<MatrixScenario>,
        /// The grid's fault plans (columns). Empty = the six built-in
        /// per-class plans seeded from `plan_seed`.
        #[serde(default)]
        plans: Vec<NamedPlan>,
        /// Seed for the built-in class plans when `plans` is empty.
        #[serde(default)]
        plan_seed: u64,
    },
    /// One adaptive-MAC session ([`ScenarioSpec::run`]).
    Scenario {
        /// The session to run.
        spec: ScenarioSpec,
    },
    /// One adaptive-vs-oblivious ablation pair ([`AblationPair::run`]).
    Ablation {
        /// The pair to run.
        pair: AblationPair,
    },
    /// One event-driven city-scale run ([`crate::city::CityEngine`]).
    City {
        /// The scenario to simulate.
        spec: CityScenarioSpec,
    },
}

/// A completed job's typed result (the `Serialize` side only — results
/// are compared and cached as canonical JSON bytes, never re-parsed into
/// floats).
#[derive(Debug, Clone, Serialize)]
// Results are built once per job and immediately serialized; the variant
// size spread (Link's inline LinkMetrics vs Scenario's Vec) never sits in
// a hot collection, so boxing would only complicate the serde surface.
#[allow(clippy::large_enum_variant)]
pub enum JobResult {
    /// Result of a [`JobSpec::Link`] job.
    Link {
        /// Aggregate metrics of the run.
        metrics: LinkMetrics,
    },
    /// Result of a [`JobSpec::Matrix`] job.
    Matrix {
        /// One cell per scenario × plan grid point, row-major.
        cells: Vec<MatrixCell>,
    },
    /// Result of a [`JobSpec::Scenario`] job.
    Scenario {
        /// The session's report.
        report: AdaptationReport,
    },
    /// Result of a [`JobSpec::Ablation`] job.
    Ablation {
        /// Both arms' reports and the margin verdict.
        outcome: PairOutcome,
    },
    /// Result of a [`JobSpec::City`] job.
    City {
        /// Per-tag ledgers, totals, and scheduler statistics.
        report: CityReport,
    },
}

/// Coarse progress of a running job, in job-specific units (frames for
/// link jobs, grid cells for matrices, arms for scenario/ablation jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobProgress {
    /// Units completed.
    pub done: u64,
    /// Total units in the job.
    pub total: u64,
}

/// Per-run attachments for [`JobSpec::run`] — the job-level analogue of
/// [`LinkRun`].
#[derive(Default)]
pub struct RunControl<'a> {
    /// Cooperative cancellation, polled between frames (link jobs) or
    /// grid cells (matrix jobs); scenario/ablation jobs poll it only
    /// between arms. When it returns `true` the run stops with
    /// [`PhyError::Cancelled`].
    pub cancel: Option<&'a dyn Fn() -> bool>,
    /// Progress callback, invoked after each completed unit.
    pub progress: Option<&'a mut dyn FnMut(JobProgress)>,
    /// Caller-owned trace sink for [`JobSpec::Link`] jobs (frames
    /// bracketed with `begin_frame`/`end_frame`, overriding the spec's
    /// own `trace` selection). Ignored by the other job kinds, whose
    /// aggregate results have no per-frame event stream to expose.
    pub sink: Option<&'a mut dyn TraceSink>,
}

impl<'a> RunControl<'a> {
    /// No cancellation, no progress, no sink.
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Attaches a cancellation predicate.
    pub fn with_cancel(mut self, cancel: &'a dyn Fn() -> bool) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a progress callback.
    pub fn with_progress(mut self, progress: &'a mut dyn FnMut(JobProgress)) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Attaches a trace sink (link jobs only).
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }
}

impl JobSpec {
    /// Version prefix of the job content-address space. Bump it when the
    /// canonical form of any job input type changes shape — every address
    /// changes, so stale cache entries go unreachable instead of aliasing.
    pub const HASH_DOMAIN: &'static str = "fdb-job-v1";

    /// The job's stable 128-bit content address: the [`ContentHash`] of
    /// its canonical JSON under [`JobSpec::HASH_DOMAIN`]. Equal hashes ⇒
    /// byte-identical results (determinism); the result cache is keyed by
    /// this.
    pub fn content_hash(&self) -> ContentHash {
        ContentHash::of_canonical(Self::HASH_DOMAIN, self)
    }

    /// A short human label for progress displays and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Link { .. } => "link",
            JobSpec::Matrix { .. } => "matrix",
            JobSpec::Scenario { .. } => "scenario",
            JobSpec::Ablation { .. } => "ablation",
            JobSpec::City { .. } => "city",
        }
    }

    /// Total progress units [`JobSpec::run`] will report for this job.
    pub fn progress_total(&self) -> u64 {
        match self {
            JobSpec::Link { spec, .. } => spec.frames,
            JobSpec::Matrix {
                scenarios, plans, ..
            } => {
                let cols = if plans.is_empty() { 6 } else { plans.len() };
                (scenarios.len() * cols) as u64
            }
            JobSpec::Scenario { .. } => 1,
            JobSpec::Ablation { .. } => 2,
            // City runs report simulated-time percent, not event counts
            // (total events aren't known up front).
            JobSpec::City { .. } => 100,
        }
    }

    /// Cheap structural validation, run by the service before queueing so
    /// malformed jobs are rejected at submit time, not at run time.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobSpec::Link { link, spec } => {
                link.validate().map_err(|e| format!("link job: {e}"))?;
                if spec.frames == 0 {
                    return Err("link job: spec.frames must be ≥ 1".into());
                }
                if let Some(plan) = &spec.faults {
                    plan.validate().map_err(|e| format!("link job: {e}"))?;
                }
                Ok(())
            }
            JobSpec::Matrix {
                scenarios, plans, ..
            } => {
                if scenarios.is_empty() {
                    return Err("matrix job: at least one scenario required".into());
                }
                for sc in scenarios {
                    sc.link
                        .validate()
                        .map_err(|e| format!("matrix scenario '{}': {e}", sc.label))?;
                }
                for named in plans {
                    named
                        .plan
                        .validate()
                        .map_err(|e| format!("matrix plan '{}': {e}", named.label))?;
                }
                Ok(())
            }
            JobSpec::Scenario { spec } => {
                spec.session
                    .validate()
                    .map_err(|e| format!("scenario '{}': {e}", spec.label))?;
                spec.resolve_plan()
                    .map_err(|e| format!("scenario '{}': {e}", spec.label))?;
                Ok(())
            }
            JobSpec::Ablation { pair } => {
                pair.adaptive
                    .validate()
                    .map_err(|e| format!("ablation '{}' adaptive arm: {e}", pair.label))?;
                pair.oblivious
                    .validate()
                    .map_err(|e| format!("ablation '{}' oblivious arm: {e}", pair.label))?;
                Ok(())
            }
            JobSpec::City { spec } => spec
                .validate()
                .map_err(|e| format!("city '{}': {e}", spec.label)),
        }
    }

    /// Runs the job to completion (or cancellation) under `ctrl`.
    ///
    /// Deterministic: identical specs produce byte-identical serialized
    /// results regardless of the attached control surface — observers,
    /// progress callbacks, and cancellation predicates never perturb the
    /// run's random streams. The exception is a link job with a trace
    /// sink attached (via `ctrl` or `spec.trace`): its metrics carry the
    /// sink's event counters, so traced and untraced runs of the same
    /// spec agree on every field *except* `trace_events`/`trace_dropped`.
    pub fn run(&self, ctrl: RunControl<'_>) -> Result<JobResult, PhyError> {
        let RunControl {
            cancel,
            mut progress,
            sink,
        } = ctrl;
        let total = self.progress_total();
        let tick = |done: u64, progress: &mut Option<&mut dyn FnMut(JobProgress)>| {
            if let Some(p) = progress.as_deref_mut() {
                p(JobProgress { done, total });
            }
        };
        let cancelled = |done: u64| -> Result<(), PhyError> {
            match cancel {
                Some(c) if c() => Err(PhyError::Cancelled { frames_done: done }),
                _ => Ok(()),
            }
        };
        match self {
            JobSpec::Link { link, spec } => {
                let mut run = LinkRun::new();
                if let Some(c) = cancel {
                    run = run.with_cancel(c);
                }
                if let Some(s) = sink {
                    run = run.with_sink(s);
                }
                let mut observe;
                if progress.is_some() {
                    let p = progress.as_deref_mut().expect("checked above");
                    observe = move |frame: u64, _: &fdb_core::link::FrameOutcome| {
                        p(JobProgress {
                            done: frame + 1,
                            total,
                        });
                    };
                    run = run.with_observe(&mut observe);
                }
                let metrics = run_link(link, spec, run)?;
                Ok(JobResult::Link { metrics })
            }
            JobSpec::Matrix {
                scenarios,
                plans,
                plan_seed,
            } => {
                let named: Vec<(String, crate::faults::FaultPlan)> = if plans.is_empty() {
                    class_plans(*plan_seed)
                        .into_iter()
                        .map(|(l, p)| (l.to_string(), p))
                        .collect()
                } else {
                    plans
                        .iter()
                        .map(|n| (n.label.clone(), n.plan.clone()))
                        .collect()
                };
                let mut cells = Vec::with_capacity(scenarios.len() * named.len());
                for scenario in scenarios {
                    for (plan_label, plan) in &named {
                        cancelled(cells.len() as u64)?;
                        cells.push(run_cell(
                            &scenario.label,
                            &scenario.link,
                            &scenario.spec,
                            plan_label,
                            plan,
                        )?);
                        tick(cells.len() as u64, &mut progress);
                    }
                }
                Ok(JobResult::Matrix { cells })
            }
            JobSpec::Scenario { spec } => {
                cancelled(0)?;
                let report = spec.run()?;
                tick(1, &mut progress);
                Ok(JobResult::Scenario { report })
            }
            JobSpec::Ablation { pair } => {
                cancelled(0)?;
                let outcome = pair.run()?;
                tick(2, &mut progress);
                Ok(JobResult::Ablation { outcome })
            }
            JobSpec::City { spec } => {
                let mut engine = CityEngine::new();
                let mut report = CityReport::default();
                let mut forward = |p: JobProgress| {
                    if let Some(pr) = progress.as_deref_mut() {
                        pr(p);
                    }
                };
                engine.run_ctl(spec, &mut report, cancel, &mut forward)?;
                Ok(JobResult::City { report })
            }
        }
    }
}

impl JobResult {
    /// The result's canonical JSON — the exact bytes the service caches
    /// and replays for repeated jobs.
    pub fn canonical_json(&self) -> String {
        fdb_core::hash::canonical_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ambient::AmbientConfig;

    fn link_job(seed: u64) -> JobSpec {
        let mut link = LinkConfig::default_fd();
        link.ambient = AmbientConfig::Cw;
        link.field_noise_dbm = -160.0;
        JobSpec::Link {
            link,
            spec: MeasureSpec {
                frames: 3,
                payload_len: 16,
                seed,
                ..MeasureSpec::default()
            },
        }
    }

    #[test]
    fn hash_is_stable_across_calls_and_sensitive_to_seed() {
        let a = link_job(1);
        assert_eq!(a.content_hash(), a.content_hash());
        assert_eq!(a.content_hash(), link_job(1).content_hash());
        assert_ne!(a.content_hash(), link_job(2).content_hash());
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let job = link_job(7);
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.content_hash(), job.content_hash());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn run_is_deterministic_and_reports_progress() {
        let job = link_job(5);
        let mut seen = Vec::new();
        let mut progress = |p: JobProgress| seen.push(p);
        let a = job
            .run(RunControl::new().with_progress(&mut progress))
            .unwrap();
        let b = job.run(RunControl::new()).unwrap();
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(
            seen,
            vec![
                JobProgress { done: 1, total: 3 },
                JobProgress { done: 2, total: 3 },
                JobProgress { done: 3, total: 3 },
            ]
        );
    }

    #[test]
    fn cancel_stops_a_link_job() {
        let job = link_job(5);
        let cancel = || true;
        let err = job
            .run(RunControl::new().with_cancel(&cancel))
            .unwrap_err();
        assert!(matches!(err, PhyError::Cancelled { frames_done: 0 }));
    }

    #[test]
    fn matrix_defaults_to_class_plans() {
        let JobSpec::Link { link, spec } = link_job(2) else {
            unreachable!()
        };
        let job = JobSpec::Matrix {
            scenarios: vec![MatrixScenario {
                label: "default".into(),
                link,
                spec,
            }],
            plans: Vec::new(),
            plan_seed: 9,
        };
        assert_eq!(job.progress_total(), 6);
        job.validate().unwrap();
        let JobResult::Matrix { cells } = job.run(RunControl::new()).unwrap() else {
            panic!("wrong result kind")
        };
        assert_eq!(cells.len(), 6);
        for cell in &cells {
            assert!(cell.violations.is_empty(), "{:?}", cell.violations);
        }
    }

    #[test]
    fn city_job_round_trips_runs_and_cancels() {
        let job = JobSpec::City {
            spec: CityScenarioSpec {
                label: "job-test".into(),
                n_active: 4,
                sim_duration_s: 400.0,
                mean_interarrival_s: 30.0,
                ..CityScenarioSpec::default()
            },
        };
        assert_eq!(job.kind(), "city");
        job.validate().unwrap();
        let json = serde_json::to_string(&job).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.content_hash(), job.content_hash());

        let a = job.run(RunControl::new()).unwrap();
        let b = job.run(RunControl::new()).unwrap();
        assert_eq!(a.canonical_json(), b.canonical_json());
        let JobResult::City { report } = a else {
            panic!("wrong result kind")
        };
        assert!(report.totals.conserved());
        assert!(report.totals.offered > 0);

        // Cancellation is polled every few thousand events, so use a run
        // long enough to hit a poll point.
        let big = JobSpec::City {
            spec: CityScenarioSpec {
                label: "job-cancel".into(),
                n_active: 64,
                sim_duration_s: 3600.0,
                mean_interarrival_s: 5.0,
                ..CityScenarioSpec::default()
            },
        };
        let cancel = || true;
        let err = big
            .run(RunControl::new().with_cancel(&cancel))
            .unwrap_err();
        assert!(matches!(err, PhyError::Cancelled { .. }));

        let bad = JobSpec::City {
            spec: CityScenarioSpec {
                pool: 0,
                ..CityScenarioSpec::default()
            },
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_malformed_jobs() {
        let JobSpec::Link { link, mut spec } = link_job(2) else {
            unreachable!()
        };
        spec.frames = 0;
        assert!(JobSpec::Link {
            link: link.clone(),
            spec
        }
        .validate()
        .is_err());
        assert!(JobSpec::Matrix {
            scenarios: Vec::new(),
            plans: Vec::new(),
            plan_seed: 0
        }
        .validate()
        .is_err());
        // An unbounded tag table is refused at submit, never allocated.
        let city = JobSpec::City {
            spec: CityScenarioSpec {
                n_active: u32::MAX,
                ..CityScenarioSpec::default()
            },
        };
        assert!(city.validate().unwrap_err().contains("n_active"));
    }
}
