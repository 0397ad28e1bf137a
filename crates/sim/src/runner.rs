//! Seeded, reproducible measurement runs over one link configuration.

use crate::faults::FaultPlan;
use crate::metrics::LinkMetrics;
use fdb_channel::impairment::FrameFaults;
use fdb_core::draws::{enter_run, with_draw_ahead, DrawAhead, Tape};
use fdb_core::frame::bytes_to_bits_into;
use fdb_core::link::{FdLink, FeedbackPolicy, FrameOutcome, FrameRun, LinkConfig, RunOptions};
use fdb_core::trace::{TraceSink, TraceSinkSpec};
use fdb_core::PhyError;
use fdb_dsp::prbs::{Prbs, PrbsOrder};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What to measure and how hard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasureSpec {
    /// Frames to run.
    pub frames: u64,
    /// Payload bytes per frame (PRBS-filled, different every frame).
    pub payload_len: usize,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Whether B runs the feedback channel, and in which mode:
    /// `None` = half-duplex; `Some(false)` = live ACK status;
    /// `Some(true)` = known PRBS stream (enables feedback BER measurement).
    pub feedback_probe: Option<bool>,
    /// Where per-frame diagnostic events go ([`TraceSinkSpec::Null`] =
    /// no capture). Non-null sinks need an engine that traces
    /// ([`fdb_core::trace::ENABLED`]); requesting one in a build without
    /// it is a [`PhyError::TraceSink`] error.
    /// Older spec JSON without the field gets `Null`.
    #[serde(default)]
    pub trace: TraceSinkSpec,
    /// Scripted impairment schedule injected into the run (`None` = clean
    /// run; see [`FaultPlan`]). Older spec JSON without the field gets
    /// `None`.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
}

impl Default for MeasureSpec {
    /// 50 frames of 64 bytes, live-status full duplex, no tracing.
    fn default() -> Self {
        MeasureSpec {
            frames: 50,
            payload_len: 64,
            seed: 0,
            feedback_probe: Some(false),
            trace: TraceSinkSpec::Null,
            faults: None,
        }
    }
}

impl MeasureSpec {
    /// A quick default: 50 frames of 64 bytes, live-status full duplex.
    pub fn quick(seed: u64) -> Self {
        MeasureSpec {
            seed,
            ..MeasureSpec::default()
        }
    }

    /// Builder-style trace attachment: the returned spec routes every
    /// frame's diagnostic events into the described sink when run through
    /// [`run_link`].
    pub fn with_trace(mut self, sink: TraceSinkSpec) -> Self {
        self.trace = sink;
        self
    }

    /// Builder-style fault attachment: the returned spec injects the
    /// plan's scripted impairments when run through [`run_link`]
    /// (mirrors [`with_trace`](MeasureSpec::with_trace)). The plan is
    /// validated at run time.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// XOR salt separating the payload PRBS stream from the master seed.
const PAYLOAD_SALT: u64 = 0xBAC0_5CA7;
/// XOR salt separating the feedback-probe PRBS stream from the master seed.
const FEEDBACK_SALT: u64 = 0xFEED;

/// Derives a non-zero PRBS register seed from the master seed and a salt.
///
/// The previous expression `seed ^ SALT | 1` parsed as
/// `(seed ^ SALT) | 1` (`^` binds tighter than `|`), which forced bit 0 of
/// the derived seed. Adjacent master seeds differing only in bit 0 (e.g. 2
/// and 3) therefore produced *identical* PRBS streams. A PRBS register only
/// needs to be non-zero, so guard with `max(1)` instead of clobbering a bit.
fn prbs_seed(master: u64, salt: u64) -> u64 {
    (master ^ salt).max(1)
}

/// Per-frame observer callback: `observe(frame_index, outcome)`.
pub type FrameObserver<'a> = dyn FnMut(u64, &FrameOutcome) + 'a;

/// Per-run attachments for [`run_link`] — the single measurement entry
/// point that replaced the `measure_link` / `measure_link_traced` /
/// `measure_link_observed` / `measure_link_with_sink` variant explosion.
///
/// `LinkRun::default()` is a plain batch (spec-selected trace sink, no
/// observer, not cancellable); attach what the run needs through the
/// builder methods:
///
/// ```ignore
/// run_link(&cfg, &spec, LinkRun::new().with_observe(&mut |i, out| { ... }))?;
/// ```
#[derive(Default)]
pub struct LinkRun<'a> {
    /// Caller-owned trace sink receiving every frame's diagnostic events
    /// (frames bracketed with `begin_frame`/`end_frame`); takes precedence
    /// over `spec.trace`. The sink's recorded/dropped deltas land on
    /// `LinkMetrics::trace_events` / `trace_dropped`.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Per-frame observer: `observe(frame_index, outcome)` runs on every
    /// raw [`FrameOutcome`] before aggregation (the conformance harness
    /// asserts frame-level invariants through this).
    pub observe: Option<&'a mut FrameObserver<'a>>,
    /// Cooperative cancellation, polled before each frame: when it
    /// returns `true` the run stops with [`PhyError::Cancelled`]
    /// (partial metrics are discarded). The job service routes client
    /// cancels and per-job timeouts through this.
    pub cancel: Option<&'a dyn Fn() -> bool>,
}

impl<'a> LinkRun<'a> {
    /// A plain batch run — what [`run_link`] used to run.
    pub fn new() -> Self {
        LinkRun::default()
    }

    /// Attaches a per-frame observer.
    pub fn with_observe(mut self, observe: &'a mut FrameObserver<'a>) -> Self {
        self.observe = Some(observe);
        self
    }

    /// Attaches a cancellation predicate, polled before each frame.
    pub fn with_cancel(mut self, cancel: &'a dyn Fn() -> bool) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Streams every frame's diagnostic events into a caller-owned sink
    /// (overrides `spec.trace`).
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// Runs `spec.frames` frames over `cfg` and aggregates metrics, with the
/// [`LinkRun`] attachments (trace sink, per-frame observer, cooperative
/// cancellation).
///
/// Reproducible: identical `(cfg, spec)` produce identical metrics, and
/// attaching an observer or cancellation predicate does not perturb the
/// run's random streams. Trace capture follows `run.sink` if present,
/// else `spec.trace` (see [`MeasureSpec::with_trace`]); either way the
/// sink's recorded/dropped totals land on `LinkMetrics::trace_events` /
/// `LinkMetrics::trace_dropped`. A sink in a build whose engine cannot
/// trace ([`fdb_core::trace::ENABLED`] is `false`) is refused with
/// [`PhyError::TraceSink`] before any frame runs or any sink is built.
///
/// An untraced run whose draws do not depend on the sample index
/// ([`LinkConfig::draws_depend_on_sample_index`]) draws ahead when a core
/// is free ([`enter_run`]): a scoped helper thread makes every sample's
/// RNG draws from clones of the run's RNG and ambient source, taken right
/// after the link is built, and in its spare time the field-noise
/// Gaussians; the block engine reads them from a bounded ring and shapes
/// the noise the helper did not reach ([`fdb_core::draws`]). While later
/// runs fill the cores, the helper gives its core back and the engine
/// draws for itself. The metrics are identical bit for bit either way.
/// The helper is stopped and joined before `run_link` returns, on every
/// path: success, error, cancellation or a panicking observer.
pub fn run_link(
    cfg: &LinkConfig,
    spec: &MeasureSpec,
    run: LinkRun<'_>,
) -> Result<LinkMetrics, PhyError> {
    run_link_drawing(cfg, spec, run, DrawAhead::IfCoreFree)
}

/// [`run_link`] with the draw-ahead helper forced on (whatever the core
/// count, whenever the run may draw ahead at all) or off. The metrics are
/// the same either way; tests use this to run both paths on any machine.
#[doc(hidden)]
pub fn run_link_with_helper(
    cfg: &LinkConfig,
    spec: &MeasureSpec,
    run: LinkRun<'_>,
    helper: bool,
) -> Result<LinkMetrics, PhyError> {
    let want = if helper { DrawAhead::Always } else { DrawAhead::Inline };
    run_link_drawing(cfg, spec, run, want)
}

fn run_link_drawing(
    cfg: &LinkConfig,
    spec: &MeasureSpec,
    run: LinkRun<'_>,
    want: DrawAhead,
) -> Result<LinkMetrics, PhyError> {
    let LinkRun { sink, observe, cancel } = run;
    if (sink.is_some() || !spec.trace.is_null()) && !fdb_core::trace::ENABLED {
        return Err(PhyError::TraceSink {
            reason: "the run requests a trace sink, but this build lacks `fdb-core/trace`".into(),
        });
    }
    let mut built;
    let sink = match sink {
        None if !spec.trace.is_null() => {
            built = spec.trace.build(cfg.phy.trace_ring_capacity())?;
            Some(built.as_mut() as &mut dyn TraceSink)
        }
        // Shortens the caller's sink borrow to the one built above.
        sink => sink.map(|s| s as &mut dyn TraceSink),
    };
    if let Some(plan) = &spec.faults {
        plan.validate().map_err(|reason| PhyError::InvalidConfig {
            field: "faults",
            reason,
        })?;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut link = FdLink::new(cfg.clone(), &mut rng)?;
    let may_draw_ahead = sink.is_none() && !cfg.draws_depend_on_sample_index();
    let slot = enter_run(if may_draw_ahead { want } else { DrawAhead::Inline });
    if !slot.helper() {
        return run_link_inner(spec, &mut link, &mut rng, None, observe, cancel, sink);
    }
    let plan = link.draw_plan().clone();
    with_draw_ahead(&slot, rng.clone(), plan, |tape| {
        run_link_inner(spec, &mut link, &mut rng, tape, observe, cancel, sink)
    })
}

/// The measurement loop. With a sink present, each frame runs through
/// [`FdLink::run_frame_into`] bracketed by the sink's frame markers, the
/// trace counters are set from the sink's deltas, and the sink's backend
/// error is surfaced; otherwise each frame is a plain run.
///
/// The loop owns one of everything — outcome, payload buffer, fault
/// engine, BER staging — and re-arms it per frame, so after the first
/// (warmup) frame the steady state performs no heap allocation
/// (`tests/alloc_steady_state.rs` pins this with a counting allocator).
/// With a draw-ahead tape, each frame runs on the block engine reading
/// its draws from the tape instead of `rng`.
fn run_link_inner(
    spec: &MeasureSpec,
    link: &mut FdLink,
    rng: &mut ChaCha8Rng,
    mut tape: Option<&mut Tape<'_>>,
    mut observe: Option<&mut FrameObserver<'_>>,
    cancel: Option<&dyn Fn() -> bool>,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<LinkMetrics, PhyError> {
    let cfg = link.config();
    let mut payload_gen = Prbs::new(PrbsOrder::Prbs23, prbs_seed(spec.seed, PAYLOAD_SALT));
    let mut fb_gen = Prbs::new(PrbsOrder::Prbs15, prbs_seed(spec.seed, FEEDBACK_SALT));
    let mut metrics = LinkMetrics::default();

    let fb_bits_per_frame = fdb_core::frame::feedback_bits_in_frame(&cfg.phy, spec.payload_len);

    // One of everything, re-armed per frame: the run's steady state reuses
    // these buffers (and the link's own scratch arena) instead of
    // reallocating them.
    let mut out = FrameOutcome::default();
    let mut payload: Vec<u8> = Vec::new();
    let mut fb_expected: Vec<bool> = Vec::new();
    let mut sent_bits: Vec<bool> = Vec::new();
    let mut recv_bits: Vec<bool> = Vec::new();
    let mut fault_engine = FrameFaults::new(Vec::new(), 0);
    let mut opts = match spec.feedback_probe {
        None => RunOptions::half_duplex(),
        Some(false) => RunOptions::fd_monitor(),
        Some(true) => RunOptions {
            feedback: FeedbackPolicy::Stream(Vec::new()),
            abort_on_nack: false,
        },
    };
    let sink_start = sink.as_deref_mut().map(|s| {
        s.reserve(cfg.phy.trace_ring_capacity());
        (s.events_recorded(), s.events_dropped())
    });

    for frame_idx in 0..spec.frames {
        if let Some(cancelled) = cancel {
            if cancelled() {
                return Err(PhyError::Cancelled {
                    frames_done: frame_idx,
                });
            }
        }
        payload_gen.bytes_into(spec.payload_len.max(1), &mut payload);
        let probing = if let FeedbackPolicy::Stream(bits) = &mut opts.feedback {
            fb_gen.bits_into(fb_bits_per_frame.max(1), bits);
            fb_expected.clear();
            fb_expected.extend_from_slice(bits);
            true
        } else {
            false
        };
        let has_faults = match &spec.faults {
            Some(plan) => plan.frame_faults_into(frame_idx, &mut fault_engine),
            None => false,
        };
        let mut frame = FrameRun::faulted(has_faults.then_some(&mut fault_engine));
        if let Some(s) = sink.as_deref_mut() {
            s.begin_frame(frame_idx);
            frame = frame.with_sink(s);
        }
        match tape.as_deref_mut() {
            Some(tape) => {
                link.run_frame_block_into(&payload, &opts, tape, frame.faults, &mut out)?
            }
            None => link.run_frame_into(&payload, &opts, rng, frame, &mut out)?,
        }
        if let Some(s) = sink.as_deref_mut() {
            s.end_frame();
        }
        if let Some(observe) = observe.as_deref_mut() {
            observe(frame_idx, &out);
        }
        metrics.faults.merge(&out.fault_activations);
        metrics.frames += 1;
        if out.b_locked {
            metrics.locked += 1;
        }
        if out.pilots_verified {
            metrics.pilots_ok += 1;
        }
        metrics.sync_attempts += out.sync_attempts as u64;
        metrics.sync_rejections += out.sync_rejections as u64;
        metrics.airtime_samples += out.airtime_samples as u64;
        metrics.elapsed_samples += out.samples_run as u64;
        metrics.energy_a_j += out.energy.a_consumed_j;
        metrics.energy_b_j += out.energy.b_consumed_j;
        metrics.harvested_b_j += out.energy.b_harvested_j;
        if let Some(res) = &out.delivered {
            metrics.decoded += 1;
            metrics.blocks_total += res.blocks.len() as u64;
            metrics.blocks_ok += res.blocks.iter().filter(|b| b.ok).count() as u64;
            if out.fully_delivered() {
                metrics.fully_delivered += 1;
            }
            sent_bits.clear();
            recv_bits.clear();
            bytes_to_bits_into(&payload, &mut sent_bits);
            bytes_to_bits_into(&res.payload, &mut recv_bits);
            metrics.data_ber.record_slice(&sent_bits, &recv_bits);
        }
        if probing && out.pilots_verified {
            recv_bits.clear();
            recv_bits.extend(out.feedback.iter().map(|f| f.bit));
            let n = fb_expected.len().min(recv_bits.len());
            metrics
                .feedback_ber
                .record_slice(&fb_expected[..n], &recv_bits[..n]);
        }
    }
    if let (Some(s), Some((e0, d0))) = (sink, sink_start) {
        metrics.trace_events = s.events_recorded() - e0;
        metrics.trace_dropped = s.events_dropped() - d0;
        if let Some(reason) = s.io_error() {
            return Err(PhyError::TraceSink { reason });
        }
    }
    Ok(metrics)
}

/// Derives a per-point seed from a master seed and a point index
/// (splitmix). Re-exported from [`fdb_core::seed`], where it moved so the
/// MAC layer can share the same seed lineage.
pub use fdb_core::seed::derive_seed;

/// Draws `n` payload bytes from an RNG (utility for MAC experiments).
pub fn random_payload<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ambient::AmbientConfig;
    use fdb_core::trace::DEFAULT_TRACE_CAPACITY;

    fn clean_cfg() -> LinkConfig {
        let mut cfg = LinkConfig::default_fd();
        cfg.ambient = AmbientConfig::Cw;
        cfg.field_noise_dbm = -160.0;
        cfg
    }

    #[test]
    fn clean_link_measures_perfect() {
        let spec = MeasureSpec {
            frames: 5,
            payload_len: 32,
            seed: 9,
            feedback_probe: Some(false),
            trace: Default::default(),
            faults: None,
        };
        let m = run_link(&clean_cfg(), &spec, LinkRun::new()).unwrap();
        assert_eq!(m.frames, 5);
        assert_eq!(m.fully_delivered, 5);
        assert_eq!(m.data_ber.errors(), 0);
        assert!(m.data_ber.bits() >= 5 * 32 * 8);
    }

    #[test]
    fn reproducible_from_seed() {
        let spec = MeasureSpec::quick(77);
        let mut cfg = LinkConfig::default_fd();
        cfg.geometry.device_dist_m = 0.55;
        let spec = MeasureSpec { frames: 6, ..spec };
        let a = run_link(&cfg, &spec, LinkRun::new()).unwrap();
        let b = run_link(&cfg, &spec, LinkRun::new()).unwrap();
        assert_eq!(a.data_ber.errors(), b.data_ber.errors());
        assert_eq!(a.fully_delivered, b.fully_delivered);
        assert_eq!(a.airtime_samples, b.airtime_samples);
    }

    #[test]
    fn different_seeds_differ_on_noisy_link() {
        let mut cfg = LinkConfig::default_fd();
        cfg.geometry.device_dist_m = 0.6;
        let a = run_link(&cfg, &MeasureSpec { frames: 6, payload_len: 64, seed: 1, feedback_probe: Some(false), trace: Default::default(), faults: None }, LinkRun::new()).unwrap();
        let b = run_link(&cfg, &MeasureSpec { frames: 6, payload_len: 64, seed: 2, feedback_probe: Some(false), trace: Default::default(), faults: None }, LinkRun::new()).unwrap();
        assert_ne!(
            (a.data_ber.errors(), a.blocks_ok),
            (b.data_ber.errors(), b.blocks_ok)
        );
    }

    #[test]
    fn feedback_probe_measures_fb_ber() {
        let spec = MeasureSpec {
            frames: 4,
            payload_len: 96,
            seed: 3,
            feedback_probe: Some(true),
            trace: Default::default(),
            faults: None,
        };
        let m = run_link(&clean_cfg(), &spec, LinkRun::new()).unwrap();
        assert!(m.feedback_ber.bits() > 0, "no feedback bits measured");
        assert_eq!(m.feedback_ber.errors(), 0, "clean link fb errors");
    }

    #[test]
    fn half_duplex_probe_has_no_feedback() {
        let spec = MeasureSpec {
            frames: 2,
            payload_len: 32,
            seed: 4,
            feedback_probe: None,
            trace: Default::default(),
            faults: None,
        };
        let m = run_link(&clean_cfg(), &spec, LinkRun::new()).unwrap();
        assert_eq!(m.feedback_ber.bits(), 0);
        assert_eq!(m.pilots_ok, 0);
        assert_eq!(m.fully_delivered, 2);
    }

    /// A traced request's result when the engine traces, else `None`
    /// after asserting the typed refusal.
    fn traced_or_refused<T>(res: Result<T, PhyError>) -> Option<T> {
        if fdb_core::trace::ENABLED {
            return Some(res.expect("a tracing engine accepts the sink"));
        }
        assert!(matches!(res, Err(PhyError::TraceSink { .. })));
        None
    }

    /// The benchmark harness tells a build that traces from one that
    /// does not by exactly this call: a zero-frame run asking for a
    /// one-event ring.
    /// It must be refused without `fdb-core/trace` (or every benchmark run
    /// would abort), and accepted, recording events, with it.
    #[test]
    fn trace_requests_follow_the_engine_capability() {
        let probe = MeasureSpec {
            frames: 0,
            trace: TraceSinkSpec::Ring { capacity: Some(1) },
            ..MeasureSpec::default()
        };
        let accepted = run_link(&LinkConfig::default_fd(), &probe, LinkRun::new());
        let accepted = traced_or_refused(accepted);
        assert_eq!(accepted.map(|m| m.frames), fdb_core::trace::ENABLED.then_some(0));
        // A caller-owned sink follows the same contract: events recorded
        // with the feature, untouched without it.
        let mut sink = fdb_core::trace::RingSink::new(DEFAULT_TRACE_CAPACITY);
        let one = MeasureSpec { frames: 1, ..MeasureSpec::quick(1) };
        let traced = run_link(&clean_cfg(), &one, LinkRun::new().with_sink(&mut sink));
        let traced = traced_or_refused(traced);
        let recorded = sink.trace().len() as u64;
        assert_eq!(sink.trace().dropped(), 0);
        assert_eq!(traced.map(|m| m.trace_events), fdb_core::trace::ENABLED.then_some(recorded));
        assert_eq!(sink.trace().is_empty(), !fdb_core::trace::ENABLED);
    }

    #[test]
    fn sink_spec_populates_trace_counters() {
        let spec = MeasureSpec {
            frames: 2,
            payload_len: 16,
            seed: 5,
            feedback_probe: Some(false),
            trace: TraceSinkSpec::Ring {
                capacity: Some(DEFAULT_TRACE_CAPACITY),
            },
            faults: None,
        };
        let Some(m) = traced_or_refused(run_link(&clean_cfg(), &spec, LinkRun::new())) else {
            return;
        };
        assert_eq!(m.frames, 2);
        assert!(m.trace_events > 0, "no events reached the sink");
        assert_eq!(m.trace_dropped, 0);
        // The null spec leaves the counters at zero.
        let m = run_link(&clean_cfg(), &MeasureSpec { trace: TraceSinkSpec::Null, ..spec }, LinkRun::new()).unwrap();
        assert_eq!(m.trace_events, 0);
    }

    #[test]
    fn with_trace_builder_does_not_perturb_metrics() {
        let base = MeasureSpec {
            frames: 3,
            payload_len: 32,
            seed: 11,
            feedback_probe: Some(false),
            trace: Default::default(),
            faults: None,
        };
        let plain = run_link(&clean_cfg(), &base, LinkRun::new()).unwrap();
        let ring = base.clone().with_trace(TraceSinkSpec::Ring { capacity: Some(64) });
        let Some(traced) = traced_or_refused(run_link(&clean_cfg(), &ring, LinkRun::new())) else {
            return;
        };
        assert_eq!(plain.fully_delivered, traced.fully_delivered);
        assert_eq!(plain.airtime_samples, traced.airtime_samples);
        assert_eq!(plain.data_ber.errors(), traced.data_ber.errors());
        assert!(traced.trace_events > 0);
    }

    #[test]
    fn adjacent_master_seeds_yield_distinct_prbs_streams() {
        // Regression: master seeds 2 and 3 differ only in bit 0, which the
        // old `seed ^ SALT | 1` derivation forced to 1 — both masters fed
        // identical PRBS registers and every "independent" run replayed the
        // same payloads and feedback probes.
        let mut a = Prbs::new(PrbsOrder::Prbs23, prbs_seed(2, PAYLOAD_SALT));
        let mut b = Prbs::new(PrbsOrder::Prbs23, prbs_seed(3, PAYLOAD_SALT));
        assert_ne!(a.bytes(64), b.bytes(64), "payload streams collide");
        let mut a = Prbs::new(PrbsOrder::Prbs15, prbs_seed(2, FEEDBACK_SALT));
        let mut b = Prbs::new(PrbsOrder::Prbs15, prbs_seed(3, FEEDBACK_SALT));
        assert_ne!(a.bits(64), b.bits(64), "feedback streams collide");
    }

    #[test]
    fn prbs_seed_never_zero() {
        // master == salt would zero the register and stall the PRBS.
        assert_eq!(prbs_seed(PAYLOAD_SALT, PAYLOAD_SALT), 1);
        assert_eq!(prbs_seed(FEEDBACK_SALT, FEEDBACK_SALT), 1);
    }

    #[test]
    fn derive_seed_disperses() {
        let s: Vec<u64> = (0..100).map(|i| derive_seed(42, i)).collect();
        let unique: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(unique.len(), 100);
    }
}
