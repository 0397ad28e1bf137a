//! The sample-synchronous two-device full-duplex backscatter link.
//!
//! [`FdLink`] holds everything physical about one scenario — ambient
//! source, the three propagation paths, and two tag devices — and runs one
//! frame at a time through it:
//!
//! ```text
//!                ambient source S
//!               /               \
//!          h_SA                 h_SB
//!             /                    \
//!   device A ───────── h_AB ───────── device B
//!   (data TX,                        (data RX,
//!    feedback RX)                     feedback TX)
//! ```
//!
//! Per sample, the field at each device is assembled coherently from the
//! direct path, the other device's first-order backscatter, and the
//! second-order bounce (A→B→A / B→A→B); both devices then detect, harvest,
//! and act. The source enters through its instantaneous power only — valid
//! because every receiver is an envelope detector and all paths share one
//! source (see `fdb_ambient::power`).
//!
//! The link is deliberately *not* a MAC: it runs exactly one frame, with an
//! optional abort-on-NACK reflex, and reports everything a MAC needs
//! (delivery, per-block status, feedback timeline, airtime, energy).
//!
//! Two frame engines share those semantics byte-for-byte: the per-sample
//! reference loop ([`FdLink::run_frame_reference`], also the `trace`-build
//! engine, whose probes need every sample) and the segmented block
//! pipeline ([`FdLink::run_frame_block`], the non-trace `run_frame`
//! engine). See `run_frame_block`'s docs for the edges that split blocks.

use crate::config::PhyConfig;
use crate::error::PhyError;
use crate::frame::HEADER_BITS;
use crate::rx::{DataReceiver, RxResult, RxState};
use crate::scratch::LinkScratch;
use crate::sic::SelfInterferenceCanceller;
#[cfg(feature = "trace")]
use crate::trace::{FrameTrace, RingSink, TraceEvent, TraceSink};
use crate::tx::DataTransmitter;
use fdb_ambient::{Ambient, AmbientConfig};
use fdb_channel::awgn::Awgn;
use fdb_channel::fading::Fading;
use fdb_channel::impairment::{FaultActivations, FaultEffects, FrameFaults};
use fdb_channel::link::Hop;
use fdb_channel::pathloss::PathLoss;
use fdb_device::{TagConfig, TagHardware};
use fdb_dsp::resample::Resampler;
use fdb_dsp::sample::dbm_to_watts;
use fdb_dsp::Iq;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Physical placement and propagation models for one link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkGeometry {
    /// Ambient source transmit power in dBm.
    pub source_power_dbm: f64,
    /// Source → device A distance (metres).
    pub source_dist_a_m: f64,
    /// Source → device B distance (metres).
    pub source_dist_b_m: f64,
    /// Device A ↔ device B distance (metres).
    pub device_dist_m: f64,
    /// Path loss model for the source hops.
    pub pathloss_source: PathLoss,
    /// Path loss model for the device↔device hop.
    pub pathloss_device: PathLoss,
    /// Fading on the source hops.
    pub fading_source: Fading,
    /// Fading on the device hop (reciprocal).
    pub fading_device: Fading,
}

impl LinkGeometry {
    /// The default evaluation scenario: a 60 dBm TV tower 1 km away, two
    /// devices 0.5 m apart, static channels. (The 2013-era prototypes
    /// reached ~0.76 m at 1 kbps — the sub-metre regime is the honest one.)
    pub fn default_indoor() -> Self {
        LinkGeometry {
            source_power_dbm: 60.0,
            source_dist_a_m: 1000.0,
            source_dist_b_m: 1000.0,
            device_dist_m: 0.5,
            pathloss_source: PathLoss::tv_band(),
            pathloss_device: PathLoss::FreeSpace { freq_hz: 539e6 },
            fading_source: Fading::Static,
            fading_device: Fading::Static,
        }
    }

    /// Swaps the two devices' positions (for reverse-direction frames).
    pub fn swapped(mut self) -> Self {
        std::mem::swap(&mut self.source_dist_a_m, &mut self.source_dist_b_m);
        self
    }
}

/// Everything needed to build an [`FdLink`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkConfig {
    /// PHY parameters.
    pub phy: PhyConfig,
    /// Physical scenario.
    pub geometry: LinkGeometry,
    /// Ambient excitation model.
    pub ambient: AmbientConfig,
    /// Device A (data transmitter / feedback receiver).
    pub tag_a: TagConfig,
    /// Device B (data receiver / feedback transmitter).
    pub tag_b: TagConfig,
    /// Field noise at each device's antenna.
    pub field_noise_dbm: f64,
    /// Advance block fading every this many data bits (0 = frozen).
    pub fading_advance_bits: usize,
    /// Seed for the ambient source's internal symbol stream.
    pub ambient_seed: u64,
}

impl LinkConfig {
    /// Default full evaluation configuration: wideband TV substitution
    /// (k = 300 ≈ 6 MHz / 20 kHz), ρ_A = 0.4 data, ρ_B = 0.2 feedback.
    pub fn default_fd() -> Self {
        let phy = PhyConfig::default_fd();
        let dt = phy.sample_period_s();
        let mut tag_a = TagConfig::typical(dt);
        tag_a.rho = 0.4;
        let mut tag_b = TagConfig::typical(dt);
        tag_b.rho = 0.2;
        LinkConfig {
            phy,
            geometry: LinkGeometry::default_indoor(),
            ambient: AmbientConfig::TvWideband { k_factor: 300.0 },
            tag_a,
            tag_b,
            field_noise_dbm: -110.0,
            fading_advance_bits: 0,
            ambient_seed: 1,
        }
    }

    /// Rejects a config the link cannot simulate: an invalid PHY
    /// ([`PhyConfig::validate`]) or path-loss model
    /// ([`PathLoss::validate`]), a geometry distance that is negative or
    /// not finite, or a non-finite source power or field noise level.
    pub fn validate(&self) -> Result<(), PhyError> {
        self.phy.validate()?;
        let bad =
            |field: &'static str, reason: String| Err(PhyError::InvalidConfig { field, reason });
        let g = &self.geometry;
        for (field, d) in [
            ("source_dist_a_m", g.source_dist_a_m),
            ("source_dist_b_m", g.source_dist_b_m),
            ("device_dist_m", g.device_dist_m),
        ] {
            if !(d.is_finite() && d >= 0.0) {
                return bad(field, format!("{d} not in [0, ∞)"));
            }
        }
        if !g.source_power_dbm.is_finite() {
            return bad("source_power_dbm", "must be finite".into());
        }
        if !self.field_noise_dbm.is_finite() {
            return bad("field_noise_dbm", "must be finite".into());
        }
        for (field, model) in [
            ("pathloss_source", &g.pathloss_source),
            ("pathloss_device", &g.pathloss_device),
        ] {
            model
                .validate()
                .map_err(|reason| PhyError::InvalidConfig { field, reason })?;
        }
        for (field, tag) in [("tag_a", &self.tag_a), ("tag_b", &self.tag_b)] {
            tag.validate()
                .map_err(|reason| PhyError::InvalidConfig { field, reason })?;
        }
        self.ambient
            .validate()
            .map_err(|reason| PhyError::InvalidConfig { field: "ambient", reason })?;
        Ok(())
    }

    /// The same link rebuilt at a different chip rate: a copy of this
    /// config with `phy.samples_per_chip` replaced. This is how a rate
    /// switch is applied between frames — the physical scenario (geometry,
    /// ambient, tags, noise) is untouched; only the chip clock moves. The
    /// caller rebuilds the [`FdLink`] from the returned config with a
    /// seed-derived RNG so the switch never perturbs later frames' noise
    /// lineage (see [`crate::seed::derive_seed`]).
    pub fn at_samples_per_chip(&self, samples_per_chip: usize) -> Self {
        let mut cfg = self.clone();
        cfg.phy.samples_per_chip = samples_per_chip;
        cfg
    }

    /// Overwrites `self` with `source` while reusing `self`'s heap
    /// buffers where possible (the PHY preamble via
    /// [`PhyConfig::copy_from`]; every other field is `Copy`).
    /// Semantically identical to `*self = source.clone()`.
    pub fn copy_from(&mut self, source: &LinkConfig) {
        self.phy.copy_from(&source.phy);
        self.geometry = source.geometry;
        self.ambient = source.ambient;
        self.tag_a = source.tag_a;
        self.tag_b = source.tag_b;
        self.field_noise_dbm = source.field_noise_dbm;
        self.fading_advance_bits = source.fading_advance_bits;
        self.ambient_seed = source.ambient_seed;
    }
}

/// How device B drives its feedback stream during a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedbackPolicy {
    /// B never toggles — the half-duplex baseline.
    Silent,
    /// B sends this exact bit sequence after the pilots (PHY experiments).
    Stream(Vec<bool>),
    /// B streams its live block status: `true` = all blocks OK so far.
    AckStatus,
}

/// Options for one frame run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Feedback policy at B.
    pub feedback: FeedbackPolicy,
    /// A aborts the frame when a verified feedback bit reports NACK.
    pub abort_on_nack: bool,
}

impl RunOptions {
    /// Full-duplex with live status and early abort.
    pub fn fd_early_abort() -> Self {
        RunOptions {
            feedback: FeedbackPolicy::AckStatus,
            abort_on_nack: true,
        }
    }

    /// Full-duplex status stream, no abort (measurement runs).
    pub fn fd_monitor() -> Self {
        RunOptions {
            feedback: FeedbackPolicy::AckStatus,
            abort_on_nack: false,
        }
    }

    /// Half-duplex baseline.
    pub fn half_duplex() -> Self {
        RunOptions {
            feedback: FeedbackPolicy::Silent,
            abort_on_nack: false,
        }
    }
}

/// Per-run attachments for [`FdLink::run_frame_with`] and its
/// buffer-reusing twin [`FdLink::run_frame_into`] — the frame entry
/// points that replaced the `run_frame_faulted` /
/// `run_frame_faulted_into` variant explosion.
///
/// `FrameRun::default()` is a clean, ring-traced frame (identical to
/// [`FdLink::run_frame`]); attach what the run needs through the
/// constructors:
///
/// ```ignore
/// link.run_frame_with(&payload, &opts, &mut rng, FrameRun::faulted(Some(&mut faults)))?;
/// ```
#[derive(Default)]
pub struct FrameRun<'a> {
    /// Scripted impairment schedule injected into the channel path
    /// (`None` = clean frame). Faults draw randomness only from the
    /// engine's own deterministic generator, never from the run's `rng`.
    pub faults: Option<&'a mut FrameFaults>,
    /// Caller-owned trace sink receiving the frame's diagnostic events
    /// instead of the outcome's in-memory ring (`FrameOutcome::trace`
    /// stays an empty placeholder). The caller owns frame bracketing:
    /// call `sink.begin_frame` / `sink.end_frame` around the run.
    #[cfg(feature = "trace")]
    pub sink: Option<&'a mut dyn TraceSink>,
}

impl<'a> FrameRun<'a> {
    /// A clean, ring-traced frame — what [`FdLink::run_frame`] runs.
    pub fn clean() -> Self {
        FrameRun::default()
    }

    /// A frame with an optional fault schedule attached.
    pub fn faulted(faults: Option<&'a mut FrameFaults>) -> Self {
        FrameRun {
            faults,
            #[cfg(feature = "trace")]
            sink: None,
        }
    }

    /// Streams the frame's diagnostic events into `sink` instead of the
    /// outcome's in-memory ring.
    #[cfg(feature = "trace")]
    pub fn with_sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// Energy totals for one frame run (joules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy consumed by A.
    pub a_consumed_j: f64,
    /// Energy consumed by B.
    pub b_consumed_j: f64,
    /// Energy harvested by A.
    pub a_harvested_j: f64,
    /// Energy harvested by B.
    pub b_harvested_j: f64,
}

/// One decoded feedback bit with its arrival time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackEvent {
    /// Simulation sample index at which the bit was decided.
    pub sample: usize,
    /// The decoded bit (`true` = ACK in [`FeedbackPolicy::AckStatus`]).
    pub bit: bool,
    /// Decision margin (envelope units).
    pub margin: f64,
}

/// Result of one frame run.
#[derive(Debug, Clone)]
pub struct FrameOutcome {
    /// B's reception result (None if B never locked or header failed).
    pub delivered: Option<RxResult>,
    /// Whether B's receiver had left `Acquiring` when the frame ended.
    /// That is a committed (verified) preamble lock, or `Failed` once the
    /// re-arm budget ran out: a frame whose every candidate lock was
    /// rejected then reads `true`. A rejection with re-arms to spare
    /// (including a header-CRC re-arm of a committed lock) returns B to
    /// `Acquiring`, so it only reads `true` if B locked again afterwards.
    pub b_locked: bool,
    /// Candidate locks B's searcher declared during the frame (committed
    /// and rejected).
    pub sync_attempts: usize,
    /// Candidate locks rejected by two-stage verification (peak shape,
    /// flat history, preamble re-decode, or header CRC).
    pub sync_rejections: usize,
    /// Feedback bits decoded at A, in order.
    pub feedback: Vec<FeedbackEvent>,
    /// Whether A's decoder verified the feedback pilots.
    pub pilots_verified: bool,
    /// Sample at which A aborted, if it did.
    pub aborted_at_sample: Option<usize>,
    /// Samples during which A actually held the channel (airtime).
    pub airtime_samples: usize,
    /// Total samples simulated (airtime + tail).
    pub samples_run: usize,
    /// Energy ledger.
    pub energy: EnergyReport,
    /// B's final NACK state.
    pub nack: bool,
    /// Payload bytes of the blocks B completed, even when the frame was
    /// aborted or truncated (equals the delivered payload for finished
    /// frames). Partial-retransmission MACs consume this.
    pub partial_payload: Vec<u8>,
    /// Verdicts of the blocks B completed (see `partial_payload`).
    pub partial_blocks: Vec<crate::frame::BlockStatus>,
    /// Net whole-sample timing corrections B's DLL applied (diagnostics).
    pub rx_timing_corrections: i64,
    /// Highest preamble correlation B observed (even when it never locked).
    pub rx_sync_peak: f64,
    /// Scripted faults whose windows actually opened during this frame
    /// (all zero unless the frame ran with an injection schedule — see
    /// [`FrameRun::faulted`]).
    pub fault_activations: FaultActivations,
    /// Per-stage diagnostic event trace of the frame (`trace` feature).
    #[cfg(feature = "trace")]
    pub trace: FrameTrace,
}

impl Default for FrameOutcome {
    /// An empty outcome, ready to be filled by
    /// [`FdLink::run_frame_into`]. Cheap: no buffer is preallocated (the
    /// first frame run grows them — the reuse contract's warmup).
    fn default() -> Self {
        FrameOutcome {
            delivered: None,
            b_locked: false,
            sync_attempts: 0,
            sync_rejections: 0,
            feedback: Vec::new(),
            pilots_verified: false,
            aborted_at_sample: None,
            airtime_samples: 0,
            samples_run: 0,
            energy: EnergyReport::default(),
            nack: false,
            partial_payload: Vec::new(),
            partial_blocks: Vec::new(),
            rx_timing_corrections: 0,
            rx_sync_peak: 0.0,
            fault_activations: FaultActivations::default(),
            #[cfg(feature = "trace")]
            trace: FrameTrace::new(1),
        }
    }
}

impl FrameOutcome {
    /// Count of correctly delivered blocks.
    pub fn blocks_ok(&self) -> usize {
        self.delivered
            .as_ref()
            .map(|r| r.blocks.iter().filter(|b| b.ok).count())
            .unwrap_or(0)
    }

    /// Count of blocks in the frame as received.
    pub fn blocks_total(&self) -> usize {
        self.delivered.as_ref().map(|r| r.blocks.len()).unwrap_or(0)
    }

    /// `true` when every block arrived intact.
    pub fn fully_delivered(&self) -> bool {
        self.delivered
            .as_ref()
            .map(|r| !r.blocks.is_empty() && r.blocks.iter().all(|b| b.ok))
            .unwrap_or(false)
    }
}

/// Hard cap on block-pipeline segment length, in samples. Bounds the
/// per-link scratch buffers; segments are usually shorter because fault
/// edges, fading epochs, feedback-bit boundaries and the acquisition guard
/// all split blocks first.
const SEG_MAX: usize = 4096;

/// The two-device full-duplex link simulator.
pub struct FdLink {
    cfg: LinkConfig,
    source: Ambient,
    hop_sa: Hop,
    hop_sb: Hop,
    hop_ab: Hop,
    tag_a: TagHardware,
    tag_b: TagHardware,
    noise: Awgn,
    source_amp: f64,
    scratch: LinkScratch,
}

impl FdLink {
    /// Builds a link; initial fading states are drawn from `rng`.
    pub fn new<R: Rng + ?Sized>(cfg: LinkConfig, rng: &mut R) -> Result<Self, PhyError> {
        cfg.validate()?;
        let g = &cfg.geometry;
        let hop_sa = Hop::new(g.pathloss_source, g.source_dist_a_m, g.fading_source, rng);
        let hop_sb = Hop::new(g.pathloss_source, g.source_dist_b_m, g.fading_source, rng);
        let hop_ab = Hop::new(g.pathloss_device, g.device_dist_m, g.fading_device, rng);
        let dt = cfg.phy.sample_period_s();
        let tag_a = TagHardware::new(cfg.tag_a, dt);
        let tag_b = TagHardware::new(cfg.tag_b, dt);
        let noise = Awgn::from_dbm(cfg.field_noise_dbm);
        let source = Ambient::from_config(cfg.ambient, cfg.ambient_seed);
        let source_amp = dbm_to_watts(g.source_power_dbm).sqrt();
        let scratch = LinkScratch::new(&cfg)?;
        Ok(FdLink {
            cfg,
            source,
            hop_sa,
            hop_sb,
            hop_ab,
            tag_a,
            tag_b,
            noise,
            source_amp,
            scratch,
        })
    }

    /// Rebuilds the link in place for a new configuration, reusing the
    /// existing [`LinkScratch`] arena and config heap buffers.
    ///
    /// Observably identical to `*self = FdLink::new(cfg.clone(), rng)?`:
    /// the hop fading states are redrawn from `rng` in the same order
    /// (source→A, source→B, A↔B), the tags, noise and ambient source are
    /// rebuilt fresh. The arena survives, so a per-slot rebuild (the MAC's
    /// rate ladder) allocates nothing in the steady state — unless the
    /// PHY actually changed (a rate switch), which is a warmup frame by
    /// contract. (`Ambient::Tv`/`Recorded` sources hold sample buffers
    /// and still reallocate per reinit; the evaluation configs use the
    /// heap-free `Cw`/`TvWideband`/`OfdmBursty` models.)
    pub fn reinit<R: Rng + ?Sized>(
        &mut self,
        cfg: &LinkConfig,
        rng: &mut R,
    ) -> Result<(), PhyError> {
        cfg.validate()?;
        let g = &cfg.geometry;
        self.hop_sa = Hop::new(g.pathloss_source, g.source_dist_a_m, g.fading_source, rng);
        self.hop_sb = Hop::new(g.pathloss_source, g.source_dist_b_m, g.fading_source, rng);
        self.hop_ab = Hop::new(g.pathloss_device, g.device_dist_m, g.fading_device, rng);
        let dt = cfg.phy.sample_period_s();
        self.tag_a = TagHardware::new(cfg.tag_a, dt);
        self.tag_b = TagHardware::new(cfg.tag_b, dt);
        self.noise = Awgn::from_dbm(cfg.field_noise_dbm);
        self.source = Ambient::from_config(cfg.ambient, cfg.ambient_seed);
        self.source_amp = dbm_to_watts(g.source_power_dbm).sqrt();
        self.cfg.copy_from(cfg);
        Ok(())
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Device A's hardware (energy inspection).
    pub fn tag_a(&self) -> &TagHardware {
        &self.tag_a
    }

    /// Device B's hardware.
    pub fn tag_b(&self) -> &TagHardware {
        &self.tag_b
    }

    /// Runs one frame through the link.
    ///
    /// With the `trace` feature on, the frame's diagnostic events land in a
    /// fresh bounded [`RingSink`] (capacity from
    /// `PhyConfig::trace_ring_capacity`) attached as `FrameOutcome::trace`.
    /// Use [`run_frame_with`](FdLink::run_frame_with) to attach a fault
    /// schedule and/or stream the events elsewhere instead.
    pub fn run_frame<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
    ) -> Result<FrameOutcome, PhyError> {
        self.run_frame_with(payload, opts, rng, FrameRun::clean())
    }

    /// Runs one frame with the [`FrameRun`] attachments: an optional
    /// scripted impairment schedule injected into the channel path, and
    /// (under the `trace` feature) an optional caller-owned trace sink
    /// replacing the outcome's in-memory ring.
    ///
    /// Faults draw randomness only from the [`FrameFaults`] engine's own
    /// deterministic generator, never from `rng`, so the main stream's
    /// draws are identical with and without injection; the schedule's
    /// activation tally lands on `FrameOutcome::fault_activations`.
    pub fn run_frame_with<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        run: FrameRun<'_>,
    ) -> Result<FrameOutcome, PhyError> {
        let mut out = FrameOutcome::default();
        self.run_frame_into(payload, opts, rng, run, &mut out)?;
        Ok(out)
    }

    /// [`run_frame_with`](FdLink::run_frame_with) writing into a
    /// caller-owned [`FrameOutcome`] instead of returning a fresh one.
    ///
    /// This is the allocation-free steady-state entry point: every owned
    /// buffer already on `out` (the delivered payload and block list, the
    /// feedback timeline, the partial-block staging, the trace ring) is
    /// harvested and refilled in place, and the engines borrow the link's
    /// [`LinkScratch`] arena for their working sets. After a one-frame
    /// warmup, re-running with the same `out` performs no heap allocation.
    /// Every field of `out` is overwritten; stale state never leaks into
    /// the new frame's result.
    pub fn run_frame_into<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        run: FrameRun<'_>,
        out: &mut FrameOutcome,
    ) -> Result<(), PhyError> {
        // Trace builds take the per-sample reference pipeline — its probes
        // poll the receiver at every sample, which the block pipeline by
        // design does not. Non-trace builds take the block pipeline; both
        // produce byte-identical `FrameOutcome`s.
        #[cfg(feature = "trace")]
        {
            match run.sink {
                Some(sink) => {
                    // Caller-owned sink: the outcome's ring stays an empty
                    // placeholder (its storage is retained for later
                    // ring-traced frames).
                    out.trace.reset(1);
                    self.run_frame_scalar(payload, opts, rng, run.faults, sink, out)
                }
                None => {
                    let mut trace = std::mem::take(&mut out.trace);
                    trace.reset(self.cfg.phy.trace_ring_capacity());
                    let mut ring = RingSink::from_trace(trace);
                    let res =
                        self.run_frame_scalar(payload, opts, rng, run.faults, &mut ring, out);
                    out.trace = ring.into_trace();
                    res
                }
            }
        }
        #[cfg(not(feature = "trace"))]
        self.run_frame_block_into(payload, opts, rng, run.faults, out)
    }

    /// Runs one frame through the preserved per-sample reference pipeline.
    ///
    /// This is the original scalar loop, kept always-compiled as (a) the
    /// oracle the block pipeline is equivalence-tested against and (b) the
    /// baseline the `fdb-bench` pairs measure speedups from. With the
    /// `trace` feature the diagnostic events land in the outcome's ring,
    /// exactly like [`FdLink::run_frame`].
    pub fn run_frame_reference<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        faults: Option<&mut FrameFaults>,
    ) -> Result<FrameOutcome, PhyError> {
        let mut out = FrameOutcome::default();
        self.run_frame_reference_into(payload, opts, rng, faults, &mut out)?;
        Ok(out)
    }

    /// [`run_frame_reference`](FdLink::run_frame_reference) writing into a
    /// caller-owned [`FrameOutcome`] (see
    /// [`run_frame_into`](FdLink::run_frame_into) for the reuse contract).
    pub fn run_frame_reference_into<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        faults: Option<&mut FrameFaults>,
        out: &mut FrameOutcome,
    ) -> Result<(), PhyError> {
        #[cfg(feature = "trace")]
        {
            let mut trace = std::mem::take(&mut out.trace);
            trace.reset(self.cfg.phy.trace_ring_capacity());
            let mut ring = RingSink::from_trace(trace);
            let res = self.run_frame_scalar(payload, opts, rng, faults, &mut ring, out);
            out.trace = ring.into_trace();
            res
        }
        #[cfg(not(feature = "trace"))]
        self.run_frame_scalar(payload, opts, rng, faults, out)
    }

    fn run_frame_scalar<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        mut faults: Option<&mut FrameFaults>,
        #[cfg(feature = "trace")] sink: &mut dyn TraceSink,
        out: &mut FrameOutcome,
    ) -> Result<(), PhyError> {
        // Split the link into disjoint field borrows so the engine can
        // hold the scratch arena's components mutably while stepping the
        // channel and devices — no per-frame clone of the PHY config, no
        // per-frame component construction.
        let FdLink {
            cfg,
            source,
            hop_sa,
            hop_sb,
            hop_ab,
            tag_a,
            tag_b,
            noise,
            source_amp,
            scratch,
        } = self;
        let source_amp = *source_amp;
        begin_outcome(scratch, out);
        let phy = &cfg.phy;
        let dt = phy.sample_period_s();
        let spb = phy.samples_per_bit();
        let half_fb = (phy.feedback_ratio / 2) * spb;

        scratch.tx.load(phy, payload)?;
        scratch.rx.load(phy);
        scratch.fb_enc.rearm(half_fb);
        scratch.fb_dec.rearm(half_fb);
        let LinkScratch {
            tx,
            rx,
            fb_enc,
            fb_dec,
            resampled,
            ..
        } = scratch;
        if let FeedbackPolicy::Stream(bits) = &opts.feedback {
            for &b in bits {
                fb_enc.push_bit(b);
            }
        }
        let mut sic_a =
            SelfInterferenceCanceller::new(phy.sic, cfg.tag_a.rho, cfg.tag_a.rho_residual);
        // B's data path blanks two samples after each of its own antenna
        // toggles: the detector RC takes ~a sample to re-settle after the
        // pass-fraction step, and the resulting glitch otherwise biases the
        // receiver's timing DLL once per feedback half-bit (enough to walk
        // the loop off over a long frame). Blanked samples are replaced by
        // a hold of the last corrected value so chip sample counts stay
        // exact.
        let mut sic_b =
            SelfInterferenceCanceller::new(phy.sic, cfg.tag_b.rho, cfg.tag_b.rho_residual)
                .with_blanking(2);
        let mut b_hold = 0.0f64;
        // B consumes the envelope on its own clock. A clock-drift fault
        // adds a frame-local ppm offset on top of the oscillator's state
        // without touching the oscillator itself.
        let b_base_ppm = tag_b.clock_mut().current_ppm();
        let mut b_clock_rs = Resampler::from_ppm(b_base_ppm);
        let mut b_fault_ppm = 0.0f64;
        resampled.clear();

        let preamble_samples = phy.preamble.len() * spb;
        let a_epoch = preamble_samples + phy.feedback_guard_bits * spb;
        let mut b_epoch: Option<usize> = None;
        let mut b_was_locked = false;

        let total = tx.total_samples();
        // With an active feedback channel, the run extends past the frame so
        // B can deliver a *post-frame verdict*: the final status bit that
        // covers the tail blocks (sent after the last in-frame feedback
        // boundary). Without it, A could see ACK for a frame whose last
        // blocks died after the final in-frame status bit.
        let tail = if matches!(opts.feedback, FeedbackPolicy::Silent) {
            8 * spb
        } else {
            2 * phy.samples_per_feedback_bit() + 8 * spb
        };
        let max_samples = total + tail;

        let a_consumed0 = tag_a.consumed_j();
        let b_consumed0 = tag_b.consumed_j();
        let a_harvest0 = tag_a.harvester().harvested_total_j();
        let b_harvest0 = tag_b.harvester().harvested_total_j();

        let mut aborted_at = None;
        let fade_every = cfg.fading_advance_bits * spb;

        // Change-detection cursors for the polled receiver-side probes.
        #[cfg(feature = "trace")]
        let (mut tr_chips, mut tr_bits, mut tr_blocks, mut tr_halves, mut tr_pilots) =
            (0usize, 0usize, 0usize, 0usize, 0usize);
        #[cfg(feature = "trace")]
        let mut tr_rejects = 0usize;
        #[cfg(feature = "trace")]
        let mut tr_pilots_checked = false;

        let mut samples_run = max_samples;
        for t in 0..max_samples {
            // --- fading evolution -------------------------------------
            if fade_every > 0 && t.is_multiple_of(fade_every) && t > 0 {
                hop_sa.advance_block(rng);
                hop_sb.advance_block(rng);
                hop_ab.advance_block(rng);
            }

            // --- scripted fault injection ------------------------------
            let fx = match faults.as_deref_mut() {
                Some(f) => {
                    let fx = f.effects_at(t);
                    #[cfg(feature = "trace")]
                    for (kind, active) in f.drain_transitions() {
                        sink.record(TraceEvent::Fault {
                            sample: t,
                            kind: kind.into(),
                            active,
                        });
                    }
                    if fx.ppm_offset != b_fault_ppm {
                        b_fault_ppm = fx.ppm_offset;
                        b_clock_rs.set_ppm(b_base_ppm + b_fault_ppm);
                    }
                    fx
                }
                None => FaultEffects::NEUTRAL,
            };

            // --- antenna schedules ------------------------------------
            let a_state = tx.next_state().unwrap_or(false) && tag_a.is_alive();
            tag_a.set_antenna(a_state);

            let b_fb_active = !matches!(opts.feedback, FeedbackPolicy::Silent)
                && b_epoch.map(|e| t >= e).unwrap_or(false)
                && tag_b.is_alive();
            let b_state = if b_fb_active {
                if fb_enc.at_bit_boundary() {
                    if let FeedbackPolicy::AckStatus = opts.feedback {
                        // Live status: set as the idle bit rather than
                        // queueing, so it is sampled at the moment each
                        // status bit actually starts (queueing here would
                        // pile up stale statuses behind the pilots and
                        // delay every verdict by the pilot length).
                        fb_enc.set_idle_bit(!rx.nack());
                    }
                }
                fb_enc.tick()
            } else {
                false
            };
            tag_b.set_antenna(b_state);

            // --- field assembly ---------------------------------------
            let x = source_amp * fx.source_scale * source.next_power(rng).sqrt();
            let h_sa = hop_sa.coeff();
            let h_sb = hop_sb.coeff();
            let h_ab = hop_ab.coeff();
            let e_a0 = h_sa * x;
            let e_b0 = h_sb * x;
            let g_a = tag_a.reflected(Iq::ONE); // complex reflection coeff
            let g_b = tag_b.reflected(Iq::ONE);
            // First order + one second-order bounce each way, plus any
            // fault-injected interferer / burst-noise field.
            let e_a = e_a0 + h_ab * g_b * (e_b0 + h_ab * g_a * e_a0) + fx.field_a;
            let e_b = e_b0 + h_ab * g_a * (e_a0 + h_ab * g_b * e_b0) + fx.field_b;
            let e_a = noise.corrupt(e_a, rng);
            let e_b = noise.corrupt(e_b, rng);

            // --- devices ----------------------------------------------
            // A dropout fault zeroes the ADC reading; the detector RC
            // state behind it keeps evolving with the field.
            let env_a = tag_a.step_receive(e_a, dt, rng);
            let env_b = tag_b.step_receive(e_b, dt, rng);
            let env_a = if fx.drop_a { 0.0 } else { env_a };
            let env_b = if fx.drop_b { 0.0 } else { env_b };
            tag_a.charge_awake(dt, t >= a_epoch);
            tag_b.charge_awake(dt, true);

            // --- per-chip trace snapshot -------------------------------
            #[cfg(feature = "trace")]
            let chip_boundary = t % phy.samples_per_chip == 0;
            #[cfg(feature = "trace")]
            if chip_boundary {
                sink.record(TraceEvent::TxChip {
                    sample: t,
                    chip: t / phy.samples_per_chip,
                    state: a_state,
                });
                sink.record(TraceEvent::Channel {
                    sample: t,
                    source_power_w: x * x,
                    env_a,
                    env_b,
                });
            }

            // --- B: data reception on its own clock --------------------
            // A SIC-gain fault mis-scales the canceller's output while the
            // device's own antenna reflects — the signature of a stale
            // pass-fraction estimate (the clean-state samples need no
            // correction, so they are untouched).
            let sic_b_out = sic_b
                .correct(env_b, b_state)
                .map(|v| if b_state { v * fx.sic_gain_b } else { v });
            #[cfg(feature = "trace")]
            if chip_boundary || sic_b_out.is_none() {
                sink.record(TraceEvent::Sic {
                    sample: t,
                    device: 'B',
                    own_state: b_state,
                    input: env_b,
                    output: sic_b_out,
                });
            }
            let corrected = match sic_b_out {
                Some(v) => {
                    b_hold = v;
                    v
                }
                None => b_hold, // blanked: hold the last settled value
            };
            resampled.clear();
            b_clock_rs.push(corrected, resampled);
            for &v in resampled.iter() {
                rx.push_sample(v);
            }
            // A header-CRC rejection throws a committed lock back to
            // acquisition; the feedback epoch must die with it (status bits
            // toggled against a false lock are pure interference) and the
            // encoder must restart its pilots for the next lock.
            if b_was_locked && rx.state() == RxState::Acquiring {
                b_was_locked = false;
                b_epoch = None;
                fb_enc.rearm(half_fb);
                if let FeedbackPolicy::Stream(bits) = &opts.feedback {
                    for &b in bits {
                        fb_enc.push_bit(b);
                    }
                }
                #[cfg(feature = "trace")]
                sink.record(TraceEvent::RxRearm {
                    sample: t,
                    attempts: rx.sync_attempts(),
                });
            }
            if !b_was_locked && rx.state() != RxState::Acquiring {
                b_was_locked = true;
                b_epoch = Some(t + phy.feedback_guard_bits * spb);
                #[cfg(feature = "trace")]
                {
                    let (score, _) = rx.sync_lock_info().unwrap_or((0.0, 0));
                    sink.record(TraceEvent::RxLock {
                        sample: t,
                        score,
                        peak_seen: rx.sync_peak_seen(),
                    });
                }
            }
            #[cfg(feature = "trace")]
            {
                let rejections = rx.rejections();
                if rejections.len() != tr_rejects {
                    for r in rejections.iter().skip(tr_rejects) {
                        sink.record(TraceEvent::RxSyncReject {
                            sample: t,
                            score: r.score,
                            sharpness: r.sharpness,
                            reason: r.reason.as_str().into(),
                        });
                    }
                    tr_rejects = rejections.len();
                }
                if rx.chips_seen() != tr_chips {
                    tr_chips = rx.chips_seen();
                    sink.record(TraceEvent::RxChip {
                        sample: t,
                        energy: rx.last_chip_energy(),
                        threshold: rx.slicer_threshold(),
                    });
                }
                if rx.bits_decoded() != tr_bits {
                    tr_bits = rx.bits_decoded();
                    if let Some(bit) = rx.last_bit() {
                        sink.record(TraceEvent::RxBit { sample: t, index: tr_bits - 1, bit });
                    }
                }
                let blocks = rx.blocks();
                if blocks.len() != tr_blocks {
                    for (i, b) in blocks.iter().enumerate().skip(tr_blocks) {
                        sink.record(TraceEvent::RxBlock { sample: t, index: i, ok: b.ok });
                    }
                    tr_blocks = blocks.len();
                }
            }

            // --- A: feedback reception ---------------------------------
            if t >= a_epoch && !matches!(opts.feedback, FeedbackPolicy::Silent) {
                let sic_a_out = sic_a
                    .correct(env_a, a_state)
                    .map(|v| if a_state { v * fx.sic_gain_a } else { v });
                #[cfg(feature = "trace")]
                if chip_boundary || sic_a_out.is_none() {
                    sink.record(TraceEvent::Sic {
                        sample: t,
                        device: 'A',
                        own_state: a_state,
                        input: env_a,
                        output: sic_a_out,
                    });
                }
                if let Some(corrected) = sic_a_out {
                    let decision = fb_dec.push(corrected);
                    #[cfg(feature = "trace")]
                    {
                        if fb_dec.halves_seen() != tr_halves {
                            tr_halves = fb_dec.halves_seen();
                            sink.record(TraceEvent::FbHalf { sample: t, integral: fb_dec.last_half() });
                        }
                        if fb_dec.pilots_consumed() != tr_pilots {
                            tr_pilots = fb_dec.pilots_consumed();
                            if let Some(&margin) = fb_dec.pilot_margins().last() {
                                sink.record(TraceEvent::FbPilot {
                                    sample: t,
                                    index: tr_pilots - 1,
                                    margin,
                                });
                            }
                            if tr_pilots == crate::feedback::PILOTS.len() && !tr_pilots_checked {
                                tr_pilots_checked = true;
                                sink.record(TraceEvent::FbPilotsChecked {
                                    sample: t,
                                    verified: fb_dec.pilots_verified(),
                                });
                            }
                        }
                    }
                    if let Some(decision) = decision {
                        #[cfg(feature = "trace")]
                        sink.record(TraceEvent::FbBit {
                            sample: t,
                            bit: decision.bit,
                            margin: decision.margin,
                        });
                        out.feedback.push(FeedbackEvent {
                            sample: t,
                            bit: decision.bit,
                            margin: decision.margin,
                        });
                        if opts.abort_on_nack
                            && fb_dec.pilots_verified()
                            && !decision.bit
                            && aborted_at.is_none()
                        {
                            tx.abort();
                            aborted_at = Some(t);
                            #[cfg(feature = "trace")]
                            sink.record(TraceEvent::Abort { sample: t });
                        }
                    }
                }
            }

            // Early loop exit once everything is settled: the frame is over,
            // B's receiver is terminal, and (when feedback is on) A has
            // decoded at least one post-frame verdict bit.
            // An aborted frame is over the moment the antenna drops: A has
            // already decided to retransmit, so it stops listening.
            if aborted_at.is_some() && tx.is_done() {
                samples_run = t + 1;
                break;
            }
            // A verdict bit covers the whole frame only if its status was
            // sampled (at its start boundary, one feedback-bit duration
            // before the decision lands) after the last block completed.
            // (+ one data bit of margin for B's parse/replay lag)
            let verdict_horizon = total + phy.samples_per_feedback_bit() + spb;
            let verdict_in = matches!(opts.feedback, FeedbackPolicy::Silent)
                || !b_was_locked
                || out.feedback
                    .last()
                    .map(|f| f.sample >= verdict_horizon)
                    .unwrap_or(false);
            if tx.is_done()
                && (rx.state() == RxState::Done || rx.state() == RxState::Failed)
                && verdict_in
            {
                samples_run = t + 1;
                break;
            }
        }
        let fault_activations = faults
            .map(|f| f.activations())
            .unwrap_or_default();
        finish_into(
            out,
            samples_run,
            tx,
            rx,
            fb_dec.pilots_verified(),
            aborted_at,
            b_was_locked,
            fault_activations,
            (a_consumed0, b_consumed0, a_harvest0, b_harvest0),
            tag_a,
            tag_b,
        );
        Ok(())
    }

    /// Runs one frame through the chip-sized block pipeline.
    ///
    /// Semantically identical to [`FdLink::run_frame_reference`] — every
    /// `FrameOutcome` field it produces is byte-for-byte the same, RNG
    /// draw-for-draw — but the loop advances in contiguous sample segments
    /// instead of one sample at a time. A segment never crosses an edge at
    /// which deferred state could feed back into already-computed state:
    ///
    /// * **fault window edges** (`FrameFaults::next_boundary_after`) — the
    ///   active-fault set is constant inside a segment; active windows run
    ///   fused (per-sample) because drift ramps, burst draws and interferer
    ///   phases are sample-indexed;
    /// * **fading epochs** — hop coefficients are hoisted per segment;
    /// * **feedback-bit boundaries** while B's status stream is live — the
    ///   AckStatus idle bit samples B's *current* NACK line, so the
    ///   receiver must be fully caught up at every boundary;
    /// * **the acquisition guard** while B hunts for the preamble — a lock
    ///   inside a segment schedules B's feedback epoch `guard` samples
    ///   later, so segments stay shorter than the guard;
    /// * **lock → header-accept** and **post-abort** windows, plus the
    ///   post-frame verdict tail, run fused: a header-CRC re-arm or an
    ///   early loop exit can strike at any sample there. The one exception
    ///   is a post-frame hunt with re-arm budget left, which stages in
    ///   segments too short for two sync events or a header verdict, so
    ///   no exit can fall inside one.
    ///
    /// Within a segment the physics/control pass stays per-sample (it owns
    /// the shared RNG draw order and A's abort reflex), while B's SIC →
    /// resampler → receiver chain consumes the staged block through the
    /// slice entry points: [`DataReceiver::push_slice`] once the header is
    /// accepted and a mid-block loss of lock is impossible, and
    /// `DataReceiver::push_acquiring` (lane-batched preamble scoring,
    /// stopping at the lock sample) while B hunts.
    ///
    /// This is the non-trace `run_frame` engine; it is public so benches
    /// and equivalence tests can pit it against the reference on any build.
    /// (`FrameOutcome::trace` stays empty on trace builds — per-sample
    /// probes are exactly what this pipeline amortises away.)
    pub fn run_frame_block<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        faults: Option<&mut FrameFaults>,
    ) -> Result<FrameOutcome, PhyError> {
        let mut out = FrameOutcome::default();
        self.run_frame_block_into(payload, opts, rng, faults, &mut out)?;
        Ok(out)
    }

    /// [`run_frame_block`](FdLink::run_frame_block) writing into a
    /// caller-owned [`FrameOutcome`] (see
    /// [`run_frame_into`](FdLink::run_frame_into) for the reuse contract).
    pub fn run_frame_block_into<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        opts: &RunOptions,
        rng: &mut R,
        mut faults: Option<&mut FrameFaults>,
        out: &mut FrameOutcome,
    ) -> Result<(), PhyError> {
        let FdLink {
            cfg,
            source,
            hop_sa,
            hop_sb,
            hop_ab,
            tag_a,
            tag_b,
            noise,
            source_amp,
            scratch,
        } = self;
        let source_amp = *source_amp;
        begin_outcome(scratch, out);
        #[cfg(feature = "trace")]
        out.trace.reset(1);
        let phy = &cfg.phy;
        let dt = phy.sample_period_s();
        let spb = phy.samples_per_bit();
        let half_fb = (phy.feedback_ratio / 2) * spb;

        scratch.tx.load(phy, payload)?;
        scratch.rx.load(phy);
        scratch.fb_enc.rearm(half_fb);
        scratch.fb_dec.rearm(half_fb);
        let LinkScratch {
            tx,
            rx,
            fb_enc,
            fb_dec,
            env_b: env_b_stage,
            b_state: b_state_stage,
            resampled,
            rs_ends,
        } = scratch;
        if let FeedbackPolicy::Stream(bits) = &opts.feedback {
            for &b in bits {
                fb_enc.push_bit(b);
            }
        }
        let mut sic_a =
            SelfInterferenceCanceller::new(phy.sic, cfg.tag_a.rho, cfg.tag_a.rho_residual);
        let mut sic_b =
            SelfInterferenceCanceller::new(phy.sic, cfg.tag_b.rho, cfg.tag_b.rho_residual)
                .with_blanking(2);
        let mut b_hold = 0.0f64;
        let b_base_ppm = tag_b.clock_mut().current_ppm();
        let mut b_clock_rs = Resampler::from_ppm(b_base_ppm);
        let mut b_fault_ppm = 0.0f64;

        let preamble_samples = phy.preamble.len() * spb;
        let guard = phy.feedback_guard_bits * spb;
        let a_epoch = preamble_samples + guard;
        let mut b_epoch: Option<usize> = None;
        let mut b_was_locked = false;

        let total = tx.total_samples();
        let tail = if matches!(opts.feedback, FeedbackPolicy::Silent) {
            8 * spb
        } else {
            2 * phy.samples_per_feedback_bit() + 8 * spb
        };
        let max_samples = total + tail;
        let verdict_horizon = total + phy.samples_per_feedback_bit() + spb;

        let a_consumed0 = tag_a.consumed_j();
        let b_consumed0 = tag_b.consumed_j();
        let a_harvest0 = tag_a.harvester().harvested_total_j();
        let b_harvest0 = tag_b.harvester().harvested_total_j();

        let mut aborted_at = None;
        let fade_every = cfg.fading_advance_bits * spb;

        let mut samples_run = max_samples;
        let mut t = 0usize;
        'frame: while t < max_samples {
            // ---- mode select: fused (exact per-sample) or staged -------
            let fault_active = faults.as_deref().is_some_and(|f| f.any_active_at(t));
            // Past `total - 1` the transmitter is done, so a terminal
            // receiver ends the loop at any sample; only a hunt with
            // re-arm budget left stages there, in segments of at most
            // `tail_cap` samples. Within one, at most one sync event
            // fits: after any declaration the searcher refills a whole
            // preamble of receiver samples, and a lock's header verdict
            // lands a header airtime later. Half the shorter span, in B's
            // clock, leaves room for the resampler's phase, the samples a
            // lock replays and DLL-shortened chips. So a rejection re-arms
            // (the budget has room for one) and no exit condition, abort
            // aside (pass 1 handles that), becomes true inside a segment.
            let in_tail = t + 1 >= total;
            let tail_cap = if in_tail
                && !b_was_locked
                && rx.state() == RxState::Acquiring
                && rx.sync_rejections() < phy.sync.max_rearms
            {
                let span = preamble_samples.min(HEADER_BITS * spb) / 2;
                (span as f64 / b_clock_rs.ratio()) as usize
            } else {
                0
            };
            let fused = fault_active
                || (b_was_locked && !rx.header_accepted())
                || aborted_at.is_some()
                || (in_tail && tail_cap == 0);
            if fused {
                // One sample of the full reference body: every hazard the
                // staged path defers (re-arm, fault draws, loop exits) is
                // decided here at exact scalar granularity.
                if fade_every > 0 && t.is_multiple_of(fade_every) && t > 0 {
                    hop_sa.advance_block(rng);
                    hop_sb.advance_block(rng);
                    hop_ab.advance_block(rng);
                }
                let fx = match faults.as_deref_mut() {
                    Some(f) => {
                        let fx = f.effects_at(t);
                        if fx.ppm_offset != b_fault_ppm {
                            b_fault_ppm = fx.ppm_offset;
                            b_clock_rs.set_ppm(b_base_ppm + b_fault_ppm);
                        }
                        fx
                    }
                    None => FaultEffects::NEUTRAL,
                };

                let a_state = tx.next_state().unwrap_or(false) && tag_a.is_alive();
                tag_a.set_antenna(a_state);
                let b_fb_active = !matches!(opts.feedback, FeedbackPolicy::Silent)
                    && b_epoch.map(|e| t >= e).unwrap_or(false)
                    && tag_b.is_alive();
                let b_state = if b_fb_active {
                    if fb_enc.at_bit_boundary() {
                        if let FeedbackPolicy::AckStatus = opts.feedback {
                            fb_enc.set_idle_bit(!rx.nack());
                        }
                    }
                    fb_enc.tick()
                } else {
                    false
                };
                tag_b.set_antenna(b_state);

                let x = source_amp * fx.source_scale * source.next_power(rng).sqrt();
                let h_sa = hop_sa.coeff();
                let h_sb = hop_sb.coeff();
                let h_ab = hop_ab.coeff();
                let e_a0 = h_sa * x;
                let e_b0 = h_sb * x;
                let g_a = tag_a.reflected(Iq::ONE);
                let g_b = tag_b.reflected(Iq::ONE);
                let e_a = e_a0 + h_ab * g_b * (e_b0 + h_ab * g_a * e_a0) + fx.field_a;
                let e_b = e_b0 + h_ab * g_a * (e_a0 + h_ab * g_b * e_b0) + fx.field_b;
                let e_a = noise.corrupt(e_a, rng);
                let e_b = noise.corrupt(e_b, rng);

                let env_a = tag_a.step_receive(e_a, dt, rng);
                let env_b = tag_b.step_receive(e_b, dt, rng);
                let env_a = if fx.drop_a { 0.0 } else { env_a };
                let env_b = if fx.drop_b { 0.0 } else { env_b };
                tag_a.charge_awake(dt, t >= a_epoch);
                tag_b.charge_awake(dt, true);

                let sic_b_out = sic_b
                    .correct(env_b, b_state)
                    .map(|v| if b_state { v * fx.sic_gain_b } else { v });
                let corrected = match sic_b_out {
                    Some(v) => {
                        b_hold = v;
                        v
                    }
                    None => b_hold,
                };
                resampled.clear();
                b_clock_rs.push(corrected, resampled);
                for &v in resampled.iter() {
                    rx.push_sample(v);
                }
                if b_was_locked && rx.state() == RxState::Acquiring {
                    b_was_locked = false;
                    b_epoch = None;
                    fb_enc.rearm(half_fb);
                    if let FeedbackPolicy::Stream(bits) = &opts.feedback {
                        for &b in bits {
                            fb_enc.push_bit(b);
                        }
                    }
                }
                if !b_was_locked && rx.state() != RxState::Acquiring {
                    b_was_locked = true;
                    b_epoch = Some(t + guard);
                }

                if t >= a_epoch && !matches!(opts.feedback, FeedbackPolicy::Silent) {
                    let sic_a_out = sic_a
                        .correct(env_a, a_state)
                        .map(|v| if a_state { v * fx.sic_gain_a } else { v });
                    if let Some(corrected) = sic_a_out {
                        if let Some(decision) = fb_dec.push(corrected) {
                            out.feedback.push(FeedbackEvent {
                                sample: t,
                                bit: decision.bit,
                                margin: decision.margin,
                            });
                            if opts.abort_on_nack
                                && fb_dec.pilots_verified()
                                && !decision.bit
                                && aborted_at.is_none()
                            {
                                tx.abort();
                                aborted_at = Some(t);
                            }
                        }
                    }
                }

                if aborted_at.is_some() && tx.is_done() {
                    samples_run = t + 1;
                    break 'frame;
                }
                let verdict_in = matches!(opts.feedback, FeedbackPolicy::Silent)
                    || !b_was_locked
                    || out.feedback
                        .last()
                        .map(|f| f.sample >= verdict_horizon)
                        .unwrap_or(false);
                if tx.is_done()
                    && (rx.state() == RxState::Done || rx.state() == RxState::Failed)
                    && verdict_in
                {
                    samples_run = t + 1;
                    break 'frame;
                }
                t += 1;
                continue;
            }

            // ---- staged segment: pick a hazard-free length -------------
            // Before the tail, segments stop short of `total - 1`.
            let mut len = if in_tail {
                (max_samples - t).min(tail_cap)
            } else {
                total - 1 - t
            }
            .min(SEG_MAX);
            if let Some(q) = t.checked_div(fade_every) {
                let next_fade = (q + 1) * fade_every;
                len = len.min(next_fade - t);
            }
            if let Some(f) = faults.as_deref() {
                if let Some(b) = f.next_boundary_after(t) {
                    len = len.min(b - t);
                }
            }
            if let Some(e) = b_epoch {
                if e > t {
                    len = len.min(e - t);
                }
            }
            if !b_was_locked {
                // A lock at sample `ti` schedules b_epoch = ti + guard;
                // keeping len ≤ guard pins that epoch beyond the segment,
                // so the already-run control pass never misses it.
                len = len.min(guard.max(1));
            }
            let fb_live = !matches!(opts.feedback, FeedbackPolicy::Silent)
                && b_epoch.map(|e| e <= t).unwrap_or(false);
            if fb_live {
                // Keep feedback-bit boundaries (where AckStatus samples the
                // live NACK line) on segment starts, where rx is current.
                let ticks = fb_enc.ticks_until_boundary();
                let cap = if ticks == 0 { 2 * half_fb } else { ticks };
                len = len.min(cap.max(1));
            }
            debug_assert!(len >= 1);

            if fade_every > 0 && t.is_multiple_of(fade_every) && t > 0 {
                hop_sa.advance_block(rng);
                hop_sb.advance_block(rng);
                hop_ab.advance_block(rng);
            }
            // One bookkeeping poll per quiet segment: boundary caps above
            // guarantee every window edge lands exactly on a segment start,
            // which is all `effects_at`'s edge detection needs.
            let fx = match faults.as_deref_mut() {
                Some(f) => {
                    let fx = f.effects_at(t);
                    if fx.ppm_offset != b_fault_ppm {
                        b_fault_ppm = fx.ppm_offset;
                        b_clock_rs.set_ppm(b_base_ppm + b_fault_ppm);
                    }
                    fx
                }
                None => FaultEffects::NEUTRAL,
            };
            debug_assert!(fx.is_neutral(), "active fault in a staged segment");

            // ---- pass 1: physics + control + A-side, per sample --------
            // Owns the shared RNG draw order (source, AWGN, detectors) and
            // A's feedback/abort reflex — an abort lands on the very next
            // sample's tx state, exactly as in the reference. B's samples
            // are staged for pass 2.
            env_b_stage.clear();
            b_state_stage.clear();
            let h_sa = hop_sa.coeff();
            let h_sb = hop_sb.coeff();
            let h_ab = hop_ab.coeff();
            let mut seg_used = len;
            let mut exited = false;
            for i in 0..len {
                let ti = t + i;
                let a_state = tx.next_state().unwrap_or(false) && tag_a.is_alive();
                tag_a.set_antenna(a_state);
                let b_fb_active = !matches!(opts.feedback, FeedbackPolicy::Silent)
                    && b_epoch.map(|e| ti >= e).unwrap_or(false)
                    && tag_b.is_alive();
                let b_state = if b_fb_active {
                    if fb_enc.at_bit_boundary() {
                        if let FeedbackPolicy::AckStatus = opts.feedback {
                            fb_enc.set_idle_bit(!rx.nack());
                        }
                    }
                    fb_enc.tick()
                } else {
                    false
                };
                tag_b.set_antenna(b_state);

                let x = source_amp * fx.source_scale * source.next_power(rng).sqrt();
                let e_a0 = h_sa * x;
                let e_b0 = h_sb * x;
                let g_a = tag_a.reflected(Iq::ONE);
                let g_b = tag_b.reflected(Iq::ONE);
                let e_a = e_a0 + h_ab * g_b * (e_b0 + h_ab * g_a * e_a0) + fx.field_a;
                let e_b = e_b0 + h_ab * g_a * (e_a0 + h_ab * g_b * e_b0) + fx.field_b;
                let e_a = noise.corrupt(e_a, rng);
                let e_b = noise.corrupt(e_b, rng);

                let env_a = tag_a.step_receive(e_a, dt, rng);
                let env_b = tag_b.step_receive(e_b, dt, rng);
                let env_a = if fx.drop_a { 0.0 } else { env_a };
                let env_b = if fx.drop_b { 0.0 } else { env_b };
                tag_a.charge_awake(dt, ti >= a_epoch);
                tag_b.charge_awake(dt, true);

                env_b_stage.push(env_b);
                b_state_stage.push(b_state);

                if ti >= a_epoch && !matches!(opts.feedback, FeedbackPolicy::Silent) {
                    let sic_a_out = sic_a
                        .correct(env_a, a_state)
                        .map(|v| if a_state { v * fx.sic_gain_a } else { v });
                    if let Some(corrected) = sic_a_out {
                        if let Some(decision) = fb_dec.push(corrected) {
                            out.feedback.push(FeedbackEvent {
                                sample: ti,
                                bit: decision.bit,
                                margin: decision.margin,
                            });
                            if opts.abort_on_nack
                                && fb_dec.pilots_verified()
                                && !decision.bit
                                && aborted_at.is_none()
                            {
                                tx.abort();
                                aborted_at = Some(ti);
                            }
                        }
                    }
                }
                // The only loop exit reachable in a staged segment: an
                // abort emptying the transmitter. B-side processing of the
                // staged samples still completes below, as the reference
                // does before its own break.
                if aborted_at.is_some() && tx.is_done() {
                    samples_run = ti + 1;
                    seg_used = i + 1;
                    exited = true;
                    break;
                }
            }

            // ---- pass 2: B-side SIC → resampler → receiver -------------
            // The whole segment is staged through SIC and the resampler
            // first; while acquiring, `rs_ends[i]` marks where input sample
            // `t + i`'s outputs end.
            resampled.clear();
            rs_ends.clear();
            let acquiring = !b_was_locked;
            let staged = env_b_stage[..seg_used].iter().zip(&b_state_stage[..seg_used]);
            for (&env_b, &b_state) in staged {
                let sic_b_out = sic_b
                    .correct(env_b, b_state)
                    .map(|v| if b_state { v * fx.sic_gain_b } else { v });
                let corrected = match sic_b_out {
                    Some(v) => {
                        b_hold = v;
                        v
                    }
                    None => b_hold,
                };
                b_clock_rs.push(corrected, resampled);
                if acquiring {
                    rs_ends.push(resampled.len());
                }
            }
            if !acquiring {
                // Header accepted (else this segment would be fused): no
                // re-arm is possible, so the whole block flows through the
                // slice entry point in one go.
                rx.push_slice(resampled);
            } else {
                // Acquiring: feed the receiver in batches up to its first
                // state change, finish the outputs of the input sample that
                // changed it, and run the per-input checks at that sample's
                // tick, so a lock schedules the feedback epoch on the same
                // tick as the reference.
                let mut k = 0;
                let mut i = 0;
                while i < seg_used {
                    if !b_was_locked {
                        k += rx.push_acquiring(&resampled[k..]);
                        if rx.state() == RxState::Acquiring {
                            break;
                        }
                        i += rs_ends[i..].partition_point(|&e| e < k);
                    }
                    let end = rs_ends[i];
                    rx.push_slice(&resampled[k..end]);
                    k = end;
                    // A lock can fall back to acquisition in-segment only
                    // when the guard outlasts the header airtime; the epoch
                    // it clears was pinned beyond this segment either way.
                    if b_was_locked && rx.state() == RxState::Acquiring {
                        b_was_locked = false;
                        b_epoch = None;
                        fb_enc.rearm(half_fb);
                        if let FeedbackPolicy::Stream(bits) = &opts.feedback {
                            for &b in bits {
                                fb_enc.push_bit(b);
                            }
                        }
                    }
                    if !b_was_locked && rx.state() != RxState::Acquiring {
                        b_was_locked = true;
                        b_epoch = Some(t + i + guard);
                    }
                    i += 1;
                }
            }

            if exited {
                break 'frame;
            }
            t += len;
        }
        let fault_activations = faults
            .map(|f| f.activations())
            .unwrap_or_default();
        finish_into(
            out,
            samples_run,
            tx,
            rx,
            fb_dec.pilots_verified(),
            aborted_at,
            b_was_locked,
            fault_activations,
            (a_consumed0, b_consumed0, a_harvest0, b_harvest0),
            tag_a,
            tag_b,
        );
        Ok(())
    }
}

/// Harvests the reusable storage a previous frame left on `out` back into
/// the arena before the new frame overwrites it: the delivered
/// [`RxResult`]'s buffers return to the receiver's spare pool and the
/// feedback timeline is cleared in place. (The partial-block staging and
/// the trace ring are recycled by [`finish_into`] and the `run_frame_*`
/// wrappers respectively.)
fn begin_outcome(scratch: &mut LinkScratch, out: &mut FrameOutcome) {
    if let Some(delivered) = out.delivered.take() {
        scratch.rx.recycle_result(delivered);
    }
    out.feedback.clear();
}

/// Refills every `FrameOutcome` field from the frame's end state —
/// [`begin_outcome`]'s counterpart, overwriting scalars and
/// clearing-then-extending the owned buffers so their capacity survives
/// into the next frame.
#[allow(clippy::too_many_arguments)]
fn finish_into(
    out: &mut FrameOutcome,
    samples_run: usize,
    tx: &DataTransmitter,
    rx: &mut DataReceiver,
    pilots_verified: bool,
    aborted_at_sample: Option<usize>,
    b_locked: bool,
    fault_activations: FaultActivations,
    baselines: (f64, f64, f64, f64),
    tag_a: &TagHardware,
    tag_b: &TagHardware,
) {
    out.nack = rx.nack();
    out.rx_sync_peak = rx.sync_peak_seen();
    out.sync_attempts = rx.sync_attempts();
    out.sync_rejections = rx.sync_rejections();
    {
        let (p, b) = rx.partial();
        out.partial_payload.clear();
        out.partial_payload.extend_from_slice(p);
        out.partial_blocks.clear();
        out.partial_blocks.extend_from_slice(b);
    }
    out.rx_timing_corrections = rx.timing_corrections();
    out.delivered = rx.take_result();
    out.b_locked = b_locked;
    out.pilots_verified = pilots_verified;
    out.aborted_at_sample = aborted_at_sample;
    out.airtime_samples = tx.samples_emitted();
    out.samples_run = samples_run;
    out.energy = EnergyReport {
        a_consumed_j: tag_a.consumed_j() - baselines.0,
        b_consumed_j: tag_b.consumed_j() - baselines.1,
        a_harvested_j: tag_a.harvester().harvested_total_j() - baselines.2,
        b_harvested_j: tag_b.harvester().harvested_total_j() - baselines.3,
    };
    out.fault_activations = fault_activations;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn quiet_cfg() -> LinkConfig {
        // CW source → no source fluctuation; static channels; tiny noise.
        let mut cfg = LinkConfig::default_fd();
        cfg.ambient = AmbientConfig::Cw;
        cfg.field_noise_dbm = -160.0;
        cfg
    }

    #[test]
    fn clean_frame_delivers_half_duplex() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let mut link = FdLink::new(quiet_cfg(), &mut rng).unwrap();
        let payload: Vec<u8> = (0..32u8).collect();
        let out = link
            .run_frame(&payload, &RunOptions::half_duplex(), &mut rng)
            .unwrap();
        assert!(out.b_locked, "no lock");
        assert!(out.fully_delivered(), "delivery failed: {:?}", out.delivered.as_ref().map(|r| &r.blocks));
        assert_eq!(out.delivered.unwrap().payload, payload);
        assert!(out.feedback.is_empty());
    }

    #[test]
    fn clean_frame_delivers_full_duplex_with_acks() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let mut link = FdLink::new(quiet_cfg(), &mut rng).unwrap();
        let payload: Vec<u8> = (0..64u8).collect();
        let out = link
            .run_frame(&payload, &RunOptions::fd_monitor(), &mut rng)
            .unwrap();
        assert!(out.fully_delivered(), "FD frame lost");
        assert_eq!(out.delivered.unwrap().payload, payload);
        assert!(out.pilots_verified, "pilots failed");
        assert!(!out.feedback.is_empty(), "no feedback decoded");
        // All-clean frame ⇒ every status bit is ACK.
        assert!(
            out.feedback.iter().all(|f| f.bit),
            "spurious NACK: {:?}",
            out.feedback
        );
        assert!(out.aborted_at_sample.is_none());
    }

    #[test]
    fn feedback_stream_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let mut link = FdLink::new(quiet_cfg(), &mut rng).unwrap();
        let pattern = vec![true, false, false, true, true, false, true, false];
        // Long payload so the frame outlasts the feedback stream.
        let payload = vec![0x3Cu8; 200];
        let out = link
            .run_frame(
                &payload,
                &RunOptions {
                    feedback: FeedbackPolicy::Stream(pattern.clone()),
                    abort_on_nack: false,
                },
                &mut rng,
            )
            .unwrap();
        assert!(out.pilots_verified);
        let got: Vec<bool> = out.feedback.iter().map(|f| f.bit).collect();
        assert!(
            got.len() >= pattern.len(),
            "only {} feedback bits decoded",
            got.len()
        );
        assert_eq!(&got[..pattern.len()], &pattern[..], "feedback corrupted");
    }

    #[test]
    fn full_duplex_does_not_break_data() {
        // The FD feedback toggling must not measurably hurt the forward
        // link when SIC is on (the headline claim).
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        let payload = vec![0xAAu8; 96];
        let mut link = FdLink::new(quiet_cfg(), &mut rng).unwrap();
        let hd = link
            .run_frame(&payload, &RunOptions::half_duplex(), &mut rng)
            .unwrap();
        let fd = link
            .run_frame(&payload, &RunOptions::fd_monitor(), &mut rng)
            .unwrap();
        assert!(hd.fully_delivered());
        assert!(fd.fully_delivered());
    }

    #[test]
    fn energy_ledger_is_populated() {
        let mut rng = ChaCha8Rng::seed_from_u64(104);
        let mut cfg = quiet_cfg();
        // Close to the source so the incident power clears the harvester's
        // sensitivity floor (−20 dBm).
        cfg.geometry.source_dist_a_m = 100.0;
        cfg.geometry.source_dist_b_m = 100.0;
        let mut link = FdLink::new(cfg, &mut rng).unwrap();
        let out = link
            .run_frame(&[1u8; 16], &RunOptions::fd_monitor(), &mut rng)
            .unwrap();
        assert!(out.energy.a_consumed_j > 0.0);
        assert!(out.energy.b_consumed_j > 0.0);
        assert!(out.energy.b_harvested_j > 0.0, "B harvested nothing");
        assert!(out.airtime_samples > 0);
    }

    /// Field-by-field byte identity of two outcomes (trace excluded — the
    /// block pipeline deliberately records no per-sample probes).
    fn assert_outcomes_identical(a: &FrameOutcome, b: &FrameOutcome, what: &str) {
        assert_eq!(a.delivered, b.delivered, "{what}: delivered");
        assert_eq!(a.b_locked, b.b_locked, "{what}: b_locked");
        assert_eq!(a.sync_attempts, b.sync_attempts, "{what}: sync_attempts");
        assert_eq!(a.sync_rejections, b.sync_rejections, "{what}: sync_rejections");
        assert_eq!(a.feedback.len(), b.feedback.len(), "{what}: feedback len");
        for (i, (x, y)) in a.feedback.iter().zip(&b.feedback).enumerate() {
            assert_eq!(x.sample, y.sample, "{what}: feedback[{i}].sample");
            assert_eq!(x.bit, y.bit, "{what}: feedback[{i}].bit");
            assert_eq!(
                x.margin.to_bits(),
                y.margin.to_bits(),
                "{what}: feedback[{i}].margin"
            );
        }
        assert_eq!(a.pilots_verified, b.pilots_verified, "{what}: pilots_verified");
        assert_eq!(a.aborted_at_sample, b.aborted_at_sample, "{what}: aborted_at");
        assert_eq!(a.airtime_samples, b.airtime_samples, "{what}: airtime");
        assert_eq!(a.samples_run, b.samples_run, "{what}: samples_run");
        for (x, y, f) in [
            (a.energy.a_consumed_j, b.energy.a_consumed_j, "a_consumed"),
            (a.energy.b_consumed_j, b.energy.b_consumed_j, "b_consumed"),
            (a.energy.a_harvested_j, b.energy.a_harvested_j, "a_harvested"),
            (a.energy.b_harvested_j, b.energy.b_harvested_j, "b_harvested"),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: energy.{f}");
        }
        assert_eq!(a.nack, b.nack, "{what}: nack");
        assert_eq!(a.partial_payload, b.partial_payload, "{what}: partial_payload");
        assert_eq!(a.partial_blocks, b.partial_blocks, "{what}: partial_blocks");
        assert_eq!(
            a.rx_timing_corrections, b.rx_timing_corrections,
            "{what}: timing_corrections"
        );
        assert_eq!(
            a.rx_sync_peak.to_bits(),
            b.rx_sync_peak.to_bits(),
            "{what}: rx_sync_peak"
        );
        assert_eq!(
            a.fault_activations, b.fault_activations,
            "{what}: fault_activations"
        );
    }

    /// Runs `frames` back-to-back frames through two identically-seeded
    /// links — one on the reference engine, one on the block pipeline —
    /// and requires byte-identical outcomes every frame (back-to-back so
    /// persistent device/energy/fading state must stay aligned too).
    fn assert_block_matches_reference(
        cfg: LinkConfig,
        payload: &[u8],
        opts: &RunOptions,
        seed: u64,
        frames: usize,
        what: &str,
    ) {
        let mut rng_r = ChaCha8Rng::seed_from_u64(seed);
        let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
        let mut link_r = FdLink::new(cfg.clone(), &mut rng_r).unwrap();
        let mut link_b = FdLink::new(cfg, &mut rng_b).unwrap();
        for k in 0..frames {
            let r = link_r
                .run_frame_reference(payload, opts, &mut rng_r, None)
                .unwrap();
            let b = link_b.run_frame_block(payload, opts, &mut rng_b, None).unwrap();
            assert_outcomes_identical(&r, &b, &format!("{what} frame {k}"));
        }
    }

    #[test]
    fn block_matches_reference_quiet_cw() {
        let payload: Vec<u8> = (0..64u8).collect();
        assert_block_matches_reference(
            quiet_cfg(),
            &payload,
            &RunOptions::fd_monitor(),
            200,
            2,
            "cw fd_monitor",
        );
        assert_block_matches_reference(
            quiet_cfg(),
            &payload,
            &RunOptions::half_duplex(),
            201,
            2,
            "cw half_duplex",
        );
    }

    #[test]
    fn block_matches_reference_tv_wideband() {
        let payload: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37)).collect();
        assert_block_matches_reference(
            LinkConfig::default_fd(),
            &payload,
            &RunOptions::fd_monitor(),
            202,
            2,
            "tv fd_monitor",
        );
    }

    #[test]
    fn block_matches_reference_with_fading_and_stream() {
        let mut cfg = quiet_cfg();
        cfg.fading_advance_bits = 16;
        cfg.geometry.fading_source = Fading::rayleigh(50.0);
        let payload = vec![0x3Cu8; 120];
        assert_block_matches_reference(
            cfg,
            &payload,
            &RunOptions {
                feedback: FeedbackPolicy::Stream(vec![true, false, true, true, false]),
                abort_on_nack: false,
            },
            203,
            2,
            "fading stream",
        );
    }

    #[test]
    fn block_matches_reference_out_of_range_hunt() {
        // Past the forward link's range B hunts the whole frame: frames
        // never lock, or lock only after rejections. This is where the
        // block engine feeds the receiver in acquisition batches.
        let payload: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(23)).collect();
        let (mut locked, mut unlocked, mut rejections) = (0, 0, 0);
        for (k, dist) in [0.9, 1.2, 1.5, 1.8, 2.1, 2.4].into_iter().enumerate() {
            let mut cfg = LinkConfig::default_fd();
            cfg.geometry.device_dist_m = dist;
            for (j, opts) in [RunOptions::fd_monitor(), RunOptions::fd_early_abort()]
                .iter()
                .enumerate()
            {
                let seed = 300 + 2 * k as u64 + j as u64;
                let mut rng_r = ChaCha8Rng::seed_from_u64(seed);
                let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
                let mut link_r = FdLink::new(cfg.clone(), &mut rng_r).unwrap();
                let mut link_b = FdLink::new(cfg.clone(), &mut rng_b).unwrap();
                for f in 0..12 {
                    let r = link_r
                        .run_frame_reference(&payload, opts, &mut rng_r, None)
                        .unwrap();
                    let b = link_b.run_frame_block(&payload, opts, &mut rng_b, None).unwrap();
                    assert_outcomes_identical(&r, &b, &format!("{dist} m opts {j} frame {f}"));
                    locked += usize::from(r.b_locked);
                    unlocked += usize::from(!r.b_locked);
                    rejections += r.sync_rejections;
                }
            }
        }
        assert!(locked > 0, "no frame locked: the grid never leaves acquisition");
        assert!(unlocked > 0, "every frame locked: the grid never hunts");
        assert!(rejections > 0, "no candidate was ever rejected");
    }

    #[test]
    fn block_matches_reference_staged_tail() {
        // Past `total` the block engine stages a hunt whose re-arm budget
        // has room for one more rejection. A low admission threshold with
        // the preamble re-decode off makes noise candidates common enough
        // that, out of range, locks, re-arming rejections and
        // budget-exhausting failures all land after `total` for the small
        // budgets below.
        let payload: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(23)).collect();
        let mut after_total = [0usize; 3]; // locks, re-arms, failures
        for max_rearms in [1, 2] {
            let mut cfg = LinkConfig::default_fd();
            cfg.geometry.device_dist_m = 2.4;
            cfg.phy.sync_threshold = 0.35;
            cfg.phy.sync.verify_preamble = false;
            cfg.phy.sync.max_rearms = max_rearms;
            for (j, opts) in [RunOptions::half_duplex(), RunOptions::fd_monitor()]
                .iter()
                .enumerate()
            {
                for seed in 1000..1008u64 {
                    let mut rng_r = ChaCha8Rng::seed_from_u64(seed);
                    let mut rng_b = ChaCha8Rng::seed_from_u64(seed);
                    let mut link_r = FdLink::new(cfg.clone(), &mut rng_r).unwrap();
                    let mut link_b = FdLink::new(cfg.clone(), &mut rng_b).unwrap();
                    for f in 0..3 {
                        let r = link_r
                            .run_frame_reference(&payload, opts, &mut rng_r, None)
                            .unwrap();
                        let b = link_b.run_frame_block(&payload, opts, &mut rng_b, None).unwrap();
                        let what = format!("max_rearms {max_rearms} opts {j} seed {seed} frame {f}");
                        assert_outcomes_identical(&r, &b, &what);
                        let timeline = link_r.scratch.rx.sync_timeline();
                        assert_eq!(timeline, link_b.scratch.rx.sync_timeline(), "{what}: timeline");
                        // B's clock has no offset here, so the receiver's
                        // sample count is the frame's sample index + 1.
                        for &(at, state) in timeline.iter().filter(|e| e.0 > r.airtime_samples) {
                            after_total[match state {
                                RxState::Receiving => 0,
                                RxState::Acquiring => 1,
                                _ => 2,
                            }] += 1;
                            assert!(at <= r.samples_run, "{what}: event past the run");
                        }
                    }
                }
            }
        }
        let [locks, rearms, failures] = after_total;
        assert!(locks > 0, "no lock after total");
        assert!(rearms > 0, "no re-arming rejection after total");
        assert!(failures > 0, "no budget-exhausting failure after total");
    }

    /// Pins what `b_locked` means today: both engines report it for a
    /// receiver that ended the frame `Failed` with every candidate
    /// rejected, not only for a committed lock.
    #[test]
    fn b_locked_includes_receivers_that_exhausted_their_rearms() {
        let payload: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(23)).collect();
        let mut cfg = LinkConfig::default_fd();
        cfg.geometry.device_dist_m = 2.4;
        cfg.phy.sync_threshold = 0.35;
        cfg.phy.sync.verify_preamble = false;
        cfg.phy.sync.max_rearms = 1;
        let mut all_rejected = [0; 2]; // reference, block
        for opts in [RunOptions::half_duplex(), RunOptions::fd_monitor()] {
            for seed in 1000..1008u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut link = FdLink::new(cfg.clone(), &mut rng).unwrap();
                for f in 0..6 {
                    let out = if f % 2 == 0 {
                        link.run_frame_reference(&payload, &opts, &mut rng, None)
                    } else {
                        link.run_frame_block(&payload, &opts, &mut rng, None)
                    }
                    .unwrap();
                    let state = link.scratch.rx.state();
                    assert_eq!(out.b_locked, state != RxState::Acquiring, "seed {seed} frame {f}");
                    if state == RxState::Failed && out.sync_rejections == out.sync_attempts {
                        assert!(out.b_locked && out.sync_attempts > 0);
                        all_rejected[f % 2] += 1;
                    }
                }
            }
        }
        assert!(all_rejected.iter().all(|&n| n > 0), "{all_rejected:?}");
    }

    #[test]
    fn block_matches_reference_early_abort() {
        // Ruin the channel mid-frame with a scripted burst so B NACKs and
        // A's abort reflex fires — the hardest control-feedback path.
        use fdb_channel::impairment::{FaultKind, FaultTarget, ScheduledFault};
        let cfg = quiet_cfg();
        let payload: Vec<u8> = (0..128u8).collect();
        let schedule = vec![ScheduledFault {
            start: 9_000,
            duration: 2_500,
            kind: FaultKind::NoiseBurst {
                power_dbm: -35.0,
                target: FaultTarget::B,
            },
        }];
        let mut rng_r = ChaCha8Rng::seed_from_u64(204);
        let mut rng_b = ChaCha8Rng::seed_from_u64(204);
        let mut link_r = FdLink::new(cfg.clone(), &mut rng_r).unwrap();
        let mut link_b = FdLink::new(cfg, &mut rng_b).unwrap();
        let opts = RunOptions::fd_early_abort();
        let mut faults_r = FrameFaults::new(schedule.clone(), 7);
        let mut faults_b = FrameFaults::new(schedule, 7);
        let r = link_r
            .run_frame_reference(&payload, &opts, &mut rng_r, Some(&mut faults_r))
            .unwrap();
        let b = link_b
            .run_frame_block(&payload, &opts, &mut rng_b, Some(&mut faults_b))
            .unwrap();
        assert_outcomes_identical(&r, &b, "early abort");
        assert!(r.aborted_at_sample.is_some(), "burst failed to provoke abort");
    }

    #[test]
    fn block_matches_reference_under_fault_grid() {
        // One representative of every fault class, windows straddling
        // acquisition, header, payload and the feedback epoch.
        use fdb_channel::impairment::{FaultKind, FaultTarget, ScheduledFault};
        let mk = |kind, start, duration| ScheduledFault { start, duration, kind };
        let schedules: Vec<(&str, Vec<ScheduledFault>)> = vec![
            (
                "burst@acquire",
                vec![mk(
                    FaultKind::NoiseBurst {
                        power_dbm: -55.0,
                        target: FaultTarget::Both,
                    },
                    40,
                    400,
                )],
            ),
            (
                "dropout@payload",
                vec![mk(
                    FaultKind::Dropout {
                        target: FaultTarget::B,
                    },
                    5_000,
                    60,
                )],
            ),
            ("drift@mid", vec![mk(FaultKind::ClockDrift { ppm: 900.0 }, 3_000, 4_000)]),
            (
                "sicgain@fb",
                vec![mk(
                    FaultKind::SicGain {
                        gain_db: 6.0,
                        target: FaultTarget::A,
                    },
                    2_000,
                    3_000,
                )],
            ),
            ("fade@mid", vec![mk(FaultKind::AmbientFade { depth_db: 6.0 }, 4_000, 1_500)]),
            (
                "interferer@acquire",
                vec![mk(
                    FaultKind::Interferer {
                        power_dbm: -60.0,
                        period_samples: 20,
                    },
                    0,
                    600,
                )],
            ),
            (
                "stacked",
                vec![
                    mk(FaultKind::AmbientFade { depth_db: 3.0 }, 1_000, 6_000),
                    mk(FaultKind::ClockDrift { ppm: 500.0 }, 2_000, 2_000),
                    mk(
                        FaultKind::NoiseBurst {
                            power_dbm: -60.0,
                            target: FaultTarget::B,
                        },
                        5_500,
                        800,
                    ),
                ],
            ),
        ];
        let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(11)).collect();
        for (name, schedule) in schedules {
            let mut rng_r = ChaCha8Rng::seed_from_u64(205);
            let mut rng_b = ChaCha8Rng::seed_from_u64(205);
            let mut link_r = FdLink::new(quiet_cfg(), &mut rng_r).unwrap();
            let mut link_b = FdLink::new(quiet_cfg(), &mut rng_b).unwrap();
            let opts = RunOptions::fd_monitor();
            let mut faults_r = FrameFaults::new(schedule.clone(), 11);
            let mut faults_b = FrameFaults::new(schedule, 11);
            let r = link_r
                .run_frame_reference(&payload, &opts, &mut rng_r, Some(&mut faults_r))
                .unwrap();
            let b = link_b
                .run_frame_block(&payload, &opts, &mut rng_b, Some(&mut faults_b))
                .unwrap();
            assert_outcomes_identical(&r, &b, name);
        }
    }

    #[test]
    fn swapped_geometry_swaps_distances() {
        let g = LinkGeometry {
            source_dist_a_m: 10.0,
            source_dist_b_m: 20.0,
            ..LinkGeometry::default_indoor()
        };
        let s = g.swapped();
        assert_eq!(s.source_dist_a_m, 20.0);
        assert_eq!(s.source_dist_b_m, 10.0);
    }
}
