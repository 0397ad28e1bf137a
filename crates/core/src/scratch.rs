//! Per-link scratch arena: every working buffer the frame hot path needs,
//! owned once per [`FdLink`](crate::link::FdLink) and reused frame after
//! frame.
//!
//! The frame engines used to build a fresh [`DataTransmitter`],
//! [`DataReceiver`], feedback codec pair and staging `Vec`s per frame —
//! dozens of heap allocations per frame, millions over a sweep. The arena
//! inverts that: each component exposes a capacity-retaining reload
//! (`DataTransmitter::load`, `DataReceiver::load`,
//! `FeedbackEncoder::rearm`, `FeedbackDecoder::rearm`) and the engines
//! borrow the arena's components instead of constructing their own. After
//! a one-frame warmup (which grows every buffer to the frame's working-set
//! size), steady-state frames allocate nothing — the property pinned by
//! `tests/alloc_steady_state.rs` with a counting global allocator.
//!
//! The arena lives on the link rather than the engine call frame so it
//! survives across frames, across engine switches (reference ↔ block), and
//! across [`FdLink::reinit`](crate::link::FdLink::reinit) rebuilds — the
//! MAC's per-slot link reconstruction reuses the same arena.

use crate::error::PhyError;
use crate::feedback::{FeedbackDecoder, FeedbackEncoder};
use crate::link::LinkConfig;
use crate::rx::DataReceiver;
use crate::tx::DataTransmitter;

/// Reusable per-link working set for the frame engines.
///
/// Constructed once per link (or per worker) and threaded by `&mut`
/// borrow through every frame run; all components and staging buffers
/// retain their capacity between frames.
pub struct LinkScratch {
    /// Forward transmitter, reloaded per frame via `DataTransmitter::load`.
    pub(crate) tx: DataTransmitter,
    /// Data receiver, reloaded per frame via `DataReceiver::load`.
    pub(crate) rx: DataReceiver,
    /// B's feedback encoder, re-armed per frame (and per header re-arm).
    pub(crate) fb_enc: FeedbackEncoder,
    /// A's feedback decoder, re-armed per frame.
    pub(crate) fb_dec: FeedbackDecoder,
    /// B-side envelope samples staged by the block pipeline's physics pass.
    pub(crate) env_b: Vec<f64>,
    /// B's antenna state per staged sample (block pipeline).
    pub(crate) b_state: Vec<bool>,
    /// Resampler output staging (both engines).
    pub(crate) resampled: Vec<f64>,
    /// Block pipeline, while B acquires: end of each staged input sample's
    /// resampler output within `resampled`, so the receiver can be fed in
    /// batches and a state change still be traced to the input tick that
    /// caused it.
    pub(crate) rs_ends: Vec<usize>,
}

impl LinkScratch {
    /// Builds an arena sized for `cfg`'s PHY. Buffers start empty — the
    /// first frame run grows them to the working-set size (the one
    /// "warmup" frame the zero-allocation contract excludes).
    pub fn new(cfg: &LinkConfig) -> Result<Self, PhyError> {
        let phy = &cfg.phy;
        let half_fb = (phy.feedback_ratio / 2) * phy.samples_per_bit();
        Ok(LinkScratch {
            tx: DataTransmitter::new(phy, &[])?,
            rx: DataReceiver::new(phy.clone()),
            fb_enc: FeedbackEncoder::new(half_fb),
            fb_dec: FeedbackDecoder::new(half_fb),
            env_b: Vec::new(),
            b_state: Vec::new(),
            resampled: Vec::new(),
            rs_ends: Vec::new(),
        })
    }
}
