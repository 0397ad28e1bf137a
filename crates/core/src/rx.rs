//! Forward data receiver: envelope stream → synchronised bits → frame.
//!
//! Pipeline (all on the device's own clock):
//!
//! 1. **Acquisition** — slide a normalised correlator over the envelope
//!    until the line-coded preamble peaks ([`fdb_dsp::correlate`]).
//! 2. **Chip integration** — average the envelope over each chip period.
//! 3. **Bit decisions** — the line code's soft rule over the chip energies
//!    ([`fdb_dsp::line_code::SoftDecoder`]), with an adaptive peak-tracking
//!    threshold for the codes that need one.
//! 4. **Timing recovery** — a per-bit delay-locked loop that re-estimates
//!    the mid-bit transition position (guaranteed by Manchester) and
//!    lengthens/shortens chip windows by whole samples. This is what lets
//!    a crystal-less tag hold sync over a multi-thousand-bit frame.
//! 5. **Framing** — bits feed the streaming [`crate::frame::FrameParser`],
//!    whose per-block CRC verdicts drive the feedback (NACK) channel.

use crate::config::PhyConfig;
use crate::frame::{BlockStatus, FrameParser, ParseEvent};
use crate::tx::DataTransmitter;
use fdb_dsp::correlate::{chips_to_template, PreambleSearcher, SyncEvent};
use fdb_dsp::line_code::{LineCode, SoftDecoder};
use fdb_dsp::moving_average::MovingAverage;
use fdb_dsp::ringbuf::RingBuf;
use fdb_dsp::threshold::PeakTracker;

/// Gain of the timing DLL (fraction of the measured error fed back).
const DLL_GAIN: f64 = 0.3;
/// DLL search half-window in samples around the expected transition.
const DLL_WINDOW_FRAC: f64 = 0.45;

/// Receiver lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxState {
    /// Hunting for the preamble.
    Acquiring,
    /// Locked; decoding payload bits.
    Receiving,
    /// Frame fully parsed.
    Done,
    /// The re-acquisition budget is exhausted — the receiver gave up on
    /// this sample stream.
    Failed,
}

/// Why a candidate lock was rejected by two-stage verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncRejectReason {
    /// Stage 1: the correlation peak was broad or multi-modal.
    PeakShape,
    /// Stage 2: the sample history behind the peak had no modulation at
    /// all (a flat span can never carry the preamble, and would leave the
    /// slicer unprimed).
    FlatHistory,
    /// Stage 2: the re-decoded preamble chips disagreed with the known
    /// pattern beyond the configured tolerance.
    PreambleMismatch,
    /// Stage 2: the frame header failed its CRC after Hamming correction.
    HeaderCrc,
}

impl SyncRejectReason {
    /// Stable lower-case label (trace/JSONL surfaces).
    pub fn as_str(self) -> &'static str {
        match self {
            SyncRejectReason::PeakShape => "peak_shape",
            SyncRejectReason::FlatHistory => "flat_history",
            SyncRejectReason::PreambleMismatch => "preamble_mismatch",
            SyncRejectReason::HeaderCrc => "header_crc",
        }
    }
}

/// One rejected lock candidate (diagnostics; surfaced per frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncRejection {
    /// Peak correlation of the candidate.
    pub score: f64,
    /// Peak-to-sidelobe ratio of the candidate trajectory.
    pub sharpness: f64,
    /// Which verification stage failed.
    pub reason: SyncRejectReason,
}

/// Final result of a reception.
#[derive(Debug, Clone, PartialEq)]
pub struct RxResult {
    /// Received payload (failed blocks included, corrupted).
    pub payload: Vec<u8>,
    /// Per-block CRC verdicts.
    pub blocks: Vec<BlockStatus>,
    /// Sample index (receiver clock) at which sync locked.
    pub locked_at: usize,
}

/// Streaming data receiver for one frame.
pub struct DataReceiver {
    cfg: PhyConfig,
    state: RxState,
    searcher: PreambleSearcher,
    /// Half-chip smoother in front of the correlator only: the payload path
    /// integrates whole chips anyway, but the sample-level correlator needs
    /// the source's fast power fluctuation knocked down to find the
    /// preamble at realistic modulation depths.
    sync_smoother: MovingAverage,
    history: RingBuf<f64>,
    slicer: PeakTracker,
    soft: SoftDecoder,
    parser: FrameParser,
    // Chip/bit assembly.
    chip_acc: f64,
    chip_samples: usize,
    chip_target: usize,
    chip_energies: Vec<f64>,
    bit_samples: Vec<f64>,
    timing_debt: f64,
    // Counters.
    samples_seen: usize,
    locked_at: Option<usize>,
    bits_decoded: usize,
    result: Option<RxResult>,
    timing_corrections: i64,
    // Diagnostics probes (cheap scalar stores; read by the trace layer).
    sync_peak: f64,
    sync_lock: Option<(f64, usize)>,
    chips_seen: usize,
    last_chip_energy: f64,
    last_bit: Option<bool>,
    // Two-stage acquisition bookkeeping.
    /// Expected preamble chip pattern, for the stage-2 re-decode.
    preamble_chip_pattern: Vec<bool>,
    /// Candidate locks declared by the searcher (accepted + rejected).
    sync_attempts: usize,
    /// Rejected candidates, in order (bounded by `sync.max_rearms + 1`).
    rejections: Vec<SyncRejection>,
    /// Latched after a header-CRC rejection until the next verified lock:
    /// keeps the NACK line honest while the receiver re-acquires.
    nack_latch: bool,
    /// `true` once the current lock's header has passed its CRC. From that
    /// point the only exits from `Receiving` are `Done`/`Failed` — there is
    /// no re-arm path — which is what lets a block pipeline feed whole
    /// slices without watching for a mid-slice return to acquisition.
    header_accepted: bool,
    /// Reused by `update_timing` (was a fresh allocation per decoded bit).
    timing_prefix: Vec<f64>,
    /// Reused by `commit_lock` (was a fresh allocation per lock).
    replay_scratch: Vec<f64>,
    /// Reused by `acquire_run` for the slice run through the smoother.
    acq_smoothed: Vec<f64>,
    /// Scratch smoother snapshot for `acquire_run` — `clone_from` of the
    /// live smoother each call, allocation-free once capacities match.
    acq_smoother: MovingAverage,
    /// Reused by `verify_candidate` for the per-chip integration means.
    verify_means: Vec<f64>,
    /// Capacity donors for the next [`RxResult`]: a caller that recycles a
    /// delivered result via [`DataReceiver::recycle_result`] makes frame
    /// completion allocation-free in steady state.
    spare_payload: Vec<u8>,
    spare_blocks: Vec<BlockStatus>,
}

impl DataReceiver {
    /// Creates a receiver for one frame under `cfg`.
    pub fn new(cfg: PhyConfig) -> Self {
        let preamble_chips = DataTransmitter::preamble_chips(&cfg);
        let template = chips_to_template(
            &preamble_chips.iter().map(|&c| f64::from(u8::from(c))).collect::<Vec<_>>(),
            cfg.samples_per_chip,
        );
        let smooth_len = (cfg.samples_per_chip / 2).max(1);
        let hist_cap = template.len() + smooth_len + 8;
        // Stage-1 gate: exclude one chip either side of the peak from the
        // sidelobe estimate — the correlation main lobe of a chip-coded
        // template is about one chip wide.
        let searcher = PreambleSearcher::new(template, cfg.sync_threshold)
            .with_shape_gate(cfg.sync.min_sharpness, cfg.samples_per_chip);
        DataReceiver {
            searcher,
            preamble_chip_pattern: preamble_chips,
            sync_attempts: 0,
            rejections: Vec::new(),
            nack_latch: false,
            header_accepted: false,
            timing_prefix: Vec::new(),
            replay_scratch: Vec::new(),
            acq_smoothed: Vec::new(),
            acq_smoother: MovingAverage::new(smooth_len),
            verify_means: Vec::new(),
            spare_payload: Vec::new(),
            spare_blocks: Vec::new(),
            sync_smoother: MovingAverage::new(smooth_len),
            history: RingBuf::new(hist_cap),
            slicer: PeakTracker::new(0.05),
            soft: SoftDecoder::new(cfg.line_code),
            parser: FrameParser::new(cfg.clone()),
            chip_acc: 0.0,
            chip_samples: 0,
            chip_target: cfg.samples_per_chip,
            chip_energies: Vec::with_capacity(cfg.chips_per_bit()),
            bit_samples: Vec::with_capacity(cfg.samples_per_bit() + 2),
            timing_debt: 0.0,
            samples_seen: 0,
            locked_at: None,
            bits_decoded: 0,
            result: None,
            timing_corrections: 0,
            sync_peak: 0.0,
            sync_lock: None,
            chips_seen: 0,
            last_chip_energy: 0.0,
            last_bit: None,
            state: RxState::Acquiring,
            cfg,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RxState {
        self.state
    }

    /// `true` while any completed block has failed its CRC, the receiver
    /// gave up, or a header-CRC rejection is pending re-acquisition — the
    /// instantaneous NACK signal.
    pub fn nack(&self) -> bool {
        self.state == RxState::Failed || self.nack_latch || !self.parser.all_blocks_ok()
    }

    /// Candidate locks the searcher declared this frame (accepted and
    /// rejected).
    pub fn sync_attempts(&self) -> usize {
        self.sync_attempts
    }

    /// Candidate locks rejected by two-stage verification (either stage,
    /// including header-CRC failures).
    pub fn sync_rejections(&self) -> usize {
        self.rejections.len()
    }

    /// The rejected candidates, in order.
    pub fn rejections(&self) -> &[SyncRejection] {
        &self.rejections
    }

    /// Data bits decoded so far.
    pub fn bits_decoded(&self) -> usize {
        self.bits_decoded
    }

    /// Whole-sample timing adjustments applied by the DLL (signed sum).
    pub fn timing_corrections(&self) -> i64 {
        self.timing_corrections
    }

    /// Highest preamble correlation observed so far, whether or not it
    /// cleared the lock threshold — the key diagnostic for marginal or
    /// collided acquisitions.
    pub fn sync_peak_seen(&self) -> f64 {
        self.sync_peak
    }

    /// `(score, lag)` of the successful preamble lock, if any.
    pub fn sync_lock_info(&self) -> Option<(f64, usize)> {
        self.sync_lock
    }

    /// Data chips integrated since lock.
    pub fn chips_seen(&self) -> usize {
        self.chips_seen
    }

    /// Mean envelope of the most recently completed chip.
    pub fn last_chip_energy(&self) -> f64 {
        self.last_chip_energy
    }

    /// Live decision threshold of the adaptive slicer.
    pub fn slicer_threshold(&self) -> f64 {
        self.slicer.threshold()
    }

    /// Most recently decoded data bit.
    pub fn last_bit(&self) -> Option<bool> {
        self.last_bit
    }

    /// Consumes the result once the frame is done.
    pub fn take_result(&mut self) -> Option<RxResult> {
        self.result.take()
    }

    /// Returns a delivered result's buffers to the receiver's spare pool so
    /// the next frame's [`RxResult`] can be built without allocating.
    pub fn recycle_result(&mut self, result: RxResult) {
        let RxResult { mut payload, mut blocks, .. } = result;
        payload.clear();
        blocks.clear();
        self.spare_payload = payload;
        self.spare_blocks = blocks;
    }

    /// Returns the receiver to the state of a fresh
    /// [`DataReceiver::new`] under the same config, retaining every grown
    /// buffer — the allocation-free per-frame entry point for a receiver
    /// reused across frames.
    pub fn reset(&mut self) {
        if let Some(r) = self.result.take() {
            self.recycle_result(r);
        }
        self.state = RxState::Acquiring;
        self.searcher.hard_reset();
        self.sync_smoother.reset();
        self.history.clear();
        self.slicer = PeakTracker::new(0.05);
        self.soft = SoftDecoder::new(self.cfg.line_code);
        self.parser.reset();
        self.chip_acc = 0.0;
        self.chip_samples = 0;
        self.chip_target = self.cfg.samples_per_chip;
        self.chip_energies.clear();
        self.bit_samples.clear();
        self.timing_debt = 0.0;
        self.samples_seen = 0;
        self.locked_at = None;
        self.bits_decoded = 0;
        self.timing_corrections = 0;
        self.sync_peak = 0.0;
        self.sync_lock = None;
        self.chips_seen = 0;
        self.last_chip_energy = 0.0;
        self.last_bit = None;
        self.sync_attempts = 0;
        self.rejections.clear();
        self.nack_latch = false;
        self.header_accepted = false;
    }

    /// Re-targets the receiver at `cfg` for the next frame. Same config →
    /// an allocation-free [`reset`](DataReceiver::reset); a changed config
    /// rebuilds the template and pipeline (allocation is the warmup cost of
    /// a rate switch).
    pub fn load(&mut self, cfg: &PhyConfig) {
        if self.cfg == *cfg {
            self.reset();
        } else {
            *self = DataReceiver::new(cfg.clone());
        }
    }

    /// Per-block verdicts so far.
    pub fn blocks(&self) -> &[BlockStatus] {
        self.parser.blocks()
    }

    /// Payload and verdicts of blocks completed so far, regardless of
    /// whether the frame finished (aborted frames keep their early blocks).
    pub fn partial(&self) -> (&[u8], &[BlockStatus]) {
        (self.parser.partial_payload(), self.parser.blocks())
    }

    /// Feeds one (self-interference-corrected) envelope sample.
    pub fn push_sample(&mut self, env: f64) {
        self.samples_seen += 1;
        match self.state {
            RxState::Acquiring => self.acquire(env),
            RxState::Receiving => self.receive(env),
            RxState::Done | RxState::Failed => {}
        }
    }

    /// Feeds a contiguous slice of envelope samples. Bit-identical to
    /// calling [`Self::push_sample`] once per element: state transitions
    /// are honoured at every sample boundary, but while `Acquiring` the
    /// samples go through the lane-batched exact preamble scan, and while
    /// `Receiving` the samples up to the next chip boundary are
    /// accumulated in one run (same summation order) instead of
    /// dispatching per sample.
    pub fn push_slice(&mut self, xs: &[f64]) {
        let mut i = 0;
        while i < xs.len() {
            match self.state {
                RxState::Done | RxState::Failed => {
                    self.samples_seen += xs.len() - i;
                    return;
                }
                RxState::Acquiring => i += self.push_acquiring(&xs[i..]),
                RxState::Receiving => {
                    // `chip_samples < chip_target` always holds here, so the
                    // run is non-empty and never crosses a chip boundary.
                    let run = (self.chip_target - self.chip_samples).min(xs.len() - i);
                    let chunk = &xs[i..i + run];
                    self.samples_seen += run;
                    self.bit_samples.extend_from_slice(chunk);
                    for &v in chunk {
                        self.chip_acc += v;
                    }
                    self.chip_samples += run;
                    i += run;
                    if self.chip_samples >= self.chip_target {
                        self.finish_chip();
                    }
                }
            }
        }
    }

    /// Feeds envelope samples while the receiver hunts for the preamble
    /// and stops right after the sample at which it leaves `Acquiring` (a
    /// committed lock, or the re-arm budget spent). Returns the samples
    /// consumed: all of `xs` when the state never changes, 0 when the
    /// receiver is not acquiring. Bit-identical to calling
    /// [`Self::push_sample`] on the consumed prefix; a caller that must act
    /// on the exact lock sample (the block frame engine schedules B's
    /// feedback epoch from it) feeds whole blocks through here.
    pub(crate) fn push_acquiring(&mut self, xs: &[f64]) -> usize {
        // `acquire_run` smooths all of its input up front, so feed it one
        // template length at a time: the samples after a lock are then
        // left to the receiving path instead of being smoothed for nothing.
        let run = self.searcher.template_len().max(64);
        let mut i = 0;
        while i < xs.len() && self.state == RxState::Acquiring {
            i += self.acquire_run(&xs[i..xs.len().min(i + run)]);
        }
        i
    }

    /// `true` once the current lock's frame header has passed its CRC.
    /// After this point a re-arm (return to `Acquiring`) is impossible —
    /// only `Done`/`Failed` remain — so a caller that batches samples no
    /// longer needs to watch for a mid-batch loss of lock.
    pub fn header_accepted(&self) -> bool {
        self.header_accepted
    }

    /// Exact acquisition over `xs`, window positions scored in lane
    /// batches by [`PreambleSearcher::scan`]; stops right after the sample
    /// at which the state leaves `Acquiring` and returns the samples
    /// consumed. It smooths through a snapshot of the live smoother (the
    /// smoother never reacts to sync events, so the smoothed stream stays
    /// valid across them), then advances the live smoother and raw history
    /// over each consumed prefix before the prefix's event is handled —
    /// the order [`acquire`](Self::acquire) keeps per sample.
    fn acquire_run(&mut self, xs: &[f64]) -> usize {
        self.acq_smoother.clone_from(&self.sync_smoother);
        let mut smoothed = std::mem::take(&mut self.acq_smoothed);
        self.acq_smoother.process_block_into(xs, &mut smoothed);
        let mut done = 0;
        while done < xs.len() && self.state == RxState::Acquiring {
            let (n, event, peak) = self.searcher.scan(&smoothed[done..]);
            for &env in &xs[done..done + n] {
                self.history.push_evict(env);
                self.sync_smoother.process(env);
            }
            self.samples_seen += n;
            self.sync_peak = self.sync_peak.max(peak);
            done += n;
            self.on_sync_event(event);
        }
        self.acq_smoothed = smoothed;
        done
    }

    fn acquire(&mut self, env: f64) {
        self.history.push_evict(env);
        let smoothed = self.sync_smoother.process(env);
        let event = self.searcher.process(smoothed);
        self.sync_peak = self.sync_peak.max(self.searcher.last_score());
        self.on_sync_event(event);
    }

    /// Acts on one searcher outcome: stage-2 verification and commit, or
    /// the rejection bookkeeping. Shared by the per-sample and batched
    /// acquisition paths.
    fn on_sync_event(&mut self, event: SyncEvent) {
        match event {
            SyncEvent::Searching => {}
            SyncEvent::Rejected { score, sharpness } => {
                // Stage 1 (peak shape) failed inside the searcher; it has
                // already re-armed itself.
                self.sync_attempts += 1;
                self.reject_lock(SyncRejection {
                    score,
                    sharpness,
                    reason: SyncRejectReason::PeakShape,
                });
            }
            SyncEvent::Locked { lag, score, sharpness } => {
                self.sync_attempts += 1;
                match self.verify_candidate(lag) {
                    Some(reason) => {
                        self.searcher.rearm();
                        self.reject_lock(SyncRejection { score, sharpness, reason });
                    }
                    None => self.commit_lock(lag, score),
                }
            }
        }
    }

    /// Number of raw history samples between the true correlation peak and
    /// "now": the smoother's group delay plus the declaration lag.
    fn samples_behind_peak(&self, lag: usize) -> usize {
        lag + (self.sync_smoother.window_len() - 1) / 2
    }

    /// Stage-2 verification of a candidate lock: re-decode the preamble
    /// chips from the raw sample history ending at the peak and compare
    /// them against the known pattern. Returns the failure reason, or
    /// `None` when the candidate is good.
    fn verify_candidate(&mut self, lag: usize) -> Option<SyncRejectReason> {
        // The history must carry modulation — a flat span can never hold
        // the preamble, and committing on it would leave the slicer at its
        // stale default.
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for v in self.history.iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi <= lo {
            return Some(SyncRejectReason::FlatHistory);
        }
        if !self.cfg.sync.verify_preamble {
            return None;
        }
        let sps = self.cfg.samples_per_chip;
        let n_chips = self.preamble_chip_pattern.len();
        let behind = self.samples_behind_peak(lag);
        let span = n_chips * sps;
        let n = self.history.len();
        let Some(start) = n.checked_sub(behind + span) else {
            // Not enough raw history to re-decode (lock declared before
            // one full preamble of samples arrived): nothing to verify.
            return None;
        };
        // Integrate each chip and slice at the midpoint of the chip-mean
        // range (chip means are far less noise-sensitive than raw samples).
        self.verify_means.clear();
        for c in 0..n_chips {
            let mut acc = 0.0;
            for i in 0..sps {
                acc += self.history.get(start + c * sps + i).unwrap_or(0.0);
            }
            self.verify_means.push(acc / sps as f64);
        }
        let m_lo = self.verify_means.iter().cloned().fold(f64::MAX, f64::min);
        let m_hi = self.verify_means.iter().cloned().fold(f64::MIN, f64::max);
        let mid = 0.5 * (m_lo + m_hi);
        let mismatches = self
            .verify_means
            .iter()
            .zip(&self.preamble_chip_pattern)
            .filter(|&(&m, &c)| (m > mid) != c)
            .count();
        if mismatches > self.cfg.sync.max_preamble_chip_errors {
            return Some(SyncRejectReason::PreambleMismatch);
        }
        None
    }

    /// Commits a verified candidate: primes the slicer, enters
    /// `Receiving`, and replays the raw samples that arrived behind the
    /// peak (they belong to the payload).
    fn commit_lock(&mut self, lag: usize, score: f64) {
        self.sync_lock = Some((score, lag));
        self.locked_at = Some(self.samples_seen);
        self.nack_latch = false;
        self.state = RxState::Receiving;
        // Prime the slicer from the preamble's min/max levels (the flat
        // case was rejected in verification, so hi > lo here).
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for v in self.history.iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi > lo {
            self.slicer.prime(lo, hi);
        }
        // The smoother delays the correlation peak by its group delay,
        // and `lag` further samples passed before the peak was declared;
        // all of those raw samples belong to the payload — replay them.
        let behind = self.samples_behind_peak(lag);
        let n = self.history.len();
        let mut replay = std::mem::take(&mut self.replay_scratch);
        replay.clear();
        replay.extend((n.saturating_sub(behind)..n).filter_map(|i| self.history.get(i)));
        for &v in &replay {
            self.receive(v);
        }
        self.replay_scratch = replay;
    }

    /// Records a rejection and either re-arms the pipeline for another
    /// acquisition attempt or, once the budget is spent, gives up.
    fn reject_lock(&mut self, rejection: SyncRejection) {
        self.rejections.push(rejection);
        if self.rejections.len() > self.cfg.sync.max_rearms {
            self.state = RxState::Failed;
        } else {
            self.rearm();
        }
    }

    /// Returns the receiver to a clean `Acquiring` state (searcher and the
    /// whole post-lock pipeline), keeping only the cumulative diagnostics.
    fn rearm(&mut self) {
        self.state = RxState::Acquiring;
        self.sync_lock = None;
        self.locked_at = None;
        self.header_accepted = false;
        self.parser.reset();
        self.soft = SoftDecoder::new(self.cfg.line_code);
        self.slicer = PeakTracker::new(0.05);
        self.chip_acc = 0.0;
        self.chip_samples = 0;
        self.chip_target = self.cfg.samples_per_chip;
        self.chip_energies.clear();
        self.bit_samples.clear();
        self.timing_debt = 0.0;
    }

    fn receive(&mut self, env: f64) {
        self.bit_samples.push(env);
        self.chip_acc += env;
        self.chip_samples += 1;
        if self.chip_samples < self.chip_target {
            return;
        }
        self.finish_chip();
    }

    /// Completes the chip accumulated in `chip_acc`/`chip_samples`: slices
    /// it, and on a bit boundary decides the bit, runs the DLL and feeds
    /// the frame parser. Shared by the per-sample and slice paths.
    fn finish_chip(&mut self) {
        let energy = self.chip_acc / self.chip_samples as f64;
        self.chip_acc = 0.0;
        self.chip_samples = 0;
        self.chip_target = self.next_chip_target();
        self.slicer.process(energy);
        self.chips_seen += 1;
        self.last_chip_energy = energy;
        self.chip_energies.push(energy);
        if self.chip_energies.len() < self.cfg.chips_per_bit() {
            return;
        }
        // Bit complete.
        let bit = self
            .soft
            .decide(&self.chip_energies, self.slicer.threshold())
            .unwrap_or(false);
        self.chip_energies.clear();
        self.update_timing();
        self.bit_samples.clear();
        self.bits_decoded += 1;
        self.last_bit = Some(bit);
        if let Some(event) = self.parser.push_bit(bit) {
            match event {
                ParseEvent::HeaderInvalid => {
                    // Stage 2, final check: a committed lock whose header
                    // fails CRC was a false lock (collision, noise burst).
                    // Latch NACK and go hunt for the real preamble — the
                    // remaining samples may still carry it.
                    let (score, _) = self.sync_lock.unwrap_or((0.0, 0));
                    let sharpness = self.searcher.last_sharpness();
                    self.nack_latch = true;
                    self.searcher.rearm();
                    self.reject_lock(SyncRejection {
                        score,
                        sharpness,
                        reason: SyncRejectReason::HeaderCrc,
                    });
                }
                ParseEvent::Done => {
                    self.state = RxState::Done;
                    let mut payload = std::mem::take(&mut self.spare_payload);
                    payload.clear();
                    payload.extend_from_slice(self.parser.partial_payload());
                    let mut blocks = std::mem::take(&mut self.spare_blocks);
                    blocks.clear();
                    blocks.extend_from_slice(self.parser.blocks());
                    self.result = Some(RxResult {
                        payload,
                        blocks,
                        locked_at: self.locked_at.unwrap_or(0),
                    });
                }
                ParseEvent::Header { .. } => self.header_accepted = true,
                ParseEvent::Block(_) => {}
            }
        }
    }

    /// Applies accumulated timing debt to the next chip length.
    fn next_chip_target(&mut self) -> usize {
        let sps = self.cfg.samples_per_chip;
        if self.timing_debt >= 1.0 {
            self.timing_debt -= 1.0;
            self.timing_corrections += 1;
            sps + 1
        } else if self.timing_debt <= -1.0 {
            self.timing_debt += 1.0;
            self.timing_corrections -= 1;
            sps.saturating_sub(1).max(1)
        } else {
            sps
        }
    }

    /// Mid-bit-transition DLL (Manchester only: the transition between the
    /// two chips of a bit always exists).
    fn update_timing(&mut self) {
        if self.cfg.line_code != LineCode::Manchester {
            return;
        }
        let n = self.bit_samples.len();
        let sps = self.cfg.samples_per_chip;
        if n < 2 * sps - 2 {
            return;
        }
        // Prefix sums for O(window) split search, in a reused buffer.
        self.timing_prefix.clear();
        self.timing_prefix.reserve(n + 1);
        self.timing_prefix.push(0.0);
        let mut acc = 0.0;
        for &v in &self.bit_samples {
            acc += v;
            self.timing_prefix.push(acc);
        }
        let prefix = &self.timing_prefix;
        let total = *prefix.last().unwrap();
        let w = ((sps as f64) * DLL_WINDOW_FRAC) as usize;
        let centre = n / 2;
        let lo = centre.saturating_sub(w).max(1);
        let hi = (centre + w).min(n - 1);
        let mut best_t = centre;
        let mut best_metric = -1.0;
        for (t, &p) in prefix.iter().enumerate().take(hi + 1).skip(lo) {
            let mean_a = p / t as f64;
            let mean_b = (total - p) / (n - t) as f64;
            let metric = (mean_a - mean_b).abs();
            if metric > best_metric {
                best_metric = metric;
                best_t = t;
            }
        }
        // Gate: only trust transitions with a swing comparable to the
        // slicer's tracked modulation depth.
        if best_metric < 0.25 * self.slicer.swing() {
            return;
        }
        let err = best_t as f64 - centre as f64;
        self.timing_debt += DLL_GAIN * err;
        // Clamp the debt so one bad bit cannot slew the clock far.
        self.timing_debt = self.timing_debt.clamp(-3.0, 3.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhyConfig {
        PhyConfig::default_fd()
    }

    /// Renders a frame as an ideal envelope waveform: chip=1 → `hi`,
    /// chip=0 → `lo`, preceded by `idle` samples at `lo`.
    fn render(cfg: &PhyConfig, payload: &[u8], idle: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut tx = DataTransmitter::new(cfg, payload).unwrap();
        let mut out = vec![lo; idle];
        while let Some(state) = tx.next_state() {
            out.push(if state { hi } else { lo });
        }
        // Trailing idle so the parser sees the last bit through.
        out.extend(vec![lo; cfg.samples_per_bit() * 2]);
        out
    }

    #[test]
    fn decodes_clean_frame() {
        let cfg = cfg();
        let payload: Vec<u8> = (0..48u8).collect();
        let wave = render(&cfg, &payload, 100, 0.4, 1.0);
        let mut rx = DataReceiver::new(cfg);
        for &v in &wave {
            rx.push_sample(v);
        }
        assert_eq!(rx.state(), RxState::Done);
        let r = rx.take_result().unwrap();
        assert_eq!(r.payload, payload);
        assert!(r.blocks.iter().all(|b| b.ok));
        assert!(!rx.nack());
    }

    #[test]
    fn decodes_with_arbitrary_idle_offset() {
        let cfg = cfg();
        let payload = vec![0xC3u8; 10];
        for idle in [0, 1, 7, 33, 250] {
            let wave = render(&cfg, &payload, idle, 0.2, 0.9);
            let mut rx = DataReceiver::new(cfg.clone());
            for &v in &wave {
                rx.push_sample(v);
            }
            assert_eq!(rx.state(), RxState::Done, "idle {idle}");
            assert_eq!(rx.take_result().unwrap().payload, payload, "idle {idle}");
        }
    }

    #[test]
    fn scale_invariance() {
        // The receiver must not care about absolute envelope level.
        let cfg = cfg();
        let payload = vec![0x5Au8; 20];
        for (lo, hi) in [(1e-9, 3e-9), (0.5, 0.6), (100.0, 180.0)] {
            let wave = render(&cfg, &payload, 60, lo, hi);
            let mut rx = DataReceiver::new(cfg.clone());
            for &v in &wave {
                rx.push_sample(v);
            }
            assert_eq!(rx.state(), RxState::Done, "levels ({lo},{hi})");
            assert_eq!(rx.take_result().unwrap().payload, payload);
        }
    }

    #[test]
    fn nack_rises_on_corrupted_block() {
        let cfg = cfg();
        let payload: Vec<u8> = (0..64u8).collect(); // 4 blocks
        let mut wave = render(&cfg, &payload, 50, 0.3, 1.0);
        // Corrupt a run of samples inside the second block's airtime.
        let preamble_samples = cfg.preamble.len() * cfg.samples_per_bit();
        let hdr_samples = crate::frame::HEADER_BITS * cfg.samples_per_bit();
        let block_samples = (16 + 1) * 8 * cfg.samples_per_bit();
        let start = 50 + preamble_samples + hdr_samples + block_samples + block_samples / 2;
        for v in wave.iter_mut().skip(start).take(cfg.samples_per_bit() * 3) {
            *v = 0.65; // ambiguous level wipes out several bits
        }
        let mut rx = DataReceiver::new(cfg);
        let mut nack_seen_during = false;
        for &v in &wave {
            rx.push_sample(v);
            if rx.nack() && rx.state() == RxState::Receiving {
                nack_seen_during = true;
            }
        }
        assert!(nack_seen_during, "NACK must rise mid-frame");
        assert_eq!(rx.state(), RxState::Done);
        let r = rx.take_result().unwrap();
        assert!(!r.blocks[1].ok);
        assert!(r.blocks[0].ok);
    }

    #[test]
    fn survives_clock_skew_via_dll() {
        // Stretch the waveform by +2000 ppm (receiver clock slow) using a
        // fractional resampler; the DLL must hold lock over a long frame.
        use fdb_dsp::resample::Resampler;
        let cfg = cfg();
        let payload: Vec<u8> = (0..128).map(|i| (i * 7) as u8).collect();
        let wave = render(&cfg, &payload, 80, 0.4, 1.0);
        let mut rs = Resampler::from_ppm(2000.0);
        let stretched = rs.process_block(&wave);
        let mut rx = DataReceiver::new(cfg);
        for &v in &stretched {
            rx.push_sample(v);
        }
        assert_eq!(rx.state(), RxState::Done, "DLL failed to hold lock");
        let r = rx.take_result().unwrap();
        assert_eq!(r.payload, payload);
        assert!(rx.timing_corrections() != 0, "DLL never engaged");
    }

    #[test]
    fn no_lock_on_flat_input() {
        let cfg = cfg();
        let mut rx = DataReceiver::new(cfg);
        for _ in 0..10_000 {
            rx.push_sample(0.7);
        }
        assert_eq!(rx.state(), RxState::Acquiring);
        assert!(rx.take_result().is_none());
    }

    #[test]
    fn failed_header_reports_failed_state_when_rearm_disabled() {
        // The legacy single-stage policy: first bad header is terminal.
        let mut cfg = cfg();
        cfg.sync = crate::config::SyncPolicy::trusting();
        let payload = vec![1u8; 8];
        let mut wave = render(&cfg, &payload, 40, 0.3, 1.0);
        // Obliterate the header region (after the preamble).
        let pre = 40 + cfg.preamble.len() * cfg.samples_per_bit();
        for v in wave
            .iter_mut()
            .skip(pre)
            .take(crate::frame::HEADER_BITS * cfg.samples_per_bit())
        {
            *v = 0.65;
        }
        let mut rx = DataReceiver::new(cfg);
        for &v in &wave {
            rx.push_sample(v);
        }
        assert_eq!(rx.state(), RxState::Failed);
        assert!(rx.nack());
    }

    #[test]
    fn bad_header_rearms_and_decodes_following_frame() {
        // A corrupted-header frame is a false lock; with re-arm enabled the
        // receiver must recover and decode the clean frame right behind it.
        let cfg = cfg();
        let junk = vec![0xAAu8; 8];
        let mut wave = render(&cfg, &junk, 40, 0.3, 1.0);
        let pre = 40 + cfg.preamble.len() * cfg.samples_per_bit();
        for v in wave
            .iter_mut()
            .skip(pre)
            .take(crate::frame::HEADER_BITS * cfg.samples_per_bit())
        {
            *v = 0.65;
        }
        let payload: Vec<u8> = (0..32u8).collect();
        let clean = render(&cfg, &payload, 60, 0.3, 1.0);
        wave.extend_from_slice(&clean);
        let mut rx = DataReceiver::new(cfg);
        let mut nack_during = false;
        for &v in &wave {
            rx.push_sample(v);
            if rx.state() == RxState::Acquiring && rx.nack() {
                nack_during = true;
            }
        }
        assert_eq!(rx.state(), RxState::Done, "re-arm failed to recover");
        assert!(rx.sync_rejections() >= 1, "no rejection was recorded");
        assert!(nack_during, "NACK latch must hold while re-acquiring");
        let r = rx.take_result().unwrap();
        assert_eq!(r.payload, payload);
        assert!(!rx.nack(), "NACK latch must clear on the verified lock");
    }

    #[test]
    fn noise_burst_then_clean_frame_decodes() {
        // Deterministic wideband burst (LCG), then silence, then a clean
        // frame: whatever the burst provokes — candidate locks, stage-1/2
        // rejections, or nothing — the frame behind it must decode.
        let cfg = cfg();
        let mut wave = Vec::new();
        let mut lcg: u64 = 0x2545F491_4F6CDD1D;
        for _ in 0..2_000 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((lcg >> 33) as f64) / ((1u64 << 31) as f64);
            wave.push(0.2 + 0.8 * u);
        }
        wave.extend(vec![0.3; 200]);
        let payload: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(13)).collect();
        wave.extend_from_slice(&render(&cfg, &payload, 0, 0.3, 1.0));
        let mut rx = DataReceiver::new(cfg);
        for &v in &wave {
            rx.push_sample(v);
        }
        assert_eq!(rx.state(), RxState::Done, "burst forfeited the frame");
        assert_eq!(rx.take_result().unwrap().payload, payload);
    }

    #[test]
    fn flat_history_candidate_is_rejected() {
        // A candidate whose primed history carries no modulation must be
        // rejected, never committed with a stale slicer.
        let cfg = cfg();
        let mut rx = DataReceiver::new(cfg);
        for _ in 0..500 {
            rx.history.push_evict(0.7);
        }
        assert_eq!(rx.verify_candidate(0), Some(SyncRejectReason::FlatHistory));
        // And through the public path: reject_lock must re-arm, not fail.
        rx.sync_attempts += 1;
        rx.reject_lock(SyncRejection {
            score: 0.9,
            sharpness: 1.0,
            reason: SyncRejectReason::FlatHistory,
        });
        assert_eq!(rx.state(), RxState::Acquiring);
        assert_eq!(rx.sync_rejections(), 1);
    }

    /// Drives two fresh receivers over `wave` — one per sample, one in
    /// chunks of `chunk` — and asserts every observable (and the slicer
    /// threshold, to the bit) agrees at the end.
    fn assert_slice_matches_scalar(cfg: &PhyConfig, wave: &[f64], chunk: usize) {
        let mut a = DataReceiver::new(cfg.clone());
        let mut b = DataReceiver::new(cfg.clone());
        for &v in wave {
            a.push_sample(v);
        }
        for c in wave.chunks(chunk) {
            b.push_slice(c);
        }
        assert_eq!(a.state(), b.state(), "chunk {chunk}");
        assert_eq!(a.samples_seen, b.samples_seen, "chunk {chunk}");
        assert_eq!(a.bits_decoded(), b.bits_decoded(), "chunk {chunk}");
        assert_eq!(a.chips_seen(), b.chips_seen(), "chunk {chunk}");
        assert_eq!(a.timing_corrections(), b.timing_corrections(), "chunk {chunk}");
        assert_eq!(a.sync_attempts(), b.sync_attempts(), "chunk {chunk}");
        assert_eq!(a.sync_rejections(), b.sync_rejections(), "chunk {chunk}");
        assert_eq!(a.nack(), b.nack(), "chunk {chunk}");
        assert_eq!(a.header_accepted(), b.header_accepted(), "chunk {chunk}");
        assert_eq!(a.sync_lock_info(), b.sync_lock_info(), "chunk {chunk}");
        assert_eq!(
            a.sync_peak_seen().to_bits(),
            b.sync_peak_seen().to_bits(),
            "chunk {chunk}"
        );
        assert_eq!(
            a.last_chip_energy().to_bits(),
            b.last_chip_energy().to_bits(),
            "chunk {chunk}"
        );
        assert_eq!(
            a.slicer_threshold().to_bits(),
            b.slicer_threshold().to_bits(),
            "chunk {chunk}"
        );
        assert_eq!(a.take_result(), b.take_result(), "chunk {chunk}");
    }

    #[test]
    fn push_slice_is_bit_identical_to_push_sample() {
        let cfg = cfg();
        let payload: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(29)).collect();
        let wave = render(&cfg, &payload, 137, 0.35, 1.0);
        for chunk in [1, 2, 3, 7, 64, 320, 1000, wave.len()] {
            assert_slice_matches_scalar(&cfg, &wave, chunk);
        }
    }

    #[test]
    fn push_slice_matches_through_rearm_and_skew() {
        // Exercise the hard paths inside a slice: a corrupted header that
        // forces a mid-slice re-arm, then a skewed clean frame where the
        // DLL stretches chip windows across slice boundaries.
        use fdb_dsp::resample::Resampler;
        let cfg = cfg();
        let junk = vec![0xAAu8; 8];
        let mut wave = render(&cfg, &junk, 40, 0.3, 1.0);
        let pre = 40 + cfg.preamble.len() * cfg.samples_per_bit();
        for v in wave
            .iter_mut()
            .skip(pre)
            .take(crate::frame::HEADER_BITS * cfg.samples_per_bit())
        {
            *v = 0.65;
        }
        let payload: Vec<u8> = (0..64u8).collect();
        let clean = render(&cfg, &payload, 60, 0.3, 1.0);
        let mut rs = Resampler::from_ppm(1500.0);
        wave.extend_from_slice(&rs.process_block(&clean));
        for chunk in [1, 5, 19, 160, 4096] {
            assert_slice_matches_scalar(&cfg, &wave, chunk);
        }
    }

    #[test]
    fn push_slice_matches_through_long_noise_hunt() {
        // A long pseudo-noise listening region before the frame, as an
        // out-of-range link sees while it hunts. Every slice size must stay
        // byte-identical to the per-sample path through the hunt, the
        // lock, and the decode.
        let cfg = cfg();
        let mut wave = Vec::new();
        let mut lcg: u64 = 0x9E3779B9_7F4A7C15;
        for _ in 0..20_000 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((lcg >> 33) as f64) / ((1u64 << 31) as f64);
            wave.push(0.55 + 0.18 * (u - 0.5));
        }
        let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        wave.extend_from_slice(&render(&cfg, &payload, 50, 0.35, 1.0));
        for chunk in [97, 640, 1000, 4096, wave.len()] {
            assert_slice_matches_scalar(&cfg, &wave, chunk);
        }
    }

    /// Feeds `wave` to one receiver per sample and to another in
    /// `chunk`-sized slices through [`DataReceiver::push_acquiring`] while
    /// it acquires (`push_slice` otherwise). After every batched call the
    /// scalar receiver is advanced by the same samples and the acquisition
    /// observables must agree to the bit; a call that ends outside
    /// `Acquiring` must have stopped on exactly the sample that left it.
    /// Returns the final state and whether a call ended in `Failed`.
    fn assert_acquiring_matches_scalar(
        cfg: &PhyConfig,
        wave: &[f64],
        chunk: usize,
    ) -> (RxState, bool) {
        let mut a = DataReceiver::new(cfg.clone());
        let mut b = DataReceiver::new(cfg.clone());
        let mut failed_in_acquire = false;
        for (c, part) in wave.chunks(chunk).enumerate() {
            let mut i = 0;
            while i < part.len() {
                if b.state() != RxState::Acquiring {
                    b.push_slice(&part[i..]);
                    for &v in &part[i..] {
                        a.push_sample(v);
                    }
                    break;
                }
                let n = b.push_acquiring(&part[i..]);
                assert!(n >= 1, "chunk {chunk}: nothing consumed");
                for &v in &part[i..i + n - 1] {
                    a.push_sample(v);
                }
                assert_eq!(a.state(), RxState::Acquiring, "chunk {chunk}: overran a transition");
                a.push_sample(part[i + n - 1]);
                i += n;
                let at = c * chunk + i;
                assert_eq!(a.state(), b.state(), "chunk {chunk} @{at}");
                if b.state() == RxState::Acquiring {
                    assert_eq!(i, part.len(), "chunk {chunk} @{at}: stopped early");
                }
                failed_in_acquire |= b.state() == RxState::Failed;
                assert_eq!(a.samples_seen, b.samples_seen, "chunk {chunk} @{at}");
                assert_eq!(a.sync_attempts(), b.sync_attempts(), "chunk {chunk} @{at}");
                assert_eq!(a.rejections(), b.rejections(), "chunk {chunk} @{at}");
                assert_eq!(
                    a.sync_peak_seen().to_bits(),
                    b.sync_peak_seen().to_bits(),
                    "chunk {chunk} @{at}"
                );
                assert_eq!(a.sync_lock_info(), b.sync_lock_info(), "chunk {chunk} @{at}");
                assert_eq!(a.locked_at, b.locked_at, "chunk {chunk} @{at}");
            }
        }
        let end = b.state();
        assert_same_decode(&mut a, &mut b, &[], &format!("chunk {chunk}"));
        (end, failed_in_acquire)
    }

    /// `render` with chips `flip` of the preamble inverted: the
    /// correlation still clears the threshold, the stage-2 re-decode sees
    /// the mismatches.
    fn render_bad_preamble(
        cfg: &PhyConfig,
        payload: &[u8],
        idle: usize,
        flip: &[usize],
    ) -> Vec<f64> {
        let (lo, hi) = (0.3, 1.0);
        let mut wave = render(cfg, payload, idle, lo, hi);
        let sps = cfg.samples_per_chip;
        for &c in flip {
            for v in &mut wave[idle + c * sps..idle + (c + 1) * sps] {
                *v = if *v == hi { lo } else { hi };
            }
        }
        wave
    }

    #[test]
    fn push_acquiring_matches_push_sample() {
        let cfg = cfg();
        // Noise hunt, a corrupted-header frame (lock, header-CRC re-arm,
        // hunt again), then a clean frame.
        let mut wave = Vec::new();
        let mut lcg: u64 = 0x0DDB1A5E5BAD5EED;
        for _ in 0..1_500 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((lcg >> 33) as f64) / ((1u64 << 31) as f64);
            wave.push(0.2 + 0.8 * u);
        }
        let mut junk = render(&cfg, &[0xAAu8; 8], 40, 0.3, 1.0);
        let pre = 40 + cfg.preamble.len() * cfg.samples_per_bit();
        for v in junk
            .iter_mut()
            .skip(pre)
            .take(crate::frame::HEADER_BITS * cfg.samples_per_bit())
        {
            *v = 0.65;
        }
        wave.extend_from_slice(&junk);
        let payload: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(7)).collect();
        wave.extend_from_slice(&render(&cfg, &payload, 70, 0.3, 1.0));
        for chunk in [1, 7, 8, 9, 80, 333, wave.len()] {
            let (end, _) = assert_acquiring_matches_scalar(&cfg, &wave, chunk);
            assert_eq!(end, RxState::Done, "chunk {chunk}");
        }
    }

    #[test]
    fn push_acquiring_matches_push_sample_into_failed() {
        // Stage-2 rejections during acquisition exhaust the re-arm budget:
        // the batched path must stop on the very sample that fails the
        // receiver, with the same rejection ledger.
        let mut cfg = cfg();
        cfg.sync.max_preamble_chip_errors = 1;
        cfg.sync.max_rearms = 2;
        let mut wave = Vec::new();
        for k in 0..4 {
            wave.extend_from_slice(&render_bad_preamble(&cfg, &[0x5Au8; 4], 30 + k, &[3, 11, 20]));
        }
        for chunk in [1, 8, 13, 80, 1000, wave.len()] {
            let (end, failed_in_acquire) = assert_acquiring_matches_scalar(&cfg, &wave, chunk);
            assert_eq!(end, RxState::Failed, "chunk {chunk}");
            assert!(failed_in_acquire, "chunk {chunk}: Failed not reached while acquiring");
        }
        let mut rx = DataReceiver::new(cfg.clone());
        rx.push_slice(&wave);
        assert_eq!(rx.sync_rejections(), cfg.sync.max_rearms + 1);
        assert!(rx
            .rejections()
            .iter()
            .all(|r| r.reason == SyncRejectReason::PreambleMismatch));
    }

    #[test]
    fn header_accepted_tracks_lock_lifecycle() {
        let cfg = cfg();
        let junk = vec![0xAAu8; 8];
        let mut wave = render(&cfg, &junk, 40, 0.3, 1.0);
        let pre = 40 + cfg.preamble.len() * cfg.samples_per_bit();
        for v in wave
            .iter_mut()
            .skip(pre)
            .take(crate::frame::HEADER_BITS * cfg.samples_per_bit())
        {
            *v = 0.65;
        }
        let payload: Vec<u8> = (0..16u8).collect();
        wave.extend_from_slice(&render(&cfg, &payload, 60, 0.3, 1.0));
        let mut rx = DataReceiver::new(cfg);
        let mut accepted_while_acquiring = false;
        for &v in &wave {
            rx.push_sample(v);
            if rx.state() == RxState::Acquiring && rx.header_accepted() {
                accepted_while_acquiring = true;
            }
        }
        assert!(!accepted_while_acquiring, "flag must clear on re-arm");
        assert_eq!(rx.state(), RxState::Done);
        assert!(rx.header_accepted(), "flag must latch once the header passes");
    }

    /// Runs `wave` through both receivers and asserts every end-of-frame
    /// observable agrees, to the bit where floats are involved.
    fn assert_same_decode(a: &mut DataReceiver, b: &mut DataReceiver, wave: &[f64], tag: &str) {
        for &v in wave {
            a.push_sample(v);
            b.push_sample(v);
        }
        assert_eq!(a.state(), b.state(), "{tag}");
        assert_eq!(a.samples_seen, b.samples_seen, "{tag}");
        assert_eq!(a.bits_decoded(), b.bits_decoded(), "{tag}");
        assert_eq!(a.chips_seen(), b.chips_seen(), "{tag}");
        assert_eq!(a.timing_corrections(), b.timing_corrections(), "{tag}");
        assert_eq!(a.sync_attempts(), b.sync_attempts(), "{tag}");
        assert_eq!(a.rejections(), b.rejections(), "{tag}");
        assert_eq!(a.nack(), b.nack(), "{tag}");
        assert_eq!(a.header_accepted(), b.header_accepted(), "{tag}");
        assert_eq!(a.sync_lock_info(), b.sync_lock_info(), "{tag}");
        assert_eq!(a.sync_peak_seen().to_bits(), b.sync_peak_seen().to_bits(), "{tag}");
        assert_eq!(
            a.slicer_threshold().to_bits(),
            b.slicer_threshold().to_bits(),
            "{tag}"
        );
        assert_eq!(a.take_result(), b.take_result(), "{tag}");
    }

    #[test]
    fn reset_matches_fresh_receiver() {
        // Dirty a receiver with a full decode (and a corrupted-header frame
        // so the re-arm machinery has state too), then reset: it must be
        // observably identical to a brand-new receiver on the next frame.
        let cfg = cfg();
        let junk = vec![0xAAu8; 8];
        let mut first = render(&cfg, &junk, 40, 0.3, 1.0);
        let pre = 40 + cfg.preamble.len() * cfg.samples_per_bit();
        for v in first
            .iter_mut()
            .skip(pre)
            .take(crate::frame::HEADER_BITS * cfg.samples_per_bit())
        {
            *v = 0.65;
        }
        first.extend_from_slice(&render(&cfg, &[0x3Cu8; 12], 30, 0.3, 1.0));
        let mut reused = DataReceiver::new(cfg.clone());
        for &v in &first {
            reused.push_sample(v);
        }
        assert_eq!(reused.state(), RxState::Done);
        let r = reused.take_result().unwrap();
        reused.recycle_result(r);
        reused.reset();
        let mut fresh = DataReceiver::new(cfg.clone());
        let payload: Vec<u8> = (0..40u8).collect();
        let wave = render(&cfg, &payload, 90, 0.35, 1.0);
        assert_same_decode(&mut reused, &mut fresh, &wave, "after reset");
    }

    #[test]
    fn load_retargets_config() {
        let mut cfg2 = cfg();
        cfg2.samples_per_chip = 14;
        cfg2.block_len_bytes = 8;
        let payload = vec![0x9Du8; 24];
        let mut rx = DataReceiver::new(cfg());
        for &v in &render(&cfg(), &payload, 50, 0.3, 1.0) {
            rx.push_sample(v);
        }
        assert_eq!(rx.state(), RxState::Done);
        // Same config: load == reset; changed config: full re-target.
        rx.load(&cfg());
        let mut fresh = DataReceiver::new(cfg());
        assert_same_decode(&mut rx, &mut fresh, &render(&cfg(), &payload, 20, 0.3, 1.0), "same cfg");
        rx.load(&cfg2);
        let mut fresh2 = DataReceiver::new(cfg2.clone());
        assert_same_decode(&mut rx, &mut fresh2, &render(&cfg2, &payload, 33, 0.3, 1.0), "new cfg");
    }

    #[test]
    fn bits_decoded_counts() {
        let cfg = cfg();
        let payload = vec![0u8; 16];
        let wave = render(&cfg, &payload, 30, 0.3, 1.0);
        let mut rx = DataReceiver::new(cfg.clone());
        for &v in &wave {
            rx.push_sample(v);
        }
        let expected = crate::frame::frame_bits_len(&cfg, 16);
        assert_eq!(rx.bits_decoded(), expected);
    }
}
