//! End-to-end adaptive-MAC sessions over a real [`FdLink`] under faults.
//!
//! This is the paper's pitch run as one engine: a multi-frame session in
//! which every control decision — rate adaptation, early abort, flow
//! control — is driven **only by what device A can observe** (decoded
//! feedback bits, pilot verification, abort position), never by ground
//! truth, while the frames themselves run sample-by-sample through the
//! real PHY with scripted or generated impairments injected per frame.
//!
//! ## Decision inputs are observables
//!
//! A believes an attempt delivered iff the feedback pilot epoch verified,
//! no early abort fired, and the final decoded status bit is ACK — the
//! same rule as [`crate::early_abort`]. The NACK fraction fed to the
//! [`RateController`] is the decoded fraction (1.0 when no feedback
//! decoded at all), and an unverified pilot epoch counts as not-clean
//! (see [`RateController::on_frame_observed`]). Ground truth
//! (`FrameOutcome::fully_delivered`) is used exclusively for *scoring* the
//! session afterwards, so feedback-channel errors (false ACKs/NACKs) show
//! up as real protocol costs.
//!
//! ## Rate changes rebuild the link, seed-stably
//!
//! A rate switch is applied by rebuilding the link at the new
//! `samples_per_chip` between frames
//! ([`LinkConfig::at_samples_per_chip`]). Every slot `k` draws its RNG
//! from `derive_seed(session.seed, k)` — never from evolving link state —
//! so a controller decision at frame `j` cannot perturb the noise any
//! later frame sees. Identical `(config, session, fault source)` replay
//! byte-identically.
//!
//! ## Flow model
//!
//! With a [`FlowModel`] attached, B banks each frame's CRC-clean blocks
//! into a bounded buffer and drains it at a rate scaled by its *own*
//! harvested energy (an ambient fade slows the drain — B-local knowledge,
//! observable to B). With `backpressure` on, B streams NACK while busy and
//! A pauses one slot on NACK-heavy feedback; without it, blocks arriving
//! at a full buffer are silently dropped and A discovers the loss only at
//! the end of a pass (a ledger exchange), paying `retransmit_gap_frames`
//! of turnaround before re-sending — the overflow-retransmit baseline.

use crate::rate_adapt::{RateController, RateDecision};
use fdb_channel::impairment::{FaultActivations, FrameFaults};
use fdb_core::config::PhyConfig;
use fdb_core::link::{FdLink, FeedbackPolicy, FrameOutcome, FrameRun, LinkConfig, RunOptions};
use fdb_core::seed::derive_seed;
use fdb_core::PhyError;
use fdb_dsp::prbs::{Prbs, PrbsOrder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// XOR salt separating the session payload PRBS lineage from the seed.
const PAYLOAD_SALT: u64 = 0x5E55_10AD;

/// NACK fraction above which A treats feedback as a busy signal (flow
/// sessions with backpressure).
const BUSY_NACK_FRACTION: f64 = 0.5;

/// Serde default for [`SessionConfig::max_attempts`].
fn default_max_attempts() -> u32 {
    4
}

/// Serde default for [`SessionConfig::retry_gap_samples`].
fn default_retry_gap_samples() -> u64 {
    400
}

/// How the transmitter picks its chip rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RatePolicy {
    /// AIMD controller over a rate ladder, fed observables per frame.
    Adaptive {
        /// The controller (ladder + trip configuration).
        #[serde(default = "RateController::default_ladder")]
        controller: RateController,
    },
    /// Oblivious fixed rate.
    Fixed {
        /// The fixed `samples_per_chip`.
        samples_per_chip: usize,
    },
}

/// Receiver-buffer flow model layered over the PHY frames.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowModel {
    /// B's buffer capacity in blocks.
    pub buffer_blocks: u64,
    /// Blocks B drains per frame-time at nominal harvest; the actual
    /// drain is scaled by B's harvested energy relative to the best it
    /// has seen (fades slow the drain).
    pub drain_blocks_per_frame: f64,
    /// Busy asserted at/above this fill level.
    pub high_watermark: u64,
    /// Busy cleared at/below this fill level.
    pub low_watermark: u64,
    /// `true`: B streams NACK while busy and A pauses on NACK-heavy
    /// feedback (FD backpressure). `false`: overflow-retransmit baseline.
    pub backpressure: bool,
    /// Turnaround cost (in nominal frame-times) of each end-of-pass
    /// ledger exchange in the overflow-retransmit baseline.
    pub retransmit_gap_frames: u64,
}

/// One adaptive-MAC session: what to transfer and which controllers run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Distinct payloads to transfer.
    pub frames: u64,
    /// Payload bytes per frame (PRBS-filled, keyed by payload index so a
    /// retry resends identical bytes).
    pub payload_len: usize,
    /// Session seed. Slot `k`'s RNG is `derive_seed(seed, k)`.
    pub seed: u64,
    /// Rate policy.
    pub rate: RatePolicy,
    /// A aborts a frame when a verified feedback bit reports NACK.
    #[serde(default)]
    pub early_abort: bool,
    /// Attempts per payload before A gives up on it.
    #[serde(default = "default_max_attempts")]
    pub max_attempts: u32,
    /// Gap between a failed attempt and its retry, in samples.
    #[serde(default = "default_retry_gap_samples")]
    pub retry_gap_samples: u64,
    /// Optional receiver-buffer flow model.
    #[serde(default)]
    pub flow: Option<FlowModel>,
    /// Device separation added per slot (metres) — a walk-away ramp.
    #[serde(default)]
    pub distance_ramp_m_per_slot: f64,
}

impl SessionConfig {
    /// Validates the session parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.frames == 0 {
            return Err("frames must be ≥ 1".into());
        }
        if self.payload_len == 0 {
            return Err("payload_len must be ≥ 1".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be ≥ 1".into());
        }
        if !self.distance_ramp_m_per_slot.is_finite() {
            return Err("distance_ramp_m_per_slot must be finite".into());
        }
        if let RatePolicy::Fixed { samples_per_chip } = self.rate {
            if samples_per_chip < 4 {
                return Err(format!(
                    "fixed samples_per_chip {samples_per_chip} below the PHY floor of 4"
                ));
            }
        }
        if let Some(flow) = &self.flow {
            if flow.buffer_blocks == 0 {
                return Err("flow.buffer_blocks must be ≥ 1".into());
            }
            if !(flow.drain_blocks_per_frame.is_finite() && flow.drain_blocks_per_frame > 0.0) {
                return Err("flow.drain_blocks_per_frame must be positive".into());
            }
            if flow.low_watermark > flow.high_watermark
                || flow.high_watermark > flow.buffer_blocks
            {
                return Err(format!(
                    "flow watermarks must satisfy low ≤ high ≤ buffer ({} ≤ {} ≤ {})",
                    flow.low_watermark, flow.high_watermark, flow.buffer_blocks
                ));
            }
        }
        Ok(())
    }

    /// Hard slot budget [`run_session`] will never exceed: every payload's
    /// attempt budget, doubled to leave room for backpressure pauses, plus
    /// a fixed allowance for end-of-pass turnarounds. Fault generators use
    /// this as the frame horizon to cover.
    pub fn slot_cap(&self) -> u64 {
        self.frames * u64::from(self.max_attempts) * 2 + 64
    }

    /// The slowest (largest) samples-per-chip this session can run at —
    /// the upper bound on frame airtime, used to size whole-frame fault
    /// windows.
    pub fn slowest_sps(&self) -> usize {
        match &self.rate {
            RatePolicy::Adaptive { controller } => controller.slowest_sps(),
            RatePolicy::Fixed { samples_per_chip } => *samples_per_chip,
        }
    }
}

/// One slot of the session: a transmitted frame attempt or a pause.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Slot index (the fault/seed timeline).
    pub slot: u64,
    /// Payload index attempted this slot.
    pub payload: u64,
    /// `true` when A paused instead of transmitting (backpressure).
    pub paused: bool,
    /// Chip rate the slot ran at.
    pub samples_per_chip: usize,
    /// Ladder position (0 = fastest) for adaptive sessions.
    pub ladder_position: Option<usize>,
    /// The controller's decision after this frame (adaptive, transmitted
    /// slots only).
    pub decision: Option<RateDecision>,
    /// Device separation this slot.
    pub distance_m: f64,
    /// Observable: feedback pilot epoch verified.
    pub pilots_verified: bool,
    /// Observable: decoded NACK fraction (1.0 when nothing decoded).
    pub nack_fraction: f64,
    /// Observable: A believes the attempt delivered.
    pub believed_delivered: bool,
    /// Ground truth (scoring only): every block arrived intact and, in
    /// flow sessions, was banked without drops.
    pub delivered: bool,
    /// The frame was cut short by early abort.
    pub aborted: bool,
    /// Flow: blocks banked into B's buffer this slot.
    pub blocks_accepted: u64,
    /// Flow: CRC-clean blocks dropped at a full buffer this slot.
    pub blocks_dropped: u64,
    /// Flow: B's buffer fill after the slot.
    pub buffer_blocks: u64,
    /// Samples the slot consumed (frame run or nominal pause).
    pub samples_run: u64,
}

/// Aggregate result of one session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptationReport {
    /// Distinct payloads the session tried to transfer.
    pub payloads: u64,
    /// Frame transmissions (excludes pauses).
    pub attempts: u64,
    /// Slots A spent paused by backpressure.
    pub paused_slots: u64,
    /// Payloads delivered intact (ground truth).
    pub delivered_payloads: u64,
    /// Payloads A believes it delivered (observables).
    pub believed_delivered: u64,
    /// Payloads A believes delivered that ground truth says were not.
    pub false_acks: u64,
    /// Payloads not delivered intact (ground truth): abandoned after
    /// `max_attempts`, lost to a false ACK, or stranded at session end.
    pub failed_payloads: u64,
    /// Attempts cut short by early abort.
    pub aborted_frames: u64,
    /// Rate-ladder switches the controller made.
    pub rate_switches: u64,
    /// End-of-pass ledger exchanges (flow sessions).
    pub retransmit_passes: u64,
    /// Flow: blocks banked into B's buffer.
    pub blocks_accepted: u64,
    /// Flow: CRC-clean blocks dropped at a full buffer.
    pub blocks_dropped: u64,
    /// Bytes of payload delivered intact (ground truth).
    pub delivered_payload_bytes: u64,
    /// Samples A held the channel.
    pub airtime_samples: u64,
    /// Total session duration in samples (frames + retry gaps + pauses +
    /// ledger turnarounds).
    pub elapsed_samples: u64,
    /// Energy consumed by A (J).
    pub energy_a_j: f64,
    /// Energy consumed by B (J).
    pub energy_b_j: f64,
    /// Scripted faults whose windows opened during the session.
    pub fault_activations: FaultActivations,
    /// Sample rate the session ran at (for goodput conversion).
    pub sample_rate_hz: f64,
    /// Per-slot records, in slot order.
    pub records: Vec<FrameRecord>,
}

impl AdaptationReport {
    /// Ground-truth goodput in bits per second.
    pub fn goodput_bps(&self) -> f64 {
        if self.elapsed_samples == 0 {
            return 0.0;
        }
        let secs = self.elapsed_samples as f64 / self.sample_rate_hz;
        (self.delivered_payload_bytes * 8) as f64 / secs
    }

    /// Fraction of payloads delivered intact.
    pub fn delivery_fraction(&self) -> f64 {
        if self.payloads == 0 {
            return 0.0;
        }
        self.delivered_payloads as f64 / self.payloads as f64
    }

    /// Rate-ladder position per transmitted frame, in slot order (empty
    /// for fixed-rate sessions). The golden adaptation-trajectory corpus
    /// pins this.
    pub fn ladder_trajectory(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter(|r| !r.paused)
            .filter_map(|r| r.ladder_position)
            .collect()
    }
}

/// Airtime of one nominal frame (preamble + framed payload) in samples at
/// the given PHY rate — the cost model for pauses and ledger turnarounds,
/// and the frame horizon fault generators size whole-frame windows to.
pub fn nominal_frame_samples(phy: &PhyConfig, payload_len: usize) -> u64 {
    ((phy.preamble.len() + fdb_core::frame::frame_bits_len(phy, payload_len))
        * phy.samples_per_bit()) as u64
}

/// Per-payload transfer state.
#[derive(Clone, Copy, Default)]
struct PayloadState {
    attempts: u32,
    banked: bool,
    believed: bool,
    failed: bool,
}

/// B's buffer/drain state for flow sessions.
struct FlowState {
    buffer: u64,
    drain_credit: f64,
    busy: bool,
    /// A's (one-slot-delayed, observable) view of the busy signal.
    busy_observed: bool,
    /// Best harvested energy per frame B has seen (drain normalizer).
    nominal_harvest: f64,
    /// Latest harvest scale (applies to pause/turnaround drains).
    harvest_scale: f64,
}

impl FlowState {
    fn new() -> Self {
        FlowState {
            buffer: 0,
            drain_credit: 0.0,
            busy: false,
            busy_observed: false,
            nominal_harvest: 0.0,
            harvest_scale: 1.0,
        }
    }

    /// One frame-time of draining at the current harvest scale, then the
    /// watermark update.
    fn drain_tick(&mut self, flow: &FlowModel) {
        self.drain_credit += flow.drain_blocks_per_frame * self.harvest_scale;
        while self.drain_credit >= 1.0 && self.buffer > 0 {
            self.buffer -= 1;
            self.drain_credit -= 1.0;
        }
        self.drain_credit = self.drain_credit.min(flow.drain_blocks_per_frame.max(1.0));
        if self.buffer >= flow.high_watermark {
            self.busy = true;
        } else if self.buffer <= flow.low_watermark {
            self.busy = false;
        }
    }

    /// Updates the harvest normalizer/scale from one frame's B-side
    /// harvested energy (B-local knowledge).
    fn observe_harvest(&mut self, harvested_j: f64) {
        if harvested_j > self.nominal_harvest {
            self.nominal_harvest = harvested_j;
        }
        self.harvest_scale = if self.nominal_harvest > 0.0 {
            (harvested_j / self.nominal_harvest).clamp(0.0, 1.0)
        } else {
            1.0
        };
    }
}

/// Runs one adaptive-MAC session over `base`, pulling each slot's fault
/// schedule from `frame_faults(slot, &mut engine)`: the closure re-arms
/// the session-owned [`FrameFaults`] engine for the slot and returns
/// whether any fault is scheduled (`false` = clean slot, engine ignored).
/// The closure shape keeps this crate independent of `fdb-sim`'s
/// `FaultPlan`; the sim layer adapts a plan via
/// `|slot, engine| plan.frame_faults_into(slot, engine)`.
///
/// The session owns one of everything — link (re-initialised per slot via
/// [`FdLink::reinit`], reusing its scratch arena), outcome, payload and
/// feedback buffers, fault engine — so steady-state slots at a settled
/// rate perform no heap allocation; a rate switch rebuilds the working
/// set once (warmup).
pub fn run_session<F>(
    base: &LinkConfig,
    session: &SessionConfig,
    mut frame_faults: F,
) -> Result<AdaptationReport, PhyError>
where
    F: FnMut(u64, &mut FrameFaults) -> bool,
{
    session
        .validate()
        .map_err(|reason| PhyError::InvalidConfig {
            field: "session",
            reason,
        })?;

    let mut ctrl = match &session.rate {
        RatePolicy::Adaptive { controller } => Some(controller.clone()),
        RatePolicy::Fixed { .. } => None,
    };
    let fixed_sps = match &session.rate {
        RatePolicy::Fixed { samples_per_chip } => *samples_per_chip,
        RatePolicy::Adaptive { .. } => 0,
    };
    let flow_cfg = session.flow;
    let mut flow = flow_cfg.map(|_| FlowState::new());
    let blocks_per_frame = session.payload_len.div_ceil(base.phy.block_len_bytes) as u64;

    let mut state = vec![PayloadState::default(); session.frames as usize];
    let mut queue: VecDeque<u64> = (0..session.frames).collect();
    let mut report = AdaptationReport {
        payloads: session.frames,
        attempts: 0,
        paused_slots: 0,
        delivered_payloads: 0,
        believed_delivered: 0,
        false_acks: 0,
        failed_payloads: 0,
        aborted_frames: 0,
        rate_switches: 0,
        retransmit_passes: 0,
        blocks_accepted: 0,
        blocks_dropped: 0,
        delivered_payload_bytes: 0,
        airtime_samples: 0,
        elapsed_samples: 0,
        energy_a_j: 0.0,
        energy_b_j: 0.0,
        fault_activations: FaultActivations::default(),
        sample_rate_hz: base.phy.sample_rate_hz,
        // Sized to the session's hard slot bound up front so record pushes
        // never reallocate mid-session (the zero-allocation steady state).
        records: Vec::with_capacity(session.slot_cap() as usize),
    };

    let mut slot: u64 = 0;
    let slot_cap = session.slot_cap();

    // One of everything, reused across slots: config staging, the link
    // (built lazily on the first transmitting slot, re-initialised in
    // place afterwards), the frame outcome, payload/feedback staging and
    // the fault-injection engine.
    let mut cfg = base.clone();
    let mut link: Option<FdLink> = None;
    let mut out = FrameOutcome::default();
    let mut payload: Vec<u8> = Vec::new();
    let mut fault_engine = FrameFaults::new(Vec::new(), 0);
    let ack_opts = RunOptions {
        feedback: FeedbackPolicy::AckStatus,
        abort_on_nack: session.early_abort,
    };
    let mut busy_opts = RunOptions {
        feedback: FeedbackPolicy::Stream(Vec::new()),
        abort_on_nack: session.early_abort,
    };

    while !queue.is_empty() && slot < slot_cap {
        let pid = *queue.front().expect("queue non-empty");
        let sps = ctrl
            .as_ref()
            .map(|c| c.current_sps())
            .unwrap_or(fixed_sps);
        let distance =
            base.geometry.device_dist_m + session.distance_ramp_m_per_slot * slot as f64;
        cfg.phy.samples_per_chip = sps;
        cfg.geometry.device_dist_m = distance;
        let nominal_samples = nominal_frame_samples(&cfg.phy, session.payload_len);
        let fb_bits = fdb_core::frame::feedback_bits_in_frame(&cfg.phy, session.payload_len);

        // FD backpressure: A observed busy feedback last slot → hold off
        // one slot (B drains through the silence), then probe again.
        if let (Some(fs), Some(fc)) = (flow.as_mut(), flow_cfg.as_ref()) {
            if fc.backpressure && fs.busy_observed {
                fs.drain_tick(fc);
                fs.busy_observed = false;
                report.paused_slots += 1;
                report.elapsed_samples += nominal_samples;
                report.records.push(FrameRecord {
                    slot,
                    payload: pid,
                    paused: true,
                    samples_per_chip: sps,
                    ladder_position: ctrl.as_ref().map(|c| c.position()),
                    decision: None,
                    distance_m: distance,
                    pilots_verified: false,
                    nack_fraction: 0.0,
                    believed_delivered: false,
                    delivered: false,
                    aborted: false,
                    blocks_accepted: 0,
                    blocks_dropped: 0,
                    buffer_blocks: fs.buffer,
                    samples_run: nominal_samples,
                });
                slot += 1;
                continue;
            }
        }

        // Slot streams derive from (session seed, slot) only: a rate
        // decision or retry at slot j never moves slot k's draws.
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(session.seed, slot));
        let link = match link.as_mut() {
            Some(l) => {
                l.reinit(&cfg, &mut rng)?;
                l
            }
            None => link.insert(FdLink::new(cfg.clone(), &mut rng)?),
        };
        Prbs::new(
            PrbsOrder::Prbs23,
            derive_seed(session.seed ^ PAYLOAD_SALT, pid).max(1),
        )
        .bytes_into(session.payload_len, &mut payload);

        // B streams NACK while busy (backpressure on): the in-band busy
        // signal rides the existing feedback channel.
        let b_streams_busy = matches!(
            (flow.as_ref(), flow_cfg.as_ref()),
            (Some(fs), Some(fc)) if fc.backpressure && fs.busy
        );
        let opts = if b_streams_busy {
            if let FeedbackPolicy::Stream(bits) = &mut busy_opts.feedback {
                bits.clear();
                bits.resize(fb_bits.max(1), false);
            }
            &busy_opts
        } else {
            &ack_opts
        };
        let has_faults = frame_faults(slot, &mut fault_engine);
        link.run_frame_into(
            &payload,
            opts,
            &mut rng,
            FrameRun::faulted(has_faults.then_some(&mut fault_engine)),
            &mut out,
        )?;

        // --- A's observables ---
        let nacks = out.feedback.iter().filter(|f| !f.bit).count();
        let nack_fraction = if out.feedback.is_empty() {
            1.0
        } else {
            nacks as f64 / out.feedback.len() as f64
        };
        let believed = out.pilots_verified
            && out.aborted_at_sample.is_none()
            && out.feedback.last().map(|f| f.bit).unwrap_or(false);

        // --- flow accounting (B side) ---
        let clean_blocks = out.partial_blocks.iter().filter(|b| b.ok).count() as u64;
        let (accepted, dropped) = match (flow.as_mut(), flow_cfg.as_ref()) {
            (Some(fs), Some(fc)) => {
                let room = fc.buffer_blocks.saturating_sub(fs.buffer);
                let acc = clean_blocks.min(room);
                fs.buffer += acc;
                fs.observe_harvest(out.energy.b_harvested_j);
                fs.drain_tick(fc);
                if fc.backpressure {
                    fs.busy_observed = out.pilots_verified && nack_fraction > BUSY_NACK_FRACTION;
                }
                (acc, clean_blocks - acc)
            }
            _ => (clean_blocks, 0),
        };
        let banked = out.fully_delivered()
            && (flow.is_none() || (dropped == 0 && accepted == blocks_per_frame));
        if banked {
            state[pid as usize].banked = true;
        }

        // --- rate decision (adaptive) ---
        let decision = ctrl.as_mut().map(|c| {
            let before = c.current_sps();
            let d = c.on_frame_observed(out.pilots_verified, believed, nack_fraction);
            if c.current_sps() != before {
                report.rate_switches += 1;
            }
            d
        });

        // --- A's transfer decision ---
        queue.pop_front();
        let st = &mut state[pid as usize];
        st.attempts += 1;
        if believed {
            st.believed = true;
        } else if st.attempts < session.max_attempts {
            queue.push_front(pid);
            report.elapsed_samples += session.retry_gap_samples;
        } else {
            st.failed = true;
        }

        report.attempts += 1;
        if out.aborted_at_sample.is_some() {
            report.aborted_frames += 1;
        }
        report.blocks_accepted += accepted;
        report.blocks_dropped += dropped;
        report.airtime_samples += out.airtime_samples as u64;
        report.elapsed_samples += out.samples_run as u64;
        report.energy_a_j += out.energy.a_consumed_j;
        report.energy_b_j += out.energy.b_consumed_j;
        report.fault_activations.merge(&out.fault_activations);
        report.records.push(FrameRecord {
            slot,
            payload: pid,
            paused: false,
            samples_per_chip: sps,
            ladder_position: ctrl.as_ref().map(|c| c.position()),
            decision,
            distance_m: distance,
            pilots_verified: out.pilots_verified,
            nack_fraction,
            believed_delivered: believed,
            delivered: banked,
            aborted: out.aborted_at_sample.is_some(),
            blocks_accepted: accepted,
            blocks_dropped: dropped,
            buffer_blocks: flow.as_ref().map(|f| f.buffer).unwrap_or(0),
            samples_run: out.samples_run as u64,
        });
        slot += 1;

        // --- end-of-pass ledger exchange (flow sessions) ---
        if queue.is_empty() {
            if let (Some(fs), Some(fc)) = (flow.as_mut(), flow_cfg.as_ref()) {
                let resend: Vec<u64> = (0..session.frames)
                    .filter(|&p| {
                        let s = &state[p as usize];
                        !s.banked && !s.failed && s.attempts < session.max_attempts
                    })
                    .collect();
                if !resend.is_empty() {
                    // B's ledger names the payloads with missing blocks;
                    // the turnaround costs gap frame-times during which B
                    // keeps draining.
                    queue.extend(resend);
                    report.retransmit_passes += 1;
                    report.elapsed_samples += fc.retransmit_gap_frames * nominal_samples;
                    for _ in 0..fc.retransmit_gap_frames {
                        fs.drain_tick(fc);
                    }
                    if fc.backpressure {
                        fs.busy_observed = false;
                    }
                }
            }
        }
    }

    for st in &state {
        if st.banked {
            report.delivered_payloads += 1;
            report.delivered_payload_bytes += session.payload_len as u64;
        } else {
            report.failed_payloads += 1;
            if st.believed {
                report.false_acks += 1;
            }
        }
        if st.believed {
            report.believed_delivered += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ambient::AmbientConfig;

    fn clean_cfg() -> LinkConfig {
        let mut cfg = LinkConfig::default_fd();
        cfg.ambient = AmbientConfig::Cw;
        cfg.field_noise_dbm = -160.0;
        cfg
    }

    fn quick_session(seed: u64) -> SessionConfig {
        SessionConfig {
            frames: 4,
            payload_len: 32,
            seed,
            rate: RatePolicy::Fixed {
                samples_per_chip: 10,
            },
            early_abort: false,
            max_attempts: 3,
            retry_gap_samples: 200,
            flow: None,
            distance_ramp_m_per_slot: 0.0,
        }
    }

    #[test]
    fn clean_session_delivers_everything_first_try() {
        let r = run_session(&clean_cfg(), &quick_session(11), |_, _| false).unwrap();
        assert_eq!(r.delivered_payloads, 4);
        assert_eq!(r.believed_delivered, 4);
        assert_eq!(r.attempts, 4);
        assert_eq!(r.false_acks, 0);
        assert!(r.goodput_bps() > 0.0);
    }

    #[test]
    fn session_replays_byte_identically() {
        let a = run_session(&clean_cfg(), &quick_session(17), |_, _| false).unwrap();
        let b = run_session(&clean_cfg(), &quick_session(17), |_, _| false).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn adaptive_session_starts_slow_and_climbs_on_clean_link() {
        let mut s = quick_session(23);
        s.frames = 8;
        s.rate = RatePolicy::Adaptive {
            controller: RateController::new(vec![5, 10, 20], 2),
        };
        let r = run_session(&clean_cfg(), &s, |_, _| false).unwrap();
        let traj = r.ladder_trajectory();
        assert_eq!(traj.first(), Some(&2), "must start at the slowest rung");
        assert!(
            traj.last().unwrap() < traj.first().unwrap(),
            "clean link never climbed: {traj:?}"
        );
        assert!(r.rate_switches >= 1);
    }

    #[test]
    fn invalid_sessions_are_rejected() {
        let mut s = quick_session(1);
        s.frames = 0;
        assert!(run_session(&clean_cfg(), &s, |_, _| false).is_err());
        let mut s = quick_session(1);
        s.rate = RatePolicy::Fixed { samples_per_chip: 2 };
        assert!(run_session(&clean_cfg(), &s, |_, _| false).is_err());
        let mut s = quick_session(1);
        s.flow = Some(FlowModel {
            buffer_blocks: 4,
            drain_blocks_per_frame: 1.0,
            high_watermark: 6,
            low_watermark: 1,
            backpressure: true,
            retransmit_gap_frames: 2,
        });
        assert!(run_session(&clean_cfg(), &s, |_, _| false).is_err());
    }

    #[test]
    fn session_config_round_trips_and_defaults() {
        let s = quick_session(5);
        let json = serde_json::to_string(&s).unwrap();
        let back: SessionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.frames, 4);
        assert_eq!(back.max_attempts, 3);
        // Terse JSON gets serde defaults, including the controller.
        let terse = r#"{"frames":2,"payload_len":16,"seed":1,
            "rate":{"Adaptive":{}}}"#;
        let s: SessionConfig = serde_json::from_str(terse).unwrap();
        assert_eq!(s.max_attempts, 4);
        assert_eq!(s.retry_gap_samples, 400);
        assert!(s.flow.is_none());
        match s.rate {
            RatePolicy::Adaptive { controller } => {
                assert_eq!(controller.current_sps(), 40);
                assert_eq!(controller.nack_trip(), 0.2);
            }
            _ => panic!("expected adaptive"),
        }
    }
}
