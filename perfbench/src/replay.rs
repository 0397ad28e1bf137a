//! Outside-in stage replay of one link frame.
//!
//! The replay rebuilds a frame from the crates' public stage functions, in
//! pipeline order, over segment buffers cut by the block engine's rules
//! (`FdLink::run_frame_block_into`): a segment never crosses the next
//! feedback epoch or feedback-bit boundary, stays within the acquisition
//! guard while B hunts for the preamble, and shrinks to one data bit in
//! the regions the engine runs sample by sample (lock → header accept and
//! the post-frame verdict tail). Each stage runs over the whole segment
//! under one timer, so the clock counts per stage per segment.
//!
//! It is a model, not the engine: stages run stage-major inside a segment,
//! so the random draws land in another order than the engine's and B's
//! feedback epoch is known only at segment granularity. What it must share
//! with the engine is the outcome class — lock and decode on the same
//! configuration — which the link workloads check, and the cost split,
//! which `replay.coverage` bounds against the engine's own frame time.

use fdb_ambient::Ambient;
use fdb_channel::{Awgn, Hop};
use fdb_core::feedback::{FeedbackDecoder, FeedbackEncoder};
use fdb_core::link::LinkConfig;
use fdb_core::rx::{DataReceiver, RxState};
use fdb_core::sic::SelfInterferenceCanceller;
use fdb_core::tx::DataTransmitter;
use fdb_core::PhyError;
use fdb_device::{ReflectionSwitch, TagHardware};
use fdb_dsp::resample::Resampler;
use fdb_dsp::sample::dbm_to_watts;
use fdb_dsp::Iq;
use rand::Rng;
use std::time::Instant;

/// Engine segment cap (`link.rs` `SEG_MAX`).
const SEG_MAX: usize = 4096;

/// Replay stages in pipeline order: `(µs-per-frame metric, share metric)`.
pub const STAGES: [(&str, &str); 10] = [
    ("core.tx.us", "core.tx.share"),
    ("core.feedback.encode_us", "core.feedback.encode.share"),
    ("ambient.next_power_us", "ambient.next_power.share"),
    ("channel.field_us", "channel.field.share"),
    ("device.step_receive_us", "device.step_receive.share"),
    ("core.sic.us", "core.sic.share"),
    ("dsp.resample.us", "dsp.resample.share"),
    ("core.rx.acquire_us", "core.rx.acquire.share"),
    ("core.rx.decode_us", "core.rx.decode.share"),
    ("core.feedback.decode_us", "core.feedback.decode.share"),
];
const TX: usize = 0;
const FB_ENC: usize = 1;
const AMBIENT: usize = 2;
const CHANNEL: usize = 3;
const DEVICE: usize = 4;
const SIC: usize = 5;
const RESAMPLE: usize = 6;
const ACQUIRE: usize = 7;
const DECODE: usize = 8;
const FB_DEC: usize = 9;

/// Accumulated stage time and outcome counts over replayed frames.
#[derive(Debug, Default, Clone)]
pub struct StageClock {
    pub ns: [u64; 10],
    pub frames: u64,
    pub samples: u64,
    pub locked: u64,
    pub decoded: u64,
    pub fully_delivered: u64,
    /// `push_slice` calls made while B was acquiring, and samples in them.
    pub acquire_calls: u64,
    pub acquire_samples: u64,
}

impl StageClock {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn merge(&mut self, o: &StageClock) {
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
        self.frames += o.frames;
        self.samples += o.samples;
        self.locked += o.locked;
        self.decoded += o.decoded;
        self.fully_delivered += o.fully_delivered;
        self.acquire_calls += o.acquire_calls;
        self.acquire_samples += o.acquire_samples;
    }

    /// Index into [`STAGES`] of the stage with the most time.
    pub fn dominant(&self) -> usize {
        (0..STAGES.len()).max_by_key(|&i| self.ns[i]).unwrap_or(0)
    }
}

/// Times one stage: adds the time since `*mark` to `ns[stage]` and moves
/// the mark.
#[inline]
fn lap(clock: &mut StageClock, stage: usize, mark: &mut Instant) {
    let now = Instant::now();
    clock.ns[stage] += now.duration_since(*mark).as_nanos() as u64;
    *mark = now;
}

/// The physical link and PHY engines of one replayed link, built from the
/// same public constructors `FdLink::new` uses, plus the segment buffers.
pub struct ReplayLink {
    cfg: LinkConfig,
    source: Ambient,
    hop_sa: Hop,
    hop_sb: Hop,
    hop_ab: Hop,
    tag_a: TagHardware,
    tag_b: TagHardware,
    /// Reflection coefficient per antenna state (`[off, on]`).
    refl_a: [Iq; 2],
    refl_b: [Iq; 2],
    noise: Awgn,
    source_amp: f64,
    tx: DataTransmitter,
    rx: DataReceiver,
    fb_enc: FeedbackEncoder,
    fb_dec: FeedbackDecoder,
    a_state: Vec<bool>,
    b_state: Vec<bool>,
    power: Vec<f64>,
    field_a: Vec<Iq>,
    field_b: Vec<Iq>,
    env_a: Vec<f64>,
    env_b: Vec<f64>,
    corr_a: Vec<Option<f64>>,
    corr_b: Vec<f64>,
    resampled: Vec<f64>,
}

fn reflection(rho: f64, rho_residual: f64) -> [Iq; 2] {
    let mut sw = ReflectionSwitch::new(rho, rho_residual);
    let mut out = [Iq::ZERO; 2];
    for (i, state) in [false, true].into_iter().enumerate() {
        sw.set_state(state);
        out[i] = sw.reflection_coeff();
    }
    out
}

impl ReplayLink {
    /// Builds the link; hop fading is drawn from `rng` in `FdLink::new`'s
    /// order (source→A, source→B, A↔B).
    pub fn new<R: Rng + ?Sized>(cfg: &LinkConfig, rng: &mut R) -> Result<Self, PhyError> {
        let phy = &cfg.phy;
        phy.validate()?;
        let g = &cfg.geometry;
        let hop_sa = Hop::new(g.pathloss_source, g.source_dist_a_m, g.fading_source, rng);
        let hop_sb = Hop::new(g.pathloss_source, g.source_dist_b_m, g.fading_source, rng);
        let hop_ab = Hop::new(g.pathloss_device, g.device_dist_m, g.fading_device, rng);
        let dt = phy.sample_period_s();
        let half_fb = (phy.feedback_ratio / 2) * phy.samples_per_bit();
        Ok(ReplayLink {
            source: Ambient::from_config(cfg.ambient, cfg.ambient_seed),
            hop_sa,
            hop_sb,
            hop_ab,
            tag_a: TagHardware::new(cfg.tag_a, dt),
            tag_b: TagHardware::new(cfg.tag_b, dt),
            refl_a: reflection(cfg.tag_a.rho, cfg.tag_a.rho_residual),
            refl_b: reflection(cfg.tag_b.rho, cfg.tag_b.rho_residual),
            noise: Awgn::from_dbm(cfg.field_noise_dbm),
            source_amp: dbm_to_watts(g.source_power_dbm).sqrt(),
            tx: DataTransmitter::new(phy, &[0])?,
            rx: DataReceiver::new(phy.clone()),
            fb_enc: FeedbackEncoder::new(half_fb),
            fb_dec: FeedbackDecoder::new(half_fb),
            a_state: Vec::with_capacity(SEG_MAX),
            b_state: Vec::with_capacity(SEG_MAX),
            power: Vec::with_capacity(SEG_MAX),
            field_a: Vec::with_capacity(SEG_MAX),
            field_b: Vec::with_capacity(SEG_MAX),
            env_a: Vec::with_capacity(SEG_MAX),
            env_b: Vec::with_capacity(SEG_MAX),
            corr_a: Vec::with_capacity(SEG_MAX),
            corr_b: Vec::with_capacity(SEG_MAX),
            resampled: Vec::with_capacity(SEG_MAX + 16),
            cfg: cfg.clone(),
        })
    }

    /// Replays one live-status full-duplex frame (`RunOptions::fd_monitor`:
    /// B sends its NACK line, A never aborts) and adds its stage times and
    /// outcome to `clock`.
    pub fn frame<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        rng: &mut R,
        clock: &mut StageClock,
    ) -> Result<(), PhyError> {
        let phy = &self.cfg.phy;
        let dt = phy.sample_period_s();
        let spb = phy.samples_per_bit();
        let half_fb = (phy.feedback_ratio / 2) * spb;
        let guard = phy.feedback_guard_bits * spb;
        let a_epoch = phy.preamble.len() * spb + guard;
        let fade_every = self.cfg.fading_advance_bits * spb;

        self.tx.load(phy, payload)?;
        self.rx.load(phy);
        self.fb_enc.rearm(half_fb);
        self.fb_dec.rearm(half_fb);
        let mut sic_a = SelfInterferenceCanceller::new(
            phy.sic,
            self.cfg.tag_a.rho,
            self.cfg.tag_a.rho_residual,
        );
        let mut sic_b = SelfInterferenceCanceller::new(
            phy.sic,
            self.cfg.tag_b.rho,
            self.cfg.tag_b.rho_residual,
        )
        .with_blanking(2);
        let mut b_hold = 0.0f64;
        let mut resampler = Resampler::from_ppm(self.tag_b.clock_mut().current_ppm());

        let total = self.tx.total_samples();
        let max_samples = total + 2 * phy.samples_per_feedback_bit() + 8 * spb;
        let verdict_horizon = total + phy.samples_per_feedback_bit() + spb;
        let mut b_epoch: Option<usize> = None;
        let mut b_was_locked = false;
        let mut last_feedback: Option<usize> = None;

        let mut t = 0usize;
        while t < max_samples {
            // ---- segment length, by the block engine's rules ------------
            let exact = (b_was_locked && !self.rx.header_accepted()) || t + 1 >= total;
            let mut len = if exact {
                spb.min(max_samples - t)
            } else {
                (total - 1 - t).min(SEG_MAX)
            };
            if let Some(q) = t.checked_div(fade_every) {
                len = len.min((q + 1) * fade_every - t);
            }
            if let Some(e) = b_epoch.filter(|&e| e > t) {
                len = len.min(e - t);
            }
            if !b_was_locked {
                len = len.min(guard.max(1));
            }
            let fb_live = b_epoch.is_some_and(|e| e <= t);
            if fb_live {
                let ticks = self.fb_enc.ticks_until_boundary();
                len = len.min(if ticks == 0 { 2 * half_fb } else { ticks }.max(1));
            }
            let len = len.max(1);
            if fade_every > 0 && t.is_multiple_of(fade_every) && t > 0 {
                self.hop_sa.advance_block(rng);
                self.hop_sb.advance_block(rng);
                self.hop_ab.advance_block(rng);
            }

            let mut mark = Instant::now();
            // ---- A's data chips -----------------------------------------
            self.a_state.clear();
            let a_alive = self.tag_a.is_alive();
            for _ in 0..len {
                self.a_state
                    .push(self.tx.next_state().unwrap_or(false) && a_alive);
            }
            lap(clock, TX, &mut mark);

            // ---- B's feedback chips -------------------------------------
            self.b_state.clear();
            if fb_live && self.tag_b.is_alive() {
                for _ in 0..len {
                    if self.fb_enc.at_bit_boundary() {
                        self.fb_enc.set_idle_bit(!self.rx.nack());
                    }
                    self.b_state.push(self.fb_enc.tick());
                }
            } else {
                self.b_state.resize(len, false);
            }
            lap(clock, FB_ENC, &mut mark);

            // ---- ambient source power ------------------------------------
            self.power.clear();
            for _ in 0..len {
                self.power.push(self.source.next_power(rng));
            }
            lap(clock, AMBIENT, &mut mark);

            // ---- field assembly at both antennas + AWGN ------------------
            self.field_a.clear();
            self.field_b.clear();
            let (h_sa, h_sb, h_ab) = (
                self.hop_sa.coeff(),
                self.hop_sb.coeff(),
                self.hop_ab.coeff(),
            );
            for i in 0..len {
                let x = self.source_amp * self.power[i].sqrt();
                let e_a0 = h_sa * x;
                let e_b0 = h_sb * x;
                let g_a = self.refl_a[self.a_state[i] as usize];
                let g_b = self.refl_b[self.b_state[i] as usize];
                let e_a = e_a0 + h_ab * g_b * (e_b0 + h_ab * g_a * e_a0);
                let e_b = e_b0 + h_ab * g_a * (e_a0 + h_ab * g_b * e_b0);
                self.field_a.push(self.noise.corrupt(e_a, rng));
                self.field_b.push(self.noise.corrupt(e_b, rng));
            }
            lap(clock, CHANNEL, &mut mark);

            // ---- both tags: antenna, detector, harvest, load -------------
            self.env_a.clear();
            self.env_b.clear();
            for i in 0..len {
                self.tag_a.set_antenna(self.a_state[i]);
                self.tag_b.set_antenna(self.b_state[i]);
                self.env_a
                    .push(self.tag_a.step_receive(self.field_a[i], dt, rng));
                self.env_b
                    .push(self.tag_b.step_receive(self.field_b[i], dt, rng));
                self.tag_a.charge_awake(dt, t + i >= a_epoch);
                self.tag_b.charge_awake(dt, true);
            }
            lap(clock, DEVICE, &mut mark);

            // ---- self-interference cancellation, B then A ----------------
            self.corr_b.clear();
            for i in 0..len {
                if let Some(v) = sic_b.correct(self.env_b[i], self.b_state[i]) {
                    b_hold = v;
                }
                self.corr_b.push(b_hold);
            }
            self.corr_a.clear();
            let a_from = a_epoch.saturating_sub(t).min(len);
            for i in a_from..len {
                self.corr_a
                    .push(sic_a.correct(self.env_a[i], self.a_state[i]));
            }
            lap(clock, SIC, &mut mark);

            // ---- B's clock ----------------------------------------------
            self.resampled.clear();
            for &v in &self.corr_b {
                resampler.push(v, &mut self.resampled);
            }
            lap(clock, RESAMPLE, &mut mark);

            // ---- B's receiver -------------------------------------------
            if self.rx.state() == RxState::Acquiring {
                clock.acquire_calls += 1;
                clock.acquire_samples += self.resampled.len() as u64;
                self.rx.push_slice(&self.resampled);
                lap(clock, ACQUIRE, &mut mark);
            } else {
                self.rx.push_slice(&self.resampled);
                lap(clock, DECODE, &mut mark);
            }
            let seg_end = t + len;
            if b_was_locked && self.rx.state() == RxState::Acquiring {
                // Header CRC threw the lock back: the epoch dies with it.
                b_was_locked = false;
                b_epoch = None;
                self.fb_enc.rearm(half_fb);
            }
            if !b_was_locked && self.rx.state() != RxState::Acquiring {
                b_was_locked = true;
                b_epoch = Some(seg_end + guard);
            }

            // ---- A's feedback decoder -----------------------------------
            for (k, c) in self.corr_a.iter().enumerate() {
                if let Some(v) = *c {
                    if self.fb_dec.push(v).is_some() {
                        last_feedback = Some(t + a_from + k);
                    }
                }
            }
            lap(clock, FB_DEC, &mut mark);

            t = seg_end;
            let verdict_in = !b_was_locked || last_feedback.is_some_and(|s| s >= verdict_horizon);
            let rx_final = matches!(self.rx.state(), RxState::Done | RxState::Failed);
            if self.tx.is_done() && rx_final && verdict_in {
                break;
            }
        }

        clock.frames += 1;
        clock.samples += t.min(max_samples) as u64;
        clock.locked += u64::from(b_was_locked);
        if let Some(res) = self.rx.take_result() {
            clock.decoded += 1;
            if !res.blocks.is_empty() && res.blocks.iter().all(|b| b.ok) {
                clock.fully_delivered += 1;
            }
            self.rx.recycle_result(res);
        }
        Ok(())
    }
}
