//! Event-driven city-scale tag simulation: thousands of harvesting tags
//! contending under the paper's full-duplex feedback primitives, with idle
//! tags costing ~zero.
//!
//! ## Why event-driven
//!
//! The sample-level simulators ([`fdb_core::link::FdLink`], the K-device
//! [`fdb_core::network::BackscatterNetwork`]) price every device at every
//! sample — 20 kHz × population, with an O(n²) hop set. A city block of
//! 10 000 tags at 60 s mean interarrival spends >99.9 % of device-time
//! asleep, harvesting. This engine inverts the cost model:
//!
//! * A monotone radix **event queue** (integer ticks = data-bit times)
//!   schedules tag wake-ups from harvest/duty state
//!   ([`fdb_mac::duty::DutyCycleController`]) and frame boundaries.
//!   Between events a tag advances analytically — charge accrual is a
//!   closed-form expression, not simulated samples. Equal-tick events
//!   pop in push order (the private `EventQueue` says why that is exact).
//! * Contention runs through the paper's feedback primitives: carrier
//!   sense and collision-detect aborts at the
//!   [`fdb_mac::csma::pilot_latency_bits`] latency, with binary
//!   exponential [`fdb_mac::csma::backoff_window`] retries.
//! * Interference between concurrently-active links is scored with the
//!   [`NetworkConfig::pair_gain`] geometry kernel — the same
//!   pathloss-over-pair-distance quantity as
//!   `BackscatterNetwork::pair_coeff` — without ever instantiating the
//!   dense O(n²) network. A pair farther apart than the victim's
//!   [`PathLoss::reach_m`] is skipped without evaluating the kernel:
//!   past the reach the kernel is provably below the collision
//!   threshold, so skipping changes no outcome, only the cost. An
//!   occupancy grid with cells at least the largest reach skips a whole
//!   scan when no in-flight link sits in the neighbouring cells.
//! * Under [`CityFidelity::Sampled`], uncollided frames additionally run
//!   the full sample-level [`FdLink`] PHY through a bounded pool of
//!   active-link slots (each embedding the PR-9 zero-alloc
//!   `LinkScratch` arenas, rebuilt in place via `FdLink::reinit`).
//!
//! ## Determinism keying
//!
//! Every random decision of tag `t` comes from the stateless counter
//! stream rooted at `derive_seed(spec.seed, t)`: positions, arrival
//! times, backoff draws and sampled-frame RNGs are all keyed by
//! `(tag stream, salt, counter)`. No draw consumes from a shared
//! generator, so a tag's entire trajectory is byte-identical no matter
//! how many other tags — idle or active — share the city. That is the
//! scale-invariance contract `tests/city_scale.rs` pins: N active tags
//! embedded among M idle tags produce identical per-active-tag ledgers
//! for any M.
//!
//! ## Conservation
//!
//! Per tag and in aggregate, `offered == delivered + lost + pending`
//! holds at every horizon: an offered frame is eventually delivered,
//! dropped after `max_attempts`, or still pending (queued or in flight)
//! when the clock stops.

use crate::job::JobProgress;
use fdb_core::config::PhyConfig;
use fdb_core::link::{FdLink, FrameOutcome, FrameRun, LinkConfig, RunOptions};
use fdb_core::network::NetworkConfig;
use fdb_core::seed::derive_seed;
use fdb_core::PhyError;
use fdb_channel::pathloss::PathLoss;
use fdb_dsp::sample::dbm_to_watts;
use fdb_mac::csma::{backoff_window, pilot_latency_bits, AccessMode};
use fdb_mac::duty::{DutyCycleController, DutyConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Salt of the per-tag position draws (`derive_seed(tag_stream, POS)`).
const POS_STREAM: u64 = 0x43_54_59_50; // "CTYP"
/// Salt of the per-tag decision-draw counter stream.
const DRAW_STREAM: u64 = 0x43_54_59_44; // "CTYD"
/// Salt of the per-tag sampled-frame RNG seeds.
const FRAME_STREAM: u64 = 0x43_54_59_46; // "CTYF"
/// Salt of the per-tag ambient seed for sampled frames.
const AMBIENT_STREAM: u64 = 0x43_54_59_41; // "CTYA"

/// Largest accepted [`CityScenarioSpec::n_active`]: bounds the tag table a
/// submitted spec can make the engine allocate, and keeps tag ids clear of
/// the event kind packed above them in the queue. The bound is loose: a
/// spec at the cap makes the engine reserve ~5.9 GB of tag state (352 B
/// per tag) and its report ~1.9 GB of ledgers (112 B per `TagLedger`).
const MAX_ACTIVE: u32 = 1 << 24;

/// How often the event loop polls cancellation / reports progress.
const CTL_EVERY_EVENTS: u64 = 4096;

/// PHY fidelity of uncollided frame attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CityFidelity {
    /// An uncollided attempt delivers; energy cost is `tx_load_w` over
    /// the frame airtime. The only mode that scales to 10k+ tags.
    Analytic,
    /// Each uncollided attempt runs a full sample-level [`FdLink`] frame
    /// on a pooled link slot; delivery and transmit energy come from the
    /// [`FrameOutcome`]. ~10⁵ samples per frame — for small scenarios.
    Sampled,
}

/// Serde spec of one city scenario. All fields have defaults, so partial
/// JSON configs parse (Deserialize is hand-written to start from
/// [`CityScenarioSpec::default`] and override only the fields present).
#[derive(Debug, Clone, Serialize)]
pub struct CityScenarioSpec {
    /// Scenario label carried into the report.
    pub label: String,
    /// Master seed; tag `t`'s private stream is `derive_seed(seed, t)`.
    pub seed: u64,
    /// Tags with traffic (ledgered). Tag ids `0..n_active`; at most 2^24.
    pub n_active: u32,
    /// Idle tags sharing the city (ids `n_active..n_active + n_idle`).
    /// They harvest but never transmit, and by construction cost no
    /// events and perturb no streams — the scale-invariance contract.
    pub n_idle: u32,
    /// Side of the square deployment area, metres. Tag transmitters are
    /// placed uniformly in `[0, area_m)²`.
    pub area_m: f64,
    /// Distance from each tag to its dedicated receiver, metres (the
    /// receiver sits `link_dist_m` along +x).
    pub link_dist_m: f64,
    /// Simulated duration, seconds.
    pub sim_duration_s: f64,
    /// Mean of the exponential frame interarrival per active tag,
    /// seconds.
    pub mean_interarrival_s: f64,
    /// Frames queued per arrival event (>1 = bursty offered load).
    pub burst_arrivals: u32,
    /// Payload length per frame, bytes. Note the FD feedback epoch
    /// ([`pilot_latency_bits`], 196 bit-times at the default PHY) must
    /// fit inside the frame airtime for collision-detect aborts to fire;
    /// the 64-byte default gives a ~590-bit frame.
    pub payload_len: usize,
    /// Access protocol: blind ALOHA or full-duplex collision detection
    /// (carrier sense + pilot-latency aborts).
    pub mode: AccessMode,
    /// Attempts per frame before it is counted lost.
    pub max_attempts: u32,
    /// Initial binary-exponential backoff window, bit-times.
    pub backoff_min_bits: u64,
    /// Duty-cycle / energy-bank policy per tag.
    pub duty: DutyConfig,
    /// Fraction of incident RF power banked by the harvester.
    pub harvest_efficiency: f64,
    /// Electrical load while transmitting a frame, watts (analytic
    /// energy model; `Sampled` uses the measured `FrameOutcome` energy).
    pub tx_load_w: f64,
    /// PHY fidelity of uncollided attempts.
    pub fidelity: CityFidelity,
    /// Bound on concurrently-active links (transmissions in flight).
    /// Starts beyond the bound defer and retry, modelling a reader
    /// population that can track only so many tags at once.
    pub pool: usize,
    /// A concurrent transmitter whose interference amplitude at a
    /// victim's receiver is within this margin (dB) of the victim's own
    /// signal collides with it.
    pub collision_margin_db: f64,
    /// Record one [`FrameRecord`] per finished attempt (golden vectors /
    /// debugging; off for big runs).
    pub log_frames: bool,
    /// Nominal ambient-source distance, metres (per-tag distance adds
    /// the tag's y coordinate, as in [`NetworkConfig`]).
    pub source_dist_m: f64,
    /// Ambient source transmit power, dBm.
    pub source_power_dbm: f64,
    /// Path loss to the ambient source.
    pub pathloss_source: PathLoss,
    /// Path loss between devices (the interference kernel).
    pub pathloss_device: PathLoss,
    /// Shared PHY parameters (frame airtime, pilot latency, data rate).
    pub phy: PhyConfig,
}

impl Default for CityScenarioSpec {
    fn default() -> Self {
        CityScenarioSpec {
            label: "city".into(),
            seed: 1,
            n_active: 64,
            n_idle: 0,
            area_m: 200.0,
            link_dist_m: 0.4,
            sim_duration_s: 600.0,
            mean_interarrival_s: 60.0,
            burst_arrivals: 1,
            payload_len: 64,
            mode: AccessMode::FdCollisionDetect,
            max_attempts: 8,
            backoff_min_bits: 512,
            duty: DutyConfig::default(),
            harvest_efficiency: 0.3,
            tx_load_w: 10e-6,
            fidelity: CityFidelity::Analytic,
            pool: 64,
            collision_margin_db: 10.0,
            log_frames: false,
            source_dist_m: 1000.0,
            source_power_dbm: 60.0,
            pathloss_source: PathLoss::tv_band(),
            pathloss_device: PathLoss::FreeSpace { freq_hz: 539e6 },
            phy: PhyConfig::default_fd(),
        }
    }
}

impl Deserialize for CityScenarioSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", v))?;
        let mut s = CityScenarioSpec::default();
        for (k, val) in obj {
            match k.as_str() {
                "label" => s.label = Deserialize::from_value(val)?,
                "seed" => s.seed = Deserialize::from_value(val)?,
                "n_active" => s.n_active = Deserialize::from_value(val)?,
                "n_idle" => s.n_idle = Deserialize::from_value(val)?,
                "area_m" => s.area_m = Deserialize::from_value(val)?,
                "link_dist_m" => s.link_dist_m = Deserialize::from_value(val)?,
                "sim_duration_s" => s.sim_duration_s = Deserialize::from_value(val)?,
                "mean_interarrival_s" => {
                    s.mean_interarrival_s = Deserialize::from_value(val)?
                }
                "burst_arrivals" => s.burst_arrivals = Deserialize::from_value(val)?,
                "payload_len" => s.payload_len = Deserialize::from_value(val)?,
                "mode" => s.mode = Deserialize::from_value(val)?,
                "max_attempts" => s.max_attempts = Deserialize::from_value(val)?,
                "backoff_min_bits" => s.backoff_min_bits = Deserialize::from_value(val)?,
                "duty" => s.duty = Deserialize::from_value(val)?,
                "harvest_efficiency" => {
                    s.harvest_efficiency = Deserialize::from_value(val)?
                }
                "tx_load_w" => s.tx_load_w = Deserialize::from_value(val)?,
                "fidelity" => s.fidelity = Deserialize::from_value(val)?,
                "pool" => s.pool = Deserialize::from_value(val)?,
                "collision_margin_db" => {
                    s.collision_margin_db = Deserialize::from_value(val)?
                }
                "log_frames" => s.log_frames = Deserialize::from_value(val)?,
                "source_dist_m" => s.source_dist_m = Deserialize::from_value(val)?,
                "source_power_dbm" => s.source_power_dbm = Deserialize::from_value(val)?,
                "pathloss_source" => s.pathloss_source = Deserialize::from_value(val)?,
                "pathloss_device" => s.pathloss_device = Deserialize::from_value(val)?,
                "phy" => s.phy = Deserialize::from_value(val)?,
                _ => {
                    return Err(serde::DeError::custom(format!(
                        "CityScenarioSpec: unknown field `{k}`"
                    )))
                }
            }
        }
        Ok(s)
    }
}

impl CityScenarioSpec {
    /// Simulation ticks per second: one tick per data bit.
    pub fn ticks_per_s(&self) -> f64 {
        self.phy.data_rate_bps()
    }

    /// Frame airtime in ticks (preamble + framed payload).
    pub fn frame_ticks(&self) -> u64 {
        (fdb_mac::scenario::nominal_frame_samples(&self.phy, self.payload_len)
            / self.phy.samples_per_bit() as u64)
            .max(1)
    }

    /// Simulation horizon in ticks.
    pub fn horizon_ticks(&self) -> u64 {
        (self.sim_duration_s * self.ticks_per_s()).ceil() as u64
    }

    /// Structural validation; run before simulating (and by the job
    /// service at submit time).
    pub fn validate(&self) -> Result<(), PhyError> {
        self.phy.validate()?;
        let bad = |field: &'static str, reason: String| {
            Err(PhyError::InvalidConfig { field, reason })
        };
        if !(self.sim_duration_s.is_finite() && self.sim_duration_s > 0.0) {
            return bad("sim_duration_s", format!("{} not in (0, ∞)", self.sim_duration_s));
        }
        if self.horizon_ticks() > 1 << 40 {
            return bad("sim_duration_s", "horizon exceeds 2^40 ticks".into());
        }
        if !(self.mean_interarrival_s.is_finite() && self.mean_interarrival_s > 0.0) {
            return bad(
                "mean_interarrival_s",
                format!("{} not in (0, ∞)", self.mean_interarrival_s),
            );
        }
        if self.payload_len == 0 || self.payload_len > 4096 {
            return bad("payload_len", format!("{} not in 1..=4096", self.payload_len));
        }
        if self.n_active > MAX_ACTIVE {
            return bad("n_active", format!("{} not in 0..={MAX_ACTIVE}", self.n_active));
        }
        if self.pool == 0 {
            return bad("pool", "active-link pool must hold ≥ 1 slot".into());
        }
        if self.max_attempts == 0 {
            return bad("max_attempts", "must be ≥ 1".into());
        }
        if self.burst_arrivals == 0 {
            return bad("burst_arrivals", "must be ≥ 1".into());
        }
        if !(self.area_m.is_finite() && self.area_m >= 0.0) {
            return bad("area_m", format!("{} not in [0, ∞)", self.area_m));
        }
        if !(self.link_dist_m.is_finite() && self.link_dist_m > 0.0) {
            return bad("link_dist_m", format!("{} not in (0, ∞)", self.link_dist_m));
        }
        if !(0.0..=1.0).contains(&self.harvest_efficiency) {
            return bad(
                "harvest_efficiency",
                format!("{} not in [0, 1]", self.harvest_efficiency),
            );
        }
        if !(self.tx_load_w.is_finite() && self.tx_load_w >= 0.0) {
            return bad("tx_load_w", format!("{} not in [0, ∞)", self.tx_load_w));
        }
        if !self.collision_margin_db.is_finite() {
            return bad("collision_margin_db", "must be finite".into());
        }
        if !self.source_dist_m.is_finite() {
            return bad("source_dist_m", "must be finite".into());
        }
        if !self.source_power_dbm.is_finite() {
            return bad("source_power_dbm", "must be finite".into());
        }
        for (field, model) in [
            ("pathloss_source", &self.pathloss_source),
            ("pathloss_device", &self.pathloss_device),
        ] {
            model
                .validate()
                .map_err(|reason| PhyError::InvalidConfig { field, reason })?;
        }
        Ok(())
    }

    /// The interference/harvest geometry kernel shared with
    /// [`fdb_core::network::BackscatterNetwork`]: a [`NetworkConfig`]
    /// carrying this spec's source and pathloss models (its
    /// positions/tags are unused — only the gain methods are called).
    fn gain_config(&self) -> NetworkConfig {
        let mut cfg = NetworkConfig::ring(1, 1.0, fdb_device::TagConfig::typical(1e-4));
        cfg.source_dist_m = self.source_dist_m;
        cfg.source_power_dbm = self.source_power_dbm;
        cfg.pathloss_source = self.pathloss_source;
        cfg.pathloss_device = self.pathloss_device;
        cfg
    }
}

/// Per-active-tag outcome ledger. Plain counters — byte-comparable for
/// the scale-invariance suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TagLedger {
    /// Tag id.
    pub tag: u32,
    /// Frames offered (arrivals × burst size).
    pub offered: u64,
    /// Frames fully delivered.
    pub delivered: u64,
    /// Frames dropped after `max_attempts`.
    pub lost: u64,
    /// Frames still queued or in flight at the horizon.
    pub pending: u64,
    /// Transmission attempts started.
    pub attempts: u64,
    /// Attempts that ended collided.
    pub collisions: u64,
    /// Collided attempts cut short by FD collision detection.
    pub aborts: u64,
    /// Starts deferred by carrier sense or a full link pool.
    pub deferrals: u64,
    /// Uncollided attempts that failed at the sampled PHY layer.
    pub phy_failures: u64,
    /// Delivered payload bits.
    pub goodput_bits: u64,
    /// Energy harvested over the run, joules.
    pub harvested_j: f64,
    /// Energy spent (sleep load + transmit cost), joules.
    pub spent_j: f64,
    /// Transfers fired with an insufficient bank.
    pub browned_out: u64,
    /// Whether harvest income cannot even cover the sleep load — the tag
    /// never transmits at this range.
    pub dead: bool,
}

/// City-wide totals (sum of the active-tag ledgers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CityTotals {
    /// Frames offered.
    pub offered: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames dropped.
    pub lost: u64,
    /// Frames pending at the horizon.
    pub pending: u64,
    /// Attempts started.
    pub attempts: u64,
    /// Collided attempts.
    pub collisions: u64,
    /// FD-aborted collisions.
    pub aborts: u64,
    /// Deferred starts.
    pub deferrals: u64,
    /// Sampled-PHY failures.
    pub phy_failures: u64,
    /// Delivered payload bits.
    pub goodput_bits: u64,
    /// Energy harvested, joules.
    pub harvested_j: f64,
    /// Energy spent, joules.
    pub spent_j: f64,
    /// Brown-outs.
    pub browned_out: u64,
    /// Tags dead at this range.
    pub dead_tags: u64,
}

impl CityTotals {
    /// The conservation invariant every run must satisfy.
    pub fn conserved(&self) -> bool {
        self.offered == self.delivered + self.lost + self.pending
    }
}

/// How one finished transmission attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttemptOutcome {
    /// Delivered (analytically, or verified by the sampled PHY).
    Delivered,
    /// Collided and rode out the whole frame (ALOHA).
    Collided,
    /// Collided and was cut short by FD collision detection.
    Aborted,
    /// Uncollided but the sampled PHY failed to deliver.
    PhyFailed,
}

/// One finished attempt (recorded when `log_frames` is set).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Tick at which the attempt ended.
    pub tick: u64,
    /// Transmitting tag.
    pub tag: u32,
    /// How it ended.
    pub outcome: AttemptOutcome,
    /// Whether this failure exhausted the frame's attempts (frame lost).
    pub dropped: bool,
}

/// Full result of one city run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CityReport {
    /// Scenario label.
    pub label: String,
    /// Master seed.
    pub seed: u64,
    /// Active / idle populations.
    pub n_active: u32,
    /// Idle population (never transmits; must not affect anything else).
    pub n_idle: u32,
    /// Simulated horizon, ticks.
    pub horizon_ticks: u64,
    /// Ticks per second (the PHY data rate).
    pub ticks_per_s: f64,
    /// Events processed by the scheduler (deterministic per spec).
    pub events_processed: u64,
    /// High-water mark of the event queue.
    pub peak_queue: u64,
    /// Sum of the ledgers.
    pub totals: CityTotals,
    /// Per-active-tag ledgers, in tag-id order (`ledgers[t].tag == t`).
    pub ledgers: Vec<TagLedger>,
    /// Finished attempts in completion order (only when `log_frames`).
    pub frames: Vec<FrameRecord>,
}

impl CityReport {
    /// Writes the report as JSONL: one line per active-tag ledger, then
    /// one `{"summary":true,...}` line with the totals — the `probe
    /// city` reporter format.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let err = |e: serde_json::Error| std::io::Error::other(e.to_string());
        for ledger in &self.ledgers {
            writeln!(w, "{}", serde_json::to_string(ledger).map_err(err)?)?;
        }
        #[derive(Serialize)]
        struct Summary {
            summary: bool,
            label: String,
            seed: u64,
            n_active: u32,
            n_idle: u32,
            horizon_ticks: u64,
            events_processed: u64,
            peak_queue: u64,
            conserved: bool,
            totals: CityTotals,
        }
        let line = serde_json::to_string(&Summary {
            summary: true,
            label: self.label.clone(),
            seed: self.seed,
            n_active: self.n_active,
            n_idle: self.n_idle,
            horizon_ticks: self.horizon_ticks,
            events_processed: self.events_processed,
            peak_queue: self.peak_queue,
            conserved: self.totals.conserved(),
            totals: self.totals,
        })
        .map_err(err)?;
        writeln!(w, "{line}")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// New frame(s) offered at this tag.
    Arrival,
    /// The tag re-evaluates whether it can start transmitting (energy
    /// threshold reached, backoff expired, deferral retry).
    Wake,
    /// FD collision detection fires `pilot_latency` after collision
    /// onset (valid only if the tag's epoch still matches).
    Abort,
    /// Scheduled end of a transmission (epoch-guarded).
    TxEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    tick: u64,
    tag: u32,
    epoch: u32,
    kind: EventKind,
}

/// The geometry a tag's link brings into contention scoring.
#[derive(Debug, Clone, Copy)]
struct LinkGeo {
    pos: (f64, f64),
    rx: (f64, f64),
    /// Interference amplitude at this tag's receiver above which a
    /// concurrent transmitter collides with it: own link amplitude ×
    /// 10^(−margin/20).
    collision_amp: f64,
    /// Square of [`PathLoss::reach_m`] of `collision_amp`: a transmitter
    /// whose squared distance to `rx` exceeds it cannot collide.
    reach2: f64,
}

impl LinkGeo {
    /// The link of a tag at `pos` whose receiver sits `link_dist` along +x.
    fn new(pos: (f64, f64), link_dist: f64, margin_amp: f64, gain_cfg: &NetworkConfig) -> Self {
        let rx = (pos.0 + link_dist, pos.1);
        let collision_amp = gain_cfg.pair_gain(pos, rx) * margin_amp;
        let reach = gain_cfg.pathloss_device.reach_m(collision_amp);
        LinkGeo {
            pos,
            rx,
            collision_amp,
            reach2: reach * reach,
        }
    }

    /// Whether a transmitter at `tx` reaches this link's receiver with at
    /// least `collision_amp`. Pairs beyond the reach skip the kernel: the
    /// squared distance is [`NetworkConfig::pair_distance`]'s own
    /// expression, and `reach_m` bounds the kernel from above past it, so
    /// the answer is the kernel's exactly.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // a NaN distance goes to the kernel
    fn hit_by(&self, tx: (f64, f64), gain_cfg: &NetworkConfig) -> bool {
        let d2 = (tx.0 - self.rx.0).powi(2) + (tx.1 - self.rx.1).powi(2);
        !(d2 > self.reach2) && gain_cfg.pair_gain(tx, self.rx) >= self.collision_amp
    }
}

/// A link in flight: its tag and a copy of its geometry, kept contiguous
/// for the contention scans.
#[derive(Debug, Clone, Copy)]
struct ActiveLink {
    tag: u32,
    geo: LinkGeo,
}

/// Relative widening of the grid cell over the largest reach, against
/// rounding in the distance and cell arithmetic.
const CELL_MARGIN: f64 = 1e-9;
/// Most grid cells per link slot: with uniform links, a 3×3 query then
/// finds a link that cannot hit in roughly 9/256 of the cases per link in
/// flight.
const CELLS_PER_LINK: usize = 256;
/// Most grid cells in all, which caps the two count arrays at 2 MB.
const MAX_CELLS: usize = 1 << 18;

/// Counts of in-flight transmitters and receivers on a square grid whose
/// cell is at least every tag's reach. A transmitter within a link's
/// reach of its receiver is then at most one cell away on either axis,
/// so an empty 3×3 neighbourhood proves a contention scan would find
/// nothing, and the scan can be skipped. When any reach is not finite
/// the grid is disabled and every query answers "maybe".
#[derive(Default)]
struct OccupancyGrid {
    /// Cells per metre; 0 disables the grid.
    inv_cell: f64,
    cols: usize,
    rows: usize,
    tx: Vec<u32>,
    rx: Vec<u32>,
}

impl OccupancyGrid {
    /// Empties the grid and sizes it for `extent` (x, y from 0, metres),
    /// the tags' squared reaches and `links` slots.
    fn reset(&mut self, reach2: impl Iterator<Item = f64>, extent: (f64, f64), links: usize) {
        let reach = reach2
            .fold(0f64, |m, r2| {
                if r2.is_finite() {
                    m.max(r2)
                } else {
                    f64::INFINITY
                }
            })
            .sqrt();
        let side = (CELLS_PER_LINK.saturating_mul(links).min(MAX_CELLS) as f64)
            .sqrt()
            .floor();
        let cell = (reach * (1.0 + CELL_MARGIN))
            .max(extent.0 / side)
            .max(extent.1 / side);
        self.tx.clear();
        self.rx.clear();
        if !(cell > 0.0 && cell.is_finite()) {
            self.inv_cell = 0.0;
            return;
        }
        self.inv_cell = 1.0 / cell;
        self.cols = (extent.0 * self.inv_cell) as usize + 1;
        self.rows = (extent.1 * self.inv_cell) as usize + 1;
        self.tx.resize(self.cols * self.rows, 0);
        self.rx.resize(self.cols * self.rows, 0);
    }

    /// Cell column and row of `p`. Clamping to the grid keeps cells of
    /// points at most a cell apart adjacent.
    fn cell(&self, p: (f64, f64)) -> (usize, usize) {
        (
            ((p.0 * self.inv_cell) as usize).min(self.cols - 1),
            ((p.1 * self.inv_cell) as usize).min(self.rows - 1),
        )
    }

    fn add(&mut self, geo: &LinkGeo) {
        if self.inv_cell > 0.0 {
            let (t, r) = (self.index(geo.pos), self.index(geo.rx));
            self.tx[t] += 1;
            self.rx[r] += 1;
        }
    }

    fn remove(&mut self, geo: &LinkGeo) {
        if self.inv_cell > 0.0 {
            let (t, r) = (self.index(geo.pos), self.index(geo.rx));
            self.tx[t] -= 1;
            self.rx[r] -= 1;
        }
    }

    fn index(&self, p: (f64, f64)) -> usize {
        let (x, y) = self.cell(p);
        y * self.cols + x
    }

    /// Whether `counts` holds anything in the 3×3 cells around `p`.
    fn near(&self, counts: &[u32], p: (f64, f64)) -> bool {
        if self.inv_cell == 0.0 {
            return true;
        }
        let (x, y) = self.cell(p);
        let xs = x.saturating_sub(1)..(x + 2).min(self.cols);
        (y.saturating_sub(1)..(y + 2).min(self.rows))
            .any(|r| counts[r * self.cols..][xs.clone()].iter().any(|&c| c != 0))
    }

    /// Whether an in-flight transmitter may be within reach of `p`.
    fn tx_near(&self, p: (f64, f64)) -> bool {
        self.near(&self.tx, p)
    }

    /// Whether an in-flight receiver may be within reach of `p`.
    fn rx_near(&self, p: (f64, f64)) -> bool {
        self.near(&self.rx, p)
    }
}

/// Per-tag live state (engine-internal).
#[derive(Debug, Clone, Copy)]
struct TagState {
    geo: LinkGeo,
    income_w: f64,
    duty: DutyCycleController,
    stream: u64,
    draw_stream: u64,
    draws: u64,
    frames_sampled: u64,
    pending: u64,
    attempts: u32,
    /// Consecutive carrier-sense/pool deferrals since the last start;
    /// drives the deferral backoff window so a saturated pool degrades
    /// to exponentially-spaced retries instead of thrashing the queue.
    defer_streak: u32,
    epoch: u32,
    transmitting: bool,
    waiting: bool,
    tx_start: u64,
    tx_end: u64,
    collided: bool,
    abort_scheduled: bool,
    slot: u32,
    /// Index of this tag's link in `CityEngine::active` while transmitting.
    active_idx: u32,
    dead: bool,
    ledger: TagLedger,
}

/// Mantissa-uniform `[0, 1)` from one `derive_seed` output.
fn u01(v: u64) -> f64 {
    (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The reusable event-driven engine. Construct once; [`run_into`] reuses
/// every internal buffer (event queue, tag table, link slots, report
/// vectors), so repeated runs of same-shaped specs allocate nothing in
/// the event loop — the property the alloc gate pins.
///
/// [`run_into`]: CityEngine::run_into
#[derive(Default)]
pub struct CityEngine {
    queue: EventQueue,
    tags: Vec<TagState>,
    /// Links currently transmitting.
    active: Vec<ActiveLink>,
    /// Where the transmitters and receivers of `active` are.
    grid: OccupancyGrid,
    /// Sampled-fidelity link slots, lazily built (None in analytic runs).
    slots: Vec<Option<FdLink>>,
    free_slots: Vec<u32>,
    payload: Vec<u8>,
    outcome: FrameOutcome,
    link_cfg: Option<LinkConfig>,
    /// Cached geometry kernel ([`CityScenarioSpec::gain_config`]) so
    /// repeated runs don't rebuild its internal vectors.
    gain_cfg: Option<NetworkConfig>,
}

impl CityEngine {
    /// A fresh engine with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `spec` to its horizon, allocating a fresh report.
    pub fn run(spec: &CityScenarioSpec) -> Result<CityReport, PhyError> {
        let mut engine = CityEngine::new();
        let mut report = CityReport::default();
        engine.run_into(spec, &mut report)?;
        Ok(report)
    }

    /// Runs `spec` into a reused report (buffers retained across runs).
    pub fn run_into(
        &mut self,
        spec: &CityScenarioSpec,
        report: &mut CityReport,
    ) -> Result<(), PhyError> {
        self.run_ctl(spec, report, None, &mut |_| {})
    }

    /// [`run_into`](CityEngine::run_into) with a cooperative control
    /// surface: `cancel` is polled every `CTL_EVERY_EVENTS` (4096) events
    /// (returning `true` stops the run with [`PhyError::Cancelled`],
    /// `frames_done` = events processed), and `progress` receives
    /// simulated-time progress on the same cadence (`done` ∈ `0..=100`).
    pub fn run_ctl(
        &mut self,
        spec: &CityScenarioSpec,
        report: &mut CityReport,
        cancel: Option<&dyn Fn() -> bool>,
        progress: &mut dyn FnMut(JobProgress),
    ) -> Result<(), PhyError> {
        spec.validate()?;
        let horizon = spec.horizon_ticks();
        let ticks_per_s = spec.ticks_per_s();
        let frame_ticks = spec.frame_ticks();
        let pilot_latency = pilot_latency_bits(&spec.phy);
        // Take the cached kernel out of `self` (it is re-stowed below) so
        // it can be borrowed alongside `&mut self` in the event handlers.
        let mut gain_cfg = self
            .gain_cfg
            .take()
            .unwrap_or_else(|| spec.gain_config());
        gain_cfg.source_dist_m = spec.source_dist_m;
        gain_cfg.source_power_dbm = spec.source_power_dbm;
        gain_cfg.pathloss_source = spec.pathloss_source;
        gain_cfg.pathloss_device = spec.pathloss_device;
        let source_w = dbm_to_watts(spec.source_power_dbm);
        let margin_amp = 10f64.powf(-spec.collision_margin_db / 20.0);
        let payload_bits = (spec.payload_len * 8) as u64;

        // Reset reusable state.
        self.queue.clear();
        self.tags.clear();
        self.active.clear();
        self.free_slots.clear();
        // At most `n_active` links are ever in flight, so a larger pool
        // needs no more slots (handed out lowest-first either way).
        let n_slots = spec.pool.min(spec.n_active as usize);
        self.slots.resize_with(n_slots, || None);
        self.slots.truncate(n_slots);
        for s in (0..n_slots as u32).rev() {
            self.free_slots.push(s);
        }
        self.payload.clear();
        self.payload.resize(spec.payload_len, 0xA5);

        report.label.clear();
        report.label.push_str(&spec.label);
        report.seed = spec.seed;
        report.n_active = spec.n_active;
        report.n_idle = spec.n_idle;
        report.horizon_ticks = horizon;
        report.ticks_per_s = ticks_per_s;
        report.events_processed = 0;
        report.peak_queue = 0;
        report.totals = CityTotals::default();
        report.ledgers.clear();
        report.frames.clear();

        // Materialise only the active tags. Idle tags are pure config:
        // they never transmit, so they generate no events and no state —
        // the engine's cost and every stream are independent of `n_idle`.
        self.tags.reserve(spec.n_active as usize);
        for t in 0..spec.n_active {
            let stream = derive_seed(spec.seed, t as u64);
            let pos_stream = derive_seed(stream, POS_STREAM);
            let pos = (
                u01(derive_seed(pos_stream, 0)) * spec.area_m,
                u01(derive_seed(pos_stream, 1)) * spec.area_m,
            );
            let geo = LinkGeo::new(pos, spec.link_dist_m, margin_amp, &gain_cfg);
            let income_w =
                source_w * gain_cfg.source_gain(pos).powi(2) * spec.harvest_efficiency;
            let dead = income_w <= spec.duty.sleep_load_w;
            let ledger = TagLedger {
                tag: t,
                dead,
                ..TagLedger::default()
            };
            let mut state = TagState {
                geo,
                income_w,
                duty: DutyCycleController::new(spec.duty),
                stream,
                draw_stream: derive_seed(stream, DRAW_STREAM),
                draws: 0,
                frames_sampled: 0,
                pending: 0,
                attempts: 0,
                defer_streak: 0,
                epoch: 0,
                transmitting: false,
                waiting: false,
                tx_start: 0,
                tx_end: 0,
                collided: false,
                abort_scheduled: false,
                slot: u32::MAX,
                active_idx: u32::MAX,
                dead,
                ledger,
            };
            if !dead {
                // First arrival; the chain continues inside the loop.
                let dt = interarrival_ticks(&mut state, spec.mean_interarrival_s, ticks_per_s);
                self.queue.push(Event {
                    tick: dt,
                    tag: t,
                    epoch: 0,
                    kind: EventKind::Arrival,
                });
            }
            self.tags.push(state);
        }
        self.grid.reset(
            self.tags.iter().map(|t| t.geo.reach2),
            (spec.area_m + spec.link_dist_m, spec.area_m),
            n_slots,
        );

        // Event loop. Events past the horizon stay queued (and are
        // discarded with the queue on the next run): popping stops at the
        // first out-of-horizon event, so extending the horizon replays
        // the exact same prefix — extension stability.
        let mut events: u64 = 0;
        loop {
            report.peak_queue = report.peak_queue.max(self.queue.len() as u64);
            let Some(ev) = self.queue.pop_through(horizon) else {
                break;
            };
            events += 1;
            if events.is_multiple_of(CTL_EVERY_EVENTS) {
                if let Some(c) = cancel {
                    if c() {
                        self.gain_cfg = Some(gain_cfg);
                        return Err(PhyError::Cancelled {
                            frames_done: events,
                        });
                    }
                }
                progress(JobProgress {
                    done: (ev.tick * 100 / horizon.max(1)).min(100),
                    total: 100,
                });
            }
            match ev.kind {
                EventKind::Arrival => {
                    let t = &mut self.tags[ev.tag as usize];
                    t.ledger.offered += spec.burst_arrivals as u64;
                    t.pending += spec.burst_arrivals as u64;
                    let dt =
                        interarrival_ticks(t, spec.mean_interarrival_s, ticks_per_s);
                    self.queue.push(Event {
                        tick: ev.tick + dt,
                        tag: ev.tag,
                        epoch: 0,
                        kind: EventKind::Arrival,
                    });
                    if !t.transmitting && !t.waiting {
                        self.try_start(spec, ev.tick, ev.tag, frame_ticks, pilot_latency, &gain_cfg, ticks_per_s);
                    }
                }
                EventKind::Wake => {
                    let t = &mut self.tags[ev.tag as usize];
                    t.waiting = false;
                    if !t.transmitting && !t.dead && t.pending > 0 {
                        self.try_start(spec, ev.tick, ev.tag, frame_ticks, pilot_latency, &gain_cfg, ticks_per_s);
                    }
                }
                EventKind::Abort => {
                    let t = &self.tags[ev.tag as usize];
                    if t.transmitting && t.epoch == ev.epoch {
                        debug_assert!(t.collided);
                        self.finish_attempt(spec, ev.tick, ev.tag, true, payload_bits, ticks_per_s, frame_ticks, pilot_latency, &gain_cfg, report)?;
                    }
                }
                EventKind::TxEnd => {
                    let t = &self.tags[ev.tag as usize];
                    if t.transmitting && t.epoch == ev.epoch {
                        self.finish_attempt(spec, ev.tick, ev.tag, false, payload_bits, ticks_per_s, frame_ticks, pilot_latency, &gain_cfg, report)?;
                    }
                }
            }
        }
        report.events_processed = events;

        // Ledgers and totals (in-flight frames at the horizon stay
        // pending — conservation counts them).
        report.ledgers.extend(self.tags.iter().map(|t| {
            let mut l = t.ledger;
            l.pending = t.pending;
            l.harvested_j = t.duty.harvested_j();
            l.spent_j = t.duty.spent_j();
            l.browned_out = t.duty.counts().1;
            l
        }));
        let tot = &mut report.totals;
        for l in &report.ledgers {
            tot.offered += l.offered;
            tot.delivered += l.delivered;
            tot.lost += l.lost;
            tot.pending += l.pending;
            tot.attempts += l.attempts;
            tot.collisions += l.collisions;
            tot.aborts += l.aborts;
            tot.deferrals += l.deferrals;
            tot.phy_failures += l.phy_failures;
            tot.goodput_bits += l.goodput_bits;
            tot.harvested_j += l.harvested_j;
            tot.spent_j += l.spent_j;
            tot.browned_out += l.browned_out;
            tot.dead_tags += l.dead as u64;
        }
        debug_assert!(report.totals.conserved(), "conservation violated");
        self.gain_cfg = Some(gain_cfg);
        progress(JobProgress {
            done: 100,
            total: 100,
        });
        Ok(())
    }

    /// Attempts to start a transmission at `now` for `tag` (known to be
    /// neither transmitting nor waiting, with pending traffic). Either a
    /// transmission starts (Abort/TxEnd scheduled) or exactly one Wake
    /// is scheduled (energy sleep, carrier-sense deferral, pool-full
    /// deferral, all via the tag's own draw stream).
    #[allow(clippy::too_many_arguments)]
    fn try_start(
        &mut self,
        spec: &CityScenarioSpec,
        now: u64,
        tag: u32,
        frame_ticks: u64,
        pilot_latency: u64,
        gain_cfg: &NetworkConfig,
        ticks_per_s: f64,
    ) {
        let ti = tag as usize;
        debug_assert!(!self.tags[ti].transmitting && !self.tags[ti].waiting);
        debug_assert!(self.tags[ti].pending > 0);

        // Energy gate: charge analytically to the wake threshold.
        let income = self.tags[ti].income_w;
        match self.tags[ti].duty.sleep_until_ready(income) {
            None => {
                self.tags[ti].dead = true;
                self.tags[ti].ledger.dead = true;
                return;
            }
            Some(sleep_s) if sleep_s > 0.0 => {
                let dt = ((sleep_s * ticks_per_s).ceil() as u64).max(1);
                let epoch = self.tags[ti].epoch;
                self.tags[ti].waiting = true;
                self.queue.push(Event {
                    tick: now + dt,
                    tag,
                    epoch,
                    kind: EventKind::Wake,
                });
                return;
            }
            _ => {}
        }

        // Carrier sense (the full-duplex feedback primitive) and the
        // active-link pool bound: either defers with a backoff retry.
        let my = self.tags[ti].geo;
        let fd = spec.mode == AccessMode::FdCollisionDetect;
        let deferred = self.active.len() >= spec.pool
            || (fd
                && self.grid.tx_near(my.rx)
                && self.active.iter().any(|o| my.hit_by(o.geo.pos, gain_cfg)));
        if deferred {
            let t = &mut self.tags[ti];
            t.ledger.deferrals += 1;
            let window = backoff_window(spec.backoff_min_bits, t.defer_streak);
            t.defer_streak = t.defer_streak.saturating_add(1);
            let wait = 1 + draw(t) % window;
            t.duty.bank(income, wait as f64 / ticks_per_s);
            t.waiting = true;
            let epoch = t.epoch;
            self.queue.push(Event {
                tick: now + wait,
                tag,
                epoch,
                kind: EventKind::Wake,
            });
            return;
        }

        // Start. Mark collisions in both directions against every link
        // already in flight, using the pair_coeff geometry kernel. Under
        // collision detect, carrier sense has just found no active link
        // hitting this receiver, so only ALOHA can start collided. Both
        // scans run only when the grid has a candidate near enough to hit.
        let end = now + frame_ticks;
        let collided = !fd
            && self.grid.tx_near(my.rx)
            && self.active.iter().any(|o| my.hit_by(o.geo.pos, gain_cfg));
        debug_assert!(
            !fd || !self.active.iter().any(|o| my.hit_by(o.geo.pos, gain_cfg)),
            "carrier sense passed a start that collides"
        );
        let marking: &[ActiveLink] = if self.grid.rx_near(my.pos) {
            &self.active
        } else {
            &[]
        };
        for o in marking {
            if !o.geo.hit_by(my.pos, gain_cfg) {
                continue;
            }
            let ot = &mut self.tags[o.tag as usize];
            ot.collided = true;
            if fd && !ot.abort_scheduled {
                let abort_tick = now + pilot_latency;
                if abort_tick < ot.tx_end {
                    ot.abort_scheduled = true;
                    self.queue.push(Event {
                        tick: abort_tick,
                        tag: o.tag,
                        epoch: ot.epoch,
                        kind: EventKind::Abort,
                    });
                }
            }
        }
        let slot = self.free_slots.pop().unwrap_or(u32::MAX);
        let t = &mut self.tags[ti];
        t.transmitting = true;
        t.tx_start = now;
        t.tx_end = end;
        t.collided = collided;
        t.abort_scheduled = false;
        t.slot = slot;
        t.active_idx = self.active.len() as u32;
        t.attempts += 1;
        t.defer_streak = 0;
        t.ledger.attempts += 1;
        self.queue.push(Event {
            tick: end,
            tag,
            epoch: t.epoch,
            kind: EventKind::TxEnd,
        });
        self.active.push(ActiveLink { tag, geo: my });
        self.grid.add(&my);
    }

    /// Finishes the in-flight attempt of `tag` at `now` (an Abort or
    /// TxEnd whose epoch matched): releases the link slot, charges the
    /// duty controller, settles the ledger, and — if traffic remains —
    /// immediately re-attempts or schedules the backoff Wake.
    #[allow(clippy::too_many_arguments)]
    fn finish_attempt(
        &mut self,
        spec: &CityScenarioSpec,
        now: u64,
        tag: u32,
        aborted: bool,
        payload_bits: u64,
        ticks_per_s: f64,
        frame_ticks: u64,
        pilot_latency: u64,
        gain_cfg: &NetworkConfig,
        report: &mut CityReport,
    ) -> Result<(), PhyError> {
        let ti = tag as usize;
        let (tx_start, collided, slot, k) = {
            let t = &mut self.tags[ti];
            t.transmitting = false;
            t.epoch = t.epoch.wrapping_add(1);
            (t.tx_start, t.collided, t.slot, t.active_idx as usize)
        };
        debug_assert_eq!(self.active[k].tag, tag, "stale active index");
        let done = self.active.swap_remove(k);
        self.grid.remove(&done.geo);
        if let Some(moved) = self.active.get(k) {
            self.tags[moved.tag as usize].active_idx = k as u32;
        }
        let dur_s = (now - tx_start) as f64 / ticks_per_s;
        let income = self.tags[ti].income_w;

        let (outcome, cost_j) = if collided {
            (
                if aborted {
                    AttemptOutcome::Aborted
                } else {
                    AttemptOutcome::Collided
                },
                spec.tx_load_w * dur_s,
            )
        } else {
            match spec.fidelity {
                CityFidelity::Analytic => {
                    (AttemptOutcome::Delivered, spec.tx_load_w * dur_s)
                }
                CityFidelity::Sampled => {
                    let energy = self.run_sampled_frame(spec, tag)?;
                    let ok = self.outcome.fully_delivered();
                    (
                        if ok {
                            AttemptOutcome::Delivered
                        } else {
                            AttemptOutcome::PhyFailed
                        },
                        energy,
                    )
                }
            }
        };
        if slot != u32::MAX {
            self.free_slots.push(slot);
        }

        let t = &mut self.tags[ti];
        t.duty.fire(cost_j, dur_s, income);
        let mut dropped = false;
        match outcome {
            AttemptOutcome::Delivered => {
                t.ledger.delivered += 1;
                t.ledger.goodput_bits += payload_bits;
                t.pending -= 1;
                t.attempts = 0;
            }
            failure => {
                if failure == AttemptOutcome::PhyFailed {
                    t.ledger.phy_failures += 1;
                } else {
                    t.ledger.collisions += 1;
                    if failure == AttemptOutcome::Aborted {
                        t.ledger.aborts += 1;
                    }
                }
                if t.attempts >= spec.max_attempts {
                    t.ledger.lost += 1;
                    t.pending -= 1;
                    t.attempts = 0;
                    dropped = true;
                } else {
                    let window = backoff_window(spec.backoff_min_bits, t.attempts);
                    let wait = 1 + draw(t) % window;
                    t.duty.bank(income, wait as f64 / ticks_per_s);
                    t.waiting = true;
                    self.queue.push(Event {
                        tick: now + wait,
                        tag,
                        epoch: t.epoch,
                        kind: EventKind::Wake,
                    });
                }
            }
        }
        if spec.log_frames {
            report.frames.push(FrameRecord {
                tick: now,
                tag,
                outcome,
                dropped,
            });
        }
        let t = &self.tags[ti];
        if !t.waiting && !t.dead && t.pending > 0 {
            self.try_start(spec, now, tag, frame_ticks, pilot_latency, gain_cfg, ticks_per_s);
        }
        Ok(())
    }

    /// Runs one sample-level frame for `tag` on its pooled [`FdLink`]
    /// slot and returns the transmitter's measured energy cost. The
    /// frame RNG is keyed `(tag stream, FRAME, frame counter)`, so the
    /// sampled PHY is exactly as population-independent as the rest of
    /// the engine.
    fn run_sampled_frame(
        &mut self,
        spec: &CityScenarioSpec,
        tag: u32,
    ) -> Result<f64, PhyError> {
        let ti = tag as usize;
        let (pos, rx_pos, stream, n) = {
            let t = &self.tags[ti];
            (t.geo.pos, t.geo.rx, t.stream, t.frames_sampled)
        };
        self.tags[ti].frames_sampled += 1;
        let cfg = self.link_cfg.get_or_insert_with(LinkConfig::default_fd);
        cfg.phy = spec.phy.clone();
        cfg.geometry.source_power_dbm = spec.source_power_dbm;
        cfg.geometry.source_dist_a_m = (spec.source_dist_m + pos.1).max(1.0);
        cfg.geometry.source_dist_b_m = (spec.source_dist_m + rx_pos.1).max(1.0);
        cfg.geometry.device_dist_m = spec.link_dist_m;
        cfg.geometry.pathloss_source = spec.pathloss_source;
        cfg.geometry.pathloss_device = spec.pathloss_device;
        cfg.ambient_seed = derive_seed(stream, AMBIENT_STREAM);
        let mut rng =
            ChaCha8Rng::seed_from_u64(derive_seed(derive_seed(stream, FRAME_STREAM), n));
        let slot = self.tags[ti].slot;
        debug_assert!(slot != u32::MAX, "transmitting tag without a slot");
        let slot = &mut self.slots[slot as usize];
        let link = match slot {
            Some(l) => {
                l.reinit(cfg, &mut rng)?;
                l
            }
            None => slot.insert(FdLink::new(cfg.clone(), &mut rng)?),
        };
        link.run_frame_into(
            &self.payload,
            &RunOptions::fd_monitor(),
            &mut rng,
            FrameRun::clean(),
            &mut self.outcome,
        )?;
        Ok(self.outcome.energy.a_consumed_j)
    }
}

/// Bits of `tick` each queue level files on.
const DIGIT: u32 = 6;
/// Slots per level.
const RADIX: usize = 1 << DIGIT;
/// Levels covering a 64-bit tick: ten full digits and a 4-bit top one.
const LEVELS: usize = (u64::BITS as usize).div_ceil(DIGIT as usize);
/// Entries per storage block.
const BLOCK: usize = 32;
/// End of a block chain.
const NIL: u32 = u32::MAX;
/// Position of the [`EventKind`] in [`Entry::tag_kind`], above the tag id
/// (`validate` keeps tag ids below 2^24).
const KIND_SHIFT: u32 = 30;

/// One queued [`Event`] in 16 bytes: the tag id shares a word with the
/// kind in its top two bits.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tick: u64,
    epoch: u32,
    tag_kind: u32,
}

impl Entry {
    fn pack(ev: Event) -> Self {
        debug_assert!(ev.tag < 1 << KIND_SHIFT, "tag id overlaps the kind bits");
        Entry {
            tick: ev.tick,
            epoch: ev.epoch,
            tag_kind: (ev.kind as u32) << KIND_SHIFT | ev.tag,
        }
    }

    fn unpack(self) -> Event {
        Event {
            tick: self.tick,
            tag: self.tag_kind & ((1 << KIND_SHIFT) - 1),
            epoch: self.epoch,
            kind: match self.tag_kind >> KIND_SHIFT {
                0 => EventKind::Arrival,
                1 => EventKind::Wake,
                2 => EventKind::Abort,
                _ => EventKind::TxEnd,
            },
        }
    }
}

/// A slot's entries: a chain of blocks read from `head[front]` up to
/// `tail[fill]`.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    head: u32,
    tail: u32,
    front: u32,
    fill: u32,
}

/// Monotone multi-level radix queue of [`Event`]s on `tick`.
///
/// The event loop only ever pushes at or after the tick it last popped
/// (`last`), which is what a radix queue needs. An entry is filed by the
/// highest 6-bit digit in which its tick differs from `last` (its level)
/// and by its own digit there (its slot), so a level-0 slot holds a single
/// tick and a level-`l` slot a run of 2^(6l) ticks. One occupancy word per
/// level, and one bit per level for the words, find the earliest slot with
/// `trailing_zeros`. Popping drains the lowest level-0 slot front to back;
/// when level 0 is empty, the lowest slot of the lowest occupied level is
/// scanned for its minimum tick, which becomes `last`, and the slot is
/// redistributed into lower levels front to back. An entry so moves at
/// most once per level, and in practice two or three times.
///
/// Equal-tick events pop in push order, which keeps the schedule
/// deterministic and extension-stable: two events with the same tick
/// always share a slot, slots are appended to in push order, and
/// redistribution reads a slot front to back, appending to the slots it
/// feeds. Slots are chains of fixed blocks of [`BLOCK`] entries drawn
/// from one free list threaded through `next`, so memory follows the live
/// count, and a cleared queue keeps its blocks: a reused queue allocates
/// nothing.
struct EventQueue {
    blocks: Vec<[Entry; BLOCK]>,
    /// The block after each block in its slot's chain, or in the free list.
    next: Vec<u32>,
    /// First free block, or [`NIL`].
    free: u32,
    chains: [[Chain; RADIX]; LEVELS],
    /// Bit `s` of word `l` set iff slot `s` of level `l` holds entries.
    occupied: [u64; LEVELS],
    /// Bit `l` set iff `occupied[l] != 0`.
    levels: u32,
    last: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            blocks: Vec::new(),
            next: Vec::new(),
            free: NIL,
            chains: [[Chain::default(); RADIX]; LEVELS],
            occupied: [0; LEVELS],
            levels: 0,
            last: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    /// Empties the queue, returning every block to the free list.
    fn clear(&mut self) {
        let n = self.next.len() as u32;
        for (b, next) in self.next.iter_mut().enumerate() {
            *next = b as u32 + 1;
        }
        if let Some(end) = self.next.last_mut() {
            *end = NIL;
        }
        self.free = if n == 0 { NIL } else { 0 };
        self.occupied = [0; LEVELS];
        self.levels = 0;
        self.last = 0;
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }

    /// A block from the free list, or a new one.
    fn alloc_block(&mut self) -> u32 {
        let b = self.free;
        if b == NIL {
            self.blocks.push([Entry::default(); BLOCK]);
            self.next.push(NIL);
            return self.next.len() as u32 - 1;
        }
        self.free = self.next[b as usize];
        self.next[b as usize] = NIL;
        b
    }

    fn release_block(&mut self, b: u32) {
        self.next[b as usize] = self.free;
        self.free = b;
    }

    /// Appends `e` to the slot its tick selects relative to `last`.
    fn insert(&mut self, e: Entry) {
        // `| 1` files `tick == last` at level 0 with the other ticks that
        // differ from `last` in the lowest digit only.
        let high_bit = u64::BITS - 1 - ((e.tick ^ self.last) | 1).leading_zeros();
        let level = (high_bit / DIGIT) as usize;
        // At most 60, so the shift is in range for the top, partial digit.
        let slot = (e.tick >> (level as u32 * DIGIT)) as usize % RADIX;
        let bit = 1u64 << slot;
        if self.occupied[level] & bit == 0 {
            let b = self.alloc_block();
            self.chains[level][slot] = Chain {
                head: b,
                tail: b,
                front: 0,
                fill: 0,
            };
            self.occupied[level] |= bit;
            self.levels |= 1 << level;
        } else if self.chains[level][slot].fill == BLOCK as u32 {
            let b = self.alloc_block();
            let chain = &mut self.chains[level][slot];
            self.next[chain.tail as usize] = b;
            chain.tail = b;
            chain.fill = 0;
        }
        let chain = &mut self.chains[level][slot];
        self.blocks[chain.tail as usize][chain.fill as usize] = e;
        chain.fill += 1;
    }

    fn push(&mut self, ev: Event) {
        debug_assert!(ev.tick >= self.last, "event pushed before the last pop");
        self.insert(Entry::pack(ev));
        self.len += 1;
    }

    /// Calls `f` on the entries of `chain` in order; with `release`, each
    /// block goes back to the free list once read.
    fn walk(&mut self, chain: Chain, release: bool, mut f: impl FnMut(&mut Self, Entry)) {
        let mut b = chain.head;
        let mut i = chain.front;
        loop {
            let end = if b == chain.tail {
                chain.fill
            } else {
                BLOCK as u32
            };
            while i < end {
                let e = self.blocks[b as usize][i as usize];
                f(self, e);
                i += 1;
            }
            let next = self.next[b as usize];
            if release {
                self.release_block(b);
            }
            if b == chain.tail {
                return;
            }
            b = next;
            i = 0;
        }
    }

    /// Pops the earliest event if its tick is ≤ `limit`; a later one
    /// stays queued and `last` is left alone.
    fn pop_through(&mut self, limit: u64) -> Option<Event> {
        if self.occupied[0] == 0 {
            if self.levels == 0 {
                return None;
            }
            // The lowest slot of the lowest occupied level holds the
            // queue's minimum.
            let level = self.levels.trailing_zeros() as usize;
            let slot = self.occupied[level].trailing_zeros() as usize;
            let chain = self.chains[level][slot];
            let mut min = u64::MAX;
            self.walk(chain, false, |_, e| min = min.min(e.tick));
            if min > limit {
                return None;
            }
            self.last = min;
            self.occupied[level] &= !(1 << slot);
            if self.occupied[level] == 0 {
                self.levels &= !(1 << level);
            }
            // Every entry now differs from `last` below `level` only.
            self.walk(chain, true, Self::insert);
        }
        let slot = self.occupied[0].trailing_zeros() as usize;
        let chain = &mut self.chains[0][slot];
        let e = self.blocks[chain.head as usize][chain.front as usize];
        if e.tick > limit {
            return None;
        }
        chain.front += 1;
        if chain.head == chain.tail && chain.front == chain.fill {
            let b = chain.head;
            self.release_block(b);
            self.occupied[0] &= !(1 << slot);
            if self.occupied[0] == 0 {
                self.levels &= !1;
            }
        } else if chain.front == BLOCK as u32 {
            let b = chain.head;
            chain.head = self.next[b as usize];
            chain.front = 0;
            self.release_block(b);
        }
        self.last = e.tick;
        self.len -= 1;
        Some(e.unpack())
    }
}

/// Next draw from the tag's stateless counter stream.
fn draw(t: &mut TagState) -> u64 {
    let v = derive_seed(t.draw_stream, t.draws);
    t.draws += 1;
    v
}

/// Exponential interarrival in ticks (≥ 1) from the tag's own stream.
fn interarrival_ticks(t: &mut TagState, mean_s: f64, ticks_per_s: f64) -> u64 {
    let u = u01(draw(t));
    let dt_s = -(1.0 - u).ln() * mean_s;
    ((dt_s * ticks_per_s).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CityScenarioSpec {
        CityScenarioSpec {
            label: "unit".into(),
            seed: 7,
            n_active: 8,
            area_m: 4.0,
            sim_duration_s: 120.0,
            mean_interarrival_s: 10.0,
            log_frames: true,
            // An analytic frame costs ~2 µJ (10 µW × ~0.2 s); start the
            // duty estimate near it so the first charge takes seconds,
            // not minutes, at the ~0.6 µW default harvest income.
            duty: DutyConfig {
                initial_cost_estimate_j: 5e-6,
                ..DutyConfig::default()
            },
            ..CityScenarioSpec::default()
        }
    }

    #[test]
    fn run_is_deterministic() {
        let spec = small_spec();
        let a = CityEngine::run(&spec).unwrap();
        let b = CityEngine::run(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn reused_engine_matches_fresh() {
        let spec = small_spec();
        let fresh = CityEngine::run(&spec).unwrap();
        let mut engine = CityEngine::new();
        let mut report = CityReport::default();
        engine.run_into(&spec, &mut report).unwrap();
        assert_eq!(report, fresh);
        engine.run_into(&spec, &mut report).unwrap();
        assert_eq!(report, fresh);
    }

    #[test]
    fn conservation_holds_and_traffic_flows() {
        let report = CityEngine::run(&small_spec()).unwrap();
        assert!(report.totals.conserved());
        assert!(report.totals.offered > 0);
        assert!(report.totals.delivered > 0, "{:?}", report.totals);
        for l in &report.ledgers {
            assert_eq!(l.offered, l.delivered + l.lost + l.pending, "{l:?}");
        }
    }

    #[test]
    fn idle_population_does_not_change_ledgers() {
        let spec = small_spec();
        let mut crowded = spec.clone();
        crowded.n_idle = 5000;
        let a = CityEngine::run(&spec).unwrap();
        let b = CityEngine::run(&crowded).unwrap();
        assert_eq!(a.ledgers, b.ledgers);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn dense_area_produces_contention_and_fd_aborts() {
        let mut spec = small_spec();
        spec.n_active = 24;
        spec.area_m = 1.0;
        spec.mean_interarrival_s = 2.0;
        let report = CityEngine::run(&spec).unwrap();
        assert!(
            report.totals.collisions + report.totals.deferrals > 0,
            "{:?}",
            report.totals
        );
        // FD mode cuts collisions short — but a victim already past
        // `frame - pilot_latency` bits finishes before its abort could
        // fire, so aborts can trail collisions.
        assert!(report.totals.aborts > 0, "{:?}", report.totals);
        assert!(report.totals.aborts <= report.totals.collisions);
    }

    #[test]
    fn aloha_collides_without_aborting() {
        let mut spec = small_spec();
        spec.n_active = 24;
        spec.area_m = 1.0;
        spec.mean_interarrival_s = 2.0;
        spec.mode = AccessMode::Aloha;
        let report = CityEngine::run(&spec).unwrap();
        assert!(report.totals.collisions > 0, "{:?}", report.totals);
        assert_eq!(report.totals.aborts, 0);
        assert_eq!(report.totals.deferrals, 0);
    }

    #[test]
    fn sampled_fidelity_delivers_on_clean_links() {
        let mut spec = small_spec();
        spec.n_active = 2;
        spec.sim_duration_s = 60.0;
        spec.fidelity = CityFidelity::Sampled;
        spec.pool = 2;
        let report = CityEngine::run(&spec).unwrap();
        assert!(report.totals.delivered > 0, "{:?}", report.totals);
        assert!(report.totals.conserved());
        // Sampled energy comes from the PHY, not the analytic tx load.
        assert!(report.totals.spent_j > 0.0);
    }

    #[test]
    fn spec_round_trips_and_partial_json_parses() {
        let spec = small_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: CityScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let partial: CityScenarioSpec =
            serde_json::from_str(r#"{"n_active": 3, "seed": 9}"#).unwrap();
        assert_eq!(partial.n_active, 3);
        assert_eq!(partial.seed, 9);
        assert_eq!(partial.payload_len, CityScenarioSpec::default().payload_len);
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let ok = small_spec();
        ok.validate().unwrap();
        let cases: &[fn(&mut CityScenarioSpec)] = &[
            |s: &mut CityScenarioSpec| s.sim_duration_s = 0.0,
            |s: &mut CityScenarioSpec| s.sim_duration_s = f64::NAN,
            |s: &mut CityScenarioSpec| s.mean_interarrival_s = -1.0,
            |s: &mut CityScenarioSpec| s.payload_len = 0,
            |s: &mut CityScenarioSpec| s.payload_len = 1 << 20,
            |s: &mut CityScenarioSpec| s.n_active = MAX_ACTIVE + 1,
            |s: &mut CityScenarioSpec| s.n_active = u32::MAX,
            |s: &mut CityScenarioSpec| s.pool = 0,
            |s: &mut CityScenarioSpec| s.max_attempts = 0,
            |s: &mut CityScenarioSpec| s.burst_arrivals = 0,
            |s: &mut CityScenarioSpec| s.harvest_efficiency = 2.0,
            |s: &mut CityScenarioSpec| s.area_m = f64::INFINITY,
            |s: &mut CityScenarioSpec| s.link_dist_m = 0.0,
            |s: &mut CityScenarioSpec| s.source_dist_m = f64::NAN,
            |s: &mut CityScenarioSpec| s.source_dist_m = f64::INFINITY,
            |s: &mut CityScenarioSpec| s.source_power_dbm = f64::NEG_INFINITY,
            |s: &mut CityScenarioSpec| s.pathloss_source = PathLoss::FreeSpace { freq_hz: 0.0 },
            |s: &mut CityScenarioSpec| s.pathloss_device = PathLoss::FreeSpace { freq_hz: -1.0 },
            |s: &mut CityScenarioSpec| {
                s.pathloss_device = PathLoss::FreeSpace { freq_hz: f64::NAN }
            },
            |s: &mut CityScenarioSpec| {
                s.pathloss_source = PathLoss::FreeSpace {
                    freq_hz: f64::INFINITY,
                }
            },
            |s: &mut CityScenarioSpec| {
                s.pathloss_device = PathLoss::LogDistance {
                    freq_hz: 539e6,
                    exponent: -2.0,
                    ref_dist_m: 1.0,
                }
            },
            |s: &mut CityScenarioSpec| {
                s.pathloss_source = PathLoss::LogDistance {
                    freq_hz: 539e6,
                    exponent: f64::NAN,
                    ref_dist_m: 1.0,
                }
            },
            |s: &mut CityScenarioSpec| {
                s.pathloss_device = PathLoss::LogDistance {
                    freq_hz: 539e6,
                    exponent: 2.7,
                    ref_dist_m: f64::INFINITY,
                }
            },
            |s: &mut CityScenarioSpec| {
                s.pathloss_device = PathLoss::TwoRay {
                    freq_hz: 539e6,
                    h_tx_m: f64::NAN,
                    h_rx_m: 1.0,
                }
            },
            |s: &mut CityScenarioSpec| {
                s.pathloss_source = PathLoss::TwoRay {
                    freq_hz: 539e6,
                    h_tx_m: 1.0,
                    h_rx_m: f64::INFINITY,
                }
            },
        ];
        for f in cases {
            let mut bad = small_spec();
            f(&mut bad);
            assert!(
                matches!(bad.validate(), Err(PhyError::InvalidConfig { .. })),
                "{bad:?}"
            );
        }
        let mut largest = small_spec();
        largest.n_active = MAX_ACTIVE;
        largest.validate().unwrap();
        // Every shipped device model still passes.
        for model in [
            PathLoss::indoor(),
            PathLoss::TwoRay {
                freq_hz: 539e6,
                h_tx_m: 0.5,
                h_rx_m: 0.25,
            },
        ] {
            let mut spec = small_spec();
            spec.pathloss_device = model;
            spec.validate().unwrap();
        }
    }

    #[test]
    fn cancellation_stops_the_run() {
        let mut spec = small_spec();
        spec.n_active = 64;
        spec.sim_duration_s = 3600.0;
        spec.mean_interarrival_s = 5.0;
        let mut engine = CityEngine::new();
        let mut report = CityReport::default();
        let cancel = || true;
        let err = engine
            .run_ctl(&spec, &mut report, Some(&cancel), &mut |_| {})
            .unwrap_err();
        assert!(matches!(err, PhyError::Cancelled { .. }));
    }

    #[test]
    fn progress_is_monotone_to_100() {
        let mut spec = small_spec();
        spec.n_active = 64;
        spec.mean_interarrival_s = 2.0;
        let mut engine = CityEngine::new();
        let mut report = CityReport::default();
        let mut seen = Vec::new();
        engine
            .run_ctl(&spec, &mut report, None, &mut |p| seen.push(p.done))
            .unwrap();
        assert_eq!(*seen.last().unwrap(), 100);
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
    }

    #[test]
    fn jsonl_reporter_emits_ledgers_then_summary() {
        let report = CityEngine::run(&small_spec()).unwrap();
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&buf).unwrap().lines().collect();
        assert_eq!(lines.len(), report.ledgers.len() + 1);
        for line in &lines[..lines.len() - 1] {
            let l: TagLedger = serde_json::from_str(line).unwrap();
            assert!(l.tag < report.n_active);
        }
        let summary = serde_json::value_from_str(lines.last().unwrap()).unwrap();
        assert!(matches!(
            summary.get("summary"),
            Some(serde_json::Value::Bool(true))
        ));
        assert!(matches!(
            summary.get("conserved"),
            Some(serde_json::Value::Bool(true))
        ));
    }

    /// A pool larger than the active population allocates slots only for
    /// the population and runs exactly like a pool of that size.
    #[test]
    fn oversized_pool_is_sized_by_the_active_population() {
        let mut spec = small_spec();
        spec.pool = spec.n_active as usize;
        let exact = CityEngine::run(&spec).unwrap();
        // Sizing slots by `pool` would panic on capacity overflow here.
        spec.pool = usize::MAX;
        let mut engine = CityEngine::new();
        let mut report = CityReport::default();
        engine.run_into(&spec, &mut report).unwrap();
        assert_eq!(report, exact);
        assert_eq!(engine.slots.len(), spec.n_active as usize);
    }

    const KINDS: [EventKind; 4] = [
        EventKind::Arrival,
        EventKind::Wake,
        EventKind::Abort,
        EventKind::TxEnd,
    ];

    #[test]
    fn entry_round_trips_the_largest_tag_id_with_every_kind() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        for tag in [0, MAX_ACTIVE - 1, (1 << KIND_SHIFT) - 1] {
            for kind in KINDS {
                let ev = Event {
                    tick: u64::MAX,
                    tag,
                    epoch: u32::MAX,
                    kind,
                };
                assert_eq!(Entry::pack(ev).unpack(), ev);
            }
        }
    }

    /// The radix queue pops exactly what a `(tick, push order)` binary
    /// heap pops, over randomised schedules: monotone pushes with deltas
    /// up to 2^40 (2^62 in the high rounds), bursts of equal ticks, pushes
    /// at exactly the last popped tick, and limits that stop short of the
    /// next event, also inside the tick range of a level ≥ 1 slot. The
    /// high rounds start at or above 2^60 and run up to `u64::MAX − 7`,
    /// so the partial top digit is filed, found and redistributed.
    #[test]
    fn event_queue_matches_tick_then_push_order_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        const TOP: u64 = u64::MAX - 7;
        let mut queue = EventQueue::default();
        let mut saw_top_level = false;
        for round in 0..24u64 {
            queue.clear();
            let mut heap = BinaryHeap::new();
            let mut pushed = Vec::new();
            let mut rng = derive_seed(round, 0);
            let mut next = || {
                rng = derive_seed(rng, 1);
                rng
            };
            let high = round >= 12;
            let mut now = match round % 4 {
                _ if !high => 0,
                0 => 1 << 60,
                1 => (1 << 60) + next() % (1 << 62),
                2 => u64::MAX - (1 << 41),
                _ => TOP - next() % 1000,
            };
            // Pop shares from 1/2 to 1/4, so queues stay short or grow.
            let pop_every = 2 + round % 3;
            let steps = 5_000 + next() % 20_000;
            let mut fresh_none = false;
            for _ in 0..steps {
                let r = next();
                if r % pop_every != 0 || heap.is_empty() || fresh_none {
                    // Delta 0 pushes at `now`, the last popped tick; one
                    // always follows a `None`, which must not move it.
                    let delta = match r >> 60 {
                        _ if fresh_none => 0,
                        0..=5 => 0,
                        6..=11 => (r >> 8) % 64,
                        _ if high => (r >> 8) % (1 << ((r >> 2) % 63)),
                        _ => (r >> 8) % (1 << ((r >> 2) % 41)),
                    };
                    fresh_none = false;
                    let burst = if r % 5 == 0 { 1 + (r >> 20) % 32 } else { 1 };
                    for _ in 0..burst {
                        let s = next();
                        let ev = Event {
                            tick: now.saturating_add(delta).min(TOP),
                            tag: (s % MAX_ACTIVE as u64) as u32,
                            epoch: (s >> 32) as u32,
                            kind: KINDS[(s >> 28) as usize % 4],
                        };
                        queue.push(ev);
                        heap.push(Reverse((ev.tick, pushed.len())));
                        pushed.push(ev);
                    }
                } else {
                    saw_top_level |= (queue.levels >> (LEVELS - 1)) & 1 == 1;
                    let &Reverse((tick, seq)) = heap.peek().unwrap();
                    let limit = match r % 7 {
                        0 => tick.saturating_sub(1 + (r >> 8) % 3),
                        // Anywhere from the last pop to just below the next
                        // event: inside a level ≥ 1 slot's tick range when
                        // level 0 is empty.
                        1 if tick > now => now + (r >> 8) % (tick - now),
                        2 => tick.saturating_add((r >> 8) % 1000),
                        _ => tick,
                    };
                    let got = queue.pop_through(limit);
                    if limit < tick {
                        assert_eq!(got, None, "popped past the limit");
                        fresh_none = true;
                        continue;
                    }
                    heap.pop();
                    assert_eq!(got, Some(pushed[seq]));
                    now = tick;
                }
                assert_eq!(queue.len(), heap.len());
            }
            while let Some(Reverse((_, seq))) = heap.pop() {
                assert_eq!(queue.pop_through(u64::MAX), Some(pushed[seq]));
            }
            assert_eq!(queue.pop_through(u64::MAX), None);
        }
        assert!(saw_top_level, "no schedule reached the top level");
    }

    /// Memory follows the live count: draining a large wave returns its
    /// blocks and later waves reuse them, and a cleared queue replays a
    /// wave without a new block.
    #[test]
    fn event_queue_reuses_drained_blocks() {
        let mut queue = EventQueue::default();
        let wave = |queue: &mut EventQueue, base: u64| {
            for i in 0..10_000u64 {
                queue.push(Event {
                    tick: base + (i * 7919) % 65_536,
                    tag: i as u32,
                    epoch: 0,
                    kind: EventKind::Arrival,
                });
            }
            while queue.pop_through(u64::MAX).is_some() {}
        };
        // Full blocks for the live entries, one partial block per slot,
        // and the block being redistributed.
        let bound = 10_000 / BLOCK + LEVELS * RADIX + 1;
        wave(&mut queue, 0);
        let blocks = queue.blocks.len();
        for round in 1..8 {
            wave(&mut queue, round << 20);
            assert!(queue.blocks.len() <= bound, "{} blocks", queue.blocks.len());
        }
        let mut fresh = EventQueue::default();
        wave(&mut fresh, 0);
        fresh.clear();
        wave(&mut fresh, 0);
        assert_eq!(fresh.blocks.len(), blocks, "a cleared queue grew");
    }

    /// An empty 3×3 neighbourhood never hides a contention hit, for
    /// random active sets and probe links with mixed reaches, points on
    /// cell edges and at the area border, and probes placed just inside
    /// an active link's reach. A model whose reach is infinite disables
    /// the grid.
    #[test]
    fn occupancy_grid_never_hides_a_hit() {
        let models = [
            PathLoss::FreeSpace { freq_hz: 539e6 },
            PathLoss::indoor(),
            PathLoss::TwoRay {
                freq_hz: 539e6,
                h_tx_m: 0.5,
                h_rx_m: 0.25,
            },
            // A negative crossover: `reach_m` is infinite.
            PathLoss::TwoRay {
                freq_hz: 539e6,
                h_tx_m: -0.5,
                h_rx_m: 0.25,
            },
        ];
        for (mi, model) in models.into_iter().enumerate() {
            let spec = CityScenarioSpec {
                area_m: 6.0,
                pathloss_device: model,
                ..small_spec()
            };
            let gain_cfg = spec.gain_config();
            let margin_amp = 10f64.powf(-spec.collision_margin_db / 20.0);
            let extent = (spec.area_m + 1.0, spec.area_m);
            let mut rng = derive_seed(mi as u64, 0x47_52_49_44);
            let mut u = || {
                rng = derive_seed(rng, 1);
                u01(rng)
            };
            let (mut hits, mut skipped) = (0u32, 0u32);
            for round in 0..40 {
                let links = 1 + round % 16;
                let dists: Vec<f64> = (0..48).map(|_| 0.2 + 0.8 * u()).collect();
                let reach2: Vec<f64> = dists
                    .iter()
                    .map(|&d| LinkGeo::new((0.0, 0.0), d, margin_amp, &gain_cfg).reach2)
                    .collect();
                let finite = reach2.iter().all(|r2| r2.is_finite());
                let mut grid = OccupancyGrid::default();
                grid.reset(reach2.iter().copied(), extent, links);
                assert_eq!(grid.inv_cell == 0.0, !finite, "{model:?}");
                let cell = if finite { 1.0 / grid.inv_cell } else { 1.0 };
                let coord = |u: &mut dyn FnMut() -> f64| match (u() * 4.0) as u32 {
                    // A cell edge, or the float on either side of it.
                    0 => {
                        let edge = (u() * spec.area_m / cell).floor() * cell;
                        [edge, edge.next_down().max(0.0), edge.next_up()][(u() * 3.0) as usize]
                    }
                    // The area border.
                    1 => [0.0, spec.area_m.next_down()][(u() * 2.0) as usize],
                    _ => u() * spec.area_m,
                };
                let geos: Vec<LinkGeo> = dists
                    .iter()
                    .map(|&d| {
                        LinkGeo::new((coord(&mut u), coord(&mut u)), d, margin_amp, &gain_cfg)
                    })
                    .collect();
                let active = &geos[..links];
                for geo in active {
                    grid.add(geo);
                }
                let mut probes = geos[links..].to_vec();
                // Probes just inside an active link's reach, both ways,
                // along each axis (straddling the cell edges some active
                // links sit on) and at a random angle. The probe link has
                // the largest reach, which sets the cell.
                let widest = (0..dists.len()).max_by(|&a, &b| reach2[a].total_cmp(&reach2[b]));
                let d = dists[widest.unwrap()];
                let my_reach = reach2[widest.unwrap()].sqrt();
                for o in active {
                    let theta = u() * std::f64::consts::TAU;
                    for (c, s) in [
                        (1.0, 0.0),
                        (-1.0, 0.0),
                        (0.0, 1.0),
                        (0.0, -1.0),
                        (theta.cos(), theta.sin()),
                    ] {
                        // `reach_m` sits 1e-6 past the true threshold.
                        let r = my_reach * (1.0 - 1e-5);
                        if r.is_finite() {
                            let rx = (o.pos.0 + r * c, o.pos.1 + r * s);
                            probes.push(LinkGeo::new((rx.0 - d, rx.1), d, margin_amp, &gain_cfg));
                        }
                        let r = o.reach2.sqrt() * (1.0 - 1e-5);
                        if r.is_finite() {
                            let pos = (o.rx.0 + r * c, o.rx.1 + r * s);
                            probes.push(LinkGeo::new(pos, d, margin_amp, &gain_cfg));
                        }
                    }
                }
                for my in &probes {
                    let sensed = active.iter().any(|o| my.hit_by(o.pos, &gain_cfg));
                    let marks = active.iter().any(|o| o.hit_by(my.pos, &gain_cfg));
                    hits += sensed as u32 + marks as u32;
                    for (near, hit) in
                        [(grid.tx_near(my.rx), sensed), (grid.rx_near(my.pos), marks)]
                    {
                        assert!(near || !hit, "{model:?}: grid hid a hit on {my:?}");
                        assert!(near || finite, "{model:?}: disabled grid said no");
                        skipped += !near as u32;
                    }
                }
                for geo in active {
                    grid.remove(geo);
                }
                assert!(grid.tx.iter().chain(&grid.rx).all(|&c| c == 0));
            }
            assert!(hits > 0, "{model:?}: no contention exercised");
            assert_eq!(skipped > 0, mi < 3, "{model:?}: {skipped} scans skipped");
        }
    }

    #[test]
    fn extension_is_prefix_stable() {
        let mut short = small_spec();
        short.sim_duration_s = 60.0;
        let mut long = short.clone();
        long.sim_duration_s = 120.0;
        let a = CityEngine::run(&short).unwrap();
        let b = CityEngine::run(&long).unwrap();
        assert!(a.frames.len() <= b.frames.len());
        assert_eq!(a.frames[..], b.frames[..a.frames.len()]);
    }
}
