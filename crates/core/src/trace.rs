//! Frame-level diagnostics: structured per-stage event capture through
//! pluggable **trace sinks**.
//!
//! A frame run with a caller-owned [`TraceSink`] attached
//! (`FrameRun::with_sink`) emits a [`TraceEvent`] stream into it. The
//! stream covers every stage of the PHY pipeline:
//!
//! * **tx** — chip emission ([`TraceEvent::TxChip`]);
//! * **channel** — instantaneous source power and both detector envelopes
//!   ([`TraceEvent::Channel`]);
//! * **sic** — self-interference correction input/output, including
//!   blanked samples ([`TraceEvent::Sic`]);
//! * **rx** — acquisition lock with correlation score, rejected lock
//!   candidates and re-arms from two-stage verification, per-chip energies
//!   against the live slicer threshold, decoded bits, and per-block CRC
//!   verdicts ([`TraceEvent::RxLock`], [`TraceEvent::RxSyncReject`],
//!   [`TraceEvent::RxRearm`], [`TraceEvent::RxChip`],
//!   [`TraceEvent::RxBit`], [`TraceEvent::RxBlock`]);
//! * **feedback** — integrate-and-dump half-bit integrals, per-pilot
//!   margins, the pilot verification verdict, and decoded status bits
//!   ([`TraceEvent::FbHalf`], [`TraceEvent::FbPilot`],
//!   [`TraceEvent::FbPilotsChecked`], [`TraceEvent::FbBit`]);
//! * **mac reflex** — the abort decision ([`TraceEvent::Abort`]);
//! * **fault injection** — scripted impairment windows opening and
//!   closing ([`TraceEvent::Fault`], emitted only when a fault plan is
//!   attached to the run).
//!
//! Sample-rate stages (tx/channel/sic/rx-chip) are decimated to chip
//! boundaries so a whole frame fits in the default ring capacity; decision
//! events are recorded unconditionally.
//!
//! ## Choosing a sink backend
//!
//! There is one trace path: the caller's sink. Two backends store
//! events, and one discards them:
//!
//! * [`RingSink`] — a bounded in-memory ring ([`FrameTrace`]). When it
//!   overflows, the *oldest* events are evicted and counted, so the tail
//!   of a frame — where failures usually manifest — is always retained.
//!   Pick it to inspect a frame interactively (tests, `probe replay`).
//! * [`JsonlFileSink`] — the one JSONL sink. It stages at most one frame
//!   in memory and hands each finished frame's block to its destination,
//!   with frame/event/drop/byte counters. The destination is a file
//!   ([`JsonlFileSink::create`]) or a caller's per-frame callback
//!   ([`JsonlFileSink::from_fn`]); both receive the same bytes. Pick the
//!   file for long calibration sweeps, where an in-memory ring would
//!   either grow without bound or evict everything but the last frame.
//!   Pick the callback to stream a live trace: the job service sends each
//!   block over its client socket from the worker that runs the job.
//! * [`NullSink`] — counts and discards. Pick it when only the
//!   `events_recorded` tally matters.
//!
//! Sink selection is serialisable through [`TraceSinkSpec`] (carried on
//! `fdb_sim::MeasureSpec`), so a scenario JSON can request streaming
//! capture without code changes. Ring capacities and per-frame caps are
//! bounded by [`MAX_TRACE_CAPACITY`].
//!
//! Every build compiles the probes, the sinks and the drivers above
//! them. An untraced frame always runs on the block pipeline, which
//! records nothing; a traced one runs on the per-sample reference. The
//! `trace` feature of this crate sets one boolean, [`ENABLED`]: without
//! it a run that asks for a sink fails with [`PhyError::TraceSink`]
//! instead of recording.

use crate::error::PhyError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Whether this build records trace events: `true` only with the `trace`
/// feature. Frame runs and drivers refuse a sink with
/// [`PhyError::TraceSink`] when it is `false`.
pub const ENABLED: bool = cfg!(feature = "trace");

/// Default ring capacity in events: comfortably holds a chip-decimated
/// 256-byte frame with full feedback activity.
pub const DEFAULT_TRACE_CAPACITY: usize = 32_768;

/// Largest ring capacity or per-frame event cap a config or sink spec
/// may ask for (2^20 events, 32× the default). A ring preallocates its
/// capacity, so an unchecked request could abort the process on
/// allocation failure.
pub const MAX_TRACE_CAPACITY: usize = 1 << 20;

/// Refuses an event capacity above [`MAX_TRACE_CAPACITY`] as an invalid
/// `field`.
pub(crate) fn check_capacity(field: &'static str, capacity: usize) -> Result<(), PhyError> {
    if capacity > MAX_TRACE_CAPACITY {
        return Err(PhyError::InvalidConfig {
            field,
            reason: format!("{capacity} events exceeds the bound of {MAX_TRACE_CAPACITY}"),
        });
    }
    Ok(())
}

/// One structured event from a single pipeline stage.
///
/// `sample` is always the link-clock sample index at which the event was
/// recorded (device-clock resampling happens downstream of the fields
/// observed here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Transmitter A emitted a chip: its antenna state for this chip.
    TxChip {
        /// Link-clock sample index.
        sample: usize,
        /// Chip index since frame start.
        chip: usize,
        /// `true` = reflect.
        state: bool,
    },
    /// Channel/ambient snapshot at the detectors.
    Channel {
        /// Link-clock sample index.
        sample: usize,
        /// Instantaneous ambient power at the source (watts).
        source_power_w: f64,
        /// Detected envelope at device A (post detector RC).
        env_a: f64,
        /// Detected envelope at device B.
        env_b: f64,
    },
    /// One self-interference correction.
    Sic {
        /// Link-clock sample index.
        sample: usize,
        /// `'A'` (feedback path) or `'B'` (data path).
        device: char,
        /// Device's own antenna state at this sample.
        own_state: bool,
        /// Detected envelope before correction.
        input: f64,
        /// Corrected envelope, or `None` when transition-blanked.
        output: Option<f64>,
    },
    /// B's receiver achieved preamble lock.
    RxLock {
        /// Link-clock sample index.
        sample: usize,
        /// Peak normalised correlation at lock.
        score: f64,
        /// Highest correlation observed during the whole hunt (equals
        /// `score` at lock; keeps climbing history for missed locks).
        peak_seen: f64,
    },
    /// B's receiver rejected a candidate lock (two-stage verification).
    RxSyncReject {
        /// Link-clock sample index.
        sample: usize,
        /// Peak correlation of the rejected candidate.
        score: f64,
        /// Peak-to-sidelobe ratio of the candidate trajectory.
        sharpness: f64,
        /// Which stage failed: `"peak_shape"`, `"flat_history"`,
        /// `"preamble_mismatch"` or `"header_crc"`. Borrowed from the
        /// receiver's static labels on the hot path (no per-event
        /// allocation); owned only when deserialized back from JSONL.
        reason: Cow<'static, str>,
    },
    /// B's receiver re-armed and returned to acquisition after a
    /// rejected lock.
    RxRearm {
        /// Link-clock sample index.
        sample: usize,
        /// Candidate locks attempted so far this frame.
        attempts: usize,
    },
    /// B integrated one data chip.
    RxChip {
        /// Link-clock sample index.
        sample: usize,
        /// Mean envelope over the chip.
        energy: f64,
        /// Live slicer threshold the chip was compared against.
        threshold: f64,
    },
    /// B decoded one data bit.
    RxBit {
        /// Link-clock sample index.
        sample: usize,
        /// Bit index since lock.
        index: usize,
        /// Decoded value.
        bit: bool,
    },
    /// B completed one payload block.
    RxBlock {
        /// Link-clock sample index.
        sample: usize,
        /// Block index within the frame.
        index: usize,
        /// CRC verdict.
        ok: bool,
    },
    /// A's feedback integrator dumped one half-bit integral.
    FbHalf {
        /// Link-clock sample index.
        sample: usize,
        /// Mean corrected envelope over the half-bit.
        integral: f64,
    },
    /// A consumed one feedback pilot bit.
    FbPilot {
        /// Link-clock sample index.
        sample: usize,
        /// Pilot index (0-based).
        index: usize,
        /// `|E_first − E_second|` for this pilot.
        margin: f64,
    },
    /// A finished checking the pilot sequence.
    FbPilotsChecked {
        /// Link-clock sample index.
        sample: usize,
        /// Whether the feedback channel was verified alive.
        verified: bool,
    },
    /// A decoded one post-pilot feedback bit.
    FbBit {
        /// Link-clock sample index.
        sample: usize,
        /// Decoded status bit.
        bit: bool,
        /// Decision margin.
        margin: f64,
    },
    /// A aborted the frame on verified NACK.
    Abort {
        /// Link-clock sample index.
        sample: usize,
    },
    /// A scripted fault window opened (`active = true`) or closed
    /// (`active = false`) — see `fdb_channel::impairment`.
    Fault {
        /// Link-clock sample index.
        sample: usize,
        /// Fault class label (`"noise_burst"`, `"dropout"`,
        /// `"clock_drift"`, `"sic_gain"`, `"ambient_fade"`,
        /// `"interferer"`). Borrowed from the impairment engine's static
        /// labels on the hot path; owned only after deserialization.
        kind: Cow<'static, str>,
        /// `true` at the rising edge of the window, `false` at the
        /// falling edge.
        active: bool,
    },
}

impl TraceEvent {
    /// Coarse stage label, for filtering: `"tx"`, `"channel"`, `"sic"`,
    /// `"rx"`, `"feedback"`, `"mac"` or `"fault"`.
    pub fn stage(&self) -> &'static str {
        match self {
            TraceEvent::TxChip { .. } => "tx",
            TraceEvent::Channel { .. } => "channel",
            TraceEvent::Sic { .. } => "sic",
            TraceEvent::RxLock { .. }
            | TraceEvent::RxSyncReject { .. }
            | TraceEvent::RxRearm { .. }
            | TraceEvent::RxChip { .. }
            | TraceEvent::RxBit { .. }
            | TraceEvent::RxBlock { .. } => "rx",
            TraceEvent::FbHalf { .. }
            | TraceEvent::FbPilot { .. }
            | TraceEvent::FbPilotsChecked { .. }
            | TraceEvent::FbBit { .. } => "feedback",
            TraceEvent::Abort { .. } => "mac",
            TraceEvent::Fault { .. } => "fault",
        }
    }
}

/// Bounded ring buffer of [`TraceEvent`]s for one frame.
#[derive(Debug, Clone)]
pub struct FrameTrace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: usize,
}

impl FrameTrace {
    /// Creates an empty trace holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FrameTrace {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Pre-sizes the ring for up to `events` retained events (clamped to
    /// the capacity bound) so steady-state recording never grows it.
    pub fn reserve(&mut self, events: usize) {
        let want = events.min(self.capacity);
        self.events.reserve(want.saturating_sub(self.events.len()));
    }

    /// Events belonging to one coarse stage (see [`TraceEvent::stage`]).
    pub fn stage_events<'a>(&'a self, stage: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events().filter(move |e| e.stage() == stage)
    }
}

// ---------------------------------------------------------------------------
// The sink abstraction
// ---------------------------------------------------------------------------

/// Consumer of the per-frame [`TraceEvent`] stream.
///
/// `FdLink::run_frame_into` calls only [`record`](TraceSink::record); the
/// *driver* that knows frame indices (the `fdb_sim` runner, the probe CLI)
/// brackets each frame with [`begin_frame`](TraceSink::begin_frame) /
/// [`end_frame`](TraceSink::end_frame) so streaming backends can label
/// frames and flush on frame boundaries. A sink that is never bracketed
/// still works: [`JsonlFileSink`] opens an auto-numbered frame on the
/// first unbracketed `record`.
///
/// Sinks are deliberately infallible on the hot path: a backend failure
/// (e.g. a full disk) flips the sink into a dead state that counts every
/// subsequent event as dropped, and is surfaced afterwards through
/// [`io_error`](TraceSink::io_error).
pub trait TraceSink {
    /// Pre-sizes internal buffers for frames expected to carry up to
    /// `events` events each — the explicit half of the sinks' reuse
    /// contract. Drivers call this once before a frame loop; steady-state
    /// recording then reuses (never re-grows) the reserved storage. The
    /// default is a no-op for sinks with nothing to size.
    fn reserve(&mut self, events: usize) {
        let _ = events;
    }

    /// Marks the start of frame `frame` (driver-assigned index).
    fn begin_frame(&mut self, frame: u64) {
        let _ = frame;
    }

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// Marks the end of the current frame; streaming sinks flush here.
    fn end_frame(&mut self) {}

    /// Events accepted (recorded minus those refused after a backend
    /// failure; includes events later evicted by a bounded backend).
    fn events_recorded(&self) -> u64;

    /// Events lost: ring eviction, per-frame caps, or write failures.
    fn events_dropped(&self) -> u64;

    /// First unrecoverable backend error, if any. The sink drops all
    /// events after it.
    fn io_error(&self) -> Option<String> {
        None
    }
}

/// [`TraceSink`] over a bounded [`FrameTrace`] ring: in-memory capture
/// with oldest-first eviction and overflow counting.
#[derive(Debug)]
pub struct RingSink {
    trace: FrameTrace,
    recorded: u64,
}

impl RingSink {
    /// Ring sink holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            trace: FrameTrace::new(capacity),
            recorded: 0,
        }
    }

    /// The ring so far.
    pub fn trace(&self) -> &FrameTrace {
        &self.trace
    }

    /// Consumes the sink, handing the ring to the caller.
    pub fn into_trace(self) -> FrameTrace {
        self.trace
    }
}

impl TraceSink for RingSink {
    fn reserve(&mut self, events: usize) {
        self.trace.reserve(events);
    }

    fn record(&mut self, event: TraceEvent) {
        self.recorded += 1;
        self.trace.record(event);
    }

    fn events_recorded(&self) -> u64 {
        self.recorded
    }

    fn events_dropped(&self) -> u64 {
        self.trace.dropped() as u64
    }
}

/// Counts and discards every event.
#[derive(Debug, Default)]
pub struct NullSink {
    recorded: u64,
}

impl NullSink {
    /// A fresh discarding sink.
    pub fn new() -> Self {
        NullSink::default()
    }
}

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {
        self.recorded += 1;
    }

    fn events_recorded(&self) -> u64 {
        self.recorded
    }

    fn events_dropped(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// JSONL streaming sink
// ---------------------------------------------------------------------------

/// Closing statistics of a [`JsonlFileSink`] (see
/// [`finish`](JsonlFileSink::finish)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JsonlSinkSummary {
    /// Frames completed.
    pub frames: u64,
    /// Events written.
    pub events: u64,
    /// Events dropped (per-frame cap or write failure).
    pub dropped: u64,
    /// Total bytes the destination accepted (file or callback alike).
    pub bytes: u64,
}

/// A [`JsonlFileSink`] destination: writes one finished frame's block.
type FrameWriter<'a> = Box<dyn FnMut(u64, &str) -> std::io::Result<()> + Send + 'a>;

/// Streams [`TraceEvent`]s as JSON lines, one frame block at a time.
///
/// Each frame appears as a `{"frame_start":N}` line, the frame's event
/// lines (one externally-tagged [`TraceEvent`] object per line), and a
/// `{"frame_end":N,"events":K,"dropped":D}` line. At most one frame is
/// staged in memory — bounded by the per-frame event cap — and the staged
/// block goes to the destination on every frame boundary, so resident
/// memory stays constant over arbitrarily long sweeps.
///
/// The destination is a file ([`create`](JsonlFileSink::create)) or a
/// per-frame callback ([`from_fn`](JsonlFileSink::from_fn)). Both receive
/// the same bytes and the sink keeps the same counters for both, so a
/// trace streamed through a callback equals the file a direct run writes,
/// byte for byte. A destination that fails — a write error, or the
/// callback returning `Err` — turns the sink inert: the failed frame's
/// events and every later event count as dropped, and the error surfaces
/// through [`TraceSink::io_error`] and [`finish`](JsonlFileSink::finish).
pub struct JsonlFileSink<'a> {
    write_frame: FrameWriter<'a>,
    /// Lines of the open frame. Cleared, not freed, once the frame is
    /// written, so steady-state frames reuse its storage.
    staged: String,
    /// Event lines staged in the open frame.
    staged_events: u64,
    /// Events dropped from the open frame (its `frame_end` reports them).
    frame_dropped: u64,
    frame: Option<u64>,
    next_auto_frame: u64,
    frame_cap: usize,
    peak_staged_bytes: usize,
    frames: u64,
    events: u64,
    dropped: u64,
    bytes: u64,
    error: Option<String>,
}

impl JsonlFileSink<'static> {
    /// Creates (truncates) `path` and returns a sink writing each frame's
    /// block to it, with the default per-frame cap
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        Ok(JsonlFileSink::from_fn(move |_, text| {
            file.write_all(text.as_bytes())
                .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        }))
    }
}

impl<'a> JsonlFileSink<'a> {
    /// Nominal serialized bytes per event line, for [`TraceSink::reserve`].
    const NOMINAL_LINE_BYTES: usize = 48;

    /// A sink handing each finished frame to `write_frame(frame, text)`,
    /// where `text` is exactly the block [`create`](JsonlFileSink::create)
    /// would append to its file, each line `\n`-terminated. The default
    /// per-frame cap applies ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn from_fn(write_frame: impl FnMut(u64, &str) -> std::io::Result<()> + Send + 'a) -> Self {
        JsonlFileSink {
            write_frame: Box::new(write_frame),
            staged: String::new(),
            staged_events: 0,
            frame_dropped: 0,
            frame: None,
            next_auto_frame: 0,
            frame_cap: DEFAULT_TRACE_CAPACITY,
            peak_staged_bytes: 0,
            frames: 0,
            events: 0,
            dropped: 0,
            bytes: 0,
            error: None,
        }
    }

    /// Caps the events retained per frame (mirrors the ring bound; the
    /// overflow is counted as dropped). Zero is clamped to 1.
    pub fn with_frame_cap(mut self, cap: usize) -> Self {
        self.frame_cap = cap.max(1);
        self
    }

    /// Largest number of bytes ever staged in memory for one frame — the
    /// resident-memory high-water mark of the sink.
    pub fn peak_staged_bytes(&self) -> usize {
        self.peak_staged_bytes
    }

    /// Flushes any open frame and closes the sink, returning the final
    /// statistics (or the first destination error).
    pub fn finish(mut self) -> std::io::Result<JsonlSinkSummary> {
        self.end_frame();
        match self.error {
            Some(reason) => Err(std::io::Error::other(reason)),
            None => Ok(JsonlSinkSummary {
                frames: self.frames,
                events: self.events,
                dropped: self.dropped,
                bytes: self.bytes,
            }),
        }
    }

    /// Appends one line, which `write` renders, to the staged frame.
    fn stage_line(&mut self, write: impl FnOnce(&mut String) -> std::fmt::Result) {
        write(&mut self.staged).expect("writing to a String cannot fail");
        self.staged.push('\n');
        self.peak_staged_bytes = self.peak_staged_bytes.max(self.staged.len());
    }

    /// Opens frame `frame` (no frame may be open).
    fn open(&mut self, frame: u64) {
        self.frame = Some(frame);
        self.stage_line(|s| write!(s, "{{\"frame_start\":{frame}}}"));
    }
}

impl TraceSink for JsonlFileSink<'_> {
    /// Pre-sizes the staging buffer for frames of up to `events` lines
    /// (clamped to the per-frame cap): the larger of the high-water mark
    /// already observed and a nominal per-line estimate.
    fn reserve(&mut self, events: usize) {
        let want = self.peak_staged_bytes.max(
            events
                .min(self.frame_cap)
                .saturating_mul(Self::NOMINAL_LINE_BYTES),
        );
        self.staged.reserve(want.saturating_sub(self.staged.len()));
    }

    fn begin_frame(&mut self, frame: u64) {
        self.end_frame();
        if self.error.is_none() {
            self.open(frame);
        }
    }

    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        if self.frame.is_none() {
            self.open(self.next_auto_frame);
        }
        if self.staged_events < self.frame_cap as u64 {
            self.stage_line(|s| event.write_json(s));
            self.staged_events += 1;
            self.events += 1;
        } else {
            self.frame_dropped += 1;
            self.dropped += 1;
        }
    }

    fn end_frame(&mut self) {
        let Some(frame) = self.frame.take() else {
            return;
        };
        self.next_auto_frame = frame + 1;
        let (events, dropped) = (self.staged_events, self.frame_dropped);
        self.stage_line(|s| {
            write!(
                s,
                "{{\"frame_end\":{frame},\"events\":{events},\"dropped\":{dropped}}}"
            )
        });
        match (self.write_frame)(frame, &self.staged) {
            Ok(()) => {
                self.bytes += self.staged.len() as u64;
                self.frames += 1;
            }
            Err(e) => {
                // The frame never reached the destination: recount its
                // events as dropped.
                self.error = Some(e.to_string());
                self.dropped += self.staged_events;
                self.events -= self.staged_events;
            }
        }
        self.staged.clear();
        self.staged_events = 0;
        self.frame_dropped = 0;
    }

    fn events_recorded(&self) -> u64 {
        self.events
    }

    fn events_dropped(&self) -> u64 {
        self.dropped
    }

    fn io_error(&self) -> Option<String> {
        self.error.clone()
    }
}

// ---------------------------------------------------------------------------
// Serialisable sink selection
// ---------------------------------------------------------------------------

/// Declarative sink selection, serialisable into scenario JSON (carried
/// on `fdb_sim::MeasureSpec`; built per run by the measurement driver).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum TraceSinkSpec {
    /// No tracing (the default).
    #[default]
    Null,
    /// Bounded in-memory ring over the whole run; `None` capacity uses
    /// the PHY's configured per-frame ring capacity.
    Ring {
        /// Maximum events retained (oldest evicted).
        capacity: Option<usize>,
    },
    /// Streaming JSONL file capture.
    Jsonl {
        /// Output path.
        path: String,
        /// Per-frame event cap; `None` uses the PHY's configured ring
        /// capacity.
        frame_cap: Option<usize>,
    },
}

impl TraceSinkSpec {
    /// Convenience constructor for a JSONL capture.
    pub fn jsonl(path: impl Into<String>) -> Self {
        TraceSinkSpec::Jsonl {
            path: path.into(),
            frame_cap: None,
        }
    }

    /// `true` for [`TraceSinkSpec::Null`] — no sink should be attached.
    pub fn is_null(&self) -> bool {
        matches!(self, TraceSinkSpec::Null)
    }

    /// Builds the described sink. `default_capacity` fills the
    /// unspecified ring capacity / per-frame cap (drivers pass the PHY's
    /// configured trace ring capacity). A resolved capacity above
    /// [`MAX_TRACE_CAPACITY`] is refused with
    /// [`PhyError::InvalidConfig`] before anything is allocated or
    /// created; a file that cannot be created is a
    /// [`PhyError::TraceSink`].
    pub fn build(&self, default_capacity: usize) -> Result<Box<dyn TraceSink>, PhyError> {
        Ok(match self {
            TraceSinkSpec::Null => Box::new(NullSink::new()),
            TraceSinkSpec::Ring { capacity } => {
                let capacity = capacity.unwrap_or(default_capacity);
                check_capacity("trace.capacity", capacity)?;
                Box::new(RingSink::new(capacity))
            }
            TraceSinkSpec::Jsonl { path, frame_cap } => {
                let frame_cap = frame_cap.unwrap_or(default_capacity);
                check_capacity("trace.frame_cap", frame_cap)?;
                let sink = JsonlFileSink::create(path).map_err(|e| PhyError::TraceSink {
                    reason: e.to_string(),
                })?;
                Box::new(sink.with_frame_cap(frame_cap))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// JSONL parsing / validation
// ---------------------------------------------------------------------------

/// One parsed line of a [`JsonlFileSink`] file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// `{"frame_start":N}`
    FrameStart {
        /// Frame index.
        frame: u64,
    },
    /// `{"frame_end":N,"events":K,"dropped":D}`
    FrameEnd {
        /// Frame index.
        frame: u64,
        /// Events written for the frame.
        events: u64,
        /// Events dropped for the frame.
        dropped: u64,
    },
    /// A [`TraceEvent`] line.
    Event(TraceEvent),
}

/// Parses one line of a trace JSONL file (frame marker or event),
/// rejecting anything else with a descriptive message.
/// [`check_trace_stream`] applies it to every line of a file.
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    #[derive(Deserialize)]
    struct StartLine {
        frame_start: u64,
    }
    #[derive(Deserialize)]
    struct EndLine {
        frame_end: u64,
        events: u64,
        dropped: u64,
    }
    // Frame markers have a unique leading key; try them first so event
    // parsing only sees candidate event objects.
    if line.contains("\"frame_start\"") {
        if let Ok(s) = serde_json::from_str::<StartLine>(line) {
            return Ok(TraceLine::FrameStart {
                frame: s.frame_start,
            });
        }
    }
    if line.contains("\"frame_end\"") {
        if let Ok(e) = serde_json::from_str::<EndLine>(line) {
            return Ok(TraceLine::FrameEnd {
                frame: e.frame_end,
                events: e.events,
                dropped: e.dropped,
            });
        }
    }
    serde_json::from_str::<TraceEvent>(line)
        .map(TraceLine::Event)
        .map_err(|e| format!("not a trace event or frame marker ({e}): {line}"))
}

/// Frame and event counts of a trace that passed [`check_trace_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStreamCounts {
    /// Frames opened and closed.
    pub frames: u64,
    /// Event lines, all inside frames.
    pub events: u64,
}

/// Checks a whole trace JSONL text as [`JsonlFileSink`] frames it: every
/// line parses ([`parse_trace_line`]), every event line sits between a
/// `frame_start` and the `frame_end` of the same frame, frames do not
/// nest, the last frame is closed, and each `frame_end`'s `events` equals
/// the event lines since its `frame_start`. The error names the first
/// offending line (1-based). This is the validator behind the probe
/// CLI's `--validate-trace`.
pub fn check_trace_stream(text: &str) -> Result<TraceStreamCounts, String> {
    let mut counts = TraceStreamCounts {
        frames: 0,
        events: 0,
    };
    // The open frame and the event lines seen in it.
    let mut open: Option<(u64, u64)> = None;
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        lines = i + 1;
        let fail = |reason: String| Err(format!("line {lines}: {reason}"));
        match (parse_trace_line(line), open) {
            (Err(e), _) => return fail(e),
            (Ok(TraceLine::FrameStart { frame }), None) => open = Some((frame, 0)),
            (Ok(TraceLine::FrameStart { frame }), Some((outer, _))) => {
                return fail(format!("frame_start {frame} inside open frame {outer}"))
            }
            (Ok(TraceLine::Event(_)), Some((frame, n))) => open = Some((frame, n + 1)),
            (Ok(TraceLine::Event(_)), None) => return fail("event outside any frame".into()),
            (Ok(TraceLine::FrameEnd { frame, events, .. }), Some((start, n))) => {
                if frame != start {
                    return fail(format!("frame_end {frame} closes open frame {start}"));
                }
                if events != n {
                    return fail(format!(
                        "frame_end {frame} counts {events} events, {n} lines precede it"
                    ));
                }
                counts.frames += 1;
                counts.events += n;
                open = None;
            }
            (Ok(TraceLine::FrameEnd { frame, .. }), None) => {
                return fail(format!("frame_end {frame} with no open frame"))
            }
        }
    }
    match open {
        Some((frame, _)) => Err(format!("line {lines}: frame {frame} has no frame_end")),
        None => Ok(counts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut t = FrameTrace::new(3);
        for i in 0..5 {
            t.record(TraceEvent::Abort { sample: i });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Oldest evicted: samples 2, 3, 4 remain.
        let first = t.events().next().unwrap();
        assert_eq!(*first, TraceEvent::Abort { sample: 2 });
    }

    #[test]
    fn stage_labels_partition_events() {
        let mut t = FrameTrace::new(16);
        t.record(TraceEvent::TxChip { sample: 0, chip: 0, state: true });
        t.record(TraceEvent::RxChip { sample: 1, energy: 0.5, threshold: 0.4 });
        t.record(TraceEvent::FbBit { sample: 2, bit: true, margin: 0.1 });
        assert_eq!(t.stage_events("tx").count(), 1);
        assert_eq!(t.stage_events("rx").count(), 1);
        assert_eq!(t.stage_events("feedback").count(), 1);
        assert_eq!(t.stage_events("channel").count(), 0);
    }

    #[test]
    fn events_serialize_to_tagged_objects() {
        use serde::Serialize;
        let ev = TraceEvent::RxBlock { sample: 7, index: 1, ok: false };
        let v = ev.to_value();
        let obj = v.as_object().expect("tagged object");
        assert_eq!(obj.len(), 1);
        assert_eq!(obj[0].0, "RxBlock");
    }

    #[test]
    fn events_stream_as_their_trees() {
        use serde::Serialize;
        for ev in one_of_each() {
            assert_eq!(
                serde_json::to_string(&ev).unwrap(),
                serde_json::to_string(&ev.to_value()).unwrap()
            );
        }
    }

    /// One instance of every variant, with awkward float values.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TxChip { sample: 0, chip: 3, state: true },
            TraceEvent::Channel {
                sample: 1,
                source_power_w: 1.25e-7,
                env_a: 0.1,
                env_b: 3.0000000000000004,
            },
            TraceEvent::Sic {
                sample: 2,
                device: 'B',
                own_state: false,
                input: 0.5,
                output: Some(0.25),
            },
            TraceEvent::Sic {
                sample: 3,
                device: 'A',
                own_state: true,
                input: 0.5,
                output: None,
            },
            TraceEvent::RxLock { sample: 4, score: 0.71, peak_seen: 0.73 },
            TraceEvent::RxSyncReject {
                sample: 5,
                score: 0.64,
                sharpness: 1.01,
                reason: "peak_shape".into(),
            },
            TraceEvent::RxRearm { sample: 6, attempts: 2 },
            TraceEvent::RxChip { sample: 7, energy: 0.33, threshold: 0.3 },
            TraceEvent::RxBit { sample: 8, index: 11, bit: false },
            TraceEvent::RxBlock { sample: 9, index: 0, ok: true },
            TraceEvent::FbHalf { sample: 10, integral: -0.002 },
            TraceEvent::FbPilot { sample: 11, index: 4, margin: 0.07 },
            TraceEvent::FbPilotsChecked { sample: 12, verified: true },
            TraceEvent::FbBit { sample: 13, bit: true, margin: 0.125 },
            TraceEvent::Abort { sample: 14 },
            TraceEvent::Fault {
                sample: 15,
                kind: "noise_burst".into(),
                active: true,
            },
            TraceEvent::Fault {
                sample: 16,
                kind: "clock_drift".into(),
                active: false,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for ev in one_of_each() {
            let line = serde_json::to_string(&ev).expect("serializes");
            let back: TraceEvent = serde_json::from_str(&line)
                .unwrap_or_else(|e| panic!("{line} failed to parse back: {e}"));
            assert_eq!(back, ev, "round-trip changed {line}");
            // And through the line validator.
            assert_eq!(parse_trace_line(&line), Ok(TraceLine::Event(ev)));
        }
    }

    #[test]
    fn ring_sink_counts_recorded_and_dropped() {
        let mut sink = RingSink::new(3);
        for i in 0..5 {
            sink.record(TraceEvent::Abort { sample: i });
        }
        assert_eq!(sink.events_recorded(), 5);
        assert_eq!(sink.events_dropped(), 2);
        let trace = sink.into_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 2);
    }

    #[test]
    fn null_and_ring_sinks_count() {
        let mut null = NullSink::new();
        let mut ring = RingSink::new(8);
        for i in 0..4 {
            ring.begin_frame(i);
            null.record(TraceEvent::Abort { sample: i as usize });
            ring.record(TraceEvent::Abort { sample: i as usize });
            ring.end_frame();
        }
        assert_eq!(null.events_recorded(), 4);
        assert_eq!(null.events_dropped(), 0);
        assert_eq!(ring.events_recorded(), 4);
        assert_eq!(ring.events_dropped(), 0);
        assert_eq!(ring.trace().len(), 4);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fdb_trace_{}_{name}.jsonl", std::process::id()))
    }

    /// Drives one event stream through a file destination and then a
    /// callback destination under the same frame cap, returning each
    /// one's bytes and closing counters, file first. The callback also
    /// checks that each block it gets is labelled with its frame index.
    fn through_both(
        name: &str,
        cap: usize,
        drive: impl Fn(&mut JsonlFileSink<'_>),
    ) -> [(String, JsonlSinkSummary); 2] {
        let path = temp_path(name);
        let mut file = JsonlFileSink::create(&path).unwrap().with_frame_cap(cap);
        drive(&mut file);
        let file_summary = file.finish().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let mut streamed = String::new();
        let mut sink = JsonlFileSink::from_fn(|frame, text| {
            assert!(text.starts_with(&format!("{{\"frame_start\":{frame}}}\n")));
            streamed.push_str(text);
            Ok(())
        })
        .with_frame_cap(cap);
        drive(&mut sink);
        let streamed_summary = sink.finish().unwrap();
        [(written, file_summary), (streamed, streamed_summary)]
    }

    #[test]
    fn jsonl_sink_writes_framed_parseable_lines() {
        for (text, summary) in through_both("framed", DEFAULT_TRACE_CAPACITY, |sink| {
            sink.begin_frame(0);
            sink.record(TraceEvent::TxChip { sample: 0, chip: 0, state: true });
            sink.record(TraceEvent::Abort { sample: 9 });
            sink.end_frame();
            sink.begin_frame(1);
            sink.record(TraceEvent::RxRearm { sample: 3, attempts: 1 });
        }) {
            assert_eq!(summary.frames, 2, "finish closes the open frame");
            assert_eq!(summary.events, 3);
            assert_eq!(summary.dropped, 0);
            let lines: Vec<TraceLine> = text
                .lines()
                .map(|l| parse_trace_line(l).expect("valid line"))
                .collect();
            assert_eq!(
                lines,
                vec![
                    TraceLine::FrameStart { frame: 0 },
                    TraceLine::Event(TraceEvent::TxChip { sample: 0, chip: 0, state: true }),
                    TraceLine::Event(TraceEvent::Abort { sample: 9 }),
                    TraceLine::FrameEnd { frame: 0, events: 2, dropped: 0 },
                    TraceLine::FrameStart { frame: 1 },
                    TraceLine::Event(TraceEvent::RxRearm { sample: 3, attempts: 1 }),
                    TraceLine::FrameEnd { frame: 1, events: 1, dropped: 0 },
                ]
            );
            assert_eq!(summary.bytes, text.len() as u64);
        }
    }

    #[test]
    fn jsonl_sink_caps_events_per_frame_and_counts_drops() {
        // Bracketed and unbracketed (auto-numbered) frames cap alike.
        for bracketed in [true, false] {
            for (text, summary) in through_both("cap", 2, |sink| {
                if bracketed {
                    sink.begin_frame(0);
                }
                for i in 0..5 {
                    sink.record(TraceEvent::Abort { sample: i });
                }
                sink.end_frame();
                assert_eq!(sink.events_recorded(), 2);
                assert_eq!(sink.events_dropped(), 3);
            }) {
                assert_eq!((summary.frames, summary.events, summary.dropped), (1, 2, 3));
                assert_eq!(
                    text,
                    "{\"frame_start\":0}\n{\"Abort\":{\"sample\":0}}\n\
                     {\"Abort\":{\"sample\":1}}\n\
                     {\"frame_end\":0,\"events\":2,\"dropped\":3}\n",
                    "frame_end must report the drop count"
                );
            }
        }
    }

    #[test]
    fn jsonl_sink_auto_opens_frames_for_unbracketed_records() {
        for (text, summary) in through_both("auto", DEFAULT_TRACE_CAPACITY, |sink| {
            sink.record(TraceEvent::Abort { sample: 1 });
            sink.end_frame();
            sink.record(TraceEvent::Abort { sample: 2 });
        }) {
            assert_eq!(summary.frames, 2);
            assert!(text.contains("{\"frame_start\":0}"));
            assert!(text.contains("{\"frame_start\":1}"));
        }
    }

    #[test]
    fn jsonl_sink_memory_stays_bounded_by_frame_cap() {
        let path = temp_path("bounded");
        let mut sink = JsonlFileSink::create(&path).unwrap().with_frame_cap(4);
        for f in 0..200u64 {
            sink.begin_frame(f);
            for i in 0..50 {
                sink.record(TraceEvent::RxChip {
                    sample: i,
                    energy: 0.123456789,
                    threshold: 0.1,
                });
            }
            sink.end_frame();
        }
        // 4 retained events + 2 markers per frame, never more.
        let line = serde_json::to_string(&TraceEvent::RxChip {
            sample: 49,
            energy: 0.123456789,
            threshold: 0.1,
        })
        .unwrap();
        let generous_frame_bytes = (line.len() + 64) * (4 + 2);
        assert!(
            sink.peak_staged_bytes() <= generous_frame_bytes,
            "peak staged {} exceeds one frame's bound {}",
            sink.peak_staged_bytes(),
            generous_frame_bytes
        );
        assert_eq!(sink.events_recorded(), 200 * 4);
        assert_eq!(sink.events_dropped(), 200 * 46);
        sink.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_failure_counts_subsequent_events_as_dropped() {
        // After a failed frame the sink is inert: the lost frame is
        // recounted as dropped and every later event is dropped too.
        let assert_inert = |mut sink: JsonlFileSink<'_>| {
            assert_eq!(sink.events_recorded(), 0, "lost frame recounted as dropped");
            assert_eq!(sink.events_dropped(), 1);
            sink.begin_frame(1);
            sink.record(TraceEvent::Abort { sample: 1 });
            assert_eq!(sink.events_dropped(), 2, "inert sink keeps counting drops");
            assert!(sink.finish().is_err());
        };

        // A callback that refuses every frame fails the sink at once.
        let mut sink = JsonlFileSink::from_fn(|_, _| Err(std::io::Error::other("receiver gone")));
        sink.begin_frame(0);
        sink.record(TraceEvent::Abort { sample: 0 });
        sink.end_frame();
        assert_eq!(sink.io_error().as_deref(), Some("receiver gone"));
        assert_inert(sink);

        let dir = std::env::temp_dir().join(format!(
            "fdb_trace_dir_{}_failure",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let mut sink = JsonlFileSink::create(&path).unwrap();
        sink.begin_frame(0);
        sink.record(TraceEvent::Abort { sample: 0 });
        // Remove the file's directory under the open file.
        std::fs::remove_dir_all(&dir).unwrap();
        sink.end_frame();
        // Depending on the platform the write may still succeed (the fd
        // stays valid); the contract we can assert portably is that a
        // sink with an error drops instead of panicking.
        if sink.io_error().is_some() {
            assert_inert(sink);
        } else {
            sink.finish().ok();
        }
    }

    #[test]
    fn callback_destination_matches_file_bytes_and_counters() {
        // The same event stream through a file and a callback (same frame
        // cap) gives byte-identical text and equal counters, including
        // the cap-overflow frame.
        let events = one_of_each();
        let [(written, file), (streamed, callback)] = through_both("callback_match", 3, |sink| {
            for (f, chunk) in events.chunks(5).enumerate() {
                sink.begin_frame(f as u64);
                for ev in chunk {
                    sink.record(ev.clone());
                }
                sink.end_frame();
            }
        });
        assert_eq!(streamed, written, "streamed bytes differ from file bytes");
        assert_eq!(callback, file);
        assert_eq!((file.frames, file.events, file.dropped), (4, 11, 6));
        assert_eq!(file.bytes, written.len() as u64);
    }

    #[test]
    fn sink_spec_round_trips_and_builds() {
        let specs = [
            TraceSinkSpec::Null,
            TraceSinkSpec::Ring { capacity: Some(7) },
            TraceSinkSpec::Ring { capacity: None },
            TraceSinkSpec::Jsonl {
                path: temp_path("spec").display().to_string(),
                frame_cap: Some(1024),
            },
        ];
        for spec in &specs {
            let json = serde_json::to_string(spec).unwrap();
            let back: TraceSinkSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, spec, "{json}");
            let mut sink = spec.build(16).unwrap();
            sink.record(TraceEvent::Abort { sample: 0 });
            assert!(sink.events_recorded() <= 1);
        }
        assert!(TraceSinkSpec::Null.is_null());
        assert!(!TraceSinkSpec::Ring { capacity: None }.is_null());
        std::fs::remove_file(temp_path("spec")).ok();
    }

    #[test]
    fn sink_spec_refuses_capacities_above_the_bound() {
        let path = temp_path("over_cap");
        let over = MAX_TRACE_CAPACITY + 1;
        let refused = [
            (
                TraceSinkSpec::Ring {
                    capacity: Some(1 << 50),
                },
                16,
            ),
            (TraceSinkSpec::Ring { capacity: None }, over),
            (
                TraceSinkSpec::Jsonl {
                    path: path.display().to_string(),
                    frame_cap: Some(over),
                },
                16,
            ),
            (
                TraceSinkSpec::Jsonl {
                    path: path.display().to_string(),
                    frame_cap: None,
                },
                over,
            ),
        ];
        for (spec, default_capacity) in &refused {
            let err = spec.build(*default_capacity).err();
            assert!(
                matches!(err, Some(PhyError::InvalidConfig { .. })),
                "{spec:?} over {default_capacity}: {err:?}"
            );
        }
        assert!(!path.exists(), "a refused spec must not create its file");
        let at_bound = TraceSinkSpec::Ring {
            capacity: Some(MAX_TRACE_CAPACITY),
        };
        assert!(at_bound.build(16).is_ok());
    }

    #[test]
    fn jsonl_sink_reuses_frame_storage() {
        // After the first frame is written, staging identical frames
        // never grows the staging buffer again.
        let mut sink = JsonlFileSink::from_fn(|_, _| Ok(()));
        let frame = |sink: &mut JsonlFileSink<'_>, f: u64| {
            sink.begin_frame(f);
            for i in 0..32 {
                sink.record(TraceEvent::RxChip {
                    sample: i,
                    energy: 0.123456789,
                    threshold: 0.1,
                });
            }
            sink.end_frame();
        };
        frame(&mut sink, 0);
        let cap_after_warmup = sink.staged.capacity();
        for f in 1..50 {
            frame(&mut sink, f);
        }
        assert_eq!(
            sink.staged.capacity(),
            cap_after_warmup,
            "steady-state frames must reuse the staging buffer"
        );
        sink.finish().unwrap();
    }

    #[test]
    fn reserve_presizes_every_sink_backend() {
        let mut ring = RingSink::new(8);
        ring.reserve(1000); // clamped to the ring bound
        let cap = ring.trace().events.capacity();
        assert!((8..1000).contains(&cap), "ring reserved {cap}");
        let path = temp_path("reserve");
        let mut jsonl = JsonlFileSink::create(&path).unwrap();
        jsonl.reserve(100);
        let reserved = jsonl.staged.capacity();
        assert!(reserved >= 100 * 48, "jsonl sink reserved {reserved}");
        jsonl.begin_frame(0);
        jsonl.record(TraceEvent::Abort { sample: 0 });
        jsonl.end_frame();
        jsonl.finish().unwrap();
        std::fs::remove_file(&path).ok();
        // NullSink takes the default no-op without panicking.
        NullSink::new().reserve(10);
    }

    #[test]
    fn parse_trace_line_rejects_garbage() {
        assert!(parse_trace_line("not json").is_err());
        assert!(parse_trace_line("{\"Unknown\":{}}").is_err());
        assert!(parse_trace_line("{\"frame_start\":\"x\"}").is_err());
        assert_eq!(
            parse_trace_line("{\"frame_end\":3,\"events\":10,\"dropped\":1}"),
            Ok(TraceLine::FrameEnd { frame: 3, events: 10, dropped: 1 })
        );
    }

    #[test]
    fn check_trace_stream_enforces_framing() {
        let start = |f: u64| format!("{{\"frame_start\":{f}}}");
        let end = |f: u64, n: u64| format!("{{\"frame_end\":{f},\"events\":{n},\"dropped\":0}}");
        let ev = "{\"Abort\":{\"sample\":1}}".to_string();
        let good = [
            start(0),
            ev.clone(),
            ev.clone(),
            end(0, 2),
            start(1),
            end(1, 0),
        ]
        .join("\n");
        assert_eq!(
            check_trace_stream(&good),
            Ok(TraceStreamCounts {
                frames: 2,
                events: 2
            })
        );
        assert_eq!(
            check_trace_stream(""),
            Ok(TraceStreamCounts {
                frames: 0,
                events: 0
            })
        );

        let broken = [
            (
                "missing frame_end",
                vec![start(0), ev.clone()],
                "line 2: frame 0 has no frame_end",
            ),
            (
                "nested frame_start",
                vec![start(0), start(1), end(1, 0), end(0, 0)],
                "line 2: frame_start 1 inside open frame 0",
            ),
            (
                "event outside a frame",
                vec![ev.clone()],
                "line 1: event outside any frame",
            ),
            (
                "event between frames",
                vec![start(0), end(0, 0), ev.clone(), start(1), end(1, 0)],
                "line 3: event outside any frame",
            ),
            (
                "frame_end count differs",
                vec![start(0), ev.clone(), end(0, 2)],
                "line 3: frame_end 0 counts 2 events, 1 lines precede it",
            ),
            (
                "frame_end of another frame",
                vec![start(0), end(1, 0)],
                "line 2: frame_end 1 closes open frame 0",
            ),
            (
                "frame_end alone",
                vec![end(0, 0)],
                "line 1: frame_end 0 with no open frame",
            ),
        ];
        for (case, lines, want) in broken {
            assert_eq!(
                check_trace_stream(&lines.join("\n")),
                Err(want.to_string()),
                "{case}"
            );
        }
        let garbage = check_trace_stream(&[start(0), "not json".into()].join("\n")).unwrap_err();
        assert!(
            garbage.starts_with("line 2: not a trace event"),
            "{garbage}"
        );
    }
}
