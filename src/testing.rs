//! Helpers for exercising the frame-trace diagnostics layer in tests and
//! ad-hoc debugging.
//!
//! The typical loop while root-causing a failure:
//!
//! 1. [`seeded_frame_trace`] reproduces one frame deterministically and
//!    captures its events in a ring;
//! 2. [`trace_jsonl`] turns the trace into grep-able JSON lines;
//! 3. narrow by stage with [`FrameTrace::stage_events`] and compare a
//!    failing seed against a passing one.
//!
//! Capturing events needs an engine that traces (a build with
//! `--features fdb-core/trace`); elsewhere [`seeded_frame_trace`] returns
//! [`PhyError::TraceSink`], and [`traced_or_refused`] checks whichever
//! contract the build has.

use fdb_core::link::{FdLink, FrameOutcome, FrameRun, LinkConfig, RunOptions};
use fdb_core::trace::{FrameTrace, RingSink, ENABLED};
use fdb_core::PhyError;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs one deterministic frame over `cfg` and returns its outcome (whose
/// [`FrameOutcome::ring_trace`] holds the frame's events when the engine
/// traces). The payload is a fixed `i % 251` ramp so a given
/// `(cfg, seed, payload_len)` triple always replays identically — the same
/// contract the `probe` CLI uses.
pub fn run_seeded_frame(
    cfg: LinkConfig,
    seed: u64,
    payload_len: usize,
    opts: &RunOptions,
) -> FrameOutcome {
    run_seeded(cfg, seed, payload_len, opts, FrameRun::clean()).expect("frame runs")
}

/// Like [`run_seeded_frame`], with the frame's events streamed into a
/// caller-owned ring of the config's trace capacity (what `probe replay`
/// prints).
pub fn seeded_frame_trace(
    cfg: LinkConfig,
    seed: u64,
    payload_len: usize,
    opts: &RunOptions,
) -> Result<(FrameOutcome, FrameTrace), PhyError> {
    let mut ring = RingSink::new(cfg.phy.trace_ring_capacity());
    let run = FrameRun::clean().with_sink(&mut ring);
    let out = run_seeded(cfg, seed, payload_len, opts, run)?;
    Ok((out, ring.into_trace()))
}

fn run_seeded(
    cfg: LinkConfig,
    seed: u64,
    payload_len: usize,
    opts: &RunOptions,
    run: FrameRun<'_>,
) -> Result<FrameOutcome, PhyError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut link = FdLink::new(cfg, &mut rng).expect("valid link config");
    let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
    link.run_frame_with(&payload, opts, &mut rng, run)
}

/// The result of a traced request when the engine traces ([`ENABLED`]);
/// otherwise `None`, after asserting the request was refused with
/// [`PhyError::TraceSink`].
pub fn traced_or_refused<T>(res: Result<T, PhyError>) -> Option<T> {
    if ENABLED {
        return Some(res.expect("a tracing engine accepts the sink"));
    }
    assert!(
        matches!(res, Err(PhyError::TraceSink { .. })),
        "an engine that cannot trace must refuse the sink"
    );
    None
}

/// Serialises every trace event to one JSON line (the probe CLI format).
pub fn trace_jsonl(trace: &FrameTrace) -> Vec<String> {
    trace
        .events()
        .map(|ev| serde_json::to_string(ev).expect("trace event serializes"))
        .collect()
}
