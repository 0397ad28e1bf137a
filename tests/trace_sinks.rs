//! Integration tests for the streaming trace-sink subsystem: the
//! acceptance bar is a 10,000-frame `parallel_sweep` with one JSONL sink
//! per point, whose resident trace memory stays bounded by the per-frame
//! ring capacity while the point files carry every frame in order.
//!
//! Tests that drive the engine check the contract of the build they run
//! in: with `--features fdb-core/trace` the events are captured; without
//! it `run_link` refuses the sink with `PhyError::TraceSink` before any
//! frame runs or any file is created.

use fd_backscatter::phy::trace::{
    parse_trace_line, JsonlFileSink, TraceLine, TraceSinkSpec, ENABLED,
};
use fd_backscatter::prelude::*;
use fd_backscatter::sim::runner::derive_seed;
use fd_backscatter::sim::{parallel_sweep, MeasureSpec};
use fd_backscatter::testing::traced_or_refused;

/// The cheapest frame the PHY supports: CW carrier, near-noiseless field,
/// minimum samples per chip, one payload byte, half-duplex (no feedback
/// tail), tiny configured trace ring.
fn cheap_cfg() -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.ambient = fd_backscatter::ambient::AmbientConfig::Cw;
    cfg.field_noise_dbm = -160.0;
    cfg.phy.samples_per_chip = 4;
    cfg.phy.trace_capacity = Some(64);
    cfg
}

#[test]
fn ten_thousand_frame_sweep_streams_all_frames_in_order_with_bounded_memory() {
    const POINTS: usize = 40;
    const FRAMES_PER_POINT: u64 = 250;
    let cfg = cheap_cfg();
    let frame_cap = cfg.phy.trace_ring_capacity();
    let part = |p: u64| {
        std::env::temp_dir().join(format!(
            "fdb_trace_sinks_10k_{}.part{p}.jsonl",
            std::process::id()
        ))
    };

    // One sink per point, keyed to the point (not the worker), so the
    // files read back in point order are independent of scheduling.
    let points: Vec<u64> = (0..POINTS as u64).collect();
    let results = parallel_sweep(&points, 8, |&p| {
        let mut sink = JsonlFileSink::create(part(p))
            .expect("part file")
            .with_frame_cap(frame_cap);
        let spec = MeasureSpec {
            frames: FRAMES_PER_POINT,
            payload_len: 1,
            seed: derive_seed(99, p),
            feedback_probe: None,
            trace: Default::default(),
            faults: None,
        };
        let run = LinkRun::new().with_sink(&mut sink);
        let metrics = traced_or_refused(run_link(&cfg, &spec, run));
        let peak = sink.peak_staged_bytes();
        let summary = sink.finish().expect("sink closes");
        metrics.map(|m| (m, peak, summary.frames))
    });
    let text: String = points
        .iter()
        .map(|&p| {
            let text = std::fs::read_to_string(part(p)).expect("part file exists");
            std::fs::remove_file(part(p)).ok();
            text
        })
        .collect();
    if !ENABLED {
        assert!(results.iter().all(Option::is_none));
        assert!(text.is_empty(), "a refused sink must stay empty");
        return;
    }

    assert_eq!(results.len(), POINTS);
    // Resident trace memory: each point's sink never staged more than one
    // ring-capacity frame (generous 300 bytes per event line + markers).
    let staged_bound = 300 * (frame_cap + 2);
    for (metrics, peak, frames) in results.iter().flatten() {
        assert_eq!(metrics.frames, FRAMES_PER_POINT);
        assert_eq!(*frames, FRAMES_PER_POINT);
        assert!(
            *peak <= staged_bound,
            "sink staged {peak} bytes; per-frame bound is {staged_bound}"
        );
        // The cap bit: real frames emit far more events than the tiny ring
        // admits, so the sink must be dropping (not buffering) the excess.
        assert!(metrics.trace_events <= FRAMES_PER_POINT * frame_cap as u64);
        assert!(metrics.trace_dropped > 0, "tiny cap never overflowed");
    }

    // The point files in point order: every frame present, with frame
    // indices restarting 0..FRAMES_PER_POINT per point, and events inside
    // every frame.
    let (mut frames_seen, mut expected_frame, mut events_in_frame) = (0u64, 0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        match parse_trace_line(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1)) {
            TraceLine::FrameStart { frame } => {
                assert_eq!(
                    frame,
                    expected_frame % FRAMES_PER_POINT,
                    "frame order broken at line {}",
                    i + 1
                );
                events_in_frame = 0;
            }
            TraceLine::Event(_) => events_in_frame += 1,
            TraceLine::FrameEnd { frame, events, .. } => {
                assert_eq!(frame, expected_frame % FRAMES_PER_POINT);
                assert_eq!(events, events_in_frame, "frame_end event count lies");
                assert!(events > 0, "frame {frame} recorded no events");
                expected_frame += 1;
                frames_seen += 1;
            }
        }
    }
    assert_eq!(
        frames_seen,
        POINTS as u64 * FRAMES_PER_POINT,
        "the point files must contain every frame of the sweep"
    );
}

#[test]
fn ring_spec_only_adds_trace_counters() {
    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = 0.8; // lossy: exercises the failure capture
    let spec = MeasureSpec {
        frames: 5,
        payload_len: 32,
        seed: 21,
        feedback_probe: Some(false),
        trace: Default::default(),
        faults: None,
    };
    let new_path = run_link(&cfg, &spec, LinkRun::new()).unwrap();

    // A live sink only adds the trace counters — every PHY-level metric
    // stays identical.
    let ring = spec.clone().with_trace(TraceSinkSpec::Ring { capacity: Some(32) });
    let Some(traced) = traced_or_refused(run_link(&cfg, &ring, LinkRun::new())) else {
        return;
    };
    assert!(traced.trace_events > 0);
    assert_eq!(traced.frames, new_path.frames);
    assert_eq!(traced.fully_delivered, new_path.fully_delivered);
    assert_eq!(traced.locked, new_path.locked);
    assert_eq!(traced.blocks_ok, new_path.blocks_ok);
    assert_eq!(traced.airtime_samples, new_path.airtime_samples);
    assert_eq!(traced.elapsed_samples, new_path.elapsed_samples);
    assert_eq!(traced.data_ber.errors(), new_path.data_ber.errors());
    assert_eq!(traced.sync_attempts, new_path.sync_attempts);
}

/// Negative path: a frame that overflows the per-frame event cap. The
/// cap must drop (not buffer) the excess, the frame_end marker must
/// confess the drop count, and the next frame must start clean, with no
/// event lost or double-counted across the seam.
#[test]
fn event_cap_overflow_does_not_taint_the_next_frame() {
    use fd_backscatter::phy::trace::{TraceEvent, TraceSink};

    let path =
        std::env::temp_dir().join(format!("fdb_trace_sinks_cap_{}.jsonl", std::process::id()));
    let mut sink = JsonlFileSink::create(&path).unwrap().with_frame_cap(4);

    let fault_event = |sample: usize| TraceEvent::Fault {
        sample,
        kind: "noise_burst".into(),
        active: sample.is_multiple_of(2),
    };

    // Frame 0: 10 events against a cap of 4 — 6 dropped at the cap.
    sink.begin_frame(0);
    for i in 0..10 {
        sink.record(fault_event(i));
    }
    sink.end_frame();
    assert_eq!(sink.events_recorded(), 4, "cap must admit exactly 4 events");
    assert_eq!(sink.events_dropped(), 6, "cap must drop the excess");
    assert!(sink.io_error().is_none());

    // Frame 1 must be untainted by frame 0's drop accounting.
    sink.begin_frame(1);
    sink.record(fault_event(100));
    sink.end_frame();

    let summary = sink.finish().unwrap();
    assert_eq!(summary.frames, 2);
    assert_eq!(summary.events, 5);
    assert_eq!(summary.dropped, 6);

    // Each frame's markers are intact and its frame_end counts agree.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let ends: Vec<_> = text
        .lines()
        .filter_map(|line| match parse_trace_line(line).expect("valid line") {
            TraceLine::FrameEnd {
                frame,
                events,
                dropped,
            } => Some((frame, events, dropped)),
            _ => None,
        })
        .collect();
    assert_eq!(ends, vec![(0, 4, 6), (1, 1, 0)]);
    assert_eq!(summary.bytes, text.len() as u64);
}

#[test]
fn jsonl_spec_through_run_link_round_trips_every_event() {
    let path = std::env::temp_dir().join(format!(
        "fdb_trace_sinks_rt_{}.jsonl",
        std::process::id()
    ));
    let mut cfg = cheap_cfg();
    cfg.phy.trace_capacity = None; // full frames: no drops expected
    let spec = MeasureSpec {
        frames: 3,
        payload_len: 8,
        seed: 4,
        feedback_probe: Some(false),
        trace: TraceSinkSpec::jsonl(path.display().to_string()),
        faults: None,
    };
    let _ = std::fs::remove_file(&path);
    let Some(metrics) = traced_or_refused(run_link(&cfg, &spec, LinkRun::new())) else {
        assert!(!path.exists(), "a refused run must not create the trace file");
        return;
    };
    assert!(metrics.trace_events > 0);
    assert_eq!(metrics.trace_dropped, 0, "uncapped sink must not drop");

    let text = std::fs::read_to_string(&path).unwrap();
    let mut events = 0u64;
    for line in text.lines() {
        if let TraceLine::Event(_) = parse_trace_line(line).expect("valid line") {
            events += 1;
        }
    }
    assert_eq!(events, metrics.trace_events, "file events ≠ metric counter");
    std::fs::remove_file(&path).ok();
}
