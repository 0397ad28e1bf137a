//! Integration tests for the frame-trace diagnostics layer.
//!
//! Every test checks the contract of the build it runs in: with
//! `--features fdb-core/trace` the frame's events are captured and
//! asserted on; without it, the capture request must be refused with
//! `PhyError::TraceSink`.

use fd_backscatter::phy::trace::{parse_trace_line, FrameTrace, TraceLine};
use fd_backscatter::prelude::*;
use fd_backscatter::testing::{
    run_seeded_frame, seeded_frame_trace, trace_jsonl, traced_or_refused,
};

fn quiet_cfg() -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.ambient = fd_backscatter::ambient::AmbientConfig::Cw;
    cfg.field_noise_dbm = -160.0;
    cfg
}

/// One seeded frame and its ring trace, if the engine traces.
fn traced_frame(seed: u64, len: usize, opts: &RunOptions) -> Option<(FrameOutcome, FrameTrace)> {
    traced_or_refused(seeded_frame_trace(quiet_cfg(), seed, len, opts))
}

#[test]
fn fd_frame_trace_covers_every_stage() {
    // With no sink attached, a tracing engine fills the outcome's own ring
    // with the events a caller-owned ring receives; any other engine has
    // no outcome ring.
    let out = run_seeded_frame(quiet_cfg(), 11, 64, &RunOptions::fd_monitor());
    assert!(out.fully_delivered(), "clean FD frame must deliver");
    let Some((_, ring)) = traced_frame(11, 64, &RunOptions::fd_monitor()) else {
        assert!(out.ring_trace().is_none(), "untraced engine has an outcome ring");
        return;
    };
    let own = out.ring_trace().expect("no outcome ring");
    for stage in ["tx", "channel", "sic", "rx", "feedback"] {
        assert!(
            own.stage_events(stage).next().is_some(),
            "no `{stage}` events in a full-duplex frame trace"
        );
    }
    let caller_ring_agrees = own.events().eq(ring.events());
    assert!(caller_ring_agrees, "outcome and caller-owned rings differ");
}

#[test]
fn half_duplex_trace_has_no_feedback_events() {
    let Some((out, trace)) = traced_frame(12, 32, &RunOptions::half_duplex()) else {
        return;
    };
    assert!(out.fully_delivered());
    assert_eq!(
        trace.stage_events("feedback").count(),
        0,
        "half-duplex frames must not record feedback-decode events"
    );
    assert!(trace.stage_events("rx").next().is_some());
}

#[test]
fn trace_is_deterministic_for_a_seed() {
    let a = traced_frame(13, 48, &RunOptions::fd_monitor());
    let b = traced_frame(13, 48, &RunOptions::fd_monitor());
    let (Some((_, a)), Some((_, b))) = (a, b) else {
        return;
    };
    let ea: Vec<_> = a.events().collect();
    let eb: Vec<_> = b.events().collect();
    assert_eq!(ea, eb, "same seed must replay an identical trace");
}

#[test]
fn trace_serialises_to_jsonl_and_tags_stages() {
    let Some((_, trace)) = traced_frame(14, 32, &RunOptions::fd_monitor()) else {
        return;
    };
    let lines = trace_jsonl(&trace);
    assert_eq!(lines.len(), trace.len());
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("trace line is not valid JSON ({e:?}): {line}"));
        drop(v);
        assert!(line.contains("\"sample\""), "no sample field: {line}");
    }
}

#[test]
fn observer_captures_first_failing_frame_trace() {
    // At a marginal distance some frames fail; an observer attachment
    // names the first one that did, and its events are the block between
    // that frame's markers in the run's JSONL trace.
    let path = std::env::temp_dir().join(format!(
        "fdb_trace_layer_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = 0.8; // far: reliably lossy
    let spec = MeasureSpec {
        frames: 6,
        ..MeasureSpec::quick(5).with_trace(TraceSinkSpec::jsonl(path.display().to_string()))
    };
    let mut first_failure: Option<u64> = None;
    let mut observe = |i: u64, out: &FrameOutcome| {
        if first_failure.is_none() && !out.fully_delivered() {
            first_failure = Some(i);
        }
    };
    let res = run_link(&cfg, &spec, LinkRun::new().with_observe(&mut observe));
    let Some(metrics) = traced_or_refused(res) else {
        assert!(!path.exists(), "a refused run must not create the trace file");
        return;
    };
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(first_failure.is_some(), metrics.fully_delivered < metrics.frames);
    let Some(failed) = first_failure else { return };
    let mut frame = None;
    let events = text
        .lines()
        .filter(|line| match parse_trace_line(line).expect("valid trace line") {
            TraceLine::FrameStart { frame: f } => {
                frame = Some(f);
                false
            }
            TraceLine::Event(_) => frame == Some(failed),
            _ => false,
        })
        .count();
    assert!(events > 0, "the failing frame's trace is empty");
}
