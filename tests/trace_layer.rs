//! Integration tests for the frame-trace diagnostics layer.
//!
//! Every test checks the contract of the build it runs in: with
//! `--features fdb-core/trace` the frame's events are captured and
//! asserted on; without it, the capture request must be refused with
//! `PhyError::TraceSink`.

use fd_backscatter::phy::trace::{parse_trace_line, FrameTrace, TraceLine};
use fd_backscatter::phy::hash::ContentHash;
use fd_backscatter::prelude::*;
use fd_backscatter::sim::FaultPlan;
use fd_backscatter::testing::{seeded_frame_trace, trace_jsonl, traced_or_refused};
use rand::SeedableRng;

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
    // A caller-owned ring receives events from every stage of a clean
    // full-duplex frame, and the traced frame (reference engine) has the
    // outcome of the same frame run untraced (block engine).
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let mut link = FdLink::new(quiet_cfg(), &mut rng).unwrap();
    let payload: Vec<u8> = (0..64).map(|i| (i % 251) as u8).collect();
    let plain = link
        .run_frame(&payload, &RunOptions::fd_monitor(), &mut rng)
        .unwrap();
    assert!(plain.fully_delivered(), "clean FD frame must deliver");
    let Some((out, ring)) = traced_frame(11, 64, &RunOptions::fd_monitor()) else {
        return; // refused, as `traced_or_refused` checked
    };
    for stage in ["tx", "channel", "sic", "rx", "feedback"] {
        assert!(
            ring.stage_events(stage).next().is_some(),
            "no `{stage}` events in a full-duplex frame trace"
        );
    }
    assert_eq!(ring.dropped(), 0);
    assert_eq!(
        format!("{out:?}"),
        format!("{plain:?}"),
        "tracing changed the outcome"
    );
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

/// The JSONL trace stream of one seeded frame: the bytes the JSONL sink
/// hands its destination for it (here a callback collecting them; a file
/// destination gets the same bytes).
fn trace_stream(cfg: &LinkConfig, spec: &MeasureSpec) -> Option<String> {
    use fd_backscatter::phy::trace::JsonlFileSink;
    let mut text = String::new();
    let mut sink = JsonlFileSink::from_fn(|_, block| {
        text.push_str(block);
        Ok(())
    })
    .with_frame_cap(cfg.phy.trace_ring_capacity());
    let res = run_link(cfg, spec, LinkRun::new().with_sink(&mut sink));
    let metrics = traced_or_refused(res)?;
    let summary = sink.finish().expect("callback destination never fails");
    assert_eq!((metrics.frames, summary.frames), (1, 1));
    assert_eq!(summary.bytes, text.len() as u64);
    Some(text)
}

#[test]
fn seeded_trace_streams_match_pinned_hashes() {
    // A full-duplex frame with two fault windows opening and closing
    // inside it, and a half-duplex frame. The pins fix every event, field
    // and float of both streams.
    let plan: FaultPlan = serde_json::from_str(
        r#"{"seed":3,"faults":[
            {"frame":0,"start_sample":0,"duration_samples":640,
             "kind":{"Interferer":{"power_dbm":-68.0,"period_samples":20}}},
            {"frame":0,"start_sample":2000,"duration_samples":1500,
             "kind":{"NoiseBurst":{"power_dbm":-80.0,"target":"B"}}}]}"#,
    )
    .expect("plan parses");
    let one = |seed, feedback_probe| MeasureSpec {
        frames: 1,
        payload_len: 32,
        seed,
        feedback_probe,
        ..MeasureSpec::default()
    };
    let cfg = LinkConfig::default_fd();
    let fd = trace_stream(&cfg, &one(7, Some(false)).with_faults(plan));
    let hd = trace_stream(&cfg, &one(8, None));
    let (Some(fd), Some(hd)) = (fd, hd) else {
        return; // both requests were refused, as `traced_or_refused` checked
    };
    assert!(fd.contains("{\"Fault\":") && fd.contains("{\"FbBit\":"), "{fd}");
    assert!(hd.contains("{\"RxBlock\":") && !hd.contains("{\"FbHalf\":"), "{hd}");
    let hash = |text: &str| ContentHash::of_bytes(text.as_bytes()).to_hex();
    assert_eq!(hash(&fd), "0109a4f083910959ff132999ae292bd6", "full-duplex stream moved");
    assert_eq!(hash(&hd), "649437b85282af64c8f40e4e6069ad60", "half-duplex stream moved");
}
