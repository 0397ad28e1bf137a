//! `link_locked` and `link_sweep`: batch `run_link` calls on the bundled
//! link configs, timed per call and per frame from the outside.

use crate::probe::SpeedTrack;
use crate::replay::{ReplayLink, StageClock, STAGES};
use crate::spans::Spans;
use crate::stats::{median, min_samples_for, percentile};
use crate::{Ctx, Report};
use fdb_core::hash::canonical_json;
use fdb_core::link::{FdLink, FrameOutcome, LinkConfig};
use fdb_core::seed::derive_seed;
use fdb_dsp::prbs::{Prbs, PrbsOrder};
use fdb_sim::{run_link, LinkMetrics, LinkRun, MeasureSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;
use serde_json::Value;
use std::time::Instant;

/// Frames per `run_link` call. `default_link` tags are unpowered at 1 km
/// and their 50 µJ store runs dry near frame 108, after which every frame
/// hunts on a dead link; 50 frames keep both workloads clear of that.
const CALL_FRAMES: u64 = 50;
/// Device separations of the sweep: 0.3 m locks every frame, 2.4 m never.
const SWEEP_DIST_M: [f64; 8] = [0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4];
const SWEEP_FRAMES: u64 = 25;
/// `near_tower` locks all but about one frame in a thousand.
const LOCKED_MIN_LOCK_RATIO: f64 = 0.99;
/// Frames the stage replay runs per link (per sweep point on the sweep).
const REPLAY_FRAMES_LOCKED: usize = 40;
const REPLAY_FRAMES_SWEEP: usize = 5;
/// Timed `FdLink::new` builds and empty `run_link` calls in a traced run.
const LINK_NEW_REPS: usize = 21;

/// A bundled scenario file: `{ "link": <LinkConfig>, "spec": <MeasureSpec> }`.
#[derive(Deserialize)]
pub struct ScenarioFile {
    pub link: LinkConfig,
    pub spec: MeasureSpec,
}

/// Reads and parses a scenario file (relative to the repository root).
pub fn load_scenario(path: &str) -> Result<ScenarioFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
}

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Locked,
    Sweep,
}

impl Kind {
    fn config_file(self) -> &'static str {
        match self {
            Kind::Locked => "configs/near_tower.json",
            Kind::Sweep => "configs/default_link.json",
        }
    }
}

/// One `run_link` call: the point's index in the pass, its config and spec.
struct Unit {
    point: usize,
    cfg: LinkConfig,
    spec: MeasureSpec,
}

/// The calls of pass `pass` under master seed `seed`: one call on the
/// locked link, one per distance on the sweep.
fn plan(kind: Kind, base: &ScenarioFile, seed: u64, pass: u64) -> Vec<Unit> {
    let spec = |frames, index| MeasureSpec {
        frames,
        payload_len: base.spec.payload_len,
        seed: derive_seed(seed, index),
        feedback_probe: Some(false),
        ..MeasureSpec::default()
    };
    match kind {
        Kind::Locked => vec![Unit {
            point: 0,
            cfg: base.link.clone(),
            spec: spec(CALL_FRAMES, pass),
        }],
        Kind::Sweep => SWEEP_DIST_M
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let mut cfg = base.link.clone();
                cfg.geometry.device_dist_m = d;
                Unit {
                    point: j,
                    cfg,
                    spec: spec(SWEEP_FRAMES, pass * SWEEP_DIST_M.len() as u64 + j as u64),
                }
            })
            .collect(),
    }
}

fn points(kind: Kind) -> usize {
    match kind {
        Kind::Locked => 1,
        Kind::Sweep => SWEEP_DIST_M.len(),
    }
}

/// Checks one call's metrics against the workload's premises; returns the
/// first violation.
fn check_call(unit: &Unit, m: &LinkMetrics) -> Option<String> {
    if m.frames != unit.spec.frames {
        return Some(format!("ran {} of {} frames", m.frames, unit.spec.frames));
    }
    let store = unit.cfg.tag_a.harvester.initial_j;
    if m.energy_a_j >= store {
        return Some(format!(
            "tag A spent {:.3e} J ≥ its {:.3e} J store: the call measures brownout",
            m.energy_a_j, store
        ));
    }
    None
}

/// One timed `run_link` call.
struct Call {
    pass: u64,
    start: Instant,
    end: Instant,
    samples: u64,
}

/// Everything one measuring phase saw.
#[derive(Default)]
struct Phase {
    calls: Vec<Call>,
    /// `(start, end)` of every frame, from consecutive observer callbacks
    /// (a call's first frame also holds its `FdLink` build and is left out).
    frames: Vec<(Instant, Instant)>,
    merged: LinkMetrics,
    per_point: Vec<LinkMetrics>,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.calls
            .iter()
            .map(|c| c.end.duration_since(c.start).as_secs_f64())
            .sum()
    }

    fn nominal_wall_s(&self, speed: &SpeedTrack) -> f64 {
        self.calls
            .iter()
            .map(|c| speed.nominal_s(c.start, c.end))
            .sum()
    }

    /// Median over passes of simulated samples per nominal second: a pass
    /// covers every point once, so each rate has the workload's mix.
    fn median_pass_rate(&self, speed: &SpeedTrack) -> f64 {
        let mut rates = Vec::new();
        for pass in self.calls.chunk_by(|a, b| a.pass == b.pass) {
            let samples: u64 = pass.iter().map(|c| c.samples).sum();
            let secs: f64 = pass.iter().map(|c| speed.nominal_s(c.start, c.end)).sum();
            rates.push(samples as f64 / secs);
        }
        median(&mut rates)
    }

    fn frame_ms(&self) -> Vec<f64> {
        self.frames
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect()
    }

    fn nominal_frame_ms(&self, speed: &SpeedTrack) -> Vec<f64> {
        self.frames
            .iter()
            .map(|&(a, b)| speed.nominal_s(a, b) * 1e3)
            .collect()
    }
}

/// Runs whole passes until `seconds` are up and at least `min_frames`
/// frame spans are in (or three times `seconds` have passed), probing the
/// host's speed after every call.
#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &mut Ctx,
    kind: Kind,
    base: &ScenarioFile,
    seconds: f64,
    min_frames: usize,
    first_pass: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> (Phase, u64) {
    let mut ph = Phase {
        per_point: vec![LinkMetrics::default(); points(kind)],
        ..Phase::default()
    };
    ctx.speed.probe();
    let start = Instant::now();
    let mut stamps: Vec<Instant> = Vec::with_capacity(CALL_FRAMES as usize + 1);
    let mut pass = first_pass;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 3.0 * seconds || (elapsed >= seconds && ph.frames.len() >= min_frames) {
            break;
        }
        for unit in plan(kind, base, ctx.seed, pass) {
            stamps.clear();
            let call_start = Instant::now();
            let res = {
                let mut observe = |_: u64, _: &FrameOutcome| stamps.push(Instant::now());
                run_link(
                    &unit.cfg,
                    &unit.spec,
                    LinkRun::new().with_observe(&mut observe),
                )
            };
            let call_end = Instant::now();
            ctx.speed.probe();
            let m = match res {
                Ok(m) => m,
                Err(e) => {
                    report.tally.record(unit.spec.frames, unit.spec.frames);
                    report.mismatch(format!("run_link at point {}: {e}", unit.point));
                    continue;
                }
            };
            report.tally.record(m.frames, 0);
            if let Some(why) = check_call(&unit, &m) {
                report.mismatch(format!(
                    "point {} seed {}: {why}",
                    unit.point, unit.spec.seed
                ));
            }
            ph.calls.push(Call {
                pass,
                start: call_start,
                end: call_end,
                samples: m.elapsed_samples,
            });
            let call_id = ph.calls.len() as u64;
            let call_span = spans.record("run_link", call_id, None, call_start, call_end);
            for (i, w) in stamps.windows(2).enumerate() {
                spans.record(
                    "frame",
                    (call_id << 16) | (i as u64 + 1),
                    call_span,
                    w[0],
                    w[1],
                );
            }
            ph.frames.extend(stamps.windows(2).map(|w| (w[0], w[1])));
            ph.merged.merge(&m);
            ph.per_point[unit.point].merge(&m);
        }
        pass += 1;
    }
    (ph, pass)
}

/// Set-up: read and parse the config, then one discarded warm-up frame
/// (which builds an `FdLink` and grows its buffers).
fn setup(ctx: &Ctx, kind: Kind, rep: u64) -> Result<ScenarioFile, String> {
    let base = load_scenario(kind.config_file())?;
    let mut warm = plan(kind, &base, derive_seed(ctx.seed, u64::MAX - rep), 0).swap_remove(0);
    warm.spec.frames = 1;
    run_link(&warm.cfg, &warm.spec, LinkRun::new()).map_err(|e| format!("warm-up frame: {e}"))?;
    Ok(base)
}

/// The committed-seed outputs every run re-derives and compares with
/// `expected.json`: the first pass of seed 1 (the seed the bundled configs
/// commit), one canonical `LinkMetrics` per call.
fn pinned(kind: Kind, base: &ScenarioFile) -> Result<Value, String> {
    let mut out = Vec::new();
    for unit in plan(kind, base, crate::PIN_SEED, 0) {
        let m = run_link(&unit.cfg, &unit.spec, LinkRun::new()).map_err(|e| e.to_string())?;
        out.push(Value::Str(canonical_json(&m)));
    }
    Ok(Value::Array(out))
}

pub fn run(ctx: &mut Ctx, kind: Kind, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut base = None;
    for rep in 0..crate::SETUP_REPS {
        ctx.speed.probe();
        let t0 = Instant::now();
        base = Some(setup(ctx, kind, rep)?);
        let t1 = Instant::now();
        ctx.speed.probe();
        setup_s.push((t0, t1));
    }
    let base = base.expect("at least one set-up");
    if ctx.write_expected {
        report.pin(ctx, pinned(kind, &base)?);
        return Ok(());
    }

    let mut spans = Spans::new(ctx.origin, false);
    let min_frames = if ctx.trace { 0 } else { min_samples_for(99.0) };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (plain, next_pass) = measure(ctx, kind, &base, seconds, min_frames, 0, &mut spans, report);

    // Correctness at the committed seed, and the locked link's premise.
    match pinned(kind, &base) {
        Ok(v) => report.pin(ctx, v),
        Err(e) => report.mismatch(format!("pinned run: {e}")),
    }
    if kind == Kind::Locked {
        let m = &plain.merged;
        report.check(
            m.locked as f64 >= LOCKED_MIN_LOCK_RATIO * m.frames as f64,
            || {
                format!(
                    "only {} of {} frames locked on the locked link",
                    m.locked, m.frames
                )
            },
        );
    }
    let samples = plain.merged.elapsed_samples as f64;

    if !ctx.trace {
        let mut raw_ms = plain.frame_ms();
        let setup = report.setups(&ctx.speed, &setup_s);
        report.end_to_end(
            setup,
            plain.median_pass_rate(&ctx.speed),
            percentile(&mut plain.nominal_frame_ms(&ctx.speed), 50.0)?,
        );
        report.named("samples_per_s", samples / plain.wall_s(), "1/s");
        report.named("frame_ms_p50", percentile(&mut raw_ms, 50.0)?, "ms");
        report.named("frame_ms_p90", percentile(&mut raw_ms, 90.0)?, "ms");
        report.named("frame_ms_p99", percentile(&mut raw_ms, 99.0)?, "ms");
        report.note("frames", Value::Uint(plain.merged.frames));
        report.note("frame_spans", Value::Uint(raw_ms.len() as u64));
        let lock_ratio = plain
            .per_point
            .iter()
            .map(|m| Value::Float(m.lock_rate()))
            .collect();
        report.note("lock_ratio_per_point", Value::Array(lock_ratio));
        return Ok(());
    }

    // ---- traced run: spans on for the second half --------------------
    let mut spans = Spans::new(ctx.origin, true);
    let (traced, _) = measure(ctx, kind, &base, seconds, 0, next_pass, &mut spans, report);
    let traced_rate = traced.merged.elapsed_samples as f64 / traced.nominal_wall_s(&ctx.speed);
    let plain_rate = samples / plain.nominal_wall_s(&ctx.speed);
    report.layer(
        "trace.overhead_frac",
        plain_rate / traced_rate - 1.0,
        "ratio",
    );
    ctx.write_spans(&spans)?;

    let mut all = LinkMetrics::default();
    all.merge(&plain.merged);
    all.merge(&traced.merged);
    let frames = all.frames.max(1) as f64;
    report.layer("core.rx.lock_ratio", all.locked as f64 / frames, "ratio");
    report.layer("core.rx.block_ok_ratio", all.block_success_rate(), "ratio");
    report.layer(
        "core.rx.sync_rejections_per_frame",
        all.sync_rejections as f64 / frames,
        "count",
    );
    report.layer(
        "core.link.samples_per_frame",
        all.elapsed_samples as f64 / frames,
        "count",
    );
    report.layer(
        "sim.runner.calls",
        (plain.calls.len() + traced.calls.len()) as f64,
        "count",
    );

    // `run_link`'s cost outside frames: a call with no frames is its wall
    // time minus (empty) frame spans. `FdLink::new` is timed on its own.
    let mut self_ms = Vec::new();
    let mut new_ms = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed);
    let units = plan(kind, &base, ctx.seed, 0);
    for unit in units.iter().cycle().take(LINK_NEW_REPS) {
        let empty = MeasureSpec {
            frames: 0,
            ..unit.spec.clone()
        };
        let t0 = Instant::now();
        run_link(&unit.cfg, &empty, LinkRun::new()).map_err(|e| e.to_string())?;
        self_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let link = FdLink::new(unit.cfg.clone(), &mut rng).map_err(|e| e.to_string())?;
        new_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(link);
    }
    report.layer("sim.runner.self_ms", median(&mut self_ms), "ms");
    report.layer("core.link.new_ms", median(&mut new_ms), "ms");

    // ---- stage replay --------------------------------------------------
    let mut clock = StageClock::default();
    let mut per_point = Vec::new();
    let mut payload = Vec::new();
    let mut prbs = Prbs::new(PrbsOrder::Prbs23, derive_seed(ctx.seed, 0x5EED).max(1));
    ctx.speed.probe();
    let replay_start = Instant::now();
    for unit in plan(kind, &base, ctx.seed, 0) {
        let mut point = StageClock::default();
        let mut rng = ChaCha8Rng::seed_from_u64(unit.spec.seed);
        let mut link = ReplayLink::new(&unit.cfg, &mut rng).map_err(|e| e.to_string())?;
        let n = if kind == Kind::Locked {
            REPLAY_FRAMES_LOCKED
        } else {
            REPLAY_FRAMES_SWEEP
        };
        for _ in 0..n {
            prbs.bytes_into(unit.spec.payload_len, &mut payload);
            link.frame(&payload, &mut rng, &mut point)
                .map_err(|e| e.to_string())?;
        }
        clock.merge(&point);
        per_point.push(point);
    }
    let replay_end = Instant::now();
    ctx.speed.probe();
    // Faithfulness: the replay reaches the engine's outcome class.
    match kind {
        Kind::Locked => {
            let min = LOCKED_MIN_LOCK_RATIO * clock.frames as f64;
            let ok = clock.locked as f64 >= min && clock.decoded as f64 >= min;
            report.check(ok, || {
                format!(
                    "replay locked {} and decoded {} of {} frames on the locked link",
                    clock.locked, clock.decoded, clock.frames
                )
            });
        }
        Kind::Sweep => {
            for (j, engine) in all_points(&plain, &traced).iter().enumerate() {
                if engine.frames > 0 && engine.locked == 0 {
                    let locked = per_point[j].locked;
                    report.check(locked == 0, || {
                        format!(
                            "replay locked {locked} frames at {} m, where the engine never locks",
                            SWEEP_DIST_M[j]
                        )
                    });
                }
            }
        }
    }
    let frames = clock.frames.max(1) as f64;
    let total = clock.total_ns().max(1) as f64;
    for (i, (us, share)) in STAGES.iter().enumerate() {
        report.layer(us, clock.ns[i] as f64 * 1e-3 / frames, "us");
        report.layer(share, clock.ns[i] as f64 / total, "ratio");
    }
    report.layer(
        "core.rx.push_slice_calls",
        clock.acquire_calls as f64 / frames,
        "count",
    );
    report.layer(
        "core.rx.mean_slice_len",
        clock.acquire_samples as f64 / clock.acquire_calls.max(1) as f64,
        "count",
    );
    // Both sides at nominal host speed, so a speed change between the
    // engine's phases and the replay does not read as coverage.
    let replay_speed = ctx.speed.at(replay_start + (replay_end - replay_start) / 2);
    let engine_s = plain.nominal_wall_s(&ctx.speed) + traced.nominal_wall_s(&ctx.speed);
    let engine_ns_per_sample = engine_s * 1e9 / all.elapsed_samples.max(1) as f64;
    let replay_ns_per_sample = total * replay_speed / clock.samples.max(1) as f64;
    report.layer(
        "replay.coverage",
        replay_ns_per_sample / engine_ns_per_sample,
        "ratio",
    );
    let dom = clock.dominant();
    report.layer(
        "replay.dominant_share",
        clock.ns[dom] as f64 / total,
        "ratio",
    );
    let stage = STAGES[dom]
        .0
        .trim_end_matches("_us")
        .trim_end_matches(".us");
    report.note("dominant_stage", Value::Str(stage.to_string()));
    report.note(
        "replay",
        Value::Object(vec![
            ("frames".into(), Value::Uint(clock.frames)),
            ("locked".into(), Value::Uint(clock.locked)),
            ("decoded".into(), Value::Uint(clock.decoded)),
            ("fully_delivered".into(), Value::Uint(clock.fully_delivered)),
            (
                "samples_per_frame".into(),
                Value::Float(clock.samples as f64 / frames),
            ),
        ]),
    );
    Ok(())
}

fn all_points(a: &Phase, b: &Phase) -> Vec<LinkMetrics> {
    a.per_point
        .iter()
        .zip(&b.per_point)
        .map(|(x, y)| {
            let mut m = x.clone();
            m.merge(y);
            m
        })
        .collect()
}
