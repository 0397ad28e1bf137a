//! `city_10k`: one reused `CityEngine` running the 10 000-tag × one
//! simulated-hour analytic spec over a new seed per run, timed per run
//! and per progress chunk (one callback per 4096 events).

use crate::probe::SpeedTrack;
use crate::spans::Spans;
use crate::stats::{median, min_samples_for, percentile};
use crate::{Ctx, Report};
use fdb_core::hash::{canonical_json, ContentHash};
use fdb_core::network::NetworkConfig;
use fdb_core::seed::derive_seed;
use fdb_device::TagConfig;
use fdb_sim::{CityEngine, CityReport, CityScenarioSpec, JobProgress};
use serde_json::Value;
use std::time::Instant;

/// Spec of the 10k-tag × 1 simulated-hour scale gate (`tests/city_scale.rs`).
fn spec(seed: u64) -> CityScenarioSpec {
    CityScenarioSpec {
        label: "city-10k".into(),
        seed,
        n_active: 10_000,
        sim_duration_s: 3600.0,
        mean_interarrival_s: 60.0,
        ..CityScenarioSpec::default()
    }
}

/// Simulated seconds of the set-up's discarded warm-up run, which grows
/// the engine's tag table, heap and geometry kernel.
const WARMUP_SIM_S: f64 = 180.0;
/// Timed kernel builds in a traced run.
const KERNEL_REPS: usize = 51;

/// Progress chunks between two host-speed probes (about 50 ms).
const PROBE_EVERY: usize = 16;

/// Everything one measuring phase saw.
#[derive(Default)]
struct Phase {
    runs: u64,
    tag_hours: f64,
    events: u64,
    peak_queue: u64,
    /// Pieces of `run_ctl` wall time between speed probes.
    segments: Vec<(Instant, Instant)>,
    /// Per run: its tag-hours and the range of its pieces in `segments`.
    run_segments: Vec<(f64, std::ops::Range<usize>)>,
    /// Wall time of each run, probes excluded.
    run_s: Vec<f64>,
    /// `(start, end)` of each progress chunk, probes excluded.
    chunks: Vec<(Instant, Instant)>,
    attempts: u64,
    delivered: u64,
    deferrals: u64,
    collisions: u64,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.segments
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64())
            .sum()
    }

    /// Median over runs of tag-hours per nominal second.
    fn median_run_rate(&self, speed: &SpeedTrack) -> f64 {
        let mut rates: Vec<f64> = self
            .run_segments
            .iter()
            .map(|(hours, range)| {
                let secs: f64 = self.segments[range.clone()]
                    .iter()
                    .map(|&(a, b)| speed.nominal_s(a, b))
                    .sum();
                hours / secs
            })
            .collect();
        median(&mut rates)
    }

    fn nominal_wall_s(&self, speed: &SpeedTrack) -> f64 {
        self.segments
            .iter()
            .map(|&(a, b)| speed.nominal_s(a, b))
            .sum()
    }
}

#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &mut Ctx,
    engine: &mut CityEngine,
    report: &mut CityReport,
    seconds: f64,
    min_chunks: usize,
    first_run: u64,
    spans: &mut Spans,
    out: &mut Report,
) -> (Phase, u64) {
    let mut ph = Phase::default();
    ctx.speed.probe();
    let start = Instant::now();
    // Per callback: when it fired and when the engine resumed (later than
    // the callback when a speed probe ran inside it).
    let mut stamps: Vec<(Instant, Instant)> = Vec::with_capacity(1024);
    let mut k = first_run;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 3.0 * seconds || (elapsed >= seconds && ph.chunks.len() >= min_chunks) {
            break;
        }
        let s = spec(derive_seed(ctx.seed, k));
        k += 1;
        stamps.clear();
        let speed = &mut ctx.speed;
        let t0 = Instant::now();
        let res = {
            let mut progress = |_: JobProgress| {
                let now = Instant::now();
                let resume = if (stamps.len() + 1).is_multiple_of(PROBE_EVERY) {
                    now + speed.probe()
                } else {
                    now
                };
                stamps.push((now, resume));
            };
            engine.run_ctl(&s, report, None, &mut progress)
        };
        let t1 = Instant::now();
        ctx.speed.probe();
        if let Err(e) = res {
            out.mismatch(format!("run_ctl seed {}: {e}", s.seed));
            continue;
        }
        let conserved = report.totals.conserved();
        out.check(conserved, || {
            format!("seed {}: totals not conserved: {:?}", s.seed, report.totals)
        });
        let run_span = spans.record("run_ctl", k, None, t0, t1);
        let mut from = t0;
        let mut run_s = 0.0;
        let first_segment = ph.segments.len();
        for (i, &(cb, resume)) in stamps.iter().enumerate() {
            if i > 0 {
                ph.chunks.push((stamps[i - 1].1, cb));
                spans.record("chunk", (k << 16) | i as u64, run_span, stamps[i - 1].1, cb);
            }
            if resume > cb || i + 1 == stamps.len() {
                ph.segments.push((from, cb));
                run_s += cb.duration_since(from).as_secs_f64();
                from = resume;
            }
        }
        ph.segments.push((from, t1));
        run_s += t1.duration_since(from).as_secs_f64();
        ph.run_s.push(run_s);
        ph.runs += 1;
        let tag_hours = s.n_active as f64 * s.sim_duration_s / 3600.0;
        ph.tag_hours += tag_hours;
        ph.run_segments
            .push((tag_hours, first_segment..ph.segments.len()));
        ph.events += report.events_processed;
        ph.peak_queue = ph.peak_queue.max(report.peak_queue);
        let t = &report.totals;
        ph.attempts += t.attempts;
        ph.delivered += t.delivered;
        ph.deferrals += t.deferrals;
        ph.collisions += t.collisions;
    }
    (ph, k)
}

/// Committed-seed outputs: the totals and a digest of every per-tag ledger
/// (results, not `events_processed`).
fn pinned(engine: &mut CityEngine, report: &mut CityReport) -> Result<Value, String> {
    engine
        .run_ctl(
            &spec(derive_seed(crate::PIN_SEED, 0)),
            report,
            None,
            &mut |_| {},
        )
        .map_err(|e| e.to_string())?;
    let digest = ContentHash::of_canonical("perfbench-city-ledgers", &report.ledgers).to_hex();
    Ok(Value::Object(vec![
        ("conserved".into(), Value::Bool(report.totals.conserved())),
        ("totals".into(), Value::Str(canonical_json(&report.totals))),
        ("ledgers".into(), Value::Uint(report.ledgers.len() as u64)),
        ("ledger_digest".into(), Value::Str(digest)),
    ]))
}

pub fn run(ctx: &mut Ctx, out: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut engine = CityEngine::new();
    let mut report = CityReport::default();
    for rep in 0..crate::SETUP_REPS {
        ctx.speed.probe();
        let t0 = Instant::now();
        let mut warm = spec(derive_seed(ctx.seed, u64::MAX - rep));
        warm.sim_duration_s = WARMUP_SIM_S;
        warm.validate().map_err(|e| e.to_string())?;
        engine = CityEngine::new();
        report = CityReport::default();
        engine
            .run_into(&warm, &mut report)
            .map_err(|e| format!("warm-up: {e}"))?;
        let t1 = Instant::now();
        ctx.speed.probe();
        setup_s.push((t0, t1));
    }
    if ctx.write_expected {
        out.pin(ctx, pinned(&mut engine, &mut report)?);
        return Ok(());
    }

    let mut spans = Spans::new(ctx.origin, false);
    let min_chunks = if ctx.trace { 0 } else { min_samples_for(99.0) };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (plain, next) = measure(
        ctx,
        &mut engine,
        &mut report,
        seconds,
        min_chunks,
        0,
        &mut spans,
        out,
    );
    match pinned(&mut engine, &mut report) {
        Ok(v) => out.pin(ctx, v),
        Err(e) => out.mismatch(format!("pinned run: {e}")),
    }

    if !ctx.trace {
        let mut nominal_ms: Vec<f64> = plain
            .chunks
            .iter()
            .map(|&(a, b)| ctx.speed.nominal_s(a, b) * 1e3)
            .collect();
        let setup = out.setups(&ctx.speed, &setup_s);
        out.end_to_end(
            setup,
            plain.median_run_rate(&ctx.speed),
            percentile(&mut nominal_ms, 50.0)?,
        );
        let mut chunk_ms: Vec<f64> = plain
            .chunks
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect();
        out.named("tag_hours_per_s", plain.tag_hours / plain.wall_s(), "1/s");
        out.named("chunk_ms_p50", percentile(&mut chunk_ms, 50.0)?, "ms");
        out.named("chunk_ms_p99", percentile(&mut chunk_ms, 99.0)?, "ms");
        out.note("runs", Value::Uint(plain.runs));
        out.note("chunks", Value::Uint(plain.chunks.len() as u64));
        return Ok(());
    }

    let mut spans = Spans::new(ctx.origin, true);
    let (traced, _) = measure(
        ctx,
        &mut engine,
        &mut report,
        seconds,
        0,
        next,
        &mut spans,
        out,
    );
    let plain_rate = plain.tag_hours / plain.nominal_wall_s(&ctx.speed);
    let traced_rate = traced.tag_hours / traced.nominal_wall_s(&ctx.speed);
    out.layer(
        "trace.overhead_frac",
        plain_rate / traced_rate - 1.0,
        "ratio",
    );
    ctx.write_spans(&spans)?;

    let runs = (plain.runs + traced.runs).max(1) as f64;
    let wall = plain.wall_s() + traced.wall_s();
    let events = plain.events + traced.events;
    let mut run_s: Vec<f64> = plain.run_s.iter().chain(&traced.run_s).copied().collect();
    let mut chunk_ms: Vec<f64> = plain
        .chunks
        .iter()
        .chain(&traced.chunks)
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect();
    out.layer("sim.city.run_s", median(&mut run_s), "s");
    out.layer("sim.city.events", events as f64 / runs, "count");
    out.layer("sim.city.events_per_s", events as f64 / wall, "1/s");
    out.layer(
        "sim.city.chunk_ms_p50",
        percentile(&mut chunk_ms, 50.0)?,
        "ms",
    );
    out.layer(
        "sim.city.chunk_ms_p99",
        percentile(&mut chunk_ms, 99.0)?,
        "ms",
    );
    out.layer(
        "sim.city.peak_queue",
        plain.peak_queue.max(traced.peak_queue) as f64,
        "count",
    );
    let attempts = (plain.attempts + traced.attempts).max(1) as f64;
    let per_attempt = |n: u64| n as f64 / attempts;
    out.layer(
        "sim.city.delivered_per_attempt",
        per_attempt(plain.delivered + traced.delivered),
        "ratio",
    );
    out.layer(
        "sim.city.deferrals_per_attempt",
        per_attempt(plain.deferrals + traced.deferrals),
        "ratio",
    );
    out.layer(
        "sim.city.collisions_per_attempt",
        per_attempt(plain.collisions + traced.collisions),
        "ratio",
    );

    // `CityScenarioSpec::validate` plus the geometry-kernel build that
    // `run_ctl` performs on a fresh engine (`gain_config` is private; the
    // same public `NetworkConfig` constructor is timed here).
    let s = spec(ctx.seed);
    let mut kernel_ms = Vec::new();
    for _ in 0..KERNEL_REPS {
        let t0 = Instant::now();
        s.validate().map_err(|e| e.to_string())?;
        let mut k = NetworkConfig::ring(1, 1.0, TagConfig::typical(1e-4));
        k.source_dist_m = s.source_dist_m;
        k.source_power_dbm = s.source_power_dbm;
        k.pathloss_source = s.pathloss_source;
        k.pathloss_device = s.pathloss_device;
        kernel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(k);
    }
    out.layer("sim.city.gain_config_ms", median(&mut kernel_ms), "ms");
    Ok(())
}
