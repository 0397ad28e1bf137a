//! End-to-end benchmark of the shipped crates: the link PHY (`run_link`),
//! the city engine (`CityEngine::run_ctl`) and the job service
//! (`serve_unix` + `Client`), plus a traced mode that reports per-layer
//! figures measured from outside the program.
//!
//! ```text
//! fdb-perfbench --workload link_locked|link_sweep|city_10k|service_mix \
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs from the repository root (configs and the work area are relative to
//! it). Prints one JSON report line per workload (every figure under its own
//! name, the engine, notes) and, last, the result object
//! `{"correct","attempted","failed","metrics"}`. Exits 1 when any output
//! fails its correctness check, 2 on bad arguments or a failed run, and 3
//! when built with the `trace` feature (which swaps in the per-sample
//! reference engine). `--write-expected` re-derives the committed-seed
//! outputs into `expected.json` instead of checking them.

mod city;
mod link;
mod probe;
mod replay;
mod service;
mod spans;
mod stats;

use fdb_core::link::LinkConfig;
use fdb_core::trace::TraceSinkSpec;
use fdb_sim::{run_link, LinkRun, MeasureSpec};
use probe::SpeedTrack;
use serde_json::Value;
use spans::Spans;
use stats::Tally;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 11;
/// The seed the bundled configs commit; correctness pins are taken at it.
pub const PIN_SEED: u64 = 1;
const EXPECTED: &str = "perfbench/expected.json";
const WORK_DIR: &str = "perfbench/work";

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub origin: Instant,
    /// Run-private scratch directory under the benchmark's work area.
    pub scratch: PathBuf,
    /// Host-speed probes taken through the run.
    pub speed: SpeedTrack,
    write_expected: bool,
    expected: Option<Value>,
}

impl Ctx {
    /// Writes a traced run's spans to `work/spans/<workload>-<seed>.jsonl`.
    pub fn write_spans(&self, spans: &Spans) -> Result<(), String> {
        let path = Path::new(WORK_DIR)
            .join("spans")
            .join(format!("{}-{}.jsonl", self.workload, self.seed));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    mismatches: Vec<String>,
    e2e: Vec<(String, f64, &'static str)>,
    named: Vec<(String, f64, &'static str)>,
    layers: Vec<(String, f64, &'static str)>,
    notes: Vec<(String, Value)>,
    pinned: Option<Value>,
}

impl Report {
    /// A failed correctness check (counts as one failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.tally.check(false);
        self.describe_mismatch(what);
    }

    /// Records the description of a failure already counted elsewhere.
    pub fn describe_mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// One correctness check as an operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.tally.check(true);
        } else {
            self.mismatch(what());
        }
    }

    /// Compares the committed-seed outputs with `expected.json` (or keeps
    /// them for `--write-expected`).
    pub fn pin(&mut self, ctx: &Ctx, got: Value) {
        if ctx.write_expected {
            self.pinned = Some(got);
            return;
        }
        let want = ctx.expected.as_ref().and_then(|e| e.get(&ctx.workload));
        match want {
            None => self.mismatch(format!("{EXPECTED} has no entry for {}", ctx.workload)),
            Some(want) => {
                let (w, g) = (json(want), json(&got));
                self.check(w == g, || {
                    format!("committed-seed outputs differ: want {w}, got {g}")
                });
            }
        }
    }

    /// The gated end-to-end figures, under workload-neutral names and at
    /// nominal host speed: set-up time, work per second, median operation.
    pub fn end_to_end(&mut self, setup_s: f64, work_per_s: f64, op_ms_p50: f64) {
        self.e2e.push(("setup_s".into(), setup_s, "s"));
        self.e2e.push(("work_per_s".into(), work_per_s, "1/s"));
        self.e2e.push(("op_ms_p50".into(), op_ms_p50, "ms"));
    }

    /// Records the set-ups' host times in the report line and returns
    /// their median at nominal host speed (the gated `setup_s`).
    pub fn setups(&mut self, speed: &SpeedTrack, spans: &[(Instant, Instant)]) -> f64 {
        let mut raw: Vec<f64> = spans
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64())
            .collect();
        let reps = raw.iter().map(|&s| Value::Float(s * 1e3)).collect();
        self.note("setup_reps_ms", Value::Array(reps));
        self.named("setup_s", stats::median(&mut raw), "s");
        let mut nominal: Vec<f64> = spans.iter().map(|&(a, b)| speed.nominal_s(a, b)).collect();
        stats::median(&mut nominal)
    }

    /// An end-to-end figure under its workload-specific name (report line).
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.into(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.into(), value));
    }
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("values serialize")
}

fn metric_map(ms: &[(String, f64, &'static str)]) -> Value {
    Value::Object(
        ms.iter()
            .map(|(n, v, u)| {
                let m = vec![
                    ("value".to_string(), Value::Float(*v)),
                    ("unit".to_string(), Value::Str(u.to_string())),
                ];
                (n.clone(), Value::Object(m))
            })
            .collect(),
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `true` when `run_link` accepts a non-null trace sink — the runtime sign
/// of a `trace` build, whose `run_frame_into` takes the per-sample
/// reference engine instead of the block engine that ships.
fn is_trace_build() -> bool {
    let spec = MeasureSpec {
        frames: 0,
        trace: TraceSinkSpec::Ring { capacity: Some(1) },
        ..MeasureSpec::default()
    };
    run_link(&LinkConfig::default_fd(), &spec, LinkRun::new()).is_ok()
}

fn usage(msg: &str) -> ! {
    eprintln!("fdb-perfbench: {msg}");
    eprintln!(
        "usage: fdb-perfbench --workload link_locked|link_sweep|city_10k|service_mix \
         --seed N --seconds S --trace 0|1 [--write-expected]"
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_expected = false;
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = Some(val().parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val()
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--write-expected" => write_expected = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let scratch = Path::new(WORK_DIR).join(format!("run-{}-{workload}-{seed}", std::process::id()));
    Ctx {
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        origin: Instant::now(),
        scratch,
        speed: SpeedTrack::default(),
        write_expected,
        expected: None,
    }
}

fn main() {
    let mut ctx = parse_args();
    if is_trace_build() {
        eprintln!(
            "fdb-perfbench: refusing to run a `trace` build: run_link accepted a trace sink, so \
             frames would take the per-sample reference engine instead of the block engine"
        );
        std::process::exit(3);
    }
    if !ctx.write_expected {
        let path = Path::new(EXPECTED);
        match std::fs::read_to_string(path).map(|t| serde_json::value_from_str(&t)) {
            Ok(Ok(v)) => ctx.expected = Some(v),
            Ok(Err(e)) => usage(&format!("{}: {e:?}", path.display())),
            Err(e) => usage(&format!("{}: {e}", path.display())),
        }
    }

    let mut report = Report::default();
    let res = match ctx.workload.as_str() {
        "link_locked" => link::run(&mut ctx, link::Kind::Locked, &mut report),
        "link_sweep" => link::run(&mut ctx, link::Kind::Sweep, &mut report),
        "city_10k" => city::run(&mut ctx, &mut report),
        "service_mix" => service::run(&mut ctx, &mut report),
        other => usage(&format!("unknown workload {other}")),
    };
    if let Err(e) = res {
        eprintln!("fdb-perfbench: {}: {e}", ctx.workload);
        std::process::exit(2);
    }

    if ctx.write_expected {
        let path = Path::new(EXPECTED);
        let mut entries =
            match std::fs::read_to_string(path).map(|t| serde_json::value_from_str(&t)) {
                Ok(Ok(Value::Object(m))) => m,
                _ => Vec::new(),
            };
        let pinned = report.pinned.take().unwrap_or(Value::Null);
        entries.retain(|(k, _)| *k != ctx.workload);
        entries.push((ctx.workload.clone(), pinned));
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let text = serde_json::to_string_pretty(&Value::Object(entries)).expect("serializes");
        std::fs::write(path, text + "\n")
            .unwrap_or_else(|e| usage(&format!("{}: {e}", path.display())));
        eprintln!(
            "fdb-perfbench: wrote {} entry to {}",
            ctx.workload,
            path.display()
        );
        return;
    }

    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    report.named("failed_frac", report.tally.failed_frac(), "ratio");
    report.named("peak_rss_mb", rss, "MB");
    report.e2e.push(("peak_rss_mb".into(), rss, "MB"));
    let correct = report.mismatches.is_empty() && report.tally.failed == 0;

    let mut line = vec![
        ("workload".to_string(), Value::Str(ctx.workload.clone())),
        ("seed".to_string(), Value::Uint(ctx.seed)),
        ("trace".to_string(), Value::Bool(ctx.trace)),
        ("engine".to_string(), Value::Str("block".into())),
        ("end_to_end".to_string(), metric_map(&report.named)),
    ];
    if ctx.trace {
        line.push(("per_layer".to_string(), metric_map(&report.layers)));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    line.push(("available_parallelism".to_string(), Value::Uint(cpus)));
    line.push((
        "machine_speed".to_string(),
        Value::Float(ctx.speed.median_speed()),
    ));
    line.push((
        "speed_probes".to_string(),
        Value::Uint(ctx.speed.probes() as u64),
    ));
    line.push(("probe_s".to_string(), Value::Float(ctx.speed.probe_s())));
    line.append(&mut report.notes);
    line.push((
        "mismatches".to_string(),
        Value::Array(report.mismatches.iter().cloned().map(Value::Str).collect()),
    ));
    println!("{}", json(&Value::Object(line)));

    let metrics = if ctx.trace {
        &report.layers
    } else {
        &report.e2e
    };
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        (
            "attempted".to_string(),
            Value::Uint(report.tally.attempted.max(1)),
        ),
        ("failed".to_string(), Value::Uint(report.tally.failed)),
        ("metrics".to_string(), metric_map(metrics)),
    ]);
    println!("{}", json(&result));
    if !correct {
        std::process::exit(1);
    }
}
