//! PHY/MAC probe CLI — one binary, subcommand per workflow:
//!
//! ```text
//! probe replay  [--seed N] [--dist METERS] [--payload-len BYTES]
//!               [--mode fd|hd] [--stage NAME] [--trace-out PATH]
//!               [--faults PATH]
//! probe sync    [--config PATH] [--frames N] [--seed N] [--faults PATH]
//! probe link    [--config PATH] [--frames N] [--seed N] [--faults PATH]
//!               [--trace-out PATH]
//! probe mac     --config configs/scenarios/PAIR.json [--seed N]
//! probe matrix  --configs CFG1,CFG2,... [--frames N] [--seed N]
//!               [--faults PATH]
//! probe serve   [--socket PATH] [--cache-dir DIR] [--jobs N]
//!               [--queue N] [--seed-golden]
//! probe submit  [--socket PATH] (--job PATH | --pair PATH |
//!               [--config PATH] [--frames N] [--seed N] [--faults PATH])
//!               [--stream-trace --trace-out PATH] [--timeout-ms N]
//! probe submit  [--socket PATH] --ping | --recheck N | --stop-service
//! probe --validate-trace PATH
//! ```
//!
//! * `replay` — replays **one seeded frame** over the default link and
//!   prints the per-stage diagnostic trace as JSON lines — one
//!   [`fdb_core::trace::TraceEvent`] per line, then a `summary` object.
//!   The fastest way to see *where* inside the PHY pipeline a frame dies.
//!   With `--trace-out PATH` the events stream to a JSONL file (with
//!   frame markers) instead of stdout. Needs a build with
//!   `--features fdb-core/trace`; other builds exit 2.
//! * `sync` — per-frame two-stage acquisition counters (candidate locks,
//!   rejections, peak correlation) plus a closing summary. Works in every
//!   build; the CI smoke check for lock discrimination.
//! * `link` — aggregate [`fdb_sim::LinkMetrics`] for a batch; with
//!   `--trace-out PATH` every frame's events stream to a JSONL file
//!   through a `JsonlFileSink` at constant resident memory (needs
//!   `fdb-core/trace`; other builds refuse the sink).
//! * `mac` — runs an adaptive-vs-oblivious [`fdb_sim::AblationPair`]:
//!   one JSON line per session slot per arm, then a summary with both
//!   goodputs and the achieved margin. Exits non-zero when the margin is
//!   not met — the CI regression gate for the adaptive-MAC loop.
//! * `matrix` — sweeps every listed scenario config against the built-in
//!   per-class fault plans ([`fdb_sim::matrix::class_plans`]), one JSON
//!   line per grid cell, exiting non-zero if any cell violates a
//!   conformance invariant — the CI smoke check for the fault layer.
//! * `serve` / `submit` — the long-running job service
//!   ([`fdb_service`]): `serve` binds a Unix socket, executes submitted
//!   [`fdb_sim::JobSpec`]s on a bounded worker pool and replays repeated
//!   jobs byte-identically from a content-addressed result cache;
//!   `submit` sends one job (or a `--ping`/`--recheck N`/`--stop-service`
//!   control request) and relays the response stream — progress to
//!   stderr, streamed trace chunks to `--trace-out`, the result and a
//!   `{"summary":...,"cached":...}` line to stdout.
//!
//! `--faults PATH` attaches a scripted [`fdb_sim::faults::FaultPlan`]
//! (JSON, see `configs/faults/`) to any run mode; fault activations land
//! in the metrics/summary output. `--validate-trace PATH` parses a trace
//! JSONL file line-by-line and exits non-zero on the first malformed
//! line. An invocation with no subcommand runs `replay`.

use fdb_core::link::{FdLink, FrameRun, LinkConfig, RunOptions};
use fdb_core::trace::parse_trace_line;
use fdb_sim::faults::FaultPlan;
use fdb_sim::{LinkRun, MeasureSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Replay,
    Sync,
    Link,
    Mac,
    City,
    Matrix,
    Serve,
    Submit,
    Validate,
}

struct Args {
    mode: Option<Mode>,
    seed: u64,
    seed_given: bool,
    dist: f64,
    payload_len: usize,
    full_duplex: bool,
    /// Restrict JSONL output to one stage (tx/channel/sic/rx/feedback).
    stage: Option<String>,
    /// Bundled scenario file (`{link, spec}` JSON) for report modes.
    config: Option<String>,
    /// Frame-count override for report modes.
    frames: Option<u64>,
    /// Stream trace events to this JSONL file instead of stdout.
    trace_out: Option<String>,
    /// Validate a trace JSONL file line-by-line and exit.
    validate_trace: Option<String>,
    /// Write the full city report as pretty JSON to this path (`city`).
    json_out: Option<String>,
    /// Scripted fault plan (JSON file) injected into the run.
    faults: Option<String>,
    /// Comma-separated scenario configs for the conformance matrix.
    matrix_configs: Option<String>,
    /// Service socket path (`serve`/`submit`).
    socket: Option<String>,
    /// Result-cache directory (`serve`).
    cache_dir: Option<String>,
    /// Worker threads (`serve`).
    jobs: usize,
    /// Queue bound (`serve`).
    queue: usize,
    /// Seed the cache from the repo golden corpus (`serve`).
    seed_golden: bool,
    /// Raw `JobSpec` JSON file (`submit`).
    job_file: Option<String>,
    /// Ablation-pair JSON file submitted as a job (`submit`).
    pair_file: Option<String>,
    /// Stream per-frame trace chunks over the socket (`submit`).
    stream_trace: bool,
    /// Per-job timeout in milliseconds (`submit`; 0 = none).
    timeout_ms: u64,
    /// Send a liveness ping instead of a job (`submit`).
    ping: bool,
    /// Recompute every n-th cache entry and diff (`submit`).
    recheck: Option<u64>,
    /// Ask the service to shut down (`submit`).
    stop_service: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: probe replay  [--seed N] [--dist M] [--payload-len BYTES] [--mode fd|hd]\n\
         \x20                    [--stage NAME] [--trace-out PATH] [--faults PATH]\n\
         \x20      probe sync|link [--config PATH] [--frames N] [--seed N]\n\
         \x20                    [--faults PATH] [--trace-out PATH]\n\
         \x20      probe mac     --config configs/scenarios/PAIR.json [--seed N]\n\
         \x20      probe city    [--config configs/scenarios/CITY.json] [--seed N]\n\
         \x20                    [--json-out PATH]\n\
         \x20      probe matrix  --configs CFG1,CFG2,... [--frames N] [--seed N]\n\
         \x20      probe serve   [--socket PATH] [--cache-dir DIR] [--jobs N]\n\
         \x20                    [--queue N] [--seed-golden]\n\
         \x20      probe submit  [--socket PATH] (--job PATH | --pair PATH | [--config PATH])\n\
         \x20                    [--stream-trace --trace-out PATH] [--timeout-ms N]\n\
         \x20      probe submit  [--socket PATH] --ping | --recheck N | --stop-service\n\
         \x20      probe --validate-trace PATH"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: None,
        seed: 7,
        seed_given: false,
        dist: 0.3,
        payload_len: 64,
        full_duplex: true,
        stage: None,
        config: None,
        frames: None,
        trace_out: None,
        validate_trace: None,
        json_out: None,
        faults: None,
        matrix_configs: None,
        socket: None,
        cache_dir: None,
        jobs: 2,
        queue: 32,
        seed_golden: false,
        job_file: None,
        pair_file: None,
        stream_trace: false,
        timeout_ms: 0,
        ping: false,
        recheck: None,
        stop_service: false,
    };
    let mut it = std::env::args().skip(1);
    let mut first_token = true;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            // Subcommands (first token only).
            "replay" if first_token => args.mode = Some(Mode::Replay),
            "sync" if first_token => args.mode = Some(Mode::Sync),
            "link" if first_token => args.mode = Some(Mode::Link),
            "mac" if first_token => args.mode = Some(Mode::Mac),
            "city" if first_token => args.mode = Some(Mode::City),
            "matrix" if first_token => args.mode = Some(Mode::Matrix),
            "serve" if first_token => args.mode = Some(Mode::Serve),
            "submit" if first_token => args.mode = Some(Mode::Submit),
            // Shared options.
            "--seed" => {
                args.seed = value("--seed").parse().unwrap_or_else(|_| usage());
                args.seed_given = true;
            }
            "--dist" => args.dist = value("--dist").parse().unwrap_or_else(|_| usage()),
            "--payload-len" => {
                args.payload_len = value("--payload-len").parse().unwrap_or_else(|_| usage())
            }
            "--mode" => match value("--mode").as_str() {
                "fd" => args.full_duplex = true,
                "hd" => args.full_duplex = false,
                _ => usage(),
            },
            "--stage" => args.stage = Some(value("--stage")),
            "--config" => args.config = Some(value("--config")),
            "--configs" => args.matrix_configs = Some(value("--configs")),
            "--frames" => {
                args.frames = Some(value("--frames").parse().unwrap_or_else(|_| usage()))
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--json-out" => args.json_out = Some(value("--json-out")),
            "--faults" => args.faults = Some(value("--faults")),
            // Service options.
            "--socket" => args.socket = Some(value("--socket")),
            "--cache-dir" => args.cache_dir = Some(value("--cache-dir")),
            "--jobs" => args.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--queue" => args.queue = value("--queue").parse().unwrap_or_else(|_| usage()),
            "--seed-golden" => args.seed_golden = true,
            "--job" => args.job_file = Some(value("--job")),
            "--pair" => args.pair_file = Some(value("--pair")),
            "--stream-trace" => args.stream_trace = true,
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--ping" => args.ping = true,
            "--recheck" => {
                args.recheck = Some(value("--recheck").parse().unwrap_or_else(|_| usage()))
            }
            "--stop-service" => args.stop_service = true,
            "--validate-trace" => {
                args.mode = Some(Mode::Validate);
                args.validate_trace = Some(value("--validate-trace"));
            }
            "--help" | "-h" => usage(),
            // Positional comma-list after `matrix`.
            cfgs if args.mode == Some(Mode::Matrix)
                && args.matrix_configs.is_none()
                && !cfgs.starts_with('-') =>
            {
                args.matrix_configs = Some(cfgs.to_string())
            }
            _ => usage(),
        }
        first_token = false;
    }
    args
}

fn main() {
    let args = parse_args();
    match args.mode.unwrap_or(Mode::Replay) {
        Mode::Validate => validate_trace(args.validate_trace.as_deref().unwrap_or_else(|| {
            eprintln!("--validate-trace needs a path");
            usage()
        })),
        Mode::Matrix => fault_matrix(&args),
        Mode::Sync => sync_report(&args),
        Mode::Link => link_report(&args),
        Mode::Mac => mac_report(&args),
        Mode::City => city_report(&args),
        Mode::Serve => serve_cmd(&args),
        Mode::Submit => submit_cmd(&args),
        Mode::Replay => {
            if !fdb_core::trace::ENABLED {
                eprintln!(
                    "probe was built without `fdb-core/trace`, so its engine cannot trace; \
                     rebuild with `--features fdb-core/trace` \
                     (or use sync/link/matrix/--validate-trace)"
                );
                std::process::exit(2);
            }
            trace_frame(&args);
        }
    }
}

/// Loads and validates a [`FaultPlan`] JSON file, exiting on failure.
fn load_fault_plan(path: &str) -> FaultPlan {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let plan: FaultPlan = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{path} invalid: {e}");
        std::process::exit(2);
    });
    plan.validate().unwrap_or_else(|e| {
        eprintln!("{path} invalid: {e}");
        std::process::exit(2);
    });
    plan
}

/// Loads `{link, spec}` from `--config` (or the built-in default scenario)
/// and applies the CLI overrides shared by the report modes.
fn load_scenario(args: &Args, default_frames: u64) -> (LinkConfig, MeasureSpec) {
    #[derive(serde::Deserialize)]
    struct Scenario {
        link: LinkConfig,
        spec: MeasureSpec,
    }

    let (cfg, mut spec) = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let scenario: Scenario = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("{path} invalid: {e}");
                std::process::exit(2);
            });
            (scenario.link, scenario.spec)
        }
        None => {
            let mut cfg = LinkConfig::default_fd();
            cfg.geometry.device_dist_m = args.dist;
            let spec = MeasureSpec {
                frames: default_frames,
                payload_len: args.payload_len,
                seed: args.seed,
                feedback_probe: Some(false),
                trace: Default::default(),
                faults: None,
            };
            (cfg, spec)
        }
    };
    if let Some(n) = args.frames {
        spec.frames = n;
    }
    if args.seed_given {
        spec.seed = args.seed;
    }
    if let Some(path) = &args.faults {
        spec = spec.with_faults(load_fault_plan(path));
    }
    cfg.validate().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    (cfg, spec)
}

/// The conformance matrix (`probe matrix`): every listed scenario config
/// crossed with the built-in per-class plans (plus the `--faults` plan
/// when given). One JSON line per grid cell; exits non-zero when any
/// cell reports an invariant violation.
fn fault_matrix(args: &Args) {
    let Some(configs) = &args.matrix_configs else {
        eprintln!("probe matrix needs --configs CFG1,CFG2,...");
        usage();
    };
    let mut scenarios = Vec::new();
    for path in configs.split(',').filter(|s| !s.is_empty()) {
        let one = Args {
            config: Some(path.to_string()),
            // Matrix cells default to a short batch; --frames overrides.
            frames: Some(args.frames.unwrap_or(4)),
            faults: None,
            trace_out: None,
            stage: None,
            matrix_configs: None,
            ..clone_args(args)
        };
        let (cfg, spec) = load_scenario(&one, 4);
        scenarios.push((path.to_string(), cfg, spec));
    }
    if scenarios.is_empty() {
        eprintln!("probe matrix needs at least one config path");
        usage();
    }
    let mut plans: Vec<(String, fdb_sim::faults::FaultPlan)> =
        fdb_sim::matrix::class_plans(args.seed)
            .into_iter()
            .map(|(label, plan)| (label.to_string(), plan))
            .collect();
    if let Some(path) = &args.faults {
        plans.push((path.clone(), load_fault_plan(path)));
    }
    let cells = fdb_sim::matrix::run_matrix(&scenarios, &plans).unwrap_or_else(|e| {
        eprintln!("matrix run failed: {e}");
        std::process::exit(1);
    });
    let mut violations = 0usize;
    for cell in &cells {
        violations += cell.violations.len();
        println!("{}", serde_json::to_string(cell).expect("cell serializes"));
    }
    println!(
        "{{\"summary\":true,\"cells\":{},\"violations\":{violations}}}",
        cells.len()
    );
    if violations > 0 {
        std::process::exit(1);
    }
}

/// Field-by-field copy of the shared scalar options (the struct holds
/// `String`s, so a derived `Clone` would be misleading for the per-mode
/// fields the callers override — they pass explicit values instead).
fn clone_args(args: &Args) -> Args {
    Args {
        mode: args.mode,
        seed: args.seed,
        seed_given: args.seed_given,
        dist: args.dist,
        payload_len: args.payload_len,
        full_duplex: args.full_duplex,
        stage: args.stage.clone(),
        config: args.config.clone(),
        frames: args.frames,
        trace_out: args.trace_out.clone(),
        validate_trace: args.validate_trace.clone(),
        json_out: args.json_out.clone(),
        faults: args.faults.clone(),
        matrix_configs: args.matrix_configs.clone(),
        socket: args.socket.clone(),
        cache_dir: args.cache_dir.clone(),
        jobs: args.jobs,
        queue: args.queue,
        seed_golden: args.seed_golden,
        job_file: args.job_file.clone(),
        pair_file: args.pair_file.clone(),
        stream_trace: args.stream_trace,
        timeout_ms: args.timeout_ms,
        ping: args.ping,
        recheck: args.recheck,
        stop_service: args.stop_service,
    }
}

fn trace_frame(args: &Args) {
    use fdb_core::trace::{JsonlFileSink, RingSink, TraceSink};
    use serde::Serialize;

    #[derive(Serialize)]
    struct Summary {
        seed: u64,
        dist_m: f64,
        payload_len: usize,
        mode: String,
        b_locked: bool,
        rx_sync_peak: f64,
        fully_delivered: bool,
        blocks_ok: usize,
        blocks_total: usize,
        pilots_verified: bool,
        feedback_bits: usize,
        aborted_at_sample: Option<usize>,
        samples_run: usize,
        trace_events: usize,
        trace_dropped: usize,
    }

    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = args.dist;
    let frame_cap = cfg.phy.trace_ring_capacity();
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let mut link = FdLink::new(cfg, &mut rng).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let payload: Vec<u8> = (0..args.payload_len).map(|i| (i % 251) as u8).collect();
    let opts = if args.full_duplex {
        RunOptions::fd_monitor()
    } else {
        RunOptions::half_duplex()
    };
    // Single-frame replay: frame 0 of the plan's schedule applies.
    let plan = args.faults.as_deref().map(load_fault_plan);
    let mut frame_faults = plan.as_ref().and_then(|p| p.frame_faults(0));

    // The frame's events go through a caller-owned sink: a JSONL file
    // with --trace-out, else an in-memory ring printed to stdout.
    if args.trace_out.is_some() && args.stage.is_some() {
        eprintln!("--stage filters stdout output only; ignored with --trace-out");
    }
    let mut file = args.trace_out.as_ref().map(|path| {
        JsonlFileSink::create(path)
            .unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            })
            .with_frame_cap(frame_cap)
    });
    let mut ring = RingSink::new(frame_cap);
    let sink: &mut dyn TraceSink = match file.as_mut() {
        Some(file) => file,
        None => &mut ring,
    };
    sink.begin_frame(0);
    let out = link
        .run_frame_with(
            &payload,
            &opts,
            &mut rng,
            FrameRun::faulted(frame_faults.as_mut()).with_sink(sink),
        )
        .expect("frame");
    sink.end_frame();
    let (trace_events, trace_dropped) = match file {
        Some(file) => {
            let summary = file.finish().unwrap_or_else(|e| {
                eprintln!("trace sink failed: {e}");
                std::process::exit(1);
            });
            (summary.events as usize, summary.dropped as usize)
        }
        None => {
            let trace = ring.trace();
            for ev in trace.events() {
                if args.stage.as_deref().is_some_and(|stage| ev.stage() != stage) {
                    continue;
                }
                println!("{}", serde_json::to_string(ev).expect("event serializes"));
            }
            (trace.len(), trace.dropped())
        }
    };

    let summary = Summary {
        seed: args.seed,
        dist_m: args.dist,
        payload_len: args.payload_len,
        mode: if args.full_duplex { "fd" } else { "hd" }.into(),
        b_locked: out.b_locked,
        rx_sync_peak: out.rx_sync_peak,
        fully_delivered: out.fully_delivered(),
        blocks_ok: out.blocks_ok(),
        blocks_total: out.blocks_total(),
        pilots_verified: out.pilots_verified,
        feedback_bits: out.feedback.len(),
        aborted_at_sample: out.aborted_at_sample,
        samples_run: out.samples_run,
        trace_events,
        trace_dropped,
    };
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
}

/// Per-frame two-stage acquisition report: one JSON line per frame with
/// the sync attempt/rejection counters, then a `summary` line. Works in
/// every build — everything comes off the [`fdb_core::link::FrameOutcome`].
fn sync_report(args: &Args) {
    use serde::Serialize;

    #[derive(Serialize)]
    struct FrameLine {
        frame: u64,
        locked: bool,
        fully_delivered: bool,
        sync_attempts: usize,
        sync_rejections: usize,
        sync_peak: f64,
        nack: bool,
    }

    #[derive(Serialize)]
    struct SummaryLine {
        summary: bool,
        config: String,
        seed: u64,
        frames: u64,
        locked: u64,
        fully_delivered: u64,
        sync_attempts: u64,
        sync_rejections: u64,
    }

    let (cfg, spec) = load_scenario(args, 20);
    let config_name = args.config.clone().unwrap_or_else(|| "default".into());
    let frames = spec.frames;

    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let mut link = FdLink::new(cfg, &mut rng).expect("validated config");
    let payload: Vec<u8> = (0..args.payload_len).map(|i| (i % 251) as u8).collect();
    let (mut locked, mut delivered, mut attempts, mut rejections) = (0u64, 0u64, 0u64, 0u64);
    for frame in 0..frames {
        let mut frame_faults = spec
            .faults
            .as_ref()
            .and_then(|plan| plan.frame_faults(frame));
        let out = link
            .run_frame_with(
                &payload,
                &RunOptions::fd_monitor(),
                &mut rng,
                FrameRun::faulted(frame_faults.as_mut()),
            )
            .expect("frame");
        locked += u64::from(out.b_locked);
        delivered += u64::from(out.fully_delivered());
        attempts += out.sync_attempts as u64;
        rejections += out.sync_rejections as u64;
        let line = FrameLine {
            frame,
            locked: out.b_locked,
            fully_delivered: out.fully_delivered(),
            sync_attempts: out.sync_attempts,
            sync_rejections: out.sync_rejections,
            sync_peak: out.rx_sync_peak,
            nack: out.nack,
        };
        println!("{}", serde_json::to_string(&line).expect("frame line serializes"));
    }
    let summary = SummaryLine {
        summary: true,
        config: config_name,
        seed: spec.seed,
        frames,
        locked,
        fully_delivered: delivered,
        sync_attempts: attempts,
        sync_rejections: rejections,
    };
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
}

/// Aggregate-metrics report over a batch of frames; with `--trace-out`,
/// every frame's diagnostic events stream to a JSONL file while the run
/// itself stays at constant resident memory.
fn link_report(args: &Args) {
    use serde::Serialize;

    #[derive(Serialize)]
    struct SummaryLine {
        summary: bool,
        config: String,
        metrics: fdb_sim::LinkMetrics,
        trace_out: Option<String>,
    }

    let (cfg, mut spec) = load_scenario(args, 20);
    if let Some(path) = &args.trace_out {
        spec = spec.with_trace(fdb_core::trace::TraceSinkSpec::jsonl(path.clone()));
    }
    let metrics = fdb_sim::run_link(&cfg, &spec, LinkRun::new()).unwrap_or_else(|e| {
        eprintln!("measurement failed: {e}");
        std::process::exit(1);
    });
    let summary = SummaryLine {
        summary: true,
        config: args.config.clone().unwrap_or_else(|| "default".into()),
        metrics,
        trace_out: args.trace_out.clone(),
    };
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
}

/// Adaptive-MAC ablation report (`probe mac`): loads an
/// [`fdb_sim::AblationPair`] from `--config`, runs both arms over the
/// same fault timeline, prints one JSON line per session slot per arm
/// and a closing summary with the goodput margin. Exits non-zero when
/// the adaptive arm misses the pair's `min_margin` — the CI regression
/// gate for the adaptive-MAC loop.
fn mac_report(args: &Args) {
    use serde::Serialize;

    #[derive(Serialize)]
    struct SlotLine {
        arm: String,
        record: fdb_mac::scenario::FrameRecord,
    }

    #[derive(Serialize)]
    struct ArmSummary {
        goodput_bps: f64,
        delivered_payloads: u64,
        failed_payloads: u64,
        false_acks: u64,
        attempts: u64,
        paused_slots: u64,
        aborted_frames: u64,
        rate_switches: u64,
        retransmit_passes: u64,
        blocks_dropped: u64,
        elapsed_samples: u64,
        ladder_trajectory: Vec<usize>,
    }

    #[derive(Serialize)]
    struct SummaryLine {
        summary: bool,
        config: String,
        label: String,
        adaptive: ArmSummary,
        oblivious: ArmSummary,
        margin: f64,
        min_margin: f64,
        pass: bool,
    }

    fn arm_summary(r: &fdb_mac::scenario::AdaptationReport) -> ArmSummary {
        ArmSummary {
            goodput_bps: r.goodput_bps(),
            delivered_payloads: r.delivered_payloads,
            failed_payloads: r.failed_payloads,
            false_acks: r.false_acks,
            attempts: r.attempts,
            paused_slots: r.paused_slots,
            aborted_frames: r.aborted_frames,
            rate_switches: r.rate_switches,
            retransmit_passes: r.retransmit_passes,
            blocks_dropped: r.blocks_dropped,
            elapsed_samples: r.elapsed_samples,
            ladder_trajectory: r.ladder_trajectory(),
        }
    }

    let Some(path) = &args.config else {
        eprintln!("probe mac needs --config with an ablation-pair JSON");
        usage();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut pair: fdb_sim::AblationPair = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("{path} invalid: {e}");
        std::process::exit(2);
    });
    if args.seed_given {
        pair.adaptive.seed = args.seed;
        pair.oblivious.seed = args.seed;
    }
    pair.link.validate().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let outcome = pair.run().unwrap_or_else(|e| {
        eprintln!("pair run failed: {e}");
        std::process::exit(1);
    });
    for (arm, report) in [
        ("adaptive", &outcome.adaptive),
        ("oblivious", &outcome.oblivious),
    ] {
        for record in &report.records {
            let line = SlotLine {
                arm: arm.to_string(),
                record: record.clone(),
            };
            println!("{}", serde_json::to_string(&line).expect("slot line serializes"));
        }
    }
    let summary = SummaryLine {
        summary: true,
        config: path.clone(),
        label: outcome.label.clone(),
        adaptive: arm_summary(&outcome.adaptive),
        oblivious: arm_summary(&outcome.oblivious),
        margin: outcome.margin,
        min_margin: outcome.min_margin,
        pass: outcome.pass,
    };
    println!("{}", serde_json::to_string(&summary).expect("summary serializes"));
    if !outcome.pass {
        eprintln!(
            "FAIL: adaptive/oblivious goodput margin {:.3} below required {:.3}",
            outcome.margin, outcome.min_margin
        );
        std::process::exit(1);
    }
}

/// `probe city`: run one event-driven city scenario and print its JSONL
/// report (one line per active-tag ledger, then a summary line). Exits 1
/// if the conservation invariant (`offered == delivered + lost +
/// pending`) is violated.
fn city_report(args: &Args) {
    use std::io::Write;

    let mut spec = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            serde_json::from_str::<fdb_sim::CityScenarioSpec>(&text).unwrap_or_else(|e| {
                eprintln!("{path} invalid: {e}");
                std::process::exit(2);
            })
        }
        None => fdb_sim::CityScenarioSpec::default(),
    };
    if args.seed_given {
        spec.seed = args.seed;
    }
    let start = std::time::Instant::now();
    let report = fdb_sim::CityEngine::run(&spec).unwrap_or_else(|e| {
        eprintln!("city run failed: {e}");
        std::process::exit(1);
    });
    let wall = start.elapsed();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    report.write_jsonl(&mut out).expect("stdout writable");
    out.flush().expect("stdout flush");
    if let Some(path) = &args.json_out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(path, json + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
    }
    eprintln!(
        "{}: {} events in {:.3} s wall ({:.0} events/s), peak queue {}",
        report.label,
        report.events_processed,
        wall.as_secs_f64(),
        report.events_processed as f64 / wall.as_secs_f64().max(1e-9),
        report.peak_queue,
    );
    if !report.totals.conserved() {
        eprintln!(
            "FAIL: conservation violated: offered {} != delivered {} + lost {} + pending {}",
            report.totals.offered,
            report.totals.delivered,
            report.totals.lost,
            report.totals.pending
        );
        std::process::exit(1);
    }
}

/// Default socket path shared by `serve` and `submit`.
fn socket_path(args: &Args) -> String {
    args.socket
        .clone()
        .unwrap_or_else(|| "target/fdb-service.sock".to_string())
}

/// `probe serve`: bind the job service on a Unix socket and run until a
/// client sends `Shutdown`. Prints one readiness line to stdout once the
/// socket is listening (CI waits for it before submitting).
#[cfg(unix)]
fn serve_cmd(args: &Args) {
    use std::io::Write;
    use std::sync::Arc;

    let socket = socket_path(args);
    let cache_dir = args
        .cache_dir
        .clone()
        .unwrap_or_else(|| "target/fdb-cache".to_string());
    let mut config = fdb_service::ServiceConfig::new(&cache_dir);
    config.workers = args.jobs;
    config.max_queue = args.queue;
    if args.seed_golden {
        config.seed_golden_from = Some(std::path::PathBuf::from("."));
    }
    let service = Arc::new(fdb_service::Service::start(config).unwrap_or_else(|e| {
        eprintln!("service failed to start: {e}");
        std::process::exit(1);
    }));
    println!(
        "{{\"serving\":\"{socket}\",\"cache_dir\":\"{cache_dir}\",\"workers\":{},\"queue\":{},\"cache_entries\":{}}}",
        args.jobs,
        args.queue,
        service.store().len()
    );
    let _ = std::io::stdout().flush();
    let serve_on = std::path::Path::new(&socket);
    fdb_service::serve_unix(Arc::clone(&service), serve_on).unwrap_or_else(|e| {
        eprintln!("serve loop failed: {e}");
        std::process::exit(1);
    });
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => eprintln!("warning: connections still referenced the service at exit"),
    }
}

/// `probe submit`: send one request to a running service and relay the
/// response stream. Progress goes to stderr; streamed trace chunks go to
/// `--trace-out` (verbatim JSONL); the result JSON and then a
/// `{"summary":true,...,"cached":...}` line go to stdout.
#[cfg(unix)]
fn submit_cmd(args: &Args) {
    use fdb_service::{Request, Response};
    use std::io::Write;

    let socket = socket_path(args);
    let mut client =
        fdb_service::Client::connect(std::path::Path::new(&socket)).unwrap_or_else(|e| {
            eprintln!("cannot connect to {socket}: {e}");
            std::process::exit(1);
        });
    let recv = |client: &mut fdb_service::Client| {
        client
            .recv()
            .unwrap_or_else(|e| {
                eprintln!("connection error: {e}");
                std::process::exit(1);
            })
            .unwrap_or_else(|| {
                eprintln!("service hung up");
                std::process::exit(1);
            })
    };

    // Control-plane requests first: each is a single request/response.
    if args.ping {
        client.send(&Request::Ping).expect("send ping");
        let resp = recv(&mut client);
        println!("{}", serde_json::to_string(&resp).expect("pong serializes"));
        return;
    }
    if let Some(sample_every) = args.recheck {
        client
            .send(&Request::Recheck { sample_every })
            .expect("send recheck");
        let resp = recv(&mut client);
        println!("{}", serde_json::to_string(&resp).expect("report serializes"));
        if let Response::RecheckReport { mismatched, .. } = &resp {
            if !mismatched.is_empty() {
                eprintln!("FAIL: {} cache entries no longer reproduce", mismatched.len());
                std::process::exit(1);
            }
        }
        return;
    }
    if args.stop_service {
        client.send(&Request::Shutdown).expect("send shutdown");
        let resp = recv(&mut client);
        println!("{}", serde_json::to_string(&resp).expect("ack serializes"));
        return;
    }

    let job = build_job(args);
    client
        .send(&Request::Submit {
            job,
            stream_trace: args.stream_trace,
            timeout_ms: args.timeout_ms,
        })
        .expect("send job");

    let mut trace_out = args.trace_out.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        })
    });
    loop {
        match recv(&mut client) {
            Response::Accepted { id, job_hash, kind } => {
                eprintln!("accepted: id={id} kind={kind} hash={job_hash}");
            }
            Response::Rejected { reason } => {
                eprintln!("rejected: {reason}");
                std::process::exit(1);
            }
            Response::Progress { done, total, .. } => {
                eprintln!("progress: {done}/{total}");
            }
            Response::Trace { text, .. } => match &mut trace_out {
                Some(file) => file.write_all(text.as_bytes()).unwrap_or_else(|e| {
                    eprintln!("trace write failed: {e}");
                    std::process::exit(1);
                }),
                None => print!("{text}"),
            },
            Response::Done {
                id,
                job_hash,
                cached,
                result,
            } => {
                println!("{}", serde_json::to_string(&result).expect("result serializes"));
                println!(
                    "{{\"summary\":true,\"id\":{id},\"job_hash\":\"{job_hash}\",\"cached\":{cached}}}"
                );
                return;
            }
            Response::Failed { error, .. } => {
                eprintln!("failed: {error}");
                std::process::exit(1);
            }
            Response::Cancelled { frames_done, .. } => {
                eprintln!("cancelled after {frames_done} units");
                std::process::exit(1);
            }
            other => {
                eprintln!("unexpected response: {other:?}");
                std::process::exit(1);
            }
        }
    }
}

/// Builds the `JobSpec` a `probe submit` invocation describes:
/// `--job PATH` (raw spec JSON) > `--pair PATH` (ablation pair) >
/// `--config`/defaults (link job via [`load_scenario`]).
#[cfg(unix)]
fn build_job(args: &Args) -> fdb_sim::JobSpec {
    if let Some(path) = &args.job_file {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        return serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("{path} invalid: {e}");
            std::process::exit(2);
        });
    }
    if let Some(path) = &args.pair_file {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let mut pair: fdb_sim::AblationPair = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("{path} invalid: {e}");
            std::process::exit(2);
        });
        if args.seed_given {
            pair.adaptive.seed = args.seed;
            pair.oblivious.seed = args.seed;
        }
        return fdb_sim::JobSpec::Ablation { pair };
    }
    let (link, spec) = load_scenario(args, 20);
    fdb_sim::JobSpec::Link { link, spec }
}

#[cfg(not(unix))]
fn serve_cmd(_args: &Args) {
    eprintln!("probe serve needs a Unix socket; unsupported on this platform");
    std::process::exit(2);
}

#[cfg(not(unix))]
fn submit_cmd(_args: &Args) {
    eprintln!("probe submit needs a Unix socket; unsupported on this platform");
    std::process::exit(2);
}

/// Parses a trace JSONL file line-by-line, exiting non-zero with the
/// offending line number on the first parse failure.
fn validate_trace(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let (mut events, mut frames) = (0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        match parse_trace_line(line) {
            Ok(fdb_core::trace::TraceLine::Event(_)) => events += 1,
            Ok(fdb_core::trace::TraceLine::FrameEnd { .. }) => frames += 1,
            Ok(fdb_core::trace::TraceLine::FrameStart { .. }) => {}
            Err(e) => {
                eprintln!("{path}:{}: {e}", i + 1);
                std::process::exit(1);
            }
        }
    }
    println!(
        "{{\"validated\":\"{path}\",\"frames\":{frames},\"events\":{events}}}"
    );
}
