//! `service_mix`: an in-process `serve_unix` server (2 workers) driven
//! closed-loop by 2 socket `Client`s. Each client submits small link jobs
//! and re-submits about one in four of its own earlier jobs, which the
//! service must answer from its result cache.

use crate::probe::SpeedTrack;
use crate::spans::Spans;
use crate::stats::{min_samples_for, percentile, Tally};
use crate::{Ctx, Report};
use fdb_core::hash::fnv1a64;
use fdb_core::link::LinkConfig;
use fdb_core::seed::derive_seed;
use fdb_service::{serve_unix, Client, Request, Response, Service, ServiceConfig};
use fdb_sim::{JobSpec, MeasureSpec, RunControl};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const PAYLOAD_LEN: usize = 32;
/// Frames per job: one size, so latency percentiles sit inside one mode.
const FRAMES: u64 = 4;
/// Every n-th cold job is re-run directly and compared byte for byte.
const DIRECT_EVERY: usize = 16;
/// In traced runs, every n-th cold job is re-run directly for timing.
const DIRECT_EVERY_TRACED: usize = 4;
const PINGS: usize = 101;

/// The jobs one client has planned and what came back.
struct ClientState {
    index: u64,
    plan_seed: u64,
    link: LinkConfig,
    submitted: u64,
    /// Spec seed of each cold job, and a digest of its result bytes (the
    /// bytes themselves are kept for every `keep_every`-th cold job, which
    /// is re-run directly): the client's own memory stays small next to
    /// the service's, whose peak the run reports.
    cold_seeds: Vec<u64>,
    cold_digests: Vec<u64>,
    kept: Vec<(usize, String)>,
    keep_every: usize,
    /// Submit → `Done` of each cold job and each cache hit.
    cold_spans: Vec<(Instant, Instant)>,
    hit_spans: Vec<(Instant, Instant)>,
    planned_hits: u64,
    tally: Tally,
    mismatches: Vec<String>,
    spans: Spans,
}

impl ClientState {
    /// The client's next job: a repeat of one of its own earlier jobs
    /// (`Some(index)`) about one time in four, else a new one.
    fn next_job(&mut self) -> (Option<usize>, u64) {
        let n = self.submitted;
        self.submitted += 1;
        let h = derive_seed(self.plan_seed, n);
        let cold = self.cold_seeds.len();
        if cold >= 4 && h.is_multiple_of(4) {
            let i = ((h >> 8) % cold as u64) as usize;
            return (Some(i), self.cold_seeds[i]);
        }
        (None, derive_seed(self.plan_seed ^ 0x5EED, n))
    }

    fn fail(&mut self, what: String) {
        self.tally.check(false);
        if self.mismatches.len() < 10 {
            self.mismatches.push(what);
        }
    }

    /// Submits closed-loop until `until`.
    fn drive(&mut self, client: &mut Client, until: Instant) {
        while Instant::now() < until {
            let (repeat, seed) = self.next_job();
            let job = link_job(&self.link, seed);
            let id = (self.index << 32) | self.submitted;
            let t0 = Instant::now();
            let job_span = self.spans.open("job", id, None, t0);
            let sent = client.send(&Request::Submit {
                job,
                stream_trace: false,
                timeout_ms: 0,
            });
            if let Err(e) = sent {
                self.fail(format!("send: {e}"));
                return;
            }
            let mut accepted = None;
            let terminal = loop {
                match client.recv() {
                    Ok(Some(Response::Accepted { .. })) => accepted = Some(Instant::now()),
                    Ok(Some(Response::Progress { .. })) => {}
                    Ok(Some(r)) => break Ok(r),
                    Ok(None) => break Err("service hung up".to_string()),
                    Err(e) => break Err(e.to_string()),
                }
            };
            let t1 = Instant::now();
            let span = (t0, t1);
            self.spans.close(job_span, t1);
            if let Some(a) = accepted {
                self.spans.record("admit", id, job_span, t0, a);
                self.spans.record("result", id, job_span, a, t1);
            }
            match terminal {
                Ok(Response::Done { cached, result, .. }) => {
                    let bytes = serde_json::to_string(&result).expect("result re-serializes");
                    match (repeat, cached) {
                        (None, false) => {
                            self.tally.check(true);
                            let i = self.cold_seeds.len();
                            if i.is_multiple_of(self.keep_every) {
                                self.kept.push((i, bytes.clone()));
                            }
                            self.cold_seeds.push(seed);
                            self.cold_digests.push(fnv1a64(bytes.as_bytes()));
                            self.cold_spans.push(span);
                        }
                        (Some(i), true) => {
                            self.planned_hits += 1;
                            self.hit_spans.push(span);
                            let same = fnv1a64(bytes.as_bytes()) == self.cold_digests[i];
                            if same {
                                self.tally.check(true);
                            } else {
                                self.fail(format!(
                                    "cache hit for job {i} differs from its cold result"
                                ));
                            }
                        }
                        (None, true) => self.fail("a new job was answered from the cache".into()),
                        (Some(i), false) => {
                            self.planned_hits += 1;
                            self.fail(format!("repeat of job {i} was recomputed, not cached"));
                        }
                    }
                }
                Ok(other) => {
                    self.planned_hits += u64::from(repeat.is_some());
                    self.fail(format!("job ended with {other:?}"));
                }
                Err(e) => {
                    self.fail(e);
                    return;
                }
            }
        }
    }
}

/// The mix's job: a few 32 B frames on the locked link.
fn link_job(link: &LinkConfig, seed: u64) -> JobSpec {
    JobSpec::Link {
        link: link.clone(),
        spec: MeasureSpec {
            frames: FRAMES,
            payload_len: PAYLOAD_LEN,
            seed,
            feedback_probe: Some(false),
            ..MeasureSpec::default()
        },
    }
}

/// A running server with its connected clients.
struct Running {
    service: Arc<Service>,
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Starts the service with its cache under `dir` (which must be empty),
/// serves it on a socket, connects the clients, pings once through each and
/// runs one discarded warm-up job — the run's only cache entry that no
/// client repeats.
fn start(dir: &Path, warmup: &JobSpec) -> Result<Running, String> {
    let mut config = ServiceConfig::new(dir.join("cache"));
    config.workers = WORKERS;
    let service = Arc::new(Service::start(config).map_err(|e| format!("service start: {e}"))?);
    let sock = dir.join("s.sock");
    let server = {
        let service = Arc::clone(&service);
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(service, &sock))
    };
    let mut clients = Vec::new();
    let t0 = Instant::now();
    while clients.len() < CLIENTS {
        match Client::connect(&sock) {
            Ok(c) => clients.push(c),
            Err(_) if t0.elapsed() < Duration::from_secs(10) && !server.is_finished() => {
                std::thread::yield_now()
            }
            Err(e) => return Err(format!("connect {}: {e}", sock.display())),
        }
    }
    let mut running = Running {
        service,
        server,
        clients,
    };
    for c in 0..CLIENTS {
        ping(&mut running.clients[c])?;
    }
    let client = &mut running.clients[0];
    let submit = Request::Submit {
        job: warmup.clone(),
        stream_trace: false,
        timeout_ms: 0,
    };
    client.send(&submit).map_err(|e| e.to_string())?;
    loop {
        match client.recv() {
            Ok(Some(Response::Done { cached: false, .. })) => break,
            Ok(Some(Response::Accepted { .. } | Response::Progress { .. })) => {}
            other => return Err(format!("warm-up job answered with {other:?}")),
        }
    }
    Ok(running)
}

fn ping(client: &mut Client) -> Result<(), String> {
    client.send(&Request::Ping).map_err(|e| e.to_string())?;
    match client.recv() {
        Ok(Some(Response::Pong { .. })) => Ok(()),
        other => Err(format!("ping answered with {other:?}")),
    }
}

/// Shuts the server down and waits for every thread it started.
fn stop(mut running: Running) -> Result<(), String> {
    let mut last = running.clients.pop().expect("a client");
    running.clients.clear();
    last.send(&Request::Shutdown).map_err(|e| e.to_string())?;
    while let Ok(Some(r)) = last.recv() {
        if matches!(r, Response::ShuttingDown) {
            break;
        }
    }
    drop(last);
    let served = running
        .server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    served.map_err(|e| format!("serve_unix: {e}"))?;
    match Arc::try_unwrap(running.service) {
        Ok(service) => service.shutdown(),
        Err(_) => return Err("service still shared after the server stopped".into()),
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map(|m| m.len()).unwrap_or(0),
        })
        .sum()
}

/// One closed-loop slice: both clients submitting until its end.
struct Slice {
    start: Instant,
    end: Instant,
    jobs: usize,
}

/// Jobs per nominal second over all `slices`.
fn job_rate(slices: &[Slice], speed: &SpeedTrack) -> f64 {
    let jobs: usize = slices.iter().map(|s| s.jobs).sum();
    jobs as f64
        / slices
            .iter()
            .map(|s| speed.nominal_s(s.start, s.end))
            .sum::<f64>()
}

/// Median over slices of jobs per nominal second.
fn median_slice_rate(slices: &[Slice], speed: &SpeedTrack) -> f64 {
    let mut rates: Vec<f64> = slices
        .iter()
        .map(|s| s.jobs as f64 / speed.nominal_s(s.start, s.end))
        .collect();
    crate::stats::median(&mut rates)
}

/// Length of one closed-loop slice; the host's speed is probed between
/// slices, while the service is idle.
const SLICE: Duration = Duration::from_secs(1);

/// Runs both clients concurrently, one slice at a time, until `seconds`
/// are up and at least `min_cold` cold jobs are in (or three times
/// `seconds` have passed).
fn phase(
    running: &mut Running,
    states: &mut [ClientState],
    speed: &mut SpeedTrack,
    seconds: f64,
    min_cold: usize,
) -> Vec<Slice> {
    let cold0: usize = states.iter().map(|s| s.cold_spans.len()).sum();
    let start = Instant::now();
    let mut slices = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let cold = states.iter().map(|s| s.cold_spans.len()).sum::<usize>() - cold0;
        if elapsed >= 3.0 * seconds || (elapsed >= seconds && cold >= min_cold) {
            break;
        }
        speed.probe();
        let done0 = completed(states);
        let t0 = Instant::now();
        let until = t0 + SLICE.min(Duration::from_secs_f64(seconds));
        std::thread::scope(|s| {
            for (client, state) in running.clients.iter_mut().zip(states.iter_mut()) {
                s.spawn(move || state.drive(client, until));
            }
        });
        slices.push(Slice {
            start: t0,
            end: Instant::now(),
            jobs: completed(states) - done0,
        });
    }
    speed.probe();
    slices
}

/// Jobs completed so far, cold and cached.
fn completed(states: &[ClientState]) -> usize {
    states
        .iter()
        .map(|s| s.cold_spans.len() + s.hit_spans.len())
        .sum()
}

fn ms(spans: &[(Instant, Instant)], speed: Option<&SpeedTrack>) -> Vec<f64> {
    spans
        .iter()
        .map(|&(a, b)| match speed {
            Some(sp) => sp.nominal_s(a, b) * 1e3,
            None => b.duration_since(a).as_secs_f64() * 1e3,
        })
        .collect()
}

pub fn run(ctx: &mut Ctx, out: &mut Report) -> Result<(), String> {
    let base = crate::link::load_scenario("configs/near_tower.json")?;
    if ctx.write_expected {
        out.pin(ctx, Value::Null);
        return Ok(());
    }

    let dir: PathBuf = ctx.scratch.clone();
    let mut setup_s = Vec::new();
    let mut running = None;
    for rep in 0..crate::SETUP_REPS {
        if let Some(r) = running.take() {
            stop(r)?;
        }
        fresh_dir(&dir)?;
        let warmup = link_job(&base.link, derive_seed(ctx.seed, u64::MAX - rep));
        ctx.speed.probe();
        let t0 = Instant::now();
        running = Some(start(&dir, &warmup)?);
        let t1 = Instant::now();
        ctx.speed.probe();
        setup_s.push((t0, t1));
    }
    let mut running = running.expect("at least one set-up");

    let mut states: Vec<ClientState> = (0..CLIENTS as u64)
        .map(|c| ClientState {
            index: c,
            plan_seed: derive_seed(ctx.seed, 0xC1_0000 + c),
            link: base.link.clone(),
            submitted: 0,
            cold_seeds: Vec::new(),
            cold_digests: Vec::new(),
            kept: Vec::new(),
            keep_every: if ctx.trace {
                DIRECT_EVERY_TRACED
            } else {
                DIRECT_EVERY
            },
            cold_spans: Vec::new(),
            hit_spans: Vec::new(),
            planned_hits: 0,
            tally: Tally::default(),
            mismatches: Vec::new(),
            spans: Spans::new(ctx.origin, false),
        })
        .collect();

    let min_cold = if ctx.trace { 0 } else { min_samples_for(99.0) };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(&mut running, &mut states, &mut ctx.speed, seconds, min_cold);
    let traced = if ctx.trace {
        for st in states.iter_mut() {
            st.spans = Spans::new(ctx.origin, true);
        }
        Some(phase(&mut running, &mut states, &mut ctx.speed, seconds, 0))
    } else {
        None
    };

    // Pings before shutdown (traced runs report their latency).
    let mut ping_ms = Vec::new();
    if ctx.trace {
        for _ in 0..PINGS {
            let t0 = Instant::now();
            ping(&mut running.clients[0])?;
            ping_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let store = Arc::clone(running.service.store());
    let (hits, misses) = (store.hits(), store.misses());
    let cache_bytes = dir_bytes(&dir.join("cache"));
    drop(store);
    stop(running)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Planned mix (plus the set-up's warm-up miss) versus the cache's own
    // counters.
    let planned_hits: u64 = states.iter().map(|s| s.planned_hits).sum();
    let planned_misses: u64 = 1 + states
        .iter()
        .map(|s| s.cold_seeds.len() as u64)
        .sum::<u64>();
    out.check(hits == planned_hits && misses == planned_misses, || {
        format!(
            "cache counted {hits} hits / {misses} misses, the mix planned \
             {planned_hits} / {planned_misses}"
        )
    });
    // Kept cold results against direct runs of the same jobs.
    let mut direct_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for st in &states {
        for (i, bytes) in &st.kept {
            let t0 = Instant::now();
            let res = link_job(&st.link, st.cold_seeds[*i]).run(RunControl::new());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok(r) => {
                    let same = r.canonical_json() == *bytes;
                    out.check(same, || {
                        format!(
                            "client {} job {i}: served result differs from a direct run",
                            st.index
                        )
                    });
                    let (a, b) = st.cold_spans[*i];
                    direct_ms.push(ms);
                    overhead_ms.push(b.duration_since(a).as_secs_f64() * 1e3 - ms);
                }
                Err(e) => out.mismatch(format!("direct run of job {i}: {e}")),
            }
        }
    }

    let cold: Vec<(Instant, Instant)> = states.iter().flat_map(|s| s.cold_spans.clone()).collect();
    let hit: Vec<(Instant, Instant)> = states.iter().flat_map(|s| s.hit_spans.clone()).collect();
    let mut spans = Spans::new(ctx.origin, ctx.trace);
    for st in states.iter_mut() {
        out.tally.merge(st.tally);
        for m in st.mismatches.drain(..) {
            out.describe_mismatch(m);
        }
        spans.absorb(std::mem::replace(
            &mut st.spans,
            Spans::new(ctx.origin, false),
        ));
    }
    if let Some(traced) = traced {
        let plain_rate = job_rate(&plain, &ctx.speed);
        let traced_rate = job_rate(&traced, &ctx.speed);
        out.layer(
            "trace.overhead_frac",
            plain_rate / traced_rate - 1.0,
            "ratio",
        );
        ctx.write_spans(&spans)?;
        out.layer("service.ping_ms_p50", percentile(&mut ping_ms, 50.0)?, "ms");
        let mut hash_ns = 0u128;
        let mut hashed = 0u32;
        for st in &states {
            for &seed in &st.cold_seeds {
                let job = link_job(&st.link, seed);
                let t0 = Instant::now();
                std::hint::black_box(job.content_hash());
                hash_ns += t0.elapsed().as_nanos();
                hashed += 1;
            }
        }
        out.layer(
            "sim.job.hash_us",
            hash_ns as f64 * 1e-3 / f64::from(hashed.max(1)),
            "us",
        );
        out.layer(
            "sim.job.run_ms_p50",
            percentile(&mut direct_ms, 50.0)?,
            "ms",
        );
        out.layer(
            "service.overhead_ms_p50",
            percentile(&mut overhead_ms, 50.0)?,
            "ms",
        );
        out.layer(
            "service.hit_ms_p50",
            percentile(&mut ms(&hit, None), 50.0)?,
            "ms",
        );
        out.layer(
            "service.job_ms_p50",
            percentile(&mut ms(&cold, None), 50.0)?,
            "ms",
        );
        out.layer("service.cache.hits", hits as f64, "count");
        out.layer("service.cache.misses", misses as f64, "count");
        out.layer(
            "service.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        out.layer("service.cache.bytes", cache_bytes as f64, "bytes");
        return Ok(());
    }

    let setup = out.setups(&ctx.speed, &setup_s);
    out.end_to_end(
        setup,
        median_slice_rate(&plain, &ctx.speed),
        percentile(&mut ms(&cold, Some(&ctx.speed)), 50.0)?,
    );
    let plain_jobs: usize = plain.iter().map(|s| s.jobs).sum();
    let plain_wall: f64 = plain
        .iter()
        .map(|s| s.end.duration_since(s.start).as_secs_f64())
        .sum();
    let mut cold_ms = ms(&cold, None);
    out.named("job_ms_p50", percentile(&mut cold_ms, 50.0)?, "ms");
    out.named("job_ms_p90", percentile(&mut cold_ms, 90.0)?, "ms");
    out.named("job_ms_p99", percentile(&mut cold_ms, 99.0)?, "ms");
    out.named("hit_ms_p50", percentile(&mut ms(&hit, None), 50.0)?, "ms");
    out.named("jobs_per_s", plain_jobs as f64 / plain_wall, "1/s");
    out.note(
        "cache",
        Value::Object(vec![
            ("hits".into(), Value::Uint(hits)),
            ("misses".into(), Value::Uint(misses)),
            ("bytes".into(), Value::Uint(cache_bytes)),
        ]),
    );
    out.note("cold_jobs", Value::Uint(cold.len() as u64));
    out.note("hit_jobs", Value::Uint(hit.len() as u64));
    Ok(())
}
