//! The job service: a bounded queue, persistent worker threads and the
//! result cache behind one protocol entry point, plus the Unix-socket
//! transport.
//!
//! [`Service`] owns everything a job touches: the queue, the workers, the
//! [`ResultStore`], the table of live jobs' cancel flags and the one
//! `stopping` flag. [`Service::handle`] maps a [`Request`] to its
//! [`Response`] stream, handing each line to the caller's `emit` callback.
//!
//! A submission is validated, given its id and content hash, and answered
//! with `Accepted` on the submitting thread before any worker can see it.
//! Untraced submissions whose content address is in the store are then
//! replayed as `Done` on the same thread, without occupying a worker;
//! computed results are inserted on completion. Everything else goes on
//! the queue, whose bound refuses (rather than blocks) excess work. A
//! submitter reserves its queue slot under the queue lock, emits
//! `Accepted` outside it, and only then pushes the job, so the bound is
//! exact under concurrent submitters and a slow client never stalls the
//! workers.
//!
//! A running job's lines are all written by the worker thread that runs
//! it. Its cancel flag and wall-clock deadline are folded into the
//! cooperative predicate [`JobSpec::run`] polls between frames; a timeout
//! is told apart from a cancel by a flag the deadline check sets. A line
//! that cannot be written (the client hung up) sets the cancel flag too,
//! so an abandoned job stops at its next poll. A
//! trace-streaming link job hands its [`JsonlFileSink`] a callback that
//! emits each finished frame's block as a `Trace` line, so frame `k`'s
//! trace goes out just before its `Progress` line, paced by the same
//! client socket. Trace-streaming submissions bypass the cache in both
//! directions: their metrics carry sink counters, which must not leak
//! into replies to untraced submissions of the same job. Only link jobs
//! have a per-frame trace, so a trace-streaming submission of any other
//! kind is refused as invalid.
//!
//! The transport is [`serve_unix`]: line-delimited JSON over
//! `UnixListener`, one thread per connection, responses written onto the
//! connection under a write lock so lines from worker threads never tear.
//! A [`Request::Shutdown`] from any connection stops the accept loop and
//! removes the socket file; [`Service::shutdown`] then drains the queue.

use serde::Serialize;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fdb_core::trace::JsonlFileSink;
use fdb_sim::{JobProgress, JobSpec, RunControl};

use crate::cache::ResultStore;
use crate::protocol::{Request, Response};

/// Construction parameters for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (min 1).
    pub workers: usize,
    /// Bound on jobs waiting in the queue; submissions past it are
    /// refused with a `queue full` rejection.
    pub max_queue: usize,
    /// Root directory of the content-addressed result store.
    pub cache_dir: PathBuf,
    /// When set, seed the store from this repo root's golden corpus
    /// (`configs/` + `results/golden/`) before accepting work.
    pub seed_golden_from: Option<PathBuf>,
}

impl ServiceConfig {
    /// Two workers, queue depth 32, cache under `cache_dir`, no seeding.
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            workers: 2,
            max_queue: 32,
            cache_dir: cache_dir.into(),
            seed_golden_from: None,
        }
    }
}

/// Where a request's response lines go: the submitting connection's
/// writer. An `Err` means the line did not reach the client; the first
/// one a running job meets cancels that job, since nobody is left to
/// read its output.
pub type Emit = Arc<dyn Fn(Response) -> std::io::Result<()> + Send + Sync>;

const SHUTTING_DOWN: &str = "service is shutting down";

/// An admitted job waiting for a worker.
struct Queued {
    id: u64,
    job_hash: String,
    job: JobSpec,
    stream_trace: bool,
    timeout: Option<Duration>,
    cancel: Arc<AtomicBool>,
    emit: Emit,
}

struct Queue {
    jobs: VecDeque<Queued>,
    /// Slots held by submitters between their bound check and their push.
    reserved: usize,
    /// Set by [`Request::Shutdown`] or [`Service::shutdown`]: new
    /// submissions are refused, and workers exit once nothing more can
    /// reach the queue.
    stopping: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    max_queue: usize,
    store: Arc<ResultStore>,
    /// Cancel flags of admitted jobs that have not sent their terminal
    /// line, keyed by job id.
    live: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    running: AtomicU64,
    next_id: AtomicU64,
}

/// The assembled job service: queue, workers, result store and live-job
/// table.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Opens the store (seeding the golden corpus when asked) and spawns
    /// the workers.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        let store = Arc::new(ResultStore::open(&config.cache_dir)?);
        if let Some(repo_root) = &config.seed_golden_from {
            store.seed_from_golden(repo_root)?;
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                reserved: 0,
                stopping: false,
            }),
            available: Condvar::new(),
            max_queue: config.max_queue.max(1),
            store,
            live: Mutex::new(HashMap::new()),
            running: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fdb-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Ok(Service { shared, workers })
    }

    /// The store backing this service.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.shared.store
    }

    /// Stops accepting work, fails every job still queued, and joins the
    /// workers (jobs already running finish normally; cancel them first
    /// for a fast stop).
    pub fn shutdown(self) {
        let drained: Vec<Queued> = {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            queue.stopping = true;
            queue.jobs.drain(..).collect()
        };
        self.shared.available.notify_all();
        for job in drained {
            self.shared
                .live
                .lock()
                .expect("live-job lock")
                .remove(&job.id);
            let _ = (job.emit)(Response::Failed {
                id: job.id,
                error: "service shut down before the job started".to_string(),
            });
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Dispatches one request; every response (zero or more lines, in
    /// order) lands on `emit` — possibly from worker threads after this
    /// call returns. Returns `false` when the request was [`Request::Shutdown`]
    /// and the transport should stop reading.
    pub fn handle(&self, req: Request, emit: Emit) -> bool {
        match req {
            Request::Submit {
                job,
                stream_trace,
                timeout_ms,
            } => self.submit(job, stream_trace, timeout_ms, emit),
            Request::Cancel { id } => {
                let known = match self.shared.live.lock().expect("live-job lock").get(&id) {
                    Some(flag) => {
                        flag.store(true, Ordering::SeqCst);
                        true
                    }
                    None => false,
                };
                let _ = emit(Response::CancelAck { id, known });
            }
            Request::Ping => {
                // Workers count a job as running under the queue lock, as
                // they take it off the queue, so no job is missed by both.
                let (running, queued) = {
                    let queue = self.shared.queue.lock().expect("queue lock");
                    let running = self.shared.running.load(Ordering::Relaxed);
                    (running, queue.jobs.len() as u64)
                };
                let store = &self.shared.store;
                let _ = emit(Response::Pong {
                    running,
                    queued,
                    cache_entries: store.len(),
                    cache_hits: store.hits(),
                    cache_misses: store.misses(),
                });
            }
            Request::Recheck { sample_every } => {
                let out = self.shared.store.recheck(sample_every);
                let _ = emit(Response::RecheckReport {
                    checked: out.checked,
                    matched: out.matched,
                    mismatched: out.mismatched,
                });
            }
            Request::Shutdown => {
                self.shared.queue.lock().expect("queue lock").stopping = true;
                self.shared.available.notify_all();
                let _ = emit(Response::ShuttingDown);
                return false;
            }
        }
        true
    }

    fn submit(&self, job: JobSpec, stream_trace: bool, timeout_ms: u64, emit: Emit) {
        let reject = |reason: String| {
            let _ = emit(Response::Rejected { reason });
        };
        if self.shared.queue.lock().expect("queue lock").stopping {
            return reject(SHUTTING_DOWN.to_string());
        }
        if stream_trace && !fdb_core::trace::ENABLED {
            return reject("trace streaming requires an `fdb-core/trace` build".to_string());
        }
        if stream_trace && !matches!(job, JobSpec::Link { .. }) {
            return reject(format!(
                "invalid job: trace streaming needs a link job; {} jobs have no per-frame trace",
                job.kind()
            ));
        }
        if let Err(why) = job.validate() {
            return reject(format!("invalid job: {why}"));
        }
        let hash = job.content_hash();
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let job_hash = hash.to_hex();
        let accepted = Response::Accepted {
            id,
            job_hash: job_hash.clone(),
            kind: job.kind().to_string(),
        };
        // Cache replay: untraced submissions only (see module docs).
        if !stream_trace {
            if let Some(hit) = self.shared.store.lookup(&hash) {
                let _ = emit(accepted);
                let _ = emit(Response::Done {
                    id,
                    job_hash,
                    cached: true,
                    result: hit.result,
                });
                return;
            }
        }
        let reserved = {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            let depth = queue.jobs.len() + queue.reserved;
            if queue.stopping {
                Err(SHUTTING_DOWN.to_string())
            } else if depth >= self.shared.max_queue {
                Err(format!("queue full ({depth} jobs waiting)"))
            } else {
                queue.reserved += 1;
                Ok(())
            }
        };
        if let Err(reason) = reserved {
            return reject(reason);
        }
        let cancel = Arc::new(AtomicBool::new(false));
        self.shared
            .live
            .lock()
            .expect("live-job lock")
            .insert(id, Arc::clone(&cancel));
        if emit(accepted).is_err() {
            cancel.store(true, Ordering::SeqCst);
        }
        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            queue.reserved -= 1;
            queue.jobs.push_back(Queued {
                id,
                job_hash,
                job,
                stream_trace,
                timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
                cancel,
                emit,
            });
        }
        self.shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    shared.running.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                if queue.stopping && queue.reserved == 0 {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        let terminal = execute(shared, &job);
        // The job leaves the live table and the running count before its
        // terminal line, so a `Cancel` or `Ping` sent after that line
        // never sees it.
        shared.live.lock().expect("live-job lock").remove(&job.id);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        let _ = (job.emit)(terminal);
    }
}

/// Runs one job and returns its terminal line.
fn execute(shared: &Shared, job: &Queued) -> Response {
    let Queued {
        id,
        ref job_hash,
        job: ref spec,
        stream_trace,
        timeout,
        ref cancel,
        ref emit,
    } = *job;
    let deadline = timeout.map(|t| Instant::now() + t);
    let timed_out = Cell::new(false);
    let cancel_pred = || {
        if cancel.load(Ordering::Relaxed) {
            return true;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            timed_out.set(true);
            return true;
        }
        false
    };
    // A line that cannot reach the client cancels the job (see `Emit`).
    let send = |resp: Response| {
        if emit(resp).is_err() {
            cancel.store(true, Ordering::SeqCst);
        }
    };
    let mut progress = |p: JobProgress| {
        send(Response::Progress {
            id,
            done: p.done,
            total: p.total,
        })
    };
    let ctrl = RunControl::new()
        .with_cancel(&cancel_pred)
        .with_progress(&mut progress);
    let outcome = match spec {
        // `submit` admits trace streaming for link jobs only. The frame
        // cap matches the one a spec-built file sink uses for this job,
        // so the streamed blocks equal the file a direct traced run
        // writes, even for configs with a custom cap.
        JobSpec::Link { link, .. } if stream_trace => {
            let mut sink = JsonlFileSink::from_fn(|frame, text| {
                send(Response::Trace {
                    id,
                    frame,
                    text: text.to_string(),
                });
                Ok(())
            })
            .with_frame_cap(link.phy.trace_ring_capacity());
            spec.run(ctrl.with_sink(&mut sink))
        }
        _ => spec.run(ctrl),
    };

    match outcome {
        Ok(result) => {
            // The result's tree writes the result's canonical bytes.
            let result = result.to_value();
            if !stream_trace {
                // Best-effort: a failed insert only costs future replays.
                let _ = shared.store.insert(spec, &result, "computed");
            }
            Response::Done {
                id,
                job_hash: job_hash.clone(),
                cached: false,
                result,
            }
        }
        Err(fdb_core::PhyError::Cancelled { frames_done }) => {
            if timed_out.get() && !cancel.load(Ordering::Relaxed) {
                let ms = timeout.map(|t| t.as_millis()).unwrap_or(0);
                let error = format!("timeout after {ms} ms ({frames_done} units done)");
                Response::Failed { id, error }
            } else {
                Response::Cancelled { id, frames_done }
            }
        }
        Err(e) => Response::Failed {
            id,
            error: e.to_string(),
        },
    }
}

/// Serves `service` on a Unix socket at `socket_path` until a client
/// sends [`Request::Shutdown`]. Removes a stale socket file first, and
/// the live one on exit. One thread per connection.
#[cfg(unix)]
pub fn serve_unix(service: Arc<Service>, socket_path: &Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    if socket_path.exists() {
        std::fs::remove_file(socket_path)?;
    }
    let listener = UnixListener::bind(socket_path)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let wake_path = socket_path.to_path_buf();
        connections.push(std::thread::spawn(move || {
            serve_connection(&service, stream, &stop, &wake_path);
        }));
    }
    for conn in connections {
        let _ = conn.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

#[cfg(unix)]
fn serve_connection(
    service: &Service,
    stream: std::os::unix::net::UnixStream,
    stop: &Arc<AtomicBool>,
    wake_path: &Path,
) {
    use std::io::{BufReader, BufWriter};

    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Mutex::new(BufWriter::new(stream));
    let emit: Emit = Arc::new(move |resp: Response| {
        let mut w = writer.lock().expect("connection write lock");
        crate::protocol::write_line(&mut *w, &resp)
    });
    let mut reader = reader;
    loop {
        let req = match crate::protocol::read_request(&mut reader) {
            Ok(req) => req,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Malformed line: reject it and keep the connection (the
                // offending line was consumed).
                let _ = emit(Response::Rejected {
                    reason: format!("unreadable request: {e}"),
                });
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                // Over-cap line: its tail is still unread, so the stream
                // cannot be resynchronised. Refuse it and hang up.
                let _ = emit(Response::Rejected {
                    reason: format!("unreadable request: {e}"),
                });
                break;
            }
            Err(_) => break,
        };
        let Some(req) = req else { break };
        if !service.handle(req, Arc::clone(&emit)) {
            // Shutdown: stop the accept loop and wake it with a no-op
            // connection so `incoming()` observes the flag.
            stop.store(true, Ordering::SeqCst);
            let _ = std::os::unix::net::UnixStream::connect(wake_path);
            break;
        }
    }
}

/// A line-protocol client over a Unix socket (what `probe submit` uses).
#[cfg(unix)]
pub struct Client {
    reader: std::io::BufReader<std::os::unix::net::UnixStream>,
    writer: std::io::BufWriter<std::os::unix::net::UnixStream>,
}

#[cfg(unix)]
impl Client {
    /// Connects to a service socket.
    pub fn connect(socket_path: &Path) -> std::io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(socket_path)?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        let writer = std::io::BufWriter::new(stream);
        Ok(Client { reader, writer })
    }

    /// Sends one request line.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        crate::protocol::write_line(&mut self.writer, req)
    }

    /// Reads the next response line; `Ok(None)` when the service hung up.
    pub fn recv(&mut self) -> std::io::Result<Option<Response>> {
        crate::protocol::read_line(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::link::LinkConfig;
    use fdb_sim::MeasureSpec;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    fn service(tag: &str, workers: usize, max_queue: usize) -> Service {
        let dir = std::env::temp_dir().join(format!("fdb-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Service::start(ServiceConfig {
            workers,
            max_queue,
            ..ServiceConfig::new(dir)
        })
        .unwrap()
    }

    fn job(frames: u64, seed: u64) -> JobSpec {
        JobSpec::Link {
            link: LinkConfig::default_fd(),
            spec: MeasureSpec {
                frames,
                seed,
                ..MeasureSpec::default()
            },
        }
    }

    /// An `emit` that forwards each line, with the thread that sent it.
    fn collector() -> (Emit, mpsc::Receiver<(ThreadId, Response)>) {
        slow_collector(Duration::ZERO)
    }

    /// A [`collector`] for a slow client: it takes `accept_delay` to
    /// write each `Accepted` line.
    fn slow_collector(accept_delay: Duration) -> (Emit, mpsc::Receiver<(ThreadId, Response)>) {
        let (tx, rx) = mpsc::channel();
        let emit: Emit = Arc::new(move |resp| {
            if matches!(resp, Response::Accepted { .. }) {
                std::thread::sleep(accept_delay);
            }
            tx.send((std::thread::current().id(), resp))
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))
        });
        (emit, rx)
    }

    fn submit(service: &Service, job: JobSpec, stream_trace: bool, timeout_ms: u64, emit: &Emit) {
        let req = Request::Submit {
            job,
            stream_trace,
            timeout_ms,
        };
        assert!(service.handle(req, Arc::clone(emit)));
    }

    fn next(rx: &mpsc::Receiver<(ThreadId, Response)>) -> Response {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a response line")
            .1
    }

    fn accepted_id(rx: &mpsc::Receiver<(ThreadId, Response)>) -> u64 {
        match next(rx) {
            Response::Accepted { id, .. } => id,
            other => panic!("expected Accepted, got {other:?}"),
        }
    }

    /// Skips to the next terminal line (or refusal).
    fn wait_terminal(rx: &mpsc::Receiver<(ThreadId, Response)>) -> Response {
        loop {
            match next(rx) {
                Response::Accepted { .. }
                | Response::Progress { .. }
                | Response::Trace { .. }
                | Response::CancelAck { .. } => continue,
                terminal => return terminal,
            }
        }
    }

    fn pong(service: &Service) -> (u64, u64) {
        let (emit, rx) = collector();
        service.handle(Request::Ping, emit);
        match next(&rx) {
            Response::Pong {
                running, queued, ..
            } => (running, queued),
            other => panic!("expected Pong, got {other:?}"),
        }
    }

    fn done_bytes(resp: Response, want_cached: bool) -> String {
        match resp {
            Response::Done { cached, result, .. } => {
                assert_eq!(cached, want_cached);
                serde_json::to_string(&result).unwrap()
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn second_submission_replays_from_cache() {
        let service = service("replay", 2, 8);
        let (emit, rx) = collector();
        submit(&service, job(2, 1), false, 0, &emit);
        let first = done_bytes(wait_terminal(&rx), false);
        submit(&service, job(2, 1), false, 0, &emit);
        let second = done_bytes(wait_terminal(&rx), true);
        assert_eq!(second, first, "replayed bytes drifted");
        assert_eq!(service.store().hits(), 1);
        service.shutdown();
    }

    #[test]
    fn accepted_is_the_first_line_of_every_job() {
        // Idle workers pick each job up at once, and the repeats are
        // answered on this thread from the cache: neither may overtake
        // the job's `Accepted`, even when the client is slow to take it.
        let service = service("accepted-first", 2, 8);
        let (emit, rx) = slow_collector(Duration::from_millis(50));
        for (i, seed) in [31, 32, 33, 34, 31, 32].into_iter().enumerate() {
            let repeat = i >= 4;
            submit(&service, job(1, seed), false, 0, &emit);
            let id = accepted_id(&rx);
            loop {
                match next(&rx) {
                    Response::Progress { id: of, .. } => assert_eq!(of, id),
                    Response::Done { id: of, cached, .. } => {
                        assert_eq!(of, id);
                        assert_eq!(cached, repeat);
                        break;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(service.store().hits(), 2);
        service.shutdown();
    }

    #[test]
    fn cancel_stops_a_long_job() {
        let service = service("cancel", 1, 8);
        let (emit, rx) = collector();
        submit(&service, job(100_000, 2), false, 0, &emit);
        let id = accepted_id(&rx);
        // Let it start, then cancel it by the id from `Accepted`.
        match next(&rx) {
            Response::Progress { .. } => service.handle(Request::Cancel { id }, Arc::clone(&emit)),
            other => panic!("expected progress first, got {other:?}"),
        };
        let mut acked = false;
        loop {
            match next(&rx) {
                Response::Progress { .. } => continue,
                Response::CancelAck { id: of, known } => {
                    assert!(of == id && known, "the live job was not found");
                    acked = true;
                }
                Response::Cancelled { frames_done, .. } => {
                    assert!(frames_done < 100_000, "cancel observed before the end");
                    break;
                }
                other => panic!("expected cancellation, got {other:?}"),
            }
        }
        assert!(acked);
        // After its terminal line the job is gone from the live table.
        service.handle(Request::Cancel { id }, Arc::clone(&emit));
        assert!(matches!(
            next(&rx),
            Response::CancelAck { known: false, .. }
        ));
        assert_eq!(pong(&service), (0, 0));
        service.shutdown();
    }

    #[test]
    fn a_failed_write_cancels_the_job() {
        let service = service("hangup", 1, 8);
        // A client that takes `Accepted` and one `Progress`, then is gone:
        // every later write fails (the lines are still collected here).
        let (tx, rx) = mpsc::channel();
        let sent = std::sync::atomic::AtomicU64::new(0);
        let emit: Emit = Arc::new(move |resp| {
            let n = sent.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send((std::thread::current().id(), resp));
            if n < 2 {
                Ok(())
            } else {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
        });
        submit(&service, job(100_000, 9), false, 0, &emit);
        match wait_terminal(&rx) {
            Response::Cancelled { frames_done, .. } => {
                assert!(frames_done < 100, "ran {frames_done} frames for nobody")
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert_eq!(pong(&service), (0, 0));
        assert!(service.store().is_empty(), "a cancelled job was cached");
        service.shutdown();
    }

    #[test]
    fn timeout_fails_the_job() {
        let service = service("timeout", 1, 8);
        let (emit, rx) = collector();
        submit(&service, job(100_000, 3), false, 30, &emit);
        match wait_terminal(&rx) {
            Response::Failed { error, .. } => {
                assert!(error.contains("timeout"), "unexpected error: {error}")
            }
            other => panic!("expected a timeout failure, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn queue_bound_refuses_excess_submissions() {
        let service = service("bound", 1, 1);
        let (emit, rx) = collector();
        // One long job occupies the single worker...
        submit(&service, job(100_000, 4), false, 0, &emit);
        let running = accepted_id(&rx);
        // Wait until it is actually running (first progress line) so the
        // queued job below cannot be picked up first.
        assert!(matches!(next(&rx), Response::Progress { .. }));
        // ...one more fits in the queue...
        let (queued_emit, queued_rx) = collector();
        submit(&service, job(2, 5), false, 0, &queued_emit);
        accepted_id(&queued_rx);
        assert_eq!(pong(&service), (1, 1));
        // ...and the next is refused.
        let (refused_emit, refused_rx) = collector();
        submit(&service, job(2, 6), false, 0, &refused_emit);
        match next(&refused_rx) {
            Response::Rejected { reason } => assert_eq!(reason, "queue full (1 jobs waiting)"),
            other => panic!("expected a queue-full rejection, got {other:?}"),
        }
        service.handle(Request::Cancel { id: running }, Arc::clone(&emit));
        // Both admitted jobs reach a terminal line, and the queue drains.
        assert!(matches!(wait_terminal(&rx), Response::Cancelled { .. }));
        assert!(matches!(wait_terminal(&queued_rx), Response::Done { .. }));
        assert_eq!(pong(&service), (0, 0));
        service.shutdown();
    }

    #[test]
    fn queue_bound_is_exact_under_concurrent_submitters() {
        let service = service("bound-race", 1, 3);
        let (emit, rx) = collector();
        submit(&service, job(100_000, 40), false, 0, &emit);
        let running = accepted_id(&rx);
        assert!(matches!(next(&rx), Response::Progress { .. }));
        let gate = std::sync::Barrier::new(8);
        let firsts: Vec<Response> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (service, gate) = (&service, &gate);
                    s.spawn(move || {
                        // Slow clients hold their slots across `Accepted`.
                        let (emit, rx) = slow_collector(Duration::from_millis(50));
                        gate.wait();
                        submit(service, job(2, 41 + i), false, 0, &emit);
                        next(&rx)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let admitted = firsts
            .iter()
            .filter(|r| matches!(r, Response::Accepted { .. }))
            .count();
        let full = firsts
            .iter()
            .filter(
                |r| matches!(r, Response::Rejected { reason } if reason.starts_with("queue full")),
            )
            .count();
        assert_eq!((admitted, full), (3, 5), "{firsts:?}");
        assert_eq!(pong(&service), (1, 3));
        service.handle(Request::Cancel { id: running }, emit);
        service.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_jobs_and_joins_the_workers() {
        let service = service("drain", 1, 4);
        let (emit, rx) = collector();
        // The running job ends by its timeout while `shutdown` joins it.
        submit(&service, job(100_000, 50), false, 300, &emit);
        let running = accepted_id(&rx);
        assert!(matches!(next(&rx), Response::Progress { .. }));
        let (queued_emit, queued_rx) = collector();
        submit(&service, job(2, 51), false, 0, &queued_emit);
        submit(&service, job(2, 52), false, 0, &queued_emit);
        let queued = [accepted_id(&queued_rx), accepted_id(&queued_rx)];
        // A `Shutdown` request refuses new work and leaves the queue be.
        let (stop_emit, stop_rx) = collector();
        assert!(!service.handle(Request::Shutdown, stop_emit));
        assert!(matches!(next(&stop_rx), Response::ShuttingDown));
        submit(&service, job(2, 53), false, 0, &queued_emit);
        match next(&queued_rx) {
            Response::Rejected { reason } => assert_eq!(reason, "service is shutting down"),
            other => panic!("expected a shutdown rejection, got {other:?}"),
        }
        service.shutdown();
        for id in queued {
            match next(&queued_rx) {
                Response::Failed { id: of, error } => {
                    assert_eq!(of, id);
                    assert_eq!(error, "service shut down before the job started");
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        match wait_terminal(&rx) {
            Response::Failed { id, error } => assert!(id == running && error.contains("timeout")),
            other => panic!("expected the running job's timeout, got {other:?}"),
        }
    }

    #[test]
    fn invalid_jobs_are_rejected_up_front() {
        let service = service("invalid", 1, 4);
        let (emit, rx) = collector();
        submit(&service, job(0, 1), false, 0, &emit);
        match next(&rx) {
            Response::Rejected { reason } => {
                assert!(
                    reason.starts_with("invalid job") && reason.contains("frames"),
                    "{reason}"
                )
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert!(rx.try_recv().is_err(), "a refused job sends one line");
        service.shutdown();
    }

    #[test]
    fn stream_trace_is_refused_for_jobs_that_are_not_link_jobs() {
        let service = service("trace-kind", 1, 4);
        let (emit, rx) = collector();
        let matrix = JobSpec::Matrix {
            scenarios: vec![fdb_sim::MatrixScenario {
                label: "default".to_string(),
                link: LinkConfig::default_fd(),
                spec: MeasureSpec::default(),
            }],
            plans: Vec::new(),
            plan_seed: 0,
        };
        let city = JobSpec::City {
            spec: fdb_sim::CityScenarioSpec::default(),
        };
        for job in [matrix, city] {
            let kind = job.kind();
            submit(&service, job, true, 0, &emit);
            let Response::Rejected { reason } = next(&rx) else {
                panic!("{kind}: not rejected")
            };
            if fdb_core::trace::ENABLED {
                assert!(
                    reason.starts_with("invalid job") && reason.contains("link job"),
                    "{kind}: {reason}"
                );
            } else {
                // A build that cannot trace says so first.
                assert!(reason.contains("fdb-core/trace"), "{kind}: {reason}");
            }
        }
        assert!(rx.try_recv().is_err(), "a refused job sends one line");
        assert_eq!(pong(&service), (0, 0));
        assert!(service.store().is_empty());
        service.shutdown();
    }

    #[test]
    fn trace_streams_inline_between_frame_end_and_progress() {
        // Each frame's trace goes out on the worker thread, right before
        // the frame's progress line.
        let service = service("inline", 1, 4);
        let (emit, rx) = collector();
        submit(&service, job(3, 7), true, 0, &emit);
        if !fdb_core::trace::ENABLED {
            assert!(
                matches!(next(&rx), Response::Rejected { reason } if reason.contains("fdb-core/trace"))
            );
            service.shutdown();
            return;
        }
        let mut seen = Vec::new();
        loop {
            let (thread, resp) = rx.recv_timeout(Duration::from_secs(60)).unwrap();
            let label = match resp {
                Response::Accepted { .. } => "accepted".to_string(),
                Response::Trace { frame, .. } => format!("trace {frame}"),
                Response::Progress { done, .. } => format!("progress {done}"),
                Response::Done { .. } => "done".to_string(),
                other => format!("{other:?}"),
            };
            let done = label == "done";
            seen.push((thread, label));
            if done {
                break;
            }
        }
        let labels: Vec<&str> = seen.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "accepted",
                "trace 0",
                "progress 1",
                "trace 1",
                "progress 2",
                "trace 2",
                "progress 3",
                "done"
            ]
        );
        let here = std::thread::current().id();
        assert_eq!(
            seen[0].0, here,
            "`Accepted` comes from the submitting thread"
        );
        let worker = seen[1].0;
        assert_ne!(worker, here);
        assert!(
            seen[1..].iter().all(|(thread, _)| *thread == worker),
            "every line of the run comes from its worker thread: {seen:?}"
        );
        service.shutdown();
    }

    #[test]
    fn streamed_trace_matches_file_sink_bytes() {
        let service = service("trace", 1, 4);
        let (emit, rx) = collector();
        submit(&service, job(3, 7), true, 0, &emit);
        if !fdb_core::trace::ENABLED {
            // A build whose engine cannot trace refuses the stream up
            // front, before anything is queued or cached.
            assert!(
                matches!(next(&rx), Response::Rejected { reason } if reason.contains("fdb-core/trace"))
            );
            assert!(service.store().is_empty());
            service.shutdown();
            return;
        }
        accepted_id(&rx);
        let mut streamed = String::new();
        loop {
            match next(&rx) {
                Response::Trace { text, .. } => streamed.push_str(&text),
                Response::Progress { .. } => continue,
                done @ Response::Done { .. } => {
                    // Traced submissions bypass the cache.
                    done_bytes(done, false);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }

        // Reference: the same job through a file sink.
        let path = std::env::temp_dir().join(format!(
            "fdb-service-trace-ref-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlFileSink::create(&path).unwrap();
        job(3, 7)
            .run(RunControl::new().with_sink(&mut sink))
            .unwrap();
        sink.finish().unwrap();
        let file_bytes = std::fs::read_to_string(&path).unwrap();
        assert!(!file_bytes.is_empty(), "reference sink captured nothing");
        assert_eq!(
            streamed, file_bytes,
            "socket-streamed trace must equal the file sink byte-for-byte"
        );

        // The traced run must not have populated the cache.
        assert!(service.store().is_empty());
        service.shutdown();
    }
}
