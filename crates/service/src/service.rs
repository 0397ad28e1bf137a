//! The service shell: protocol dispatch over the pool, plus transports.
//!
//! [`Service`] owns the [`WorkerPool`] and [`ResultStore`] and exposes
//! one dispatch entry point, [`Service::handle`], that maps a
//! [`Request`] to its [`Response`] stream. Two transports wrap it:
//!
//! * **In-process** — [`Service::submit_blocking`] for tests and embedding:
//!   submit, block until the terminal response, collect everything.
//! * **Unix socket** — [`serve_unix`]: line-delimited JSON over
//!   `UnixListener`, one thread per connection, responses interleaved
//!   onto the connection under a write lock so event lines from worker
//!   threads never tear.
//!
//! A [`Request::Shutdown`] from any connection stops the accept loop,
//! drains the pool, and removes the socket file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fdb_core::trace::TraceChunk;
use fdb_sim::JobSpec;

use crate::cache::ResultStore;
use crate::pool::{JobEvent, JobEvents, SubmitError, WorkerPool};
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

/// The assembled job service (pool + store + live-job table).
pub struct Service {
    pool: WorkerPool,
    store: Arc<ResultStore>,
    /// Cancellation flags of jobs that have been admitted and not yet
    /// reached a terminal event, keyed by job id.
    live: Arc<Mutex<HashMap<u64, Arc<std::sync::atomic::AtomicBool>>>>,
    stopping: AtomicBool,
}

/// Everything a blocking in-process submission collected.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Pool-assigned job id.
    pub id: u64,
    /// The job's content address (32 hex digits).
    pub job_hash: String,
    /// The terminal response ([`Response::Done`] / [`Failed`](Response::Failed) /
    /// [`Cancelled`](Response::Cancelled)).
    pub terminal: Response,
    /// Progress ticks observed, in order.
    pub progress: Vec<(u64, u64)>,
    /// Trace chunks observed, in order (trace-streaming submissions).
    pub trace: Vec<TraceChunk>,
}

impl SubmitOutcome {
    /// The canonical result bytes, when the job finished with `Done`.
    pub fn result_json(&self) -> Option<String> {
        match &self.terminal {
            Response::Done { result, .. } => {
                Some(serde_json::to_string(result).expect("result re-serializes"))
            }
            _ => None,
        }
    }

    /// Whether the terminal `Done` was replayed from the cache.
    pub fn cached(&self) -> bool {
        matches!(&self.terminal, Response::Done { cached: true, .. })
    }
}

impl Service {
    /// Builds the pool and store, seeding the golden corpus when asked.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        let store = Arc::new(ResultStore::open(&config.cache_dir)?);
        if let Some(repo_root) = &config.seed_golden_from {
            store.seed_from_golden(repo_root)?;
        }
        Ok(Service {
            pool: WorkerPool::new(config.workers, config.max_queue, Arc::clone(&store)),
            store,
            live: Arc::new(Mutex::new(HashMap::new())),
            stopping: AtomicBool::new(false),
        })
    }

    /// The store backing this service.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// Drains the pool and consumes the service.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }

    /// Dispatches one request; every response (zero or more lines, in
    /// order) lands on `emit` — possibly from worker threads after this
    /// call returns. Returns `false` when the request was [`Request::Shutdown`]
    /// and the transport should stop reading.
    pub fn handle(&self, req: Request, emit: Arc<dyn Fn(Response) + Send + Sync>) -> bool {
        match req {
            Request::Submit {
                job,
                stream_trace,
                timeout_ms,
            } => {
                self.submit(job, stream_trace, timeout_ms, emit);
                true
            }
            Request::Cancel { id } => {
                let known = {
                    let live = self.live.lock().expect("live-job lock");
                    match live.get(&id) {
                        Some(flag) => {
                            flag.store(true, Ordering::SeqCst);
                            true
                        }
                        None => false,
                    }
                };
                emit(Response::CancelAck { id, known });
                true
            }
            Request::Ping => {
                emit(Response::Pong {
                    running: self.pool.running(),
                    queued: self.pool.queued(),
                    cache_entries: self.store.len(),
                    cache_hits: self.store.hits(),
                    cache_misses: self.store.misses(),
                });
                true
            }
            Request::Recheck { sample_every } => {
                let out = self.store.recheck(sample_every);
                emit(Response::RecheckReport {
                    checked: out.checked,
                    matched: out.matched,
                    mismatched: out.mismatched,
                });
                true
            }
            Request::Shutdown => {
                self.stopping.store(true, Ordering::SeqCst);
                emit(Response::ShuttingDown);
                false
            }
        }
    }

    fn submit(
        &self,
        job: JobSpec,
        stream_trace: bool,
        timeout_ms: u64,
        emit: Arc<dyn Fn(Response) + Send + Sync>,
    ) {
        if self.stopping.load(Ordering::SeqCst) {
            emit(Response::Rejected {
                reason: SubmitError::ShuttingDown.to_string(),
            });
            return;
        }
        // The event callback needs the job id and hash, which the pool
        // assigns on admission — events fired before then (the
        // synchronous cache-hit `Done`) buffer inside the gate, and the
        // gate's mutex keeps direct and drained emissions in order.
        let gate = Arc::new(EventGate {
            emit: Arc::clone(&emit),
            live: Arc::clone(&self.live),
            state: Mutex::new(GateState {
                identity: None,
                buffered: Vec::new(),
            }),
        });
        let events: JobEvents = {
            let gate = Arc::clone(&gate);
            Arc::new(move |ev: JobEvent| gate.deliver(ev))
        };
        let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
        match self.pool.submit(job, stream_trace, timeout, events) {
            Ok(handle) => {
                self.live
                    .lock()
                    .expect("live-job lock")
                    .insert(handle.id, Arc::clone(&handle.cancel));
                emit(Response::Accepted {
                    id: handle.id,
                    job_hash: handle.job_hash.clone(),
                    kind: handle.kind.to_string(),
                });
                gate.open(handle.id, handle.job_hash);
            }
            Err(e) => emit(Response::Rejected {
                reason: e.to_string(),
            }),
        }
    }

    /// In-process client: submits and blocks until the terminal response,
    /// returning everything observed. `Err` carries the rejection reason.
    pub fn submit_blocking(
        &self,
        job: JobSpec,
        stream_trace: bool,
        timeout_ms: u64,
    ) -> Result<SubmitOutcome, String> {
        let (tx, rx) = std::sync::mpsc::channel::<Response>();
        let tx = Mutex::new(tx);
        let emit = Arc::new(move |resp: Response| {
            let _ = tx.lock().expect("response tx lock").send(resp);
        });
        self.handle(
            Request::Submit {
                job,
                stream_trace,
                timeout_ms,
            },
            emit,
        );
        let mut id = 0;
        let mut job_hash = String::new();
        let mut progress = Vec::new();
        let mut trace = Vec::new();
        for resp in rx.iter() {
            match resp {
                Response::Accepted {
                    id: got,
                    job_hash: hash,
                    ..
                } => {
                    id = got;
                    job_hash = hash;
                }
                Response::Rejected { reason } => return Err(reason),
                Response::Progress { done, total, .. } => progress.push((done, total)),
                Response::Trace { frame, text, .. } => trace.push(TraceChunk { frame, text }),
                terminal @ (Response::Done { .. }
                | Response::Failed { .. }
                | Response::Cancelled { .. }) => {
                    return Ok(SubmitOutcome {
                        id,
                        job_hash,
                        terminal,
                        progress,
                        trace,
                    })
                }
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
        Err("response stream ended without a terminal response".to_string())
    }
}

struct GateState {
    /// `(id, job_hash)` once the pool has admitted the job.
    identity: Option<(u64, String)>,
    /// Events that fired before the identity was known.
    buffered: Vec<JobEvent>,
}

/// Orders a job's event stream behind its admission: events delivered
/// before [`open`](EventGate::open) buffer; everything after emits
/// directly. The state mutex is held across emission so a racing worker
/// event can never overtake a buffered one.
struct EventGate {
    emit: Arc<dyn Fn(Response) + Send + Sync>,
    live: Arc<Mutex<HashMap<u64, Arc<std::sync::atomic::AtomicBool>>>>,
    state: Mutex<GateState>,
}

impl EventGate {
    fn deliver(&self, ev: JobEvent) {
        let mut state = self.state.lock().expect("event gate lock");
        match state.identity.clone() {
            None => state.buffered.push(ev),
            Some((id, hash)) => self.emit_event(id, &hash, ev),
        }
    }

    fn open(&self, id: u64, job_hash: String) {
        let mut state = self.state.lock().expect("event gate lock");
        state.identity = Some((id, job_hash.clone()));
        let drained: Vec<JobEvent> = state.buffered.drain(..).collect();
        for ev in drained {
            self.emit_event(id, &job_hash, ev);
        }
    }

    fn emit_event(&self, id: u64, job_hash: &str, ev: JobEvent) {
        let terminal = is_terminal(&ev);
        (self.emit)(event_response(id, job_hash, ev));
        if terminal {
            self.live.lock().expect("live-job lock").remove(&id);
        }
    }
}

fn is_terminal(ev: &JobEvent) -> bool {
    matches!(
        ev,
        JobEvent::Done { .. } | JobEvent::Failed { .. } | JobEvent::Cancelled { .. }
    )
}

fn event_response(id: u64, job_hash: &str, ev: JobEvent) -> Response {
    match ev {
        JobEvent::Progress(p) => Response::Progress {
            id,
            done: p.done,
            total: p.total,
        },
        JobEvent::Trace(chunk) => Response::Trace {
            id,
            frame: chunk.frame,
            text: chunk.text,
        },
        JobEvent::Done {
            result_json,
            cached,
        } => Response::Done {
            id,
            job_hash: job_hash.to_string(),
            cached,
            result: serde_json::value_from_str(&result_json)
                .expect("canonical result bytes parse"),
        },
        JobEvent::Failed { error } => Response::Failed { id, error },
        JobEvent::Cancelled { frames_done } => Response::Cancelled { id, frames_done },
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
    use std::io::BufReader;

    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    let emit: Arc<dyn Fn(Response) + Send + Sync> = {
        let writer = Arc::clone(&writer);
        Arc::new(move |resp: Response| {
            let mut w = writer.lock().expect("connection write lock");
            let _ = crate::protocol::write_line(&mut *w, &resp);
        })
    };
    let mut reader = reader;
    loop {
        let req = match crate::protocol::read_request(&mut reader) {
            Ok(req) => req,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Malformed line: reject it and keep the connection (the
                // offending line was consumed).
                emit(Response::Rejected {
                    reason: format!("unreadable request: {e}"),
                });
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                // Over-cap line: its tail is still unread, so the stream
                // cannot be resynchronised. Refuse it and hang up.
                emit(Response::Rejected {
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
    writer: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Client {
    /// Connects to a service socket.
    pub fn connect(socket_path: &Path) -> std::io::Result<Self> {
        let writer = std::os::unix::net::UnixStream::connect(socket_path)?;
        let reader = std::io::BufReader::new(writer.try_clone()?);
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
