//! The execution engine: a fixed set of persistent worker threads pulling
//! jobs off one bounded queue.
//!
//! This extends the workspace's scoped-sweep idiom (`fdb_sim::sweep`'s
//! atomic work stealing) to a *long-running* pool: workers park on a
//! condvar instead of exiting when the queue drains, submissions are
//! refused (not blocked) past the queue bound, and every job carries its
//! own cancellation flag and wall-clock deadline, both folded into the
//! cooperative predicate [`JobSpec::run`] polls between frames.
//!
//! Results flow back through a per-job event callback
//! ([`JobEvents`]) rather than a return value, because a job emits a
//! *stream* — progress ticks, trace chunks, then exactly one terminal
//! event ([`JobEvent::Done`] / [`Failed`](JobEvent::Failed) /
//! [`Cancelled`](JobEvent::Cancelled)). Every event of a running job is
//! emitted on the worker thread that runs it. A trace-streaming link job
//! hands its [`JsonlFileSink`] a callback that emits each finished
//! frame's block as [`JobEvent::Trace`], so frame `k`'s trace goes out
//! just before its progress tick, paced by the same client socket.
//!
//! Cache interplay lives here so every transport gets it for free:
//! untraced submissions are answered from the
//! [`ResultStore`] when the job's content
//! address is present (terminal event emitted synchronously from
//! [`submit`](WorkerPool::submit), no queueing), and computed results are
//! inserted on completion. Trace-streaming submissions bypass the cache
//! in both directions: their metrics carry sink counters, which must not
//! leak into replies to untraced submissions of the same job. Only link
//! jobs have a per-frame trace, so a trace-streaming submission of any
//! other kind is refused as invalid.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fdb_core::trace::JsonlFileSink;
use fdb_sim::{JobProgress, JobSpec, RunControl};

use crate::cache::ResultStore;

/// One event in a job's response stream.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// Progress tick (frames / grid cells completed).
    Progress(JobProgress),
    /// One frame's trace (trace-streaming link jobs, tracing builds).
    Trace {
        /// Driver-assigned frame index.
        frame: u64,
        /// The frame's JSONL block: exactly the bytes a
        /// [`JsonlFileSink`] file gets for it.
        text: String,
    },
    /// Terminal: the job produced a result.
    Done {
        /// Canonical result JSON (replayed bytes when `cached`).
        result_json: String,
        /// `true` when the result came from the store, not a run.
        cached: bool,
    },
    /// Terminal: the job failed.
    Failed {
        /// Error description (PHY error or `timeout after N ms`).
        error: String,
    },
    /// Terminal: the job observed its cancellation flag.
    Cancelled {
        /// Units completed before the flag was observed.
        frames_done: u64,
    },
}

/// The per-job event callback, called on the submitting thread (cache
/// hit) or on the worker that runs the job. `Arc` + `Sync` so one
/// callback can serve several submissions.
pub type JobEvents = Arc<dyn Fn(JobEvent) + Send + Sync>;

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job spec failed [`JobSpec::validate`].
    Invalid(String),
    /// The queue is at its bound; retry later.
    QueueFull {
        /// The configured bound that was hit.
        depth: usize,
    },
    /// Trace streaming was requested but this build's engine cannot
    /// trace ([`fdb_core::trace::ENABLED`] is `false`).
    TraceUnavailable,
    /// The pool is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(why) => write!(f, "invalid job: {why}"),
            SubmitError::QueueFull { depth } => {
                write!(f, "queue full ({depth} jobs waiting)")
            }
            SubmitError::TraceUnavailable => {
                write!(f, "trace streaming requires an `fdb-core/trace` build")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// Handle returned by [`WorkerPool::submit`].
pub struct SubmitHandle {
    /// Pool-assigned job id (monotonic).
    pub id: u64,
    /// The job's content address, as 32 hex digits.
    pub job_hash: String,
    /// Job kind label.
    pub kind: &'static str,
    /// Set to request cooperative cancellation.
    pub cancel: Arc<AtomicBool>,
}

struct Queued {
    job: JobSpec,
    stream_trace: bool,
    timeout: Option<Duration>,
    cancel: Arc<AtomicBool>,
    events: JobEvents,
}

struct PoolShared {
    queue: Mutex<VecDeque<Queued>>,
    available: Condvar,
    shutdown: AtomicBool,
    running: AtomicU64,
    next_id: AtomicU64,
    max_queue: usize,
    store: Arc<ResultStore>,
}

/// A persistent pool of worker threads with a bounded submission queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (min 1) serving a queue bounded at
    /// `max_queue` pending jobs, backed by `store` for result replay.
    pub fn new(workers: usize, max_queue: usize, store: Arc<ResultStore>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            running: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            max_queue: max_queue.max(1),
            store,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fdb-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Jobs currently executing.
    pub fn running(&self) -> u64 {
        self.shared.running.load(Ordering::Relaxed)
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> u64 {
        self.shared.queue.lock().expect("queue lock").len() as u64
    }

    /// The result store backing this pool.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.shared.store
    }

    /// Validates and admits a job. The event stream lands on `events`
    /// (from a worker thread, or synchronously from this call on a cache
    /// hit). A timeout of [`Duration::ZERO`]/`None` means none.
    pub fn submit(
        &self,
        job: JobSpec,
        stream_trace: bool,
        timeout: Option<Duration>,
        events: JobEvents,
    ) -> Result<SubmitHandle, SubmitError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        if stream_trace && !fdb_core::trace::ENABLED {
            return Err(SubmitError::TraceUnavailable);
        }
        if stream_trace && !matches!(job, JobSpec::Link { .. }) {
            return Err(SubmitError::Invalid(format!(
                "trace streaming needs a link job; {} jobs have no per-frame trace",
                job.kind()
            )));
        }
        job.validate().map_err(SubmitError::Invalid)?;
        let hash = job.content_hash();
        let handle = SubmitHandle {
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            job_hash: hash.to_hex(),
            kind: job.kind(),
            cancel: Arc::new(AtomicBool::new(false)),
        };
        // Cache replay: untraced submissions only (see module docs).
        if !stream_trace {
            if let Some(hit) = self.shared.store.lookup(&hash) {
                events(JobEvent::Done {
                    result_json: hit.result_json,
                    cached: true,
                });
                return Ok(handle);
            }
        }
        let queued = Queued {
            job,
            stream_trace,
            timeout: timeout.filter(|t| !t.is_zero()),
            cancel: Arc::clone(&handle.cancel),
            events,
        };
        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            if queue.len() >= self.shared.max_queue {
                return Err(SubmitError::QueueFull { depth: queue.len() });
            }
            queue.push_back(queued);
        }
        self.shared.available.notify_one();
        Ok(handle)
    }

    /// Stops accepting work, fails everything still queued, and joins the
    /// workers (jobs already running finish normally — cancel them first
    /// for a fast stop).
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let drained: Vec<Queued> = {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            queue.drain(..).collect()
        };
        for job in drained {
            (job.events)(JobEvent::Failed {
                error: "service shut down before the job started".to_string(),
            });
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        shared.running.fetch_add(1, Ordering::Relaxed);
        execute(shared, job);
        shared.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one job to its terminal event.
fn execute(shared: &PoolShared, job: Queued) {
    let Queued {
        job: spec,
        stream_trace,
        timeout,
        cancel,
        events,
    } = job;
    let deadline = timeout.map(|t| Instant::now() + t);
    let timed_out = AtomicBool::new(false);
    let cancel_pred = {
        let cancel = Arc::clone(&cancel);
        let timed_out = &timed_out;
        move || {
            if cancel.load(Ordering::Relaxed) {
                return true;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    timed_out.store(true, Ordering::Relaxed);
                    return true;
                }
            }
            false
        }
    };
    let mut progress = |p: JobProgress| events(JobEvent::Progress(p));
    let ctrl = RunControl::new()
        .with_cancel(&cancel_pred)
        .with_progress(&mut progress);
    let outcome = match &spec {
        // `submit` admits trace streaming for link jobs only. The frame
        // cap matches the one a spec-built file sink uses for this job,
        // so the streamed blocks equal the file a direct traced run
        // writes, even for configs with a custom cap.
        JobSpec::Link { link, .. } if stream_trace => {
            let mut sink = JsonlFileSink::from_fn(|frame, text| {
                events(JobEvent::Trace {
                    frame,
                    text: text.to_string(),
                });
                Ok(())
            })
            .with_frame_cap(link.phy.trace_ring_capacity());
            spec.run(ctrl.with_sink(&mut sink))
        }
        _ => spec.run(ctrl),
    }
    .map(|r| r.canonical_json());

    match outcome {
        Ok(result_json) => {
            if !stream_trace {
                // Best-effort: a failed insert only costs future replays.
                let _ = shared.store.insert(&spec, &result_json, "computed");
            }
            events(JobEvent::Done {
                result_json,
                cached: false,
            });
        }
        Err(fdb_core::PhyError::Cancelled { frames_done }) => {
            if timed_out.load(Ordering::Relaxed) && !cancel.load(Ordering::Relaxed) {
                events(JobEvent::Failed {
                    error: format!(
                        "timeout after {} ms ({frames_done} units done)",
                        timeout.map(|t| t.as_millis()).unwrap_or(0)
                    ),
                });
            } else {
                events(JobEvent::Cancelled { frames_done });
            }
        }
        Err(e) => events(JobEvent::Failed {
            error: e.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::link::LinkConfig;
    use fdb_sim::MeasureSpec;
    use std::sync::mpsc;

    fn store(tag: &str) -> Arc<ResultStore> {
        let dir = std::env::temp_dir().join(format!(
            "fdb-pool-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(ResultStore::open(dir).unwrap())
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

    fn collector() -> (JobEvents, mpsc::Receiver<JobEvent>) {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        (
            Arc::new(move |ev| {
                let _ = tx.lock().expect("event tx lock").send(ev);
            }),
            rx,
        )
    }

    fn wait_terminal(rx: &mpsc::Receiver<JobEvent>) -> JobEvent {
        for ev in rx.iter() {
            match ev {
                JobEvent::Progress(_) | JobEvent::Trace { .. } => continue,
                terminal => return terminal,
            }
        }
        panic!("event stream ended without a terminal event");
    }

    #[test]
    fn second_submission_replays_from_cache() {
        let pool = WorkerPool::new(2, 8, store("replay"));
        let (events, rx) = collector();
        pool.submit(job(2, 1), false, None, Arc::clone(&events)).unwrap();
        let first = match wait_terminal(&rx) {
            JobEvent::Done { result_json, cached } => {
                assert!(!cached, "cold cache must compute");
                result_json
            }
            other => panic!("first run ended with {other:?}"),
        };
        pool.submit(job(2, 1), false, None, events).unwrap();
        match wait_terminal(&rx) {
            JobEvent::Done { result_json, cached } => {
                assert!(cached, "second submission must hit the cache");
                assert_eq!(result_json, first, "replayed bytes drifted");
            }
            other => panic!("second run ended with {other:?}"),
        }
        assert_eq!(pool.store().hits(), 1);
        pool.shutdown();
    }

    #[test]
    fn cancel_flag_stops_a_long_job() {
        let pool = WorkerPool::new(1, 8, store("cancel"));
        let (events, rx) = collector();
        let handle = pool.submit(job(100_000, 2), false, None, events).unwrap();
        // Let it start, then pull the flag.
        match rx.recv().expect("job events") {
            JobEvent::Progress(_) => handle.cancel.store(true, Ordering::SeqCst),
            other => panic!("expected progress first, got {other:?}"),
        }
        match wait_terminal(&rx) {
            JobEvent::Cancelled { frames_done } => {
                assert!(frames_done < 100_000, "cancel observed before the end")
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        pool.shutdown();
    }

    #[test]
    fn timeout_fails_the_job() {
        let pool = WorkerPool::new(1, 8, store("timeout"));
        let (events, rx) = collector();
        pool.submit(
            job(100_000, 3),
            false,
            Some(Duration::from_millis(30)),
            events,
        )
        .unwrap();
        match wait_terminal(&rx) {
            JobEvent::Failed { error } => {
                assert!(error.contains("timeout"), "unexpected error: {error}")
            }
            other => panic!("expected a timeout failure, got {other:?}"),
        }
        pool.shutdown();
    }

    #[test]
    fn queue_bound_refuses_excess_submissions() {
        let pool = WorkerPool::new(1, 1, store("bound"));
        let (events, rx) = collector();
        // One long job occupies the single worker...
        let running = pool
            .submit(job(100_000, 4), false, None, Arc::clone(&events))
            .unwrap();
        // Wait until it is actually running (first progress tick) so the
        // queued job below cannot be picked up first.
        for ev in rx.iter() {
            if matches!(ev, JobEvent::Progress(_)) {
                break;
            }
        }
        // ...one more fits in the queue...
        let queued = pool
            .submit(job(2, 5), false, None, Arc::clone(&events))
            .unwrap();
        // ...and the next is refused.
        match pool.submit(job(2, 6), false, None, Arc::clone(&events)) {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, 1),
            other => panic!("expected QueueFull, got {:?}", other.map(|h| h.id)),
        }
        running.cancel.store(true, Ordering::SeqCst);
        let _ = queued;
        // Both admitted jobs reach a terminal event.
        let mut terminals = 0;
        for ev in rx.iter() {
            match ev {
                JobEvent::Progress(_) | JobEvent::Trace { .. } => continue,
                _ => {
                    terminals += 1;
                    if terminals == 2 {
                        break;
                    }
                }
            }
        }
        pool.shutdown();
    }

    #[test]
    fn invalid_jobs_are_rejected_up_front() {
        let pool = WorkerPool::new(1, 4, store("invalid"));
        let (events, _rx) = collector();
        let bad = JobSpec::Link {
            link: LinkConfig::default_fd(),
            spec: MeasureSpec {
                frames: 0,
                ..MeasureSpec::default()
            },
        };
        match pool.submit(bad, false, None, events) {
            Err(SubmitError::Invalid(why)) => assert!(why.contains("frames")),
            other => panic!("expected Invalid, got {:?}", other.map(|h| h.id)),
        }
        pool.shutdown();
    }

    #[test]
    fn stream_trace_is_refused_for_jobs_that_are_not_link_jobs() {
        let pool = WorkerPool::new(1, 4, store("trace-kind"));
        let (events, rx) = collector();
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
            let refused = pool.submit(job, true, None, Arc::clone(&events)).err();
            if fdb_core::trace::ENABLED {
                assert!(
                    matches!(&refused, Some(SubmitError::Invalid(why)) if why.contains("link job")),
                    "{kind}: {refused:?}"
                );
            } else {
                // A build that cannot trace says so first.
                assert_eq!(refused, Some(SubmitError::TraceUnavailable), "{kind}");
            }
        }
        assert!(rx.try_recv().is_err(), "a refused job emits no events");
        assert_eq!(pool.queued(), 0);
        assert!(pool.store().is_empty());
        pool.shutdown();
    }

    #[test]
    fn trace_streams_inline_between_frame_end_and_progress() {
        // Each frame's trace goes out on the worker thread, right before
        // the frame's progress tick.
        let pool = WorkerPool::new(1, 4, store("inline"));
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let events: JobEvents = Arc::new(move |ev: JobEvent| {
            let label = match ev {
                JobEvent::Trace { frame, .. } => format!("trace {frame}"),
                JobEvent::Progress(p) => format!("progress {}", p.done),
                JobEvent::Done { .. } => "done".to_string(),
                other => format!("{other:?}"),
            };
            let _ = tx
                .lock()
                .expect("event tx lock")
                .send((std::thread::current().id(), label));
        });
        let submitted = pool.submit(job(3, 7), true, None, events);
        if !fdb_core::trace::ENABLED {
            assert!(matches!(submitted, Err(SubmitError::TraceUnavailable)));
            pool.shutdown();
            return;
        }
        submitted.unwrap();
        let mut seen = Vec::new();
        for (thread, label) in rx.iter() {
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
                "trace 0",
                "progress 1",
                "trace 1",
                "progress 2",
                "trace 2",
                "progress 3",
                "done"
            ]
        );
        let worker = seen[0].0;
        assert_ne!(worker, std::thread::current().id());
        assert!(
            seen.iter().all(|(thread, _)| *thread == worker),
            "every event of the run comes from its worker thread: {seen:?}"
        );
        pool.shutdown();
    }

    #[test]
    fn streamed_trace_matches_file_sink_bytes() {
        use fdb_core::trace::JsonlFileSink;

        let pool = WorkerPool::new(1, 4, store("trace"));
        let (events, rx) = collector();
        let submitted = pool.submit(job(3, 7), true, None, events);
        if !fdb_core::trace::ENABLED {
            // A build whose engine cannot trace refuses the stream up
            // front, before anything is queued or cached.
            assert!(matches!(submitted, Err(SubmitError::TraceUnavailable)));
            assert!(pool.store().is_empty());
            pool.shutdown();
            return;
        }
        submitted.unwrap();
        let mut streamed = String::new();
        let mut done_json = None;
        for ev in rx.iter() {
            match ev {
                JobEvent::Trace { text, .. } => streamed.push_str(&text),
                JobEvent::Done { result_json, cached } => {
                    assert!(!cached, "traced submissions must bypass the cache");
                    done_json = Some(result_json);
                    break;
                }
                JobEvent::Progress(_) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(done_json.is_some());

        // Reference: the same job through a JsonlFileSink.
        let path = std::env::temp_dir().join(format!(
            "fdb-pool-trace-ref-{}.jsonl",
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
        assert!(pool.store().is_empty());
        pool.shutdown();
    }
}
