//! The wire protocol: line-delimited JSON over a byte stream.
//!
//! Every request and every response is one [`serde_json`] document on one
//! line (`\n`-terminated, no intra-document newlines — embedded trace text
//! rides inside JSON strings where the newlines are escaped). The framing
//! is symmetric and transport-agnostic: the Unix-socket server, the
//! in-process [`Service`](crate::service::Service) handle and the `probe
//! submit` client all speak exactly this.
//!
//! A submission produces a response *stream*, not a single reply:
//!
//! ```text
//! -> {"Submit":{"job":{...},"stream_trace":false}}
//! <- {"Accepted":{"id":3,"job_hash":"9f2c...","kind":"link"}}
//! <- {"Progress":{"id":3,"done":1,"total":6}}
//! <- ...
//! <- {"Done":{"id":3,"job_hash":"9f2c...","cached":false,"result":{...}}}
//! ```
//!
//! `Done.result` is the job's canonical result JSON. The cache stores and
//! replays those exact bytes, and the workspace's JSON writer is
//! parse-stable (objects keep insertion order, floats print
//! shortest-round-trip), so a cached `Done` is byte-identical to the
//! `Done` of the run that populated it.

use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Read, Write};

use fdb_sim::JobSpec;

/// Longest request line the service buffers, newline included. The
/// largest bundled job (a matrix over the three shipped link configs)
/// serialises to under 16 KiB, so 1 MiB leaves ample headroom while
/// bounding what any socket peer can make a connection hold.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A client-to-service request (one JSON line).
#[derive(Debug, Clone, Serialize, Deserialize)]
// One Request lives per protocol line; Submit's inline JobSpec dominates
// the size but boxing it would need Box support in the vendored serde.
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Run a job (or replay its cached result).
    Submit {
        /// The job to run; its content hash is the cache key.
        job: JobSpec,
        /// Stream per-frame trace chunks as [`Response::Trace`] lines
        /// (link jobs, `fdb-core/trace` builds only). Traced submissions bypass
        /// the result cache: their metrics carry sink counters, which
        /// would poison replies to untraced submissions of the same job.
        #[serde(default)]
        stream_trace: bool,
        /// Per-job wall-clock timeout in milliseconds (0 = none, the
        /// default). A timed-out job fails with a `timeout` error.
        #[serde(default)]
        timeout_ms: u64,
    },
    /// Request cooperative cancellation of a queued or running job.
    Cancel {
        /// The id from the job's [`Response::Accepted`].
        id: u64,
    },
    /// Liveness probe; answered with [`Response::Pong`] and counters.
    Ping,
    /// Cache-integrity recheck: recompute a sample of stored entries and
    /// diff against the stored result bytes.
    Recheck {
        /// Recompute every n-th entry (0 and 1 both mean every entry).
        #[serde(default)]
        sample_every: u64,
    },
    /// Stop accepting work and shut the service down.
    Shutdown,
}

/// A service-to-client response (one JSON line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// The submission was validated and admitted (possibly served
    /// straight from cache — watch for `Done.cached`).
    Accepted {
        /// Service-assigned id; the handle for [`Request::Cancel`].
        id: u64,
        /// The job's content address (32 hex digits).
        job_hash: String,
        /// Job kind label (`link` / `matrix` / `scenario` / `ablation`).
        kind: String,
    },
    /// The submission was refused (invalid spec, full queue, trace
    /// streaming without `fdb-core/trace`, shutdown in progress).
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Progress tick (frames for link jobs, cells for matrix jobs).
    Progress {
        /// Job id.
        id: u64,
        /// Units completed so far.
        done: u64,
        /// Total units in the job.
        total: u64,
    },
    /// One streamed trace chunk: the exact JSONL text a
    /// [`JsonlFileSink`](fdb_core::trace::JsonlFileSink) would have
    /// written for this frame. Concatenating `text` over all chunks
    /// reproduces the sink's file byte-for-byte.
    Trace {
        /// Job id.
        id: u64,
        /// Frame index the chunk brackets.
        frame: u64,
        /// The frame's JSONL block (embedded newlines, JSON-escaped).
        text: String,
    },
    /// The job finished; `result` is its canonical result JSON.
    Done {
        /// Job id.
        id: u64,
        /// The job's content address.
        job_hash: String,
        /// `true` when `result` was replayed from the content-addressed
        /// cache instead of recomputed.
        cached: bool,
        /// The job's result (canonical form, byte-stable on replay).
        result: Value,
    },
    /// The job failed (PHY error, timeout, worker loss).
    Failed {
        /// Job id.
        id: u64,
        /// Error description.
        error: String,
    },
    /// The job was cancelled via [`Request::Cancel`].
    Cancelled {
        /// Job id.
        id: u64,
        /// Units completed before the cancellation was observed.
        frames_done: u64,
    },
    /// Acknowledges a [`Request::Cancel`].
    CancelAck {
        /// The id the cancel targeted.
        id: u64,
        /// `false` when no live job had that id (already finished, or
        /// never existed) — the cancel was a no-op.
        known: bool,
    },
    /// Liveness answer with service counters.
    Pong {
        /// Jobs currently executing on the pool.
        running: u64,
        /// Jobs waiting in the bounded queue.
        queued: u64,
        /// Entries in the content-addressed result store.
        cache_entries: u64,
        /// Cache lookups that replayed a stored result.
        cache_hits: u64,
        /// Cache lookups that fell through to computation.
        cache_misses: u64,
    },
    /// Outcome of a [`Request::Recheck`] pass.
    RecheckReport {
        /// Entries recomputed.
        checked: u64,
        /// Entries whose recomputation matched the stored bytes.
        matched: u64,
        /// Diff summaries for entries that no longer reproduce.
        mismatched: Vec<String>,
    },
    /// The service acknowledged [`Request::Shutdown`] and is stopping.
    ShuttingDown,
}

/// Serializes `msg` as one protocol line and flushes it.
pub fn write_line<T: Serialize, W: Write>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let line = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one protocol line and parses it; `Ok(None)` on clean EOF. A
/// malformed line fails with [`ErrorKind::InvalidData`](std::io::ErrorKind)
/// after being consumed, so the stream stays in sync.
pub fn read_line<T: Deserialize, R: BufRead>(r: &mut R) -> std::io::Result<Option<T>> {
    read_line_within(r, usize::MAX)
}

/// [`read_line`] for a [`Request`], buffering at most
/// [`MAX_REQUEST_LINE`] bytes. A longer line fails with
/// [`ErrorKind::InvalidInput`](std::io::ErrorKind) and leaves the rest of
/// it unread, so the caller must drop the connection.
pub fn read_request<R: BufRead>(r: &mut R) -> std::io::Result<Option<Request>> {
    read_line_within(r, MAX_REQUEST_LINE)
}

fn read_line_within<T: Deserialize, R: BufRead>(
    r: &mut R,
    limit: usize,
) -> std::io::Result<Option<T>> {
    use std::io::{Error, ErrorKind};
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = r.by_ref().take(limit as u64).read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if n == limit && line.last() != Some(&b'\n') {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!("request line exceeds {limit} bytes"),
            ));
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        if text.trim().is_empty() {
            continue; // tolerate blank keep-alive lines
        }
        return serde_json::from_str(text.trim_end())
            .map(Some)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_core::link::LinkConfig;
    use fdb_sim::MeasureSpec;

    fn link_job() -> JobSpec {
        JobSpec::Link {
            link: LinkConfig::default_fd(),
            spec: MeasureSpec::default(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit {
                job: link_job(),
                stream_trace: false,
                timeout_ms: 250,
            },
            Request::Cancel { id: 9 },
            Request::Ping,
            Request::Recheck { sample_every: 3 },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(line, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn submit_defaults_apply() {
        let line = format!(
            "{{\"Submit\":{{\"job\":{}}}}}",
            serde_json::to_string(&link_job()).unwrap()
        );
        let req: Request = serde_json::from_str(&line).unwrap();
        match req {
            Request::Submit {
                stream_trace,
                timeout_ms,
                ..
            } => {
                assert!(!stream_trace);
                assert_eq!(timeout_ms, 0);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn line_framing_round_trips() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Ping).unwrap();
        write_line(&mut buf, &Request::Cancel { id: 1 }).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        let a: Option<Request> = read_line(&mut r).unwrap();
        let b: Option<Request> = read_line(&mut r).unwrap();
        let c: Option<Request> = read_line(&mut r).unwrap();
        assert!(matches!(a, Some(Request::Ping)));
        assert!(matches!(b, Some(Request::Cancel { id: 1 })));
        assert!(c.is_none());
    }

    #[test]
    fn request_lines_are_capped() {
        // A line of exactly the cap (newline included) still parses.
        let mut line = b"\"Ping\"".to_vec();
        line.resize(MAX_REQUEST_LINE - 1, b' ');
        line.push(b'\n');
        let req = read_request(&mut &line[..]).unwrap();
        assert!(matches!(req, Some(Request::Ping)));
        // One byte more is refused without buffering past the cap.
        line.insert(0, b' ');
        let mut r = &line[..];
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(r.len(), 1, "read past the cap");
    }
}
