//! # fdb-service — the long-running sweep/scenario job service
//!
//! Turns the workspace's one-shot runners into a resident service:
//! clients submit serde-typed jobs ([`fdb_sim::JobSpec`] — link
//! measurements, fault-matrix grids, MAC scenario/ablation sessions) and
//! get a streamed response — progress ticks, live trace blocks, then one
//! terminal `Done`/`Failed`/`Cancelled` line. A running job's lines are
//! written by the worker thread that runs it; a traced link job's
//! per-frame JSONL block goes out straight from its trace sink.
//!
//! * [`protocol`] — the line-delimited JSON request/response surface,
//!   symmetric across transports.
//! * [`cache`] — the content-addressed result store: one file per job
//!   content hash, seeded from the repo's golden corpus, replaying
//!   byte-identical result JSON on repeat submissions, with an integrity
//!   `recheck` pass that recomputes entries from their stored specs.
//! * [`service`] — the [`Service`] type: persistent worker threads over
//!   one bounded queue, per-job cancel flags and wall-clock timeouts
//!   folded into the cooperative predicate [`fdb_sim::JobSpec::run`]
//!   polls, the result store and protocol dispatch; plus the Unix-socket
//!   server/client pair (`probe serve` / `probe submit`).
//!
//! The end-to-end contracts this crate owes the rest of the workspace:
//! submitting the same job twice yields a recorded cache hit whose
//! result bytes are identical to the first reply, and a trace-streamed
//! link job's concatenated trace text equals the file a
//! [`JsonlFileSink`](fdb_core::trace::JsonlFileSink) writes for a direct
//! run of the same spec, byte for byte: the service streams through the
//! same sink, with a callback in place of the file.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod protocol;
pub mod service;

pub use cache::{CachedResult, RecheckOutcome, ResultStore};
pub use protocol::{Request, Response};
#[cfg(unix)]
pub use service::{serve_unix, Client};
pub use service::{Emit, Service, ServiceConfig};
