//! End-to-end exercise of the Unix-socket transport: one service, one
//! client, the full protocol conversation — liveness, compute, cached
//! replay with byte-identical result lines, live trace streaming,
//! cache recheck, shutdown.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::Arc;

use fdb_core::link::LinkConfig;
use fdb_service::{serve_unix, Client, Request, Response, Service, ServiceConfig};
use fdb_sim::{JobSpec, MeasureSpec};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdb-socket-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn link_job(frames: u64, seed: u64) -> JobSpec {
    JobSpec::Link {
        link: LinkConfig::default_fd(),
        spec: MeasureSpec {
            frames,
            seed,
            ..MeasureSpec::default()
        },
    }
}

fn connect_with_retry(path: &std::path::Path) -> Client {
    for _ in 0..200 {
        if let Ok(client) = Client::connect(path) {
            return client;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("service socket never came up at {}", path.display());
}

/// Drives a submission to its terminal response, returning
/// `(result_json, trace_text, cached)` where `result_json` is the raw
/// serialization of the `Done` response's result payload (the
/// byte-identity unit) and `trace_text` is the concatenation of streamed
/// trace chunks.
fn submit(client: &mut Client, job: JobSpec, stream_trace: bool) -> (String, String, bool) {
    client
        .send(&Request::Submit {
            job,
            stream_trace,
            timeout_ms: 0,
        })
        .unwrap();
    let mut trace = String::new();
    let mut saw_accept = false;
    loop {
        match client.recv().unwrap().expect("service hung up mid-job") {
            Response::Accepted { .. } => saw_accept = true,
            Response::Progress { .. } => continue,
            Response::Trace { text, .. } => trace.push_str(&text),
            Response::Done { result, cached, .. } => {
                assert!(saw_accept, "Done before Accepted");
                return (serde_json::to_string(&result).unwrap(), trace, cached);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}

#[test]
fn socket_conversation_end_to_end() {
    let dir = scratch("e2e");
    let socket = dir.join("service.sock");
    let service = Arc::new(
        Service::start(ServiceConfig::new(dir.join("cache"))).expect("service starts"),
    );
    let serve = {
        let service = Arc::clone(&service);
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(service, &socket).expect("serve loop"))
    };
    let mut client = connect_with_retry(&socket);

    // Liveness: an empty cache and an idle pool.
    client.send(&Request::Ping).unwrap();
    match client.recv().unwrap().unwrap() {
        Response::Pong { cache_entries, .. } => assert_eq!(cache_entries, 0),
        other => panic!("expected Pong, got {other:?}"),
    }

    // Cold submission computes; warm submission replays byte-identically.
    let (cold, _, cold_cached) = submit(&mut client, link_job(3, 11), false);
    assert!(!cold_cached, "cold cache must compute");
    let (warm, _, warm_cached) = submit(&mut client, link_job(3, 11), false);
    assert!(warm_cached, "second submission must be a recorded cache hit");
    assert_eq!(
        cold, warm,
        "cached result must replay the computed one byte-for-byte"
    );

    // A different seed is a different content address: computes again.
    let (_, _, other_cached) = submit(&mut client, link_job(3, 12), false);
    assert!(!other_cached, "a changed seed must miss the cache");

    // Ping again: 2 entries, 1 hit recorded.
    client.send(&Request::Ping).unwrap();
    match client.recv().unwrap().unwrap() {
        Response::Pong {
            cache_entries,
            cache_hits,
            ..
        } => {
            assert_eq!(cache_entries, 2);
            assert_eq!(cache_hits, 1);
        }
        other => panic!("expected Pong, got {other:?}"),
    }

    // Integrity pass over everything the conversation cached.
    client.send(&Request::Recheck { sample_every: 1 }).unwrap();
    match client.recv().unwrap().unwrap() {
        Response::RecheckReport {
            checked,
            matched,
            mismatched,
        } => {
            assert_eq!(checked, 2);
            assert_eq!(matched, 2);
            assert_eq!(mismatched, Vec::<String>::new());
        }
        other => panic!("expected RecheckReport, got {other:?}"),
    }

    // Cancelling an id that already finished is acknowledged as unknown.
    client.send(&Request::Cancel { id: 1 }).unwrap();
    match client.recv().unwrap().unwrap() {
        Response::CancelAck { id: 1, known } => assert!(!known),
        other => panic!("expected CancelAck, got {other:?}"),
    }

    client.send(&Request::Shutdown).unwrap();
    match client.recv().unwrap().unwrap() {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    serve.join().expect("serve thread");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("service still shared"))
        .shutdown();
}

/// The tentpole trace contract over the real socket: the concatenated
/// `Trace` chunk text of a streamed link job equals the file a
/// `JsonlFileSink` writes for the same `(config, spec, seed)`, byte for
/// byte — and streamed submissions never populate the cache. A build
/// whose engine cannot trace answers the same submission with `Rejected`.
#[test]
fn socket_streamed_trace_matches_file_sink() {
    use fdb_core::trace::JsonlFileSink;
    use fdb_sim::RunControl;

    let dir = scratch("trace");
    let socket = dir.join("service.sock");
    let service = Arc::new(
        Service::start(ServiceConfig::new(dir.join("cache"))).expect("service starts"),
    );
    let serve = {
        let service = Arc::clone(&service);
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(service, &socket).expect("serve loop"))
    };
    let mut client = connect_with_retry(&socket);

    if fdb_core::trace::ENABLED {
        let (_, streamed, cached) = submit(&mut client, link_job(4, 21), true);
        assert!(!cached);
        assert!(!streamed.is_empty(), "streamed trace captured nothing");

        // Reference: the identical job straight into a file sink.
        let ref_path = dir.join("reference.jsonl");
        let mut sink = JsonlFileSink::create(&ref_path).unwrap();
        link_job(4, 21)
            .run(RunControl::new().with_sink(&mut sink))
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(
            streamed,
            std::fs::read_to_string(&ref_path).unwrap(),
            "socket-streamed trace must equal the JsonlFileSink file byte-for-byte"
        );
    } else {
        client
            .send(&Request::Submit {
                job: link_job(4, 21),
                stream_trace: true,
                timeout_ms: 0,
            })
            .unwrap();
        match client.recv().unwrap().unwrap() {
            Response::Rejected { reason } => assert!(reason.contains("fdb-core/trace"), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    // Streamed submissions bypass the cache in both directions.
    client.send(&Request::Ping).unwrap();
    match client.recv().unwrap().unwrap() {
        Response::Pong { cache_entries, .. } => assert_eq!(cache_entries, 0),
        other => panic!("expected Pong, got {other:?}"),
    }

    client.send(&Request::Shutdown).unwrap();
    let _ = client.recv();
    serve.join().expect("serve thread");
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("service still shared"))
        .shutdown();
}

/// Submissions refused by the validator are answered with `Rejected` and
/// leave the connection usable.
#[test]
fn invalid_submission_is_rejected_inline() {
    let dir = scratch("reject");
    let socket = dir.join("service.sock");
    let service = Arc::new(
        Service::start(ServiceConfig::new(dir.join("cache"))).expect("service starts"),
    );
    let serve = {
        let service = Arc::clone(&service);
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(service, &socket).expect("serve loop"))
    };
    let mut client = connect_with_retry(&socket);

    client
        .send(&Request::Submit {
            job: link_job(0, 1), // frames: 0 fails validation
            stream_trace: false,
            timeout_ms: 0,
        })
        .unwrap();
    match client.recv().unwrap().unwrap() {
        Response::Rejected { reason } => assert!(reason.contains("invalid job")),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // The connection still works afterwards.
    let (_, _, cached) = submit(&mut client, link_job(2, 1), false);
    assert!(!cached);

    client.send(&Request::Shutdown).unwrap();
    let _ = client.recv();
    serve.join().expect("serve thread");
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("service still shared"))
        .shutdown();
}

/// A request line longer than the protocol cap is refused with `Rejected`
/// and its connection closed, without the service buffering past the
/// cap; other clients are still served.
#[test]
fn over_cap_request_line_is_rejected_and_service_stays_up() {
    use fdb_service::protocol::MAX_REQUEST_LINE;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = scratch("cap");
    let socket = dir.join("service.sock");
    let service = Arc::new(
        Service::start(ServiceConfig::new(dir.join("cache"))).expect("service starts"),
    );
    let serve = {
        let service = Arc::clone(&service);
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(service, &socket).expect("serve loop"))
    };
    drop(connect_with_retry(&socket));

    let mut hostile = UnixStream::connect(&socket).unwrap();
    // The service stops reading at the cap and may hang up before the
    // last byte is accepted, so a failed write is expected here.
    let _ = hostile.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]);
    let mut reader = BufReader::new(hostile);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: Response = serde_json::from_str(line.trim_end()).unwrap();
    match resp {
        Response::Rejected { reason } => assert!(reason.contains("exceeds"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    // The connection is closed after the refusal (EOF, or a reset for the
    // unread tail).
    line.clear();
    assert!(matches!(reader.read_line(&mut line), Ok(0) | Err(_)), "got {line:?}");

    let mut client = connect_with_retry(&socket);
    let (_, _, cached) = submit(&mut client, link_job(2, 3), false);
    assert!(!cached);

    client.send(&Request::Shutdown).unwrap();
    let _ = client.recv();
    serve.join().expect("serve thread");
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("service still shared"))
        .shutdown();
}
