//! The tentpole's zero-allocation contract, pinned with a counting
//! global allocator: after a one-frame warmup, steady-state frames on the
//! clean-link, hunting (out-of-range) link, faulted-link, and MAC-session
//! paths perform **zero** heap
//! allocations — for both frame engines (per-sample reference and block),
//! with and without the `trace` feature (this file compiles under both
//! configs; CI runs it twice).
//!
//! The counter is thread-local, so parallel test threads can't perturb
//! each other's tallies. Only allocation *requests* are counted
//! (alloc/alloc_zeroed/realloc); frees are not — releasing capacity is
//! not a steady-state cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fd_backscatter::channel::impairment::{FaultKind, FrameFaults, ScheduledFault};
use fd_backscatter::mac::scenario::{run_session, RatePolicy, SessionConfig};
use fd_backscatter::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the bookkeeping is a
// thread-local `Cell` bump, which itself never allocates (const-init).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Appends one machine-readable result line to the file named by
/// `FDB_ALLOC_JSON` (mirroring the bench harness's `FDB_BENCH_JSON`
/// stream) so `tools/bench_check.py` can fold steady-state allocation
/// counts into the committed trajectory file. No-op when unset. Runs
/// *after* the measured window, so its own allocations don't perturb
/// the count; the single `write_all` of one short line keeps parallel
/// test threads from interleaving (O_APPEND).
fn record_alloc(name: &str, allocs: u64, frames: u64) {
    use std::io::Write;
    let Ok(path) = std::env::var("FDB_ALLOC_JSON") else {
        return;
    };
    let line = format!(
        "{{\"name\":\"alloc/{name}\",\"steady_allocs\":{allocs},\"frames\":{frames}}}\n"
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open FDB_ALLOC_JSON for append");
    f.write_all(line.as_bytes())
        .expect("append FDB_ALLOC_JSON line");
}

/// Frames to run after warmup. The contract is "multi-thousand"; the
/// per-sample engine simulates every sample so keep the payload small.
const STEADY_FRAMES: u64 = 1000;

/// Frames for the hunting scenario: an unlocked frame runs its whole
/// tail through acquisition, the costliest stage in a debug build.
const HUNTING_FRAMES: u64 = 200;

fn link_cfg() -> LinkConfig {
    link_cfg_at(0.5)
}

fn link_cfg_at(device_dist_m: f64) -> LinkConfig {
    let mut cfg = LinkConfig::default_fd();
    cfg.geometry.device_dist_m = device_dist_m;
    cfg
}

#[derive(Clone, Copy)]
enum Engine {
    /// `run_frame_into` — the production dispatch (block engine on
    /// non-trace builds, reference on trace builds).
    Dispatch,
    /// The per-sample reference pipeline, forced.
    Reference,
    /// The segmented block pipeline, forced.
    Block,
}

/// Runs `frames` frames over one link with fully reused buffers and
/// returns the allocations counted from the start of frame 1 (i.e.
/// excluding the warmup frame 0, which may grow every buffer).
fn steady_state_allocs(engine: Engine, frames: u64, faulted: bool) -> u64 {
    steady_state_allocs_on(link_cfg(), engine, frames, faulted)
}

fn steady_state_allocs_on(cfg: LinkConfig, engine: Engine, frames: u64, faulted: bool) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut link = FdLink::new(cfg, &mut rng).unwrap();
    let payload: Vec<u8> = (0..32u8).collect();
    let opts = RunOptions::fd_monitor();
    let mut out = FrameOutcome::default();
    let mut engine_faults = FrameFaults::new(Vec::new(), 0);
    let mut start = 0u64;
    for frame in 0..frames {
        if frame == 1 {
            start = allocs_on_this_thread();
        }
        let faults = if faulted {
            engine_faults.rearm(
                [ScheduledFault {
                    start: 4000,
                    duration: 600,
                    kind: FaultKind::Dropout {
                        target: Default::default(),
                    },
                }],
                0x5EED ^ frame,
            );
            Some(&mut engine_faults)
        } else {
            None
        };
        match engine {
            Engine::Dispatch => link
                .run_frame_into(&payload, &opts, &mut rng, FrameRun::faulted(faults), &mut out)
                .unwrap(),
            Engine::Reference => link
                .run_frame_reference_into(&payload, &opts, &mut rng, faults, &mut out)
                .unwrap(),
            Engine::Block => link
                .run_frame_block_into(&payload, &opts, &mut rng, faults, &mut out)
                .unwrap(),
        }
        // Consume the outcome the way the runner does, so the borrow
        // checker can't optimise the frame away and delivered results are
        // genuinely produced each frame.
        assert!(out.samples_run > 0);
    }
    allocs_on_this_thread() - start
}

#[test]
fn clean_link_reference_engine_is_allocation_free_after_warmup() {
    let n = steady_state_allocs(Engine::Reference, STEADY_FRAMES, false);
    record_alloc("clean_link_reference", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "reference engine allocated {n} times in steady state");
}

#[test]
fn clean_link_block_engine_is_allocation_free_after_warmup() {
    let n = steady_state_allocs(Engine::Block, STEADY_FRAMES, false);
    record_alloc("clean_link_block", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "block engine allocated {n} times in steady state");
}

#[test]
fn clean_link_dispatch_is_allocation_free_after_warmup() {
    // Covers the trace-on path too: on `trace` builds `run_frame_into`
    // routes through the reference engine and recycles the outcome's
    // trace ring in place.
    let n = steady_state_allocs(Engine::Dispatch, STEADY_FRAMES, false);
    record_alloc("clean_link_dispatch", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "run_frame_into allocated {n} times in steady state");
}

#[test]
fn hunting_link_block_engine_is_allocation_free_after_warmup() {
    // Out of range: B hunts for the preamble through most frames, so the
    // block engine's batched acquisition pass runs on nearly every
    // segment, with the occasional lock and rejection.
    let n = steady_state_allocs_on(link_cfg_at(2.4), Engine::Block, HUNTING_FRAMES, false);
    record_alloc("hunting_link_block", n, HUNTING_FRAMES - 1);
    assert_eq!(n, 0, "hunting block engine allocated {n} times in steady state");
}

#[test]
fn faulted_link_is_allocation_free_after_warmup() {
    for (engine, name) in [
        (Engine::Reference, "faulted_link_reference"),
        (Engine::Block, "faulted_link_block"),
    ] {
        let n = steady_state_allocs(engine, STEADY_FRAMES, true);
        record_alloc(name, n, STEADY_FRAMES - 1);
        assert_eq!(n, 0, "faulted frames allocated {n} times in steady state");
    }
}

#[test]
fn mac_session_is_allocation_free_after_warmup() {
    // `run_session` owns its per-slot reuse (lazy link + `reinit`, one
    // outcome, persistent options, pre-reserved records). The per-slot
    // fault closure runs at the top of every slot, so the allocation
    // count sampled there brackets whole steady-state slots: slot 0 is
    // the warmup (engines and report storage grow); slots 1..last must
    // not allocate.
    let session = SessionConfig {
        frames: 200,
        payload_len: 32,
        seed: 7,
        rate: RatePolicy::Fixed {
            samples_per_chip: link_cfg().phy.samples_per_chip,
        },
        early_abort: false,
        max_attempts: 2,
        retry_gap_samples: 400,
        flow: None,
        distance_ramp_m_per_slot: 0.0,
    };
    let start = Cell::new(0u64);
    let end = Cell::new(0u64);
    let report = run_session(&link_cfg(), &session, |slot, _| {
        if slot == 1 {
            start.set(allocs_on_this_thread());
        }
        if slot >= 1 {
            end.set(allocs_on_this_thread());
        }
        false
    })
    .unwrap();
    assert!(report.records.len() >= 200);
    assert!(start.get() > 0, "warmup slot never ran");
    let n = end.get() - start.get();
    record_alloc("mac_session", n, session.frames - 1);
    assert_eq!(n, 0, "MAC session allocated {n} times across steady-state slots");
}
