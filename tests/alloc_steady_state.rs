//! The tentpole's zero-allocation contract, pinned with a counting
//! global allocator: after a one-frame warmup, steady-state frames on the
//! clean-link, hunting (out-of-range) link, faulted-link, and MAC-session
//! paths perform **zero** heap
//! allocations — for both frame engines (per-sample reference and block),
//! with and without `fdb-core/trace` — and so does hashing a 10k-tag city
//! report, whose canonical JSON streams into the hash. The file compiles under both
//! configs and CI runs it in each. Untraced dispatch takes the block
//! engine in both; with `--features fdb-core/trace` a frame with a
//! caller-owned ring takes the reference engine and its probes.
//!
//! The counter is thread-local, so parallel test threads can't perturb
//! each other's tallies. Only allocation *requests* are counted
//! (alloc/alloc_zeroed/realloc); frees are not — releasing capacity is
//! not a steady-state cost. A draw-ahead helper thread marks itself when
//! it first draws (see `HelperRng`), and its allocations are also added
//! to a process-wide tally only that test reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use fd_backscatter::channel::impairment::{FaultKind, FrameFaults, ScheduledFault};
use fd_backscatter::mac::scenario::{run_session, RatePolicy, SessionConfig};
use fd_backscatter::phy::draws::{enter_run, with_draw_ahead, DrawAhead};
use fd_backscatter::phy::hash::{canonical_json, ContentHash};
use fd_backscatter::phy::trace::{RingSink, ENABLED};
use fd_backscatter::prelude::*;
use fd_backscatter::sim::city::{CityEngine, CityScenarioSpec};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Set on a draw-ahead helper thread by its first draw.
    static DRAWS_AHEAD: Cell<bool> = const { Cell::new(false) };
    /// Set on the thread that runs a draw-ahead engine, which also draws
    /// (the chunks it finds missing) but counts as the engine.
    static ENGINE: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made on draw-ahead helper threads after their first draw.
static HELPER_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if DRAWS_AHEAD.try_with(Cell::get).unwrap_or(false) {
        HELPER_ALLOCS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: defers every operation to `System`; the bookkeeping is
// thread-local `Cell` access (const-init) and an atomic add, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
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

/// Frames for the draw-ahead scenario, whose helper thread competes with
/// the other tests for cores.
const DRAW_AHEAD_FRAMES: u64 = 200;

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
    /// `run_frame_into` — the production dispatch (the block engine for
    /// an untraced frame).
    Dispatch,
    /// `run_frame_into` with a caller-owned ring attached (the reference
    /// engine with its probes; trace builds only).
    Traced,
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
    let mut ring = RingSink::new(cfg.phy.trace_ring_capacity());
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
            Engine::Traced => {
                let run = FrameRun::faulted(faults).with_sink(&mut ring);
                link.run_frame_into(&payload, &opts, &mut rng, run, &mut out)
                    .unwrap();
                assert!(!ring.trace().is_empty());
            }
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
    let n = steady_state_allocs(Engine::Dispatch, STEADY_FRAMES, false);
    record_alloc("clean_link_dispatch", n, STEADY_FRAMES - 1);
    assert_eq!(n, 0, "run_frame_into allocated {n} times in steady state");
}

#[test]
fn traced_faulted_link_is_allocation_free_after_warmup() {
    // The reference engine's probes (fault edges included) recording into
    // a full, evicting ring. Builds that cannot trace refuse the sink.
    if !ENABLED {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut link = FdLink::new(link_cfg(), &mut rng).unwrap();
        let mut ring = RingSink::new(16);
        let run = FrameRun::clean().with_sink(&mut ring);
        let res = link.run_frame_with(&[1, 2], &RunOptions::fd_monitor(), &mut rng, run);
        assert!(matches!(
            res,
            Err(fd_backscatter::phy::PhyError::TraceSink { .. })
        ));
        assert!(ring.trace().is_empty());
        return;
    }
    let n = steady_state_allocs(Engine::Traced, STEADY_FRAMES, true);
    assert_eq!(n, 0, "traced frames allocated {n} times in steady state");
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

/// The run's RNG, marking the threads other than the engine's that draw
/// from it. Handed to `with_draw_ahead`, it draws on the helper thread,
/// and on the engine's for any chunk the engine finds missing.
#[derive(Clone)]
struct HelperRng(ChaCha8Rng);

impl RngCore for HelperRng {
    fn next_u64(&mut self) -> u64 {
        if !ENGINE.with(Cell::get) {
            DRAWS_AHEAD.with(|h| h.set(true));
        }
        self.0.next_u64()
    }
}

#[test]
fn draw_ahead_link_is_allocation_free_after_warmup() {
    // The block engine reading its draws from a draw-ahead tape, the way
    // `run_link` runs an untraced link when a core is free: nothing on
    // the engine thread after the warmup frame, and nothing on the helper
    // from its first draw on.
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut link = FdLink::new(link_cfg(), &mut rng).unwrap();
    let payload: Vec<u8> = (0..32u8).collect();
    let opts = RunOptions::fd_monitor();
    let mut out = FrameOutcome::default();
    let helper_start = HELPER_ALLOCS.load(Ordering::SeqCst);
    let plan = link.draw_plan().clone();
    ENGINE.with(|e| e.set(true));
    let run = enter_run(DrawAhead::Always);
    let engine = with_draw_ahead(&run, HelperRng(rng), plan, |tape| {
        let tape = tape.expect("draw-ahead helper spawned");
        let mut start = 0;
        for frame in 0..DRAW_AHEAD_FRAMES {
            if frame == 1 {
                start = allocs_on_this_thread();
            }
            link.run_frame_block_into(&payload, &opts, tape, None, &mut out)
                .unwrap();
            assert!(out.samples_run > 0);
        }
        allocs_on_this_thread() - start
    });
    let helper = HELPER_ALLOCS.load(Ordering::SeqCst) - helper_start;
    record_alloc("draw_ahead_link", engine + helper, DRAW_AHEAD_FRAMES - 1);
    assert_eq!(engine, 0, "the engine allocated {engine} times in steady state");
    assert_eq!(helper, 0, "the draw-ahead helper allocated {helper} times");
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

#[test]
fn hashing_a_city_report_allocates_nothing() {
    // The report's canonical JSON streams into the hash lanes: no string
    // and no `Value` tree, however many ledgers the report holds.
    let spec = CityScenarioSpec {
        label: "city-10k-hash".into(),
        seed: 42,
        n_active: 10_000,
        sim_duration_s: 600.0,
        mean_interarrival_s: 60.0,
        log_frames: true,
        ..CityScenarioSpec::default()
    };
    let report = CityEngine::run(&spec).unwrap();
    assert_eq!(report.ledgers.len(), 10_000);
    assert!(!report.frames.is_empty());
    let start = allocs_on_this_thread();
    let hash = ContentHash::of_canonical("city-report", &report);
    let n = allocs_on_this_thread() - start;
    let text = format!("city-report:{}", canonical_json(&report));
    assert_eq!(hash, ContentHash::of_bytes(text.as_bytes()));
    record_alloc("hash_city_report", n, report.ledgers.len() as u64);
    assert_eq!(n, 0, "hashing a 10k-tag city report allocated {n} times");
}
