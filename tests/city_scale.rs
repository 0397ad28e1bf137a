//! City-scale tentpole gates: scale invariance, the golden city_64
//! trajectory, the 10k-tag wall-clock budget, and the event loop's
//! steady-state allocation bound.
//!
//! **Scale invariance** is the engine's core contract: every random
//! decision of tag `t` is keyed from `derive_seed(spec.seed, t)` and
//! idle tags are never materialised, so N active tags embedded among M
//! idle tags produce byte-identical per-active-tag ledgers for any M.
//! A dense shared-RNG simulator cannot satisfy this — the test pins the
//! architectural property, not a tuning outcome.
//!
//! The counting global allocator mirrors `tests/alloc_steady_state.rs`:
//! allocation requests on this thread are tallied, and a re-run of the
//! same spec on a reused [`CityEngine`] must perform **zero** of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fdb_channel::pathloss::PathLoss;
use fdb_core::hash::ContentHash;
use fdb_mac::csma::AccessMode;
use fdb_sim::city::{CityEngine, CityReport, CityScenarioSpec};

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

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// The checked-in dense-block scenario (the golden input).
fn city_64_spec() -> CityScenarioSpec {
    let text = std::fs::read_to_string(repo_path("configs/scenarios/city_64.json"))
        .expect("read configs/scenarios/city_64.json");
    serde_json::from_str(&text).expect("parse city_64 spec")
}

/// Appends one machine-readable result line to the file named by `env`
/// (`FDB_ALLOC_JSON` / `FDB_CITY_JSON`) for `tools/bench_check.py`.
/// No-op when unset; single `write_all` so parallel test threads don't
/// interleave (O_APPEND).
fn record_line(env: &str, line: String) {
    use std::io::Write;
    let Ok(path) = std::env::var(env) else {
        return;
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("open {env} for append: {e}"));
    f.write_all(line.as_bytes())
        .unwrap_or_else(|e| panic!("append {env} line: {e}"));
}

#[test]
fn active_ledgers_are_invariant_to_idle_population() {
    let mut spec = city_64_spec();
    spec.log_frames = true; // compare per-attempt records too
    let mut baseline = CityEngine::run(&spec).expect("M=0 run");
    assert!(baseline.totals.offered > 0, "scenario generated no traffic");
    assert!(
        baseline.totals.collisions + baseline.totals.deferrals > 0,
        "scenario exercised no contention: {:?}",
        baseline.totals
    );
    let ledger_bytes = serde_json::to_string(&baseline.ledgers).expect("serialize ledgers");

    for m in [100u32, 10_000] {
        let mut crowded = spec.clone();
        crowded.n_idle = m;
        let mut report = CityEngine::run(&crowded).unwrap_or_else(|e| {
            panic!("M={m} run failed: {e}");
        });
        assert_eq!(
            serde_json::to_string(&report.ledgers).expect("serialize ledgers"),
            ledger_bytes,
            "per-active-tag ledgers changed with {m} idle tags"
        );
        // The whole trajectory — event schedule, queue high-water mark,
        // per-attempt records — must be untouched, not just the ledgers.
        assert_eq!(report.n_idle, m);
        report.n_idle = 0;
        baseline.n_idle = 0;
        assert_eq!(report, baseline, "report diverged with {m} idle tags");
    }
}

#[test]
fn golden_city_report_matches() {
    let spec = city_64_spec();
    let fresh = CityEngine::run(&spec).expect("city_64 run");
    let text = std::fs::read_to_string(repo_path("results/golden/city_small.json"))
        .expect("read results/golden/city_small.json");
    let golden: CityReport = serde_json::from_str(&text).expect("parse golden report");

    // Field-for-field, so an intentional shift points at what moved
    // (rerun tools/regen_city_golden.py and eyeball the diff).
    assert_eq!(fresh.label, golden.label, "label");
    assert_eq!(fresh.seed, golden.seed, "seed");
    assert_eq!(fresh.n_active, golden.n_active, "n_active");
    assert_eq!(fresh.n_idle, golden.n_idle, "n_idle");
    assert_eq!(fresh.horizon_ticks, golden.horizon_ticks, "horizon_ticks");
    assert_eq!(fresh.ticks_per_s, golden.ticks_per_s, "ticks_per_s");
    assert_eq!(
        fresh.events_processed, golden.events_processed,
        "events_processed"
    );
    assert_eq!(fresh.peak_queue, golden.peak_queue, "peak_queue");
    assert_eq!(fresh.totals, golden.totals, "totals");
    assert_eq!(
        fresh.ledgers.len(),
        golden.ledgers.len(),
        "ledger count"
    );
    for (f, g) in fresh.ledgers.iter().zip(&golden.ledgers) {
        assert_eq!(f, g, "ledger of tag {}", g.tag);
    }
    assert_eq!(fresh.frames, golden.frames, "frame records");
}

/// Dense `city_64` variants that reach the parts of the interference
/// kernel the golden (FreeSpace device path loss, collision detect) does
/// not: a LogDistance exponent, a TwoRay crossover inside the 8 m area,
/// and ALOHA's blind collision marking. Each full report — ledgers,
/// totals, scheduler statistics and per-attempt records — is pinned by
/// its content digest, so any change to contention scoring or event
/// order shows here.
#[test]
fn contention_variant_reports_match_pinned_digests() {
    type Tweak = fn(&mut CityScenarioSpec);
    let variants: [(&str, Tweak, &str); 3] = [
        (
            "indoor-logdistance",
            |s| s.pathloss_device = PathLoss::indoor(),
            "99fdaf79ab67b70448ec99646d90818f",
        ),
        (
            // λ ≈ 0.556 m at 539 MHz: crossover 4π·0.5·0.25/λ ≈ 2.8 m.
            "two-ray-crossover",
            |s| {
                s.pathloss_device = PathLoss::TwoRay {
                    freq_hz: 539e6,
                    h_tx_m: 0.5,
                    h_rx_m: 0.25,
                }
            },
            "17131943e07f87199e585231cec189c6",
        ),
        (
            "aloha",
            |s| s.mode = AccessMode::Aloha,
            "1b2bbef28c65cdc311d4415222744325",
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, tweak, want) in variants {
        let mut spec = city_64_spec();
        spec.label = name.into();
        spec.log_frames = true;
        tweak(&mut spec);
        let report = CityEngine::run(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.totals.conserved(), "{name}: {:?}", report.totals);
        assert!(
            report.totals.collisions > 0,
            "{name} exercised no collisions: {:?}",
            report.totals
        );
        let got = ContentHash::of_canonical("city-variant-report", &report).to_hex();
        if got != want {
            mismatches.push(format!("{name}: {got} (pinned {want})"));
        }
    }
    assert!(mismatches.is_empty(), "variant digests moved: {mismatches:#?}");
}

/// The tentpole's scale target: 10 000 tags over one simulated hour in
/// seconds of wall-clock. The event count is pinned exactly (it is
/// deterministic and machine-independent); the wall-clock bound holds
/// with a wide margin in release builds (~0.4 s on a 2-vCPU Xeon host
/// vs the 60 s CI budget), which is why this test is `#[ignore]`d from
/// the debug tier-1 sweep and run by the release city-scale CI job with
/// `--include-ignored`.
#[test]
#[ignore = "release-only perf gate; run with --release -- --include-ignored"]
fn ten_thousand_tags_one_sim_hour_within_budget() {
    let spec = CityScenarioSpec {
        label: "city-10k".into(),
        seed: 42,
        n_active: 10_000,
        sim_duration_s: 3600.0,
        mean_interarrival_s: 60.0,
        ..CityScenarioSpec::default()
    };
    let start = std::time::Instant::now();
    let report = CityEngine::run(&spec).expect("10k run");
    let wall = start.elapsed().as_secs_f64();
    assert!(report.totals.conserved(), "{:?}", report.totals);
    assert!(report.totals.delivered > 0, "{:?}", report.totals);
    assert_eq!(
        report.events_processed, 1_572_712,
        "seed 42's event count moved (the count in BENCH_pr14.json)"
    );
    assert!(
        wall < 60.0,
        "10k tags x 1 sim hour took {wall:.1} s (budget 60 s)"
    );
    record_line(
        "FDB_CITY_JSON",
        format!(
            "{{\"name\":\"city/10k_1h\",\"events_processed\":{},\"wall_s\":{:.6},\"events_per_s\":{:.1}}}\n",
            report.events_processed,
            wall,
            report.events_processed as f64 / wall.max(1e-9),
        ),
    );

    // Two more seeds, one per access mode, pinned by the digest of the
    // full report (per-attempt records included), so any change to event
    // order or contention scoring at 10k-tag density shows here.
    let pinned: [(u64, AccessMode, &str); 2] = [
        (3, AccessMode::FdCollisionDetect, "57248450bc7068a807a9157ce364e717"),
        (4, AccessMode::Aloha, "2f009549eae0887d02b7911f8ba4145b"),
    ];
    let mut mismatches = Vec::new();
    for (seed, mode, want) in pinned {
        let spec = CityScenarioSpec {
            seed,
            mode,
            log_frames: true,
            ..spec.clone()
        };
        let report = CityEngine::run(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(report.totals.conserved(), "seed {seed}: {:?}", report.totals);
        assert!(report.totals.collisions > 0, "seed {seed}: {:?}", report.totals);
        let got = ContentHash::of_canonical("city-10k-report", &report).to_hex();
        if got != want {
            mismatches.push(format!("seed {seed} {mode:?}: {got} (pinned {want})"));
        }
    }
    assert!(mismatches.is_empty(), "10k report digests moved: {mismatches:#?}");
}

#[test]
fn reused_engine_event_loop_allocates_nothing() {
    let spec = city_64_spec();
    let mut engine = CityEngine::new();
    let mut report = CityReport::default();
    // Warmup run grows every buffer (heap, tag table, ledgers, kernel).
    engine.run_into(&spec, &mut report).expect("warmup run");
    let warm = report.clone();
    let start = allocs_on_this_thread();
    engine.run_into(&spec, &mut report).expect("steady run");
    let steady_allocs = allocs_on_this_thread() - start;
    assert_eq!(report, warm, "steady run diverged from warmup");
    assert_eq!(
        steady_allocs, 0,
        "steady-state city event loop allocated {steady_allocs} times"
    );
    record_line(
        "FDB_ALLOC_JSON",
        format!(
            "{{\"name\":\"alloc/city_steady\",\"steady_allocs\":{steady_allocs},\"frames\":{}}}\n",
            report.events_processed
        ),
    );
}
