//! Draw-ahead through `run_link`: a helper thread computing a run's random
//! draws changes no output bit, and never outlives the run, whichever way
//! the run ends.
//!
//! The helper is forced on (`run_link_with_helper`), so these tests run
//! the draw-ahead path on a one-core machine too. Helper threads are found
//! by name in `/proc/self/task` where that exists; every test here holds
//! `HELPERS`, so the helpers seen are the running test's own.

use fd_backscatter::phy::hash::canonical_json;
use fd_backscatter::phy::PhyError;
use fd_backscatter::prelude::*;
use fd_backscatter::sim::runner::{run_link, run_link_with_helper};
use fd_backscatter::sim::{FaultPlan, LinkMetrics};
use serde::Deserialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static HELPERS: Mutex<()> = Mutex::new(());

fn hold_helpers() -> MutexGuard<'static, ()> {
    let guard = HELPERS.lock().unwrap_or_else(|e| e.into_inner());
    assert_no_helper_left("the previous test");
    guard
}

/// Live draw-ahead helper threads (`None` without `/proc/self/task`).
fn helper_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|name| name.trim_end() == "fdb-draw-ahead")
            .count(),
    )
}

/// [`helper_threads`] once the count is `want`, or after a second. A new
/// thread carries its spawner's name until it first runs and names
/// itself, which on a loaded machine can be after a run's first frame.
fn helper_threads_settled(want: usize) -> Option<usize> {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = helper_threads();
        if n.is_none_or(|n| n == want) || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Asserts that no helper thread is left. A joined thread can linger in
/// `/proc/self/task` for a moment while the kernel releases it, so this
/// waits up to a second for the entry to go.
fn assert_no_helper_left(what: &str) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while helper_threads().unwrap_or(0) > 0 {
        assert!(Instant::now() < deadline, "{what}: a helper outlived run_link");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[derive(Deserialize)]
struct ScenarioFile {
    link: LinkConfig,
    spec: MeasureSpec,
}

fn json_files(dir: &str) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

/// Runs with the helper forced on, checking from the first frame's
/// observer that a helper runs exactly when the config may draw ahead,
/// and returns the metrics.
fn with_helper(cfg: &LinkConfig, spec: &MeasureSpec) -> LinkMetrics {
    assert_no_helper_left("the previous run");
    let want = usize::from(!cfg.draws_depend_on_sample_index());
    let mut seen = None;
    let mut observe = |i: u64, _: &FrameOutcome| {
        if i == 0 {
            seen = helper_threads_settled(want);
        }
    };
    let m = run_link_with_helper(cfg, spec, LinkRun::new().with_observe(&mut observe), true)
        .unwrap();
    assert!(seen.is_none_or(|n| n == want), "{seen:?} helpers during the run, want {want}");
    m
}

#[test]
fn bundled_configs_give_identical_metrics_with_and_without_a_helper() {
    let _helpers = hold_helpers();
    let plans: Vec<FaultPlan> = json_files("configs/faults")
        .iter()
        .map(|p| serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect();
    let configs = json_files("configs");
    assert!(configs.len() >= 3, "{configs:?}");
    let mut drew_ahead = 0;
    for path in configs {
        let file: ScenarioFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        drew_ahead += usize::from(!file.link.draws_depend_on_sample_index());
        let mut specs = vec![file.spec.clone()];
        for plan in &plans {
            let mut spec = file.spec.clone().with_faults(plan.clone());
            spec.frames = spec.frames.min(6);
            specs.push(spec);
        }
        for spec in specs {
            let on = with_helper(&file.link, &spec);
            let off = run_link_with_helper(&file.link, &spec, LinkRun::new(), false).unwrap();
            assert_eq!(on.frames, spec.frames);
            assert_eq!(
                canonical_json(&on),
                canonical_json(&off),
                "{path:?} with faults {:?}",
                spec.faults.is_some()
            );
        }
    }
    assert!(drew_ahead >= 2, "only {drew_ahead} bundled configs may draw ahead");
    assert_no_helper_left("bundled configs");
}

#[test]
fn runs_whose_draws_follow_the_sample_index_draw_inline() {
    let _helpers = hold_helpers();
    let mut cfg = LinkConfig::default_fd();
    cfg.fading_advance_bits = 8;
    cfg.geometry.fading_device = Fading::rayleigh(20.0);
    let spec = MeasureSpec {
        frames: 2,
        ..MeasureSpec::quick(3)
    };
    let mut seen = None;
    let mut observe = |_: u64, _: &FrameOutcome| seen = seen.max(helper_threads());
    let faded =
        run_link_with_helper(&cfg, &spec, LinkRun::new().with_observe(&mut observe), true).unwrap();
    assert_eq!(seen.unwrap_or(0), 0, "a helper drew ahead of block fading");
    let inline = run_link_with_helper(&cfg, &spec, LinkRun::new(), false).unwrap();
    assert_eq!(canonical_json(&faded), canonical_json(&inline));
}

/// How a run with a helper attached is made to end early.
#[derive(Clone, Copy, Debug)]
enum Exit {
    /// The cancellation predicate fires before frame 3.
    Cancel,
    /// The first frame returns `PhyError` (a payload the header cannot
    /// express).
    FrameError,
    /// The observer panics after frame 1.
    ObserverPanic,
}

/// Runs `exit`'s scenario on its own thread and returns how long
/// `run_link` took to come back once the run's end was triggered; fails,
/// instead of hanging, if it never comes back.
fn time_to_return(exit: Exit) -> Duration {
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        let cfg = LinkConfig::default_fd();
        let mut spec = MeasureSpec {
            frames: 40,
            ..MeasureSpec::quick(5)
        };
        if let Exit::FrameError = exit {
            spec.payload_len = 1 << 20;
        }
        let mut trigger = Instant::now();
        let mut observe = |i: u64, _: &FrameOutcome| {
            assert!(helper_threads_settled(1).is_none_or(|n| n == 1), "no helper attached");
            trigger = Instant::now();
            if let (Exit::ObserverPanic, 1) = (exit, i) {
                panic!("observer panics on purpose");
            }
        };
        let frames = std::cell::Cell::new(0u64);
        let cancel = || {
            frames.set(frames.get() + 1);
            matches!(exit, Exit::Cancel) && frames.get() > 3
        };
        let run = LinkRun::new().with_observe(&mut observe).with_cancel(&cancel);
        let res = catch_unwind(AssertUnwindSafe(|| run_link_with_helper(&cfg, &spec, run, true)));
        let took = trigger.elapsed();
        let ended_as_asked = matches!(
            (exit, &res),
            (Exit::Cancel, Ok(Err(PhyError::Cancelled { frames_done: 3 })))
                | (Exit::FrameError, Ok(Err(PhyError::PayloadTooLarge { .. })))
                | (Exit::ObserverPanic, Err(_))
        );
        let _ = done.send((ended_as_asked, took));
    });
    let (ended_as_asked, took) = wait
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("{exit:?}: run_link never returned"));
    assert!(ended_as_asked, "{exit:?}: the run did not end the way the test made it");
    took
}

#[test]
fn every_exit_path_stops_and_joins_the_helper() {
    let _helpers = hold_helpers();
    for exit in [Exit::Cancel, Exit::FrameError, Exit::ObserverPanic] {
        let took = time_to_return(exit);
        assert!(took < Duration::from_secs(2), "{exit:?}: {took:?} to return");
        assert_no_helper_left(&format!("{exit:?}"));
    }
}

#[test]
fn concurrent_runs_match_their_sequential_metrics() {
    // On two cores the first run to start takes the free core's helper,
    // and the second run's start takes that core back: the first run's
    // engine then draws its chunks itself until the other run leaves.
    let _helpers = hold_helpers();
    let file: ScenarioFile =
        serde_json::from_str(&std::fs::read_to_string("configs/near_tower.json").unwrap()).unwrap();
    let specs = [1, 2].map(|seed| MeasureSpec {
        seed,
        ..file.spec.clone()
    });
    let run =
        |spec: &MeasureSpec| canonical_json(&run_link(&file.link, spec, LinkRun::new()).unwrap());
    let sequential = specs.each_ref().map(run);
    let start = Barrier::new(specs.len());
    let concurrent = std::thread::scope(|s| {
        let runs = specs.each_ref().map(|spec| {
            s.spawn(|| {
                start.wait();
                run(spec)
            })
        });
        runs.map(|r| r.join().unwrap())
    });
    assert_eq!(concurrent, sequential);
    assert_no_helper_left("concurrent runs");
}
