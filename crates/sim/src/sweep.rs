//! Order-preserving parallel parameter sweeps.
//!
//! Every experiment is a sweep: a list of parameter points, each measured
//! independently with its own derived seed. Points are embarrassingly
//! parallel, so they are fanned out over `std::thread::scope` workers
//! pulling from a shared atomic work index. Dynamic stealing matters
//! because sweep points are far from uniform cost (a point that locks
//! late or re-arms repeatedly simulates many more samples than a clean
//! one): static chunking would leave every other worker idle behind the
//! unlucky chunk. Workers tag each result with its input index and the
//! results are re-assembled in input order afterwards, so the output is
//! independent of scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every point, in parallel, preserving input order.
///
/// `f` must be deterministic per point (derive randomness from the point
/// itself, e.g. via `runner::derive_seed`) so the sweep's output does not
/// depend on scheduling.
pub fn parallel_sweep<P, R, F>(points: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads
        .max(1)
        .min(n)
        .min(std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
    if threads == 1 {
        return points.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, f(&points[i])));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Builds a linear sweep of `n` points over `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Builds a logarithmic sweep of `n` points over `[lo, hi]` inclusive
/// (both must be positive; invalid inputs produce an empty sweep).
pub fn logspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if lo <= 0.0 || hi <= 0.0 {
        return Vec::new();
    }
    linspace(lo.ln(), hi.ln(), n).into_iter().map(f64::exp).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = parallel_sweep(&points, 8, |&p| p * p);
        let expect: Vec<u64> = points.iter().map(|p| p * p).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_thread_path() {
        let points = vec![1, 2, 3];
        assert_eq!(parallel_sweep(&points, 1, |&p| p + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let points: Vec<u32> = vec![];
        assert!(parallel_sweep(&points, 4, |&p| p).is_empty());
    }

    #[test]
    fn more_threads_than_points() {
        let points = vec![10, 20];
        assert_eq!(parallel_sweep(&points, 16, |&p| p / 10), vec![1, 2]);
    }

    #[test]
    fn skewed_costs_are_stolen_not_chunked() {
        use std::sync::{Condvar, Mutex};
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        if cores < 2 {
            return; // stealing is unobservable on one core
        }
        // Point 0 is slow: it holds its worker until the seven cheap points
        // are done, however late the OS starts the other worker. The wait
        // is bounded, so chunking fails the test instead of hanging it.
        let cheap_done = (Mutex::new(0usize), Condvar::new());
        let points: Vec<usize> = (0..8).collect();
        let out = parallel_sweep(&points, 2, |&p| {
            let (count, cv) = &cheap_done;
            let mut n = count.lock().expect("counter lock");
            if p == 0 {
                let timeout = std::time::Duration::from_secs(5);
                drop(cv.wait_timeout_while(n, timeout, |n| *n < 7).expect("counter lock"));
            } else {
                *n += 1;
                cv.notify_all();
            }
            (std::thread::current().id(), p)
        });
        // Input order preserved regardless of scheduling.
        for (i, &(_, p)) in out.iter().enumerate() {
            assert_eq!(i, p);
        }
        // Static chunking would trap points 1–3 behind the slow one; with
        // work-stealing the other worker drains them while the slow worker
        // is pinned.
        let slow_tid = out[0].0;
        let handled_by_slow = out.iter().filter(|&&(tid, _)| tid == slow_tid).count();
        assert!(
            handled_by_slow <= 2,
            "slow worker handled {handled_by_slow} of 8 points — chunking, not stealing"
        );
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(1.0, 3.0, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[4] - 3.0).abs() < 1e-12);
        assert!((v[2] - 2.0).abs() < 1e-12);
        assert_eq!(linspace(0.0, 1.0, 1), vec![0.0]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn logspace_ratios() {
        let v = logspace(1.0, 100.0, 3);
        assert!((v[0] - 1.0).abs() < 1e-9);
        assert!((v[1] - 10.0).abs() < 1e-9);
        assert!((v[2] - 100.0).abs() < 1e-9);
        assert!(logspace(-1.0, 10.0, 3).is_empty());
    }

    #[test]
    fn heavy_function_parallel_correctness() {
        // A function with real work to shake out races.
        let points: Vec<u64> = (0..32).collect();
        let out = parallel_sweep(&points, 8, |&p| {
            let mut acc = p;
            for _ in 0..10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        });
        let serial: Vec<u64> = points
            .iter()
            .map(|&p| {
                let mut acc = p;
                for _ in 0..10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
            .collect();
        assert_eq!(out, serial);
    }
}
