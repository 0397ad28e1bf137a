//! The benchmark's own arithmetic: nearest-rank percentiles with a
//! minimum-tail rule, medians, and the attempted/failed tally.

/// Every reported percentile keeps at least this many samples beyond its
/// rank, so a tail figure never rests on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile over `n` samples:
/// the smallest rank `r` with `r / n ≥ p / 100`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} not in (0, 100]");
    // The epsilon keeps exact products (p = 50, n = 20 → 10) from being
    // pushed up a rank by floating-point noise.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the `p`-th percentile's nearest rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Smallest sample count whose `p`-th percentile keeps [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    let mut n = MIN_BEYOND + 1;
    while samples_beyond(n, p) < MIN_BEYOND {
        n += 1;
    }
    n
}

/// Nearest-rank percentile of `values` (sorted in place). `Err` when the
/// tail rule does not hold — the run measured too little to report it.
pub fn percentile(values: &mut [f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    if n == 0 || samples_beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples keeps fewer than {MIN_BEYOND} samples beyond it \
             (needs ≥ {})",
            min_samples_for(p)
        ));
    }
    values.sort_by(f64::total_cmp);
    Ok(values[nearest_rank(n, p) - 1])
}

/// Median (nearest-rank p50 without the tail rule) — for small sets such
/// as repeated set-ups.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[nearest_rank(values.len(), 50.0) - 1]
}

/// Operations attempted and failed in one run. A failure is a PHY error, a
/// rejected or failed job, or an output that does not match its check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations, `failed` of which failed.
    pub fn record(&mut self, n: u64, failed: u64) {
        debug_assert!(failed <= n);
        self.attempted += n;
        self.failed += failed;
    }

    /// One operation that passed (`true`) or failed.
    pub fn check(&mut self, ok: bool) {
        self.record(1, u64::from(!ok));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 for an empty tally).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Five samples: p20 is the 1st, p21 the 2nd, p100 the 5th.
        assert_eq!(nearest_rank(5, 20.0), 1);
        assert_eq!(nearest_rank(5, 21.0), 2);
        assert_eq!(nearest_rank(5, 50.0), 3);
        assert_eq!(nearest_rank(5, 100.0), 5);
        assert_eq!(nearest_rank(20, 50.0), 10);
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(1, 1.0), 1);
    }

    #[test]
    fn percentile_picks_an_actual_sample() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0).unwrap(), 50.0);
        assert_eq!(percentile(&mut v, 90.0).unwrap(), 90.0);
        // p95 of 100 keeps only 5 beyond it.
        assert!(percentile(&mut v, 95.0).is_err());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for(50.0), 20);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(99.0), 1000);
        for p in [50.0, 90.0, 99.0] {
            let n = min_samples_for(p);
            assert!(samples_beyond(n, p) >= MIN_BEYOND);
            assert!(samples_beyond(n - 1, p) < MIN_BEYOND);
            let mut short = vec![1.0; n - 1];
            assert!(
                percentile(&mut short, p).is_err(),
                "p{p} over {} samples",
                n - 1
            );
            let mut enough = vec![1.0; n];
            assert!(percentile(&mut enough, p).is_ok());
        }
        assert!(percentile(&mut [], 50.0).is_err());
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn failed_frac_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(50, 0);
        t.check(true);
        t.check(false);
        assert_eq!(
            t,
            Tally {
                attempted: 52,
                failed: 1
            }
        );
        assert!((t.failed_frac() - 1.0 / 52.0).abs() < 1e-15);
        let mut other = Tally::default();
        other.record(48, 48);
        t.merge(other);
        assert_eq!(t.attempted, 100);
        assert_eq!(t.failed_frac(), 0.49);
    }
}
