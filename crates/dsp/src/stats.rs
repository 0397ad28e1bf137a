//! Measurement statistics: BER counting with confidence intervals, running
//! moments and EWMA trackers.
//!
//! Every experiment in `fdb-bench` reports a Wilson interval alongside each
//! BER point so that "who wins" claims in EXPERIMENTS.md are statistically
//! grounded rather than single-run noise.

use serde::{Deserialize, Serialize};

/// Bit-error-rate counter.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BerCounter {
    bits: u64,
    errors: u64,
}

impl BerCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one bit comparison.
    #[inline]
    pub fn record(&mut self, sent: bool, received: bool) {
        self.bits += 1;
        if sent != received {
            self.errors += 1;
        }
    }

    /// Records a slice comparison (up to the shorter length; any length
    /// mismatch is counted as errors on the missing tail, because a lost
    /// bit is an error from the link's perspective).
    pub fn record_slice(&mut self, sent: &[bool], received: &[bool]) {
        let n = sent.len().min(received.len());
        for i in 0..n {
            self.record(sent[i], received[i]);
        }
        let missing = sent.len().abs_diff(received.len()) as u64;
        self.bits += missing;
        self.errors += missing;
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &BerCounter) {
        self.bits += other.bits;
        self.errors += other.errors;
    }

    /// Total bits compared.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total errors observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Point estimate of the BER. Returns 0 when no bits were compared.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }

    /// Wilson score interval at the given z (1.96 ≈ 95 %).
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.bits == 0 {
            return (0.0, 1.0);
        }
        let n = self.bits as f64;
        let p = self.ber();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }
}

/// Welford's online mean/variance.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Merges another accumulator (Chan's parallel formula).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
    }
}

/// Exponentially-weighted moving average.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a tracker with smoothing `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            value: None,
        }
    }

    /// Pushes a sample and returns the new average. The first sample
    /// initialises the average directly (no zero bias).
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(v);
        v
    }

    /// Current value, if any sample has been seen.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Clears the tracker.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_counts_errors() {
        let mut c = BerCounter::new();
        c.record_slice(&[true, false, true, true], &[true, true, true, false]);
        assert_eq!(c.bits(), 4);
        assert_eq!(c.errors(), 2);
        assert!((c.ber() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ber_length_mismatch_counts_as_errors() {
        let mut c = BerCounter::new();
        c.record_slice(&[true, true, true, true], &[true, true]);
        assert_eq!(c.bits(), 4);
        assert_eq!(c.errors(), 2);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        let mut c = BerCounter::new();
        for i in 0..1000 {
            c.record(true, i % 100 != 0); // 1% BER
        }
        let (lo, hi) = c.wilson_interval(1.96);
        assert!(lo <= c.ber() && c.ber() <= hi);
        assert!(lo > 0.003 && hi < 0.03, "interval ({lo}, {hi})");
    }

    #[test]
    fn wilson_interval_zero_errors_nonzero_upper() {
        let mut c = BerCounter::new();
        for _ in 0..100 {
            c.record(true, true);
        }
        let (lo, hi) = c.wilson_interval(1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.06);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 * 0.17).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..301).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i < 100 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_initialises() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.push(5.0), 5.0);
        let v = e.push(10.0);
        assert!((v - 5.5).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.2);
        let mut v = 0.0;
        for _ in 0..200 {
            v = e.push(3.0);
        }
        assert!((v - 3.0).abs() < 1e-9);
    }
}
