//! Adaptive slicer: turning envelope levels into bits.
//!
//! A backscatter receiver never knows its absolute signal levels — they
//! depend on distance, ambient power and modulation depth — so the decision
//! threshold must be learned from the waveform itself. [`PeakTracker`] does
//! this with leaky max/min followers and a threshold at their midpoint:
//! cheap (a comparator plus two RC networks in hardware), fast to acquire,
//! and the model of what a real tag does. It is the slicer the PHY uses.

use serde::{Deserialize, Serialize};

/// Leaky peak-tracking slicer.
///
/// Max and min followers attack instantly and decay exponentially toward
/// the current sample with rate `decay` per sample; the slice threshold is
/// their midpoint. `decay` should be slow relative to the chip rate but
/// fast relative to fading dynamics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PeakTracker {
    max: f64,
    min: f64,
    decay: f64,
    primed: bool,
}

impl PeakTracker {
    /// Creates a tracker with the given per-sample decay (e.g. `1e-3`).
    pub fn new(decay: f64) -> Self {
        PeakTracker {
            max: 0.0,
            min: 0.0,
            decay: decay.clamp(0.0, 1.0),
            primed: false,
        }
    }

    /// Current threshold estimate.
    pub fn threshold(&self) -> f64 {
        0.5 * (self.max + self.min)
    }

    /// Current estimated swing (max − min).
    pub fn swing(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }

    /// Processes one envelope sample; returns the sliced bit.
    pub fn process(&mut self, x: f64) -> bool {
        if !self.primed {
            self.max = x;
            self.min = x;
            self.primed = true;
            return false;
        }
        if x > self.max {
            self.max = x;
        } else {
            self.max -= self.decay * (self.max - x);
        }
        if x < self.min {
            self.min = x;
        } else {
            self.min += self.decay * (x - self.min);
        }
        x > self.threshold()
    }

    /// Slices a block into a caller-owned bit buffer (cleared first) — the
    /// allocation-free block entry point.
    pub fn process_block_into(&mut self, xs: &[f64], out: &mut Vec<bool>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.process(x)));
    }

    /// Pre-loads the followers (e.g. from a known preamble swing).
    pub fn prime(&mut self, min: f64, max: f64) {
        self.min = min.min(max);
        self.max = max.max(min);
        self.primed = true;
    }

    /// Resets to the unprimed state.
    pub fn reset(&mut self) {
        self.primed = false;
        self.max = 0.0;
        self.min = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave(n: usize, lo: f64, hi: f64, half_period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if (i / half_period).is_multiple_of(2) { hi } else { lo })
            .collect()
    }

    #[test]
    fn peak_tracker_slices_clean_square_wave() {
        let xs = square_wave(4000, 1.0, 3.0, 10);
        let mut t = PeakTracker::new(1e-3);
        let mut correct = 0;
        let mut total = 0;
        for (i, &x) in xs.iter().enumerate() {
            let bit = t.process(x);
            if i > 100 {
                total += 1;
                if bit == ((i / 10) % 2 == 0) {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.99);
        assert!((t.threshold() - 2.0).abs() < 0.2, "thr {}", t.threshold());
    }

    #[test]
    fn peak_tracker_prime_sets_threshold() {
        let mut t = PeakTracker::new(1e-3);
        t.prime(1.0, 3.0);
        assert!((t.threshold() - 2.0).abs() < 1e-12);
        assert!(t.process(2.5));
        assert!(!t.process(1.5));
    }

    #[test]
    fn peak_tracker_adapts_after_level_shift() {
        let mut t = PeakTracker::new(5e-3);
        for &x in &square_wave(2000, 1.0, 3.0, 10) {
            t.process(x);
        }
        // Whole waveform drops 10×.
        for &x in &square_wave(5000, 0.1, 0.3, 10) {
            t.process(x);
        }
        assert!((t.threshold() - 0.2).abs() < 0.05, "thr {}", t.threshold());
    }
}
