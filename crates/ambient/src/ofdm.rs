//! Bursty OFDM-like ambient source.
//!
//! A Wi-Fi access point is a *terrible* ambient excitation: its signal is
//! Gaussian-like while active (many subcarriers) but vanishes entirely
//! between frames. Backscatter links riding on such a source see deep
//! envelope dropouts that stall both data detection and harvesting. This
//! model alternates exponential-length ON bursts (complex Gaussian samples)
//! with OFF gaps sized to hit a configured duty cycle, with the active
//! amplitude scaled so the long-run mean power is 1.

use crate::power::gaussian;
use fdb_dsp::Iq;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Bursty OFDM-like source.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OfdmBurstySource {
    duty: f64,
    mean_burst: f64,
    active_power: f64,
    /// Samples remaining in the current state.
    remaining: u64,
    active: bool,
    started: bool,
}

impl OfdmBurstySource {
    /// Creates a source with the given duty cycle `(0, 1]` and mean burst
    /// length in samples (≥ 8).
    pub fn new(duty_cycle: f64, burst_len: usize) -> Self {
        let duty = duty_cycle.clamp(0.01, 1.0);
        OfdmBurstySource {
            duty,
            mean_burst: burst_len.max(8) as f64,
            active_power: 1.0 / duty,
            remaining: 0,
            active: false,
            started: false,
        }
    }

    /// Configured duty cycle.
    pub fn duty_cycle(&self) -> f64 {
        self.duty
    }

    /// `true` while inside a burst.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn draw_duration<R: Rng + ?Sized>(&self, rng: &mut R, mean: f64) -> u64 {
        // Exponential holding times (geometric in discrete samples).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        ((-u.ln()) * mean).ceil().max(1.0) as u64
    }

    /// Produces the next sample.
    pub fn next_sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Iq {
        if self.remaining == 0 {
            if !self.started {
                // Start in a state chosen by the duty cycle so short runs
                // aren't biased toward OFF.
                self.active = rng.gen_range(0.0..1.0) < self.duty;
                self.started = true;
            } else {
                // At full duty there is no OFF state to toggle into.
                self.active = !self.active || self.duty >= 0.9999;
            }
            let mean = if self.active {
                self.mean_burst
            } else {
                self.mean_burst * (1.0 - self.duty) / self.duty
            };
            self.remaining = self.draw_duration(rng, mean.max(1.0));
        }
        self.remaining -= 1;
        if self.active {
            let s = (self.active_power / 2.0).sqrt();
            Iq::new(
                s * gaussian(rng),
                s * gaussian(rng),
            )
        } else {
            Iq::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn duty_cycle_fraction_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut s = OfdmBurstySource::new(0.3, 200);
        let n = 500_000;
        let mut active = 0;
        for _ in 0..n {
            s.next_sample(&mut rng);
            if s.is_active() {
                active += 1;
            }
        }
        let frac = active as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "duty fraction {frac}");
    }

    #[test]
    fn unit_long_run_mean_power() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut s = OfdmBurstySource::new(0.5, 100);
        let n = 500_000;
        let mut p = 0.0;
        for _ in 0..n {
            p += s.next_sample(&mut rng).norm_sq();
        }
        p /= n as f64;
        assert!((p - 1.0).abs() < 0.05, "mean power {p}");
    }

    #[test]
    fn off_gaps_are_exactly_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let mut s = OfdmBurstySource::new(0.2, 50);
        let mut saw_zero_run = 0;
        for _ in 0..10_000 {
            let x = s.next_sample(&mut rng);
            if !s.is_active() {
                assert_eq!(x, Iq::ZERO);
                saw_zero_run += 1;
            }
        }
        assert!(saw_zero_run > 1000, "never idled");
    }

    #[test]
    fn full_duty_never_idles() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let mut s = OfdmBurstySource::new(1.0, 50);
        for _ in 0..5_000 {
            s.next_sample(&mut rng);
            assert!(s.is_active());
        }
    }

    #[test]
    fn burst_lengths_have_configured_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let mut s = OfdmBurstySource::new(0.5, 100);
        let mut lengths = Vec::new();
        let mut run = 0u64;
        let mut prev_active = false;
        for _ in 0..2_000_000 {
            s.next_sample(&mut rng);
            if s.is_active() {
                run += 1;
            } else if prev_active {
                lengths.push(run);
                run = 0;
            }
            prev_active = s.is_active();
        }
        let mean = lengths.iter().sum::<u64>() as f64 / lengths.len() as f64;
        assert!((mean - 100.0).abs() < 10.0, "mean burst {mean}");
    }
}
