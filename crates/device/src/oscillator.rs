//! The tag's timing source: a cheap RC relaxation oscillator.
//!
//! A crystal costs more than the rest of a passive tag combined, so tags
//! free-run on RC oscillators with two imperfections that bound how long a
//! frame can be:
//!
//! * A **static frequency error** (hundreds to thousands of ppm, set at
//!   power-up by process/temperature).
//! * **Cycle-to-cycle jitter** (a small random walk on top).
//!
//! The clock exposes its instantaneous rate ratio; `fdb-core` feeds that to
//! a fractional resampler so the tag literally samples the world on its own
//! skewed clock (experiment E9 sweeps the static error).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for a tag clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagClockConfig {
    /// Static frequency error in parts-per-million (positive = fast).
    pub static_ppm: f64,
    /// Standard deviation of the per-update random-walk increment, in ppm.
    pub jitter_ppm: f64,
    /// Random-walk reversion factor toward the static error per update
    /// (keeps drift bounded; 0 = pure random walk, 1 = no memory).
    pub reversion: f64,
}

impl TagClockConfig {
    /// A perfect clock.
    pub fn ideal() -> Self {
        TagClockConfig {
            static_ppm: 0.0,
            jitter_ppm: 0.0,
            reversion: 1.0,
        }
    }

    /// A typical RC oscillator: configurable static error, mild jitter.
    pub fn rc(static_ppm: f64) -> Self {
        TagClockConfig {
            static_ppm,
            jitter_ppm: 5.0,
            reversion: 0.01,
        }
    }
}

/// Stateful tag clock.
#[derive(Debug, Clone, Copy)]
pub struct TagClock {
    cfg: TagClockConfig,
    current_ppm: f64,
}

impl TagClock {
    /// Creates a clock at its static error.
    pub fn new(cfg: TagClockConfig) -> Self {
        TagClock {
            cfg,
            current_ppm: cfg.static_ppm,
        }
    }

    /// Instantaneous frequency error in ppm.
    pub fn current_ppm(&self) -> f64 {
        self.current_ppm
    }

    /// Instantaneous rate ratio `f_tag / f_nominal`.
    pub fn rate_ratio(&self) -> f64 {
        1.0 + self.current_ppm * 1e-6
    }

    /// Advances the jitter process by one update (call once per bit or per
    /// block — the jitter scale is per-update).
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.cfg.jitter_ppm > 0.0 {
            let g = fdb_dsp::math::randn(rng);
            let rev = self.cfg.reversion.clamp(0.0, 1.0);
            self.current_ppm += rev * (self.cfg.static_ppm - self.current_ppm)
                + self.cfg.jitter_ppm * g;
        }
        self.current_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ideal_clock_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        let mut c = TagClock::new(TagClockConfig::ideal());
        assert_eq!(c.rate_ratio(), 1.0);
        for _ in 0..100 {
            c.advance(&mut rng);
        }
        assert_eq!(c.rate_ratio(), 1.0);
    }

    #[test]
    fn static_error_sets_ratio() {
        let c = TagClock::new(TagClockConfig::rc(1000.0));
        assert!((c.rate_ratio() - 1.001).abs() < 1e-12);
        let c = TagClock::new(TagClockConfig::rc(-500.0));
        assert!((c.rate_ratio() - 0.9995).abs() < 1e-12);
    }

    #[test]
    fn jitter_stays_bounded_by_reversion() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let mut c = TagClock::new(TagClockConfig {
            static_ppm: 200.0,
            jitter_ppm: 5.0,
            reversion: 0.02,
        });
        let mut max_dev: f64 = 0.0;
        let mut mean = 0.0;
        let n = 50_000;
        for _ in 0..n {
            let ppm = c.advance(&mut rng);
            max_dev = max_dev.max((ppm - 200.0).abs());
            mean += ppm;
        }
        mean /= n as f64;
        // Stationary std = jitter/√(2·rev − rev²) ≈ 25 ppm → 6σ ≈ 150.
        assert!(max_dev < 200.0, "max deviation {max_dev}");
        assert!((mean - 200.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn zero_jitter_does_not_consume_rng() {
        let mut a = ChaCha8Rng::seed_from_u64(52);
        let mut b = ChaCha8Rng::seed_from_u64(52);
        let mut c = TagClock::new(TagClockConfig::ideal());
        c.advance(&mut a);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
