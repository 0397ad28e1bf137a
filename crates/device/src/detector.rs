//! The tag receive chain: square-law rectifier → RC low-pass → noise.
//!
//! A passive receiver has no LNA; its diode rectifier is driven directly by
//! the antenna voltage. Consequences modelled here:
//!
//! * Detection is **square-law**: the output follows the incident *power*,
//!   phase is invisible (forcing the non-coherent designs of this stack).
//! * The RC corner bounds how fast bits can be sliced.
//! * The dominant noise is the *detector's own* input-referred noise
//!   (flicker + comparator offset wander), modelled as additive Gaussian on
//!   the envelope after the RC — distinct from the channel's RF AWGN, which
//!   `fdb-core` adds to the field before detection.

use fdb_dsp::envelope::EnvelopeDetector;
use fdb_dsp::Iq;
use rand::Rng;

/// Square-law detector chain with envelope-domain noise.
#[derive(Debug, Clone, Copy)]
pub struct DetectorChain {
    env: EnvelopeDetector,
    /// Standard deviation of envelope-domain detector noise (same units as
    /// the squared field, i.e. watts at the antenna reference plane).
    noise_sigma: f64,
}

impl DetectorChain {
    /// Creates a chain with RC time constant `tau` seconds at sample period
    /// `dt`, and envelope-noise standard deviation `noise_sigma` (watts).
    pub fn new(tau: f64, dt: f64, noise_sigma: f64) -> Self {
        DetectorChain {
            env: EnvelopeDetector::new(tau, dt),
            noise_sigma: noise_sigma.max(0.0),
        }
    }

    /// An ideal noiseless, instantaneous detector.
    pub fn ideal() -> Self {
        DetectorChain {
            env: EnvelopeDetector::ideal(),
            noise_sigma: 0.0,
        }
    }

    /// Processes one incident-field sample (already scaled by the antenna
    /// pass fraction) into a noisy envelope sample.
    #[inline]
    pub fn process<R: Rng + ?Sized>(&mut self, field: Iq, rng: &mut R) -> f64 {
        let noise = self.draw_noise(rng);
        self.process_with(field, noise)
    }

    /// The chain's standard-normal noise draw for one sample: one
    /// `randn`, or nothing (0) when σ is 0.
    #[inline]
    pub fn draw_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.noise_sigma == 0.0 {
            0.0
        } else {
            fdb_dsp::math::randn(rng)
        }
    }

    /// [`process`](DetectorChain::process) with its standard-normal noise
    /// draw supplied by the caller (ignored when σ is 0). A noiseless
    /// chain returns the clean envelope itself rather than `clean + 0.0`,
    /// which would turn a −0.0 into +0.0.
    #[inline]
    pub fn process_with(&mut self, field: Iq, noise: f64) -> f64 {
        let clean = self.env.process(field);
        if self.noise_sigma == 0.0 {
            clean
        } else {
            clean + self.noise_sigma * noise
        }
    }

    /// Noise standard deviation in envelope units.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Pre-charges the RC state to an expected level.
    pub fn precharge(&mut self, level: f64) {
        self.env.precharge(level);
    }

    /// Resets the chain.
    pub fn reset(&mut self) {
        self.env.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ideal_chain_is_pure_square_law() {
        let mut d = DetectorChain::ideal();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!((d.process(Iq::new(0.0, 2.0), &mut rng) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn noise_statistics() {
        let mut d = DetectorChain::new(0.0, 1e-6, 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 100_000;
        let mut mean = 0.0;
        let mut var = 0.0;
        for _ in 0..n {
            let y = d.process(Iq::ONE, &mut rng);
            mean += y;
            var += (y - 1.0) * (y - 1.0);
        }
        mean /= n as f64;
        var /= n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "var {var}");
    }

    #[test]
    fn rc_limits_slew() {
        let dt = 1e-6;
        let mut d = DetectorChain::new(20e-6, dt, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let first = d.process(Iq::ONE, &mut rng);
        assert!(first < 0.1, "RC should slew-limit, got {first}");
    }

    #[test]
    fn noiseless_does_not_consume_rng() {
        let mut d = DetectorChain::ideal();
        let mut a = ChaCha8Rng::seed_from_u64(4);
        let mut b = ChaCha8Rng::seed_from_u64(4);
        d.process(Iq::ONE, &mut a);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
