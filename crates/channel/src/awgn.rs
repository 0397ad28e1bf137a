//! Additive white Gaussian noise.
//!
//! Noise is injected at the *receiver* with a power set either directly or
//! from physical temperature/bandwidth/noise-figure parameters. The
//! envelope-detection receivers in this stack are wideband, so the relevant
//! noise power is `kTB·F` over the detector bandwidth.

use fdb_dsp::math::{gauss, randn_uniforms};
use fdb_dsp::sample::{dbm_to_watts, watts_to_dbm};
use fdb_dsp::Iq;
use rand::Rng;

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Thermal noise power in watts over `bandwidth_hz` at `temp_k` with a
/// receiver noise figure of `nf_db`.
pub fn thermal_noise_watts(bandwidth_hz: f64, temp_k: f64, nf_db: f64) -> f64 {
    BOLTZMANN * temp_k * bandwidth_hz.max(0.0) * fdb_dsp::sample::db_to_lin(nf_db)
}

/// Thermal noise floor in dBm (the familiar −174 dBm/Hz + 10·log₁₀ B + NF).
pub fn noise_floor_dbm(bandwidth_hz: f64, nf_db: f64) -> f64 {
    watts_to_dbm(thermal_noise_watts(bandwidth_hz, 290.0, nf_db))
}

/// A complex AWGN source with fixed total noise power (watts).
#[derive(Debug, Clone, Copy)]
pub struct Awgn {
    power_w: f64,
    /// Per-component standard deviation, `sqrt(power_w / 2)` — the scale
    /// [`crate::randcn`] would compute on every draw.
    sigma: f64,
}

impl Awgn {
    fn with_power(power_w: f64) -> Self {
        Awgn {
            power_w,
            sigma: (power_w.max(0.0) / 2.0).sqrt(),
        }
    }

    /// Creates a source with the given total noise power in watts.
    pub fn from_power_watts(power_w: f64) -> Self {
        Self::with_power(power_w.max(0.0))
    }

    /// Creates a source from a noise floor in dBm.
    pub fn from_dbm(dbm: f64) -> Self {
        Self::with_power(dbm_to_watts(dbm))
    }

    /// Creates a source from physical parameters at 290 K.
    pub fn thermal(bandwidth_hz: f64, nf_db: f64) -> Self {
        Self::with_power(thermal_noise_watts(bandwidth_hz, 290.0, nf_db))
    }

    /// A noiseless source (for analytic cross-checks).
    pub fn off() -> Self {
        Self::with_power(0.0)
    }

    /// Total noise power in watts.
    pub fn power_watts(&self) -> f64 {
        self.power_w
    }

    /// Draws one noise sample: the same draws and bits as
    /// `randcn(rng, power_w)`, with the scale computed once per source.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Iq {
        self.from_uniforms(self.sample_uniforms(rng))
    }

    /// All of [`sample`](Awgn::sample)'s RNG use: the uniforms of its
    /// two Gaussians (re, then im), or zeros without a draw when the
    /// source is off.
    #[inline]
    pub fn sample_uniforms<R: Rng + ?Sized>(&self, rng: &mut R) -> [[f64; 2]; 2] {
        if self.power_w == 0.0 {
            [[0.0; 2]; 2]
        } else {
            let re = randn_uniforms(rng);
            [re, randn_uniforms(rng)]
        }
    }

    /// The noise sample [`sample`](Awgn::sample) makes of the uniforms
    /// [`sample_uniforms`](Awgn::sample_uniforms) drew.
    #[inline]
    pub fn from_uniforms(&self, [re, im]: [[f64; 2]; 2]) -> Iq {
        if self.power_w == 0.0 {
            Iq::ZERO
        } else {
            Iq::new(self.sigma * gauss(re), self.sigma * gauss(im))
        }
    }

    /// Adds noise to a signal sample.
    #[inline]
    pub fn corrupt<R: Rng + ?Sized>(&self, x: Iq, rng: &mut R) -> Iq {
        x + self.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_dsp::math::randn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn noise_floor_matches_rule_of_thumb() {
        // −174 dBm/Hz + 10·log10(1 MHz) + 6 dB NF = −108 dBm.
        let nf = noise_floor_dbm(1e6, 6.0);
        assert!((nf + 108.0).abs() < 0.2, "floor {nf}");
    }

    #[test]
    fn sample_power_matches_config() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let src = Awgn::from_dbm(-90.0);
        let n = 200_000;
        let mut p = 0.0;
        for _ in 0..n {
            p += src.sample(&mut rng).norm_sq();
        }
        p /= n as f64;
        let expect = dbm_to_watts(-90.0);
        assert!((p / expect - 1.0).abs() < 0.02, "{p} vs {expect}");
    }

    #[test]
    fn off_is_exactly_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let src = Awgn::off();
        for _ in 0..10 {
            assert_eq!(src.sample(&mut rng), Iq::ZERO);
        }
        // RNG must not be consumed when off.
        let mut rng2 = ChaCha8Rng::seed_from_u64(12);
        assert_eq!(randn(&mut rng), randn(&mut rng2));
    }

    #[test]
    fn sample_is_bit_identical_to_randcn() {
        let sources = [
            Awgn::from_dbm(-90.0),
            Awgn::from_dbm(f64::NAN),
            Awgn::from_power_watts(0.01),
            Awgn::from_power_watts(3.7),
            Awgn::thermal(1e6, 6.0),
        ];
        for src in sources {
            let mut a = ChaCha8Rng::seed_from_u64(14);
            let mut b = ChaCha8Rng::seed_from_u64(14);
            for _ in 0..10_000 {
                let got = src.sample(&mut a);
                let want = crate::randcn(&mut b, src.power_watts());
                assert_eq!(got.re.to_bits(), want.re.to_bits(), "{src:?}");
                assert_eq!(got.im.to_bits(), want.im.to_bits(), "{src:?}");
            }
        }
    }

    #[test]
    fn corrupt_preserves_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let src = Awgn::from_power_watts(0.01);
        let sig = Iq::new(3.0, -1.0);
        let n = 100_000;
        let mut acc = Iq::ZERO;
        for _ in 0..n {
            acc += src.corrupt(sig, &mut rng);
        }
        let mean = acc / n as f64;
        assert!((mean.re - 3.0).abs() < 0.01);
        assert!((mean.im + 1.0).abs() < 0.01);
    }

    #[test]
    fn thermal_scales_with_bandwidth() {
        let a = Awgn::thermal(1e6, 0.0).power_watts();
        let b = Awgn::thermal(2e6, 0.0).power_watts();
        assert!((b / a - 2.0).abs() < 1e-12);
    }
}
