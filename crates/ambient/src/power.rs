//! Power-domain source models and the Gamma pre-averaging substitution.
//!
//! ## Why a power-domain API exists
//!
//! Every receiver in this stack is an envelope detector, and all propagation
//! paths in a scenario carry the *same* ambient signal `x(t)` (flat
//! channels): the field at any receiver is `E = h_eff·x + n`, so the
//! detected power is `|h_eff|²·|x|²` plus noise terms — the source enters
//! **only through its instantaneous power** `p = |x|²`.
//!
//! Real ambient sources are far wider-band than the chip rate (an ATSC
//! broadcast is ~6 MHz; chips here are kHz-scale). The detector therefore
//! pre-averages `K = B_source / f_sim` independent power fluctuations
//! within every simulation sample. Simulating that directly would cost `K×`
//! samples; instead we draw the pre-averaged power from its matched
//! distribution: the mean of `K` i.i.d. unit-mean exponentials is
//! `Gamma(shape = K, scale = 1/K)` (exact for a complex-Gaussian source,
//! and a good moment match for shaped broadcast signals). This is the
//! **bandwidth substitution** recorded in DESIGN.md.

use rand::Rng;

/// A `Gamma(shape, scale = 1/shape)` sampler — unit mean, variance
/// `1/shape` — via Marsaglia–Tsang squeeze (Marsaglia & Tsang, 2000), with
/// the standard boost for `shape < 1` and its constants computed once.
///
/// Every sample takes the same draws and evaluates the same expressions
/// as a from-scratch Marsaglia–Tsang draw: only `d` and `c`, which depend on
/// the shape alone, are hoisted out of the per-sample path.
#[derive(Debug, Clone, Copy)]
pub struct UnitGamma {
    /// Shape after the `1e-3` floor.
    shape: f64,
    /// `a − 1/3`, where `a` is the squeezed shape (`shape + 1` on the boost
    /// path for `shape < 1`, else `shape`).
    d: f64,
    /// `1 / sqrt(9d)`.
    c: f64,
}

impl UnitGamma {
    /// Builds the sampler; shapes below `1e-3` are raised to it.
    pub fn new(shape: f64) -> Self {
        let shape = shape.max(1e-3);
        let a = if shape < 1.0 { shape + 1.0 } else { shape };
        let d = a - 1.0 / 3.0;
        UnitGamma {
            shape,
            d,
            c: 1.0 / (9.0 * d).sqrt(),
        }
    }

    /// Draws one unit-mean sample.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return self.squeeze(rng) * u.powf(1.0 / self.shape) / self.shape;
        }
        self.squeeze(rng) / self.shape
    }

    /// One standard `Gamma(a, 1)` draw by squeeze and rejection.
    #[inline]
    fn squeeze<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (d, c) = (self.d, self.c);
        loop {
            let x = gaussian(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            // Squeeze then full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

/// Draws one standard normal sample (Box–Muller, second output discarded),
/// the same transform as `fdb_channel::randn`.
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The per-draw Marsaglia–Tsang closed form (`d` and `c` recomputed on
/// every call) that tests pin [`UnitGamma`] against, bit for bit.
#[cfg(test)]
pub(crate) mod closed_form {
    use super::gaussian;
    use rand::Rng;

    pub(crate) fn gamma_unit_mean<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
        let shape = shape.max(1e-3);
        gamma_std(rng, shape) / shape
    }

    fn gamma_std<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
        if shape < 1.0 {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return gamma_std(rng, shape + 1.0) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = gaussian(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn moments(shape: f64, n: usize) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let mut m = 0.0;
        let mut v = 0.0;
        for _ in 0..n {
            let x = UnitGamma::new(shape).sample(&mut rng);
            m += x;
            v += x * x;
        }
        let mean = m / n as f64;
        (mean, v / n as f64 - mean * mean)
    }

    #[test]
    fn unit_mean_for_all_shapes() {
        for &k in &[0.5, 1.0, 4.0, 32.0, 400.0] {
            let (mean, _) = moments(k, 200_000);
            assert!((mean - 1.0).abs() < 0.02, "shape {k}: mean {mean}");
        }
    }

    #[test]
    fn variance_is_inverse_shape() {
        for &k in &[1.0, 8.0, 64.0] {
            let (_, var) = moments(k, 300_000);
            assert!(
                (var - 1.0 / k).abs() < 0.15 / k,
                "shape {k}: var {var} vs {}",
                1.0 / k
            );
        }
    }

    #[test]
    fn shape_one_is_exponential() {
        // Exponential: P(X > 1) = e⁻¹ ≈ 0.3679.
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let n = 200_000;
        let mut above = 0;
        for _ in 0..n {
            if UnitGamma::new(1.0).sample(&mut rng) > 1.0 {
                above += 1;
            }
        }
        let frac = above as f64 / n as f64;
        assert!((frac - (-1.0f64).exp()).abs() < 0.005, "tail {frac}");
    }

    #[test]
    fn samples_nonnegative() {
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        for _ in 0..10_000 {
            assert!(UnitGamma::new(0.3).sample(&mut rng) >= 0.0);
            assert!(UnitGamma::new(30.0).sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn large_shape_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(74);
        for _ in 0..1000 {
            let x = UnitGamma::new(10_000.0).sample(&mut rng);
            assert!((x - 1.0).abs() < 0.1, "x = {x}");
        }
    }
}
