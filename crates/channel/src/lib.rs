//! # fdb-channel — wireless channel substrate
//!
//! Models every impairment between an RF emitter and a receiving antenna in
//! the fd-backscatter stack: deterministic path loss, stochastic small-scale
//! fading, thermal noise, scripted impairments and composed end-to-end
//! links, plus the link-budget arithmetic used to calibrate scenarios.
//!
//! Design notes:
//!
//! * All randomness flows through caller-supplied [`rand::RngCore`]
//!   implementations, so every experiment is reproducible from a seed.
//! * Channels are **block-fading**: a complex coefficient is held constant
//!   for a configurable number of samples and then redrawn (with optional
//!   AR(1) temporal correlation), which matches the paper-domain assumption
//!   that fading is static over a symbol.
//! * Backscatter link structure (reader → tag → reader products of two
//!   channels) is composed in `fdb-core`; this crate provides the
//!   single-hop primitives.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod awgn;
pub mod budget;
pub mod fading;
pub mod impairment;
pub mod link;
pub mod pathloss;

pub use awgn::Awgn;
pub use fading::{BlockFader, Fading};
pub use impairment::{FaultActivations, FaultEffects, FaultKind, FaultTarget, FrameFaults};
pub use link::Hop;
pub use pathloss::PathLoss;

use fdb_dsp::math::randn;
use fdb_dsp::Iq;
use rand::Rng;

/// Draws a circularly-symmetric complex Gaussian with total variance
/// `var` (i.e. `var/2` per component).
pub fn randcn<R: Rng + ?Sized>(rng: &mut R, var: f64) -> Iq {
    let s = (var.max(0.0) / 2.0).sqrt();
    Iq::new(s * randn(rng), s * randn(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn randcn_variance_split() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let n = 100_000;
        let mut pow = 0.0;
        for _ in 0..n {
            pow += randcn(&mut rng, 4.0).norm_sq();
        }
        pow /= n as f64;
        assert!((pow - 4.0).abs() < 0.1, "power {pow}");
    }
}
