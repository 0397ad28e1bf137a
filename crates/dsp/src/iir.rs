//! Single-pole IIR low-pass — the behavioural model of an RC network.
//!
//! A passive tag's envelope detector is a diode followed by an RC low-pass;
//! the capacitor's time constant is exactly what limits how fast a
//! backscatter receiver can slice bits, and therefore what makes the
//! *rate-asymmetric* full-duplex trick work: the detector follows the
//! high-rate data while a much slower averaging stage recovers the low-rate
//! feedback. Both stages are instances of this filter.

use serde::{Deserialize, Serialize};

/// A single-pole low-pass filter `y[n] = y[n-1] + α (x[n] − y[n-1])`.
///
/// Construct from either a smoothing factor ([`SinglePole::from_alpha`]) or a
/// physical RC time constant and sample period ([`SinglePole::from_rc`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SinglePole {
    alpha: f64,
    y: f64,
}

impl SinglePole {
    /// Creates a filter from the smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// `alpha = 1` is a pass-through; values outside the range are clamped.
    pub fn from_alpha(alpha: f64) -> Self {
        SinglePole {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            y: 0.0,
        }
    }

    /// Creates a filter from an RC time constant `tau` (seconds) sampled
    /// every `dt` seconds: `α = dt / (τ + dt)` (backward-Euler discretisation
    /// of the RC ODE). A non-positive `tau` degenerates to pass-through.
    pub fn from_rc(tau: f64, dt: f64) -> Self {
        if tau <= 0.0 {
            return SinglePole::from_alpha(1.0);
        }
        SinglePole::from_alpha(dt / (tau + dt))
    }

    /// Creates a filter whose −3 dB cutoff is `fc` Hz at sample rate `fs`.
    ///
    /// Uses the exact mapping `α = 1 − e^(−2π fc / fs)`.
    pub fn from_cutoff(fc: f64, fs: f64) -> Self {
        if fc <= 0.0 || fs <= 0.0 {
            return SinglePole::from_alpha(1.0);
        }
        let alpha = 1.0 - (-2.0 * std::f64::consts::PI * fc / fs).exp();
        SinglePole::from_alpha(alpha)
    }

    /// The smoothing factor in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current output state.
    pub fn output(&self) -> f64 {
        self.y
    }

    /// Forces the state (e.g. to pre-charge the capacitor).
    pub fn set_state(&mut self, y: f64) {
        self.y = y;
    }

    /// Processes one sample and returns the new output.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        self.y += self.alpha * (x - self.y);
        self.y
    }

    /// Processes a block in place.
    pub fn process_block(&mut self, xs: &mut [f64]) {
        for x in xs.iter_mut() {
            *x = self.process(*x);
        }
    }

    /// Resets the state to zero.
    pub fn reset(&mut self) {
        self.y = 0.0;
    }

    /// Number of samples for the step response to reach ≥ 95 %.
    ///
    /// Exact: after `n` samples of a unit step, `y = 1 − (1−α)ⁿ`, so the
    /// required `n = ⌈ln 0.05 / ln(1−α)⌉`.
    pub fn settle_samples(&self) -> usize {
        if self.alpha >= 1.0 {
            return 1;
        }
        let n = (0.05f64).ln() / (1.0 - self.alpha).ln();
        n.ceil() as usize + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_response_converges_to_input() {
        let mut f = SinglePole::from_alpha(0.1);
        let mut y = 0.0;
        for _ in 0..400 {
            y = f.process(1.0);
        }
        assert!((y - 1.0).abs() < 1e-10);
    }

    #[test]
    fn settle_samples_reaches_95_percent() {
        let f0 = SinglePole::from_rc(1e-3, 1e-5);
        let n = f0.settle_samples();
        let mut f = f0;
        let mut y = 0.0;
        for _ in 0..n {
            y = f.process(1.0);
        }
        assert!(y > 0.95, "y = {y} after {n} samples");
    }

    #[test]
    fn rc_mapping_matches_tau() {
        // After exactly τ seconds of a unit step, an RC reaches 1 − e⁻¹.
        let tau = 2e-3;
        let dt = 1e-6;
        let mut f = SinglePole::from_rc(tau, dt);
        let steps = (tau / dt) as usize;
        let mut y = 0.0;
        for _ in 0..steps {
            y = f.process(1.0);
        }
        let target = 1.0 - (-1.0f64).exp();
        assert!((y - target).abs() < 0.01, "y = {y}, target = {target}");
    }

    #[test]
    fn cutoff_attenuates_3db() {
        // Drive at fc: steady-state amplitude should be ≈ 1/√2 (±15 %
        // tolerance; the single-pole digital mapping is approximate).
        let fs = 100_000.0;
        let fc = 1_000.0;
        let mut f = SinglePole::from_cutoff(fc, fs);
        let mut peak: f64 = 0.0;
        let n = 200_000;
        for i in 0..n {
            let t = i as f64 / fs;
            let x = (2.0 * std::f64::consts::PI * fc * t).sin();
            let y = f.process(x);
            if i > n / 2 {
                peak = peak.max(y.abs());
            }
        }
        let expected = std::f64::consts::FRAC_1_SQRT_2;
        assert!(
            (peak - expected).abs() < 0.15,
            "peak {peak} vs expected {expected}"
        );
    }

    #[test]
    fn passthrough_when_tau_zero() {
        let mut f = SinglePole::from_rc(0.0, 1e-6);
        assert_eq!(f.process(3.25), 3.25);
        assert_eq!(f.process(-1.0), -1.0);
    }
}
