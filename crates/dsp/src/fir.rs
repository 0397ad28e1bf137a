//! FIR filtering and pulse-shaping tap design.
//!
//! The ambient TV-like source (`fdb-ambient`'s `tv` module) shapes its
//! symbol stream with a root-raised-cosine FIR through [`Fir`], a
//! direct-form transversal filter over complex samples with real taps.

use crate::ringbuf::RingBuf;
use crate::sample::Iq;

/// Direct-form FIR filter with real-valued taps over complex samples.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
    delay: RingBuf<Iq>,
}

impl Fir {
    /// Creates a filter from its impulse response (`taps[0]` multiplies the
    /// newest sample). An empty tap list behaves as a unit gain.
    pub fn new(taps: Vec<f64>) -> Self {
        let taps = if taps.is_empty() { vec![1.0] } else { taps };
        let mut delay = RingBuf::new(taps.len());
        delay.fill(Iq::ZERO);
        Fir { taps, delay }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if this is the trivial single-tap filter.
    pub fn is_empty(&self) -> bool {
        self.taps.len() <= 1
    }

    /// Impulse response.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Processes one sample, returning the filter output.
    pub fn process(&mut self, x: Iq) -> Iq {
        self.delay.push_evict(x);
        // The delay line is always full (pre-charged with zeros), so its two
        // contiguous slices walked newest → oldest visit taps[0], taps[1], …
        // in order — same accumulation sequence as indexed access, without
        // the per-tap modulo.
        let (s1, s2) = self.delay.as_slices();
        let mut acc = Iq::ZERO;
        for (&t, &s) in self.taps.iter().zip(s2.iter().rev().chain(s1.iter().rev())) {
            acc += s * t;
        }
        acc
    }

    /// Resets the internal delay line to zeros.
    pub fn reset(&mut self) {
        self.delay.fill(Iq::ZERO);
    }
}

/// Designs root-raised-cosine taps.
///
/// * `sps` — samples per symbol (≥ 1)
/// * `beta` — roll-off in `[0, 1]`
/// * `span` — filter span in symbols (total length `span·sps + 1`)
///
/// Taps are normalised to unit energy (`Σ h² = 1`) so that filtering white
/// noise preserves power. Singularities at `t = 0` and `t = ±Ts/(4β)` use
/// the standard limit values.
pub fn rrc_taps(sps: usize, beta: f64, span: usize) -> Vec<f64> {
    let sps = sps.max(1);
    let span = span.max(1);
    let beta = beta.clamp(0.0, 1.0);
    let n = span * sps + 1;
    let half = (n - 1) as f64 / 2.0;
    let mut taps = Vec::with_capacity(n);
    for i in 0..n {
        let t = (i as f64 - half) / sps as f64; // in symbol periods
        let h = rrc_impulse(t, beta);
        taps.push(h);
    }
    let energy: f64 = taps.iter().map(|h| h * h).sum();
    if energy > 0.0 {
        let k = energy.sqrt().recip();
        for h in taps.iter_mut() {
            *h *= k;
        }
    }
    taps
}

fn rrc_impulse(t: f64, beta: f64) -> f64 {
    use std::f64::consts::PI;
    const EPS: f64 = 1e-9;
    if t.abs() < EPS {
        return 1.0 + beta * (4.0 / PI - 1.0);
    }
    if beta > 0.0 {
        let sing = 1.0 / (4.0 * beta);
        if (t.abs() - sing).abs() < EPS {
            let a = (1.0 + 2.0 / PI) * (PI / (4.0 * beta)).sin();
            let b = (1.0 - 2.0 / PI) * (PI / (4.0 * beta)).cos();
            return beta / 2f64.sqrt() * (a + b);
        }
    }
    let num = (PI * t * (1.0 - beta)).sin() + 4.0 * beta * t * (PI * t * (1.0 + beta)).cos();
    let den = PI * t * (1.0 - (4.0 * beta * t).powi(2));
    num / den
}

/// Designs a boxcar (moving-average) filter of length `n`, unit DC gain.
pub fn boxcar_taps(n: usize) -> Vec<f64> {
    let n = n.max(1);
    vec![1.0 / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_filter_passes_through() {
        let mut f = Fir::new(vec![1.0]);
        for i in 0..10 {
            let x = Iq::new(i as f64, -(i as f64));
            assert_eq!(f.process(x), x);
        }
    }

    #[test]
    fn delay_filter_shifts() {
        // h = [0, 1] delays by one sample.
        let mut f = Fir::new(vec![0.0, 1.0]);
        let xs: Vec<Iq> = (1..=5).map(|i| Iq::real(i as f64)).collect();
        let ys: Vec<Iq> = xs.iter().map(|&x| f.process(x)).collect();
        assert_eq!(ys[0], Iq::ZERO);
        for i in 1..5 {
            assert_eq!(ys[i], xs[i - 1]);
        }
    }

    #[test]
    fn impulse_response_is_taps() {
        let taps = vec![0.5, -0.25, 0.125];
        let mut f = Fir::new(taps.clone());
        let mut input = vec![Iq::ZERO; taps.len()];
        input[0] = Iq::ONE;
        let ys: Vec<Iq> = input.iter().map(|&x| f.process(x)).collect();
        for (y, t) in ys.iter().zip(taps.iter()) {
            assert!((y.re - t).abs() < 1e-12);
            assert!(y.im.abs() < 1e-12);
        }
    }

    #[test]
    fn rrc_taps_unit_energy_and_symmetric() {
        let taps = rrc_taps(8, 0.35, 6);
        assert_eq!(taps.len(), 49);
        let e: f64 = taps.iter().map(|h| h * h).sum();
        assert!((e - 1.0).abs() < 1e-12);
        for i in 0..taps.len() / 2 {
            assert!(
                (taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-12,
                "tap {i} asymmetric"
            );
        }
        // Peak at centre.
        let centre = taps[taps.len() / 2];
        assert!(taps.iter().all(|&h| h <= centre + 1e-12));
    }

    #[test]
    fn rrc_handles_singular_points() {
        // beta = 0.5 puts the singularity exactly on a tap for sps=2.
        let taps = rrc_taps(2, 0.5, 8);
        assert!(taps.iter().all(|h| h.is_finite()));
        let taps0 = rrc_taps(4, 0.0, 8);
        assert!(taps0.iter().all(|h| h.is_finite()));
    }

    #[test]
    fn boxcar_has_unit_dc_gain() {
        let mut f = Fir::new(boxcar_taps(4));
        let mut last = Iq::ZERO;
        for _ in 0..16 {
            last = f.process(Iq::real(2.0));
        }
        assert!((last.re - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_slice_dot_is_bit_identical_to_indexed_reference() {
        // Odd tap count keeps the ring wrap sweeping through every phase.
        let mut f = Fir::new(rrc_taps(4, 0.3, 4));
        let mut x = 0.2;
        for i in 0..100 {
            x = (x * 9301.0 + 49297.0) % 1.0;
            let y = f.process(Iq::new(x, -x));
            // Indexed (pre-rewrite) dot over the identical delay state.
            let n = f.delay.len();
            let mut acc = Iq::ZERO;
            for (k, &t) in f.taps.iter().enumerate() {
                if let Some(s) = f.delay.get(n - 1 - k) {
                    acc += s * t;
                }
            }
            assert_eq!(y, acc, "sample {i}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Fir::new(vec![0.0, 0.0, 1.0]);
        f.process(Iq::real(9.0));
        f.reset();
        assert_eq!(f.process(Iq::ZERO), Iq::ZERO);
        assert_eq!(f.process(Iq::ZERO), Iq::ZERO);
        assert_eq!(f.process(Iq::ZERO), Iq::ZERO);
    }
}
