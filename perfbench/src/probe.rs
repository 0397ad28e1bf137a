//! Machine-speed probe.
//!
//! On a shared host the same code runs up to ~25 % slower or faster from
//! one ten-second window to the next, and everything CPU-bound moves
//! together. The benchmark therefore interleaves a fixed reference loop
//! with the measured work and records its speed relative to a nominal
//! host. Gated timings are host times rescaled by that speed — "ms on the
//! nominal host" — so a parent and a child commit measured minutes apart
//! compare like for like, while a change to the program itself still
//! shows in full (the loop is the benchmark's own code). The raw host
//! times stay in the report line.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of one probe (about 2.5 ms on the nominal host).
const PROBE_ITERS: u64 = 200_000;
/// Probes on each side whose median stands for one probe's speed.
const SMOOTH: usize = 2;
/// Duration of one probe on the nominal host: a 2-vCPU x86-64 VM at
/// 2.1 GHz, median over quiet minutes.
const NOMINAL_NS: f64 = 2.5e6;

/// The reference loop: xorshift draws through `ln`, `sqrt` and an
/// L1-resident table — the floating-point and integer mix of the PHY.
fn reference_loop(iters: u64) -> f64 {
    let mut table = [0.0f64; 256];
    for (i, v) in table.iter_mut().enumerate() {
        *v = (i as f64).sqrt();
    }
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..iters {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let x = (s >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc += (x + 1e-9).ln().abs().sqrt() * table[(s & 255) as usize];
        if acc > 1e12 {
            acc = 0.0;
        }
    }
    acc
}

/// Speed samples over a run: `(instant, speed)`, speed 1.0 = nominal host,
/// below 1.0 = slower.
#[derive(Default)]
pub struct SpeedTrack {
    points: Vec<(Instant, f64)>,
    probe_ns: u64,
}

impl SpeedTrack {
    /// Runs one probe and records the host's speed; returns how long it took.
    pub fn probe(&mut self) -> Duration {
        let t0 = Instant::now();
        black_box(reference_loop(black_box(PROBE_ITERS)));
        let took = t0.elapsed();
        self.points
            .push((t0 + took / 2, NOMINAL_NS / took.as_nanos().max(1) as f64));
        self.probe_ns += took.as_nanos() as u64;
        took
    }

    /// Speed of probe `i`, as the median of it and its neighbours within
    /// [`SMOOTH`]: one probe preempted or boosted for a moment must not
    /// rescale the work around it.
    fn smoothed(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(SMOOTH);
        let hi = (i + SMOOTH + 1).min(self.points.len());
        let mut s: Vec<f64> = self.points[lo..hi].iter().map(|p| p.1).collect();
        crate::stats::median(&mut s)
    }

    /// Host speed at `t`, interpolated between the neighbouring probes.
    pub fn at(&self, t: Instant) -> f64 {
        let p = &self.points;
        match p.iter().position(|&(pt, _)| pt >= t) {
            None if p.is_empty() => 1.0,
            None => self.smoothed(p.len() - 1),
            Some(0) => self.smoothed(0),
            Some(i) => {
                let (t0, s0) = (p[i - 1].0, self.smoothed(i - 1));
                let (t1, s1) = (p[i].0, self.smoothed(i));
                let span = t1.duration_since(t0).as_secs_f64();
                if span <= 0.0 {
                    return s1;
                }
                let w = t.duration_since(t0).as_secs_f64() / span;
                s0 + (s1 - s0) * w
            }
        }
    }

    /// `end - start` in seconds, rescaled to the nominal host.
    pub fn nominal_s(&self, start: Instant, end: Instant) -> f64 {
        let raw = end.duration_since(start);
        raw.as_secs_f64() * self.at(start + raw / 2)
    }

    /// Median probed speed (1.0 when nothing was probed).
    pub fn median_speed(&self) -> f64 {
        let mut s: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        if s.is_empty() {
            return 1.0;
        }
        crate::stats::median(&mut s)
    }

    pub fn probes(&self) -> usize {
        self.points.len()
    }

    pub fn probe_s(&self) -> f64 {
        self.probe_ns as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_outlying_probe_is_smoothed_away() {
        let t0 = Instant::now();
        let at = |k: u64| t0 + Duration::from_secs(k);
        let track = SpeedTrack {
            points: vec![
                (at(0), 1.0),
                (at(1), 1.0),
                (at(2), 0.4),
                (at(3), 1.0),
                (at(4), 1.0),
            ],
            probe_ns: 0,
        };
        assert_eq!(track.at(at(2)), 1.0);
    }

    #[test]
    fn speed_interpolates_between_probes() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let speeds = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5];
        let track = SpeedTrack {
            points: speeds
                .iter()
                .enumerate()
                .map(|(k, &s)| (at(1000 * k as u64), s))
                .collect(),
            probe_ns: 0,
        };
        assert_eq!(track.at(t0), 1.0);
        assert!((track.at(at(2500)) - 0.75).abs() < 1e-9);
        assert_eq!(track.at(at(9000)), 0.5);
        // One second centred between the third and fourth probes, at 0.75.
        assert!((track.nominal_s(at(2000), at(3000)) - 0.75).abs() < 1e-9);
        assert_eq!(SpeedTrack::default().at(t0), 1.0);
    }
}
