//! Large-scale path loss models.
//!
//! Three models cover the scenarios the evaluation sweeps:
//!
//! * **Free space** — the TV-tower-to-device link (kilometres, line of
//!   sight).
//! * **Log-distance** — the device-to-device backscatter links (metres,
//!   indoor clutter, exponent 2–4).
//! * **Two-ray ground reflection** — the long-range outdoor regime where
//!   the d⁴ rolloff matters.
//!
//! All models return **power gain** (≤ 1, linear); amplitude scaling is
//! `gain.sqrt()`.

use serde::{Deserialize, Serialize};

/// Speed of light in m/s.
pub const C: f64 = 299_792_458.0;

/// A large-scale path loss model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PathLoss {
    /// Friis free-space: `G = (λ / 4πd)²`.
    FreeSpace {
        /// Carrier frequency in Hz.
        freq_hz: f64,
    },
    /// Log-distance: free-space up to `ref_dist_m`, then
    /// `G(d) = G(ref) · (ref/d)^exponent`.
    LogDistance {
        /// Carrier frequency in Hz (sets the reference gain).
        freq_hz: f64,
        /// Path loss exponent (2 = free space, 2.5–4 = indoor/cluttered).
        exponent: f64,
        /// Reference distance in metres (typically 1 m).
        ref_dist_m: f64,
    },
    /// Two-ray ground reflection: free-space below the crossover distance
    /// `d_c = 4π h_t h_r / λ`, then `G = (h_t·h_r)² / d⁴`.
    TwoRay {
        /// Carrier frequency in Hz.
        freq_hz: f64,
        /// Transmit antenna height in metres.
        h_tx_m: f64,
        /// Receive antenna height in metres.
        h_rx_m: f64,
    },
}

impl PathLoss {
    /// UHF TV broadcast default (539 MHz, ATSC channel 26) — the ambient
    /// source regime of the original prototype measurements.
    pub fn tv_band() -> Self {
        PathLoss::FreeSpace { freq_hz: 539e6 }
    }

    /// Indoor device-to-device default at the TV band.
    pub fn indoor() -> Self {
        PathLoss::LogDistance {
            freq_hz: 539e6,
            exponent: 2.7,
            ref_dist_m: 1.0,
        }
    }

    /// Rejects parameters the model cannot price: a non-finite or
    /// non-positive frequency, a non-finite or negative LogDistance
    /// exponent, a non-finite reference distance or antenna height. The
    /// error is the reason; the caller names the field.
    pub fn validate(&self) -> Result<(), String> {
        let freq_hz = match *self {
            PathLoss::FreeSpace { freq_hz } => freq_hz,
            PathLoss::LogDistance {
                freq_hz,
                exponent,
                ref_dist_m,
            } => {
                if !(exponent.is_finite() && exponent >= 0.0) {
                    return Err(format!("exponent {exponent} not in [0, ∞)"));
                }
                if !ref_dist_m.is_finite() {
                    return Err(format!("ref_dist_m {ref_dist_m} not finite"));
                }
                freq_hz
            }
            PathLoss::TwoRay {
                freq_hz,
                h_tx_m,
                h_rx_m,
            } => {
                if !(h_tx_m.is_finite() && h_rx_m.is_finite()) {
                    return Err(format!("antenna heights {h_tx_m}, {h_rx_m} not finite"));
                }
                freq_hz
            }
        };
        if !(freq_hz.is_finite() && freq_hz > 0.0) {
            return Err(format!("freq_hz {freq_hz} not in (0, ∞)"));
        }
        Ok(())
    }

    /// Power gain (linear, ≤ 1 for `d` ≥ the model's near-field floor).
    ///
    /// Distances below 0.1 m are clamped: the far-field models diverge at
    /// d → 0 and nothing in the evaluation operates closer than that.
    pub fn gain(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        match *self {
            PathLoss::FreeSpace { freq_hz } => friis(freq_hz, d),
            PathLoss::LogDistance {
                freq_hz,
                exponent,
                ref_dist_m,
            } => {
                let d0 = ref_dist_m.max(0.1);
                if d <= d0 {
                    friis(freq_hz, d)
                } else {
                    friis(freq_hz, d0) * (d0 / d).powf(exponent)
                }
            }
            PathLoss::TwoRay {
                freq_hz,
                h_tx_m,
                h_rx_m,
            } => {
                let lambda = C / freq_hz;
                let crossover = 4.0 * std::f64::consts::PI * h_tx_m * h_rx_m / lambda;
                if d < crossover {
                    friis(freq_hz, d)
                } else {
                    // Continuity-preserving two-ray: matches Friis at the
                    // crossover, rolls off as d⁻⁴ beyond it.
                    friis(freq_hz, crossover) * (crossover / d).powi(4)
                }
            }
        }
    }

    /// Path loss in dB (positive number).
    pub fn loss_db(&self, distance_m: f64) -> f64 {
        -fdb_dsp::sample::lin_to_db(self.gain(distance_m))
    }

    /// Amplitude gain (`√power-gain`).
    pub fn amplitude_gain(&self, distance_m: f64) -> f64 {
        self.gain(distance_m).sqrt()
    }

    /// Reach of `amplitude`: a distance beyond which
    /// [`amplitude_gain`](PathLoss::amplitude_gain) is strictly below
    /// `amplitude`, so a caller may skip the gain evaluation for any pair
    /// farther apart.
    ///
    /// It is the closed-form inverse of the model, taken for an amplitude
    /// a relative 1e-6 below `amplitude` and then widened by a relative
    /// 1e-6 in distance; the two margins absorb the rounding of both the
    /// inverse and the forward evaluation at any exponent.
    /// Returns `f64::INFINITY` (no pruning) when `amplitude` is not a
    /// positive finite number whose square is normal, when any model
    /// parameter is non-finite, or when the model is not monotone
    /// non-increasing in distance (a negative LogDistance exponent, a
    /// TwoRay crossover ≤ 0).
    pub fn reach_m(&self, amplitude: f64) -> f64 {
        let a = amplitude * (1.0 - REACH_MARGIN);
        if !(a > 0.0 && a.is_finite() && a * a >= f64::MIN_POSITIVE) {
            return f64::INFINITY;
        }
        let reach = match *self {
            PathLoss::FreeSpace { freq_hz } if freq_hz.is_finite() => friis_reach(freq_hz, a),
            PathLoss::LogDistance {
                freq_hz,
                exponent,
                ref_dist_m,
            } if freq_hz.is_finite()
                && ref_dist_m.is_finite()
                && exponent.is_finite()
                && exponent >= 0.0 =>
            {
                let d0 = ref_dist_m.max(0.1);
                let a0 = friis(freq_hz, d0).sqrt();
                if a >= a0 {
                    // Beyond d0 the gain stays ≤ a0, so only the Friis
                    // segment can reach `a`.
                    friis_reach(freq_hz, a)
                } else {
                    d0 * (a0 / a).powf(2.0 / exponent)
                }
            }
            PathLoss::TwoRay {
                freq_hz,
                h_tx_m,
                h_rx_m,
            } if freq_hz.is_finite() && h_tx_m.is_finite() && h_rx_m.is_finite() => {
                let lambda = C / freq_hz;
                let crossover = 4.0 * std::f64::consts::PI * h_tx_m * h_rx_m / lambda;
                // NaN when a zero frequency meets heights whose product
                // overflows.
                if crossover.is_nan() || crossover <= 0.0 {
                    return f64::INFINITY;
                }
                let ac = friis(freq_hz, crossover).sqrt();
                if a >= ac {
                    friis_reach(freq_hz, a)
                } else {
                    crossover * (ac / a).sqrt()
                }
            }
            _ => return f64::INFINITY,
        };
        reach * (1.0 + REACH_MARGIN)
    }
}

/// Relative safety margin of [`PathLoss::reach_m`], applied once in
/// amplitude and once in distance.
const REACH_MARGIN: f64 = 1e-6;

fn friis(freq_hz: f64, d: f64) -> f64 {
    let lambda = C / freq_hz.max(1.0);
    let x = lambda / (4.0 * std::f64::consts::PI * d);
    (x * x).min(1.0)
}

/// Inverse of [`friis`]'s amplitude, `λ / 4πa`. The `min(1.0)` cap only
/// lowers the gain, so it never moves the reach outward.
fn friis_reach(freq_hz: f64, amplitude: f64) -> f64 {
    let lambda = C / freq_hz.max(1.0);
    lambda / (4.0 * std::f64::consts::PI * amplitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_space_known_value() {
        // FSPL at 1 GHz, 1 km ≈ 92.45 dB.
        let m = PathLoss::FreeSpace { freq_hz: 1e9 };
        assert!((m.loss_db(1000.0) - 92.45).abs() < 0.1);
    }

    #[test]
    fn free_space_inverse_square() {
        let m = PathLoss::tv_band();
        let g1 = m.gain(100.0);
        let g2 = m.gain(200.0);
        assert!((g1 / g2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn log_distance_exponent() {
        let m = PathLoss::LogDistance {
            freq_hz: 539e6,
            exponent: 3.0,
            ref_dist_m: 1.0,
        };
        let g1 = m.gain(2.0);
        let g2 = m.gain(4.0);
        assert!((g1 / g2 - 8.0).abs() < 1e-9); // 2³
    }

    #[test]
    fn log_distance_continuous_at_reference() {
        let m = PathLoss::indoor();
        let inside = m.gain(0.999);
        let outside = m.gain(1.001);
        assert!((inside / outside - 1.0).abs() < 0.02);
    }

    #[test]
    fn two_ray_crossover_continuity_and_rolloff() {
        let m = PathLoss::TwoRay {
            freq_hz: 539e6,
            h_tx_m: 10.0,
            h_rx_m: 1.0,
        };
        let lambda = C / 539e6;
        let dc = 4.0 * std::f64::consts::PI * 10.0 * 1.0 / lambda;
        let below = m.gain(dc * 0.99);
        let above = m.gain(dc * 1.01);
        assert!((below / above - 1.0).abs() < 0.1);
        // d⁻⁴ beyond crossover.
        let g1 = m.gain(dc * 2.0);
        let g2 = m.gain(dc * 4.0);
        assert!((g1 / g2 - 16.0).abs() < 1e-6);
    }

    #[test]
    fn gain_never_exceeds_unity() {
        for model in [
            PathLoss::tv_band(),
            PathLoss::indoor(),
            PathLoss::TwoRay {
                freq_hz: 539e6,
                h_tx_m: 5.0,
                h_rx_m: 1.0,
            },
        ] {
            for &d in &[0.0, 0.05, 0.5, 1.0, 10.0, 1e4] {
                let g = model.gain(d);
                assert!(g <= 1.0 && g > 0.0, "{model:?} at {d}: {g}");
            }
        }
    }

    #[test]
    fn amplitude_is_sqrt_of_power() {
        let m = PathLoss::indoor();
        let g = m.gain(7.0);
        assert!((m.amplitude_gain(7.0) - g.sqrt()).abs() < 1e-15);
    }

    fn log_distance(exponent: f64) -> PathLoss {
        PathLoss::LogDistance {
            freq_hz: 539e6,
            exponent,
            ref_dist_m: 1.0,
        }
    }

    fn two_ray(h_tx_m: f64, h_rx_m: f64) -> PathLoss {
        PathLoss::TwoRay {
            freq_hz: 539e6,
            h_tx_m,
            h_rx_m,
        }
    }

    /// Every distance past `reach_m(a)` must score strictly below `a` —
    /// the property that lets a caller skip the gain evaluation there —
    /// and the reach must not be loose by more than the margins.
    #[test]
    fn reach_bounds_amplitude_gain_from_above() {
        let models = [
            PathLoss::tv_band(),
            log_distance(0.0),
            log_distance(2.0),
            log_distance(2.7),
            log_distance(4.0),
            // Crossovers ≈ 2.8 m and ≈ 226 m.
            two_ray(0.5, 0.25),
            two_ray(10.0, 1.0),
        ];
        let lambda = C / 539e6;
        let crossovers = [
            4.0 * std::f64::consts::PI * 0.5 * 0.25 / lambda,
            4.0 * std::f64::consts::PI * 10.0 / lambda,
        ];
        for model in models {
            // 1e-12 … 10, past amplitude_gain(0.1) and past 1, plus the
            // amplitudes at the 0.1 m clamp and at each segment boundary.
            let mut amps: Vec<f64> = (0..=260).map(|k| 10f64.powf(-12.0 + k as f64 / 20.0)).collect();
            for d in [0.1, 1.0, crossovers[0], crossovers[1]] {
                let a = model.amplitude_gain(d);
                amps.extend([a, a.next_up(), a.next_down(), a * 1.5]);
            }
            for a in amps {
                let reach = model.reach_m(a);
                assert!(reach > 0.0, "{model:?} a={a}: reach {reach}");
                if reach.is_infinite() {
                    // Only a flat tail may never fall below `a`.
                    assert!(
                        matches!(model, PathLoss::LogDistance { exponent, .. } if exponent == 0.0),
                        "{model:?} a={a}: no finite reach"
                    );
                    assert!(model.amplitude_gain(1e12) >= a * (1.0 - 2.0 * REACH_MARGIN));
                    continue;
                }
                let mut d = reach;
                for _ in 0..16 {
                    d = d.next_up();
                    assert!(model.amplitude_gain(d) < a, "{model:?} a={a} d={d} reach={reach}");
                }
                for k in 0..=80 {
                    let d = reach * (1.0 + 10f64.powf(-15.0 + k as f64 / 5.0));
                    assert!(model.amplitude_gain(d) < a, "{model:?} a={a} d={d} reach={reach}");
                }
                // Tight: just inside the reach the amplitude is still met,
                // unless the reach sits under the 0.1 m clamp.
                let inside = reach * (1.0 - 1e-4);
                if inside > 0.1 {
                    assert!(
                        model.amplitude_gain(inside) >= a,
                        "{model:?} a={a}: reach {reach} is loose"
                    );
                }
            }
        }
    }

    #[test]
    fn reach_is_infinite_for_degenerate_inputs() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let models = [
            PathLoss::FreeSpace { freq_hz: nan },
            PathLoss::FreeSpace { freq_hz: inf },
            log_distance(nan),
            log_distance(inf),
            log_distance(-0.5),
            PathLoss::LogDistance {
                freq_hz: 539e6,
                exponent: 2.7,
                ref_dist_m: nan,
            },
            PathLoss::LogDistance {
                freq_hz: 539e6,
                exponent: 2.7,
                ref_dist_m: inf,
            },
            PathLoss::LogDistance {
                freq_hz: nan,
                exponent: 2.7,
                ref_dist_m: 1.0,
            },
            two_ray(nan, 1.0),
            two_ray(1.0, inf),
            two_ray(-1.0, 1.0),
            two_ray(0.0, 1.0),
            PathLoss::TwoRay {
                freq_hz: inf,
                h_tx_m: 1.0,
                h_rx_m: 1.0,
            },
            PathLoss::TwoRay {
                freq_hz: 0.0,
                h_tx_m: 1.0,
                h_rx_m: 1.0,
            },
            PathLoss::TwoRay {
                freq_hz: 0.0,
                h_tx_m: 1e200,
                h_rx_m: 1e200,
            },
        ];
        for model in models {
            assert_eq!(model.reach_m(1e-3), inf, "{model:?}");
        }
        for a in [nan, inf, -inf, 0.0, -1e-3, 1e-160] {
            assert_eq!(PathLoss::indoor().reach_m(a), inf, "amplitude {a}");
        }
    }
}
