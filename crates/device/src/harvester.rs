//! RF energy harvesting and storage.
//!
//! The harvester converts the non-reflected fraction of incident RF power
//! into stored charge. Two non-idealities dominate real designs and are
//! modelled explicitly:
//!
//! * **Sensitivity floor** — below roughly −20 dBm a diode rectifier
//!   harvests nothing at all.
//! * **Saturating efficiency** — conversion efficiency rises from zero at
//!   the floor towards a maximum (~30–50 %) and is taken constant above a
//!   saturation input (real curves roll off; the rising edge is what the
//!   distance sweeps exercise).
//!
//! The storage capacitor integrates harvested energy and supplies the tag's
//! load; an **energy outage** occurs whenever the load demand cannot be met.
//! Experiment E10 and the energy accounting of E5 read this model.

use serde::{Deserialize, Serialize};

/// Harvester front-end + storage configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HarvesterConfig {
    /// Input power below which nothing is harvested (watts).
    pub sensitivity_w: f64,
    /// Input power at which efficiency reaches its maximum (watts).
    pub saturation_w: f64,
    /// Peak conversion efficiency `(0, 1]`.
    pub max_efficiency: f64,
    /// Storage capacity in joules.
    pub storage_j: f64,
    /// Initial stored energy in joules.
    pub initial_j: f64,
}

impl HarvesterConfig {
    /// A typical UHF harvester: −20 dBm sensitivity, peak η = 0.4 at
    /// −5 dBm, 100 µJ storage starting half full.
    pub fn typical() -> Self {
        HarvesterConfig {
            sensitivity_w: 1e-5,  // −20 dBm
            saturation_w: 3.16e-4, // −5 dBm
            max_efficiency: 0.4,
            storage_j: 100e-6,
            initial_j: 50e-6,
        }
    }
}

/// Stateful harvester + storage capacitor.
#[derive(Debug, Clone, Copy)]
pub struct Harvester {
    cfg: HarvesterConfig,
    /// `ln(saturation_w / sensitivity_w)`, the denominator of the
    /// log-linear efficiency rise.
    ln_span: f64,
    stored_j: f64,
    harvested_total_j: f64,
    outages: u64,
}

impl Harvester {
    /// Creates a harvester from its configuration.
    pub fn new(cfg: HarvesterConfig) -> Self {
        Harvester {
            stored_j: cfg.initial_j.clamp(0.0, cfg.storage_j),
            ln_span: (cfg.saturation_w / cfg.sensitivity_w).ln(),
            cfg,
            harvested_total_j: 0.0,
            outages: 0,
        }
    }

    /// Conversion efficiency at a given input power: 0 below the floor,
    /// log-linear rise to `max_efficiency` at saturation, constant above.
    pub fn efficiency(&self, input_w: f64) -> f64 {
        let c = &self.cfg;
        if input_w <= c.sensitivity_w || c.sensitivity_w <= 0.0 {
            return 0.0;
        }
        if input_w >= c.saturation_w {
            return c.max_efficiency;
        }
        // Log-linear interpolation between floor (η=0) and saturation.
        let f = (input_w / c.sensitivity_w).ln() / self.ln_span;
        c.max_efficiency * f
    }

    /// Harvests from `input_w` watts for `dt` seconds.
    pub fn harvest(&mut self, input_w: f64, dt: f64) {
        let e = self.efficiency(input_w) * input_w.max(0.0) * dt.max(0.0);
        self.harvested_total_j += e;
        self.stored_j = (self.stored_j + e).min(self.cfg.storage_j);
    }

    /// Attempts to draw `load_w` watts for `dt` seconds from storage.
    /// Returns `true` on success; on failure nothing is drawn and an outage
    /// is recorded.
    pub fn consume(&mut self, load_w: f64, dt: f64) -> bool {
        let need = load_w.max(0.0) * dt.max(0.0);
        if self.stored_j >= need {
            self.stored_j -= need;
            true
        } else {
            self.outages += 1;
            false
        }
    }

    /// Currently stored energy (joules).
    pub fn stored_j(&self) -> f64 {
        self.stored_j
    }

    /// Total energy harvested since creation (joules, before storage cap).
    pub fn harvested_total_j(&self) -> f64 {
        self.harvested_total_j
    }

    /// Number of failed [`Harvester::consume`] calls.
    pub fn outages(&self) -> u64 {
        self.outages
    }

    /// Fraction of storage filled.
    pub fn fill_fraction(&self) -> f64 {
        if self.cfg.storage_j <= 0.0 {
            0.0
        } else {
            self.stored_j / self.cfg.storage_j
        }
    }

    /// The maximum duty cycle a load of `load_w` can sustain at a steady
    /// input of `input_w`: harvested power / load power, capped at 1.
    pub fn sustainable_duty_cycle(&self, input_w: f64, load_w: f64) -> f64 {
        if load_w <= 0.0 {
            return 1.0;
        }
        (self.efficiency(input_w) * input_w / load_w).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Harvester {
        Harvester::new(HarvesterConfig::typical())
    }

    #[test]
    fn below_sensitivity_harvests_nothing() {
        let mut hv = h();
        let before = hv.stored_j();
        hv.harvest(1e-6, 1.0); // −30 dBm
        assert_eq!(hv.stored_j(), before);
        assert_eq!(hv.efficiency(1e-6), 0.0);
    }

    #[test]
    fn efficiency_monotone_and_capped() {
        let hv = h();
        let mut prev = 0.0;
        for &p in &[1.2e-5, 3e-5, 1e-4, 3e-4, 1e-3, 1e-2] {
            let e = hv.efficiency(p);
            assert!(e >= prev, "non-monotone at {p}");
            assert!(e <= 0.4 + 1e-12);
            prev = e;
        }
        assert!((hv.efficiency(1e-2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn efficiency_is_bit_identical_to_the_closed_form() {
        fn closed_form(c: &HarvesterConfig, input_w: f64) -> f64 {
            if input_w <= c.sensitivity_w || c.sensitivity_w <= 0.0 {
                return 0.0;
            }
            if input_w >= c.saturation_w {
                return c.max_efficiency;
            }
            let f = (input_w / c.sensitivity_w).ln() / (c.saturation_w / c.sensitivity_w).ln();
            c.max_efficiency * f
        }
        let configs = [
            HarvesterConfig::typical(),
            HarvesterConfig {
                sensitivity_w: 3e-7,
                saturation_w: 2e-3,
                max_efficiency: 0.55,
                ..HarvesterConfig::typical()
            },
        ];
        for cfg in configs {
            let hv = Harvester::new(cfg);
            // 1e-7 W .. 1e-2 W, 40 points per decade.
            for i in 0..=200 {
                let p = 10f64.powf(-7.0 + i as f64 / 40.0);
                let (got, want) = (hv.efficiency(p), closed_form(&cfg, p));
                assert_eq!(got.to_bits(), want.to_bits(), "{p} W");
            }
        }
    }

    #[test]
    fn storage_caps_at_capacity() {
        let mut hv = h();
        hv.harvest(1e-2, 1000.0); // huge energy
        assert!((hv.stored_j() - 100e-6).abs() < 1e-18);
        assert!(hv.harvested_total_j() > 100e-6);
    }

    #[test]
    fn consume_success_and_outage() {
        let mut hv = h(); // starts at 50 µJ
        assert!(hv.consume(1e-3, 0.04)); // 40 µJ
        assert!((hv.stored_j() - 10e-6).abs() < 1e-12);
        assert!(!hv.consume(1e-3, 0.02)); // needs 20 µJ, only 10 left
        assert_eq!(hv.outages(), 1);
        assert!((hv.stored_j() - 10e-6).abs() < 1e-12, "failed draw must not drain");
    }

    #[test]
    fn energy_conservation() {
        let mut hv = Harvester::new(HarvesterConfig {
            initial_j: 0.0,
            storage_j: 1.0, // effectively uncapped for this test
            ..HarvesterConfig::typical()
        });
        let input = 1e-3;
        let dt = 0.5;
        hv.harvest(input, dt);
        let expect = 0.4 * input * dt;
        assert!((hv.stored_j() - expect).abs() < 1e-15);
        assert!((hv.harvested_total_j() - expect).abs() < 1e-15);
    }

    #[test]
    fn sustainable_duty_cycle() {
        let hv = h();
        // At saturation input 3.16e-4 W, harvest = 0.4·3.16e-4 ≈ 126 µW.
        let d = hv.sustainable_duty_cycle(3.16e-4, 1e-3);
        assert!((d - 0.1264).abs() < 0.01, "duty {d}");
        assert_eq!(hv.sustainable_duty_cycle(1e-6, 1e-3), 0.0);
        assert_eq!(hv.sustainable_duty_cycle(1.0, 1e-6), 1.0);
    }

    #[test]
    fn fill_fraction() {
        let hv = h();
        assert!((hv.fill_fraction() - 0.5).abs() < 1e-12);
    }
}
