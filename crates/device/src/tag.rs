//! The composed passive tag.
//!
//! [`TagHardware`] wires the reflection switch, detector chain, comparator,
//! harvester and clock into one device with a single configuration struct.
//! The PHY (`fdb-core`) owns *when* the antenna toggles and *what* the
//! incident field is; this type owns the physics at the antenna reference
//! plane: the reflect/pass power split, detection, harvesting and the
//! energy ledger.

use crate::antenna::ReflectionSwitch;
use crate::comparator::Comparator;
use crate::detector::DetectorChain;
use crate::harvester::{Harvester, HarvesterConfig};
use crate::oscillator::{TagClock, TagClockConfig};
use fdb_dsp::Iq;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Full tag configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TagConfig {
    /// Power reflection coefficient in the reflect state.
    pub rho: f64,
    /// Structural (absorb-state) residual reflection.
    pub rho_residual: f64,
    /// Detector RC time constant (seconds).
    pub detector_tau_s: f64,
    /// Detector envelope-noise standard deviation (watts).
    pub detector_noise_w: f64,
    /// Comparator hysteresis width (watts of envelope).
    pub comparator_hysteresis_w: f64,
    /// Harvester and storage parameters.
    pub harvester: HarvesterConfig,
    /// Clock imperfections.
    pub clock: TagClockConfig,
    /// Power drawn while the receive chain is active (watts).
    pub rx_load_w: f64,
    /// Power drawn by control logic whenever awake (watts).
    pub logic_load_w: f64,
    /// Energy per antenna-state toggle (joules) — switching loss.
    pub toggle_energy_j: f64,
}

impl TagConfig {
    /// A representative ambient-backscatter tag.
    ///
    /// Numbers follow the passive-tag literature: µW-scale loads, ~−20 dBm
    /// harvesting floor, ρ ≈ 0.3 reflection, detector fast relative to
    /// kilobit chips.
    pub fn typical(sample_period_s: f64) -> Self {
        let _ = sample_period_s; // reserved: detector tau is absolute
        TagConfig {
            rho: 0.3,
            rho_residual: 0.005,
            detector_tau_s: 5e-6,
            detector_noise_w: 0.0,
            comparator_hysteresis_w: 0.0,
            harvester: HarvesterConfig::typical(),
            clock: TagClockConfig::ideal(),
            rx_load_w: 0.5e-6,
            logic_load_w: 0.2e-6,
            toggle_energy_j: 1e-11,
        }
    }

    /// Checks that every parameter is physical: reflection coefficients
    /// and harvester efficiency in `[0, 1]`; time constant, noise,
    /// hysteresis, harvester powers and energies, and loads finite and
    /// non-negative; the clock's static error within ±100 000 ppm (the
    /// bound a clock-drift fault has), its jitter non-negative and its
    /// reversion in `[0, 1]`. Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let h = &self.harvester;
        for (name, v) in [
            ("rho", self.rho),
            ("rho_residual", self.rho_residual),
            ("harvester.max_efficiency", h.max_efficiency),
            ("clock.reversion", self.clock.reversion),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} {v} not in [0, 1]"));
            }
        }
        for (name, v) in [
            ("detector_tau_s", self.detector_tau_s),
            ("detector_noise_w", self.detector_noise_w),
            ("comparator_hysteresis_w", self.comparator_hysteresis_w),
            ("harvester.sensitivity_w", h.sensitivity_w),
            ("harvester.saturation_w", h.saturation_w),
            ("harvester.storage_j", h.storage_j),
            ("harvester.initial_j", h.initial_j),
            ("clock.jitter_ppm", self.clock.jitter_ppm),
            ("rx_load_w", self.rx_load_w),
            ("logic_load_w", self.logic_load_w),
            ("toggle_energy_j", self.toggle_energy_j),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} {v} not in [0, ∞)"));
            }
        }
        let ppm = self.clock.static_ppm;
        if !(ppm.is_finite() && ppm.abs() <= 100_000.0) {
            return Err(format!("clock.static_ppm {ppm} not in [-100000, 100000]"));
        }
        Ok(())
    }
}

/// A running tag device.
#[derive(Debug, Clone)]
pub struct TagHardware {
    switch: ReflectionSwitch,
    detector: DetectorChain,
    comparator: Comparator,
    harvester: Harvester,
    clock: TagClock,
    cfg: TagConfig,
    toggles: u64,
    consumed_j: f64,
    alive: bool,
    /// Per-state reflection coefficient and pass amplitude, cached at
    /// construction. The switch's ρ/phase never change after `new`, so
    /// these are exactly the values the switch would recompute (with a
    /// `sqrt` and a `cos`/`sin`) on every sample of the link hot loop.
    coeff: [Iq; 2],
    pass_amp: [f64; 2],
}

impl TagHardware {
    /// Builds a tag for a simulation running at sample period `dt` seconds.
    pub fn new(cfg: TagConfig, dt: f64) -> Self {
        let mut switch = ReflectionSwitch::new(cfg.rho, cfg.rho_residual);
        let mut coeff = [Iq::ZERO; 2];
        let mut pass_amp = [0.0f64; 2];
        for (i, state) in [false, true].into_iter().enumerate() {
            switch.set_state(state);
            coeff[i] = switch.reflection_coeff();
            pass_amp[i] = switch.pass_power_fraction().sqrt();
        }
        switch.set_state(false);
        TagHardware {
            switch,
            detector: DetectorChain::new(cfg.detector_tau_s, dt, cfg.detector_noise_w),
            comparator: Comparator::new(cfg.comparator_hysteresis_w),
            harvester: Harvester::new(cfg.harvester),
            clock: TagClock::new(cfg.clock),
            cfg,
            toggles: 0,
            consumed_j: 0.0,
            alive: true,
            coeff,
            pass_amp,
        }
    }

    /// Sets the antenna state; counts and charges toggles.
    pub fn set_antenna(&mut self, reflect: bool) {
        if self.switch.state() != reflect {
            self.toggles += 1;
            if !self.draw_energy(self.cfg.toggle_energy_j) {
                self.alive = false;
            }
        }
        self.switch.set_state(reflect);
    }

    /// The field this tag re-radiates for an incident field sample.
    #[inline]
    pub fn reflected(&self, incident: Iq) -> Iq {
        incident * self.coeff[self.switch.state() as usize]
    }

    /// One sample step on the receive/harvest side: the incident field is
    /// split by the current antenna state; the passed power feeds both the
    /// detector (measurement) and the harvester (energy), and the noisy
    /// envelope sample is returned.
    pub fn step_receive<R: Rng + ?Sized>(&mut self, incident: Iq, dt: f64, rng: &mut R) -> f64 {
        let pass_amp = self.pass_amp[self.switch.state() as usize];
        let field_in = incident * pass_amp;
        self.harvester.harvest(field_in.norm_sq(), dt);
        self.detector.process(field_in, rng)
    }

    /// Slices an envelope sample against a threshold using the comparator.
    #[inline]
    pub fn slice(&mut self, envelope: f64, threshold: f64) -> bool {
        self.comparator.process(envelope, threshold)
    }

    /// Charges the load for an awake interval. Returns `false` (and marks
    /// the tag dead) on energy outage.
    pub fn charge_awake(&mut self, dt: f64, receiving: bool) -> bool {
        let load = self.cfg.logic_load_w + if receiving { self.cfg.rx_load_w } else { 0.0 };
        let ok = self.harvester.consume(load, dt);
        self.consumed_j += if ok { load * dt } else { 0.0 };
        if !ok {
            self.alive = false;
        }
        ok
    }

    fn draw_energy(&mut self, joules: f64) -> bool {
        // Express a one-shot energy draw as consume(P, 1s).
        let ok = self.harvester.consume(joules, 1.0);
        if ok {
            self.consumed_j += joules;
        }
        ok
    }

    /// Access to the clock (rate ratio, jitter stepping).
    pub fn clock_mut(&mut self) -> &mut TagClock {
        &mut self.clock
    }

    /// Access to the harvester state.
    pub fn harvester(&self) -> &Harvester {
        &self.harvester
    }

    /// Current antenna state.
    pub fn antenna_state(&self) -> bool {
        self.switch.state()
    }

    /// The configured reflection coefficient ρ.
    pub fn rho(&self) -> f64 {
        self.cfg.rho
    }

    /// Number of antenna toggles so far.
    pub fn toggles(&self) -> u64 {
        self.toggles
    }

    /// Total energy drawn from storage (joules).
    pub fn consumed_j(&self) -> f64 {
        self.consumed_j
    }

    /// `false` once an energy outage has killed the tag.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Revives a dead tag (new experiment run without rebuilding).
    pub fn revive(&mut self) {
        self.alive = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tag() -> TagHardware {
        TagHardware::new(TagConfig::typical(1e-6), 1e-6)
    }

    #[test]
    fn validate_rejects_unphysical_parameters() {
        let ok = TagConfig::typical(1e-6);
        assert_eq!(ok.validate(), Ok(()));
        let rejects = |f: fn(&mut TagConfig), want: &str| {
            let mut c = ok;
            f(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.starts_with(want), "{err:?} lacks {want:?}");
        };
        rejects(|c| c.rho = 7.0, "rho 7 not in [0, 1]");
        rejects(|c| c.rho_residual = -0.1, "rho_residual");
        rejects(|c| c.detector_tau_s = -1.0, "detector_tau_s -1 not in [0, ∞)");
        rejects(|c| c.detector_noise_w = f64::NAN, "detector_noise_w");
        rejects(|c| c.harvester.max_efficiency = 1.5, "harvester.max_efficiency");
        rejects(|c| c.harvester.initial_j = -1e-6, "harvester.initial_j");
        rejects(|c| c.clock.reversion = 2.0, "clock.reversion");
        rejects(|c| c.clock.static_ppm = 1e9, "clock.static_ppm");
        rejects(|c| c.logic_load_w = f64::INFINITY, "logic_load_w");
        // An ideal detector (tau 0) and a perfect clock are physical.
        let mut edge = ok;
        edge.detector_tau_s = 0.0;
        edge.rho = 1.0;
        edge.clock.static_ppm = -100_000.0;
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    fn reflect_state_reduces_detected_power() {
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let mut t = tag();
        // Ideal detector for this check.
        t.detector = DetectorChain::ideal();
        t.set_antenna(false);
        let e_absorb = t.step_receive(Iq::ONE, 1e-6, &mut rng);
        t.set_antenna(true);
        let e_reflect = t.step_receive(Iq::ONE, 1e-6, &mut rng);
        // Absorb passes (1−0.005), reflect passes (1−0.3).
        assert!((e_absorb - 0.995).abs() < 1e-9, "{e_absorb}");
        assert!((e_reflect - 0.7).abs() < 1e-9, "{e_reflect}");
    }

    #[test]
    fn harvesting_accumulates_while_receiving() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let mut t = tag();
        let before = t.harvester().stored_j();
        // Strong field: 1 mW incident (−0 dBm ≫ sensitivity).
        let field = Iq::real((1e-3f64).sqrt());
        for _ in 0..10_000 {
            t.step_receive(field, 1e-6, &mut rng);
        }
        assert!(t.harvester().stored_j() > before, "no harvest");
    }

    #[test]
    fn toggle_counting() {
        let mut t = tag();
        t.set_antenna(true);
        t.set_antenna(true); // no-op
        t.set_antenna(false);
        assert_eq!(t.toggles(), 2);
    }

    #[test]
    fn outage_kills_tag() {
        let mut cfg = TagConfig::typical(1e-6);
        cfg.harvester.initial_j = 1e-12;
        cfg.rx_load_w = 1e-3;
        let mut t = TagHardware::new(cfg, 1e-6);
        assert!(t.is_alive());
        assert!(!t.charge_awake(1.0, true));
        assert!(!t.is_alive());
        t.revive();
        assert!(t.is_alive());
    }

    #[test]
    fn energy_ledger_tracks_consumption() {
        let mut t = tag();
        assert!(t.charge_awake(0.01, true));
        let expect = (0.5e-6 + 0.2e-6) * 0.01;
        assert!((t.consumed_j() - expect).abs() < 1e-15);
    }

    #[test]
    fn cached_switch_values_bit_match_recomputation() {
        let mut t = tag();
        for state in [false, true, false] {
            t.set_antenna(state);
            let inc = Iq::new(0.3, -0.7);
            assert_eq!(t.reflected(inc), t.switch.reflected(inc));
            assert_eq!(
                t.pass_amp[state as usize].to_bits(),
                t.switch.pass_power_fraction().sqrt().to_bits()
            );
        }
    }

    #[test]
    fn reflected_field_uses_switch() {
        let mut t = tag();
        t.set_antenna(true);
        let r = t.reflected(Iq::ONE);
        assert!((r.abs() - 0.3f64.sqrt()).abs() < 1e-12);
        t.set_antenna(false);
        let r = t.reflected(Iq::ONE);
        assert!((r.abs() - 0.005f64.sqrt()).abs() < 1e-12);
    }
}
