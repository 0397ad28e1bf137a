//! PHY configuration.
//!
//! One validated struct carries every knob of the full-duplex PHY. The
//! defaults reproduce the operating point of the original prototype class:
//! ~1 kbps forward data (Manchester at 2 kchips/s), feedback at
//! `data_rate / m`, 16-byte CRC blocks.

use crate::error::PhyError;
use fdb_dsp::line_code::LineCode;
use serde::{Deserialize, Serialize};

/// Self-interference cancellation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SicMode {
    /// No cancellation — the ablation baseline (experiment E3).
    Off,
    /// Divide the detected envelope by the device's own antenna pass
    /// fraction, which the device knows exactly.
    KnownState,
}

/// Two-stage acquisition policy: how a candidate correlation peak becomes
/// a committed lock, and what happens when verification fails.
///
/// Stage 1 runs inside the correlator ([`fdb_dsp::correlate::PreambleSearcher`]):
/// a candidate peak must be *sharp* — its correlation at least
/// `min_sharpness` times the largest off-peak correlation in the tracked
/// trajectory. Stage 2 runs in the receiver after the candidate is
/// declared: the preamble chips are re-decoded from the replayed sample
/// history and compared against the known pattern, and the frame header
/// must pass its CRC. Any failure *re-arms* the searcher and returns the
/// receiver to acquisition (up to `max_rearms` times per frame) instead of
/// abandoning the remaining samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncPolicy {
    /// Stage-1 peak-to-sidelobe gate; values ≤ 1.0 disable it.
    #[serde(default = "SyncPolicy::default_min_sharpness")]
    pub min_sharpness: f64,
    /// Stage-2 preamble re-decode toggle.
    #[serde(default = "SyncPolicy::default_verify_preamble")]
    pub verify_preamble: bool,
    /// Chip mismatches tolerated by the stage-2 preamble re-decode before
    /// the lock is rejected (out of `preamble.len() × chips_per_bit`).
    #[serde(default = "SyncPolicy::default_max_preamble_chip_errors")]
    pub max_preamble_chip_errors: usize,
    /// Lock rejections (either stage, including header-CRC failures)
    /// tolerated per frame before the receiver gives up in
    /// [`crate::rx::RxState::Failed`].
    #[serde(default = "SyncPolicy::default_max_rearms")]
    pub max_rearms: usize,
}

impl SyncPolicy {
    fn default_min_sharpness() -> f64 {
        1.25
    }

    fn default_verify_preamble() -> bool {
        true
    }

    fn default_max_preamble_chip_errors() -> usize {
        4
    }

    fn default_max_rearms() -> usize {
        6
    }

    /// The single-stage legacy behaviour: every threshold crossing is a
    /// committed lock and the first bad header kills the frame.
    pub fn trusting() -> Self {
        SyncPolicy {
            min_sharpness: 0.0,
            verify_preamble: false,
            max_preamble_chip_errors: usize::MAX,
            max_rearms: 0,
        }
    }
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy {
            min_sharpness: Self::default_min_sharpness(),
            verify_preamble: Self::default_verify_preamble(),
            max_preamble_chip_errors: Self::default_max_preamble_chip_errors(),
            max_rearms: Self::default_max_rearms(),
        }
    }
}

/// Full-duplex PHY parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhyConfig {
    /// Simulation sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Samples per chip (≥ 4 for usable sync).
    pub samples_per_chip: usize,
    /// Forward-data line code.
    pub line_code: LineCode,
    /// Data bits per feedback bit (`m`); must be even and ≥ 2 so the
    /// Manchester-coded feedback halves align with data-bit boundaries.
    pub feedback_ratio: usize,
    /// Preamble bit pattern (line-coded like data; chosen for a sharp
    /// autocorrelation peak).
    pub preamble: Vec<bool>,
    /// Payload block size in bytes between CRC-8 trailers.
    pub block_len_bytes: usize,
    /// Whether payload bits are PRBS-scrambled (whitens pathological data).
    pub scramble: bool,
    /// Per-block forward error correction: Hamming(7,4) + depth-7 block
    /// interleaving over each block's bytes (1.75× airtime for single-error
    /// correction per codeword). The FEC-vs-ARQ tradeoff is ablation A4.
    #[serde(default)]
    pub payload_fec: bool,
    /// Self-interference cancellation mode.
    pub sic: SicMode,
    /// Guard interval (in data bits) between frame start and the feedback
    /// epoch, covering the receiver's lock latency.
    pub feedback_guard_bits: usize,
    /// Preamble correlation threshold for acquisition, `(0, 1)`.
    pub sync_threshold: f64,
    /// Two-stage lock verification and re-arm policy. Older configs
    /// without the field get the verified default.
    #[serde(default)]
    pub sync: SyncPolicy,
    /// Per-frame trace ring capacity in events, at most
    /// [`crate::trace::MAX_TRACE_CAPACITY`]; `None` — including configs
    /// written before the field existed — resolves to
    /// [`crate::trace::DEFAULT_TRACE_CAPACITY`] via
    /// [`trace_ring_capacity`](PhyConfig::trace_ring_capacity).
    #[serde(default)]
    pub trace_capacity: Option<usize>,
}

impl PhyConfig {
    /// The default operating point: 20 kHz sample rate, 10 samples/chip
    /// (2 kchips/s → 1 kbps Manchester data), m = 32, 16-byte blocks.
    pub fn default_fd() -> Self {
        PhyConfig {
            sample_rate_hz: 20_000.0,
            samples_per_chip: 10,
            line_code: LineCode::Manchester,
            feedback_ratio: 32,
            preamble: vec![
                true, false, true, false, true, true, false, false, true, false, false, true,
                true, true, false, false,
            ],
            block_len_bytes: 16,
            scramble: true,
            payload_fec: false,
            sic: SicMode::KnownState,
            feedback_guard_bits: 4,
            // With two-stage verification the scalar threshold only needs
            // to admit candidates (the shape gate and preamble re-decode do
            // the discrimination), so it sits at the sensitive end of the
            // marginal-link band instead of on the tuned 0.67 cliff.
            sync_threshold: 0.62,
            sync: SyncPolicy::default(),
            trace_capacity: None,
        }
    }

    /// Field-wise copy that reuses `self`'s heap buffers (the preamble
    /// vector) instead of allocating a fresh clone — the per-slot config
    /// rebuild in a long MAC session goes through this.
    pub fn copy_from(&mut self, source: &PhyConfig) {
        self.sample_rate_hz = source.sample_rate_hz;
        self.samples_per_chip = source.samples_per_chip;
        self.line_code = source.line_code;
        self.feedback_ratio = source.feedback_ratio;
        self.preamble.clone_from(&source.preamble);
        self.block_len_bytes = source.block_len_bytes;
        self.scramble = source.scramble;
        self.payload_fec = source.payload_fec;
        self.sic = source.sic;
        self.feedback_guard_bits = source.feedback_guard_bits;
        self.sync_threshold = source.sync_threshold;
        self.sync = source.sync;
        self.trace_capacity = source.trace_capacity;
    }

    /// Effective per-frame trace ring capacity: the configured
    /// `trace_capacity`, or [`crate::trace::DEFAULT_TRACE_CAPACITY`].
    pub fn trace_ring_capacity(&self) -> usize {
        self.trace_capacity
            .unwrap_or(crate::trace::DEFAULT_TRACE_CAPACITY)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PhyError> {
        // NaN must fail too, hence the negated comparison on a partial ord.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.sample_rate_hz > 0.0) {
            return Err(PhyError::InvalidConfig {
                field: "sample_rate_hz",
                reason: "must be positive".into(),
            });
        }
        if self.samples_per_chip < 4 {
            return Err(PhyError::InvalidConfig {
                field: "samples_per_chip",
                reason: "need ≥ 4 samples per chip for synchronisation".into(),
            });
        }
        if self.feedback_ratio < 2 || !self.feedback_ratio.is_multiple_of(2) {
            return Err(PhyError::InvalidConfig {
                field: "feedback_ratio",
                reason: "must be even and ≥ 2".into(),
            });
        }
        if self.preamble.len() < 8 {
            return Err(PhyError::InvalidConfig {
                field: "preamble",
                reason: "need ≥ 8 preamble bits".into(),
            });
        }
        if self.block_len_bytes == 0 || self.block_len_bytes > 255 {
            return Err(PhyError::InvalidConfig {
                field: "block_len_bytes",
                reason: "must be in 1..=255".into(),
            });
        }
        if !(self.sync_threshold > 0.0 && self.sync_threshold < 1.0) {
            return Err(PhyError::InvalidConfig {
                field: "sync_threshold",
                reason: "must be in (0, 1)".into(),
            });
        }
        if !self.sync.min_sharpness.is_finite() || self.sync.min_sharpness < 0.0 {
            return Err(PhyError::InvalidConfig {
                field: "sync.min_sharpness",
                reason: "must be finite and non-negative".into(),
            });
        }
        if self.trace_capacity == Some(0) {
            return Err(PhyError::InvalidConfig {
                field: "trace_capacity",
                reason: "must be ≥ 1 (omit the field for the default)".into(),
            });
        }
        if let Some(capacity) = self.trace_capacity {
            crate::trace::check_capacity("trace_capacity", capacity)?;
        }
        Ok(())
    }

    /// Chips per data bit for the configured line code.
    pub fn chips_per_bit(&self) -> usize {
        self.line_code.chips_per_bit()
    }

    /// Samples per data bit.
    pub fn samples_per_bit(&self) -> usize {
        self.samples_per_chip * self.chips_per_bit()
    }

    /// Samples per feedback bit (`m` data bits).
    pub fn samples_per_feedback_bit(&self) -> usize {
        self.samples_per_bit() * self.feedback_ratio
    }

    /// Data bit rate in bits/s.
    pub fn data_rate_bps(&self) -> f64 {
        self.sample_rate_hz / self.samples_per_bit() as f64
    }

    /// Feedback bit rate in bits/s.
    pub fn feedback_rate_bps(&self) -> f64 {
        self.data_rate_bps() / self.feedback_ratio as f64
    }

    /// Chip duration in seconds.
    pub fn chip_duration_s(&self) -> f64 {
        self.samples_per_chip as f64 / self.sample_rate_hz
    }

    /// Sample period in seconds.
    pub fn sample_period_s(&self) -> f64 {
        1.0 / self.sample_rate_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(PhyConfig::default_fd().validate().is_ok());
    }

    #[test]
    fn derived_rates() {
        let c = PhyConfig::default_fd();
        // 20 kHz / (10 samples × 2 chips) = 1 kbps.
        assert!((c.data_rate_bps() - 1000.0).abs() < 1e-9);
        assert!((c.feedback_rate_bps() - 31.25).abs() < 1e-9);
        assert_eq!(c.samples_per_bit(), 20);
        assert_eq!(c.samples_per_feedback_bit(), 640);
        assert!((c.chip_duration_s() - 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn rejects_odd_feedback_ratio() {
        let mut c = PhyConfig::default_fd();
        c.feedback_ratio = 7;
        assert!(matches!(
            c.validate(),
            Err(PhyError::InvalidConfig { field: "feedback_ratio", .. })
        ));
    }

    #[test]
    fn rejects_tiny_sps() {
        let mut c = PhyConfig::default_fd();
        c.samples_per_chip = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_block_len() {
        let mut c = PhyConfig::default_fd();
        c.block_len_bytes = 0;
        assert!(c.validate().is_err());
        c.block_len_bytes = 256;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_short_preamble() {
        let mut c = PhyConfig::default_fd();
        c.preamble = vec![true, false];
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_sync_policy_is_two_stage() {
        let c = PhyConfig::default_fd();
        assert!(c.sync.min_sharpness > 1.0, "shape gate off by default");
        assert!(c.sync.verify_preamble);
        assert!(c.sync.max_rearms > 0, "re-arm disabled by default");
    }

    #[test]
    fn trusting_policy_disables_both_stages() {
        let p = SyncPolicy::trusting();
        assert!(p.min_sharpness <= 1.0);
        assert!(!p.verify_preamble);
        assert_eq!(p.max_rearms, 0);
        let mut c = PhyConfig::default_fd();
        c.sync = p;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_min_sharpness() {
        let mut c = PhyConfig::default_fd();
        c.sync.min_sharpness = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(PhyError::InvalidConfig { field: "sync.min_sharpness", .. })
        ));
        c.sync.min_sharpness = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn trace_capacity_defaults_and_validates() {
        let mut c = PhyConfig::default_fd();
        assert_eq!(c.trace_capacity, None);
        assert_eq!(c.trace_ring_capacity(), crate::trace::DEFAULT_TRACE_CAPACITY);
        c.trace_capacity = Some(128);
        assert_eq!(c.trace_ring_capacity(), 128);
        assert!(c.validate().is_ok());
        c.trace_capacity = Some(crate::trace::MAX_TRACE_CAPACITY);
        assert!(c.validate().is_ok());
        for refused in [0, crate::trace::MAX_TRACE_CAPACITY + 1, 1 << 50] {
            c.trace_capacity = Some(refused);
            assert!(matches!(
                c.validate(),
                Err(PhyError::InvalidConfig { field: "trace_capacity", .. })
            ));
        }
    }

    #[test]
    fn nrz_changes_chip_geometry() {
        let mut c = PhyConfig::default_fd();
        c.line_code = LineCode::Nrz;
        assert_eq!(c.samples_per_bit(), 10);
        assert!((c.data_rate_bps() - 2000.0).abs() < 1e-9);
    }
}
