//! # fdb-core — the full-duplex backscatter PHY
//!
//! This crate implements the contribution of the HotNets 2013 paper *"Full
//! Duplex Backscatter"*: a physical layer in which a backscatter receiver
//! transmits a **low-rate feedback stream in-band, simultaneously with the
//! packet it is receiving**, using nothing beyond the antenna switch and
//! envelope detector every backscatter device already has.
//!
//! ## The three ideas
//!
//! 1. **Rate asymmetry.** The forward link sends data at the chip rate; the
//!    feedback link toggles the receiver's antenna once per `m` data bits
//!    (`m` = 8…512). The two streams share one channel but live at rates
//!    apart by a factor `m`, so each side can separate them with filters it
//!    can afford: the data receiver slices chips, the feedback receiver
//!    integrates over `m`-bit windows.
//! 2. **DC-balanced data coding.** Because the forward data is
//!    Manchester/FM0 coded, its contribution to any `m`-bit window average
//!    is (nearly) constant — integration cancels the data and exposes the
//!    slow feedback level (see `fdb_dsp::line_code`).
//! 3. **Known-self-interference cancellation.** Toggling your own antenna
//!    changes how much of the incident field reaches your own detector —
//!    but you *know* your own antenna state, so the distortion is exactly
//!    invertible in the digital domain ([`sic`]). No analog cancellation
//!    hardware is needed.
//!
//! ## Module map
//!
//! | module | role |
//! |--------|------|
//! | [`config`] | PHY parameters, validated |
//! | [`frame`] | preamble + length header + per-block CRC framing |
//! | [`tx`] | forward encoder: frame → chip schedule |
//! | [`rx`] | forward decoder: envelope → sync → slice → blocks |
//! | [`feedback`] | the feedback channel: encoder at the data receiver, integrate-and-dump decoder at the data transmitter |
//! | [`sic`] | known-state self-interference cancellation |
//! | [`link`] | the sample-synchronous two-device full-duplex link |
//! | [`draws`] | per-sample random draws, inline or drawn ahead on a helper thread |
//! | [`scratch`] | per-link arena of reusable frame-engine working buffers |
//! | [`network`] | K coexisting links with first-order mutual scattering |
//! | [`trace`] | frame-level per-stage diagnostics through caller-owned sinks |
//! | [`seed`] | deterministic seed derivation shared by every per-frame stream |
//! | [`hash`] | canonical JSON + stable 128-bit content addressing for cached results |
//! | [`error`] | error types |
//!
//! ## Feature flags
//!
//! * `trace` — sets [`trace::ENABLED`], and nothing else. The trace
//!   probes, the sinks and the drivers above them compile in every build,
//!   and an untraced frame runs on the block engine in every build. With
//!   the feature, a frame that attaches a sink runs on the per-sample
//!   reference engine and records its events; without it, such a frame
//!   is refused with [`PhyError::TraceSink`]. Off by default; the
//!   workspace's only feature.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod draws;
pub mod error;
pub mod feedback;
pub mod frame;
pub mod hash;
pub mod link;
pub mod multilink;
pub mod network;
pub mod rx;
pub mod scratch;
pub mod seed;
pub mod sic;
pub mod trace;
pub mod tx;

pub use config::{PhyConfig, SicMode};
pub use error::PhyError;
pub use link::{FdLink, FrameOutcome, FrameRun, LinkConfig, LinkGeometry};
pub use scratch::LinkScratch;
pub use seed::derive_seed;

#[cfg(test)]
mod tests {
    /// The workspace manifest compiles this crate (and the other simulator
    /// crates) at `opt-level = 2` in the dev profile. Optimisation must not
    /// cost test builds their checks: under the dev profile (binaries in a
    /// `debug` directory) `debug_assert!` fires and integer overflow
    /// panics, and in every profile the two checks agree.
    #[test]
    fn optimised_dev_profile_keeps_debug_checks() {
        let panics = |f: fn()| std::panic::catch_unwind(f).is_err();
        let debug_assert_fires = panics(|| debug_assert!(std::hint::black_box(false)));
        let overflow_panics = panics(|| {
            std::hint::black_box(std::hint::black_box(u8::MAX) + 1);
        });
        assert_eq!(debug_assert_fires, cfg!(debug_assertions));
        assert_eq!(overflow_panics, debug_assert_fires, "overflow checks disagree");
        let exe = std::env::current_exe().expect("test binary path");
        if exe.ancestors().any(|dir| dir.file_name() == Some("debug".as_ref())) {
            assert!(debug_assert_fires, "dev-profile test build lost debug assertions");
        }
    }
}
