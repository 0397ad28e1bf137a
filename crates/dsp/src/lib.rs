//! # fdb-dsp — DSP substrate for the fd-backscatter stack
//!
//! This crate provides the signal-processing building blocks that every other
//! crate in the workspace composes: complex baseband samples, filters, line
//! codes, synchronisation, error detection/correction, an adaptive slicer
//! and statistics.
//!
//! Everything here is deliberately simple, allocation-conscious and
//! deterministic (smoltcp-style): filters are explicit state machines that
//! process one sample at a time, randomness never enters this crate, and no
//! function panics on hostile input in a library path (they return `Result`
//! or saturate instead).
//!
//! ## Layout
//!
//! | module | contents |
//! |--------|----------|
//! | [`sample`] | complex IQ sample type, dB/linear and dBm/watt conversions |
//! | [`ringbuf`] | fixed-capacity ring buffer used by windowed operators, with a bulk `extend_evict` |
//! | [`fir`] | FIR filter + root-raised-cosine tap designer |
//! | [`iir`] | single-pole RC low-pass (the tag's detector capacitor) |
//! | [`moving_average`] | O(1) sliding-window mean |
//! | [`envelope`] | square-law envelope detector chain |
//! | [`correlate`] | normalised correlation and preamble search; lane-group scoring kernels (portable 8 lanes, AVX2 16, AVX-512F 32), picked once per process by CPU detection and bit-identical to each other |
//! | [`prbs`] | LFSR pseudo-random binary sequences |
//! | [`crc`] | CRC-8 (block trailers, frame header) |
//! | [`fec`] | repetition code, Hamming(7,4), block interleaver |
//! | [`line_code`] | NRZ-OOK, Manchester, FM0, Miller backscatter codings |
//! | [`stats`] | BER counters, Wilson intervals, Welford, EWMA |
//! | [`math`] | erf/erfc/Q, Marcum Q₁, Bessel I₀ special functions |
//! | [`resample`] | fractional resampler (models clock-rate mismatch) |
//! | [`threshold`] | adaptive peak-tracking slicer |
//!
//! Unsafe code is denied crate-wide; the one exception is the kernel
//! dispatch in [`correlate`], which calls a `#[target_feature]` kernel
//! only after the CPU was checked for that feature.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod correlate;
pub mod crc;
pub mod envelope;
pub mod fec;
pub mod fir;
pub mod iir;
pub mod line_code;
pub mod math;
pub mod moving_average;
pub mod prbs;
pub mod resample;
pub mod ringbuf;
pub mod sample;
pub mod stats;
pub mod threshold;

pub use sample::Iq;
