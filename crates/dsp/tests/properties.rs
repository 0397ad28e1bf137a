//! Property-based tests over the DSP substrate's core invariants.

use fdb_dsp::crc::crc8;
use fdb_dsp::fec::{
    hamming74_decode, hamming74_encode_nibble, repeat_decode, repeat_encode, Interleaver,
};
use fdb_dsp::fir::Fir;
use fdb_dsp::line_code::LineCode;
use fdb_dsp::moving_average::MovingAverage;
use fdb_dsp::resample::Resampler;
use fdb_dsp::ringbuf::RingBuf;
use fdb_dsp::sample::Iq;
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    /// RingBuf behaves exactly like a capacity-bounded VecDeque.
    #[test]
    fn ringbuf_matches_vecdeque_model(
        cap in 1usize..32,
        ops in proptest::collection::vec(any::<i32>(), 0..200),
    ) {
        let mut ring: RingBuf<i32> = RingBuf::new(cap);
        let mut model: VecDeque<i32> = VecDeque::new();
        for v in ops {
            let evicted = ring.push_evict(v);
            model.push_back(v);
            let model_evicted = if model.len() > cap { model.pop_front() } else { None };
            prop_assert_eq!(evicted, model_evicted);
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.oldest(), model.front().copied());
            prop_assert_eq!(ring.newest(), model.back().copied());
            prop_assert_eq!(ring.iter().collect::<Vec<_>>(),
                            model.iter().copied().collect::<Vec<_>>());
        }
    }

    /// FIR filtering is linear: F(a·x + b·y) = a·F(x) + b·F(y).
    #[test]
    fn fir_linearity(
        taps in proptest::collection::vec(-2.0f64..2.0, 1..16),
        xs in proptest::collection::vec(-10.0f64..10.0, 1..64),
        ys in proptest::collection::vec(-10.0f64..10.0, 1..64),
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let n = xs.len().min(ys.len());
        let mut f1 = Fir::new(taps.clone());
        let mut f2 = Fir::new(taps.clone());
        let mut f3 = Fir::new(taps);
        for i in 0..n {
            let x = Iq::real(xs[i]);
            let y = Iq::real(ys[i]);
            let lhs = f1.process(x * a + y * b);
            let rhs = f2.process(x) * a + f3.process(y) * b;
            prop_assert!((lhs - rhs).abs() < 1e-9, "sample {}: {:?} vs {:?}", i, lhs, rhs);
        }
    }

    /// Moving average over a full window equals the arithmetic mean of the
    /// last `w` samples.
    #[test]
    fn moving_average_exact(
        w in 1usize..32,
        xs in proptest::collection::vec(-100.0f64..100.0, 1..128),
    ) {
        let mut ma = MovingAverage::new(w);
        let mut out = Vec::new();
        for &x in &xs {
            out.push(ma.process(x));
        }
        for (i, &o) in out.iter().enumerate() {
            let lo = i.saturating_sub(w - 1);
            let expect: f64 = xs[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64;
            prop_assert!((o - expect).abs() < 1e-9);
        }
    }

    /// CRC-8 detects every single-bit flip in arbitrary messages.
    #[test]
    fn crc8_detects_single_flips(
        data in proptest::collection::vec(any::<u8>(), 1..64),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0usize..8,
    ) {
        let i = byte_idx.index(data.len());
        let mut bad = data.clone();
        bad[i] ^= 1 << bit;
        prop_assert_ne!(crc8(&data), crc8(&bad));
    }

    /// Hamming(7,4) corrects any single-bit error in any codeword.
    #[test]
    fn hamming_corrects_any_single_error(nibble in 0u8..16, pos in 0usize..7) {
        let mut cw = hamming74_encode_nibble(nibble);
        cw[pos] = !cw[pos];
        let (decoded, fixed) = hamming74_decode(&cw);
        prop_assert_eq!(decoded, nibble);
        prop_assert_eq!(fixed, Some(pos + 1));
    }

    /// Repetition code round-trips and corrects any minority of errors.
    #[test]
    fn repetition_corrects_minorities(
        bits in proptest::collection::vec(any::<bool>(), 1..48),
        n in prop::sample::select(vec![3usize, 5, 7]),
        flips in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut coded = repeat_encode(&bits, n);
        // Flip strictly fewer than n/2 chips in distinct groups.
        let mut touched = std::collections::HashSet::new();
        for f in flips {
            let g = f.index(bits.len());
            if touched.insert(g) {
                coded[g * n] = !coded[g * n]; // one flip per group < majority
            }
        }
        prop_assert_eq!(repeat_decode(&coded, n), bits);
    }

    /// Interleaver round-trips for every depth and length.
    #[test]
    fn interleaver_roundtrip(
        bits in proptest::collection::vec(any::<bool>(), 0..256),
        rows in 1usize..17,
    ) {
        let il = Interleaver::new(rows);
        prop_assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    /// Every line code round-trips every bit pattern.
    #[test]
    fn line_codes_roundtrip(
        bits in proptest::collection::vec(any::<bool>(), 0..128),
        idx in 0usize..4,
    ) {
        let code = [LineCode::Nrz, LineCode::Manchester, LineCode::Fm0, LineCode::Miller][idx];
        prop_assert_eq!(code.decode_hard(&code.encode(&bits)), bits);
    }

    /// Manchester and FM0 keep the running chip imbalance bounded for
    /// every input (the feedback channel's enabling property).
    #[test]
    fn balanced_codes_bounded_imbalance(
        bits in proptest::collection::vec(any::<bool>(), 1..256),
    ) {
        for code in [LineCode::Manchester, LineCode::Fm0] {
            let chips = code.encode(&bits);
            let mut acc: i64 = 0;
            for &c in &chips {
                acc += if c { 1 } else { -1 };
                prop_assert!(acc.abs() <= 3, "{code:?} imbalance {acc}");
            }
        }
    }

    /// The resampler's output count is within one sample of the exact
    /// ratio for any rate and length.
    #[test]
    fn resampler_count_bound(
        ratio in 0.3f64..3.0,
        n in 16usize..2048,
    ) {
        let mut r = Resampler::new(ratio);
        let out = r.process_block(&vec![1.0; n]);
        let expect = ((n - 1) as f64 * ratio).floor() + 1.0;
        prop_assert!(
            (out.len() as f64 - expect).abs() <= 1.0,
            "ratio {ratio} n {n}: {} vs {expect}", out.len()
        );
    }

    /// Linear interpolation reproduces affine signals exactly at any rate.
    #[test]
    fn resampler_affine_exact(
        ratio in 0.3f64..3.0,
        slope in -5.0f64..5.0,
        offset in -10.0f64..10.0,
    ) {
        let mut r = Resampler::new(ratio);
        let xs: Vec<f64> = (0..256).map(|i| offset + slope * i as f64).collect();
        let out = r.process_block(&xs);
        for (k, &y) in out.iter().enumerate() {
            let t = k as f64 / ratio;
            prop_assert!((y - (offset + slope * t)).abs() < 1e-6, "output {k}");
        }
    }
}
