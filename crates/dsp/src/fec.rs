//! Forward error correction: repetition codes, Hamming(7,4), interleaving.
//!
//! Backscatter links run at kilobit rates with severe energy constraints,
//! so the deployed codes are tiny: bit-repetition with majority vote (used
//! by the low-rate feedback channel, where the integrator already provides
//! most of the gain) and Hamming(7,4) for headers. A block interleaver
//! spreads burst errors from envelope-level fades across codewords.

/// Repetition encoder: each bit is emitted `n` times.
pub fn repeat_encode(bits: &[bool], n: usize) -> Vec<bool> {
    let n = n.max(1);
    let mut out = Vec::with_capacity(bits.len() * n);
    for &b in bits {
        for _ in 0..n {
            out.push(b);
        }
    }
    out
}

/// Majority-vote repetition decoder. Trailing partial groups are decoded by
/// majority over the partial group. Ties (even `n`) resolve to `true`.
pub fn repeat_decode(coded: &[bool], n: usize) -> Vec<bool> {
    let n = n.max(1);
    coded
        .chunks(n)
        .map(|chunk| {
            let ones = chunk.iter().filter(|&&b| b).count();
            2 * ones >= chunk.len()
        })
        .collect()
}

/// Encodes a 4-bit nibble into a Hamming(7,4) codeword.
///
/// Bit layout (index 0 first): `p1 p2 d1 p3 d2 d3 d4` — the classic
/// positional arrangement where parity bit `p_k` covers positions whose
/// 1-based index has bit `k` set.
pub fn hamming74_encode_nibble(nibble: u8) -> [bool; 7] {
    let d1 = nibble & 0b1000 != 0;
    let d2 = nibble & 0b0100 != 0;
    let d3 = nibble & 0b0010 != 0;
    let d4 = nibble & 0b0001 != 0;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p3 = d2 ^ d3 ^ d4;
    [p1, p2, d1, p3, d2, d3, d4]
}

/// Decodes a Hamming(7,4) codeword, correcting up to one bit error.
///
/// Returns `(nibble, corrected_position)`; `corrected_position` is
/// `Some(1-based position)` when a single-bit error was fixed.
pub fn hamming74_decode(cw: &[bool; 7]) -> (u8, Option<usize>) {
    let mut w = *cw;
    let s1 = w[0] ^ w[2] ^ w[4] ^ w[6];
    let s2 = w[1] ^ w[2] ^ w[5] ^ w[6];
    let s3 = w[3] ^ w[4] ^ w[5] ^ w[6];
    let syndrome = (s3 as usize) << 2 | (s2 as usize) << 1 | (s1 as usize);
    let corrected = if syndrome != 0 {
        w[syndrome - 1] = !w[syndrome - 1];
        Some(syndrome)
    } else {
        None
    };
    let nibble = (u8::from(w[2]) << 3) | (u8::from(w[4]) << 2) | (u8::from(w[5]) << 1) | u8::from(w[6]);
    (nibble, corrected)
}

/// Encodes a byte slice with Hamming(7,4): 14 coded bits per byte (high
/// nibble first), appended to a caller-owned buffer (the buffer is *not*
/// cleared first, so a frame assembler can chain sections).
pub fn hamming74_encode_into(data: &[u8], out: &mut Vec<bool>) {
    out.reserve(data.len() * 14);
    for &byte in data {
        out.extend_from_slice(&hamming74_encode_nibble(byte >> 4));
        out.extend_from_slice(&hamming74_encode_nibble(byte & 0x0F));
    }
}

/// Decodes a Hamming(7,4) bit stream back to bytes in a caller-owned
/// buffer: `out` is cleared and refilled (capacity retained). Returns the
/// number of corrected bit errors. Trailing bits that do not fill two full
/// codewords are ignored.
pub fn hamming74_decode_stream_into(bits: &[bool], out: &mut Vec<u8>) -> usize {
    out.clear();
    out.reserve(bits.len() / 14);
    let mut corrections = 0;
    let mut iter = bits.chunks_exact(7);
    let mut pending_high: Option<u8> = None;
    for chunk in &mut iter {
        let mut cw = [false; 7];
        cw.copy_from_slice(chunk);
        let (nibble, fixed) = hamming74_decode(&cw);
        if fixed.is_some() {
            corrections += 1;
        }
        match pending_high.take() {
            None => pending_high = Some(nibble),
            Some(high) => out.push((high << 4) | nibble),
        }
    }
    corrections
}

/// Rectangular block interleaver: writes row-wise, reads column-wise.
///
/// Depth `rows` spreads a burst of up to `rows` consecutive channel errors
/// across distinct codewords. The total length must be a multiple of `rows`
/// for perfect reconstruction; otherwise the tail is passed through
/// unpermuted.
#[derive(Debug, Clone, Copy)]
pub struct Interleaver {
    rows: usize,
}

impl Interleaver {
    /// Creates an interleaver of the given depth (clamped to ≥ 1).
    pub fn new(rows: usize) -> Self {
        Interleaver { rows: rows.max(1) }
    }

    /// Interleaves a bit slice.
    pub fn interleave(&self, bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        self.permute_into(bits, false, &mut out);
        out
    }

    /// Inverts [`Interleaver::interleave`].
    pub fn deinterleave(&self, bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        self.permute_into(bits, true, &mut out);
        out
    }

    /// [`Interleaver::interleave`] into a caller-owned buffer (cleared and
    /// refilled, capacity retained).
    pub fn interleave_into(&self, bits: &[bool], out: &mut Vec<bool>) {
        self.permute_into(bits, false, out);
    }

    /// [`Interleaver::deinterleave`] into a caller-owned buffer (cleared
    /// and refilled, capacity retained).
    pub fn deinterleave_into(&self, bits: &[bool], out: &mut Vec<bool>) {
        self.permute_into(bits, true, out);
    }

    fn permute_into(&self, bits: &[bool], inverse: bool, out: &mut Vec<bool>) {
        out.clear();
        let r = self.rows;
        if r <= 1 || bits.len() < r {
            out.extend_from_slice(bits);
            return;
        }
        let body = bits.len() - bits.len() % r;
        let cols = body / r;
        out.resize(bits.len(), false);
        for i in 0..body {
            let (row, col) = (i / cols, i % cols);
            let j = col * r + row;
            if inverse {
                out[i] = bits[j];
            } else {
                out[j] = bits[i];
            }
        }
        out[body..].copy_from_slice(&bits[body..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nib_bits(n: u8) -> [bool; 7] {
        hamming74_encode_nibble(n)
    }

    #[test]
    fn repetition_round_trip() {
        let bits: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        for n in [1, 3, 5, 7] {
            assert_eq!(repeat_decode(&repeat_encode(&bits, n), n), bits);
        }
    }

    #[test]
    fn repetition_corrects_minority_errors() {
        let bits = vec![true, false, true, true, false];
        let mut coded = repeat_encode(&bits, 5);
        // Flip 2 of each group of 5 — still decodable.
        for g in 0..bits.len() {
            coded[g * 5] = !coded[g * 5];
            coded[g * 5 + 3] = !coded[g * 5 + 3];
        }
        assert_eq!(repeat_decode(&coded, 5), bits);
    }

    #[test]
    fn hamming_all_nibbles_round_trip() {
        for n in 0u8..16 {
            let cw = nib_bits(n);
            let (out, fixed) = hamming74_decode(&cw);
            assert_eq!(out, n);
            assert!(fixed.is_none());
        }
    }

    #[test]
    fn hamming_corrects_every_single_bit_error() {
        for n in 0u8..16 {
            for pos in 0..7 {
                let mut cw = nib_bits(n);
                cw[pos] = !cw[pos];
                let (out, fixed) = hamming74_decode(&cw);
                assert_eq!(out, n, "nibble {n} pos {pos}");
                assert_eq!(fixed, Some(pos + 1));
            }
        }
    }

    #[test]
    fn hamming_min_distance_is_three() {
        // Every pair of distinct codewords differs in ≥ 3 positions.
        for a in 0u8..16 {
            for b in (a + 1)..16 {
                let ca = nib_bits(a);
                let cb = nib_bits(b);
                let d = ca.iter().zip(cb.iter()).filter(|(x, y)| x != y).count();
                assert!(d >= 3, "d({a},{b}) = {d}");
            }
        }
    }

    #[test]
    fn hamming_stream_round_trip_with_errors() {
        let data = b"instantaneous feedback".to_vec();
        let mut coded = Vec::new();
        hamming74_encode_into(&data, &mut coded);
        // One error per codeword is always correctable.
        for cw in 0..coded.len() / 7 {
            coded[cw * 7 + (cw % 7)] = !coded[cw * 7 + (cw % 7)];
        }
        let mut decoded = Vec::new();
        let corrections = hamming74_decode_stream_into(&coded, &mut decoded);
        assert_eq!(decoded, data);
        assert_eq!(corrections, data.len() * 2);
    }

    #[test]
    fn interleaver_round_trip() {
        let bits: Vec<bool> = (0..97).map(|i| (i * 7) % 11 < 5).collect();
        for rows in [1, 2, 4, 8, 16] {
            let il = Interleaver::new(rows);
            assert_eq!(il.deinterleave(&il.interleave(&bits)), bits, "rows {rows}");
        }
    }

    #[test]
    fn interleaver_spreads_bursts() {
        // A burst of `rows` consecutive errors after interleaving lands in
        // `rows` different rows after deinterleaving — i.e. gaps ≥ cols.
        let rows = 4;
        let len = 64;
        let il = Interleaver::new(rows);
        let clean = vec![false; len];
        let mut tx = il.interleave(&clean);
        for slot in tx.iter_mut().take(24).skip(20) {
            *slot = true; // burst of 4 channel errors
        }
        let rx = il.deinterleave(&tx);
        let err_pos: Vec<usize> = rx.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        assert_eq!(err_pos.len(), 4);
        for w in err_pos.windows(2) {
            assert!(w[1] - w[0] >= len / rows - 1, "burst not spread: {err_pos:?}");
        }
    }

    #[test]
    fn interleaver_short_input_passthrough() {
        let il = Interleaver::new(8);
        let bits = vec![true, false, true];
        assert_eq!(il.interleave(&bits), bits);
    }
}
