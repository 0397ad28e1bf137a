//! Frame format: length header + per-block CRC payload.
//!
//! The frame layout is built around the *instantaneous feedback* use case:
//! the payload is cut into small blocks, each closed by a CRC-8 trailer, so
//! the receiver knows within one block whether reception is still healthy —
//! that per-block verdict is what the feedback channel streams back while
//! the frame is still in the air.
//!
//! Layout (bit order MSB-first, before line coding; the preamble is added
//! by the transmitter, not here):
//!
//! ```text
//! [ length u16 + CRC-8, Hamming(7,4)-coded : 42 bits ]
//! [ block 0 : block_len bytes + CRC-8 ][ block 1 : … ] … [ last block (short ok) + CRC-8 ]
//! ```
//!
//! The header is Hamming-protected because nothing can be retransmitted if
//! the receiver doesn't even learn the frame length; payload blocks rely on
//! detection + feedback instead of FEC (the paper's design point: spend the
//! energy budget on retransmitting only what broke).

use crate::config::PhyConfig;
use crate::error::PhyError;
use fdb_dsp::crc::crc8;
use fdb_dsp::fec::{
    hamming74_decode_stream_into, hamming74_encode_into, Interleaver,
};
use fdb_dsp::prbs::{PrbsOrder, Scrambler};

/// Interleaver depth used when `payload_fec` is on: spreads a burst of up
/// to 7 chip errors across distinct Hamming codewords.
const FEC_INTERLEAVE_ROWS: usize = 7;

/// Scrambler seed — fixed protocol constant (both ends must agree).
const SCRAMBLE_SEED: u64 = 0x1CEB00DA;

/// Mask XORed into the header CRC. Without it, an all-zero bit stream
/// (e.g. a slicer stuck at one level) decodes as a *valid* empty frame:
/// length 0 with CRC-8(0,0) = 0. The mask makes the degenerate pattern
/// fail header validation.
const HEADER_CRC_MASK: u8 = 0x5C;

/// Header length in coded bits: (2 length bytes + 1 CRC byte) × 14.
pub const HEADER_BITS: usize = 42;

/// Maximum payload size representable by the u16 length field.
pub const MAX_PAYLOAD: usize = u16::MAX as usize;

/// Converts bytes to MSB-first bits.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    bytes_to_bits_into(bytes, &mut bits);
    bits
}

/// [`bytes_to_bits`] appending into a caller-owned buffer (not cleared, so
/// a frame assembler can chain sections without an intermediate copy).
pub fn bytes_to_bits_into(bytes: &[u8], out: &mut Vec<bool>) {
    out.reserve(bytes.len() * 8);
    for &b in bytes {
        for i in (0..8).rev() {
            out.push((b >> i) & 1 == 1);
        }
    }
}

/// Converts MSB-first bits to bytes (trailing partial byte dropped).
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() / 8);
    bits_to_bytes_into(bits, &mut out);
    out
}

/// [`bits_to_bytes`] into a caller-owned buffer (cleared and refilled,
/// capacity retained).
pub fn bits_to_bytes_into(bits: &[bool], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(bits.len() / 8);
    out.extend(
        bits.chunks_exact(8)
            .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | u8::from(b))),
    );
}

/// Number of CRC blocks a payload of `len` bytes occupies.
pub fn block_count(len: usize, block_len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(block_len)
    }
}

/// Bits on the air for one block carrying `payload_bytes` of payload
/// (+1 CRC byte), with or without FEC.
pub fn block_bits(cfg: &PhyConfig, payload_bytes: usize) -> usize {
    let raw = (payload_bytes + 1) * 8;
    if cfg.payload_fec {
        raw / 4 * 7 // Hamming(7,4): 14 coded bits per byte
    } else {
        raw
    }
}

/// Total frame length in (pre-line-code) bits for a payload of `len` bytes.
pub fn frame_bits_len(cfg: &PhyConfig, len: usize) -> usize {
    let mut bits = HEADER_BITS;
    let bl = cfg.block_len_bytes;
    let mut remaining = len;
    while remaining > 0 {
        let this = remaining.min(bl);
        bits += block_bits(cfg, this);
        remaining -= this;
    }
    bits
}

/// Post-pilot feedback bits that fit in one frame carrying `len` payload
/// bytes: the preamble plus the framed payload, less the
/// `feedback_guard_bits` epoch offset, at one feedback bit per
/// `feedback_ratio` data bits, less the pilot bits.
pub fn feedback_bits_in_frame(cfg: &PhyConfig, len: usize) -> usize {
    let bits = cfg.preamble.len() + frame_bits_len(cfg, len);
    let usable = bits.saturating_sub(cfg.feedback_guard_bits);
    (usable / cfg.feedback_ratio).saturating_sub(crate::feedback::PILOTS.len())
}

/// Reusable working buffers for [`encode_frame_into`]: per-block byte
/// staging, the Hamming-coded bit run, and its interleaved form. Owned by
/// whoever encodes frames repeatedly (the transmitter's scratch arena) so
/// steady-state encoding performs no heap allocations.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    bytes: Vec<u8>,
    coded: Vec<bool>,
    inter: Vec<bool>,
}

/// Encodes a frame body (header + blocks), excluding the preamble.
pub fn encode_frame(cfg: &PhyConfig, payload: &[u8]) -> Result<Vec<bool>, PhyError> {
    let mut scratch = EncodeScratch::default();
    let mut bits = Vec::new();
    encode_frame_into(cfg, payload, &mut scratch, &mut bits)?;
    Ok(bits)
}

/// [`encode_frame`] into a caller-owned buffer: `out` is cleared and
/// refilled (capacity retained) with bit-identical content to the owned
/// path; intermediates live in `scratch`.
pub fn encode_frame_into(
    cfg: &PhyConfig,
    payload: &[u8],
    scratch: &mut EncodeScratch,
    out: &mut Vec<bool>,
) -> Result<(), PhyError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(PhyError::PayloadTooLarge {
            got: payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    out.clear();
    out.reserve(frame_bits_len(cfg, payload.len()));
    let len = payload.len() as u16;
    let len_bytes = len.to_be_bytes();
    let hdr_crc = crc8(&len_bytes) ^ HEADER_CRC_MASK;
    hamming74_encode_into(&[len_bytes[0], len_bytes[1], hdr_crc], out);
    debug_assert_eq!(out.len(), HEADER_BITS);

    let EncodeScratch { bytes, coded, inter } = scratch;
    let interleaver = Interleaver::new(FEC_INTERLEAVE_ROWS);
    for block in payload.chunks(cfg.block_len_bytes) {
        if cfg.payload_fec {
            bytes.clear();
            bytes.extend_from_slice(block);
            bytes.push(crc8(block));
            coded.clear();
            hamming74_encode_into(bytes, coded);
            interleaver.interleave_into(coded, inter);
            out.extend_from_slice(inter);
        } else {
            bytes_to_bits_into(block, out);
            bytes_to_bits_into(&[crc8(block)], out);
        }
    }
    if cfg.scramble {
        Scrambler::new(PrbsOrder::Prbs23, SCRAMBLE_SEED).apply(&mut out[HEADER_BITS..]);
    }
    Ok(())
}

/// Per-block verdict from the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStatus {
    /// Block index within the frame.
    pub index: usize,
    /// Whether the block's CRC-8 verified.
    pub ok: bool,
}

/// Events emitted by [`FrameParser::push_bit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseEvent {
    /// The header decoded successfully; the frame will carry this many
    /// payload bytes.
    Header {
        /// Payload length in bytes.
        payload_len: usize,
    },
    /// The header failed its CRC even after Hamming correction — the frame
    /// cannot be recovered.
    HeaderInvalid,
    /// A payload block completed (CRC verdict attached).
    Block(BlockStatus),
    /// The final block completed; the frame is done. The payload bytes are
    /// available via [`FrameParser::partial_payload`] as received (blocks
    /// that failed CRC are included — the MAC decides what to do with
    /// them), and the per-block verdicts via [`FrameParser::blocks`]. The
    /// event itself carries no buffers so the hot path stays
    /// allocation-free.
    Done,
}

enum ParserState {
    Header,
    Body { payload_len: usize },
    Finished,
    Dead,
}

/// Streaming frame parser: feed decoded data bits, receive structure.
pub struct FrameParser {
    cfg: PhyConfig,
    state: ParserState,
    bits: Vec<bool>,
    descrambler: Scrambler,
    payload: Vec<u8>,
    blocks: Vec<BlockStatus>,
    /// Deinterleave scratch for the FEC block path.
    work_bits: Vec<bool>,
    /// Hamming/byte-packing output scratch for header and block decode.
    work_bytes: Vec<u8>,
}

impl FrameParser {
    /// Creates a parser for one frame.
    pub fn new(cfg: PhyConfig) -> Self {
        FrameParser {
            cfg,
            state: ParserState::Header,
            bits: Vec::with_capacity(HEADER_BITS),
            descrambler: Scrambler::new(PrbsOrder::Prbs23, SCRAMBLE_SEED),
            payload: Vec::new(),
            blocks: Vec::new(),
            work_bits: Vec::new(),
            work_bytes: Vec::new(),
        }
    }

    /// Returns the parser to its start-of-frame state without releasing any
    /// buffer capacity: observably identical to a fresh
    /// [`FrameParser::new`] with the same config, but allocation-free.
    pub fn reset(&mut self) {
        self.state = ParserState::Header;
        self.bits.clear();
        self.descrambler = Scrambler::new(PrbsOrder::Prbs23, SCRAMBLE_SEED);
        self.payload.clear();
        self.blocks.clear();
    }

    /// `true` once the frame is fully parsed or unrecoverable.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, ParserState::Finished | ParserState::Dead)
    }

    /// Number of payload bytes expected (known after the header parses).
    pub fn payload_len(&self) -> Option<usize> {
        match self.state {
            ParserState::Body { payload_len } => Some(payload_len),
            ParserState::Finished => Some(self.payload.len()),
            _ => None,
        }
    }

    /// Feeds one decoded bit; may emit a structural event.
    pub fn push_bit(&mut self, bit: bool) -> Option<ParseEvent> {
        match self.state {
            ParserState::Header => {
                self.bits.push(bit);
                if self.bits.len() < HEADER_BITS {
                    return None;
                }
                hamming74_decode_stream_into(&self.bits, &mut self.work_bytes);
                self.bits.clear();
                let bytes = &self.work_bytes;
                if bytes.len() != 3 || crc8(&bytes[..2]) ^ HEADER_CRC_MASK != bytes[2] {
                    self.state = ParserState::Dead;
                    return Some(ParseEvent::HeaderInvalid);
                }
                let payload_len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
                if payload_len == 0 {
                    self.state = ParserState::Finished;
                    return Some(ParseEvent::Done);
                }
                self.state = ParserState::Body { payload_len };
                Some(ParseEvent::Header { payload_len })
            }
            ParserState::Body { payload_len } => {
                let b = if self.cfg.scramble {
                    let mut tmp = [bit];
                    self.descrambler.apply(&mut tmp);
                    tmp[0]
                } else {
                    bit
                };
                self.bits.push(b);
                let block_index = self.blocks.len();
                let this_block_payload = self
                    .cfg
                    .block_len_bytes
                    .min(payload_len - block_index * self.cfg.block_len_bytes);
                let need = block_bits(&self.cfg, this_block_payload);
                if self.bits.len() < need {
                    return None;
                }
                if self.cfg.payload_fec {
                    Interleaver::new(FEC_INTERLEAVE_ROWS)
                        .deinterleave_into(&self.bits, &mut self.work_bits);
                    hamming74_decode_stream_into(&self.work_bits, &mut self.work_bytes);
                } else {
                    bits_to_bytes_into(&self.bits, &mut self.work_bytes);
                }
                self.bits.clear();
                let (data, crc_byte) = self.work_bytes.split_at(this_block_payload);
                let ok = crc8(data) == crc_byte[0];
                let status = BlockStatus {
                    index: block_index,
                    ok,
                };
                self.payload.extend_from_slice(data);
                self.blocks.push(status);
                if self.payload.len() >= payload_len {
                    self.state = ParserState::Finished;
                    Some(ParseEvent::Done)
                } else {
                    Some(ParseEvent::Block(status))
                }
            }
            ParserState::Finished | ParserState::Dead => None,
        }
    }

    /// `true` if every completed block so far verified.
    pub fn all_blocks_ok(&self) -> bool {
        self.blocks.iter().all(|b| b.ok)
    }

    /// Per-block verdicts so far.
    pub fn blocks(&self) -> &[BlockStatus] {
        &self.blocks
    }

    /// Payload bytes of all *completed* blocks so far — available even when
    /// the frame never finishes (the transmitter aborted mid-air). Partial
    /// retransmission protocols build on this.
    pub fn partial_payload(&self) -> &[u8] {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PhyConfig {
        PhyConfig::default_fd()
    }

    fn run_parser(cfg: &PhyConfig, bits: &[bool]) -> (Vec<ParseEvent>, FrameParser) {
        let mut p = FrameParser::new(cfg.clone());
        let mut evs = Vec::new();
        for &b in bits {
            if let Some(e) = p.push_bit(b) {
                evs.push(e);
            }
        }
        (evs, p)
    }

    #[test]
    fn round_trip_clean() {
        let cfg = cfg();
        let payload: Vec<u8> = (0..40u8).collect();
        let bits = encode_frame(&cfg, &payload).unwrap();
        assert_eq!(bits.len(), frame_bits_len(&cfg, payload.len()));
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert_eq!(p.partial_payload(), &payload);
        assert_eq!(p.blocks().len(), 3); // 16+16+8
        assert!(p.all_blocks_ok());
    }

    #[test]
    fn empty_payload_frame() {
        let cfg = cfg();
        let bits = encode_frame(&cfg, &[]).unwrap();
        assert_eq!(bits.len(), HEADER_BITS);
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert!(p.partial_payload().is_empty());
        assert!(p.blocks().is_empty());
    }

    #[test]
    fn block_error_is_localised() {
        let cfg = cfg();
        let payload: Vec<u8> = (0..48u8).collect(); // 3 full blocks
        let mut bits = encode_frame(&cfg, &payload).unwrap();
        // Corrupt one bit inside block 1 (after header + block0).
        let pos = HEADER_BITS + (16 + 1) * 8 + 5;
        bits[pos] = !bits[pos];
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert!(p.blocks()[0].ok);
        assert!(!p.blocks()[1].ok);
        assert!(p.blocks()[2].ok);
    }

    #[test]
    fn header_survives_single_bit_error() {
        let cfg = cfg();
        let payload = vec![7u8; 5];
        for pos in 0..HEADER_BITS {
            let mut bits = encode_frame(&cfg, &payload).unwrap();
            bits[pos] = !bits[pos];
            let (evs, p) = run_parser(&cfg, &bits);
            assert!(
                matches!(evs.last().unwrap(), ParseEvent::Done)
                    && p.partial_payload() == payload,
                "failed at header bit {pos}"
            );
        }
    }

    #[test]
    fn shredded_header_reports_invalid() {
        let cfg = cfg();
        let mut bits = encode_frame(&cfg, &[1, 2, 3]).unwrap();
        // Many errors defeat Hamming; header CRC must catch it.
        for pos in (0..HEADER_BITS).step_by(2) {
            bits[pos] = !bits[pos];
        }
        let (evs, _) = run_parser(&cfg, &bits);
        assert!(evs.iter().any(|e| matches!(e, ParseEvent::HeaderInvalid)));
    }

    #[test]
    fn scrambling_round_trips_and_changes_bits() {
        let mut c1 = cfg();
        c1.scramble = true;
        let mut c2 = cfg();
        c2.scramble = false;
        let payload = vec![0u8; 32]; // pathological all-zero
        let b1 = encode_frame(&c1, &payload).unwrap();
        let b2 = encode_frame(&c2, &payload).unwrap();
        assert_ne!(b1, b2);
        // Scrambled body should not be constant.
        let body = &b1[HEADER_BITS..];
        assert!(body.iter().any(|&b| b) && body.iter().any(|&b| !b));
        // And still decode.
        let (evs, p) = run_parser(&c1, &b1);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert_eq!(p.partial_payload(), &payload);
    }

    #[test]
    fn partial_last_block() {
        let cfg = cfg();
        let payload: Vec<u8> = (0..20u8).collect(); // 16 + 4
        let bits = encode_frame(&cfg, &payload).unwrap();
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert_eq!(p.partial_payload(), &payload);
        assert_eq!(p.blocks().len(), 2);
    }

    #[test]
    fn reset_matches_fresh_parser() {
        // A reset parser must be observably identical to a new one — same
        // events, same payload/blocks — across consecutive frames of
        // different sizes, with and without scrambling/FEC.
        for (scramble, fec) in [(false, false), (true, false), (true, true)] {
            let mut c = cfg();
            c.scramble = scramble;
            c.payload_fec = fec;
            let mut reused = FrameParser::new(c.clone());
            for len in [40usize, 5, 0, 33] {
                let payload: Vec<u8> = (0..len as u16).map(|i| (i * 7) as u8).collect();
                let bits = encode_frame(&c, &payload).unwrap();
                reused.reset();
                let mut reused_evs = Vec::new();
                for &b in &bits {
                    if let Some(e) = reused.push_bit(b) {
                        reused_evs.push(e);
                    }
                }
                let (fresh_evs, fresh) = run_parser(&c, &bits);
                assert_eq!(reused_evs, fresh_evs, "len {len}");
                assert_eq!(reused.partial_payload(), fresh.partial_payload());
                assert_eq!(reused.blocks(), fresh.blocks());
            }
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let cfg = cfg();
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            encode_frame(&cfg, &payload),
            Err(PhyError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn bits_bytes_round_trip() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn block_count_arithmetic() {
        assert_eq!(block_count(0, 16), 0);
        assert_eq!(block_count(1, 16), 1);
        assert_eq!(block_count(16, 16), 1);
        assert_eq!(block_count(17, 16), 2);
        assert_eq!(block_count(48, 16), 3);
    }

    #[test]
    fn fec_round_trip_clean() {
        let mut cfg = cfg();
        cfg.payload_fec = true;
        let payload: Vec<u8> = (0..40u8).collect();
        let bits = encode_frame(&cfg, &payload).unwrap();
        assert_eq!(bits.len(), frame_bits_len(&cfg, payload.len()));
        // 1.75x the uncoded body length.
        let mut plain = cfg.clone();
        plain.payload_fec = false;
        let plain_bits = frame_bits_len(&plain, payload.len()) - HEADER_BITS;
        assert_eq!(bits.len() - HEADER_BITS, plain_bits / 4 * 7);
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert_eq!(p.partial_payload(), &payload);
        assert!(p.all_blocks_ok());
    }

    #[test]
    fn fec_corrects_scattered_bit_errors() {
        let mut cfg = cfg();
        cfg.payload_fec = true;
        let payload: Vec<u8> = (0..32u8).collect(); // 2 blocks
        let mut bits = encode_frame(&cfg, &payload).unwrap();
        // One error every 40 coded bits across the whole body: far more
        // than CRC-only frames survive, but at most one per codeword after
        // deinterleaving.
        let body_start = HEADER_BITS;
        let mut pos = body_start + 3;
        while pos < bits.len() {
            bits[pos] = !bits[pos];
            pos += 40;
        }
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert_eq!(p.partial_payload(), &payload, "FEC failed to correct");
        assert!(p.all_blocks_ok());
    }

    #[test]
    fn fec_corrects_a_short_burst() {
        let mut cfg = cfg();
        cfg.payload_fec = true;
        let payload: Vec<u8> = (0..16u8).collect(); // 1 block
        let mut bits = encode_frame(&cfg, &payload).unwrap();
        // A 5-bit burst inside the block: the depth-7 interleaver spreads
        // it across distinct codewords.
        for b in bits.iter_mut().skip(HEADER_BITS + 60).take(5) {
            *b = !*b;
        }
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(
            matches!(evs.last().unwrap(), ParseEvent::Done) && p.partial_payload() == payload,
            "burst not corrected"
        );
    }

    #[test]
    fn fec_overwhelmed_fails_the_block_crc() {
        let mut cfg = cfg();
        cfg.payload_fec = true;
        let payload: Vec<u8> = (0..16u8).collect();
        let mut bits = encode_frame(&cfg, &payload).unwrap();
        // Dense corruption defeats Hamming; the CRC must still catch it.
        for b in bits.iter_mut().skip(HEADER_BITS + 10).take(60) {
            *b = !*b;
        }
        let (evs, p) = run_parser(&cfg, &bits);
        assert!(matches!(evs.last().unwrap(), ParseEvent::Done));
        assert!(!p.blocks()[0].ok);
    }
}
