//! Reliable chunked streaming over the full-duplex link.
//!
//! Backscatter applications rarely send one frame; they stream sensor
//! logs. This session layer chunks a byte stream into framed segments,
//! prefixes each with a tiny stream header (sequence number + flags),
//! transfers them through a configurable ARQ protocol, and reassembles on
//! the far side with duplicate/ordering checks. The window is one segment
//! — a backscatter link is stop-and-go by nature — so the layer's value is
//! bookkeeping, not pipelining.
//!
//! Stream header (4 bytes, inside the PHY payload):
//!
//! ```text
//! [ seq: u16 BE ][ flags: u8 (bit0 = FINAL) ][ len-check: u8 = seq_lo ^ flags ^ 0xC3 ]
//! ```

use crate::early_abort::{EarlyAbortArq, EarlyAbortConfig};
use crate::report::TransferReport;
use crate::selective::{ResumeArq, ResumeArqConfig};
use fdb_core::link::LinkConfig;
use fdb_core::PhyError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Stream header length in bytes.
const HEADER_LEN: usize = 4;

/// Flag bit marking the final segment of a stream.
const FLAG_FINAL: u8 = 0x01;
/// Header check constant.
const CHECK_MAGIC: u8 = 0xC3;

/// Encodes a stream header.
fn encode_header(seq: u16, is_final: bool) -> [u8; HEADER_LEN] {
    let flags = if is_final { FLAG_FINAL } else { 0 };
    let [hi, lo] = seq.to_be_bytes();
    [hi, lo, flags, lo ^ flags ^ CHECK_MAGIC]
}

/// Decodes and validates a stream header.
fn decode_header(bytes: &[u8]) -> Option<(u16, bool)> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let seq = u16::from_be_bytes([bytes[0], bytes[1]]);
    let flags = bytes[2];
    if bytes[3] != bytes[1] ^ flags ^ CHECK_MAGIC {
        return None;
    }
    Some((seq, flags & FLAG_FINAL != 0))
}

/// Which retransmission protocol carries the segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamProtocol {
    /// Full-frame early abort.
    EarlyAbort,
    /// Early abort with resume-from-failed-block.
    Resume,
}

/// Streaming session configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Payload bytes per segment (before the 4-byte stream header).
    pub chunk_bytes: usize,
    /// Carrier protocol.
    pub protocol: StreamProtocol,
    /// Attempts per segment before the stream fails.
    pub max_attempts: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_bytes: 60,
            protocol: StreamProtocol::EarlyAbort,
            max_attempts: 16,
        }
    }
}

/// Result of streaming one byte buffer.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Whether every segment delivered and reassembled in order.
    pub complete: bool,
    /// Reassembled bytes (equals the input when `complete`).
    pub reassembled: Vec<u8>,
    /// Segments sent / delivered.
    pub segments: u32,
    /// Aggregate transfer accounting.
    pub transfer: TransferReport,
    /// Segments that arrived with corrupt stream headers (counted, dropped).
    pub bad_headers: u32,
    /// Out-of-order or duplicate segments rejected by the reassembler.
    pub sequence_errors: u32,
}

enum Carrier {
    EarlyAbort(EarlyAbortArq),
    Resume(ResumeArq),
}

/// A live streaming session over one link.
pub struct StreamSession {
    carrier: Carrier,
    cfg: StreamConfig,
    next_seq: u16,
}

impl StreamSession {
    /// Builds a session.
    pub fn new<R: Rng + ?Sized>(
        link_cfg: LinkConfig,
        cfg: StreamConfig,
        rng: &mut R,
    ) -> Result<Self, PhyError> {
        let carrier = match cfg.protocol {
            StreamProtocol::EarlyAbort => Carrier::EarlyAbort(EarlyAbortArq::new(
                link_cfg,
                EarlyAbortConfig {
                    max_attempts: cfg.max_attempts,
                    ..Default::default()
                },
                rng,
            )?),
            StreamProtocol::Resume => Carrier::Resume(ResumeArq::new(
                link_cfg,
                ResumeArqConfig {
                    max_attempts: cfg.max_attempts,
                    ..Default::default()
                },
                rng,
            )?),
        };
        Ok(StreamSession {
            carrier,
            cfg,
            next_seq: 0,
        })
    }

    fn transfer<R: Rng + ?Sized>(
        &mut self,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<TransferReport, PhyError> {
        match &mut self.carrier {
            Carrier::EarlyAbort(c) => c.transfer(payload, rng),
            Carrier::Resume(c) => c.transfer(payload, rng),
        }
    }

    /// Streams `data`, returning the reassembly report. The session's
    /// sequence numbers continue across calls (a long-lived sensor).
    pub fn send<R: Rng + ?Sized>(
        &mut self,
        data: &[u8],
        rng: &mut R,
    ) -> Result<StreamReport, PhyError> {
        let chunk = self.cfg.chunk_bytes.max(1);
        let mut report = StreamReport {
            complete: true,
            ..Default::default()
        };
        report.transfer.delivered = true;
        let n_segments = data.len().div_ceil(chunk).max(1);
        let mut expected_seq = self.next_seq;
        for (i, piece) in data.chunks(chunk).enumerate() {
            let is_final = i + 1 == n_segments;
            let mut payload = Vec::with_capacity(HEADER_LEN + piece.len());
            payload.extend_from_slice(&encode_header(self.next_seq, is_final));
            payload.extend_from_slice(piece);
            let r = self.transfer(&payload, rng)?;
            report.segments += 1;
            let delivered = r.delivered;
            report.transfer.accumulate(&r);
            self.next_seq = self.next_seq.wrapping_add(1);
            if !delivered {
                report.complete = false;
                break;
            }
            // Receiver-side reassembly on the (ground-truth) delivered
            // payload: header must validate and the sequence must advance.
            match decode_header(&payload) {
                Some((seq, _)) if seq == expected_seq => {
                    expected_seq = expected_seq.wrapping_add(1);
                    report.reassembled.extend_from_slice(piece);
                }
                Some(_) => {
                    report.sequence_errors += 1;
                    report.complete = false;
                    break;
                }
                None => {
                    report.bad_headers += 1;
                    report.complete = false;
                    break;
                }
            }
        }
        if data.is_empty() {
            report.segments = 0;
            report.complete = true;
        }
        report.complete &= report.reassembled == data;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ambient::AmbientConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn clean_cfg() -> LinkConfig {
        let mut cfg = LinkConfig::default_fd();
        cfg.ambient = AmbientConfig::Cw;
        cfg.field_noise_dbm = -160.0;
        cfg
    }

    #[test]
    fn header_roundtrip_and_validation() {
        for seq in [0u16, 1, 255, 256, u16::MAX] {
            for fin in [false, true] {
                let h = encode_header(seq, fin);
                assert_eq!(decode_header(&h), Some((seq, fin)));
            }
        }
        // Any single-byte corruption of the check/flag fields is caught.
        let mut h = encode_header(300, true);
        h[3] ^= 0x10;
        assert_eq!(decode_header(&h), None);
        let mut h = encode_header(300, true);
        h[2] ^= 0x02;
        assert_eq!(decode_header(&h), None);
        assert_eq!(decode_header(&[1, 2]), None);
    }

    #[test]
    fn clean_stream_reassembles() {
        let mut rng = ChaCha8Rng::seed_from_u64(800);
        let mut s = StreamSession::new(clean_cfg(), StreamConfig::default(), &mut rng).unwrap();
        let data: Vec<u8> = (0..200u16).map(|i| (i * 7) as u8).collect();
        let r = s.send(&data, &mut rng).unwrap();
        assert!(r.complete);
        assert_eq!(r.reassembled, data);
        assert_eq!(r.segments, 4); // 200 bytes / 60-byte chunks
        assert_eq!(r.bad_headers, 0);
    }

    #[test]
    fn sequence_continues_across_sends() {
        let mut rng = ChaCha8Rng::seed_from_u64(801);
        let mut s = StreamSession::new(clean_cfg(), StreamConfig::default(), &mut rng).unwrap();
        assert!(s.send(&[1u8; 10], &mut rng).unwrap().complete);
        assert_eq!(s.next_seq, 1);
        assert!(s.send(&[2u8; 130], &mut rng).unwrap().complete);
        assert_eq!(s.next_seq, 4);
    }

    #[test]
    fn empty_stream_is_trivially_complete() {
        let mut rng = ChaCha8Rng::seed_from_u64(802);
        let mut s = StreamSession::new(clean_cfg(), StreamConfig::default(), &mut rng).unwrap();
        let r = s.send(&[], &mut rng).unwrap();
        assert!(r.complete);
        assert_eq!(r.segments, 0);
    }

    #[test]
    fn dead_link_reports_incomplete() {
        let mut rng = ChaCha8Rng::seed_from_u64(803);
        let mut cfg = LinkConfig::default_fd();
        cfg.geometry.device_dist_m = 3.0;
        let mut s = StreamSession::new(
            cfg,
            StreamConfig {
                max_attempts: 2,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        let r = s.send(&[5u8; 100], &mut rng).unwrap();
        assert!(!r.complete);
        assert!(r.reassembled.len() < 100);
    }

    #[test]
    fn resume_carrier_streams_on_lossy_link() {
        let mut rng = ChaCha8Rng::seed_from_u64(804);
        let mut cfg = LinkConfig::default_fd();
        cfg.geometry.device_dist_m = 0.5;
        let mut s = StreamSession::new(
            cfg,
            StreamConfig {
                protocol: StreamProtocol::Resume,
                max_attempts: 24,
                chunk_bytes: 76,
            },
            &mut rng,
        )
        .unwrap();
        let data: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        let r = s.send(&data, &mut rng).unwrap();
        assert!(r.complete, "stream failed: {} segments", r.segments);
        assert_eq!(r.reassembled, data);
    }
}
