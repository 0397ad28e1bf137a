//! Cyclic redundancy checks.
//!
//! The link uses one width: [`crc8`] guards the small per-block trailers
//! that drive instantaneous NACK feedback (8 bits of overhead per 16-byte
//! block keeps the early-abort scheme cheap) and the frame header. The
//! receiver checks each block with [`crc8`] once its trailer has arrived.
//!
//! The implementation is table-free bitwise MSB-first — frame sizes here
//! are hundreds of bytes, so table generation would cost more than it
//! saves, and the bitwise form is trivially auditable against the
//! polynomial.

/// CRC-8 (ATM HEC polynomial 0x07, init 0x00, no reflection, no final XOR).
pub fn crc8(data: &[u8]) -> u8 {
    let mut crc: u8 = 0x00;
    for &byte in data {
        crc ^= byte;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    // Standard check input: the ASCII string "123456789".
    const CHECK: &[u8] = b"123456789";

    #[test]
    fn crc8_check_value() {
        assert_eq!(crc8(CHECK), 0xF4);
    }

    #[test]
    fn crc8_detects_all_single_flips_in_block() {
        let data: Vec<u8> = (0u8..16).collect();
        let c0 = crc8(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc8(&d), c0);
            }
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc8(&[]), 0x00);
    }
}
