//! Cyclic redundancy checks.
//!
//! The link uses one width: [`crc8`] guards the small per-block trailers
//! that drive instantaneous NACK feedback (8 bits of overhead per 16-byte
//! block keeps the early-abort scheme cheap) and the frame header. The
//! receiver checks each block with [`crc8`] once its trailer has arrived.
//! CRC-16/CCITT and CRC-32 are the wider checks a frame- or packet-level
//! integrity check would use; `fdb-bench` times them against CRC-8.
//!
//! Implementations are table-free bitwise MSB-first — frame sizes here are
//! hundreds of bytes, so table generation would cost more than it saves,
//! and the bitwise form is trivially auditable against the polynomial.

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

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no final XOR).
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// CRC-32 (IEEE 802.3: poly 0x04C11DB7 reflected = 0xEDB88320, init
/// 0xFFFFFFFF, reflected I/O, final XOR 0xFFFFFFFF).
pub fn crc32_ieee(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    // Standard check value for all three: the ASCII string "123456789".
    const CHECK: &[u8] = b"123456789";

    #[test]
    fn crc8_check_value() {
        assert_eq!(crc8(CHECK), 0xF4);
    }

    #[test]
    fn crc16_ccitt_check_value() {
        assert_eq!(crc16_ccitt(CHECK), 0x29B1);
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32_ieee(CHECK), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"full duplex backscatter".to_vec();
        let c0 = crc16_ccitt(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[byte] ^= 1 << bit;
                assert_ne!(crc16_ccitt(&d), c0, "missed flip at {byte}:{bit}");
            }
        }
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
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
        assert_eq!(crc32_ieee(&[]), 0x0000_0000);
    }
}
