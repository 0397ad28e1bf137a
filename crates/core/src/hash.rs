//! Stable content addressing for deterministic job results.
//!
//! The determinism work across the workspace (seed lineage in [`crate::seed`],
//! fault streams isolated from the link RNG, rate-stable session rebuilds)
//! means identical `(PhyConfig, JobSpec, seed)` tuples produce byte-exact
//! results. This module turns that property into an *address*: a stable
//! 128-bit hash of the job's canonical JSON form, used by the job service's
//! result cache so a repeated job is a disk read, not a recompute.
//!
//! ## Canonicalization rules
//!
//! * The canonical form of a serde value is its **compact JSON** rendering
//!   through the workspace writer ([`serde_json::to_string`]): struct
//!   fields in declaration order, floats in shortest-round-trip form,
//!   no whitespace.
//! * The hash input is `"<domain>:<canonical json>"` — every address space
//!   (jobs, cache envelopes) carries a versioned domain prefix so a format
//!   bump changes every address instead of silently aliasing old entries.
//! * The input is streamed: [`ContentHash::of_canonical`] feeds the
//!   writer's output to both lanes as it is written
//!   ([`serde::Serialize::write_json`]), so the hashed bytes are exactly
//!   [`canonical_json`]'s, and no string of them is ever built. Hashing a
//!   large value (a city report's per-tag ledgers) takes no memory that
//!   grows with it.
//! * The hash itself is two independently-keyed FNV-1a/splitmix64 lanes
//!   concatenated to 128 bits, rendered as 32 lowercase hex digits.
//!
//! These rules are deliberately *fragile* against serde reshapes: renaming
//! or reordering a field changes the canonical form and therefore every
//! address derived from it. The golden hash-stability vectors in
//! `tests/job_hash.rs` exist to turn that fragility into a CI failure
//! rather than a silently cold (or worse, silently wrong) cache.

use serde::Serialize;
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Offset basis of the second lane: the standard basis perturbed by a
/// fixed salt, so the lanes are independent functions of the input.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15;

/// One FNV-1a step: fold byte `b` into state `h`.
fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Plain FNV-1a 64-bit hash (standard offset basis).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a_step(h, b))
}

/// Both FNV-1a lanes of a [`ContentHash`], fed as text is written.
struct Lanes {
    lo: u64,
    hi: u64,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET_HI,
        }
    }

    /// One FNV-1a step per byte on each lane, interleaved so the two
    /// multiply chains overlap.
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = fnv1a_step(self.lo, b);
            self.hi = fnv1a_step(self.hi, b);
        }
    }

    /// Each lane through a splitmix64 finalizer, concatenated big-endian.
    fn finish(self) -> ContentHash {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&mix64(self.hi).to_be_bytes());
        out[8..].copy_from_slice(&mix64(self.lo).to_be_bytes());
        ContentHash(out)
    }
}

impl fmt::Write for Lanes {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// splitmix64 finalizer — the same mix [`crate::seed::derive_seed`] uses,
/// applied here to decorrelate the two FNV lanes.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 128-bit content address, displayed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub [u8; 16]);

impl ContentHash {
    /// Hashes raw bytes: two FNV-1a lanes with distinct bases, each passed
    /// through a splitmix64 finalizer, concatenated big-endian.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut lanes = Lanes::new();
        lanes.feed(bytes);
        lanes.finish()
    }

    /// Hashes a serde value under a versioned domain prefix (see module
    /// docs for the canonicalization rules): [`of_bytes`] of
    /// `"<domain>:<canonical json>"`, with the JSON streamed into the
    /// lanes rather than built.
    ///
    /// [`of_bytes`]: ContentHash::of_bytes
    pub fn of_canonical<T: Serialize + ?Sized>(domain: &str, value: &T) -> Self {
        let mut lanes = Lanes::new();
        lanes.feed(domain.as_bytes());
        lanes.feed(b":");
        value
            .write_json(&mut lanes)
            .expect("hashing lanes accept every write");
        lanes.finish()
    }

    /// Lowercase-hex rendering (32 digits) — the on-disk file stem the
    /// cache store uses.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses the 32-hex-digit rendering back.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).ok()?;
            out[i] = u8::from_str_radix(hex, 16).ok()?;
        }
        Some(ContentHash(out))
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The canonical JSON form of a serde value: compact rendering through the
/// workspace writer. Struct fields appear in declaration order and floats
/// use shortest-round-trip formatting, so the output is a pure function of
/// the value *and* the type's serde shape.
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("canonical serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_round_trips() {
        let h = ContentHash::of_bytes(b"hello");
        let hex = h.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(ContentHash::from_hex(&hex), Some(h));
        assert_eq!(ContentHash::from_hex("zz"), None);
        assert_eq!(ContentHash::from_hex(&hex[..30]), None);
    }

    #[test]
    fn lanes_are_independent() {
        // If both halves were the same function the address space would be
        // 64-bit; check the halves differ on ordinary inputs.
        for input in [&b"abc"[..], b"", b"full duplex backscatter"] {
            let h = ContentHash::of_bytes(input);
            assert_ne!(h.0[..8], h.0[8..], "lanes collide on {input:?}");
        }
    }

    #[test]
    fn domain_prefix_separates_address_spaces() {
        let a = ContentHash::of_canonical("fdb-job-v1", &42u64);
        let b = ContentHash::of_canonical("fdb-other-v1", &42u64);
        assert_ne!(a, b);
    }

    #[test]
    fn adjacent_inputs_disperse() {
        let hashes: std::collections::HashSet<_> =
            (0..10_000u64).map(|i| ContentHash::of_canonical("t", &i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn streamed_hash_equals_hash_of_the_canonical_bytes() {
        let value = (vec![1.5f64, -0.0, f64::NAN], "tab\there", Some(u64::MAX));
        let text = format!("dom:{}", canonical_json(&value));
        assert_eq!(
            ContentHash::of_canonical("dom", &value),
            ContentHash::of_bytes(text.as_bytes())
        );
    }

    #[test]
    fn canonical_json_is_compact_and_ordered() {
        #[derive(serde::Serialize)]
        struct S {
            b: u32,
            a: u32,
        }
        // Declaration order, not alphabetical; no whitespace.
        assert_eq!(canonical_json(&S { b: 1, a: 2 }), "{\"b\":1,\"a\":2}");
    }
}
