//! SipHash-2-4 — the keyed hash function `H_k(·)` of the paper.
//!
//! Snoopy needs a keyed cryptographic hash (a PRF against an attacker who does
//! not know the key) in two places:
//!
//! * the load balancer maps object ids to subORAMs with `H_k(idx) mod S`
//!   (§4.1), keeping the partition assignment unpredictable so adversarially
//!   chosen request sets still distribute like balls-into-bins;
//! * the subORAM maps batch entries to hash-table buckets with a *fresh* key
//!   per batch (§5), so bucket occupancy across batches is unlinkable.
//!
//! SipHash-2-4 is the classic short-input keyed PRF and matches the paper's
//! performance profile (the C++ implementation uses a keyed hash over 8-byte
//! ids). Validated against the reference vectors from the SipHash paper.

/// A SipHash-2-4 instance with a fixed 128-bit key.
#[derive(Clone, Copy)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

impl SipHash24 {
    /// Constructs the hash from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        SipHash24 {
            k0: u64::from_le_bytes(key[0..8].try_into().unwrap()),
            k1: u64::from_le_bytes(key[8..16].try_into().unwrap()),
        }
    }

    /// Constructs the hash from the first 16 bytes of a [`crate::Key256`].
    pub fn from_key256(key: &crate::Key256) -> Self {
        let mut k = [0u8; 16];
        k.copy_from_slice(&key.0[..16]);
        Self::new(&k)
    }

    /// Hashes an arbitrary byte string to a 64-bit value.
    pub fn hash(&self, msg: &[u8]) -> u64 {
        let mut v0 = 0x736f_6d65_7073_6575u64 ^ self.k0;
        let mut v1 = 0x646f_7261_6e64_6f6du64 ^ self.k1;
        let mut v2 = 0x6c79_6765_6e65_7261u64 ^ self.k0;
        let mut v3 = 0x7465_6462_7974_6573u64 ^ self.k1;

        let len = msg.len();
        let mut chunks = msg.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().unwrap());
            v3 ^= m;
            for _ in 0..2 {
                sipround(&mut v0, &mut v1, &mut v2, &mut v3);
            }
            v0 ^= m;
        }

        // Final block: remaining bytes plus the length in the top byte.
        let rem = chunks.remainder();
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        last[7] = len as u8;
        let m = u64::from_le_bytes(last);
        v3 ^= m;
        for _ in 0..2 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^= m;

        v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }

    /// Hashes a `u64` object id (the common case in Snoopy): exactly
    /// [`SipHash24::hash`] of `x.to_le_bytes()`, with the 8-byte message
    /// unrolled to its two compression blocks (the word itself, then the
    /// length block `8 << 56`) so it inlines into the per-object paths.
    #[inline]
    pub fn hash_u64(&self, x: u64) -> u64 {
        let mut v0 = 0x736f_6d65_7073_6575u64 ^ self.k0;
        let mut v1 = 0x646f_7261_6e64_6f6du64 ^ self.k1;
        let mut v2 = 0x6c79_6765_6e65_7261u64 ^ self.k0;
        let mut v3 = 0x7465_6462_7974_6573u64 ^ self.k1;
        for m in [x, 8 << 56] {
            v3 ^= m;
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
            v0 ^= m;
        }
        v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }

    /// Maps an object id to a bin index in `[0, bins)`.
    ///
    /// Uses the widening-multiply range reduction, which is unbiased enough for
    /// the balls-into-bins analysis (bias ≤ bins/2^64).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`. `[0, 0)` is empty, so there is no correct
    /// answer; the widening multiply would otherwise return bin 0 in release
    /// builds, silently routing every object to a subORAM that does not
    /// exist (the partition count is live configuration now that the fleet
    /// reshards, so this is reachable from config handling, not just tests).
    #[inline]
    pub fn bin_u64(&self, x: u64, bins: usize) -> usize {
        assert!(bins > 0, "bin_u64 requires at least one bin");
        (((self.hash_u64(x) as u128) * (bins as u128)) >> 64) as usize
    }
}

#[inline(always)]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference vector from the SipHash paper (Aumasson & Bernstein, Appendix A):
    /// key = 00 01 .. 0f, message = 00 01 .. 0e, output = 0xa129ca6149be45e5.
    #[test]
    fn reference_vector() {
        let mut key = [0u8; 16];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let msg: Vec<u8> = (0..15u8).collect();
        let h = SipHash24::new(&key);
        assert_eq!(h.hash(&msg), 0xa129_ca61_49be_45e5);
    }

    /// First entries of the official `vectors_64` table (messages of length 0..).
    #[test]
    fn official_vector_table_prefix() {
        let expected: [u64; 8] = [
            u64::from_le_bytes([0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]),
            u64::from_le_bytes([0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74]),
            u64::from_le_bytes([0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d]),
            u64::from_le_bytes([0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85]),
            u64::from_le_bytes([0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf]),
            u64::from_le_bytes([0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18]),
            u64::from_le_bytes([0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb]),
            u64::from_le_bytes([0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab]),
        ];
        let mut key = [0u8; 16];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let h = SipHash24::new(&key);
        for (len, want) in expected.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(h.hash(&msg), *want, "length {len}");
        }
    }

    proptest! {
        /// The unrolled 8-byte path is the general byte path on the id's
        /// little-endian bytes, for every key.
        #[test]
        fn hash_u64_matches_byte_path(key in any::<[u8; 16]>(), x in any::<u64>()) {
            let h = SipHash24::new(&key);
            prop_assert_eq!(h.hash_u64(x), h.hash(&x.to_le_bytes()));
        }
    }

    /// Pinned `(key byte, x, bins) -> bin` triples: partitions, table
    /// placement and boot layouts are functions of these, so they must not
    /// move.
    #[test]
    fn bin_u64_pinned() {
        let cases: [(u8, u64, usize, usize); 8] = [
            (0x00, 0x0, 2, 1),
            (0x01, 0x1, 3, 2),
            (0x07, 0x5, 7, 4),
            (0x09, 0xdead_beef, 16, 11),
            (0x2a, 1 << 40, 1000, 272),
            (0xff, u64::MAX, 2, 1),
            (0x03, 12_345, 65_536, 6931),
            (0x80, 0x0123_4567_89ab_cdef, 1, 0),
        ];
        for (k, x, bins, want) in cases {
            let h = SipHash24::new(&[k; 16]);
            assert_eq!(h.bin_u64(x, bins), want, "key {k}, x {x}, bins {bins}");
        }
    }

    #[test]
    fn bin_u64_in_range_and_covers() {
        let h = SipHash24::new(&[42u8; 16]);
        let bins = 7;
        let mut seen = vec![false; bins];
        for x in 0..10_000u64 {
            let b = h.bin_u64(x, bins);
            assert!(b < bins);
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bins should be hit");
    }

    /// bins = 0 must be a hard error in every build profile: the old
    /// `debug_assert!` let release builds return garbage bin 0.
    #[test]
    #[should_panic(expected = "at least one bin")]
    fn bin_u64_zero_bins_panics() {
        let h = SipHash24::new(&[42u8; 16]);
        let _ = h.bin_u64(7, 0);
    }

    #[test]
    fn bin_u64_single_bin_is_always_zero() {
        let h = SipHash24::new(&[42u8; 16]);
        for x in 0..1000u64 {
            assert_eq!(h.bin_u64(x, 1), 0);
        }
    }

    #[test]
    fn different_keys_decorrelate() {
        let h1 = SipHash24::new(&[1u8; 16]);
        let h2 = SipHash24::new(&[2u8; 16]);
        let same = (0..1000u64).filter(|&x| h1.hash_u64(x) == h2.hash_u64(x)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn balls_into_bins_is_roughly_uniform() {
        let h = SipHash24::new(&[9u8; 16]);
        let bins = 16;
        let n = 160_000u64;
        let mut counts = vec![0usize; bins];
        for x in 0..n {
            counts[h.bin_u64(x, bins)] += 1;
        }
        let mean = (n as usize) / bins;
        for c in counts {
            // 5-sigma-ish tolerance around the mean for binomial(n, 1/16).
            assert!((c as i64 - mean as i64).abs() < 800, "count {c} vs mean {mean}");
        }
    }
}
