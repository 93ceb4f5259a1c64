//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Used by [`crate::aead`] to authenticate ciphertexts. The accumulator and
//! `r` are held in three limbs of 44, 44 and 42 bits, so each 16-byte block
//! costs nine `u64 × u64 → u128` products (the 26-bit five-limb form needs
//! 25). [`Poly1305`] absorbs input incrementally, which lets the AEAD feed
//! `aad`, the ciphertext and the length block straight from their buffers.

/// Bits 0..44 of a limb.
const M44: u64 = (1 << 44) - 1;
/// Bits 0..42 of the top limb.
const M42: u64 = (1 << 42) - 1;
/// The 2^128 bit of a full block, in the top limb (which starts at bit 88).
const HIBIT: u64 = 1 << 40;

/// An incremental Poly1305 computation under one 32-byte one-time key.
pub struct Poly1305 {
    r: [u64; 3],
    /// `20·r1` and `20·r2`: the products that wrap past 2^130 fold back as
    /// ×5, and the limb offsets add a further ×4.
    s: [u64; 2],
    pad: [u64; 2],
    h: [u64; 3],
    buf: [u8; 16],
    buf_len: usize,
}

impl Poly1305 {
    /// Starts a computation; `r` (the first 16 key bytes) is clamped per the
    /// RFC.
    pub fn new(key: &[u8; 32]) -> Poly1305 {
        let word = |i: usize| u64::from_le_bytes(key[i..i + 8].try_into().expect("8 bytes"));
        let (t0, t1) = (word(0), word(8));
        let r0 = t0 & 0xffc_0fff_ffff;
        let r1 = ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff;
        let r2 = (t1 >> 24) & 0x00f_ffff_fc0f;
        Poly1305 {
            r: [r0, r1, r2],
            s: [r1 * 20, r2 * 20],
            pad: [word(16), word(24)],
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            let full = self.buf;
            self.blocks(&full, HIBIT);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 16;
        self.blocks(&data[..whole], HIBIT);
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Zero-pads the input absorbed so far to a multiple of 16 bytes: the
    /// `pad16` of RFC 8439 §2.8.
    pub fn pad16(&mut self) {
        if self.buf_len > 0 {
            self.update(&[0u8; 16][self.buf_len..]);
        }
    }

    /// The 16-byte tag of everything absorbed.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // A short last block carries its "1" bit in the byte after the
            // message instead of at 2^128.
            self.buf[self.buf_len] = 1;
            self.buf[self.buf_len + 1..].fill(0);
            let last = self.buf;
            self.blocks(&last, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Fully carry h.
        let mut c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;
        c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;

        // g = h + -p = h - (2^130 - 5); select it, branch-free, if h ≥ p.
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= M44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= M44;
        let g2 = (h2 + c).wrapping_sub(1 << 42);
        let mask = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);

        // tag = (h + s) mod 2^128.
        let [t0, t1] = self.pad;
        h0 += t0 & M44;
        c = h0 >> 44;
        h0 &= M44;
        h1 += (((t0 >> 44) | (t1 << 20)) & M44) + c;
        c = h1 >> 44;
        h1 &= M44;
        h2 = (h2 + ((t1 >> 24) & M42) + c) & M42;

        let mut tag = [0u8; 16];
        tag[..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }

    /// h = (h + block) · r mod 2^130 − 5 for each whole 16-byte block of
    /// `data`, with `hibit` at 2^128. Inputs of [`WIDE_MIN_BYTES`] or more
    /// take the 4-lane AVX2 kernel for their whole 64-byte chunks where the
    /// CPU has it.
    fn blocks(&mut self, mut data: &[u8], hibit: u64) {
        #[cfg(target_arch = "x86_64")]
        if hibit == HIBIT && data.len() >= WIDE_MIN_BYTES {
            if let Some(avx2) = crate::simd::Avx2::detect() {
                let wide = data.len() - data.len() % 64;
                let mut h = to_26(self.h);
                avx2.poly1305_blocks4(&mut h, &self.powers(), &data[..wide]);
                self.h = from_26(h);
                data = &data[wide..];
            }
        }
        let mut h = self.h;
        for block in data.chunks_exact(16) {
            let t0 = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
            let t1 = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
            h[0] += t0 & M44;
            h[1] += ((t0 >> 44) | (t1 << 20)) & M44;
            h[2] += ((t1 >> 24) & M42) | hibit;
            h = mul(h, self.r, self.s);
        }
        self.h = h;
    }

    /// `[r, r², r³, r⁴]` in 26-bit limbs, for the 4-lane kernel.
    #[cfg(target_arch = "x86_64")]
    fn powers(&self) -> [[u64; 5]; 4] {
        let r2 = mul(self.r, self.r, self.s);
        let r3 = mul(r2, self.r, self.s);
        let r4 = mul(r3, self.r, self.s);
        [to_26(self.r), to_26(r2), to_26(r3), to_26(r4)]
    }
}

/// `h · r mod 2^130 − 5` in 44/44/42-bit limbs, with `s = [20·r1, 20·r2]`;
/// the result's limbs are carried back to (about) their widths.
#[inline(always)]
fn mul([h0, h1, h2]: [u64; 3], [r0, r1, r2]: [u64; 3], [s1, s2]: [u64; 2]) -> [u64; 3] {
    let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
    let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
    let mut d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2);
    let mut d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0);

    d1 += d0 >> 44;
    let mut h0 = d0 as u64 & M44;
    d2 += d1 >> 44;
    let h1 = d1 as u64 & M44;
    let c = (d2 >> 42) as u64;
    let h2 = d2 as u64 & M42;
    h0 += c * 5;
    [h0 & M44, h1 + (h0 >> 44), h2]
}

/// Bits 0..26 of a limb.
#[cfg(target_arch = "x86_64")]
const M26: u64 = (1 << 26) - 1;

/// The same value mod 2^130 − 5 in five 26-bit limbs. The 44/44/42 limbs
/// may run a few bits over their widths; the top 26-bit limbs may run over
/// by a bit, which the 4-lane kernel allows.
#[cfg(target_arch = "x86_64")]
fn to_26([mut a, mut b, mut c]: [u64; 3]) -> [u64; 5] {
    b += a >> 44;
    a &= M44;
    c += b >> 44;
    b &= M44;
    a += (c >> 42) * 5;
    c &= M42;
    b += a >> 44;
    a &= M44;
    [
        a & M26,
        (a >> 26) + ((b & 0xff) << 18),
        (b >> 8) & M26,
        (b >> 34) + ((c & 0xffff) << 10),
        c >> 16,
    ]
}

/// Back from five 26-bit limbs (each up to a few bits over, as the kernel
/// leaves them) to 44/44/42, carried.
#[cfg(target_arch = "x86_64")]
fn from_26(mut g: [u64; 5]) -> [u64; 3] {
    for i in 0..4 {
        g[i + 1] += g[i] >> 26;
        g[i] &= M26;
    }
    g[0] += (g[4] >> 26) * 5;
    g[4] &= M26;
    g[1] += g[0] >> 26;
    g[0] &= M26;
    let a = g[0] + ((g[1] & 0x3ffff) << 26);
    let mut b = (g[1] >> 18) + (g[2] << 8) + ((g[3] & 0x3ff) << 34);
    let mut c = (g[3] >> 10) + (g[4] << 16);
    c += b >> 44;
    b &= M44;
    [a, b, c]
}

/// Shortest input to [`Poly1305::blocks`] that the 4-lane kernel takes:
/// below it the powers of r and the lane fold cost more than the scalar
/// blocks they replace.
#[cfg(target_arch = "x86_64")]
const WIDE_MIN_BYTES: usize = 256;

/// Computes the 16-byte Poly1305 tag of `msg` under the 32-byte one-time key.
pub fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    mac.update(msg);
    mac.finalize()
}

/// Constant-time 16-byte tag comparison.
pub fn tags_equal(a: &[u8; 16], b: &[u8; 16]) -> bool {
    let mut diff = 0u8;
    for i in 0..16 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The five-26-bit-limb Poly1305 this module used before the 44/44/42
    /// form: kept as the oracle the new code is checked against.
    pub(crate) fn oracle_poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        // r is clamped per the RFC.
        let mut r = [0u8; 16];
        r.copy_from_slice(&key[..16]);
        r[3] &= 15;
        r[7] &= 15;
        r[11] &= 15;
        r[15] &= 15;
        r[4] &= 252;
        r[8] &= 252;
        r[12] &= 252;

        // Decompose r into five 26-bit limbs.
        let t0 = u32::from_le_bytes(r[0..4].try_into().unwrap()) as u64;
        let t1 = u32::from_le_bytes(r[4..8].try_into().unwrap()) as u64;
        let t2 = u32::from_le_bytes(r[8..12].try_into().unwrap()) as u64;
        let t3 = u32::from_le_bytes(r[12..16].try_into().unwrap()) as u64;
        let r0 = t0 & 0x3ff_ffff;
        let r1 = ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
        let r2 = ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
        let r3 = ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
        let r4 = (t3 >> 8) & 0x3ff_ffff;

        let s1 = r1 * 5;
        let s2 = r2 * 5;
        let s3 = r3 * 5;
        let s4 = r4 * 5;

        let (mut h0, mut h1, mut h2, mut h3, mut h4) = (0u64, 0u64, 0u64, 0u64, 0u64);

        for chunk in msg.chunks(16) {
            // Load the (possibly short) chunk with the high "1" bit appended.
            let mut block = [0u8; 17];
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()] = 1;

            let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap()) as u64;
            let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap()) as u64;
            let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap()) as u64;
            let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap()) as u64;
            let hi = block[16] as u64;

            h0 += t0 & 0x3ff_ffff;
            h1 += ((t0 >> 26) | (t1 << 6)) & 0x3ff_ffff;
            h2 += ((t1 >> 20) | (t2 << 12)) & 0x3ff_ffff;
            h3 += ((t2 >> 14) | (t3 << 18)) & 0x3ff_ffff;
            h4 += (t3 >> 8) | (hi << 24);

            // h *= r (mod 2^130 - 5), schoolbook with the 5*r folding trick.
            let d0 = (h0 as u128) * (r0 as u128)
                + (h1 as u128) * (s4 as u128)
                + (h2 as u128) * (s3 as u128)
                + (h3 as u128) * (s2 as u128)
                + (h4 as u128) * (s1 as u128);
            let d1 = (h0 as u128) * (r1 as u128)
                + (h1 as u128) * (r0 as u128)
                + (h2 as u128) * (s4 as u128)
                + (h3 as u128) * (s3 as u128)
                + (h4 as u128) * (s2 as u128);
            let d2 = (h0 as u128) * (r2 as u128)
                + (h1 as u128) * (r1 as u128)
                + (h2 as u128) * (r0 as u128)
                + (h3 as u128) * (s4 as u128)
                + (h4 as u128) * (s3 as u128);
            let d3 = (h0 as u128) * (r3 as u128)
                + (h1 as u128) * (r2 as u128)
                + (h2 as u128) * (r1 as u128)
                + (h3 as u128) * (r0 as u128)
                + (h4 as u128) * (s4 as u128);
            let d4 = (h0 as u128) * (r4 as u128)
                + (h1 as u128) * (r3 as u128)
                + (h2 as u128) * (r2 as u128)
                + (h3 as u128) * (r1 as u128)
                + (h4 as u128) * (r0 as u128);

            // Carry propagation.
            let mut c: u128;
            c = d0 >> 26;
            h0 = (d0 as u64) & 0x3ff_ffff;
            let d1 = d1 + c;
            c = d1 >> 26;
            h1 = (d1 as u64) & 0x3ff_ffff;
            let d2 = d2 + c;
            c = d2 >> 26;
            h2 = (d2 as u64) & 0x3ff_ffff;
            let d3 = d3 + c;
            c = d3 >> 26;
            h3 = (d3 as u64) & 0x3ff_ffff;
            let d4 = d4 + c;
            c = d4 >> 26;
            h4 = (d4 as u64) & 0x3ff_ffff;
            h0 += (c as u64) * 5;
            h1 += h0 >> 26;
            h0 &= 0x3ff_ffff;
        }

        // Full carry.
        let mut c;
        c = h1 >> 26;
        h1 &= 0x3ff_ffff;
        h2 += c;
        c = h2 >> 26;
        h2 &= 0x3ff_ffff;
        h3 += c;
        c = h3 >> 26;
        h3 &= 0x3ff_ffff;
        h4 += c;
        c = h4 >> 26;
        h4 &= 0x3ff_ffff;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= 0x3ff_ffff;
        h1 += c;

        // Compute h + -p = h - (2^130 - 5) and select it if non-negative.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 26;
        g0 &= 0x3ff_ffff;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 26;
        g1 &= 0x3ff_ffff;
        let mut g2 = h2.wrapping_add(c);
        c = g2 >> 26;
        g2 &= 0x3ff_ffff;
        let mut g3 = h3.wrapping_add(c);
        c = g3 >> 26;
        g3 &= 0x3ff_ffff;
        let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

        // Branch-free select: mask = all-ones if g4 did not underflow.
        let mask = (g4 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & mask);
        h3 = (h3 & !mask) | (g3 & mask);
        h4 = (h4 & !mask) | (g4 & mask);

        // Serialize h back to four little-endian u32 words.
        let f0 = (h0 | (h1 << 26)) as u32;
        let f1 = ((h1 >> 6) | (h2 << 20)) as u32;
        let f2 = ((h2 >> 12) | (h3 << 14)) as u32;
        let f3 = ((h3 >> 18) | (h4 << 8)) as u32;

        // tag = (h + s) mod 2^128
        let s0 = u32::from_le_bytes(key[16..20].try_into().unwrap());
        let s1 = u32::from_le_bytes(key[20..24].try_into().unwrap());
        let s2 = u32::from_le_bytes(key[24..28].try_into().unwrap());
        let s3 = u32::from_le_bytes(key[28..32].try_into().unwrap());

        let mut acc = (f0 as u64) + (s0 as u64);
        let o0 = acc as u32;
        acc = (acc >> 32) + (f1 as u64) + (s1 as u64);
        let o1 = acc as u32;
        acc = (acc >> 32) + (f2 as u64) + (s2 as u64);
        let o2 = acc as u32;
        acc = (acc >> 32) + (f3 as u64) + (s3 as u64);
        let o3 = acc as u32;

        let mut tag = [0u8; 16];
        tag[0..4].copy_from_slice(&o0.to_le_bytes());
        tag[4..8].copy_from_slice(&o1.to_le_bytes());
        tag[8..12].copy_from_slice(&o2.to_le_bytes());
        tag[12..16].copy_from_slice(&o3.to_le_bytes());
        tag
    }

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_tag_vector() {
        let key = hex("85d6be7857556d337f4452fe42d506a8 0103808afb0db2fd4abff6af4149f51b");
        let msg = b"Cryptographic Forum Research Group";
        let tag = poly1305(key.as_slice().try_into().unwrap(), msg);
        assert_eq!(tag.to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    /// RFC 8439 Appendix A.3 vector #1: all-zero key and message.
    #[test]
    fn rfc8439_a3_zero_vector() {
        let key = [0u8; 32];
        let msg = vec![0u8; 64];
        let tag = poly1305(&key, &msg);
        assert_eq!(tag, [0u8; 16]);
    }

    /// RFC 8439 Appendix A.3 vector #2.
    #[test]
    fn rfc8439_a3_vector2() {
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&hex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        let tag = poly1305(&key, msg);
        assert_eq!(tag.to_vec(), hex("36e5f6b5c5e06070f0efca96227a863e"));
    }

    #[test]
    fn tags_equal_is_correct() {
        let a = [1u8; 16];
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[15] ^= 1;
        assert!(!tags_equal(&a, &b));
    }

    #[test]
    fn empty_message_tag_is_s() {
        // For an empty message h stays 0, so the tag equals s.
        let mut key = [0u8; 32];
        key[0] = 0xFF; // r != 0 but no blocks are processed
        key[16..].copy_from_slice(&[0xAAu8; 16]);
        let tag = poly1305(&key, b"");
        assert_eq!(tag, [0xAAu8; 16]);
    }

    /// Every length from 0 to 1 024 bytes with an all-0xFF key and message:
    /// the inputs that drive the carry chain hardest.
    #[test]
    fn all_ones_every_length_matches_oracle() {
        let key = [0xFFu8; 32];
        let msg = [0xFFu8; 1024];
        for len in 0..=msg.len() {
            assert_eq!(
                poly1305(&key, &msg[..len]),
                oracle_poly1305(&key, &msg[..len]),
                "len {len}"
            );
        }
    }

    /// With r = 1 the accumulator is the sum of the padded blocks. An
    /// all-0xFF block (2^129 − 1 with its pad bit) plus the block
    /// 2^128 − 4 (2^129 − 4) leaves h = 2^130 − 5 = p exactly, which the
    /// final `h ≥ p` select must reduce to 0, making the tag s. One less and
    /// one more straddle the select.
    #[test]
    fn accumulator_at_p_reduces_to_zero() {
        let mut key = [0u8; 32];
        key[0] = 1;
        key[16..].copy_from_slice(&[0x5Au8; 16]);
        for low in [0xFB, 0xFC, 0xFD] {
            let mut msg = [0xFFu8; 32];
            msg[16] = low;
            let tag = poly1305(&key, &msg);
            assert_eq!(tag, oracle_poly1305(&key, &msg), "low byte {low:#x}");
            if low == 0xFC {
                assert_eq!(tag, [0x5Au8; 16]);
            }
        }
    }

    /// The 26-bit form holds the same value mod p as the 44/44/42 form it
    /// came from, including limbs a few bits over their widths.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn limb_conversions_round_trip() {
        let tag = |h: [u64; 3]| {
            let mut mac = Poly1305::new(&[0u8; 32]);
            mac.h = h;
            mac.finalize()
        };
        for h in [[0, 0, 0], [1, 2, 3], [M44, M44, M42], [M44 + 7, M44 + 1, M42 + 3]] {
            assert_eq!(tag(from_26(to_26(h))), tag(h), "{h:?}");
        }
    }

    proptest! {
        /// Up to 8 KiB, so every length class of the 4-lane path (below the
        /// crossover, whole chunks, chunks plus a scalar tail) meets the
        /// oracle.
        #[test]
        fn matches_oracle(
            key in any::<[u8; 32]>(),
            msg in prop::collection::vec(any::<u8>(), 0..8193),
            ones in 0u8..4,
        ) {
            // One case in four each: all-0xFF key, all-0xFF message, both.
            let key = if ones & 1 == 1 { [0xFFu8; 32] } else { key };
            let msg = if ones & 2 == 2 { vec![0xFFu8; msg.len()] } else { msg };
            prop_assert_eq!(poly1305(&key, &msg), oracle_poly1305(&key, &msg));
        }

        #[test]
        fn incremental_updates_match_one_shot(
            key in any::<[u8; 32]>(),
            msg in prop::collection::vec(any::<u8>(), 0..8193),
            cuts in prop::collection::vec(0usize..8193, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(msg.len())).collect();
            cuts.sort_unstable();
            let mut mac = Poly1305::new(&key);
            let mut at = 0;
            for cut in cuts.into_iter().chain([msg.len()]) {
                mac.update(&msg[at..cut]);
                at = cut;
            }
            prop_assert_eq!(mac.finalize(), oracle_poly1305(&key, &msg));
        }

        #[test]
        fn pad16_matches_zero_padding(
            key in any::<[u8; 32]>(),
            a in prop::collection::vec(any::<u8>(), 0..80),
            b in prop::collection::vec(any::<u8>(), 0..80),
        ) {
            let mut mac = Poly1305::new(&key);
            mac.update(&a);
            mac.pad16();
            mac.update(&b);
            let mut padded = a.clone();
            padded.resize(a.len().next_multiple_of(16), 0);
            padded.extend_from_slice(&b);
            prop_assert_eq!(mac.finalize(), oracle_poly1305(&key, &padded));
        }
    }
}
