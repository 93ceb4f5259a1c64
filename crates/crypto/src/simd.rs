//! AVX2 kernels for ChaCha20 and Poly1305 (x86-64 only).
//!
//! Both kernels compute exactly what the scalar code in [`crate::chacha20`]
//! and [`crate::poly1305`] computes, several blocks at a time:
//!
//! - [`Avx2::chacha20_blocks8`]: eight consecutive ChaCha20 blocks per call.
//!   Each `__m256i` holds one state word of all eight blocks, so a quarter
//!   round is eight-wide; the rotations by 16 and 8 are byte shuffles
//!   (`vpshufb`), and an 8×8 transpose turns the eight states back into
//!   eight 64-byte blocks.
//! - [`Avx2::poly1305_blocks4`]: Poly1305 over 64-byte chunks in four lanes.
//!   Lane `j` absorbs blocks `j, j + 4, j + 8, …` with five 26-bit limbs per
//!   lane and multiplies by r⁴ per step; at the end the lanes are multiplied
//!   by r⁴, r³, r², r and summed, which is Horner's rule regrouped.
//!
//! The only way in is an [`Avx2`] token, which [`Avx2::detect`] returns only
//! when the CPU reports AVX2. Its methods are this crate's only `unsafe`:
//! each calls a `#[target_feature(enable = "avx2")]` function, which is sound
//! exactly when the feature is present. Inside those functions every
//! intrinsic is a safe call, and data moves in and out through integer
//! reads and lane extracts, not raw-pointer loads and stores.

use core::arch::x86_64::*;

/// Proof that this CPU supports AVX2. Only [`Avx2::detect`] builds one.
#[derive(Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, if `is_x86_feature_detected!("avx2")` holds (the answer is
    /// cached by the standard library after the first call).
    #[inline]
    pub(crate) fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// ChaCha20 keystream blocks `counter, counter + 1, …, counter + 7`
    /// (each counter wrapping independently, as the scalar stream does).
    #[inline]
    #[allow(unsafe_code)]
    pub(crate) fn chacha20_blocks8(
        self,
        key: &[u8; 32],
        counter: u32,
        nonce: &[u8; 12],
        out: &mut [u8; 512],
    ) {
        // SAFETY: `self` is an `Avx2`, which exists only after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU.
        unsafe { chacha20_blocks8(key, counter, nonce, out) }
    }

    /// Absorbs `data` (a non-empty whole number of 64-byte chunks, each
    /// 16-byte block with its 2^128 bit) into the accumulator `h`, given the
    /// powers `[r, r², r³, r⁴]`. All values are five 26-bit limbs; `h` and
    /// each power may exceed 26 bits per limb by a few bits.
    #[inline]
    #[allow(unsafe_code)]
    pub(crate) fn poly1305_blocks4(self, h: &mut [u64; 5], powers: &[[u64; 5]; 4], data: &[u8]) {
        assert!(!data.is_empty() && data.len().is_multiple_of(64), "whole 64-byte chunks only");
        // SAFETY: `self` is an `Avx2`, which exists only after
        // `is_x86_feature_detected!("avx2")` returned true on this CPU.
        unsafe { poly1305_blocks4(h, powers, data) }
    }
}

// ---------------------------------------------------------------- ChaCha20

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn le32(bytes: &[u8], i: usize) -> i32 {
    i32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"))
}

#[inline(always)]
fn le64(bytes: &[u8], i: usize) -> i64 {
    i64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
}

/// Writes the 32 bytes of `v` to `out`, little-endian lane order.
#[inline]
#[target_feature(enable = "avx2")]
fn store(v: __m256i, out: &mut [u8]) {
    out[0..8].copy_from_slice(&_mm256_extract_epi64::<0>(v).to_le_bytes());
    out[8..16].copy_from_slice(&_mm256_extract_epi64::<1>(v).to_le_bytes());
    out[16..24].copy_from_slice(&_mm256_extract_epi64::<2>(v).to_le_bytes());
    out[24..32].copy_from_slice(&_mm256_extract_epi64::<3>(v).to_le_bytes());
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
}

#[inline]
#[target_feature(enable = "avx2")]
fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
    // Byte shuffles that rotate every 32-bit word left by 16 and by 8.
    let rot16 = _mm256_setr_epi8(
        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9,
        14, 15, 12, 13,
    );
    let rot8 = _mm256_setr_epi8(
        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10,
        15, 12, 13, 14,
    );
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
    x[c] = _mm256_add_epi32(x[c], x[d]);
    x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
    x[a] = _mm256_add_epi32(x[a], x[b]);
    x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
    x[c] = _mm256_add_epi32(x[c], x[d]);
    x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
}

/// Transposes eight rows of eight 32-bit words: row `i` of the result holds
/// word `i` of every input row.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8(a: [__m256i; 8]) -> [__m256i; 8] {
    let t0 = _mm256_unpacklo_epi32(a[0], a[1]);
    let t1 = _mm256_unpackhi_epi32(a[0], a[1]);
    let t2 = _mm256_unpacklo_epi32(a[2], a[3]);
    let t3 = _mm256_unpackhi_epi32(a[2], a[3]);
    let t4 = _mm256_unpacklo_epi32(a[4], a[5]);
    let t5 = _mm256_unpackhi_epi32(a[4], a[5]);
    let t6 = _mm256_unpacklo_epi32(a[6], a[7]);
    let t7 = _mm256_unpackhi_epi32(a[6], a[7]);
    let u0 = _mm256_unpacklo_epi64(t0, t2);
    let u1 = _mm256_unpackhi_epi64(t0, t2);
    let u2 = _mm256_unpacklo_epi64(t1, t3);
    let u3 = _mm256_unpackhi_epi64(t1, t3);
    let u4 = _mm256_unpacklo_epi64(t4, t6);
    let u5 = _mm256_unpackhi_epi64(t4, t6);
    let u6 = _mm256_unpacklo_epi64(t5, t7);
    let u7 = _mm256_unpackhi_epi64(t5, t7);
    [
        _mm256_permute2x128_si256::<0x20>(u0, u4),
        _mm256_permute2x128_si256::<0x20>(u1, u5),
        _mm256_permute2x128_si256::<0x20>(u2, u6),
        _mm256_permute2x128_si256::<0x20>(u3, u7),
        _mm256_permute2x128_si256::<0x31>(u0, u4),
        _mm256_permute2x128_si256::<0x31>(u1, u5),
        _mm256_permute2x128_si256::<0x31>(u2, u6),
        _mm256_permute2x128_si256::<0x31>(u3, u7),
    ]
}

#[target_feature(enable = "avx2")]
fn chacha20_blocks8(key: &[u8; 32], counter: u32, nonce: &[u8; 12], out: &mut [u8; 512]) {
    let word = |w: u32| _mm256_set1_epi32(w as i32);
    let key_word = |i: usize| _mm256_set1_epi32(le32(key, i));
    let init = [
        word(SIGMA[0]),
        word(SIGMA[1]),
        word(SIGMA[2]),
        word(SIGMA[3]),
        key_word(0),
        key_word(1),
        key_word(2),
        key_word(3),
        key_word(4),
        key_word(5),
        key_word(6),
        key_word(7),
        _mm256_add_epi32(word(counter), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
        _mm256_set1_epi32(le32(nonce, 0)),
        _mm256_set1_epi32(le32(nonce, 1)),
        _mm256_set1_epi32(le32(nonce, 2)),
    ];
    let mut x = init;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (xi, ii) in x.iter_mut().zip(init) {
        *xi = _mm256_add_epi32(*xi, ii);
    }
    let lo = transpose8([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
    let hi = transpose8([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
    for (b, block) in out.chunks_exact_mut(64).enumerate() {
        store(lo[b], &mut block[..32]);
        store(hi[b], &mut block[32..]);
    }
}

// ---------------------------------------------------------------- Poly1305

const M26: i64 = (1 << 26) - 1;

/// One limb of four lanes, or the same value in every lane.
type Limbs = [__m256i; 5];

/// `h · r mod 2^130 − 5` in each lane, with `s[i] = 5 · r[i + 1]`, then
/// carried so every limb is back near 26 bits.
///
/// Not inlined on purpose: inlined into the loop, LLVM hoists the masking
/// of the loop-invariant `r` and `s` out of it, loses track of their zero
/// high halves, and widens every `vpmuludq` into a 64×64 multiply (46
/// `vpmuludq` per step instead of 25).
#[inline(never)]
#[target_feature(enable = "avx2")]
fn mul(h: &Limbs, r: &Limbs, s: &[__m256i; 4]) -> Limbs {
    let m = |a: __m256i, b: __m256i| _mm256_mul_epu32(a, b);
    let add = |a: __m256i, b: __m256i| _mm256_add_epi64(a, b);
    let mut d = [
        add(
            add(add(add(m(h[0], r[0]), m(h[1], s[3])), m(h[2], s[2])), m(h[3], s[1])),
            m(h[4], s[0]),
        ),
        add(
            add(add(add(m(h[0], r[1]), m(h[1], r[0])), m(h[2], s[3])), m(h[3], s[2])),
            m(h[4], s[1]),
        ),
        add(
            add(add(add(m(h[0], r[2]), m(h[1], r[1])), m(h[2], r[0])), m(h[3], s[3])),
            m(h[4], s[2]),
        ),
        add(
            add(add(add(m(h[0], r[3]), m(h[1], r[2])), m(h[2], r[1])), m(h[3], r[0])),
            m(h[4], s[3]),
        ),
        add(
            add(add(add(m(h[0], r[4]), m(h[1], r[3])), m(h[2], r[2])), m(h[3], r[1])),
            m(h[4], r[0]),
        ),
    ];
    // Two interleaved carry chains (3→4→0→1 and 0→1→2→3→4) halve the
    // dependent steps; the wrap from limb 4 into limb 0 multiplies by 5.
    let mask = _mm256_set1_epi64x(M26);
    let carry = |d: &mut Limbs, from: usize, to: usize| {
        let c = _mm256_srli_epi64::<26>(d[from]);
        d[from] = _mm256_and_si256(d[from], mask);
        let c = if to == 0 { add(c, _mm256_slli_epi64::<2>(c)) } else { c };
        d[to] = add(d[to], c);
    };
    carry(&mut d, 3, 4);
    carry(&mut d, 0, 1);
    carry(&mut d, 4, 0);
    carry(&mut d, 1, 2);
    carry(&mut d, 0, 1);
    carry(&mut d, 2, 3);
    carry(&mut d, 3, 4);
    d
}

/// Splits four consecutive 16-byte blocks into 26-bit limbs, one block per
/// lane, with each block's 2^128 bit set.
#[inline]
#[target_feature(enable = "avx2")]
fn load_blocks4(chunk: &[u8]) -> Limbs {
    let lo = _mm256_setr_epi64x(le64(chunk, 0), le64(chunk, 2), le64(chunk, 4), le64(chunk, 6));
    let hi = _mm256_setr_epi64x(le64(chunk, 1), le64(chunk, 3), le64(chunk, 5), le64(chunk, 7));
    let mask = _mm256_set1_epi64x(M26);
    [
        _mm256_and_si256(lo, mask),
        _mm256_and_si256(_mm256_srli_epi64::<26>(lo), mask),
        _mm256_and_si256(
            _mm256_or_si256(_mm256_srli_epi64::<52>(lo), _mm256_slli_epi64::<12>(hi)),
            mask,
        ),
        _mm256_and_si256(_mm256_srli_epi64::<14>(hi), mask),
        _mm256_or_si256(_mm256_srli_epi64::<40>(hi), _mm256_set1_epi64x(1 << 24)),
    ]
}

/// `(r, 5·r[1..])` as vectors with lane `j` holding `lanes[j]`.
#[inline]
#[target_feature(enable = "avx2")]
fn multiplier(lanes: [&[u64; 5]; 4]) -> (Limbs, [__m256i; 4]) {
    let limb = |i: usize, k: u64| {
        // Every limb (and five times one) fits 32 bits; saying so lets
        // `vpmuludq` take the vector as it is.
        let v = |j: usize| i64::from((lanes[j][i] * k) as u32);
        _mm256_setr_epi64x(v(0), v(1), v(2), v(3))
    };
    (
        [limb(0, 1), limb(1, 1), limb(2, 1), limb(3, 1), limb(4, 1)],
        [limb(1, 5), limb(2, 5), limb(3, 5), limb(4, 5)],
    )
}

#[target_feature(enable = "avx2")]
fn poly1305_blocks4(h: &mut [u64; 5], powers: &[[u64; 5]; 4], data: &[u8]) {
    let [r1, r2, r3, r4] = powers;
    let (step_r, step_s) = multiplier([r4, r4, r4, r4]);
    let (last_r, last_s) = multiplier([r4, r3, r2, r1]);

    // The running accumulator enters lane 0, in front of the first block.
    let mut acc = load_blocks4(&data[..64]);
    let h_in = |i: usize| _mm256_setr_epi64x(h[i] as i64, 0, 0, 0);
    for (i, a) in acc.iter_mut().enumerate() {
        *a = _mm256_add_epi64(*a, h_in(i));
    }
    for chunk in data[64..].chunks_exact(64) {
        let m = load_blocks4(chunk);
        let mut next = mul(&acc, &step_r, &step_s);
        for (n, mi) in next.iter_mut().zip(m) {
            *n = _mm256_add_epi64(*n, mi);
        }
        acc = next;
    }
    let acc = mul(&acc, &last_r, &last_s);
    for (hi, a) in h.iter_mut().zip(acc) {
        *hi = (_mm256_extract_epi64::<0>(a)
            + _mm256_extract_epi64::<1>(a)
            + _mm256_extract_epi64::<2>(a)
            + _mm256_extract_epi64::<3>(a)) as u64;
    }
}
