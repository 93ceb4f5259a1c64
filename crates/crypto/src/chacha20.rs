//! The ChaCha20 stream cipher (RFC 8439 §2).
//!
//! ChaCha20 underlies both the AEAD channel encryption ([`crate::aead`]) and
//! the deterministic PRG ([`crate::prg`]) used to simulate enclave-internal
//! randomness reproducibly.

/// The ChaCha20 block function operates on sixteen 32-bit words.
const STATE_WORDS: usize = 16;
/// "expand 32-byte k" — the RFC 8439 constants.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Size in bytes of one ChaCha20 keystream block.
pub const BLOCK_BYTES: usize = 64;

#[inline(always)]
fn quarter_round(state: &mut [u32; STATE_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block for `(key, counter, nonce)`.
pub fn block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; BLOCK_BYTES] {
    let mut state = [0u32; STATE_WORDS];
    state[..4].copy_from_slice(&CONSTANTS);
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
    }

    let mut working = state;
    for _ in 0..10 {
        // column rounds
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // diagonal rounds
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_BYTES];
    for i in 0..STATE_WORDS {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Bytes of keystream one wide call produces: eight blocks.
pub(crate) const WIDE_BYTES: usize = 8 * BLOCK_BYTES;

/// Encrypts or decrypts `data` in place (ChaCha20 is its own inverse) with the
/// keystream starting at block `initial_counter`: eight blocks per call on a
/// CPU with AVX2, one scalar block at a time otherwise, with the same
/// output.
pub fn xor_stream(key: &[u8; 32], initial_counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if data.len() > BLOCK_BYTES {
        if let Some(avx2) = crate::simd::Avx2::detect() {
            let mut ks = [0u8; WIDE_BYTES];
            for (i, chunk) in data.chunks_mut(WIDE_BYTES).enumerate() {
                let counter = initial_counter.wrapping_add((i as u32).wrapping_mul(8));
                avx2.chacha20_blocks8(key, counter, nonce, &mut ks);
                xor(chunk, &ks);
            }
            return;
        }
    }
    xor_stream_scalar(key, initial_counter, nonce, data);
}

/// [`xor_stream`] one scalar block at a time: the fallback without AVX2, and
/// the oracle the wide path is tested against.
pub(crate) fn xor_stream_scalar(
    key: &[u8; 32],
    initial_counter: u32,
    nonce: &[u8; 12],
    data: &mut [u8],
) {
    for (block_idx, chunk) in data.chunks_mut(BLOCK_BYTES).enumerate() {
        let counter = initial_counter.wrapping_add(block_idx as u32);
        xor(chunk, &block(key, counter, nonce));
    }
}

/// Writes the keystream from block `counter` on over `out`, which holds at
/// most [`WIDE_BYTES`]: one wide call if it spans more than one block and the
/// CPU has AVX2, otherwise only the blocks it needs, one scalar block at a
/// time.
pub(crate) fn keystream(key: &[u8; 32], counter: u32, nonce: &[u8; 12], out: &mut [u8]) {
    assert!(out.len() <= WIDE_BYTES, "one wide call at most");
    #[cfg(target_arch = "x86_64")]
    if out.len() > BLOCK_BYTES {
        if let Some(avx2) = crate::simd::Avx2::detect() {
            let mut ks = [0u8; WIDE_BYTES];
            avx2.chacha20_blocks8(key, counter, nonce, &mut ks);
            out.copy_from_slice(&ks[..out.len()]);
            return;
        }
    }
    for (i, chunk) in out.chunks_mut(BLOCK_BYTES).enumerate() {
        chunk.copy_from_slice(&block(key, counter.wrapping_add(i as u32), nonce)[..chunk.len()]);
    }
}

/// `data ^= ks`, over the shorter of the two.
#[inline]
pub(crate) fn xor(data: &mut [u8], ks: &[u8]) {
    for (byte, k) in data.iter_mut().zip(ks) {
        *byte ^= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = hex("000000090000004a00000000");
        let out = block(&key, 1, nonce.as_slice().try_into().unwrap());
        let expected = hex("10f1e7e4d13b5915500fdd1fa32071c4 c7d1f4c733c068030422aa9ac3d46c4e \
             d2826446079faa0914c2d705d98b02a2 b5129cd1de164eb9cbd083e8a2503c4e");
        assert_eq!(out.to_vec(), expected);
    }

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = hex("000000000000004a00000000");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        xor_stream(&key, 1, nonce.as_slice().try_into().unwrap(), &mut data);
        let expected = hex("6e2e359a2568f98041ba0728dd0d6981 e97e7aec1d4360c20a27afccfd9fae0b \
             f91b65c5524733ab8f593dabcd62b357 1639d624e65152ab8f530c359f0861d8 \
             07ca0dbf500d6a6156a38e088a22b65e 52bc514d16ccf806818ce91ab7793736 \
             5af90bbf74a35be6b40b8eedf2785e42 874d");
        assert_eq!(data, expected);
        // round-trip
        xor_stream(&key, 1, nonce.as_slice().try_into().unwrap(), &mut data);
        assert_eq!(&data, plaintext);
    }

    /// RFC 8439 Appendix A.2 test vector #2: 375 bytes from counter 1, so
    /// the wide path covers whole eight-block calls and a short tail.
    #[test]
    fn rfc8439_a2_vector2() {
        let mut key = [0u8; 32];
        key[31] = 1;
        let nonce = hex("000000000000000000000002");
        let plaintext = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        assert_eq!(plaintext.len(), 375);
        let expected = hex("a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec \
             2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d \
             4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950 \
             42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a \
             d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d \
             c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b \
             0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c \
             cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b \
             c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f \
             5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6 \
             98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab \
             7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221");
        let nonce: &[u8; 12] = nonce.as_slice().try_into().unwrap();
        for xor in [xor_stream, xor_stream_scalar] {
            let mut data = plaintext.to_vec();
            xor(&key, 1, nonce, &mut data);
            assert_eq!(data, expected);
        }
    }

    proptest! {
        /// The dispatching stream (eight blocks per call where the CPU has
        /// AVX2) against the scalar one, including counters whose eight lanes
        /// wrap past `u32::MAX`.
        #[test]
        fn xor_stream_matches_scalar(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            data in prop::collection::vec(any::<u8>(), 0..8193),
            counter in any::<u32>(),
            near_wrap in 0u32..16,
            wrap in any::<bool>(),
        ) {
            // Half the cases start in the last 16 blocks before the wrap.
            let counter = if wrap { u32::MAX - near_wrap } else { counter };
            let mut wide = data.clone();
            xor_stream(&key, counter, &nonce, &mut wide);
            let mut scalar = data;
            xor_stream_scalar(&key, counter, &nonce, &mut scalar);
            prop_assert_eq!(wide, scalar);
        }

        #[test]
        fn keystream_matches_blocks(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            len in 0usize..WIDE_BYTES + 1,
            counter in any::<u32>(),
            near_wrap in 0u32..8,
            wrap in any::<bool>(),
        ) {
            let counter = if wrap { u32::MAX - near_wrap } else { counter };
            let mut out = vec![0u8; len];
            keystream(&key, counter, &nonce, &mut out);
            let mut expected = vec![0u8; len];
            xor_stream_scalar(&key, counter, &nonce, &mut expected);
            prop_assert_eq!(out, expected);
        }
    }

    #[test]
    fn distinct_counters_give_distinct_blocks() {
        let key = [3u8; 32];
        let nonce = [9u8; 12];
        assert_ne!(block(&key, 0, &nonce), block(&key, 1, &nonce));
    }

    #[test]
    fn xor_stream_empty_is_noop() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data: Vec<u8> = vec![];
        xor_stream(&key, 0, &nonce, &mut data);
        assert!(data.is_empty());
    }
}
