//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! All Snoopy communication — client ↔ load balancer, load balancer ↔ subORAM —
//! "is encrypted using an authenticated encryption scheme with a nonce to
//! prevent replay attacks" (§3.1). This module provides exactly that channel
//! primitive, plus [`SealedBox`], the framing used by the deployment layers.

use crate::chacha20;
use crate::poly1305::{tags_equal, Poly1305};
use crate::Key256;

/// Bytes of the Poly1305 tag that ends every sealed message.
pub const TAG_LEN: usize = 16;

/// A 96-bit AEAD nonce. Deployments derive it from `(sender id, sequence
/// number)` so that no (key, nonce) pair ever repeats and stale messages are
/// rejected by sequence-number checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nonce(pub [u8; 12]);

impl Nonce {
    /// Builds a nonce from a 4-byte channel/sender id and an 8-byte counter.
    pub fn from_parts(channel: u32, seq: u64) -> Nonce {
        let mut n = [0u8; 12];
        n[..4].copy_from_slice(&channel.to_le_bytes());
        n[4..].copy_from_slice(&seq.to_le_bytes());
        Nonce(n)
    }
}

/// Errors returned by AEAD opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// Tag verification failed: the ciphertext was corrupted or forged.
    TagMismatch,
    /// Ciphertext shorter than a tag.
    Truncated,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::TagMismatch => write!(f, "AEAD tag mismatch"),
            AeadError::Truncated => write!(f, "ciphertext shorter than tag"),
        }
    }
}

impl std::error::Error for AeadError {}

/// An AEAD key (ChaCha20-Poly1305).
///
/// ```
/// use snoopy_crypto::{Key256, aead::{AeadKey, Nonce}};
/// let key = AeadKey::new(Key256([7u8; 32]));
/// let nonce = Nonce::from_parts(/*channel*/ 1, /*sequence*/ 0);
/// let sealed = key.seal(nonce, b"header", b"batch payload");
/// assert_eq!(key.open(nonce, b"header", &sealed).unwrap(), b"batch payload");
/// // Any replayed or tampered message fails authentication:
/// assert!(key.open(Nonce::from_parts(1, 1), b"header", &sealed).is_err());
/// ```
#[derive(Clone)]
pub struct AeadKey(Key256);

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AeadKey(<redacted>)")
    }
}

/// A sealed (encrypted + authenticated) message: ciphertext || 16-byte tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBox {
    /// Ciphertext followed by the 16-byte Poly1305 tag.
    pub bytes: Vec<u8>,
}

impl AeadKey {
    /// Wraps a 256-bit key for AEAD use.
    pub fn new(key: Key256) -> AeadKey {
        AeadKey(key)
    }

    /// Encrypts and authenticates `plaintext` with `aad` as associated data.
    pub fn seal(&self, nonce: Nonce, aad: &[u8], plaintext: &[u8]) -> SealedBox {
        let mut bytes = Vec::with_capacity(plaintext.len() + TAG_LEN);
        bytes.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut bytes);
        bytes.extend_from_slice(&tag);
        SealedBox { bytes }
    }

    /// Verifies and decrypts a sealed box; returns the plaintext.
    pub fn open(&self, nonce: Nonce, aad: &[u8], sealed: &SealedBox) -> Result<Vec<u8>, AeadError> {
        let split = sealed.bytes.len().checked_sub(TAG_LEN).ok_or(AeadError::Truncated)?;
        let (ct, tag) = sealed.bytes.split_at(split);
        let mut pt = ct.to_vec();
        self.open_in_place(nonce, aad, &mut pt, tag.try_into().expect("TAG_LEN bytes"))?;
        Ok(pt)
    }

    /// Encrypts `buf` in place and returns the tag that authenticates it
    /// together with `aad`.
    pub fn seal_in_place(&self, nonce: Nonce, aad: &[u8], buf: &mut [u8]) -> [u8; TAG_LEN] {
        let head = self.head(nonce, buf.len());
        self.apply(&head, nonce, buf);
        self.tag(&head, aad, buf)
    }

    /// Checks `tag` against the ciphertext `buf` and `aad`, then decrypts
    /// `buf` in place. On failure `buf` is left as it was.
    pub fn open_in_place(
        &self,
        nonce: Nonce,
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AeadError> {
        let head = self.head(nonce, buf.len());
        check(&self.tag(&head, aad, buf), tag)?;
        self.apply(&head, nonce, buf);
        Ok(())
    }

    /// Checks `tag` against the ciphertext `ct` and `aad` without decrypting:
    /// Poly1305 only.
    pub fn verify(
        &self,
        nonce: Nonce,
        aad: &[u8],
        ct: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AeadError> {
        check(&self.tag(&self.head(nonce, 0), aad, ct), tag)
    }

    /// Keystream blocks 0..8 under `nonce`, from one wide ChaCha20 call where
    /// the CPU has one: block 0 keys Poly1305 and blocks 1..8 encrypt the
    /// first 448 bytes of a `len`-byte message. Only the blocks those need
    /// are filled.
    fn head(&self, nonce: Nonce, len: usize) -> [u8; chacha20::WIDE_BYTES] {
        let mut head = [0u8; chacha20::WIDE_BYTES];
        let need = (chacha20::BLOCK_BYTES + len).min(chacha20::WIDE_BYTES);
        chacha20::keystream(&self.0 .0, 0, &nonce.0, &mut head[..need]);
        head
    }

    /// XORs `buf` with the keystream from block 1 on: the rest of `head`,
    /// then the blocks after it.
    fn apply(&self, head: &[u8; chacha20::WIDE_BYTES], nonce: Nonce, buf: &mut [u8]) {
        let ks = &head[chacha20::BLOCK_BYTES..];
        let (front, rest) = buf.split_at_mut(buf.len().min(ks.len()));
        chacha20::xor(front, ks);
        chacha20::xor_stream(
            &self.0 .0,
            (chacha20::WIDE_BYTES / chacha20::BLOCK_BYTES) as u32,
            &nonce.0,
            rest,
        );
    }

    /// RFC 8439 §2.8: Poly1305 over pad16(aad) || pad16(ct) || len(aad) || len(ct),
    /// keyed by the first 32 bytes of keystream block 0 (the front of
    /// `head`), absorbed from the caller's buffers without copying them.
    fn tag(&self, head: &[u8; chacha20::WIDE_BYTES], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(head[..32].try_into().expect("32 bytes"));
        mac.update(aad);
        mac.pad16();
        mac.update(ct);
        mac.pad16();
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ct.len() as u64).to_le_bytes());
        mac.update(&lengths);
        mac.finalize()
    }
}

/// Constant-time tag comparison as a `Result`.
fn check(computed: &[u8; TAG_LEN], tag: &[u8; TAG_LEN]) -> Result<(), AeadError> {
    if tags_equal(computed, tag) {
        Ok(())
    } else {
        Err(AeadError::TagMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly1305::tests::oracle_poly1305;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key_bytes = hex("808182838485868788898a8b8c8d8e8f 909192939495969798999a9b9c9d9e9f");
        let mut key = [0u8; 32];
        key.copy_from_slice(&key_bytes);
        let aead = AeadKey::new(Key256(key));
        let nonce_bytes = hex("070000004041424344454647");
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let sealed = aead.seal(Nonce(nonce), &aad, plaintext);
        let expected_ct = hex("d31a8d34648e60db7b86afbc53ef7ec2 a4aded51296e08fea9e2b5a736ee62d6 \
             3dbea45e8ca9671282fafb69da92728b 1a71de0a9e060b2905d6a5b67ecd3b36 \
             92ddbd7f2d778b8c9803aee328091b58 fab324e4fad675945585808b4831d7bc \
             3ff4def08e4b7a9de576d26586cec64b 6116");
        let expected_tag = hex("1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(&sealed.bytes[..sealed.bytes.len() - 16], &expected_ct[..]);
        assert_eq!(&sealed.bytes[sealed.bytes.len() - 16..], &expected_tag[..]);

        let opened = aead.open(Nonce(nonce), &aad, &sealed).unwrap();
        assert_eq!(&opened, plaintext);
    }

    #[test]
    fn tamper_detection() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let nonce = Nonce::from_parts(1, 42);
        let mut sealed = aead.seal(nonce, b"hdr", b"secret payload");
        sealed.bytes[0] ^= 1;
        assert_eq!(aead.open(nonce, b"hdr", &sealed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let sealed = aead.seal(Nonce::from_parts(1, 1), b"", b"payload");
        assert!(aead.open(Nonce::from_parts(1, 2), b"", &sealed).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let nonce = Nonce::from_parts(0, 0);
        let sealed = aead.seal(nonce, b"aad-one", b"payload");
        assert!(aead.open(nonce, b"aad-two", &sealed).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let aead = AeadKey::new(Key256([5u8; 32]));
        let sealed = SealedBox { bytes: vec![0u8; 7] };
        assert_eq!(aead.open(Nonce::from_parts(0, 0), b"", &sealed), Err(AeadError::Truncated));
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = AeadKey::new(Key256([8u8; 32]));
        let nonce = Nonce::from_parts(3, 9);
        let sealed = aead.seal(nonce, b"meta", b"");
        assert_eq!(aead.open(nonce, b"meta", &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn seal_does_not_reallocate() {
        // `with_capacity` promises at least the requested capacity, so bound
        // it from above instead of pinning it: growing by the tag after the
        // plaintext copy would roughly double it.
        let aead = AeadKey::new(Key256([8u8; 32]));
        for len in [0, 1, 15, 16, 17, 4096] {
            let sealed = aead.seal(Nonce::from_parts(0, 0), b"", &vec![3u8; len]);
            let cap = sealed.bytes.capacity();
            assert!(cap >= len + TAG_LEN && cap <= len + TAG_LEN + 16, "len {len}: cap {cap}");
        }
    }

    #[test]
    fn failed_open_in_place_leaves_buffer() {
        let aead = AeadKey::new(Key256([9u8; 32]));
        let nonce = Nonce::from_parts(0, 7);
        let mut buf = b"block of objects".to_vec();
        let mut tag = aead.seal_in_place(nonce, b"7", &mut buf);
        tag[0] ^= 1;
        let ct = buf.clone();
        assert_eq!(aead.open_in_place(nonce, b"7", &mut buf, &tag), Err(AeadError::TagMismatch));
        assert_eq!(buf, ct);
    }

    /// RFC 8439 §2.8 composed from the scalar pieces: `xor_stream_scalar`
    /// for the ciphertext and the 26-bit oracle MAC over a materialized
    /// pad16(aad) || pad16(ct) || lengths. Nothing here takes the wide path,
    /// so the AEAD's wide path is compared against independent code.
    fn oracle_seal(key: &[u8; 32], nonce: Nonce, aad: &[u8], pt: &[u8]) -> Vec<u8> {
        let mut ct = pt.to_vec();
        chacha20::xor_stream_scalar(key, 1, &nonce.0, &mut ct);
        let otk: [u8; 32] = chacha20::block(key, 0, &nonce.0)[..32].try_into().unwrap();
        let mut mac_data = aad.to_vec();
        mac_data.resize(aad.len().next_multiple_of(16), 0);
        mac_data.extend_from_slice(&ct);
        mac_data.resize(mac_data.len().next_multiple_of(16), 0);
        mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_data.extend_from_slice(&(ct.len() as u64).to_le_bytes());
        ct.extend_from_slice(&oracle_poly1305(&otk, &mac_data));
        ct
    }

    proptest! {
        #[test]
        fn in_place_matches_boxed_and_oracle(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in prop::collection::vec(any::<u8>(), 0..40),
            pt in prop::collection::vec(any::<u8>(), 0..4097),
        ) {
            let aead = AeadKey::new(Key256(key));
            let nonce = Nonce(nonce);
            let sealed = aead.seal(nonce, &aad, &pt);
            prop_assert_eq!(&sealed.bytes, &oracle_seal(&key, nonce, &aad, &pt));

            let mut buf = pt.clone();
            let tag = aead.seal_in_place(nonce, &aad, &mut buf);
            prop_assert_eq!(&buf[..], &sealed.bytes[..pt.len()]);
            prop_assert_eq!(&tag[..], &sealed.bytes[pt.len()..]);

            prop_assert!(aead.verify(nonce, &aad, &buf, &tag).is_ok());
            aead.open_in_place(nonce, &aad, &mut buf, &tag).unwrap();
            prop_assert_eq!(&buf, &pt);
            prop_assert_eq!(aead.open(nonce, &aad, &sealed).unwrap(), pt);
        }

        #[test]
        fn any_flipped_bit_is_refused(
            key in any::<[u8; 32]>(),
            pt in prop::collection::vec(any::<u8>(), 1..300),
            at in any::<u64>(),
        ) {
            let aead = AeadKey::new(Key256(key));
            let nonce = Nonce::from_parts(0, 1);
            let mut sealed = aead.seal(nonce, b"aad", &pt);
            let bit = (at % (sealed.bytes.len() as u64 * 8)) as usize;
            sealed.bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(aead.open(nonce, b"aad", &sealed), Err(AeadError::TagMismatch));
        }
    }
}
