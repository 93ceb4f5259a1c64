//! Cryptographic substrate for the Snoopy reproduction.
//!
//! The paper's implementation uses OpenSSL inside SGX enclaves for three jobs:
//!
//! 1. **Authenticated encryption with nonces** for all client/enclave and
//!    enclave/enclave channels (§3.1) — provided here by a from-scratch
//!    ChaCha20-Poly1305 AEAD ([`aead`]), checked against the RFC 8439 vectors.
//! 2. **A keyed cryptographic hash** mapping object ids to subORAMs and hash
//!    buckets, where the adversary must not predict placements without the key
//!    (§4.1, §5) — provided by SipHash-2-4 ([`siphash`]), a keyed PRF.
//! 3. **Digests for integrity** of data stored outside the enclave (§2, §7) —
//!    provided by SHA-256 ([`sha256`]) and HMAC-SHA-256 ([`hmac`]).
//!
//! Everything is implemented in-tree (no external crypto crates are available in
//! this environment) and validated against published test vectors in the unit
//! tests of each module. None of the implementations here aim to be
//! side-channel-hardened beyond being branch-free on secret data where noted;
//! the *system-level* obliviousness Snoopy needs lives in `snoopy-obliv`.
//!
//! ChaCha20 and Poly1305 run eight and four blocks at a time on x86-64 CPUs
//! with AVX2 (the private `simd` module), and one block at a time otherwise, with identical
//! output. That dispatch is the workspace's only `unsafe` code: this crate
//! denies `unsafe_code` and allows it only on the `simd` token's calls
//! into `#[target_feature(enable = "avx2")]` functions; every other crate
//! forbids it (`tests/unsafe_ledger.rs` holds both to that).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod hmac;
pub mod poly1305;
pub mod prg;
pub mod rng;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod siphash;

pub use aead::{AeadError, AeadKey, Nonce, SealedBox};
pub use prg::Prg;
pub use sha256::Sha256;
pub use siphash::SipHash24;

/// A 256-bit symmetric key, the key type shared by the AEAD, the PRG and the
/// keyed-hash constructions in this crate.
#[derive(Clone, PartialEq, Eq)]
pub struct Key256(pub [u8; 32]);

impl Key256 {
    /// Derives a fresh key from an existing one and a domain-separation label,
    /// using HMAC-SHA-256 as a KDF. Snoopy uses this to derive the per-batch
    /// bucket-assignment key from the enclave root key (§5: "for every batch we
    /// sample a new key").
    pub fn derive(&self, label: &[u8]) -> Key256 {
        Key256(hmac::hmac_sha256(&self.0, label))
    }

    /// Generates a random key from the provided RNG.
    pub fn random<R: rng::RngCore>(rng: &mut R) -> Key256 {
        let mut k = [0u8; 32];
        rng.fill_bytes(&mut k);
        Key256(k)
    }
}

impl std::fmt::Debug for Key256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Key256(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let k = Key256([7u8; 32]);
        let a = k.derive(b"batch-0");
        let b = k.derive(b"batch-0");
        let c = k.derive(b"batch-1");
        assert_eq!(a.0, b.0);
        assert_ne!(a.0, c.0);
        assert_ne!(a.0, k.0);
    }

    #[test]
    fn debug_redacts_key_material() {
        let k = Key256([0xAB; 32]);
        let s = format!("{k:?}");
        assert!(!s.contains("AB") && !s.contains("171"));
        assert!(s.contains("redacted"));
    }

    #[test]
    fn random_keys_differ() {
        let mut rng = Prg::from_entropy();
        let a = Key256::random(&mut rng);
        let b = Key256::random(&mut rng);
        assert_ne!(a.0, b.0);
    }
}
