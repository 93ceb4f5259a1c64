//! A deterministic pseudorandom generator built on the ChaCha20 block function.
//!
//! Enclave code in the reproduction needs randomness (batch keys, Path ORAM
//! leaf assignment, ...) that is (a) cryptographically strong in spirit and
//! (b) *reproducible* so that experiments and trace-equivalence tests are
//! deterministic given a seed. [`Prg`] implements [`crate::rng::RngCore`] so
//! it plugs into everything in the workspace.

use crate::chacha20;
use crate::rng::{CryptoRng, RngCore};
use crate::Key256;

/// A ChaCha20-based deterministic PRG.
pub struct Prg {
    key: [u8; 32],
    nonce: [u8; 12],
    counter: u32,
    buffer: [u8; chacha20::BLOCK_BYTES],
    used: usize,
}

impl Prg {
    /// Creates a PRG from a 256-bit seed key.
    pub fn new(key: &Key256) -> Prg {
        Prg {
            key: key.0,
            nonce: [0u8; 12],
            counter: 0,
            buffer: [0u8; chacha20::BLOCK_BYTES],
            used: chacha20::BLOCK_BYTES,
        }
    }

    /// Convenience: seeds the PRG from a `u64` (for tests and experiments).
    pub fn from_seed(seed: u64) -> Prg {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        Prg::new(&Key256(key))
    }

    /// Seeds a PRG from fresh entropy: 32 bytes read from `/dev/urandom`,
    /// mixed with the wall clock, the pid and a process-wide counter. Not
    /// reproducible; use where tests or daemons need fresh randomness (disk
    /// pass ids, session ids, checkpoint sequence numbers) rather than a
    /// reproducible stream. In an enclave the OS bytes would come from
    /// RDRAND / `sgx_read_rand`; the clock, pid and counter alone are all
    /// host-controlled.
    ///
    /// # Panics
    ///
    /// If `/dev/urandom` cannot be read. There is deliberately no fallback to
    /// the host-controlled inputs alone: a seed the host can replay would
    /// redraw the same pass ids, and with them the same keystream.
    pub fn from_entropy() -> Prg {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let os =
            os_entropy().expect("reading 32 bytes from /dev/urandom to seed Prg::from_entropy");
        let counter = COUNTER.fetch_add(1, Ordering::Relaxed);
        Prg::new(&entropy_seed(&os, nanos, std::process::id(), counter))
    }

    fn refill(&mut self) {
        self.buffer = chacha20::block(&self.key, self.counter, &self.nonce);
        self.counter = self.counter.checked_add(1).expect("PRG exhausted");
        self.used = 0;
    }
}

/// 32 bytes from the operating system's entropy source.
fn os_entropy() -> std::io::Result<[u8; 32]> {
    use std::io::Read;
    let mut bytes = [0u8; 32];
    std::fs::File::open("/dev/urandom")?.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// The seed [`Prg::from_entropy`] uses: SHA-256 over the OS bytes, the
/// clock, the pid and the counter.
fn entropy_seed(os: &[u8; 32], nanos: u64, pid: u32, counter: u64) -> Key256 {
    let mut seed = [0u8; 52];
    seed[..32].copy_from_slice(os);
    seed[32..40].copy_from_slice(&nanos.to_le_bytes());
    seed[40..44].copy_from_slice(&pid.to_le_bytes());
    seed[44..].copy_from_slice(&counter.to_le_bytes());
    Key256(crate::sha256::sha256(&seed))
}

impl RngCore for Prg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.used == chacha20::BLOCK_BYTES {
                self.refill();
            }
            let take = (chacha20::BLOCK_BYTES - self.used).min(dest.len() - filled);
            dest[filled..filled + take].copy_from_slice(&self.buffer[self.used..self.used + take]);
            self.used += take;
            filled += take;
        }
    }
}

impl CryptoRng for Prg {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prg::from_seed(7);
        let mut b = Prg::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prg::from_seed(1);
        let mut b = Prg::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fill_bytes_across_block_boundaries() {
        let mut a = Prg::from_seed(3);
        let mut big = vec![0u8; 200];
        a.fill_bytes(&mut big);

        let mut b = Prg::from_seed(3);
        let mut parts = vec![0u8; 200];
        let (p1, rest) = parts.split_at_mut(63);
        let (p2, p3) = rest.split_at_mut(65);
        b.fill_bytes(p1);
        b.fill_bytes(p2);
        b.fill_bytes(p3);
        assert_eq!(big, parts);
    }

    #[test]
    fn output_is_not_constant() {
        let mut a = Prg::from_seed(4);
        let first = a.next_u64();
        let any_diff = (0..32).any(|_| a.next_u64() != first);
        assert!(any_diff);
    }

    /// With the clock, pid and counter all frozen, two OS reads still give
    /// two different seeds: the host-controlled inputs alone decide nothing.
    #[test]
    fn frozen_clock_pid_and_counter_still_give_distinct_seeds() {
        let a = entropy_seed(&os_entropy().unwrap(), 42, 7, 0);
        let b = entropy_seed(&os_entropy().unwrap(), 42, 7, 0);
        assert_ne!(a.0, b.0);
        // Every input reaches the seed.
        let os = [5u8; 32];
        let base = entropy_seed(&os, 1, 1, 1).0;
        assert_ne!(base, entropy_seed(&[6u8; 32], 1, 1, 1).0);
        assert_ne!(base, entropy_seed(&os, 2, 1, 1).0);
        assert_ne!(base, entropy_seed(&os, 1, 2, 1).0);
        assert_ne!(base, entropy_seed(&os, 1, 1, 2).0);
    }

    #[test]
    fn matches_raw_chacha_keystream() {
        let key = Key256([0u8; 32]);
        let mut prg = Prg::new(&key);
        let mut out = [0u8; 64];
        prg.fill_bytes(&mut out);
        let expected = chacha20::block(&key.0, 0, &[0u8; 12]);
        assert_eq!(out, expected);
    }
}
