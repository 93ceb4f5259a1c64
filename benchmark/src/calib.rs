//! The calibration row: fixed loops run at the start and at the end of every
//! run. A code change in the repo's hot paths must not move them, so they
//! let runs on different machines compare as ratios, and a row that moves by
//! more than a tenth within one run marks that run `noisy`.

use snoopy_crypto::aead::{AeadKey, Nonce};
use snoopy_crypto::Key256;
use snoopy_plaintext::PlaintextStore;
use std::hint::black_box;
use std::time::Instant;

/// A calibration row may move this much between the start and the end of a
/// run before the run is marked noisy.
pub const NOISY_ABOVE: f64 = 0.10;

/// One reading of the four fixed loops.
#[derive(Clone, Copy, Debug)]
pub struct Calib {
    /// Large-buffer copy bandwidth.
    pub memcpy_gb_s: f64,
    /// In-tree ChaCha20-Poly1305 sealing 1 MiB buffers.
    pub aead_raw_mb_s: f64,
    /// One plaintext pass over 2^15 objects of 160 B.
    pub plaintext_scan_ns_per_obj: f64,
    /// One step of a dependent integer chain.
    pub spin_ns: f64,
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    // The minimum, not the median: these loops calibrate the machine, and the
    // fastest repetition is the one least disturbed by neighbours.
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One pass over a `PlaintextStore` of `objects` values of `value_len` bytes
/// that reads every byte: nanoseconds per object. The calibration row runs it
/// at a fixed shape; the layer walk runs it at a partition's shape, as the
/// floor under the oblivious scan.
pub fn plaintext_scan_ns_per_obj(objects: u64, value_len: usize) -> f64 {
    let mut store = PlaintextStore::new(1);
    for id in 0..objects {
        store.set(id, vec![id as u8; value_len]);
    }
    let pass_ns = best_of(4, || {
        let mut acc = 0u64;
        for id in 0..objects {
            if let Some(v) = store.get(id) {
                acc = acc.wrapping_add(v.iter().map(|&b| u64::from(b)).sum::<u64>());
            }
        }
        black_box(acc);
    });
    pass_ns / objects as f64
}

impl Calib {
    /// Runs the loops (about a fifth of a second).
    pub fn measure() -> Calib {
        let src = vec![0x5Au8; 32 << 20];
        let mut dst = vec![0u8; 32 << 20];
        let copy_ns = best_of(4, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        });

        let key = AeadKey::new(Key256([7u8; 32]));
        let plain = vec![0xC3u8; 1 << 20];
        let seal_ns = best_of(4, || {
            black_box(key.seal(Nonce::from_parts(9, 9), b"calib", black_box(&plain)));
        });

        let scan_ns_per_obj = plaintext_scan_ns_per_obj(1 << 15, 160);

        let steps = 10_000_000u64;
        let spin_ns = best_of(3, || {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..steps {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
        });

        Calib {
            memcpy_gb_s: src.len() as f64 / copy_ns,
            aead_raw_mb_s: plain.len() as f64 / seal_ns * 1e3,
            plaintext_scan_ns_per_obj: scan_ns_per_obj,
            spin_ns: spin_ns / steps as f64,
        }
    }

    /// The rows, by metric name.
    pub fn rows(&self) -> [(&'static str, f64); 4] {
        [
            ("calib.memcpy_gb_s", self.memcpy_gb_s),
            ("calib.aead_raw_mb_s", self.aead_raw_mb_s),
            ("calib.plaintext_scan_ns_per_obj", self.plaintext_scan_ns_per_obj),
            ("calib.spin_ns", self.spin_ns),
        ]
    }

    /// The mean of several readings.
    pub fn mean(readings: &[Calib]) -> Calib {
        let mean =
            |f: fn(&Calib) -> f64| readings.iter().map(f).sum::<f64>() / readings.len() as f64;
        Calib {
            memcpy_gb_s: mean(|c| c.memcpy_gb_s),
            aead_raw_mb_s: mean(|c| c.aead_raw_mb_s),
            plaintext_scan_ns_per_obj: mean(|c| c.plaintext_scan_ns_per_obj),
            spin_ns: mean(|c| c.spin_ns),
        }
    }

    /// Whether any row moved by more than [`NOISY_ABOVE`] between `a` and `b`.
    pub fn moved(a: &Calib, b: &Calib) -> bool {
        a.rows().iter().zip(b.rows()).any(|((_, x), (_, y))| (x - y).abs() / x.min(y) > NOISY_ABOVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tenth_is_the_noise_line() {
        let base = Calib {
            memcpy_gb_s: 10.0,
            aead_raw_mb_s: 400.0,
            plaintext_scan_ns_per_obj: 50.0,
            spin_ns: 1.0,
        };
        assert!(!Calib::moved(&base, &Calib { spin_ns: 1.05, ..base }));
        assert!(Calib::moved(&base, &Calib { spin_ns: 1.2, ..base }));
        assert!(Calib::moved(&Calib { memcpy_gb_s: 8.0, ..base }, &base));
        assert_eq!(
            Calib::mean(&[base, Calib { aead_raw_mb_s: 500.0, ..base }]).aead_raw_mb_s,
            450.0
        );
    }
}
