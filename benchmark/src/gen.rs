//! The request stream and the response checker.
//!
//! All randomness derives from `--seed`. Each client connection draws from
//! its own stream over its own residue class of keys (`id % connections ==
//! connection`), which buys two things: request `j` on connection `c` is the
//! same for a given seed however the run is timed, and every operation on a
//! key travels one ordered TCP session, so the balancer's last-write-wins
//! arrival order is the generator's issue order and a key's stored version
//! only ever goes up. That is what lets the checker use a plain version
//! interval.

/// xorshift64* over a splitmix-scrambled seed — deterministic and
/// dependency-free.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; distinct lanes are decorrelated.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over ranks `[0, n)` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table (`n` ≥ 1).
    pub fn new(n: u64, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Object id.
    pub key: u64,
    /// Write (else read).
    pub write: bool,
}

/// The operation stream of one connection.
pub struct Stream {
    rng: Rng,
    lane: u64,
    lanes: u64,
    write_frac: f64,
}

impl Stream {
    /// The stream of connection `lane` of `lanes`.
    pub fn new(seed: u64, lane: usize, lanes: usize, write_frac: f64) -> Stream {
        Stream {
            rng: Rng::new(seed, lane as u64),
            lane: lane as u64,
            lanes: lanes as u64,
            write_frac,
        }
    }

    /// The next operation; `zipf` ranks this lane's keys (`objects / lanes`
    /// of them), rank `r` being key `r * lanes + lane`.
    pub fn next_op(&mut self, zipf: &Zipf) -> Op {
        let rank = zipf.sample(&mut self.rng);
        let write = self.rng.next_f64() < self.write_frac;
        Op { key: rank * self.lanes + self.lane, write }
    }
}

/// What a response must satisfy, fixed when its request is issued.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// The key asked for.
    pub key: u64,
    /// Newest version acknowledged before the request was issued.
    pub lo: u32,
    /// For a write, the version it stores.
    pub write_version: Option<u32>,
}

/// Why a response was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The response or its payload names another object.
    ForeignId,
    /// Older than a version already acknowledged before the request.
    Stale,
    /// Newer than anything issued before the response arrived.
    FromTheFuture,
    /// Right id and version but the payload bytes are not that version's.
    Corrupt,
}

/// Per-key version counters and the payload format that embeds them.
///
/// A value is `id (8 B LE) | version (8 B LE) | filler`; version 0 is the
/// daemons' initial object (`id` then zeros), so a never-written key checks
/// like any other.
pub struct Checker {
    value_len: usize,
    issued: Vec<u32>,
    acked: Vec<u32>,
}

impl Checker {
    /// A checker for ids `0..objects` of `value_len` bytes (≥ 16).
    pub fn new(objects: u64, value_len: usize) -> Checker {
        assert!(value_len >= 16, "the payload embeds (id, version)");
        Checker { value_len, issued: vec![0; objects as usize], acked: vec![0; objects as usize] }
    }

    /// The value version `version` of `key` holds.
    pub fn payload(&self, key: u64, version: u32) -> Vec<u8> {
        let mut value = vec![0u8; self.value_len];
        value[..8].copy_from_slice(&key.to_le_bytes());
        value[8..16].copy_from_slice(&u64::from(version).to_le_bytes());
        if version > 0 {
            let fill = (key ^ (u64::from(version) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for chunk in value[16..].chunks_mut(8) {
                chunk.copy_from_slice(&fill.to_le_bytes()[..chunk.len()]);
            }
        }
        value
    }

    /// Registers an operation about to be sent; a write takes the key's next
    /// version. Returns what its response must satisfy and, for a write, the
    /// payload to send.
    pub fn on_issue(&mut self, op: Op) -> (Expect, Option<Vec<u8>>) {
        let k = op.key as usize;
        let lo = self.acked[k];
        if op.write {
            self.issued[k] += 1;
            let v = self.issued[k];
            (Expect { key: op.key, lo, write_version: Some(v) }, Some(self.payload(op.key, v)))
        } else {
            (Expect { key: op.key, lo, write_version: None }, None)
        }
    }

    /// Checks a response. A read returns the current value and a write the
    /// value it replaced, so either must carry a version no older than the
    /// last one acknowledged before the request was issued and no newer than
    /// the last one issued before it completed (for a write, before itself).
    pub fn on_complete(&mut self, e: &Expect, resp_id: u64, value: &[u8]) -> Result<(), Violation> {
        let k = e.key as usize;
        // The write is acknowledged whatever the verdict on the value.
        let hi = match e.write_version {
            Some(v) => {
                self.acked[k] = self.acked[k].max(v);
                v - 1
            }
            None => self.issued[k],
        };
        if resp_id != e.key || value.len() != self.value_len || value[..8] != e.key.to_le_bytes() {
            return Err(Violation::ForeignId);
        }
        let version = u64::from_le_bytes(value[8..16].try_into().expect("8 bytes"));
        if version < u64::from(e.lo) {
            return Err(Violation::Stale);
        }
        if version > u64::from(hi) {
            return Err(Violation::FromTheFuture);
        }
        if value != self.payload(e.key, version as u32) {
            return Err(Violation::Corrupt);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(seed: u64, lane: usize, n: usize) -> Vec<Op> {
        let zipf = Zipf::new(512, 0.99);
        let mut s = Stream::new(seed, lane, 2, 0.1);
        (0..n).map(|_| s.next_op(&zipf)).collect()
    }

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        assert_eq!(first_ops(7, 0, 2000), first_ops(7, 0, 2000));
        assert_ne!(first_ops(7, 0, 2000), first_ops(8, 0, 2000));
        assert_ne!(first_ops(7, 0, 2000), first_ops(7, 1, 2000));
    }

    #[test]
    fn lanes_own_disjoint_keys_and_the_mix_is_as_configured() {
        let ops = first_ops(3, 1, 20_000);
        assert!(ops.iter().all(|o| o.key % 2 == 1 && o.key < 1024));
        let writes = ops.iter().filter(|o| o.write).count() as f64 / ops.len() as f64;
        assert!((writes - 0.1).abs() < 0.01, "write share {writes}");
        // Zipf: the lane's hottest key takes far more than a uniform share.
        let hottest = ops.iter().filter(|o| o.key == 1).count() as f64 / ops.len() as f64;
        assert!(hottest > 0.1, "rank-0 share {hottest}");
    }

    #[test]
    fn checker_accepts_every_legal_response() {
        let mut c = Checker::new(8, 32);
        // Never-written key: the daemons' initial value is version 0.
        let (r0, _) = c.on_issue(Op { key: 5, write: false });
        let mut initial = vec![0u8; 32];
        initial[..8].copy_from_slice(&5u64.to_le_bytes());
        assert_eq!(c.on_complete(&r0, 5, &initial), Ok(()));
        // Two pipelined writes, then a read issued before either is acked:
        // the read may see version 0, 1 or 2.
        let (w1, p1) = c.on_issue(Op { key: 5, write: true });
        let (w2, p2) = c.on_issue(Op { key: 5, write: true });
        let (p1, p2) = (p1.unwrap(), p2.unwrap());
        for seen in [&initial, &p1, &p2] {
            let (r, _) = c.on_issue(Op { key: 5, write: false });
            assert_eq!(r.lo, 0);
            assert_eq!(c.on_complete(&r, 5, seen), Ok(()));
        }
        // Writes return what they replaced.
        assert_eq!(c.on_complete(&w1, 5, &initial), Ok(()));
        assert_eq!(c.on_complete(&w2, 5, &p1), Ok(()));
        // After both acks a read must see version 2.
        let (r, _) = c.on_issue(Op { key: 5, write: false });
        assert_eq!(r.lo, 2);
        assert_eq!(c.on_complete(&r, 5, &p2), Ok(()));
    }

    #[test]
    fn checker_rejects_stale_foreign_future_and_corrupt() {
        let mut c = Checker::new(8, 32);
        let (w1, p1) = c.on_issue(Op { key: 2, write: true });
        let p1 = p1.unwrap();
        let initial = c.payload(2, 0);
        assert_eq!(c.on_complete(&w1, 2, &initial), Ok(()));
        // Stale: version 1 was acknowledged before this read was issued.
        let (r, _) = c.on_issue(Op { key: 2, write: false });
        assert_eq!(c.on_complete(&r, 2, &initial), Err(Violation::Stale));
        // Foreign: another object's value, or another id on the envelope.
        let (r, _) = c.on_issue(Op { key: 2, write: false });
        assert_eq!(c.on_complete(&r, 2, &c.payload(3, 0)), Err(Violation::ForeignId));
        let (r, _) = c.on_issue(Op { key: 2, write: false });
        assert_eq!(c.on_complete(&r, 3, &p1), Err(Violation::ForeignId));
        // From the future: version 2 was never issued.
        let (r, _) = c.on_issue(Op { key: 2, write: false });
        assert_eq!(c.on_complete(&r, 2, &c.payload(2, 2)), Err(Violation::FromTheFuture));
        // Corrupt: right header, wrong filler.
        let (r, _) = c.on_issue(Op { key: 2, write: false });
        let mut bad = p1.clone();
        bad[20] ^= 1;
        assert_eq!(c.on_complete(&r, 2, &bad), Err(Violation::Corrupt));
        // A write cannot return its own version as the pre-write value.
        let (w2, p2) = c.on_issue(Op { key: 2, write: true });
        assert_eq!(c.on_complete(&w2, 2, &p2.unwrap()), Err(Violation::FromTheFuture));
    }
}
