//! Ring ORAM (Ren et al., USENIX Security'15 — the paper's \[82\]).
//!
//! The tree ORAM Obladi parallelizes. Compared to Path ORAM it decouples
//! reads from evictions:
//!
//! * **ReadPath** touches exactly *one slot per bucket* on the path — the
//!   requested block where present, a fresh dummy elsewhere — instead of
//!   whole buckets;
//! * **EvictPath** runs only every `A` accesses, along paths in
//!   reverse-lexicographic leaf order, rewriting whole buckets;
//! * a bucket that has served `S` slot reads since its last rewrite is
//!   **early-reshuffled** so it never runs out of dummies.
//!
//! This implementation is a faithful single-process version: bucket slot
//! reads, eviction cadence, and reshuffle triggers all match the algorithm,
//! and the counters ([`RingOram::stats`]) expose the I/O quantities Obladi's
//! throughput derives from.

use crate::tree::Shape;
use crate::Op;
use snoopy_crypto::rng::Rng;
use snoopy_crypto::Prg;
use std::collections::HashMap;

/// Real slots per bucket.
pub const Z: usize = 4;
/// Dummy slots per bucket (reads a bucket can absorb between rewrites).
pub const S: usize = 6;
/// Accesses per eviction.
pub const A: usize = 3;

#[derive(Clone, Debug)]
struct Block {
    addr: u64,
    data: Vec<u8>,
}

#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Real blocks currently in the bucket with their validity bits
    /// (invalidated once read by a ReadPath).
    reals: Vec<(Block, bool)>,
    /// Dummy slots not yet consumed.
    dummies_left: usize,
    /// Slot reads since the last rewrite.
    accesses: usize,
}

impl Bucket {
    fn fresh(reals: Vec<Block>) -> Bucket {
        debug_assert!(reals.len() <= Z);
        Bucket {
            reals: reals.into_iter().map(|b| (b, true)).collect(),
            dummies_left: S,
            accesses: 0,
        }
    }

    fn valid_reals(&mut self) -> Vec<Block> {
        self.reals.drain(..).filter(|(_, v)| *v).map(|(b, _)| b).collect()
    }
}

/// I/O counters (the quantities that determine Ring ORAM's bandwidth
/// advantage over Path ORAM).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Individual slot reads (1 per bucket per ReadPath).
    pub slot_reads: u64,
    /// Whole-bucket rewrites (evictions + early reshuffles).
    pub bucket_writes: u64,
    /// EvictPath invocations.
    pub evictions: u64,
    /// Early reshuffles triggered by dummy exhaustion.
    pub early_reshuffles: u64,
    /// Stash high-water mark.
    pub max_stash: usize,
}

/// A Ring ORAM instance.
pub struct RingOram {
    shape: Shape,
    tree: Vec<Bucket>,
    position: Vec<u64>,
    stash: HashMap<u64, Vec<u8>>,
    capacity: u64,
    block_len: usize,
    prg: Prg,
    round: u64,
    evict_counter: u64,
    /// I/O counters.
    pub stats: RingStats,
}

impl RingOram {
    /// Creates a zero-initialized ORAM for `capacity` blocks.
    pub fn new(capacity: u64, block_len: usize, seed: u64) -> RingOram {
        let shape = Shape::for_capacity(capacity);
        let mut prg = Prg::from_seed(seed);
        let position = (0..capacity).map(|_| prg.gen_range(0..shape.leaves)).collect();
        RingOram {
            shape,
            tree: (0..shape.buckets()).map(|_| Bucket::fresh(Vec::new())).collect(),
            position,
            stash: HashMap::new(),
            capacity,
            block_len,
            prg,
            round: 0,
            evict_counter: 0,
            stats: RingStats::default(),
        }
    }

    /// Number of addressable blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Buckets per path.
    pub fn path_len(&self) -> u32 {
        self.shape.path_len()
    }

    /// One access. Returns the previous value of the block.
    pub fn access(&mut self, op: Op, addr: u64, new_data: Option<&[u8]>) -> Vec<u8> {
        assert!(addr < self.capacity, "address out of range");
        let leaf = self.position[addr as usize];
        self.position[addr as usize] = self.prg.gen_range(0..self.shape.leaves);

        // ReadPath: one slot per bucket.
        let path = self.shape.path(leaf);
        let mut found: Option<Block> = None;
        for &b in &path {
            self.stats.slot_reads += 1;
            let bucket = &mut self.tree[b];
            bucket.accesses += 1;
            let mut hit = false;
            for (blk, valid) in bucket.reals.iter_mut() {
                if *valid && blk.addr == addr {
                    *valid = false;
                    found = Some(blk.clone());
                    hit = true;
                    break;
                }
            }
            if !hit {
                // Consume a dummy slot (metadata guarantees one exists while
                // accesses <= S; early reshuffle below restores the supply).
                bucket.dummies_left = bucket.dummies_left.saturating_sub(1);
            }
        }
        if let Some(blk) = found {
            self.stash.insert(blk.addr, blk.data);
        }

        let old = self.stash.get(&addr).cloned().unwrap_or_else(|| vec![0u8; self.block_len]);
        let stored = if let (Op::Write, Some(data)) = (op, new_data) {
            let mut v = data.to_vec();
            v.resize(self.block_len, 0);
            v
        } else {
            old.clone()
        };
        self.stash.insert(addr, stored);

        // Early reshuffles for buckets that exhausted their dummies.
        for &b in &path {
            if self.tree[b].accesses >= S {
                self.reshuffle_bucket(b);
            }
        }

        // EvictPath every A accesses, reverse-lexicographic leaf order.
        self.round += 1;
        if self.round.is_multiple_of(A as u64) {
            let g = self.evict_counter;
            self.evict_counter += 1;
            let leaf = reverse_bits(g % self.shape.leaves, self.shape.levels);
            self.evict_path(leaf);
        }

        self.stats.max_stash = self.stats.max_stash.max(self.stash.len());
        old
    }

    fn reshuffle_bucket(&mut self, b: usize) {
        self.stats.early_reshuffles += 1;
        self.stats.bucket_writes += 1;
        let reals = self.tree[b].valid_reals();
        self.tree[b] = Bucket::fresh(reals);
    }

    fn evict_path(&mut self, leaf: u64) {
        self.stats.evictions += 1;
        let path = self.shape.path(leaf);
        // Read every valid real block on the path into the stash.
        for &b in &path {
            for blk in self.tree[b].valid_reals() {
                self.stash.insert(blk.addr, blk.data);
            }
        }
        // Greedy write-back, deepest first.
        for &b in path.iter().rev() {
            self.stats.bucket_writes += 1;
            let mut chosen = Vec::new();
            for (&a, data) in self.stash.iter() {
                if chosen.len() >= Z {
                    break;
                }
                if self.shape.bucket_on_path_to(b, self.position[a as usize]) {
                    chosen.push(Block { addr: a, data: data.clone() });
                }
            }
            for blk in &chosen {
                self.stash.remove(&blk.addr);
            }
            self.tree[b] = Bucket::fresh(chosen);
        }
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }
}

/// Reverses the low `bits` bits of `x` (reverse-lexicographic leaf order).
pub(crate) fn reverse_bits(x: u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (64 - bits)
}
