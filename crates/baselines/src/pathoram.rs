//! Path ORAM (Stefanov et al., CCS'13 — the paper's \[93\]).
//!
//! The classic tree ORAM: `N` blocks live in a binary tree of
//! `Z`-slot buckets; each block is mapped to a uniformly random leaf, the
//! invariant being that a block resides somewhere on the path from the root
//! to its leaf (or in the client-side stash). An access reads one whole path,
//! remaps the block to a fresh leaf, and greedily writes the path back.
//!
//! Role in this reproduction (§8.1): Oblix — the enclave ORAM the paper
//! compares against — is a doubly-oblivious Path-ORAM-family DORAM with a
//! recursive position map, processing requests *sequentially*. This module
//! provides that baseline ([`PathOram`] and [`RecursivePathOram`]) and the
//! alternative subORAM used by the Fig. 10 "Snoopy-Oblix" experiment. It
//! reproduces the *algorithmic* costs (per-access path I/O, recursion depth);
//! the enclave-hardening of stash operations that Oblix adds is represented
//! in the cost model rather than re-implemented; [`crate::doubly`] is the
//! doubly-oblivious flavour.

use crate::tree::Shape;
use crate::Op;
use snoopy_crypto::rng::Rng;
use snoopy_crypto::Prg;
use std::collections::HashMap;

/// Blocks per bucket (the standard Z=4).
pub const BUCKET_SIZE: usize = 4;

#[derive(Clone, Debug)]
struct Block {
    addr: u64,
    data: Vec<u8>,
}

/// Path ORAM with a flat in-memory position map.
pub struct PathOram {
    shape: Shape,
    /// `tree[i]` is bucket `i` in heap order (root at 0).
    tree: Vec<Vec<Block>>,
    position: Vec<u64>,
    stash: HashMap<u64, Vec<u8>>,
    capacity: u64,
    block_len: usize,
    prg: Prg,
    /// Total buckets read+written (performance accounting).
    pub bucket_ios: u64,
    /// High-water mark of the stash.
    pub max_stash: usize,
}

impl PathOram {
    /// Creates an ORAM for `capacity` blocks of `block_len` bytes,
    /// zero-initialized, with randomness from `seed`.
    pub fn new(capacity: u64, block_len: usize, seed: u64) -> PathOram {
        let shape = Shape::for_capacity(capacity);
        let mut prg = Prg::from_seed(seed);
        let position = (0..capacity).map(|_| prg.gen_range(0..shape.leaves)).collect();
        PathOram {
            shape,
            tree: vec![Vec::new(); shape.buckets()],
            position,
            stash: HashMap::new(),
            capacity,
            block_len,
            prg,
            bucket_ios: 0,
            max_stash: 0,
        }
    }

    /// Number of addressable blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Block size in bytes.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Tree depth in bucket levels (root to leaf inclusive).
    pub fn path_len(&self) -> u32 {
        self.shape.path_len()
    }

    /// One ORAM access: reads (and for `Op::Write`, replaces) block `addr`.
    /// Returns the block's previous value.
    pub fn access(&mut self, op: Op, addr: u64, new_data: Option<&[u8]>) -> Vec<u8> {
        assert!(addr < self.capacity, "address out of range");
        let leaf = self.position[addr as usize];
        // Remap to a fresh random leaf.
        self.position[addr as usize] = self.prg.gen_range(0..self.shape.leaves);

        // Read the whole path into the stash.
        let path = self.shape.path(leaf);
        for &b in &path {
            self.bucket_ios += 1;
            for blk in self.tree[b].drain(..) {
                self.stash.insert(blk.addr, blk.data);
            }
        }

        let old = self.stash.get(&addr).cloned().unwrap_or_else(|| vec![0u8; self.block_len]);
        if let (Op::Write, Some(data)) = (op, new_data) {
            let mut v = data.to_vec();
            v.resize(self.block_len, 0);
            self.stash.insert(addr, v);
        } else {
            // Keep the block in the stash so it rides back into the tree.
            self.stash.insert(addr, old.clone());
        }

        // Greedy write-back: deepest buckets first, each block placed in the
        // deepest bucket on this path that is also on the path to its leaf.
        for &b in path.iter().rev() {
            self.bucket_ios += 1;
            let mut bucket = Vec::with_capacity(BUCKET_SIZE);
            let mut placed = Vec::new();
            for (&a, data) in self.stash.iter() {
                if bucket.len() >= BUCKET_SIZE {
                    break;
                }
                if self.shape.bucket_on_path_to(b, self.position[a as usize]) {
                    bucket.push(Block { addr: a, data: data.clone() });
                    placed.push(a);
                }
            }
            for a in placed {
                self.stash.remove(&a);
            }
            self.tree[b] = bucket;
        }
        self.max_stash = self.max_stash.max(self.stash.len());
        old
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }
}

/// Path ORAM with a recursive position map (Oblix's DORAM layout, §VI.A of
/// the Oblix paper): the position map is itself stored in smaller Path ORAMs,
/// `chi` positions per block, recursing until the map fits a threshold.
pub struct RecursivePathOram {
    data: PathOram,
    /// Position-map ORAMs, innermost (smallest) last. Each stores packed
    /// `chi` leaf indices per block for the ORAM one level out.
    maps: Vec<PathOram>,
    chi: usize,
    /// Total ORAM accesses per logical access (1 + recursion depth).
    pub accesses_per_op: u32,
}

impl RecursivePathOram {
    /// Threshold below which the position map is kept directly (models the
    /// enclave-resident top of the recursion).
    pub const DIRECT_THRESHOLD: u64 = 1 << 10;

    /// Creates a recursive ORAM with `chi` positions packed per map block.
    pub fn new(capacity: u64, block_len: usize, chi: usize, seed: u64) -> RecursivePathOram {
        assert!(chi >= 2);
        let data = PathOram::new(capacity, block_len, seed);
        let mut maps = Vec::new();
        let mut entries = capacity;
        let mut level_seed = seed;
        while entries > Self::DIRECT_THRESHOLD {
            let blocks = entries.div_ceil(chi as u64);
            level_seed = level_seed.wrapping_add(0x9E37_79B9);
            maps.push(PathOram::new(blocks, chi * 8, level_seed));
            entries = blocks;
        }
        let accesses_per_op = 1 + maps.len() as u32;
        RecursivePathOram { data, maps, chi, accesses_per_op }
    }

    /// The recursion depth (number of position-map ORAMs).
    pub fn recursion_depth(&self) -> usize {
        self.maps.len()
    }

    /// One logical access, touching every recursion level.
    ///
    /// The *leaf choices* are already tracked inside each [`PathOram`]'s flat
    /// map; to model Oblix's recursion cost faithfully we additionally walk
    /// the position-map ORAMs so their tree I/O happens for real (the stored
    /// map values mirror the flat maps rather than replacing them — the
    /// recursion here reproduces cost and access-pattern structure, not a
    /// second source of truth).
    pub fn access(&mut self, op: Op, addr: u64, new_data: Option<&[u8]>) -> Vec<u8> {
        // Walk the recursion from the innermost map outward.
        let mut idx = addr;
        for level in (0..self.maps.len()).rev() {
            idx /= self.chi as u64;
            let map_addr = idx.min(self.maps[level].capacity() - 1);
            self.maps[level].access(Op::Read, map_addr, None);
        }
        self.data.access(op, addr, new_data)
    }

    /// Total bucket I/Os across all levels.
    pub fn bucket_ios(&self) -> u64 {
        self.data.bucket_ios + self.maps.iter().map(|m| m.bucket_ios).sum::<u64>()
    }
}
