//! Doubly-oblivious Path ORAM — the Oblix refinement.
//!
//! Plain Path ORAM assumes a *trusted client*: its stash and position map
//! live in client memory and may be accessed with data-dependent patterns.
//! Inside an enclave that assumption fails (the host sees every access), so
//! Oblix makes the client data structures themselves oblivious. This module
//! implements that flavour with scan-based structures from `snoopy-obliv`:
//!
//! * the **position map** is read and remapped with full oblivious scans
//!   ([`snoopy_obliv::scan::oget`]-style compare-and-sets);
//! * the **stash** is a fixed-capacity array of slots; insertion, lookup, and
//!   write-back eviction each touch *every* slot with compare-and-sets, so
//!   occupancy and hit positions stay hidden;
//! * eviction processes the path deepest-bucket-first, obliviously selecting
//!   an eligible stash block per bucket slot (eligibility = leaf-prefix
//!   match, computed branch-free).
//!
//! The revealed information per access is exactly Path ORAM's contract: one
//! uniformly random path. Everything else — which slot held the block, how
//! full the stash is, where the block went — is scan-shaped.

use crate::tree::Shape;
use crate::Op;
use snoopy_crypto::rng::Rng;
use snoopy_crypto::Prg;
use snoopy_obliv::ct::{ct_eq_u64, Choice, Cmov};
use snoopy_obliv::impl_cmov_struct;
use snoopy_obliv::trace::{self, Region, TraceEvent};

/// Blocks per bucket.
pub const Z: usize = 4;
/// Address marking an empty slot (both in buckets and the stash).
const EMPTY: u64 = u64::MAX;

#[derive(Clone, Debug)]
struct OBlock {
    addr: u64,
    leaf: u64,
    data: Vec<u8>,
}

impl_cmov_struct!(OBlock { addr, leaf, data });

impl OBlock {
    fn empty(block_len: usize) -> OBlock {
        OBlock { addr: EMPTY, leaf: 0, data: vec![0u8; block_len] }
    }
}

/// Path ORAM with oblivious client structures.
pub struct DoublyObliviousPathOram {
    shape: Shape,
    /// Tree buckets, heap order, each exactly `Z` slots.
    tree: Vec<Vec<OBlock>>,
    /// Flat position map, accessed only by full scans.
    position: Vec<u64>,
    /// Fixed-capacity stash, accessed only by full scans.
    stash: Vec<OBlock>,
    capacity: u64,
    block_len: usize,
    prg: Prg,
}

impl DoublyObliviousPathOram {
    /// Creates a zero-initialized ORAM for `capacity` blocks.
    pub fn new(capacity: u64, block_len: usize, seed: u64) -> DoublyObliviousPathOram {
        let shape = Shape::for_capacity(capacity);
        let mut prg = Prg::from_seed(seed);
        let position = (0..capacity).map(|_| prg.gen_range(0..shape.leaves)).collect();
        // Stash: one path's worth of blocks plus the standard ω(log n) slack.
        let stash_cap = Z * shape.path_len() as usize + 64;
        DoublyObliviousPathOram {
            shape,
            tree: vec![vec![OBlock::empty(block_len); Z]; shape.buckets()],
            position,
            stash: vec![OBlock::empty(block_len); stash_cap],
            capacity,
            block_len,
            prg,
        }
    }

    /// Number of addressable blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Stash capacity (fixed; occupancy is secret).
    pub fn stash_capacity(&self) -> usize {
        self.stash.len()
    }

    /// Oblivious position-map read + remap: one full scan.
    fn read_and_remap_position(&mut self, addr: u64, fresh: u64) -> u64 {
        let mut leaf = 0u64;
        for (i, p) in self.position.iter_mut().enumerate() {
            trace::record(TraceEvent::Touch { region: Region::PositionMap, index: i });
            let hit = ct_eq_u64(i as u64, addr);
            leaf.cmov(p, hit);
            p.cmov(&fresh, hit);
        }
        leaf
    }

    /// Obliviously inserts a block into the stash (scans every slot; writes
    /// into the first free one). Panics on the negligible-probability stash
    /// overflow, like the paper's implementations.
    fn stash_insert(&mut self, block: &OBlock) {
        let mut written = Choice::FALSE;
        let real = ct_eq_u64(block.addr, EMPTY).not();
        for (i, slot) in self.stash.iter_mut().enumerate() {
            trace::record(TraceEvent::Touch { region: Region::StashInsert, index: i });
            let free = ct_eq_u64(slot.addr, EMPTY);
            let take = free.and(written.not()).and(real);
            slot.cmov(block, take);
            written = written.or(take).or(real.not());
        }
        assert!(written.declassify(), "stash overflow (negligible-probability event)");
    }

    /// One doubly-oblivious access.
    pub fn access(&mut self, op: Op, addr: u64, new_data: Option<&[u8]>) -> Vec<u8> {
        assert!(addr < self.capacity, "address out of range");
        let fresh = self.prg.gen_range(0..self.shape.leaves);
        let leaf = self.read_and_remap_position(addr, fresh);
        // The path is the one piece of revealed (and by design uniformly
        // random) information per access.
        let path = self.shape.path(leaf);

        // Read every path slot into the stash, unconditionally and
        // obliviously (empty slots insert as no-ops inside the scan).
        for &b in &path {
            for z in 0..Z {
                let block = self.tree[b][z].clone();
                self.tree[b][z] = OBlock::empty(self.block_len);
                self.stash_insert(&block);
            }
        }

        // Scan the stash for the target: read its data, apply the write, and
        // refresh its leaf — all with compare-and-sets. If absent (first
        // touch), a free slot adopts the address.
        let is_write = Choice::from_bool(matches!(op, Op::Write));
        let mut padded = vec![0u8; self.block_len];
        if let Some(d) = new_data {
            let n = d.len().min(self.block_len);
            padded[..n].copy_from_slice(&d[..n]);
        }
        let mut old = vec![0u8; self.block_len];
        let mut found = Choice::FALSE;
        for (i, slot) in self.stash.iter_mut().enumerate() {
            trace::record(TraceEvent::Touch { region: Region::StashRead, index: i });
            let hit = ct_eq_u64(slot.addr, addr);
            old.cmov(&slot.data, hit);
            slot.data.cmov(&padded, hit.and(is_write));
            slot.leaf.cmov(&fresh, hit);
            found = found.or(hit);
        }
        // Absent block: claim one free slot (same scan shape as insert).
        let adopt = OBlock {
            addr,
            leaf: fresh,
            data: {
                let mut d = vec![0u8; self.block_len];
                d.cmov(&padded, is_write);
                d
            },
        };
        let mut claimed = found; // pretend already-written when found
        for (i, slot) in self.stash.iter_mut().enumerate() {
            trace::record(TraceEvent::Touch { region: Region::StashAdopt, index: i });
            let free = ct_eq_u64(slot.addr, EMPTY);
            let take = free.and(claimed.not());
            slot.cmov(&adopt, take);
            claimed = claimed.or(take);
        }
        assert!(claimed.declassify(), "stash overflow (negligible-probability event)");

        // Oblivious write-back, deepest bucket first: each bucket slot scans
        // the whole stash and extracts at most one eligible block.
        for (depth_from_root, &b) in path.iter().enumerate().rev() {
            let shift = self.shape.levels - depth_from_root as u32;
            for z in 0..Z {
                let mut chosen = OBlock::empty(self.block_len);
                let mut have = Choice::FALSE;
                for (i, slot) in self.stash.iter_mut().enumerate() {
                    trace::record(TraceEvent::Touch { region: Region::StashEvict, index: i });
                    let real = ct_eq_u64(slot.addr, EMPTY).not();
                    // Eligible iff the block's leaf shares the bucket's
                    // prefix (shift is public: it depends only on the level).
                    let eligible = if shift >= 64 {
                        Choice::TRUE
                    } else {
                        ct_eq_u64(slot.leaf >> shift, leaf >> shift)
                    };
                    let take = real.and(eligible).and(have.not());
                    chosen.cmov(slot, take);
                    let empty = OBlock::empty(self.block_len);
                    slot.cmov(&empty, take);
                    have = have.or(take);
                }
                self.tree[b][z] = chosen;
            }
        }
        old
    }

    /// Secret-independent count of occupied stash slots (test helper; the
    /// declassification is deliberate and test-only).
    pub fn stash_occupancy(&self) -> usize {
        self.stash.iter().filter(|s| s.addr != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn read_after_write() {
        let mut oram = DoublyObliviousPathOram::new(64, 16, 1);
        oram.access(Op::Write, 5, Some(&[7u8; 16]));
        assert_eq!(oram.access(Op::Read, 5, None), vec![7u8; 16]);
        assert_eq!(oram.access(Op::Read, 6, None), vec![0u8; 16]);
    }

    #[test]
    fn random_workload_matches_model() {
        let mut rng = snoopy_crypto::Prg::from_seed(2);
        let n = 64u64;
        let mut oram = DoublyObliviousPathOram::new(n, 8, 3);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for _ in 0..600 {
            let addr = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                let val = vec![rng.gen::<u8>(); 8];
                oram.access(Op::Write, addr, Some(&val));
                model.insert(addr, val);
            } else {
                let got = oram.access(Op::Read, addr, None);
                let want = model.get(&addr).cloned().unwrap_or_else(|| vec![0u8; 8]);
                assert_eq!(got, want, "addr {addr}");
            }
        }
    }

    #[test]
    fn stash_occupancy_stays_within_capacity() {
        let mut rng = snoopy_crypto::Prg::from_seed(4);
        let n = 256u64;
        let mut oram = DoublyObliviousPathOram::new(n, 8, 5);
        let mut max_occ = 0;
        for _ in 0..1500 {
            let addr = rng.gen_range(0..n);
            oram.access(Op::Write, addr, Some(&[1u8; 8]));
            max_occ = max_occ.max(oram.stash_occupancy());
        }
        assert!(max_occ < oram.stash_capacity() / 2, "occupancy {max_occ}");
    }

    #[test]
    fn client_structure_traces_independent_of_address() {
        // The ONLY address-dependent part of the trace is the revealed path.
        // Fix the leaf assignments so two different addresses read the same
        // path, and the full traces (posmap + stash + eviction scans) must
        // coincide.
        let run = |addr: u64| {
            let mut oram = DoublyObliviousPathOram::new(16, 8, 7);
            // Force every block to the same leaf so the path is fixed.
            for p in oram.position.iter_mut() {
                *p = 3;
            }
            let ((), t) = trace::capture(|| {
                oram.access(Op::Read, addr, None);
            });
            t.fingerprint()
        };
        assert_eq!(run(0), run(15));
    }

    #[test]
    fn read_and_write_traces_match() {
        let run = |op: Op, data: Option<&[u8]>| {
            let mut oram = DoublyObliviousPathOram::new(16, 8, 9);
            for p in oram.position.iter_mut() {
                *p = 1;
            }
            let ((), t) = trace::capture(|| {
                oram.access(op, 4, data);
            });
            t.fingerprint()
        };
        assert_eq!(run(Op::Read, None), run(Op::Write, Some(&[9u8; 8])));
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut oram = DoublyObliviousPathOram::new(32, 8, 11);
        assert_eq!(oram.access(Op::Write, 9, Some(&[1u8; 8])), vec![0u8; 8]);
        assert_eq!(oram.access(Op::Write, 9, Some(&[2u8; 8])), vec![1u8; 8]);
        assert_eq!(oram.access(Op::Read, 9, None), vec![2u8; 8]);
    }
}
