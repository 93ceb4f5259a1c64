//! Unit tests of Path ORAM, Ring ORAM and the Obladi proxy, in one module
//! at the crate root. Where Path ORAM and Ring ORAM have a test of the same
//! name, the Ring ORAM one carries a `ring_` prefix.

use crate::obladi::{ObladiProxy, ProxyRequest};
use crate::pathoram::{PathOram, RecursivePathOram};
use crate::ringoram::{reverse_bits, RingOram, A};
use crate::Op;
use std::collections::HashMap;

// Path ORAM.

#[test]
fn read_after_write() {
    let mut oram = PathOram::new(64, 16, 1);
    oram.access(Op::Write, 5, Some(&[7u8; 16]));
    assert_eq!(oram.access(Op::Read, 5, None), vec![7u8; 16]);
    assert_eq!(oram.access(Op::Read, 6, None), vec![0u8; 16]);
}

#[test]
fn write_returns_previous_value() {
    let mut oram = PathOram::new(16, 8, 2);
    let old = oram.access(Op::Write, 3, Some(&[1u8; 8]));
    assert_eq!(old, vec![0u8; 8]);
    let old2 = oram.access(Op::Write, 3, Some(&[2u8; 8]));
    assert_eq!(old2, vec![1u8; 8]);
}

#[test]
fn short_writes_are_padded() {
    let mut oram = PathOram::new(8, 16, 3);
    oram.access(Op::Write, 0, Some(&[9u8; 4]));
    let v = oram.access(Op::Read, 0, None);
    assert_eq!(&v[..4], &[9u8; 4]);
    assert_eq!(&v[4..], &[0u8; 12]);
}

#[test]
fn random_workload_matches_model() {
    use snoopy_crypto::rng::Rng;
    let mut rng = snoopy_crypto::Prg::from_seed(42);
    let n = 128u64;
    let mut oram = PathOram::new(n, 8, 4);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for _ in 0..2000 {
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
fn stash_stays_bounded() {
    use snoopy_crypto::rng::Rng;
    let mut rng = snoopy_crypto::Prg::from_seed(7);
    let n = 1024u64;
    let mut oram = PathOram::new(n, 8, 5);
    for _ in 0..5000 {
        let addr = rng.gen_range(0..n);
        oram.access(Op::Write, addr, Some(&[1u8; 8]));
    }
    // Path ORAM's stash is O(log N)·ω(1); 150 is far beyond the expected
    // bound for N=1024, Z=4 — a regression would blow well past it.
    assert!(oram.max_stash < 150, "stash high-water {}", oram.max_stash);
}

#[test]
fn bucket_ios_per_access_is_two_paths() {
    let mut oram = PathOram::new(256, 8, 6);
    let before = oram.bucket_ios;
    oram.access(Op::Read, 0, None);
    let per_access = oram.bucket_ios - before;
    assert_eq!(per_access, 2 * oram.path_len() as u64);
}

#[test]
fn recursive_depth_scales_with_capacity() {
    let small = RecursivePathOram::new(1 << 10, 16, 128, 1);
    assert_eq!(small.recursion_depth(), 0);
    let mid = RecursivePathOram::new(1 << 14, 16, 128, 1);
    assert_eq!(mid.recursion_depth(), 1);
    let big = RecursivePathOram::new(1 << 21, 16, 128, 1);
    assert!(big.recursion_depth() >= 2, "depth {}", big.recursion_depth());
    assert_eq!(big.accesses_per_op as usize, 1 + big.recursion_depth());
}

#[test]
fn recursive_correctness() {
    let mut oram = RecursivePathOram::new(1 << 12, 8, 16, 9);
    oram.access(Op::Write, 100, Some(&[5u8; 8]));
    oram.access(Op::Write, 4000, Some(&[6u8; 8]));
    assert_eq!(oram.access(Op::Read, 100, None), vec![5u8; 8]);
    assert_eq!(oram.access(Op::Read, 4000, None), vec![6u8; 8]);
    assert!(oram.bucket_ios() > 0);
}

#[test]
fn capacity_one_works() {
    let mut oram = PathOram::new(1, 8, 11);
    oram.access(Op::Write, 0, Some(&[3u8; 8]));
    assert_eq!(oram.access(Op::Read, 0, None), vec![3u8; 8]);
}

// Ring ORAM.

#[test]
fn ring_read_after_write() {
    let mut oram = RingOram::new(64, 16, 1);
    oram.access(Op::Write, 5, Some(&[7u8; 16]));
    assert_eq!(oram.access(Op::Read, 5, None), vec![7u8; 16]);
    assert_eq!(oram.access(Op::Read, 9, None), vec![0u8; 16]);
}

#[test]
fn write_returns_previous() {
    let mut oram = RingOram::new(32, 8, 2);
    assert_eq!(oram.access(Op::Write, 3, Some(&[1u8; 8])), vec![0u8; 8]);
    assert_eq!(oram.access(Op::Write, 3, Some(&[2u8; 8])), vec![1u8; 8]);
    assert_eq!(oram.access(Op::Read, 3, None), vec![2u8; 8]);
}

#[test]
fn ring_random_workload_matches_model() {
    use snoopy_crypto::rng::Rng;
    let mut rng = snoopy_crypto::Prg::from_seed(11);
    let n = 256u64;
    let mut oram = RingOram::new(n, 8, 3);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for _ in 0..3000 {
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
fn ring_stash_stays_bounded() {
    use snoopy_crypto::rng::Rng;
    let mut rng = snoopy_crypto::Prg::from_seed(4);
    let n = 1024u64;
    let mut oram = RingOram::new(n, 8, 5);
    for _ in 0..6000 {
        let addr = rng.gen_range(0..n);
        oram.access(Op::Write, addr, Some(&[1u8; 8]));
    }
    assert!(oram.stats.max_stash < 200, "stash high-water {}", oram.stats.max_stash);
}

#[test]
fn slot_reads_one_per_bucket_per_access() {
    let mut oram = RingOram::new(128, 8, 6);
    let before = oram.stats.slot_reads;
    oram.access(Op::Read, 0, None);
    assert_eq!(oram.stats.slot_reads - before, oram.path_len() as u64);
}

#[test]
fn evictions_follow_cadence() {
    let mut oram = RingOram::new(128, 8, 7);
    for i in 0..(A as u64 * 10) {
        oram.access(Op::Read, i % 128, None);
    }
    assert_eq!(oram.stats.evictions, 10);
}

#[test]
fn early_reshuffles_occur_under_pressure() {
    // Hammering one address keeps hitting the same root bucket path with
    // dummies; the root must reshuffle.
    let mut oram = RingOram::new(1024, 8, 8);
    for _ in 0..200 {
        oram.access(Op::Read, 0, None);
    }
    assert!(oram.stats.early_reshuffles > 0);
}

#[test]
fn reverse_bits_order() {
    assert_eq!(reverse_bits(0, 3), 0);
    assert_eq!(reverse_bits(1, 3), 4);
    assert_eq!(reverse_bits(2, 3), 2);
    assert_eq!(reverse_bits(3, 3), 6);
    assert_eq!(reverse_bits(0, 0), 0);
}

#[test]
fn ring_reads_fewer_slots_than_path_oram_buckets() {
    // The headline constant: ReadPath touches 1 slot per bucket while
    // Path ORAM moves Z+ blocks per bucket in both directions.
    let mut oram = RingOram::new(1 << 12, 8, 9);
    let mut rng = snoopy_crypto::Prg::from_seed(10);
    use snoopy_crypto::rng::Rng;
    let ops = 1000u64;
    for _ in 0..ops {
        let a = rng.gen_range(0..1 << 12);
        oram.access(Op::Read, a, None);
    }
    let slots_per_op = oram.stats.slot_reads as f64 / ops as f64;
    let path_len = oram.path_len() as f64;
    assert!(slots_per_op <= path_len + 0.01);
    // Bucket rewrites amortize to ~path_len/A per op plus reshuffles.
    let writes_per_op = oram.stats.bucket_writes as f64 / ops as f64;
    assert!(writes_per_op < path_len, "writes/op {writes_per_op}");
}

// Obladi proxy.

fn read(addr: u64, tag: u64) -> ProxyRequest {
    ProxyRequest { addr, op: Op::Read, data: None, tag }
}

fn write(addr: u64, byte: u8, tag: u64) -> ProxyRequest {
    ProxyRequest { addr, op: Op::Write, data: Some(vec![byte; 8]), tag }
}

#[test]
fn batch_commits_when_full() {
    let mut p = ObladiProxy::new(64, 8, 3, 1);
    assert!(p.submit(read(1, 10)).is_none());
    assert!(p.submit(read(2, 11)).is_none());
    let out = p.submit(read(3, 12)).unwrap();
    assert_eq!(out.len(), 3);
    assert_eq!(p.pending(), 0);
    assert_eq!(p.stats.batches, 1);
}

#[test]
fn dedup_one_access_per_distinct_key() {
    let mut p = ObladiProxy::new(64, 8, 5, 2);
    for t in 0..4 {
        p.submit(read(7, t));
    }
    let out = p.submit(read(7, 4)).unwrap();
    assert_eq!(out.len(), 5);
    // 1 real access + 4 padding.
    assert_eq!(p.stats.oram_accesses, 5);
}

#[test]
fn delayed_visibility_and_lww() {
    let mut p = ObladiProxy::new(64, 8, 4, 3);
    p.submit(write(5, 0xAA, 0));
    p.submit(read(5, 1));
    p.submit(write(5, 0xBB, 2));
    let out = p.submit(read(5, 3)).unwrap();
    // Everyone in the batch sees the PRE-batch value (zeros).
    for r in &out {
        assert_eq!(r.value, vec![0u8; 8], "tag {}", r.tag);
    }
    // Next batch sees the last write.
    p.submit(read(5, 10));
    let out2 = p.commit();
    assert_eq!(out2[0].value, vec![0xBB; 8]);
}

#[test]
fn every_batch_same_access_count() {
    let mut p = ObladiProxy::new(128, 8, 10, 4);
    for t in 0..10 {
        p.submit(read(t % 3, t)); // heavy dedup
    }
    let after_first = p.stats.oram_accesses;
    assert_eq!(after_first, 10, "padded to the batch size");
    for t in 0..10 {
        p.submit(read(t + 50, t)); // no dedup
    }
    assert_eq!(p.stats.oram_accesses, 20);
}

#[test]
fn partial_commit_pads() {
    let mut p = ObladiProxy::new(64, 8, 8, 5);
    p.submit(read(1, 0));
    let out = p.commit();
    assert_eq!(out.len(), 1);
    assert_eq!(p.stats.oram_accesses, 8);
}

#[test]
fn correctness_across_many_batches() {
    use snoopy_crypto::rng::Rng;
    let mut rng = snoopy_crypto::Prg::from_seed(6);
    let mut p = ObladiProxy::new(128, 8, 16, 6);
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for _ in 0..40 {
        let mut reqs = Vec::new();
        for t in 0..16u64 {
            let addr = rng.gen_range(0..128);
            if rng.gen_bool(0.5) {
                reqs.push(write(addr, rng.gen(), t));
            } else {
                reqs.push(read(addr, t));
            }
        }
        let mut out = None;
        for r in reqs.clone() {
            out = p.submit(r);
        }
        let out = out.expect("batch of 16 commits");
        for (r, resp) in reqs.iter().zip(out.iter()) {
            let want = model.get(&r.addr).cloned().unwrap_or_else(|| vec![0u8; 8]);
            assert_eq!(resp.value, want, "pre-batch value for {}", r.addr);
        }
        // Apply writes LWW per address.
        for r in &reqs {
            if let (Op::Write, Some(d)) = (r.op, &r.data) {
                model.insert(r.addr, d.clone());
            }
        }
    }
}
