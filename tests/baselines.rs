//! Cross-baseline semantic equivalence: the same logical workload produces
//! identical key-value outcomes on Snoopy, the Obladi proxy, Path ORAM,
//! Ring ORAM, and the plaintext store. Only the leakage differs.

use snoopy_crypto::rng::Rng;
use snoopy_repro::core::{Snoopy, SnoopyConfig};
use snoopy_repro::enclave::wire::{Request, StoredObject};
use snoopy_repro::snoopy_baselines::obladi::{ObladiProxy, ProxyRequest};
use snoopy_repro::snoopy_baselines::pathoram::PathOram;
use snoopy_repro::snoopy_baselines::ringoram::RingOram;
use snoopy_repro::snoopy_baselines::{Op as POp, Op as ROp};
use snoopy_repro::snoopy_plaintext::PlaintextStore;

const VLEN: usize = 32;
const N: u64 = 128;

#[derive(Clone, Debug)]
enum WOp {
    Read(u64),
    Write(u64, Vec<u8>),
}

fn workload(seed: u64, len: usize) -> Vec<WOp> {
    let mut rng = snoopy_crypto::Prg::from_seed(seed);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..N);
            if rng.gen_bool(0.5) {
                let mut v = vec![rng.gen::<u8>(); 4];
                v.resize(VLEN, 0);
                WOp::Write(id, v)
            } else {
                WOp::Read(id)
            }
        })
        .collect()
}

/// Applies the workload one op at a time and returns every read result.
fn run_pathoram(ops: &[WOp]) -> Vec<(u64, Vec<u8>)> {
    let mut oram = PathOram::new(N, VLEN, 1);
    let mut out = Vec::new();
    for op in ops {
        match op {
            WOp::Read(id) => out.push((*id, oram.access(POp::Read, *id, None))),
            WOp::Write(id, v) => {
                oram.access(POp::Write, *id, Some(v));
            }
        }
    }
    out
}

fn run_ringoram(ops: &[WOp]) -> Vec<(u64, Vec<u8>)> {
    let mut oram = RingOram::new(N, VLEN, 2);
    let mut out = Vec::new();
    for op in ops {
        match op {
            WOp::Read(id) => out.push((*id, oram.access(ROp::Read, *id, None))),
            WOp::Write(id, v) => {
                oram.access(ROp::Write, *id, Some(v));
            }
        }
    }
    out
}

fn run_plaintext(ops: &[WOp]) -> Vec<(u64, Vec<u8>)> {
    let mut store = PlaintextStore::new(4);
    let mut out = Vec::new();
    for op in ops {
        match op {
            WOp::Read(id) => {
                out.push((*id, store.get(*id).cloned().unwrap_or_else(|| vec![0u8; VLEN])))
            }
            WOp::Write(id, v) => {
                store.set(*id, v.clone());
            }
        }
    }
    out
}

/// One-op-per-epoch Snoopy (sequential semantics for apples-to-apples).
fn run_snoopy(ops: &[WOp]) -> Vec<(u64, Vec<u8>)> {
    let objects: Vec<StoredObject> = (0..N).map(|i| StoredObject::new(i, &[], VLEN)).collect();
    let mut sys = Snoopy::init(SnoopyConfig::with_machines(1, 2).value_len(VLEN), objects, 7);
    let mut out = Vec::new();
    for (seq, op) in ops.iter().enumerate() {
        match op {
            WOp::Read(id) => {
                let resp = sys
                    .execute_epoch_single(vec![Request::read(*id, VLEN, 0, seq as u64)])
                    .unwrap();
                out.push((*id, resp[0].value.clone()));
            }
            WOp::Write(id, v) => {
                sys.execute_epoch_single(vec![Request::write(*id, v, VLEN, 0, seq as u64)])
                    .unwrap();
            }
        }
    }
    out
}

/// One-op-per-batch Obladi (batch size 1 degenerates to sequential).
fn run_obladi(ops: &[WOp]) -> Vec<(u64, Vec<u8>)> {
    let mut proxy = ObladiProxy::new(N, VLEN, 1, 5);
    let mut out = Vec::new();
    for (seq, op) in ops.iter().enumerate() {
        match op {
            WOp::Read(id) => {
                let resp = proxy
                    .submit(ProxyRequest { addr: *id, op: ROp::Read, data: None, tag: seq as u64 })
                    .unwrap();
                out.push((*id, resp[0].value.clone()));
            }
            WOp::Write(id, v) => {
                proxy
                    .submit(ProxyRequest {
                        addr: *id,
                        op: ROp::Write,
                        data: Some(v.clone()),
                        tag: seq as u64,
                    })
                    .unwrap();
            }
        }
    }
    out
}

#[test]
fn all_six_systems_agree() {
    let ops = workload(42, 150);
    let expect = run_plaintext(&ops);
    assert_eq!(run_pathoram(&ops), expect, "Path ORAM diverges from plaintext");
    assert_eq!(run_ringoram(&ops), expect, "Ring ORAM diverges from plaintext");
    assert_eq!(run_obladi(&ops), expect, "Obladi diverges from plaintext");
    assert_eq!(run_snoopy(&ops), expect, "Snoopy diverges from plaintext");
}

#[test]
fn agreement_across_seeds() {
    for seed in [1u64, 9, 77] {
        let ops = workload(seed, 60);
        let expect = run_plaintext(&ops);
        assert_eq!(run_snoopy(&ops), expect, "seed {seed}");
        assert_eq!(run_ringoram(&ops), expect, "seed {seed}");
    }
}
