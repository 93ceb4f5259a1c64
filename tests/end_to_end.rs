//! Cross-crate integration: the full Snoopy stack against a sequential
//! key-value model, across configurations, storage backends, and workload
//! shapes.

use snoopy_crypto::rng::Rng;
use snoopy_repro::core::{Snoopy, SnoopyConfig};
use snoopy_repro::enclave::wire::{Request, StoredObject};
use std::collections::HashMap;

const VLEN: usize = 64;

fn objects(n: u64) -> Vec<StoredObject> {
    (0..n).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
}

fn pad(bytes: &[u8]) -> Vec<u8> {
    let mut v = bytes.to_vec();
    v.resize(VLEN, 0);
    v
}

/// Drives `epochs` random epochs against a model and checks every response
/// and the final store state.
fn drive(config: SnoopyConfig, n: u64, epochs: usize, seed: u64) {
    let mut rng = snoopy_crypto::Prg::from_seed(seed);
    let mut sys = Snoopy::init(config, objects(n), seed);
    let mut model: HashMap<u64, Vec<u8>> = (0..n).map(|i| (i, pad(&i.to_le_bytes()))).collect();
    let l = config.num_load_balancers;

    for _ in 0..epochs {
        let mut per: Vec<Vec<Request>> = vec![Vec::new(); l];
        let mut expected: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        let mut state = model.clone();
        let mut client = 0u64;
        for (lb, bucket) in per.iter_mut().enumerate() {
            let count = rng.gen_range(0..25);
            let mut lb_writes: Vec<(u64, Vec<u8>)> = Vec::new();
            for seq in 0..count {
                let id = rng.gen_range(0..n);
                let pre = state.get(&id).cloned().unwrap_or_else(|| vec![0u8; VLEN]);
                if rng.gen_bool(0.4) {
                    let val = pad(&[rng.gen::<u8>(), lb as u8, seq as u8]);
                    bucket.push(Request::write(id, &val, VLEN, client, seq));
                    lb_writes.push((id, val));
                } else {
                    bucket.push(Request::read(id, VLEN, client, seq));
                }
                expected.push((client, seq, pre));
                client += 1;
            }
            for (id, val) in lb_writes {
                state.insert(id, val);
            }
        }
        model = state;
        let out = sys.execute_epoch(per).unwrap();
        let got: HashMap<(u64, u64), Vec<u8>> =
            out.into_iter().map(|r| ((r.client, r.seq), r.value)).collect();
        assert_eq!(got.len(), expected.len());
        for (client, seq, want) in expected {
            assert_eq!(got[&(client, seq)], want, "client {client} seq {seq}");
        }
    }
    for (id, val) in &model {
        assert_eq!(sys.peek(*id).as_ref(), Some(val), "final state of {id}");
    }
}

#[test]
fn single_balancer_single_suboram() {
    drive(SnoopyConfig::with_machines(1, 1).value_len(VLEN), 100, 6, 1);
}

#[test]
fn multi_balancer_multi_suboram() {
    drive(SnoopyConfig::with_machines(3, 5).value_len(VLEN), 400, 6, 2);
}

#[test]
fn external_sealed_storage() {
    use snoopy_repro::core::StorageKind;
    let config = SnoopyConfig::with_machines(2, 3).value_len(VLEN).storage(StorageKind::External);
    drive(config, 150, 4, 3);
}

#[test]
fn disk_sealed_storage() {
    use snoopy_repro::core::StorageKind;
    // 150 objects across 3 subORAMs on the test disk geometry (1 KiB
    // blocks, 8-block buffer) keeps every partition streaming through real
    // file I/O rather than sitting resident.
    drive(SnoopyConfig::with_machines(2, 3).value_len(VLEN).storage(StorageKind::Disk), 150, 4, 3);
}

#[test]
fn skewed_all_same_object() {
    let config = SnoopyConfig::with_machines(2, 4).value_len(VLEN);
    let mut sys = Snoopy::init(config, objects(500), 9);
    // 100 clients hammer one object across both balancers; dedup must keep
    // batches at f(R,S) and everyone still gets the right answer.
    let mk = |client0: u64| -> Vec<Request> {
        (0..50u64).map(|i| Request::read(77, VLEN, client0 + i, i)).collect()
    };
    let out = sys.execute_epoch(vec![mk(0), mk(50)]).unwrap();
    assert_eq!(out.len(), 100);
    for r in out {
        assert_eq!(r.id, 77);
        assert_eq!(r.value, pad(&77u64.to_le_bytes()));
    }
}

#[test]
fn writes_and_reads_interleave_across_many_epochs() {
    let config = SnoopyConfig::with_machines(1, 2).value_len(VLEN);
    let mut sys = Snoopy::init(config, objects(50), 11);
    for round in 0..10u64 {
        sys.execute_epoch_single(vec![Request::write(3, &round.to_le_bytes(), VLEN, 0, round)])
            .unwrap();
        let out = sys.execute_epoch_single(vec![Request::read(3, VLEN, 1, round)]).unwrap();
        assert_eq!(out[0].value, pad(&round.to_le_bytes()), "round {round}");
    }
}
