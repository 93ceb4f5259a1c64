//! Multi-balancer TCP clusters: k×m boot, client failover across a
//! SIGKILLed balancer, and cross-balancer linearizability on the real wire.
//!
//! Two scenarios, both against real `snoopyd` processes:
//!
//! 1. A 2×3 cluster loses balancer 0 to SIGKILL mid-epoch (epochs tick
//!    every 5 ms, so one is always in flight). The [`SnoopyClient`]'s
//!    multi-endpoint transport must fail over to balancer 1 with **zero
//!    lost acknowledged writes**, the survivor must keep sealing epochs on
//!    its own (composite epoch ids have no cross-balancer barrier), and the
//!    stamped wire history must pass the Appendix C coordinate-order
//!    checker.
//!
//! 2. Two clients pinned to *different* balancers race conflicting writes
//!    at the same keys. Their combined real-time history must pass the
//!    Wing–Gong checker — concurrent cross-balancer stamps need not be
//!    coordinate-ordered, but some real-time-respecting order must replay.

use snoopy_chaos::harness::{free_addrs, wait_for_health, Daemon};
use snoopy_core::history::{
    check_linearizable, check_linearizable_realtime, OpKind, OpRecord, TimedOp,
};
use snoopy_core::RetryPolicy;
use snoopy_net::manifest::Manifest;
use snoopy_net::{fetch_health, proto, shutdown_daemon, SnoopyClient};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const VLEN: usize = 32;
const NUM_OBJECTS: u64 = 64;
const SEED: u64 = 29;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

/// Boots a `balancers × suborams` cluster; returns (manifest, daemons,
/// tmp dir). Daemons are returned balancers-first, in index order.
fn boot_cluster(
    balancers: usize,
    suborams: usize,
    tag: &str,
) -> (Manifest, Vec<Daemon>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("snoopy-multi-lb-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addrs = free_addrs(balancers + suborams);
    let manifest = Manifest {
        value_len: VLEN,
        lambda: 128,
        seed: SEED,
        num_objects: NUM_OBJECTS,
        epoch_ms: 5,
        sub_deadline_ms: 250,
        max_replays: 60,
        retain_epochs: 64,
        active_suborams: 0,
        lb_threads: 1,
        sub_threads: 1,
        storage: snoopy_core::StorageKind::Memory,
        store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
        block_bytes: 256,
        buffer_blocks: 4,
        load_balancers: addrs[..balancers].to_vec(),
        suborams: addrs[balancers..].to_vec(),
    };
    let path = dir.join("cluster.manifest");
    std::fs::write(&path, manifest.render()).unwrap();
    let mut daemons = Vec::new();
    for i in 0..suborams {
        daemons.push(Daemon::spawn(SNOOPYD, "suboram", i, &path, None));
    }
    for i in 0..balancers {
        daemons.insert(i, Daemon::spawn(SNOOPYD, "loadbalancer", i, &path, None));
    }
    for addr in &manifest.load_balancers {
        wait_for_health(addr, "loadbalancer");
    }
    for addr in &manifest.suborams {
        wait_for_health(addr, "suboram");
    }
    (manifest, daemons, dir)
}

/// The deployment's deterministic initial store, as checker state.
fn initial_state() -> HashMap<u64, Vec<u8>> {
    (0..NUM_OBJECTS)
        .map(|i| {
            let mut v = i.to_le_bytes().to_vec();
            v.resize(VLEN, 0);
            (i, v)
        })
        .collect()
}

fn padded(payload: &[u8]) -> Vec<u8> {
    let mut v = payload.to_vec();
    v.resize(VLEN, 0);
    v
}

/// A retry policy patient enough to ride out a balancer kill.
fn patient() -> RetryPolicy {
    RetryPolicy::client_default().max_attempts(60).jitter_seed(SEED)
}

#[test]
fn balancer_kill_fails_over_with_zero_lost_acked_writes() {
    let (manifest, mut daemons, dir) = boot_cluster(2, 3, "kill");
    let deploy = proto::deployment_key(SEED);
    let num_lbs = manifest.load_balancers.len() as u64;

    let mut client = SnoopyClient::builder(VLEN)
        .read_timeout(Duration::from_secs(5))
        .retry(patient())
        .connect_tcp_multi(&manifest.load_balancers, &deploy)
        .expect("connect");

    // Ledger of acknowledged state + the stamped wire history. The client
    // is sequential, so every acknowledged op's composite epoch id is
    // non-decreasing even across the failover (one host, one clock) and the
    // coordinate-order checker is sound for the whole run.
    let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut history: Vec<OpRecord> = Vec::new();
    let mut record = |stamp: Option<u64>, arrival: u64, id: u64, kind: OpKind| {
        let stamp = stamp.expect("TCP transport always stamps commits");
        history.push(OpRecord { epoch: stamp / num_lbs, lb: stamp % num_lbs, arrival, id, kind });
        stamp
    };

    let kill_at = 12u64;
    let mut stamps: Vec<u64> = Vec::new();
    for i in 0..36u64 {
        if i == kill_at {
            // SIGKILL balancer 0 — the endpoint the client is stuck to —
            // mid-epoch (5 ms epochs: one is always being assembled). It is
            // never restarted; everything after this line rides balancer 1.
            daemons[0].kill9();
        }
        let id = (i * 5 + 1) % NUM_OBJECTS;
        let stamp = if i % 2 == 0 {
            let payload = padded(format!("flip{i}").as_bytes());
            let (_prior, stamp) = client
                .write_stamped(id, &payload)
                .unwrap_or_else(|e| panic!("write {i} failed despite failover: {e}"));
            acked.insert(id, payload.clone());
            record(stamp, i, id, OpKind::Write { value: payload })
        } else {
            let (value, stamp) =
                client.read_stamped(id).unwrap_or_else(|e| panic!("read {i} failed: {e}"));
            let want = acked.get(&id).cloned().unwrap_or_else(|| {
                let mut v = id.to_le_bytes().to_vec();
                v.resize(VLEN, 0);
                v
            });
            assert_eq!(value, want, "read {i} lost an acknowledged write");
            record(stamp, i, id, OpKind::Read { returned: value })
        };
        stamps.push(stamp);
    }

    // Every stamp after the kill must come from the survivor's residue
    // class — balancer 1 owns the odd composite ids.
    let post_kill = &stamps[kill_at as usize..];
    assert!(
        post_kill.iter().all(|s| s % num_lbs == 1),
        "post-kill commits must all be stamped by balancer 1: {post_kill:?}"
    );
    // And the ids are monotone across the failover boundary (one host, one
    // clock): the epoch-id namespace never runs backwards on the client.
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "stamps regressed: {stamps:?}");

    // The survivor keeps sealing epochs on its own: no barrier waits on the
    // dead balancer's residue class.
    let h1 = fetch_health(&manifest.load_balancers[1]).expect("survivor health");
    assert_eq!((h1.role.as_str(), h1.index), ("loadbalancer", 1));
    let sealed_then = h1.epochs;
    std::thread::sleep(Duration::from_millis(100));
    let sealed_now = fetch_health(&manifest.load_balancers[1]).expect("survivor health").epochs;
    assert!(
        sealed_now > sealed_then,
        "survivor stopped sealing epochs after the kill ({sealed_then} -> {sealed_now})"
    );

    // Zero lost acknowledged writes: read back every key the ledger holds
    // (through the survivor) and fold those reads into the history too.
    for (arrival, (&id, want)) in (1000u64..).zip(acked.iter()) {
        let (value, stamp) = client.read_stamped(id).expect("final read-back");
        assert_eq!(&value, want, "acknowledged write to {id} was lost");
        record(stamp, arrival, id, OpKind::Read { returned: value });
    }

    // The stamped wire history linearizes in the paper's coordinate order.
    check_linearizable(&history, &initial_state(), VLEN)
        .unwrap_or_else(|v| panic!("wire history not linearizable: {}", v.message));

    // Graceful teardown of the survivors (balancer 0 is already dead).
    for addr in manifest.load_balancers[1..].iter().chain(&manifest.suborams) {
        shutdown_daemon(addr).expect("shutdown");
    }
    daemons.remove(0); // the killed balancer: Drop reaps nothing
    for d in daemons {
        d.wait_graceful();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conflicting_writes_through_distinct_balancers_linearize() {
    let (manifest, daemons, dir) = boot_cluster(2, 2, "race");
    let deploy = proto::deployment_key(SEED);

    // One shared logical clock stamps invocation/completion intervals; the
    // checker only compares the counter, never wall time.
    let clock = AtomicU64::new(0);
    const KEYS: [u64; 3] = [3, 7, 11];
    const OPS_PER_CLIENT: u64 = 16;

    let histories: Vec<Vec<TimedOp>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|t| {
                let addr = manifest.load_balancers[t].clone();
                let deploy = deploy.clone();
                let clock = &clock;
                scope.spawn(move || {
                    let mut client = SnoopyClient::builder(VLEN)
                        .read_timeout(Duration::from_secs(10))
                        .retry(patient())
                        .connect_tcp(&addr, t, &deploy)
                        .expect("connect");
                    let mut ops = Vec::new();
                    for i in 0..OPS_PER_CLIENT {
                        let id = KEYS[(i as usize + t) % KEYS.len()];
                        let invoked = clock.fetch_add(1, Ordering::SeqCst);
                        // Writes conflict by construction: both clients hit
                        // the same keys with distinct payloads.
                        let kind = if i % 2 == 0 {
                            let payload = padded(format!("c{t}op{i}").as_bytes());
                            client
                                .write(id, &payload)
                                .unwrap_or_else(|e| panic!("client {t} write {i} failed: {e}"));
                            OpKind::Write { value: payload }
                        } else {
                            let value = client
                                .read(id)
                                .unwrap_or_else(|e| panic!("client {t} read {i} failed: {e}"));
                            OpKind::Read { returned: value }
                        };
                        let completed = clock.fetch_add(1, Ordering::SeqCst);
                        ops.push(TimedOp { invoked, completed, id, kind });
                    }
                    ops
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut all: Vec<TimedOp> = histories.into_iter().flatten().collect();
    assert_eq!(all.len(), 2 * OPS_PER_CLIENT as usize);
    // Shuffle-proof the checker input: sort by invocation so the report is
    // readable; the checker explores orders itself.
    all.sort_by_key(|op| op.invoked);
    check_linearizable_realtime(&all, &initial_state(), VLEN)
        .unwrap_or_else(|v| panic!("cross-balancer history not linearizable: {}", v.message));

    for addr in manifest.load_balancers.iter().chain(&manifest.suborams) {
        shutdown_daemon(addr).expect("shutdown");
    }
    for d in daemons {
        d.wait_graceful();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
