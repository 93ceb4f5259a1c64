//! The disk storage tier on the real TCP plane, pinned in the manifest
//! (`storage = disk`): `snoopyd` subORAMs serve AEAD-sealed segment files
//! through a streaming-sized buffer, every response is byte-compared against
//! the in-enclave memory reference engine, and a `kill -9` mid-run must
//! recover from the committed on-disk generation named by the sealed
//! checkpoint — with the partition an order of magnitude larger than the
//! checkpoint file that restores it.

use snoopy_chaos::harness::{free_addrs, wait_for_health, Daemon};
use snoopy_core::{Snoopy, SnoopyConfig, StorageKind};
use snoopy_enclave::wire::Request;
use snoopy_net::manifest::Manifest;
use snoopy_net::{fetch_metrics, proto, shutdown_daemon, SnoopyClient};
use std::path::PathBuf;
use std::time::Duration;

const VLEN: usize = 32;
const NUM_OBJECTS: u64 = 128;
const SEED: u64 = 23;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

#[test]
fn disk_cluster_matches_memory_reference_and_recovers_from_kill9() {
    let dir = std::env::temp_dir().join(format!("snoopy-disk-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addrs = free_addrs(3);
    let manifest = Manifest {
        value_len: VLEN,
        lambda: 128,
        seed: SEED,
        num_objects: NUM_OBJECTS,
        epoch_ms: 5,
        sub_deadline_ms: 10_000,
        max_replays: 3,
        retain_epochs: 8,
        active_suborams: 0,
        lb_threads: 1,
        sub_threads: 1,
        // Pinned disk tier with a streaming-sized geometry: 256-byte blocks
        // hold 6 objects each, so a 64-object partition spans ~11 blocks
        // against a 4-block buffer — every scan is real file I/O.
        storage: StorageKind::Disk,
        store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
        block_bytes: 256,
        buffer_blocks: 4,
        load_balancers: vec![addrs[0].clone()],
        suborams: vec![addrs[1].clone(), addrs[2].clone()],
    };
    let manifest_path = dir.join("disk.manifest");
    std::fs::write(&manifest_path, manifest.render()).unwrap();
    let ckpt: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("sub{i}.ckpt"))).collect();

    let sub0 = Daemon::spawn(SNOOPYD, "suboram", 0, &manifest_path, Some(&ckpt[0]));
    let mut sub1 = Some(Daemon::spawn(SNOOPYD, "suboram", 1, &manifest_path, Some(&ckpt[1])));
    let lb = Daemon::spawn(SNOOPYD, "loadbalancer", 0, &manifest_path, None);

    // The reference engine is pinned to in-enclave memory: the disk cluster
    // must be observationally identical to RAM, byte for byte.
    let cfg = SnoopyConfig::with_machines(1, 2).value_len(VLEN).storage(StorageKind::Memory);
    let mut reference = Snoopy::init(cfg, manifest.initial_objects(), SEED);

    wait_for_health(&addrs[0], "loadbalancer");
    let deploy = proto::deployment_key(SEED);
    let mut client = loop {
        match SnoopyClient::builder(VLEN).connect_tcp(&addrs[0], 0, &deploy) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };

    let kill_at = 25;
    for i in 0..60u64 {
        if i == kill_at {
            // SIGKILL one subORAM mid-run — mid-epoch as far as the epoch
            // protocol is concerned (batches for the next epochs are already
            // in flight). The restarted daemon must reopen the committed
            // generation its sealed checkpoint names and keep matching.
            let mut d = sub1.take().unwrap();
            d.kill9();
            drop(d);
            sub1 = Some(Daemon::spawn(SNOOPYD, "suboram", 1, &manifest_path, Some(&ckpt[1])));
        }
        let id = (i * 11 + 5) % NUM_OBJECTS;
        let (got, req) = if i % 3 == 0 {
            let payload = format!("disk{i}").into_bytes();
            let got = client.write(id, &payload).expect("cluster write");
            (got, Request::write(id, &payload, VLEN, 0, i))
        } else {
            (client.read(id).expect("cluster read"), Request::read(id, VLEN, 0, i))
        };
        let want = reference.execute_epoch_single(vec![req]).unwrap();
        assert_eq!(got, want[0].value, "op {i} diverged from the memory reference");
    }

    // The on-disk layout is what the design says: sealed generation segments
    // under `<store_dir>/sub<i>`, and a checkpoint that is O(reply cache) —
    // far smaller than the partition it restores.
    for (i, ckpt_path) in ckpt.iter().enumerate() {
        let store = dir.join("store").join(format!("sub{i}"));
        let segs: Vec<_> = std::fs::read_dir(&store)
            .unwrap_or_else(|e| panic!("store dir {} missing: {e}", store.display()))
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("gen-") && n.ends_with(".seg"))
            .collect();
        assert!(!segs.is_empty(), "sub{i} has no committed generation segment");
        let seg_bytes: u64 =
            segs.iter().map(|n| std::fs::metadata(store.join(n)).unwrap().len()).sum();
        let ckpt_bytes = std::fs::metadata(ckpt_path).unwrap().len();
        assert!(
            ckpt_bytes * 2 < seg_bytes,
            "sub{i}: checkpoint ({ckpt_bytes} B) should be far smaller than \
             the on-disk partition ({seg_bytes} B)"
        );
    }

    // The storage tier publishes its public metrics.
    let sub_metrics = fetch_metrics(&addrs[1]).expect("suboram metrics RPC");
    for name in [
        "snoopy_store_bytes_read_total",
        "snoopy_store_bytes_written_total",
        "snoopy_store_fsyncs_total",
    ] {
        assert!(sub_metrics.contains(name), "missing storage metric {name}");
    }
    assert!(
        sub_metrics.contains("snoopy_stage_seconds_count{stage=\"store_scan\"}"),
        "missing store_scan stage histogram"
    );

    shutdown_daemon(&addrs[0]).expect("shutdown lb");
    shutdown_daemon(&addrs[1]).expect("shutdown sub0");
    shutdown_daemon(&addrs[2]).expect("shutdown sub1");
    lb.wait_graceful();
    sub0.wait_graceful();
    sub1.take().unwrap().wait_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}
