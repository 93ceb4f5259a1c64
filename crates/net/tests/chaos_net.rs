//! Chaos on the real TCP plane: `snoopyd` daemons behind fault-injecting
//! proxies, with a SIGKILLed subORAM *and* a SIGKILLed balancer mid-run.
//!
//! The balancer dials each subORAM through a [`FaultProxy`] that drops and
//! duplicates sealed frames under a seeded [`FaultPlan`]. On the wire a
//! dropped or duplicated sealed frame desynchronizes the AEAD link's strict
//! in-order nonces, so the session dies and the balancer must re-dial and
//! replay the epoch over fresh keys — the same recovery path a real lossy
//! network triggers. Despite all of it, every client response must match the
//! synchronous reference engine byte for byte, in every cell of the
//! deployment matrix.
//!
//! Reproduce a failure with `CHAOS_SEED=<printed seed> cargo test -p
//! snoopy-net --test chaos_net`.

use snoopy_chaos::harness::{each_cell, free_addrs, wait_for_health, Daemon, CELLS};
use snoopy_chaos::{chaos_seed, DirectionFaults, FaultPlan, FaultPlanConfig, FaultProxy};
use snoopy_core::{RetryPolicy, Snoopy, SnoopyConfig};
use snoopy_enclave::wire::Request;
use snoopy_net::manifest::Manifest;
use snoopy_net::{fetch_health, fetch_stats, parse_stats, proto, shutdown_daemon, SnoopyClient};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const VLEN: usize = 32;
const NUM_OBJECTS: u64 = 128;
const SEED: u64 = 17;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

/// A retry policy patient enough to ride out a balancer kill + restart.
fn patient_client() -> RetryPolicy {
    RetryPolicy::client_default().max_attempts(60).jitter_seed(SEED)
}

#[test]
fn proxied_cluster_survives_faults_and_double_kill() {
    let seed = chaos_seed(0xC4A5_0005);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&CELLS, |cell| {
        let dir = std::env::temp_dir().join(format!(
            "snoopy-chaos-net-{}-{}-{}",
            cell.storage,
            cell.threads,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let addrs = free_addrs(3);

        // Sealed-frame drops and duplicates, both directions. Every fault kills
        // an AEAD session, so rates are kept low enough that replay-with-redial
        // (one sub_deadline each) dominates the runtime instead of serializing it.
        let faults = DirectionFaults {
            drop_per_mille: 12,
            duplicate_per_mille: 8,
            delay_per_mille: 0,
            close_per_mille: 4,
            delay: Duration::ZERO,
        };
        let plan =
            Arc::new(FaultPlan::new(FaultPlanConfig::new(seed).batch(faults).response(faults)));

        // The daemons' manifest lists the subORAMs' real addresses (each subORAM
        // binds its own entry); the balancer's manifest swaps in the proxies.
        let daemon_manifest = Manifest {
            value_len: VLEN,
            lambda: 128,
            seed: SEED,
            num_objects: NUM_OBJECTS,
            epoch_ms: 5,
            sub_deadline_ms: 250,
            max_replays: 60,
            retain_epochs: 64,
            active_suborams: 0,
            lb_threads: cell.threads as u32,
            sub_threads: cell.threads as u32,
            // On the disk tier: real sealed segment files behind a
            // streaming-sized buffer.
            storage: cell.storage,
            store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
            block_bytes: 256,
            buffer_blocks: 4,
            load_balancers: vec![addrs[0].clone()],
            suborams: vec![addrs[1].clone(), addrs[2].clone()],
        };
        let proxies: Vec<FaultProxy> = (0..2)
            .map(|i| FaultProxy::start(&addrs[1 + i], i, plan.clone()).expect("start proxy"))
            .collect();
        let mut lb_manifest = daemon_manifest.clone();
        lb_manifest.suborams = proxies.iter().map(|p| p.addr().to_string()).collect();

        let daemon_path = dir.join("daemons.manifest");
        let lb_path = dir.join("balancer.manifest");
        std::fs::write(&daemon_path, daemon_manifest.render()).unwrap();
        std::fs::write(&lb_path, lb_manifest.render()).unwrap();
        let ckpt: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("sub{i}.ckpt"))).collect();
        let _ = std::fs::remove_file(&ckpt[0]);
        let _ = std::fs::remove_file(&ckpt[1]);

        let sub0 = Daemon::spawn(SNOOPYD, "suboram", 0, &daemon_path, Some(&ckpt[0]));
        let mut sub1 = Some(Daemon::spawn(SNOOPYD, "suboram", 1, &daemon_path, Some(&ckpt[1])));
        let mut lb = Some(Daemon::spawn(SNOOPYD, "loadbalancer", 0, &lb_path, None));

        // The serial memory-tier deployment: in every cell the daemons must
        // match it byte for byte.
        let cfg = SnoopyConfig::with_machines(1, 2).value_len(VLEN);
        let mut reference = Snoopy::init(cfg, daemon_manifest.initial_objects(), SEED);

        wait_for_health(&addrs[0], "loadbalancer");
        wait_for_health(&addrs[1], "suboram");
        let deploy = proto::deployment_key(SEED);
        let connect = || {
            SnoopyClient::builder(VLEN)
                .read_timeout(Duration::from_secs(30))
                .retry(patient_client())
                .connect_tcp(&addrs[0], 0, &deploy)
                .expect("client connect")
        };
        let mut client = connect();

        let kill_sub_at = 20;
        let kill_lb_at = 40;
        for i in 0..60u64 {
            if i == kill_sub_at {
                // SIGKILL one subORAM mid-epoch (epochs tick every 5 ms, so one
                // is always in flight) and restart it from its checkpoint. The
                // balancer's deadline replays ride through the proxy until the
                // replacement answers.
                let mut d = sub1.take().unwrap();
                d.kill9();
                drop(d);
                sub1 = Some(Daemon::spawn(SNOOPYD, "suboram", 1, &daemon_path, Some(&ckpt[1])));
            }
            if i == kill_lb_at {
                // SIGKILL the balancer between client operations (writes are
                // at-least-once under retry, so the kill lands while no request
                // is in flight) and restart it. Wall-clock epoch ids keep the
                // replacement's epochs monotone; the client's retry loop redials.
                let mut d = lb.take().unwrap();
                d.kill9();
                drop(d);
                lb = Some(Daemon::spawn(SNOOPYD, "loadbalancer", 0, &lb_path, None));
            }
            let id = (i * 7 + 3) % NUM_OBJECTS;
            let (got, req) = if i % 3 == 0 {
                let payload = format!("chaos{i}").into_bytes();
                (
                    client.write(id, &payload).expect("cluster write"),
                    Request::write(id, &payload, VLEN, 0, i),
                )
            } else {
                (client.read(id).expect("cluster read"), Request::read(id, VLEN, 0, i))
            };
            let want = reference.execute_epoch_single(vec![req]).unwrap();
            assert_eq!(got, want[0].value, "op {i} diverged from the reference engine");
        }

        // The plan must actually have attacked the wire.
        let summary = plan.summary();
        assert!(
            summary.drops + summary.duplicates + summary.closes > 0,
            "no faults fired: {summary}"
        );

        // Health reflects the healed cluster: the restarted balancer and the
        // restarted subORAM both answer and have run epochs since their revival.
        let lb_health = fetch_health(&addrs[0]).expect("lb health");
        assert_eq!((lb_health.role.as_str(), lb_health.index), ("loadbalancer", 0));
        assert!(lb_health.epochs > 0, "revived balancer reports no epochs");
        let sub_health = fetch_health(&addrs[2]).expect("sub health");
        assert_eq!((sub_health.role.as_str(), sub_health.index), ("suboram", 1));
        assert!(sub_health.epochs > 0, "revived subORAM reports no epochs");
        // And the stats RPC still accounts the proxied links.
        assert!(fetch_stats(&addrs[0]).unwrap().contains("link=suboram/0"));

        shutdown_daemon(&addrs[0]).expect("shutdown lb");
        shutdown_daemon(&addrs[1]).expect("shutdown sub0");
        shutdown_daemon(&addrs[2]).expect("shutdown sub1");
        lb.take().unwrap().wait_graceful();
        sub0.wait_graceful();
        sub1.take().unwrap().wait_graceful();
        for p in proxies {
            p.stop();
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A subORAM that comes up late, behind a proxy that accepts every dial
/// and hangs up at once while the subORAM is down, is still dialed: the
/// balancer must keep redialing through the hang-ups until it answers.
#[test]
fn suboram_booted_late_behind_a_proxy_is_dialed() {
    let dir = std::env::temp_dir().join(format!("snoopy-late-sub-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addrs = free_addrs(3);
    let daemon_manifest = Manifest {
        value_len: VLEN,
        lambda: 128,
        seed: SEED,
        num_objects: NUM_OBJECTS,
        epoch_ms: 5,
        sub_deadline_ms: 250,
        max_replays: 8,
        retain_epochs: 64,
        active_suborams: 0,
        lb_threads: 1,
        sub_threads: 1,
        storage: snoopy_core::StorageKind::Memory,
        store_dir: None,
        block_bytes: 256,
        buffer_blocks: 4,
        load_balancers: vec![addrs[0].clone()],
        suborams: vec![addrs[1].clone(), addrs[2].clone()],
    };
    // A quiet plan: the proxy only relays, and refuses nothing itself.
    let plan = Arc::new(FaultPlan::new(FaultPlanConfig::new(SEED)));
    let proxy = FaultProxy::start(&addrs[2], 1, plan).expect("start proxy");
    let mut lb_manifest = daemon_manifest.clone();
    lb_manifest.suborams[1] = proxy.addr().to_string();
    let daemon_path = dir.join("daemons.manifest");
    let lb_path = dir.join("balancer.manifest");
    std::fs::write(&daemon_path, daemon_manifest.render()).unwrap();
    std::fs::write(&lb_path, lb_manifest.render()).unwrap();

    let sub0 = Daemon::spawn(SNOOPYD, "suboram", 0, &daemon_path, None);
    let lb = Daemon::spawn(SNOOPYD, "loadbalancer", 0, &lb_path, None);
    wait_for_health(&addrs[0], "loadbalancer");
    // SubORAM 1 stays down while the balancer dials it through the proxy.
    std::thread::sleep(Duration::from_millis(1500));
    // The proxy accepts each dial and hangs up: the balancer must back off
    // between those redials, not spin on them.
    let stats = parse_stats(&fetch_stats(&addrs[0]).unwrap());
    let redials = stats.iter().find(|l| l.link == "suboram/1").map_or(0, |l| l.reconnects);
    assert!(redials <= 20, "{redials} redials of the down subORAM in 1.5 s");
    let sub1 = Daemon::spawn(SNOOPYD, "suboram", 1, &daemon_path, None);
    wait_for_health(&addrs[2], "suboram");

    let mut client = SnoopyClient::builder(VLEN)
        .read_timeout(Duration::from_secs(10))
        .retry(RetryPolicy::client_default().max_attempts(8).jitter_seed(SEED))
        .connect_tcp(&addrs[0], 0, &proto::deployment_key(SEED))
        .expect("client connect");
    let mut reference = Snoopy::init(
        SnoopyConfig::with_machines(1, 2).value_len(VLEN),
        daemon_manifest.initial_objects(),
        SEED,
    );
    for id in 0..8u64 {
        let got = client.read(id).expect("read with the late subORAM up");
        let want = reference.execute_epoch_single(vec![Request::read(id, VLEN, 0, id)]).unwrap();
        assert_eq!(got, want[0].value, "read {id} diverged from the reference engine");
    }

    for addr in &addrs {
        shutdown_daemon(addr).expect("shutdown");
    }
    for d in [lb, sub0, sub1] {
        d.wait_graceful();
    }
    proxy.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
