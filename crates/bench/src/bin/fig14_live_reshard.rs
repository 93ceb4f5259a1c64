//! Figure 14 (real plane): throughput before / during / after a live
//! elastic reshard of a real `snoopyd` cluster.
//!
//! The paper's Fig. 14 shows Snoopy absorbing a load change by changing the
//! machine count between epochs. This bench measures the real TCP plane's
//! version of that event: boot k balancers × 8 *provisioned* subORAMs with
//! only 4 active, drive closed-loop clients, then grow the fleet 4→8 with the
//! live reshard protocol ([`snoopy_net::reshard_cluster`]) while the clients
//! keep running. Reported per phase: sustained req/s before the reshard,
//! during the migration window (clients ride through the held tick), and
//! after the flip. The claim at test-bench scale is directional: the cluster
//! must keep completing requests in every phase — the migration pause costs
//! one latency bump, not an outage — and the post-flip cluster must not be
//! slower than the pre-flip one.
//!
//! ```text
//! fig14_live_reshard [--balancers 2] [--clients 8] [--phase-secs 3]
//!                    [--objects 1024] [--value-len 32] [--epoch-ms 5] [--quick]
//! ```

use snoopy_bench::{fmt, print_table, write_csv};
use snoopy_net::manifest::Manifest;
use snoopy_net::{fetch_stats, proto, shutdown_daemon, ReshardOptions, SnoopyClient};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct Config {
    balancers: usize,
    clients: usize,
    phase: Duration,
    objects: u64,
    value_len: usize,
    epoch_ms: u64,
    seed: u64,
}

impl Config {
    fn parse() -> Config {
        let mut cfg = Config {
            balancers: 2,
            clients: 8,
            phase: Duration::from_secs(3),
            objects: 1024,
            value_len: 32,
            epoch_ms: 5,
            seed: 42,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("missing value for {}", args[*i - 1])).clone()
        };
        while i < args.len() {
            match args[i].as_str() {
                "--balancers" => cfg.balancers = take(&mut i).parse().expect("--balancers"),
                "--clients" => cfg.clients = take(&mut i).parse().expect("--clients"),
                "--phase-secs" => {
                    cfg.phase = Duration::from_secs_f64(take(&mut i).parse().expect("secs"))
                }
                "--objects" => cfg.objects = take(&mut i).parse().expect("--objects"),
                "--value-len" => cfg.value_len = take(&mut i).parse().expect("--value-len"),
                "--epoch-ms" => cfg.epoch_ms = take(&mut i).parse().expect("--epoch-ms"),
                "--seed" => cfg.seed = take(&mut i).parse().expect("--seed"),
                "--quick" => {
                    cfg.balancers = 1;
                    cfg.clients = 4;
                    cfg.phase = Duration::from_secs(1);
                    cfg.objects = 256;
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        assert!(cfg.balancers > 0 && cfg.clients > 0);
        cfg
    }
}

/// Kills the child on drop so a failed run leaves no strays.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn snoopyd_path() -> PathBuf {
    if let Ok(p) = std::env::var("SNOOPYD_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("snoopyd");
    assert!(
        p.exists(),
        "snoopyd binary not found at {} — build it first (cargo build --release -p snoopy-net) \
         or set SNOOPYD_BIN",
        p.display()
    );
    p
}

fn spawn_daemon(bin: &Path, role: &str, index: usize, manifest: &Path) -> Daemon {
    let child = Command::new(bin)
        .arg("--role")
        .arg(role)
        .arg("--index")
        .arg(index.to_string())
        .arg("--manifest")
        .arg(manifest)
        .stdin(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn snoopyd {role}/{index}: {e}"));
    Daemon(child)
}

fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect()
}

fn wait_for_stats(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match fetch_stats(addr) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("daemon at {addr} never came up: {e}"),
        }
    }
}

const OLD_S: usize = 4;
const NEW_S: usize = 8;

fn main() {
    let cfg = Config::parse();
    let bin = snoopyd_path();
    let dir = std::env::temp_dir().join(format!("snoopy-fig14-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");

    let k = cfg.balancers;
    let addrs = free_addrs(k + NEW_S);
    let manifest = Manifest {
        value_len: cfg.value_len,
        lambda: 128,
        seed: cfg.seed,
        num_objects: cfg.objects,
        epoch_ms: cfg.epoch_ms,
        sub_deadline_ms: 10_000,
        max_replays: 3,
        retain_epochs: 8,
        active_suborams: OLD_S,
        lb_threads: 1,
        sub_threads: 1,
        storage: snoopy_store::StorageKind::from_env(),
        store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
        block_bytes: 4096,
        buffer_blocks: 64,
        load_balancers: addrs[..k].to_vec(),
        suborams: addrs[k..].to_vec(),
    };
    let manifest_path = dir.join("cluster.manifest");
    std::fs::write(&manifest_path, manifest.render()).expect("write manifest");

    println!(
        "[fig14-live] booting {k} balancer(s) + {NEW_S} provisioned subORAMs ({OLD_S} active), \
         {} closed-loop clients, {:.1}s per phase",
        cfg.clients,
        cfg.phase.as_secs_f64()
    );
    let mut daemons = Vec::new();
    for i in 0..NEW_S {
        daemons.push(spawn_daemon(&bin, "suboram", i, &manifest_path));
    }
    for i in 0..k {
        daemons.push(spawn_daemon(&bin, "loadbalancer", i, &manifest_path));
    }
    for addr in &addrs {
        wait_for_stats(addr);
    }

    let deploy = proto::deployment_key(cfg.seed);
    let completed = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // (phase name, wall seconds, ops completed in the phase, errors so far)
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut report = None;
    std::thread::scope(|scope| {
        for c in 0..cfg.clients {
            let lbs = manifest.load_balancers.clone();
            let deploy = deploy.clone();
            let (completed, errors, stop) = (&completed, &errors, &stop);
            let cfg = &cfg;
            scope.spawn(move || {
                let mut client = match SnoopyClient::builder(cfg.value_len)
                    .read_timeout(Duration::from_secs(60))
                    .connect_tcp_multi_preferring(&lbs, c % lbs.len(), &deploy)
                {
                    Ok(cl) => cl,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                let mut payload = vec![0u8; cfg.value_len];
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let id = (n * 7 + c as u64) % cfg.objects;
                    let result = if n.is_multiple_of(10) {
                        payload[..8].copy_from_slice(&n.to_le_bytes());
                        client.write(id, &payload).map(|_| ())
                    } else {
                        client.read(id).map(|_| ())
                    };
                    match result {
                        Ok(()) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    n += 1;
                }
            });
        }

        let mut phase = |name: &str, ops: u64, secs: f64| {
            let rps = ops as f64 / secs.max(1e-9);
            println!("[fig14-live] {name}: {} reqs/s over {secs:.2}s", fmt(rps));
            rows.push(vec![
                name.to_string(),
                format!("{secs:.3}"),
                ops.to_string(),
                errors.load(Ordering::Relaxed).to_string(),
                format!("{rps:.0}"),
            ]);
        };

        // Phase 1: steady state on the old fleet.
        let mark = completed.load(Ordering::Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(cfg.phase);
        let before_ops = completed.load(Ordering::Relaxed) - mark;
        phase("before", before_ops, t0.elapsed().as_secs_f64());

        // Phase 2: the live reshard, clients still running.
        let mark = completed.load(Ordering::Relaxed);
        let t0 = Instant::now();
        match snoopy_net::reshard_cluster(&manifest, NEW_S, ReshardOptions::default()) {
            Ok(r) => {
                let during_ops = completed.load(Ordering::Relaxed) - mark;
                phase("during", during_ops, t0.elapsed().as_secs_f64());
                println!(
                    "[fig14-live] reshard generation {}: {OLD_S} -> {NEW_S} subORAMs, \
                     {} objects moved, {} sealed batches per node per direction",
                    r.generation,
                    r.objects_moved,
                    snoopy_net::reshard::migration_batches(manifest.num_objects)
                );
                report = Some(r);
            }
            Err(e) => {
                stop.store(true, Ordering::Relaxed);
                panic!("[fig14-live] reshard failed: {e}");
            }
        }

        // Phase 3: steady state on the grown fleet.
        let mark = completed.load(Ordering::Relaxed);
        let t0 = Instant::now();
        std::thread::sleep(cfg.phase);
        let after_ops = completed.load(Ordering::Relaxed) - mark;
        phase("after", after_ops, t0.elapsed().as_secs_f64());

        stop.store(true, Ordering::Relaxed);
    });

    for addr in &addrs {
        let _ = shutdown_daemon(addr);
    }
    drop(daemons);

    let header = ["phase", "seconds", "completed", "errors_cum", "rps"];
    print_table("Figure 14 (real plane): throughput across a live 4->8 reshard", &header, &rows);
    write_csv("fig14_live_reshard", &header, &rows);

    let report = report.expect("reshard report");
    assert_eq!(report.new_s, NEW_S);
    let before_rps: f64 = rows[0][4].parse().unwrap();
    let after_rps: f64 = rows[2][4].parse().unwrap();
    // Directional claims: the cluster completes work in every phase, and the
    // grown fleet is no slower than the old one (generously margined — this
    // is loopback TCP on one machine, not 18 Azure hosts).
    for row in &rows {
        assert!(row[2].parse::<u64>().unwrap() > 0, "phase {} completed nothing", row[0]);
    }
    assert!(
        after_rps >= before_rps * 0.5,
        "post-reshard throughput collapsed: before {before_rps} vs after {after_rps}"
    );
    println!("[fig14-live] OK: served every phase; after/before = {:.2}", after_rps / before_rps);
    let _ = std::fs::remove_dir_all(&dir);
}
