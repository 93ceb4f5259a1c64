//! Live elastic resharding on the real TCP plane.
//!
//! Three scenarios against real `snoopyd` processes, all on a fleet of 8
//! *provisioned* subORAMs, each run once on the memory tier and once on
//! the disk tier (cells 0 and 2 of [`CELLS`]):
//!
//! 1. **Grow 4→8, CLI-driven.** Clients write acknowledged values, then
//!    `snoopyd reshard --new-s 8` runs the live migration while the daemons
//!    keep serving. Zero acknowledged writes may be lost, and every
//!    post-reshard response must be byte-identical to a fresh cluster built
//!    at S=8 from the same seed with the same writes applied. The cluster is
//!    then SIGKILLed wholesale and rebooted from checkpoints: the balancers
//!    must re-adopt the *new* layout from the subORAM checkpoints
//!    (generation-stamped recovery — exactly one of {old, new}, never a mix).
//!
//! 2. **Mid-migration kill.** A subORAM joining the fleet is SIGKILLed
//!    after export but before any node commits. The driver must abort, the
//!    cluster must keep serving the *old* layout with zero lost acknowledged
//!    writes, and no node may report a committed new generation.
//!
//! 3. **Shrink 8→4.** The retired subORAMs stay up (warm spares) but the
//!    routing table contracts; every acknowledged write survives the move.

use snoopy_chaos::harness::{each_cell, free_addrs, wait_for_health, Cell, Daemon, CELLS};
use snoopy_core::RetryPolicy;
use snoopy_net::manifest::Manifest;
use snoopy_net::{fetch_health, probe_layout, proto, shutdown_daemon, SnoopyClient};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

const VLEN: usize = 32;
const NUM_OBJECTS: u64 = 64;
const SEED: u64 = 47;
const PROVISIONED: usize = 8;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

struct Cluster {
    manifest: Manifest,
    manifest_path: PathBuf,
    daemons: Vec<Daemon>,
    dir: PathBuf,
    balancers: usize,
    checkpoints: bool,
}

impl Cluster {
    /// Boots `balancers` balancers over `PROVISIONED` subORAMs with
    /// `active` of them routing. Balancers are `daemons[..balancers]`,
    /// subORAM `i` is `daemons[balancers + i]`.
    fn boot(cell: Cell, balancers: usize, active: usize, checkpoints: bool, tag: &str) -> Cluster {
        let dir = std::env::temp_dir().join(format!(
            "snoopy-reshard-{tag}-{}-{}",
            cell.storage,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let addrs = free_addrs(balancers + PROVISIONED);
        let manifest = Manifest {
            value_len: VLEN,
            lambda: 128,
            seed: SEED,
            num_objects: NUM_OBJECTS,
            epoch_ms: 5,
            sub_deadline_ms: 250,
            max_replays: 60,
            retain_epochs: 64,
            active_suborams: active,
            lb_threads: cell.threads as u32,
            sub_threads: cell.threads as u32,
            storage: cell.storage,
            store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
            block_bytes: 256,
            buffer_blocks: 4,
            load_balancers: addrs[..balancers].to_vec(),
            suborams: addrs[balancers..].to_vec(),
        };
        let manifest_path = dir.join("cluster.manifest");
        std::fs::write(&manifest_path, manifest.render()).unwrap();
        let mut cluster =
            Cluster { manifest, manifest_path, daemons: Vec::new(), dir, balancers, checkpoints };
        cluster.spawn_all();
        cluster
    }

    fn ckpt_path(&self, sub: usize) -> PathBuf {
        self.dir.join(format!("sub{sub}.ckpt"))
    }

    fn spawn_all(&mut self) {
        for i in 0..PROVISIONED {
            let ckpt = self.checkpoints.then(|| self.ckpt_path(i));
            self.daemons.push(Daemon::spawn(
                SNOOPYD,
                "suboram",
                i,
                &self.manifest_path,
                ckpt.as_deref(),
            ));
        }
        for i in 0..self.balancers {
            self.daemons
                .insert(i, Daemon::spawn(SNOOPYD, "loadbalancer", i, &self.manifest_path, None));
        }
        for addr in self.manifest.suborams.iter().chain(&self.manifest.load_balancers) {
            wait_for_health(
                addr,
                if self.manifest.suborams.contains(addr) { "suboram" } else { "loadbalancer" },
            );
        }
    }

    fn client(&self) -> SnoopyClient {
        let deploy = proto::deployment_key(SEED);
        SnoopyClient::builder(VLEN)
            .read_timeout(Duration::from_secs(10))
            .retry(RetryPolicy::client_default().max_attempts(120).jitter_seed(SEED))
            .connect_tcp_multi(&self.manifest.load_balancers, &deploy)
            .expect("connect")
    }

    /// SIGKILL every daemon (crash the whole cluster).
    fn kill_all(&mut self) {
        for d in &mut self.daemons {
            d.kill9();
        }
        self.daemons.clear();
    }

    fn shutdown(mut self) {
        for addr in self.manifest.load_balancers.iter().chain(&self.manifest.suborams) {
            shutdown_daemon(addr).expect("shutdown");
        }
        for d in self.daemons.drain(..) {
            d.wait_graceful();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn padded(payload: &[u8]) -> Vec<u8> {
    let mut v = payload.to_vec();
    v.resize(VLEN, 0);
    v
}

/// Writes a deterministic working set and returns the acknowledged ledger.
fn write_working_set(client: &mut SnoopyClient, tag: &str) -> HashMap<u64, Vec<u8>> {
    let mut acked = HashMap::new();
    for i in 0..16u64 {
        let id = (i * 5 + 1) % NUM_OBJECTS;
        let payload = padded(format!("{tag}{i}").as_bytes());
        client.write(id, &payload).unwrap_or_else(|e| panic!("write {i} failed: {e}"));
        acked.insert(id, payload);
    }
    acked
}

/// Reads the full object space in id order — the byte-comparison probe.
fn read_all(client: &mut SnoopyClient) -> Vec<Vec<u8>> {
    (0..NUM_OBJECTS)
        .map(|id| client.read(id).unwrap_or_else(|e| panic!("read {id} failed: {e}")))
        .collect()
}

fn assert_acked(client: &mut SnoopyClient, acked: &HashMap<u64, Vec<u8>>, when: &str) {
    for (&id, want) in acked {
        let got = client.read(id).unwrap_or_else(|e| panic!("{when}: read {id} failed: {e}"));
        assert_eq!(&got, want, "{when}: acknowledged write to {id} was lost");
    }
}

#[test]
fn cli_grow_matches_fresh_cluster_and_survives_crash_reboot() {
    each_cell(&[CELLS[0], CELLS[2]], |cell| {
        let mut grown = Cluster::boot(cell, 2, 4, true, "grow");
        let mut client = grown.client();
        let acked = write_working_set(&mut client, "grow");

        // Drive the reshard through the CLI — the operator's path.
        let status = Command::new(env!("CARGO_BIN_EXE_snoopyd"))
            .arg("reshard")
            .arg("--manifest")
            .arg(&grown.manifest_path)
            .arg("--new-s")
            .arg("8")
            .status()
            .expect("run snoopyd reshard");
        assert!(status.success(), "snoopyd reshard exited with {status}");

        // Every balancer now routes over 8; zero acknowledged writes lost.
        assert_eq!(
            probe_layout(&grown.manifest, Duration::from_secs(5)),
            Some((1, 8)),
            "cluster did not adopt generation 1 at S=8"
        );
        assert_acked(&mut client, &acked, "post-reshard");
        let grown_responses = read_all(&mut client);

        // A fresh cluster born at S=8 on the memory tier, with the same seed
        // and the same writes, must answer byte-identically.
        let fresh = Cluster::boot(CELLS[0], 2, 8, false, "fresh8");
        let mut fresh_client = fresh.client();
        for (&id, payload) in &acked {
            fresh_client.write(id, payload).expect("fresh write");
        }
        let fresh_responses = read_all(&mut fresh_client);
        assert_eq!(
            grown_responses, fresh_responses,
            "post-reshard responses differ from a fresh S=8 cluster"
        );
        fresh.shutdown();

        // Crash the whole grown cluster and reboot from checkpoints: recovery
        // must land in exactly the committed (new) layout — the balancers
        // re-learn generation 1 / S=8 from the subORAM checkpoints.
        drop(client);
        grown.kill_all();
        grown.spawn_all();
        assert_eq!(
            probe_layout(&grown.manifest, Duration::from_secs(5)),
            Some((1, 8)),
            "rebooted cluster lost the committed layout"
        );
        let mut client = grown.client();
        assert_acked(&mut client, &acked, "post-reboot");
        assert_eq!(read_all(&mut client), grown_responses, "reboot changed responses");
        grown.shutdown();
    });
}

#[test]
fn mid_migration_kill_aborts_cleanly_to_the_old_layout() {
    each_cell(&[CELLS[0], CELLS[2]], |cell| {
        let mut cluster = Cluster::boot(cell, 1, 4, false, "rollback");
        let mut client = cluster.client();
        let acked = write_working_set(&mut client, "rb");

        // Remove subORAM 7 (joining, not serving) from the daemon set so the
        // phase hook can SIGKILL it mid-migration: after every node exported,
        // before any node committed.
        let mut victim = Some(cluster.daemons.remove(1 + 7));
        let opts = snoopy_net::ReshardOptions {
            phase_hook: Some(Box::new(move |phase: &str| {
                if phase == "exported" {
                    if let Some(mut d) = victim.take() {
                        d.kill9();
                    }
                }
            })),
            ..Default::default()
        };
        let err = snoopy_net::reshard_cluster(&cluster.manifest, 8, opts)
            .expect_err("reshard must fail when a joining subORAM dies mid-migration");
        let msg = err.to_string();
        assert!(!msg.is_empty());

        // Nothing committed: no node reports a new generation, the old routing
        // table still serves, and no acknowledged write was lost.
        assert_eq!(
            probe_layout(&cluster.manifest, Duration::from_secs(5)),
            None,
            "a node committed the new generation despite the abort"
        );
        assert_acked(&mut client, &acked, "post-abort");
        // The balancer keeps sealing epochs (it is not stuck paused).
        let h = fetch_health(&cluster.manifest.load_balancers[0]).expect("health");
        let then = h.epochs;
        std::thread::sleep(Duration::from_millis(100));
        let now = fetch_health(&cluster.manifest.load_balancers[0]).expect("health").epochs;
        assert!(now > then, "balancer stopped sealing epochs after the aborted reshard");

        // Graceful teardown of the survivors (sub 7 is already dead).
        for (i, addr) in
            cluster.manifest.load_balancers.iter().chain(&cluster.manifest.suborams).enumerate()
        {
            if i == 1 + 7 {
                continue;
            }
            shutdown_daemon(addr).expect("shutdown");
        }
        for d in cluster.daemons.drain(..) {
            d.wait_graceful();
        }
        let _ = std::fs::remove_dir_all(&cluster.dir);
    });
}

#[test]
fn balancer_kill_at_the_flip_recovers_by_probing_the_committed_layout() {
    each_cell(&[CELLS[0], CELLS[2]], |cell| {
        // The ugliest crash window: every subORAM has committed the new
        // generation, and a balancer dies before its routing flip. The driver
        // reports the partial commit; the dead balancer's replacement must adopt
        // the *new* layout at boot by probing the subORAM fleet — never a mix.
        let mut cluster = Cluster::boot(cell, 2, 4, false, "rollfwd");
        let mut client = cluster.client();
        let acked = write_working_set(&mut client, "rf");

        let mut victim = Some(cluster.daemons.remove(1)); // balancer 1
        let opts = snoopy_net::ReshardOptions {
            phase_hook: Some(Box::new(move |phase: &str| {
                if phase == "committed-suborams" {
                    if let Some(mut d) = victim.take() {
                        d.kill9();
                    }
                }
            })),
            ..Default::default()
        };
        let err = snoopy_net::reshard_cluster(&cluster.manifest, 8, opts)
            .expect_err("the flip must fail when a balancer dies after the subORAMs committed");
        assert!(!err.to_string().is_empty());

        // The data already lives at generation 1 / S=8 on every subORAM.
        assert_eq!(probe_layout(&cluster.manifest, Duration::from_secs(5)), Some((1, 8)));
        // The surviving balancer flipped live; no acknowledged write is lost.
        drop(client);
        let deploy = proto::deployment_key(SEED);
        let mut survivor = SnoopyClient::builder(VLEN)
            .read_timeout(Duration::from_secs(10))
            .connect_tcp(&cluster.manifest.load_balancers[0], 0, &deploy)
            .expect("connect survivor");
        assert_acked(&mut survivor, &acked, "post-partial-flip via survivor");

        // Replace the dead balancer: its boot probe must adopt the committed
        // layout from the subORAM fleet and serve the same bytes.
        cluster
            .daemons
            .insert(1, Daemon::spawn(SNOOPYD, "loadbalancer", 1, &cluster.manifest_path, None));
        wait_for_health(&cluster.manifest.load_balancers[1], "loadbalancer");
        let mut replacement = SnoopyClient::builder(VLEN)
            .read_timeout(Duration::from_secs(10))
            .connect_tcp(&cluster.manifest.load_balancers[1], 1, &deploy)
            .expect("connect replacement");
        assert_acked(&mut replacement, &acked, "post-reboot via replacement balancer");
        assert_eq!(read_all(&mut survivor), read_all(&mut replacement));
        cluster.shutdown();
    });
}

#[test]
fn shrink_retires_suborams_without_losing_writes() {
    each_cell(&[CELLS[0], CELLS[2]], |cell| {
        let cluster = Cluster::boot(cell, 1, 8, false, "shrink");
        let mut client = cluster.client();
        let acked = write_working_set(&mut client, "sh");
        let before = read_all(&mut client);

        let report = snoopy_net::reshard_cluster(
            &cluster.manifest,
            4,
            snoopy_net::ReshardOptions::default(),
        )
        .expect("shrink 8->4");
        assert_eq!((report.old_s, report.new_s), (8, 4));
        assert_eq!(report.objects_moved as u64, NUM_OBJECTS);

        assert_eq!(
            probe_layout(&cluster.manifest, Duration::from_secs(5)),
            Some((1, 4)),
            "cluster did not adopt generation 1 at S=4"
        );
        assert_acked(&mut client, &acked, "post-shrink");
        assert_eq!(read_all(&mut client), before, "shrink changed responses");
        cluster.shutdown();
    });
}
