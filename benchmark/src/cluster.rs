//! A real 1×2 `snoopyd` cluster as child processes on loopback TCP, plus
//! what the benchmark reads off it from outside: CPU time, peak RSS, and the
//! `metrics` RPC.

use crate::workloads::{self, Workload};
use snoopy_core::RetryPolicy;
use snoopy_net::manifest::Manifest;
use snoopy_store::{StorageKind, TempDir};
use snoopy_telemetry::slo::{parse_prometheus, Scrape};
use std::io::{self, Write as _};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to answer its first admin RPC.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the benchmark finds `snoopyd` and keeps its files. `TMPDIR` points
/// at `tmp` (which `run.sh` places inside the checkout), so every
/// `snoopy_store::TempDir` — a cluster's directory, the in-tree disk tier's
/// own — lands under it and is removed on drop, on panic too.
pub struct Env {
    /// The `snoopyd` binary.
    pub snoopyd: PathBuf,
    /// The run's scratch directory; also holds the pid file.
    pub tmp: PathBuf,
}

/// One daemon process; killed and reaped on drop, so no exit path — a
/// failed verification, a panic — leaves a `snoopyd` behind.
pub struct Daemon {
    child: Child,
    /// Its listen address.
    pub addr: String,
}

impl Daemon {
    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A booted cluster. Field order is drop order: daemons die before their
/// directory goes.
pub struct Cluster {
    /// The load balancer.
    pub lb: Daemon,
    /// The subORAMs, by index.
    pub subs: Vec<Daemon>,
    /// The manifest every daemon was started from.
    pub manifest: Manifest,
    /// When the first daemon was spawned (`setup_s` starts here).
    pub spawned_at: Instant,
    _dir: TempDir,
}

fn free_addrs(n: usize) -> io::Result<Vec<String>> {
    // Bind all first so the kernel hands out distinct ports, then release.
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    listeners.iter().map(|l| Ok(l.local_addr()?.to_string())).collect()
}

fn wait_until_up(daemon: &mut Daemon, what: &str) -> io::Result<()> {
    let deadline = Instant::now() + BOOT_TIMEOUT;
    loop {
        if snoopy_net::fetch_health_with(&daemon.addr, &RetryPolicy::once()).is_ok() {
            return Ok(());
        }
        if let Some(status) = daemon.child.try_wait()? {
            return Err(io::Error::other(format!("{what} exited during boot: {status}")));
        }
        if Instant::now() > deadline {
            return Err(io::Error::other(format!("{what} never answered on {}", daemon.addr)));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Cluster {
    /// Boots the workload's cluster the way an operator would: subORAMs
    /// first, the balancer once they answer (its boot-time layout probe
    /// backs off in 250 ms steps when nobody does, which would quantise the
    /// set-up time), then waits for the balancer to accept.
    pub fn boot(w: &Workload, seed: u64, env: &Env, tag: &str) -> io::Result<Cluster> {
        let dir = TempDir::new(&format!("cluster-{tag}"))?;
        let addrs = free_addrs(1 + workloads::SUBORAMS)?;
        let manifest = Manifest {
            value_len: w.value_len,
            lambda: workloads::LAMBDA,
            seed,
            num_objects: w.objects,
            epoch_ms: workloads::EPOCH_MS,
            sub_deadline_ms: 10_000,
            max_replays: 3,
            retain_epochs: 8,
            active_suborams: 0,
            lb_threads: 1,
            sub_threads: 1,
            storage: w.storage,
            store_dir: (w.storage == StorageKind::Disk)
                .then(|| dir.path().join("store").to_string_lossy().into_owned()),
            block_bytes: workloads::DISK_BLOCK_BYTES,
            buffer_blocks: workloads::DISK_BUFFER_BLOCKS,
            load_balancers: addrs[..1].to_vec(),
            suborams: addrs[1..].to_vec(),
        };
        let manifest_path = dir.path().join("cluster.manifest");
        std::fs::write(&manifest_path, manifest.render())?;

        let spawn = |role: &str, index: usize, addr: &str| -> io::Result<Daemon> {
            let mut cmd = Command::new(&env.snoopyd);
            cmd.args(["--role", role, "--index", &index.to_string(), "--manifest"])
                .arg(&manifest_path)
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            // The durable configuration: a disk-tier subORAM checkpoints
            // every epoch before it answers.
            if role == "suboram" && w.storage == StorageKind::Disk {
                cmd.arg("--checkpoint").arg(dir.path().join(format!("sub{index}.ckpt")));
            }
            let child = cmd
                .spawn()
                .map_err(|e| io::Error::other(format!("spawn {}: {e}", env.snoopyd.display())))?;
            // run.sh kills whatever this file names if the benchmark itself
            // is killed before its destructors run.
            let mut pids =
                std::fs::OpenOptions::new().create(true).append(true).open(env.tmp.join("pids"))?;
            writeln!(pids, "{}", child.id())?;
            Ok(Daemon { child, addr: addr.to_string() })
        };

        let spawned_at = Instant::now();
        let mut subs = Vec::new();
        for (i, addr) in manifest.suborams.iter().enumerate() {
            subs.push(spawn("suboram", i, addr)?);
        }
        for (i, sub) in subs.iter_mut().enumerate() {
            wait_until_up(sub, &format!("suboram {i}"))?;
        }
        let mut lb = spawn("loadbalancer", 0, &manifest.load_balancers[0])?;
        wait_until_up(&mut lb, "loadbalancer")?;
        Ok(Cluster { lb, subs, manifest, spawned_at, _dir: dir })
    }

    fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.lb).chain(&self.subs)
    }

    /// User + system CPU consumed so far by all daemon processes, in ms.
    pub fn cpu_ms(&self) -> f64 {
        self.daemons().map(|d| proc_cpu_ms(d.pid()).unwrap_or(0.0)).sum()
    }

    /// Sum of the daemons' peak resident set sizes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemons().map(|d| proc_status_mb(d.pid(), "VmHWM:").unwrap_or(0.0)).sum()
    }

    /// Sum of the daemons' current resident set sizes, in MB.
    pub fn rss_mb(&self) -> f64 {
        self.daemons().map(|d| proc_status_mb(d.pid(), "VmRSS:").unwrap_or(0.0)).sum()
    }

    /// One poll of every daemon's `metrics` RPC.
    pub fn scrape(&self) -> io::Result<ClusterScrape> {
        let fetch = |addr: &str| -> io::Result<Scrape> {
            parse_prometheus(&snoopy_net::fetch_metrics(addr)?).map_err(io::Error::other)
        };
        Ok(ClusterScrape {
            at: Instant::now(),
            lb: fetch(&self.lb.addr)?,
            subs: self.subs.iter().map(|s| fetch(&s.addr)).collect::<io::Result<_>>()?,
        })
    }
}

/// Linux reports process times in `USER_HZ` ticks, 100 per second on every
/// mainstream configuration.
const MS_PER_TICK: f64 = 10.0;

fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * MS_PER_TICK)
}

/// A kB field of `/proc/<pid>/status` (`VmRSS:`, `VmHWM:`), in MB.
fn proc_status_mb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Every daemon's exposition at one instant.
pub struct ClusterScrape {
    /// When the poll finished.
    pub at: Instant,
    /// The balancer's series.
    pub lb: Scrape,
    /// Each subORAM's series.
    pub subs: Vec<Scrape>,
}

fn stage_sum_count(s: &Scrape, stage: &str) -> (f64, f64) {
    (
        s.value_labeled("snoopy_stage_seconds_sum", "stage", stage).unwrap_or(0.0),
        s.value_labeled("snoopy_stage_seconds_count", "stage", stage).unwrap_or(0.0),
    )
}

/// Mean duration (ms) of `stage` between two scrapes of one daemon.
fn stage_mean_ms(first: &Scrape, last: &Scrape, stage: &str) -> f64 {
    let (s0, c0) = stage_sum_count(first, stage);
    let (s1, c1) = stage_sum_count(last, stage);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0) * 1e3
    } else {
        0.0
    }
}

/// The `net.*` rows: what the daemons' own counters and stage histograms say
/// an epoch cost between the first and the last scrape of a phase.
pub fn net_rows(first: &ClusterScrape, last: &ClusterScrape) -> Vec<(&'static str, f64)> {
    let wall_s = last.at.duration_since(first.at).as_secs_f64();
    let epochs = last.lb.sum("snoopy_epochs_total") - first.lb.sum("snoopy_epochs_total");
    let requests = last.lb.sum("snoopy_requests_total") - first.lb.sum("snoopy_requests_total");
    let epoch_wall_ms = if epochs > 0.0 { wall_s / epochs * 1e3 } else { 0.0 };
    let lb_stage = |stage| stage_mean_ms(&first.lb, &last.lb, stage);
    let sub_stage = |stage| {
        let per_sub: Vec<f64> =
            first.subs.iter().zip(&last.subs).map(|(a, b)| stage_mean_ms(a, b, stage)).collect();
        per_sub.iter().sum::<f64>() / per_sub.len().max(1) as f64
    };
    let (make, wait, matched) = (lb_stage("lb_make"), lb_stage("sub_wait"), lb_stage("lb_match"));
    let unattributed =
        if epoch_wall_ms > 0.0 { 1.0 - (make + wait + matched) / epoch_wall_ms } else { 0.0 };
    vec![
        ("net.epoch_wall_ms", epoch_wall_ms),
        ("net.reqs_per_epoch", if epochs > 0.0 { requests / epochs } else { 0.0 }),
        ("net.stage.lb_make_ms", make),
        ("net.stage.sub_wait_ms", wait),
        ("net.stage.lb_match_ms", matched),
        ("net.stage.suboram_scan_ms", sub_stage("suboram_scan")),
        ("net.stage.store_scan_ms", sub_stage("store_scan")),
        ("net.stage.store_commit_ms", sub_stage("store_commit")),
        ("net.stage.checkpoint_seal_ms", sub_stage("checkpoint_seal")),
        ("net.unattributed_frac", unattributed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(proc_cpu_ms(pid).is_some());
        assert!(proc_status_mb(pid, "VmRSS:").unwrap() > 0.0);
        assert!(
            proc_status_mb(pid, "VmHWM:").unwrap() >= proc_status_mb(pid, "VmRSS:").unwrap() * 0.5
        );
    }

    #[test]
    fn free_ports_are_distinct() {
        let addrs = free_addrs(3).unwrap();
        assert!(addrs[0] != addrs[1] && addrs[1] != addrs[2] && addrs[0] != addrs[2]);
    }

    #[test]
    fn net_rows_come_from_counter_deltas() {
        let scrape = |epochs: u32, requests: u32, make_sum: f64| {
            parse_prometheus(&format!(
                "snoopy_epochs_total {epochs}\nsnoopy_requests_total {requests}\n\
                 snoopy_stage_seconds_sum{{stage=\"lb_make\"}} {make_sum}\n\
                 snoopy_stage_seconds_count{{stage=\"lb_make\"}} {epochs}\n"
            ))
            .unwrap()
        };
        let t0 = Instant::now();
        let first = ClusterScrape { at: t0, lb: scrape(10, 1000, 0.1), subs: vec![] };
        let last = ClusterScrape {
            at: t0 + Duration::from_secs(1),
            lb: scrape(30, 6000, 0.3),
            subs: vec![],
        };
        let rows: std::collections::HashMap<_, _> = net_rows(&first, &last).into_iter().collect();
        assert!((rows["net.epoch_wall_ms"] - 50.0).abs() < 1e-9);
        assert!((rows["net.reqs_per_epoch"] - 250.0).abs() < 1e-9);
        assert!((rows["net.stage.lb_make_ms"] - 10.0).abs() < 1e-9);
        assert!((rows["net.unattributed_frac"] - 0.8).abs() < 1e-9);
    }
}
