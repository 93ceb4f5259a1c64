//! Multi-process test support: `snoopyd` daemons as child processes, and
//! the tier × threads matrix every cluster suite runs its scenarios over.
//!
//! The TCP-plane integration suites boot real clusters from a manifest on
//! loopback ports, SIGKILL and restart daemons mid-run, and shut them down
//! over the admin RPC. This module is the one copy of the plumbing they
//! share. The daemon binary comes in as a path, since only the suites of
//! the crate that builds it can name it (`env!("CARGO_BIN_EXE_snoopyd")`).

use snoopy_core::{SnoopyConfig, StorageKind};
use snoopy_net::fetch_health;
use std::ffi::OsStr;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One cell of the deployment matrix: a storage tier and the enclave
/// thread count of every balancer and subORAM.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Where every subORAM partition lives.
    pub storage: StorageKind,
    /// Enclave threads per balancer and per subORAM.
    pub threads: usize,
}

impl Cell {
    /// `config`, deployed in this cell.
    pub fn apply(self, config: SnoopyConfig) -> SnoopyConfig {
        config.storage(self.storage).threads(self.threads, self.threads)
    }
}

/// {memory, 1}, {memory, 4} and {disk, 1}: the serial deployment, the
/// parallel kernels and the streaming disk tier.
pub const CELLS: [Cell; 3] = [
    Cell { storage: StorageKind::Memory, threads: 1 },
    Cell { storage: StorageKind::Memory, threads: 4 },
    Cell { storage: StorageKind::Disk, threads: 1 },
];

/// Runs `scenario` in each of `cells`, one after another, so no more
/// clusters are up at once than a single run boots; a failure panics again
/// with its cell's name in front of the message.
pub fn each_cell(cells: &[Cell], mut scenario: impl FnMut(Cell)) {
    for &cell in cells {
        let Err(panic) = catch_unwind(AssertUnwindSafe(|| scenario(cell))) else { continue };
        let msg = panic.downcast_ref::<String>().map(String::as_str);
        panic!("{cell:?}: {}", msg.or(panic.downcast_ref::<&str>().copied()).unwrap_or("?"));
    }
}

/// How long a daemon gets to come up, or to exit after a shutdown RPC.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running daemon, killed on drop so a failed test leaves no strays.
pub struct Daemon {
    child: Child,
    name: String,
}

impl Daemon {
    /// Starts `bin --role role --index index --manifest manifest`, with
    /// `--checkpoint` when one is given.
    pub fn spawn(
        bin: &str,
        role: &str,
        index: usize,
        manifest: &Path,
        checkpoint: Option<&Path>,
    ) -> Daemon {
        Daemon::spawn_with_env(bin, role, index, manifest, checkpoint, &[])
    }

    /// [`Daemon::spawn`], with extra environment variables for the child.
    pub fn spawn_with_env(
        bin: &str,
        role: &str,
        index: usize,
        manifest: &Path,
        checkpoint: Option<&Path>,
        env: &[(&str, &OsStr)],
    ) -> Daemon {
        let mut cmd = Command::new(bin);
        cmd.arg("--role")
            .arg(role)
            .arg("--index")
            .arg(index.to_string())
            .arg("--manifest")
            .arg(manifest)
            .envs(env.iter().copied())
            .stdin(Stdio::null());
        if let Some(path) = checkpoint {
            cmd.arg("--checkpoint").arg(path);
        }
        Daemon { child: cmd.spawn().expect("spawn snoopyd"), name: format!("{role} {index}") }
    }

    /// SIGKILLs the daemon and reaps it.
    pub fn kill9(&mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("reap");
    }

    /// Waits for the daemon to exit on its own (after a shutdown RPC), and
    /// panics unless it exits successfully in time.
    pub fn wait_graceful(mut self) {
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "{} exited with {status}", self.name);
                    std::mem::forget(self);
                    return;
                }
                None if Instant::now() > deadline => {
                    panic!("{} did not exit after shutdown RPC", self.name)
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `n` distinct loopback addresses: ephemeral ports, bound all at once so
/// no two picks collide, then released for the daemons to bind.
pub fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect()
}

/// Waits until the daemon at `addr` answers the health RPC, and panics
/// unless it reports `role`.
pub fn wait_for_health(addr: &str, role: &str) {
    let deadline = Instant::now() + PATIENCE;
    loop {
        match fetch_health(addr) {
            Ok(h) if h.role == role => return,
            Ok(h) => panic!("{addr} reports role {}, expected {role}", h.role),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("health RPC to {addr} never came up: {e}"),
        }
    }
}

/// An unlabeled series' value in a Prometheus exposition, or `None` when
/// the series is absent (counters appear on their first increment).
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}
