//! Multi-process test support: `snoopyd` daemons as child processes.
//!
//! The TCP-plane integration suites boot real clusters from a manifest on
//! loopback ports, SIGKILL and restart daemons mid-run, and shut them down
//! over the admin RPC. This module is the one copy of the plumbing they
//! share. The daemon binary comes in as a path, since only the suites of
//! the crate that builds it can name it (`env!("CARGO_BIN_EXE_snoopyd")`).

use snoopy_net::fetch_health;
use std::ffi::OsStr;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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
