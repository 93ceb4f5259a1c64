//! snoopy-chaos: the deterministic chaos harness.
//!
//! Clouds kill processes, drop links, and stall sockets; Snoopy's epoch
//! protocol claims to survive all of that (the fault-tolerance layer in
//! [`snoopy_core::transport`]). This crate turns that claim into repeatable
//! tests:
//!
//! * [`plan::FaultPlan`] — a **seeded** fault schedule. Every decision (drop
//!   / duplicate / delay / close / partition) is a pure function of the seed
//!   and the message's public coordinates `(direction, lb, suboram, epoch,
//!   attempt)`, so the same seed replays the same faults and two runs under
//!   the same plan produce identical retry/replay telemetry. Retried
//!   messages get a fresh `attempt` number — a retry is a *new* coin flip,
//!   not a rerun of the old one, so a lossy link eventually heals instead of
//!   deterministically eating every replay forever.
//! * For the **in-process plane**, a `FaultPlan` plugs straight into
//!   [`snoopy_core::InProcessCluster::start_with_faults`] (it implements
//!   [`snoopy_core::FaultInjector`]); faults are injected before sealing, so
//!   replays stay byte-identical re-seals.
//! * For the **TCP plane**, [`proxy::FaultProxy`] is a fault-injecting
//!   listener the balancer dials instead of the real subORAM: it pumps
//!   frames both ways and applies the plan to sealed `BATCH` /
//!   `RESP_BATCH` frames in flight. On the wire, a drop or duplicate
//!   desynchronizes the AEAD link's strict nonce sequence, which kills the
//!   session and forces the full re-dial + replay recovery path — exactly
//!   the machinery a real lossy network exercises.
//! * [`harness`] — the multi-process plumbing the TCP-plane suites share:
//!   spawn, SIGKILL and reap `snoopyd` daemons, pick loopback ports, and
//!   wait for a daemon's admin RPCs to come up.
//!
//! Everything the plan acts on is public (wire-observable message
//! coordinates), and every injected fault is counted through
//! [`snoopy_telemetry`] under `snoopy_faults_injected_total{kind=...}`.
//!
//! Chaos tests read the `CHAOS_SEED` environment variable (see
//! [`chaos_seed`]) and print the seed they ran with, so a failure names the
//! exact schedule needed to reproduce it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod plan;
pub mod proxy;

pub use plan::{DirectionFaults, FaultPlan, FaultPlanConfig, Partition, PlanSummary};
pub use proxy::FaultProxy;

/// The seed chaos tests run under: `CHAOS_SEED` from the environment, or
/// `default` if unset/unparsable. Tests print the value they used so a
/// failure is reproducible with `CHAOS_SEED=<seed> cargo test ...`.
pub fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}
