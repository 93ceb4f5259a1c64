//! Snoopy, end to end.
//!
//! This crate assembles the oblivious load balancer (`snoopy-lb`) and the
//! throughput-optimized subORAM (`snoopy-suboram`) into the full system of
//! the paper:
//!
//! * [`config`] — deployment parameters (machine counts, object size, λ);
//! * [`system`] — the reference engine: a deterministic, synchronous
//!   implementation of Snoopy's epoch protocol (Fig. 21), used by the
//!   correctness/linearizability tests and as the ground truth the threaded
//!   deployment must match;
//! * [`link`] — the per-link AEAD channels (sequence-number nonces, replay
//!   protection) every deployment plane seals its batches with;
//! * [`transport`] — the deployment-plane abstraction: the load-balancer and
//!   subORAM epoch loops, generic over a [`transport::LbTransport`] /
//!   [`transport::SubTransport`] pair, with deadline-driven epoch recovery
//!   ([`transport::EpochFaultPolicy`]) and fault-injection hooks
//!   ([`transport::FaultInjector`]) for the chaos harness;
//! * [`reshard`] — elastic resharding written once for every plane: the
//!   subORAM staging machine ([`reshard::SubStaging`]) and the cluster driver
//!   ([`reshard::drive_reshard`]) over a per-plane [`reshard::ReshardFleet`];
//! * [`retry`] — deadlines, bounded attempts, and capped exponential backoff
//!   with deterministic seeded jitter ([`retry::RetryPolicy`]), shared by the
//!   TCP client, the balancer→subORAM dialer, and the admin RPCs;
//! * [`deploy`] — the in-process cluster: every load balancer and subORAM on
//!   its own OS thread, AEAD-sealed links between them, an epoch ticker, and
//!   blocking client handles (channel-backed transports);
//! * [`access`] — the Appendix D access-control extension (recursive lookup
//!   of an oblivious permission matrix, permission bits conditioning the
//!   subORAM's compare-and-sets);
//! * [`history`] — a linearizability checker implementing the Appendix C
//!   linearization order (epoch, load balancer, reads-before-writes, arrival).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod config;
pub mod deploy;
pub mod history;
pub mod link;
pub mod reshard;
pub mod retry;
pub mod stats;
pub mod system;
pub mod transport;

pub use config::{SnoopyConfig, StorageKind};
pub use deploy::{ClientHandle, InProcessCluster};
pub use link::{Link, LinkError};
pub use retry::RetryPolicy;
pub use system::{Snoopy, SnoopyError};
pub use transport::{EpochFaultPolicy, FaultAction, FaultInjector, Unavailable};
