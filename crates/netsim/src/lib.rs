//! Cluster-scale simulation for the paper's distributed experiments.
//!
//! The paper's Figures 9, 10, 11, and 14 were measured on an 18-machine Azure
//! SGX cluster; this environment has one machine and no SGX, so those
//! experiments run on a **discrete-event simulation** of the cluster instead:
//!
//! * [`costmodel`] — service-time functions for the load balancer pipelines
//!   and the subORAM batch scan (plus the Path-ORAM-style and
//!   Obladi/Ring-ORAM-style baselines), with constants calibrated against the
//!   numbers the paper reports (Obladi 6,716 reqs/s; Oblix 1,153 reqs/s at
//!   1.1 ms/access; Snoopy's 847 ms single-subORAM scan of 2M objects;
//!   Fig. 12/13 component times). Structural inputs (batch size `f(R,S)`,
//!   hash-table lookup costs) come from the *real* implementation crates, so
//!   the model shape tracks the code, not a curve fit.
//! * [`epc`] — SGX's limited Enclave Page Cache, the paging cliff of Fig. 12
//!   that the cost model adds to the subORAM scan.
//! * [`cluster`] — the event-driven epoch pipeline: Poisson arrivals spread
//!   over `L` balancers, epoch boundaries every `T`, balancer compute →
//!   network → FIFO subORAM queues → network → response matching, with
//!   latency accounting per request.
//! * [`workload`] — open-loop arrival processes.
//!
//! Absolute numbers are calibrated, not measured; the experiments' claims are
//! about *shape*: who wins, how throughput scales with machines, where
//! latency SLOs bind. See `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod costmodel;
pub mod epc;
pub mod workload;

pub use cluster::{ClusterParams, ClusterSim, SimFaults, SimReport, SimReshard, SubOutage};
pub use costmodel::CostModel;
pub use workload::PoissonArrivals;
