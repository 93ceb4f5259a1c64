//! snoopy-net: the TCP deployment plane.
//!
//! Everything the in-process cluster ([`snoopy_core::deploy`]) does with
//! threads and channels, this crate does with OS processes and TCP sockets —
//! same epoch protocol (the shared loops in [`snoopy_core::transport`]),
//! same AEAD-sealed links ([`snoopy_core::link`]), observably identical
//! responses. Built entirely on `std::net` and threads; the workspace
//! compiles with zero network access, so there is no async runtime.
//!
//! The pieces:
//!
//! * [`frame`] — length-prefixed framing (`u32` length, tag byte, body);
//! * [`proto`] — frame tags, session hellos, per-session link key derivation;
//! * [`manifest`] — the hand-rolled cluster-manifest parser;
//! * [`stats`] — per-link frame/byte/reconnect counters behind the `stats`
//!   RPC, plus the bridge into the Prometheus `metrics` RPC;
//! * [`lb_daemon`] / [`suboram_daemon`] — the two `snoopyd` roles;
//! * [`checkpoint`] — sealed subORAM state for kill/restart survival;
//! * [`session`] / [`reactor`] — the nonblocking session state machine and
//!   the readiness reactor both daemons run their connections on;
//! * [`reshard`] — elastic fleet reconfiguration over TCP: the reshard wire
//!   protocol, the public migration schedule, and the TCP fleet the shared
//!   driver ([`snoopy_core::reshard::drive_reshard`]) runs against;
//! * [`api`] — the unified [`api::SnoopyClient`] facade (TCP and
//!   channel-cluster transports behind one API);
//! * [`error`] — the typed [`error::NetError`] surface and its wire/`io`
//!   mappings;
//! * [`client`] — the admin RPCs.
//!
//! Daemons record spans (`dial`, `rpc`, `checkpoint_seal`, and the epoch
//! stages from `snoopy_core`) and metrics into the process-wide
//! [`snoopy_telemetry`] registry; `snoopyd metrics` scrapes it as
//! Prometheus text. Every exported value passes the
//! [`snoopy_telemetry::Public`] leakage gate.
//!
//! A cluster is described by one manifest file; each `snoopyd --role
//! <role> --index <i> --manifest <path>` process binds its line of it. Load
//! balancers dial subORAMs (the dialer owns reconnect/backoff); clients and
//! admins dial balancers; admins may also dial subORAMs for `stats`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod checkpoint;
pub mod client;
pub mod error;
pub mod fail_stop;
pub mod frame;
pub mod lb_daemon;
pub mod manifest;
pub mod proto;
pub mod reactor;
pub mod reshard;
pub mod session;
pub mod stats;
pub mod suboram_daemon;

pub use api::{Op, SessionTransport, SnoopyClient, SnoopyClientBuilder};
pub use client::{
    fetch_events, fetch_health, fetch_health_with, fetch_metrics, fetch_stats, fetch_trace,
    shutdown_daemon,
};
pub use error::{classify_io_error, ErrorClass, NetError};
pub use manifest::Manifest;
pub use reshard::{probe_layout, reshard_cluster};
pub use snoopy_core::reshard::{ReshardOptions, ReshardReport};
pub use stats::{parse_stats, parse_stats_header, StatsRegistry};
