//! Per-epoch telemetry.
//!
//! Operators of the real system watch exactly these quantities: how much of
//! each batch is dummy padding (the security tax of Theorem 3), where epoch
//! time goes (balancer pipelines vs. subORAM scans), and how request volume
//! moves batch size. All values here are *public* under the paper's leakage
//! definition (§2.1) — they are functions of request counts and
//! configuration — so exporting them to monitoring leaks nothing new; the
//! export path itself goes through [`snoopy_telemetry::Public`], which
//! enforces that claim structurally.

use snoopy_telemetry::{metrics, Public};
use std::time::Duration;

/// Statistics for one executed epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochStats {
    /// Raw client requests received across all balancers.
    pub requests: usize,
    /// Total batch entries sent (`L_active · S · B`).
    pub batch_entries_sent: usize,
    /// Wall-clock spent in balancer batch generation.
    pub lb_make_time: Duration,
    /// Wall-clock spent in subORAM batch processing.
    pub suboram_time: Duration,
    /// Wall-clock spent in balancer response matching.
    pub lb_match_time: Duration,
}

/// Publishes one executed epoch into the process-wide metrics registry
/// ([`snoopy_telemetry::metrics::global`]): the epoch, request and
/// batch-entry counters, and one latency histogram per named stage. The
/// reference engine and the transport loops both call it, so scrapes expose
/// the same series on every plane; only the middle stage's name differs
/// (`suboram_scan` in the engine, `sub_wait` on the planes, where it also
/// covers the network and queueing). All inputs are public (§2.1): request
/// volume, wire-observable entry counts, and timings of data-independent
/// code.
pub(crate) fn record_epoch_metrics(
    requests: usize,
    entries_sent: usize,
    stages: [(&'static str, Duration); 3],
) {
    let reg = metrics::global();
    reg.counter(metrics::names::EPOCHS_TOTAL, "epochs executed").inc(Public::wire_observable(()));
    reg.counter(metrics::names::REQUESTS_TOTAL, "client requests admitted into epochs")
        .add(Public::request_volume(requests as u64));
    reg.counter(
        metrics::names::BATCH_ENTRIES_TOTAL,
        "batch entries sent to subORAMs (real + padding)",
    )
    .add(Public::wire_observable(entries_sent as u64));
    for (stage, time) in stages {
        metrics::stage_histogram(stage).observe(Public::timing(time));
    }
}
