//! The acceptance bar for the chaos harness: the same `FaultPlan` seed must
//! produce identical retry/replay telemetry across two runs.
//!
//! This test lives alone in its own integration binary because it reads
//! deltas of the process-wide telemetry registry; concurrent tests in the
//! same process would pollute the counters.

use snoopy_chaos::harness::{each_cell, Cell, CELLS};
use snoopy_chaos::{chaos_seed, FaultPlan, FaultPlanConfig, PlanSummary};
use snoopy_core::transport::EpochFaultPolicy;
use snoopy_core::{InProcessCluster, SnoopyConfig};
use snoopy_enclave::wire::StoredObject;
use snoopy_telemetry::metrics::{self, names};
use std::sync::Arc;
use std::time::Duration;

const VLEN: usize = 24;
const NUM_OBJECTS: u64 = 64;

/// The counters whose per-run deltas must be reproducible.
const TRACKED: &[&str] = &[
    names::REPLAYS_TOTAL,
    names::DEGRADED_EPOCHS_TOTAL,
    names::UNAVAILABLE_TOTAL,
    names::FAULTS_INJECTED_TOTAL,
];

fn counter_snapshot() -> Vec<u64> {
    // FAULTS_INJECTED_TOTAL is labeled by kind; sum via the kinds the plan
    // emits. Unlabeled counters read directly.
    let reg = metrics::global();
    let mut out: Vec<u64> = TRACKED[..3].iter().map(|n| reg.counter(n, "").value()).collect();
    for kind in ["drop", "duplicate", "delay", "close"] {
        out.push(reg.counter_labeled(TRACKED[3], "", Some(("kind", kind))).value());
    }
    out
}

/// One full scripted run: a cluster with subORAM 1 dead for epochs 0..3,
/// two requests per epoch for six epochs. Partition faults are keyed purely
/// on epoch ids, and a dead subORAM *always* runs the deadline out, so the
/// replay/degrade counts this produces are timing-independent.
fn run_workload(cell: Cell, seed: u64) -> (PlanSummary, Vec<u64>) {
    let plan = Arc::new(FaultPlan::new(FaultPlanConfig::new(seed).kill(1, 0, 3)));
    let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
    let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(30), 2);
    let objects: Vec<StoredObject> =
        (0..NUM_OBJECTS).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
    let before = counter_snapshot();
    let mut cluster = InProcessCluster::start_with_faults(cfg, objects, 31, policy, plan.clone());
    let client = cluster.client();
    for epoch in 0..6u64 {
        let rxs = [client.read_async(epoch), client.read_async(epoch + 7)];
        cluster.tick();
        for rx in rxs {
            let reply = rx.recv_timeout(Duration::from_secs(30)).expect("cluster hung");
            assert_eq!(reply.is_err(), epoch < 3, "epoch {epoch} on the wrong side of the heal");
        }
    }
    cluster.shutdown();
    let after = counter_snapshot();
    let deltas = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    (plan.summary(), deltas)
}

#[test]
fn same_seed_gives_identical_plan_summary_and_telemetry_deltas() {
    let seed = chaos_seed(0xC4A5_0004);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&CELLS, |cell| {
        let (summary_a, deltas_a) = run_workload(cell, seed);
        let (summary_b, deltas_b) = run_workload(cell, seed);
        assert_eq!(summary_a, summary_b, "plan summaries diverged across identical runs");
        assert_eq!(
            deltas_a, deltas_b,
            "telemetry deltas diverged across identical runs \
             (replays/degraded/unavailable/faults[drop,duplicate,delay,close])"
        );

        // And the run did exercise the recovery machinery, with the exact
        // counts the schedule implies: 3 dead epochs × 2 replay waves, 3
        // degraded epochs, 2 failed requests per degraded epoch.
        let [replays, degraded, unavailable, fault_drops, ..] = deltas_a[..] else {
            panic!("snapshot shape changed");
        };
        assert_eq!(replays, 6, "replay waves");
        assert_eq!(degraded, 3, "degraded epochs");
        assert_eq!(unavailable, 6, "failed client requests");
        // Partition drops: 3 epochs × (1 first send + 2 replays) = 9 batches.
        assert_eq!(fault_drops, 9, "injected drops");
        assert_eq!(summary_a.partition_drops, 9);
    });
}
