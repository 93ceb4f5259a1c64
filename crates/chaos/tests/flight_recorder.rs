//! The flight recorder under chaos: a killed subORAM's degraded epochs must
//! be *explained* by the in-process event ring — and every event the epoch
//! loops emit must carry a public provenance trail.
//!
//! Runs in its own test binary so the process-wide recorder holds exactly
//! this cluster's events.

use snoopy_chaos::harness::{each_cell, CELLS};
use snoopy_chaos::{chaos_seed, FaultPlan, FaultPlanConfig};
use snoopy_core::transport::EpochFaultPolicy;
use snoopy_core::{InProcessCluster, SnoopyConfig};
use snoopy_enclave::wire::StoredObject;
use snoopy_telemetry::events::{self, EventKind};
use snoopy_telemetry::Provenance;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const VLEN: usize = 24;
const NUM_OBJECTS: u64 = 96;

fn objects() -> Vec<StoredObject> {
    (0..NUM_OBJECTS).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
}

/// The provenances each daemon-emitted event kind is allowed to carry. This
/// is the runtime half of the leakage argument: the compile-time half (a
/// `Secret<u64>` cannot even be attached) lives in `telemetry::events`'s
/// `compile_fail` doctest.
fn allowed_provenances(kind: EventKind) -> &'static [Provenance] {
    match kind {
        EventKind::EpochStart | EventKind::EpochDegraded => {
            &[Provenance::RequestVolume, Provenance::WireObservable]
        }
        EventKind::BatchSealed => &[Provenance::Config, Provenance::WireObservable],
        EventKind::SubReply
        | EventKind::ReplayWave
        | EventKind::ReplayEvicted
        | EventKind::CheckpointCommit
        | EventKind::StorageCommit
        | EventKind::NetAccept
        | EventKind::NetClose
        | EventKind::NetBackpressure => &[Provenance::WireObservable],
        // A reshard is a public reconfiguration event: generation and fleet
        // size are operator-chosen configuration, never request-derived.
        EventKind::ReshardCommit | EventKind::ReshardAbort => &[Provenance::Config],
        // A stale-layout refusal names the wire-visible batch (epoch, lb)
        // plus the configured generation it was stamped with.
        EventKind::StaleLayoutBatch => &[Provenance::Config, Provenance::WireObservable],
        EventKind::Shutdown | EventKind::ClientRefused => &[],
        // A fail-stop exit names the panicking thread and its source line,
        // both constants of the build.
        EventKind::Panic => &[Provenance::Config],
    }
}

#[test]
fn killed_suboram_chaos_is_explained_by_the_flight_recorder() {
    let seed = chaos_seed(0xC4A5_0004);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&CELLS, |cell| {
        // SubORAM 1 dead for epochs 0 and 1, healthy after (same plan shape as
        // the typed-degrade chaos test).
        let plan = Arc::new(FaultPlan::new(FaultPlanConfig::new(seed).kill(1, 0, 2)));
        let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(40), 1);
        // Earlier cells' events stay in the process-wide ring; skip them.
        let first_seq = events::recorder().snapshot().last().map_or(0, |e| e.seq + 1);
        let mut cluster = InProcessCluster::start_with_faults(cfg, objects(), 29, policy, plan);
        let client = cluster.client();

        for epoch in 0..4u64 {
            let rx = client.read_async(epoch % NUM_OBJECTS);
            cluster.tick();
            let reply = rx.recv_timeout(Duration::from_secs(30)).expect("cluster hung");
            assert_eq!(reply.is_err(), epoch < 2, "epoch {epoch} on the wrong side of the heal");
        }
        cluster.shutdown();

        let mut ring = events::recorder().snapshot();
        ring.retain(|e| e.seq >= first_seq);
        let kinds: BTreeSet<EventKind> = ring.iter().map(|e| e.kind).collect();
        for kind in [
            EventKind::EpochStart,
            EventKind::BatchSealed,
            EventKind::SubReply,
            EventKind::ReplayWave,
            EventKind::EpochDegraded,
        ] {
            assert!(kinds.contains(&kind), "epoch loops never emitted {kind:?}; saw {kinds:?}");
        }

        // Attribution: the replay waves and both degraded epochs name exactly
        // the killed subORAM, with the epoch ids the client saw fail.
        assert!(ring
            .iter()
            .any(|e| e.kind == EventKind::ReplayWave && e.field("suboram") == Some(1)));
        for epoch in [0u64, 1] {
            let ev = ring
                .iter()
                .find(|e| e.kind == EventKind::EpochDegraded && e.field("epoch") == Some(epoch))
                .unwrap_or_else(|| panic!("degraded epoch {epoch} not in the ring"));
            assert_eq!(ev.field("subs_mask"), Some(1 << 1), "wrong subORAM blamed: {ev:?}");
            assert_eq!(ev.field("failed"), Some(1));
        }
        // The healed epochs committed: per-epoch replies from both subORAMs.
        assert!(ring.iter().any(|e| e.kind == EventKind::SubReply && e.field("epoch") == Some(3)));

        // Provenance audit over every event the daemons emitted: each field
        // entered through the Public gate, and each kind carries only the
        // provenances its public fields can have.
        for e in &ring {
            assert_eq!(
                e.provenances.is_empty(),
                e.fields.is_empty(),
                "fields without a provenance trail: {e:?}"
            );
            for p in &e.provenances {
                assert!(
                    allowed_provenances(e.kind).contains(p),
                    "{:?} carries unexpected provenance {p:?}",
                    e.kind
                );
            }
        }
    });
}
