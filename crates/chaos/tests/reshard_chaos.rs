//! Chaos on the elastic reshard protocol, channel plane: a live grow and a
//! live shrink ride a lossy data plane and the cluster stays byte-identical
//! to the reference engine — the migration's control traffic and the epoch
//! pipeline's replay machinery must not trip over each other.
//!
//! (The net plane's mid-migration SIGKILL → rollback scenario lives in
//! `crates/net/tests/reshard.rs`; this file attacks the in-process plane,
//! where faults are injected before sealing.)
//!
//! Reproduce a failure with `CHAOS_SEED=<printed seed> cargo test -p
//! snoopy-chaos`.

use snoopy_chaos::harness::{each_cell, CELLS};
use snoopy_chaos::{chaos_seed, DirectionFaults, FaultPlan, FaultPlanConfig};
use snoopy_core::transport::EpochFaultPolicy;
use snoopy_core::{InProcessCluster, Snoopy, SnoopyConfig};
use snoopy_enclave::wire::{Request, StoredObject};
use std::sync::Arc;
use std::time::Duration;

const VLEN: usize = 24;
const NUM_OBJECTS: u64 = 96;

fn objects() -> Vec<StoredObject> {
    (0..NUM_OBJECTS).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
}

fn lossy_plan(seed: u64) -> FaultPlanConfig {
    let faults = DirectionFaults {
        drop_per_mille: 150,
        duplicate_per_mille: 150,
        delay_per_mille: 100,
        close_per_mille: 0,
        delay: Duration::from_millis(1),
    };
    FaultPlanConfig::new(seed).batch(faults).response(faults)
}

/// Runs `ops` reads/writes against both the chaos cluster and the reference
/// engine, panicking on the first divergence.
fn drive(cluster: &mut InProcessCluster, reference: &mut Snoopy, base: u64, ops: u64) {
    let client = cluster.client();
    for i in base..base + ops {
        let id = (i * 11 + 2) % NUM_OBJECTS;
        let (rx, want_req) = if i % 3 == 0 {
            let payload = format!("reshard{i}").into_bytes();
            (client.write_async(id, &payload), Request::write(id, &payload, VLEN, 0, i))
        } else {
            (client.read_async(id), Request::read(id, VLEN, 0, i))
        };
        cluster.tick();
        let got = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("cluster hung under faults")
            .unwrap_or_else(|u| panic!("op {i} degraded under a recoverable plan: {u}"));
        let want = reference.execute_epoch_single(vec![want_req]).unwrap();
        assert_eq!(got.value, want[0].value, "op {i} diverged from the reference engine");
    }
}

#[test]
fn grow_and_shrink_ride_a_lossy_data_plane_byte_for_byte() {
    let seed = chaos_seed(0xC4A5_0010);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&[CELLS[0], CELLS[2]], |cell| {
        let plan = Arc::new(FaultPlan::new(lossy_plan(seed)));
        // 4 provisioned subORAMs, 2 holding data: room to grow and shrink.
        let cfg = SnoopyConfig::with_machines(1, 4).value_len(VLEN).active_suborams(2);
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(40), 12);
        let mut cluster = InProcessCluster::start_with_faults(
            cell.apply(cfg),
            objects(),
            31,
            policy,
            plan.clone(),
        );
        let mut reference = Snoopy::init(cfg, objects(), 31);

        // Steady state on 2, then a live grow to 4, then a shrink to 3 — each
        // phase byte-compared to the (never-resharded) reference. The fault plan
        // keeps dropping and duplicating data-plane batches throughout, so the
        // migration boundaries land between replay waves.
        drive(&mut cluster, &mut reference, 0, 15);
        cluster.reshard(4).expect("grow 2->4 under a lossy data plane");
        assert_eq!((cluster.generation(), cluster.active_suborams()), (1, 4));
        drive(&mut cluster, &mut reference, 15, 15);
        cluster.reshard(3).expect("shrink 4->3 under a lossy data plane");
        assert_eq!((cluster.generation(), cluster.active_suborams()), (2, 3));
        drive(&mut cluster, &mut reference, 30, 15);

        let summary = plan.summary();
        assert!(summary.drops > 0, "plan never dropped anything: {summary}");
        assert!(summary.duplicates > 0, "plan never duplicated anything: {summary}");
        cluster.shutdown();
    });
}

#[test]
fn reshard_refuses_to_leave_the_provisioned_fleet() {
    let seed = chaos_seed(0xC4A5_0011);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&[CELLS[0], CELLS[2]], |cell| {
        let plan = Arc::new(FaultPlan::new(lossy_plan(seed)));
        let cfg = SnoopyConfig::with_machines(1, 2).value_len(VLEN);
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(40), 12);
        let mut cluster =
            InProcessCluster::start_with_faults(cell.apply(cfg), objects(), 32, policy, plan);
        // Out-of-range targets fail typed without disturbing the live layout…
        cluster.reshard(0).expect_err("new_s = 0 must be refused");
        cluster.reshard(3).expect_err("new_s beyond the provisioned fleet must be refused");
        assert_eq!((cluster.generation(), cluster.active_suborams()), (0, 2));
        // …and the cluster still serves correctly afterwards.
        let mut reference = Snoopy::init(cfg, objects(), 32);
        drive(&mut cluster, &mut reference, 0, 6);
        cluster.shutdown();
    });
}
