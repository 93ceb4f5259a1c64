//! Chaos on the in-process plane: the cluster under a seeded [`FaultPlan`]
//! must either stay byte-identical to the reference engine or fail typed —
//! never hang, never corrupt.
//!
//! Reproduce a failure with `CHAOS_SEED=<printed seed> cargo test -p
//! snoopy-chaos`.

use snoopy_chaos::harness::{each_cell, CELLS};
use snoopy_chaos::{chaos_seed, DirectionFaults, FaultPlan, FaultPlanConfig, Partition};
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

/// A lossy-but-recoverable plan: drops, duplicates, and short delays on both
/// directions. Paired with a deadline policy that replays well past the drop
/// rate, every epoch must eventually commit.
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

#[test]
fn lossy_cluster_matches_reference_byte_for_byte() {
    let seed = chaos_seed(0xC4A5_0001);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&CELLS, |cell| {
        let plan = Arc::new(FaultPlan::new(lossy_plan(seed)));
        let cfg = SnoopyConfig::with_machines(1, 3).value_len(VLEN);
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(40), 12);
        let mut cluster = InProcessCluster::start_with_faults(
            cell.apply(cfg),
            objects(),
            21,
            policy,
            plan.clone(),
        );
        let client = cluster.client();
        // The reference engine stays on the serial memory-tier deployment.
        let mut reference = Snoopy::init(cfg, objects(), 21);

        for i in 0..40u64 {
            let id = (i * 11 + 2) % NUM_OBJECTS;
            let (rx, want_req) = if i % 3 == 0 {
                let payload = format!("chaos{i}").into_bytes();
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
        let summary = plan.summary();
        assert!(summary.drops > 0, "plan never dropped anything: {summary}");
        assert!(summary.duplicates > 0, "plan never duplicated anything: {summary}");
        cluster.shutdown();
    });
}

#[test]
fn killed_suboram_degrades_typed_then_heals() {
    let seed = chaos_seed(0xC4A5_0002);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&CELLS, |cell| {
        // SubORAM 1 is dead (total partition) for epochs 0 and 1, healthy after.
        let plan = Arc::new(FaultPlan::new(FaultPlanConfig::new(seed).kill(1, 0, 2)));
        let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(40), 1);
        let mut cluster =
            InProcessCluster::start_with_faults(cfg, objects(), 22, policy, plan.clone());
        let client = cluster.client();

        for epoch in 0..4u64 {
            let rx = client.read_async(epoch % NUM_OBJECTS);
            cluster.tick();
            let reply = rx.recv_timeout(Duration::from_secs(30)).expect("cluster hung");
            if epoch < 2 {
                let err = reply.expect_err("epoch under a dead subORAM must fail typed");
                assert_eq!(err.epoch, epoch);
                assert_eq!(err.failed_suborams, vec![1]);
            } else {
                let resp =
                    reply.unwrap_or_else(|u| panic!("healed epoch {epoch} still failed: {u}"));
                let mut want = (epoch % NUM_OBJECTS).to_le_bytes().to_vec();
                want.resize(VLEN, 0);
                assert_eq!(resp.value, want);
            }
        }
        // Heal is observable in the plan too: partition drops stopped at 2
        // epochs × (1 first send + 1 replay).
        assert_eq!(plan.summary().partition_drops, 4);
        cluster.shutdown();
    });
}

#[test]
fn severed_partition_wildcards_cut_every_balancer() {
    let seed = chaos_seed(0xC4A5_0003);
    eprintln!("CHAOS_SEED={seed}");
    each_cell(&CELLS, |cell| {
        // Wildcard balancer side: both balancers lose subORAM 0 in their first
        // epoch. Epoch ids are composite (`wall * k + lb`), so the first tick of
        // a 2-balancer cluster stamps ids 0 and 1 — the window spans both.
        let plan = Arc::new(FaultPlan::new(FaultPlanConfig::new(seed).partition(Partition {
            lb: None,
            suboram: Some(0),
            from_epoch: 0,
            until_epoch: 2,
        })));
        let cfg = cell.apply(SnoopyConfig::with_machines(2, 2).value_len(VLEN));
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(40), 1);
        let mut cluster = InProcessCluster::start_with_faults(cfg, objects(), 23, policy, plan);
        let client = cluster.client();
        // Two reads land on the two balancers (round-robin); both degrade.
        let rx0 = client.read_async(1);
        let rx1 = client.read_async(2);
        cluster.tick();
        for rx in [rx0, rx1] {
            let err = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("cluster hung")
                .expect_err("the first epoch must degrade on both balancers");
            assert_eq!(err.failed_suborams, vec![0]);
        }
        // The second wall epoch (ids 2 and 3) is healthy everywhere.
        let rx = client.read_async(3);
        cluster.tick();
        assert!(rx.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        cluster.shutdown();
    });
}
