//! Shared `StorageBackend` conformance suite: every storage tier —
//! in-enclave memory, AEAD-sealed untrusted memory, and AEAD-sealed disk
//! segments — must be observationally identical through the `SubOram`
//! interface. Same responses, same enclave-side access trace, same typed
//! refusals under host tampering. The disk tier additionally must keep its
//! block-layer I/O schedule a function of public parameters only.

use proptest::prelude::*;
use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, StoredObject};
use snoopy_obliv::trace;
use snoopy_store::{build_suboram, DiskBackend, DiskConfig, StorageKind};
use snoopy_suboram::sealed::Geometry;
use snoopy_suboram::{
    ExternalBackend, IntegrityError, ObjectSlab, StorageBackend, SubOram, SubOramError,
};

const VLEN: usize = 24;
const TIERS: [StorageKind; 3] = [StorageKind::Memory, StorageKind::External, StorageKind::Disk];

fn objects(n: u64) -> Vec<StoredObject> {
    (0..n).map(|i| StoredObject::new(i, &[(i % 251) as u8; 4], VLEN)).collect()
}

fn suboram(kind: StorageKind, n: u64) -> SubOram {
    build_suboram(kind, objects(n), VLEN, Key256([7u8; 32]), 128)
}

fn norm(mut v: Vec<Request>) -> Vec<Request> {
    v.sort_by_key(|r| (r.client, r.seq));
    v
}

/// Every tier answers the same multi-epoch workload identically, and ends
/// with the same partition state.
#[test]
fn batch_access_equivalent_across_tiers() {
    let epochs: Vec<Vec<Request>> = vec![
        vec![
            Request::write(3, &[0xAA; 4], VLEN, 0, 0),
            Request::read(40, VLEN, 1, 0),
            Request::read(90, VLEN, 2, 0),
        ],
        vec![Request::read(3, VLEN, 0, 1), Request::write(90, &[0xBB; 4], VLEN, 1, 1)],
        vec![Request::read(90, VLEN, 0, 2)],
    ];
    let mut reference = suboram(StorageKind::Memory, 128);
    let want: Vec<Vec<Request>> =
        epochs.iter().map(|b| norm(reference.batch_access(b.clone()).unwrap())).collect();
    for kind in [StorageKind::External, StorageKind::Disk] {
        let mut s = suboram(kind, 128);
        for (i, batch) in epochs.iter().enumerate() {
            let got = norm(s.batch_access(batch.clone()).unwrap());
            assert_eq!(got, want[i], "tier {kind} diverged at epoch {i}");
        }
        for id in [3u64, 40, 90, 127] {
            assert_eq!(s.peek(id), reference.peek(id), "tier {kind} state of {id}");
        }
    }
}

/// The enclave-side oblivious access trace is byte-identical across tiers:
/// where the partition lives must not change what the enclave touches.
#[test]
fn enclave_trace_identical_across_tiers() {
    let batch = || {
        vec![
            Request::write(5, &[1; 4], VLEN, 0, 0),
            Request::read(77, VLEN, 1, 0),
            Request::read(11, VLEN, 2, 0),
        ]
    };
    let fp = |kind: StorageKind| {
        let mut s = suboram(kind, 96);
        let (res, tr) = trace::capture(|| s.batch_access(batch()));
        res.unwrap();
        tr.fingerprint()
    };
    let want = fp(StorageKind::Memory);
    for kind in [StorageKind::External, StorageKind::Disk] {
        assert_eq!(fp(kind), want, "tier {kind} changed the enclave access trace");
    }
}

/// Untrusted tiers expose the adversary hooks and refuse tampered state
/// with a sticky typed error; the pure in-enclave tier has no untrusted
/// bytes to corrupt.
#[test]
fn tampering_is_refused_on_every_untrusted_tier() {
    // 300 objects: big enough that the disk tier streams (a resident disk
    // partition exposes no untrusted bytes until commit).
    for kind in [StorageKind::External, StorageKind::Disk] {
        let mut s = suboram(kind, 300);
        assert!(s.corrupt_block(1), "tier {kind} should expose the tamper hook");
        let err = s.batch_access(vec![Request::read(1, VLEN, 0, 0)]).unwrap_err();
        assert!(
            matches!(err, SubOramError::Integrity(_) | SubOramError::Storage(_)),
            "tier {kind}: {err:?}"
        );
        // Fail-stop: the refusal repeats for every later batch.
        assert_eq!(s.batch_access(vec![Request::read(2, VLEN, 0, 1)]).unwrap_err(), err);
    }
    let mut mem = suboram(StorageKind::Memory, 300);
    assert!(!mem.corrupt_block(1), "memory tier has no untrusted bytes");
    assert!(mem.untrusted_image().is_none());
    mem.batch_access(vec![Request::read(1, VLEN, 0, 0)]).unwrap();
}

/// Rolling the untrusted bytes back to an older capture is detected on
/// every tier that has them.
#[test]
fn rollback_is_refused_on_every_untrusted_tier() {
    for kind in [StorageKind::External, StorageKind::Disk] {
        let mut s = suboram(kind, 300);
        let before = s.untrusted_image().expect("untrusted tier exposes its bytes");
        s.batch_access(vec![Request::write(9, &[3; 4], VLEN, 0, 0)]).unwrap();
        assert!(s.restore_untrusted_image(&before), "tier {kind}");
        let err = s.batch_access(vec![Request::read(9, VLEN, 0, 1)]).unwrap_err();
        assert!(
            matches!(err, SubOramError::Integrity(_) | SubOramError::Storage(_)),
            "tier {kind}: {err:?}"
        );
    }
}

/// The two untrusted tiers as bare backends over `n` objects, with the
/// geometry of their sealed blocks (the disk tier streams: 4 objects a
/// block, a 2-block buffer). The blocks are the image's last
/// `nblocks × sealed_len` bytes.
fn untrusted_backends(n: u64) -> Vec<(StorageKind, Geometry, Box<dyn StorageBackend>)> {
    let key = Key256([7u8; 32]);
    let cfg = DiskConfig { block_bytes: 128, buffer_blocks: 2 };
    let part = ObjectSlab::from_objects(&objects(n), VLEN);
    let disk = DiskBackend::create_temp(part, cfg, &key).expect("create");
    let external = ExternalBackend::new(&objects(n), VLEN, &key);
    vec![
        (StorageKind::External, Geometry::new(n as usize, VLEN, 0), Box::new(external)),
        (StorageKind::Disk, Geometry::new(n as usize, VLEN, cfg.block_bytes), Box::new(disk)),
    ]
}

/// The sealed blocks of an untrusted image.
fn blocks(image: &[u8], geom: &Geometry) -> Vec<Vec<u8>> {
    let at = image.len() - geom.nblocks() * geom.sealed_len();
    image[at..].chunks(geom.sealed_len()).map(<[u8]>::to_vec).collect()
}

/// Every scan reseals the whole untrusted image under a fresh pass, so two
/// scans that change nothing still leave every block different: the host
/// cannot tell which objects a batch wrote.
#[test]
fn every_scan_reseals_every_block() {
    for (kind, geom, mut b) in untrusted_backends(64) {
        b.scan(&mut |_, _| {}).unwrap();
        let first = blocks(&b.untrusted_image().unwrap(), &geom);
        b.scan(&mut |_, _| {}).unwrap();
        let second = blocks(&b.untrusted_image().unwrap(), &geom);
        assert_eq!(first.len(), geom.nblocks(), "tier {kind}");
        for (i, (x, y)) in first.iter().zip(&second).enumerate() {
            assert_ne!(x, y, "tier {kind}: block {i} resealed identically");
        }
    }
}

/// A validly sealed block copied to another index of the same image is
/// refused at that index.
#[test]
fn block_copied_to_another_index_is_refused() {
    for (kind, geom, mut b) in untrusted_backends(64) {
        let mut image = b.untrusted_image().unwrap();
        let len = geom.sealed_len();
        let at = image.len() - geom.nblocks() * len;
        image.copy_within(at + len..at + 2 * len, at + 3 * len);
        assert!(b.restore_untrusted_image(&image), "tier {kind}");
        let refused = SubOramError::Integrity(IntegrityError::Corrupted { index: 3 });
        assert_eq!(b.for_each(&mut |_, _| {}), Err(refused), "tier {kind}");
        assert_eq!(b.scan(&mut |_, _| {}), Err(refused), "tier {kind}");
    }
}

/// Drives one streaming scan whose visitor writes `fill`-dependent bytes
/// and returns the block-layer I/O schedule.
fn io_schedule(n: u64, fill: u8) -> Vec<snoopy_store::IoEvent> {
    let cfg = DiskConfig { block_bytes: 128, buffer_blocks: 2 };
    let part = ObjectSlab::from_objects(&objects(n), VLEN);
    let mut b = DiskBackend::create_temp(part, cfg, &Key256([9u8; 32])).expect("create");
    b.enable_io_log();
    b.scan(&mut |id, value| {
        // Data-dependent contents, fixed-size writes — like a real batch.
        if id % 7 == u64::from(fill) % 7 {
            value.fill(fill);
        }
    })
    .expect("scan");
    b.take_io_log()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Responses agree with the memory tier for arbitrary batch shapes.
    #[test]
    fn tiers_agree_on_arbitrary_batches(
        ids in proptest::collection::vec(0u64..64, 1..24),
        writes in proptest::collection::vec(any::<bool>(), 24),
    ) {
        // Distinct-id batches only (Definition 2); dedup preserving order.
        let mut seen = std::collections::HashSet::new();
        let batch: Vec<Request> = ids
            .iter()
            .enumerate()
            .filter(|(_, id)| seen.insert(**id))
            .map(|(i, &id)| {
                if writes[i % writes.len()] {
                    Request::write(id, &[i as u8; 4], VLEN, i as u64, i as u64)
                } else {
                    Request::read(id, VLEN, i as u64, i as u64)
                }
            })
            .collect();
        let mut outs = TIERS.iter().map(|&kind| {
            let mut s = suboram(kind, 64);
            norm(s.batch_access(batch.clone()).unwrap())
        });
        let want = outs.next().unwrap();
        for got in outs {
            prop_assert_eq!(&got, &want);
        }
    }

    /// The disk tier's block-layer I/O schedule (offsets, lengths, fsyncs,
    /// renames — everything the host observes) is a function of the
    /// partition geometry alone, never of the data being written.
    #[test]
    fn disk_io_schedule_position_deterministic(n in 16u64..80, fill_a in any::<u8>(), fill_b in any::<u8>()) {
        prop_assert_eq!(io_schedule(n, fill_a), io_schedule(n, fill_b));
    }
}
