//! Figure 12 (storage-tier variant): the paging cliff with real file I/O.
//!
//! A disk-backed subORAM with a *fixed* enclave buffer serves partitions of
//! increasing size. While the partition fits the buffer budget the scan runs
//! over resident plaintext (pure in-enclave work, sealing only at commit);
//! the first size past the budget forces every batch through the streaming
//! path — read, verify, visit, re-seal, and write back every sealed block of
//! the segment file. Throughput drops sharply at that boundary and then
//! decays with partition size: the larger-than-RAM cliff, reproduced with
//! actual `read`/`write`/`fsync` traffic instead of a cost model.
//!
//! Shape to check: a discontinuity between the last resident row and the
//! first streaming row, then a roughly 1/size tail (every request pays a
//! full-partition scan either way — the cliff is the I/O, not the
//! obliviousness).

use snoopy_bench::{fmt, print_table, quick_mode, time_ms, write_csv};
use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, StoredObject};
use snoopy_store::{DiskBackend, DiskConfig};
use snoopy_suboram::{ObjectSlab, SubOram};

const VLEN: usize = 64;
const BATCH: u64 = 64;

fn objects(n: u64) -> Vec<StoredObject> {
    (0..n).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
}

fn batch(n: u64, epoch: u64) -> Vec<Request> {
    (0..BATCH.min(n))
        .map(|i| {
            let id = (i * 31 + epoch * 7) % n;
            if i % 4 == 0 {
                Request::write(id, &epoch.to_le_bytes(), VLEN, i, epoch)
            } else {
                Request::read(id, VLEN, i, epoch)
            }
        })
        .collect()
}

fn main() {
    let quick = quick_mode();
    // Fixed buffer: 8 blocks of 4 KiB. With 72-byte stored objects a block
    // holds 56, so the resident/streaming boundary sits at 448 objects.
    let cfg = DiskConfig { block_bytes: 4096, buffer_blocks: 8 };
    let epochs = if quick { 3 } else { 8 };
    // Partition sizes as multiples of the buffer capacity, crossing 1.0×.
    let ratios: &[f64] = if quick {
        &[0.5, 1.0, 1.5, 4.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0]
    };
    let objs_per_block = cfg.block_bytes / (8 + VLEN);
    let buffer_objects = (objs_per_block * cfg.buffer_blocks) as u64;

    let mut rows = Vec::new();
    let mut cliff: Option<(f64, f64)> = None; // (last resident, first streaming)
    for &r in ratios {
        let n = ((buffer_objects as f64 * r) as u64).max(BATCH);
        let part = ObjectSlab::from_objects(&objects(n), VLEN);
        let backend = DiskBackend::create_temp(part, cfg, &Key256([42u8; 32])).expect("create");
        let resident = backend.is_resident();
        let nblocks = backend.nblocks();
        let mut sub = SubOram::with_backend(Box::new(backend), VLEN, Key256([42u8; 32]), 128);

        // Warm-up epoch (opens the streaming pipeline, fills page cache).
        sub.batch_access(batch(n, 0)).expect("warmup");
        let (_, ms) = time_ms(|| {
            for e in 1..=epochs as u64 {
                sub.batch_access(batch(n, e)).expect("batch");
                sub.commit_storage(e).expect("commit");
            }
        });
        let reqs = epochs as f64 * BATCH.min(n) as f64;
        let throughput = reqs / (ms / 1e3);
        let ms_per_epoch = ms / epochs as f64;
        match (resident, &mut cliff) {
            (true, Some((last, _))) => *last = throughput,
            (true, None) => cliff = Some((throughput, 0.0)),
            (false, Some((_, first))) if *first == 0.0 => *first = throughput,
            _ => {}
        }
        rows.push(vec![
            n.to_string(),
            fmt(n as f64 / buffer_objects as f64),
            nblocks.to_string(),
            if resident { "resident" } else { "streaming" }.to_string(),
            fmt(ms_per_epoch),
            fmt(throughput),
        ]);
    }

    print_table(
        "Figure 12 (disk): throughput vs partition size, fixed 8-block buffer",
        &["objects", "x_buffer", "blocks", "mode", "ms/epoch", "reqs/s"],
        &rows,
    );
    write_csv(
        "fig12_disk_cliff",
        &["objects", "x_buffer", "blocks", "mode", "ms_per_epoch", "reqs_per_s"],
        &rows,
    );

    if let Some((resident, streaming)) = cliff {
        if streaming > 0.0 {
            println!(
                "\nshape: last resident size sustains {} reqs/s, first streaming size {} reqs/s \
                 ({:.1}x cliff at the buffer boundary)",
                fmt(resident),
                fmt(streaming),
                resident / streaming
            );
        }
    }
}
