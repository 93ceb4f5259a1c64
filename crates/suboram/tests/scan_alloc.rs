//! The linear scan allocates nothing: with the partition in a slab and the
//! table's values in another, a full `MemoryBackend::scan` driving
//! `OHashTable::access` makes zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, StoredObject};
use snoopy_ohash::OHashTable;
use snoopy_suboram::{MemoryBackend, StorageBackend};

/// Counts allocations made by a thread while it is armed (the test
/// harness's own threads allocate concurrently and must not count).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn memory_scan_makes_no_heap_allocation() {
    const VLEN: usize = 160;
    const OBJECTS: u64 = 1 << 12;
    let objects: Vec<StoredObject> =
        (0..OBJECTS).map(|id| StoredObject::new(id, &id.to_le_bytes(), VLEN)).collect();
    let mut backend = MemoryBackend::new(objects, VLEN);
    let batch: Vec<Request> = (0..256u64)
        .map(|i| match i % 3 {
            0 => Request::write(i * 13, &[0xAB; 4], VLEN, 0, i),
            1 => Request::read(i * 13, VLEN, 0, i),
            _ => Request::read(OBJECTS + i, VLEN, 0, i),
        })
        .collect();
    let mut table = OHashTable::construct(batch, &Key256([6u8; 32]), 128).unwrap();

    ARMED.with(|a| a.set(true));
    let scanned = backend.scan(&mut |id, value| table.access(id, value));
    ARMED.with(|a| a.set(false));
    scanned.unwrap();
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0, "the scan must not allocate");

    // The scan did the batch's work: writes landed, reads saw old values.
    let out = table.into_batch_requests();
    for r in &out {
        let want = if r.id < OBJECTS {
            StoredObject::new(r.id, &r.id.to_le_bytes(), VLEN).value
        } else {
            vec![0; VLEN]
        };
        assert_eq!(r.value, want, "response for id {}", r.id);
    }
    backend
        .for_each(&mut |id, value| {
            let written = id % 39 == 0 && id < 256 * 13;
            assert_eq!(value[..4] == [0xAB; 4], written, "object {id}");
        })
        .unwrap();
}
