//! A blocking frame read allocates for the bytes that arrive, not for the
//! length a peer announces: a header claiming `MAX_FRAME_LEN` followed by
//! EOF is an error that costs no large allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

use snoopy_net::frame::{read_frame, write_frame, MAX_FRAME_LEN};

/// Records the largest allocation made by a thread while it is armed (the
/// test harness's own threads allocate concurrently and must not count).
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Reads one frame from `wire` with allocations armed; returns the result
/// and the largest allocation the read made.
fn read_armed(wire: &[u8]) -> (io::Result<(u8, Vec<u8>)>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let got = read_frame(&mut &wire[..]);
    ARMED.with(|a| a.set(false));
    (got, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_huge_announced_length_then_eof_allocates_little() {
    let mut wire = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    wire.push(7); // the tag
    wire.extend_from_slice(&[1; 1000]);
    let (got, largest) = read_armed(&wire);
    assert_eq!(got.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    assert!(largest <= 64 << 10, "a {largest}-byte allocation for 1005 bytes received");
}

#[test]
fn a_whole_frame_allocates_about_its_size() {
    let body: Vec<u8> = (0..1u32 << 20).map(|i| (i >> 3) as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, 9, &body).unwrap();
    let (got, largest) = read_armed(&wire);
    assert!(got.unwrap() == (9, body), "the frame came back different");
    assert!(largest <= 2 << 20, "a {largest}-byte allocation for a 1 MiB body");
}
