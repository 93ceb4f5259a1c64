//! Access-trace recording for obliviousness testing.
//!
//! The paper's security definition (§B) says the adversary observes a *trace*
//! of memory access patterns and network messages, and proves that this trace
//! is simulatable from public information alone. Running on an abstract
//! enclave lets us check this property *experimentally*: oblivious primitives
//! and algorithms record structural events (never data, never condition bits)
//! into a thread-local recorder, and tests assert that two executions with
//! identical public parameters but different secret inputs produce identical
//! traces.
//!
//! Events deliberately capture *addresses and shapes* only:
//! [`TraceEvent::CmpSwap`]/[`TraceEvent::CmpSet`] carry no operands,
//! [`TraceEvent::Touch`] carries a [`Region`] and an index whose sequence
//! must be data-independent, and [`TraceEvent::Message`] carries
//! destination + length. If an algorithm's control flow ever depends on
//! secrets, the event streams diverge and the equivalence test fails.
//!
//! Recording is off by default. A process-wide count of live recorders
//! gates every event: while no thread records, [`record`] is one relaxed
//! atomic load and a branch, with no thread-local access, so the oblivious
//! hot paths (the scan's two bucket touches per object, every sort
//! comparator) pay nothing measurable for being traceable. While any thread
//! records, every thread's events also look up its own recorder.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The memory region a [`TraceEvent::Touch`] lands in: one label per
/// oblivious array, so traces of different algorithms never alias. The
/// discriminants are the event encoding [`Trace::fingerprint`] hashes, so
/// they are fixed: every pinned fingerprint depends on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Region {
    /// Order-preserving compaction's rows (`compact`).
    Compact = 0x43,
    /// Order-preserving expansion's rows (`expand`).
    Expand = 0x45,
    /// [`crate::scan::oget`]'s slice.
    Get = 0x47,
    /// [`crate::scan::oput`]'s slice.
    Put = 0x48,
    /// [`crate::scan::olookup`]'s table.
    Lookup = 0x49,
    /// [`crate::scan::first_occurrence_flags`]' keys.
    FirstOccurrence = 0x4a,
    /// The load balancer's batch rows while it makes batches.
    BalancerMake = 0x4c,
    /// The load balancer's rows while it matches responses.
    BalancerMatch = 0x4d,
    /// The two-tier hash table's buckets (one touch per bucket looked up).
    Table = 0x4f,
    /// Sorting networks' elements (one touch per comparator operand).
    Sort = 0x50,
    /// The hash table's per-tier placement scan during construction.
    Placement = 0x51,
    /// The doubly-oblivious Path ORAM's position map.
    PositionMap = 0x70,
    /// Its stash, while a fetched path's blocks are inserted.
    StashInsert = 0x71,
    /// Its stash, while the accessed block is read and remapped.
    StashRead = 0x72,
    /// Its stash, while an absent block claims a free slot.
    StashAdopt = 0x73,
    /// Its stash, while blocks are evicted back along the path.
    StashEvict = 0x74,
}

/// One observable event in the adversary's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// An oblivious compare-and-swap executed (operands and outcome hidden).
    CmpSwap,
    /// An oblivious compare-and-set executed (operands and outcome hidden).
    CmpSet,
    /// A memory location at `index` within `region` was touched.
    Touch {
        /// The array touched.
        region: Region,
        /// Element index accessed.
        index: usize,
    },
    /// A network message of `len` bytes was sent to `dst`.
    Message {
        /// Destination id.
        dst: u32,
        /// Message length in bytes.
        len: usize,
    },
    /// A phase marker (public algorithm structure), useful when diffing traces.
    Phase(u32),
}

/// A recorded event sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The events, in execution order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A compact 64-bit fingerprint (FNV-1a over the event encoding), handy
    /// for comparing many traces without storing them all.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for e in &self.events {
            match *e {
                TraceEvent::CmpSwap => mix(1),
                TraceEvent::CmpSet => mix(2),
                TraceEvent::Touch { region, index } => {
                    mix(3);
                    mix(region as u64);
                    mix(index as u64);
                }
                TraceEvent::Message { dst, len } => {
                    mix(5);
                    mix(dst as u64);
                    mix(len as u64);
                }
                TraceEvent::Phase(p) => {
                    mix(6);
                    mix(p as u64);
                }
            }
        }
        h
    }
}

/// How many threads hold a recorder right now. Every change of a slot
/// between empty and full moves it, including a slot dropped at thread
/// exit, so it returns to its baseline however a recording thread ends.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// A thread's recorder. Dropping a full one (its thread exited or panicked
/// without [`stop`]) gives its count back.
struct Slot(Option<Trace>);

impl Drop for Slot {
    fn drop(&mut self) {
        if self.0.is_some() {
            LIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Slot> = const { RefCell::new(Slot(None)) };
}

/// Whether any thread records. A thread that records has counted itself,
/// and sees its own increment, so `false` means this thread does not.
#[inline(always)]
fn any_recording() -> bool {
    LIVE.load(Ordering::Relaxed) != 0
}

/// Puts `next` in this thread's slot and returns what was there, keeping
/// [`LIVE`] in step.
fn replace(next: Option<Trace>) -> Option<Trace> {
    if next.is_some() {
        LIVE.fetch_add(1, Ordering::Relaxed);
    }
    let prev = RECORDER.with(|r| std::mem::replace(&mut r.borrow_mut().0, next));
    if prev.is_some() {
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
    prev
}

/// Starts recording on this thread, discarding any previous recording.
pub fn start() {
    replace(Some(Trace::default()));
}

/// Stops recording and returns the captured trace (empty if never started).
pub fn stop() -> Trace {
    replace(None).unwrap_or_default()
}

/// True if this thread is currently recording.
pub fn is_recording() -> bool {
    any_recording() && RECORDER.with(|r| r.borrow().0.is_some())
}

/// Records one event if recording is enabled.
#[inline]
pub fn record(event: TraceEvent) {
    if any_recording() {
        RECORDER.with(|r| {
            if let Some(t) = r.borrow_mut().0.as_mut() {
                t.events.push(event);
            }
        });
    }
}

/// Runs `f` with recording enabled and returns `(result, trace)`.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    start();
    let out = f();
    (out, stop())
}

/// Runs `f` under a *fresh* recorder, then restores whatever recorder was
/// active before, returning `f`'s sub-trace. Unlike [`capture`], this does
/// not discard an outer recording — it parks it.
///
/// This is how parallel oblivious kernels keep their traces byte-identical
/// to the serial execution: the coordinating thread forks a recorder per
/// structural region, workers capture their own events, and the coordinator
/// [`splice`]s the sub-traces back in the serial order. The spliced event
/// sequence depends only on public sizes, never on which thread ran what.
pub fn fork<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let saved = replace(Some(Trace::default()));
    let out = f();
    let sub = replace(saved).unwrap_or_default();
    (out, sub)
}

/// Appends a previously captured sub-trace into this thread's active
/// recorder (no-op if recording is off). See [`fork`].
pub fn splice(sub: Trace) {
    if any_recording() {
        RECORDER.with(|r| {
            if let Some(t) = r.borrow_mut().0.as_mut() {
                t.events.extend(sub.events);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capture_returns_events_in_order() {
        let ((), trace) = capture(|| {
            record(TraceEvent::Phase(1));
            record(TraceEvent::Touch { region: Region::Get, index: 3 });
            record(TraceEvent::CmpSwap);
        });
        assert_eq!(
            trace.events,
            vec![
                TraceEvent::Phase(1),
                TraceEvent::Touch { region: Region::Get, index: 3 },
                TraceEvent::CmpSwap
            ]
        );
    }

    #[test]
    fn recording_disabled_by_default() {
        record(TraceEvent::CmpSwap);
        assert!(!is_recording());
        let ((), t) = capture(|| {});
        assert!(t.is_empty());
    }

    #[test]
    fn fingerprint_distinguishes_traces() {
        let (_, t1) = capture(|| record(TraceEvent::Touch { region: Region::Get, index: 1 }));
        let (_, t2) = capture(|| record(TraceEvent::Touch { region: Region::Get, index: 2 }));
        let (_, t3) = capture(|| record(TraceEvent::Touch { region: Region::Get, index: 1 }));
        assert_ne!(t1.fingerprint(), t2.fingerprint());
        assert_eq!(t1.fingerprint(), t3.fingerprint());
    }

    #[test]
    fn nested_capture_overwrites() {
        start();
        record(TraceEvent::CmpSet);
        let ((), inner) = capture(|| record(TraceEvent::CmpSwap));
        assert_eq!(inner.events, vec![TraceEvent::CmpSwap]);
        // The outer recording was discarded by the inner start().
        assert!(!is_recording());
    }

    /// A worker records through `capture` and `fork` while this thread,
    /// idle and not recording, emits events that land nowhere.
    #[test]
    fn worker_records_while_another_thread_idles() {
        use std::sync::{Arc, Barrier};
        let (started, idled) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let (s, i) = (started.clone(), idled.clone());
        let worker = std::thread::spawn(move || {
            capture(|| {
                record(TraceEvent::Phase(1));
                s.wait();
                i.wait();
                let ((), sub) = fork(|| record(TraceEvent::CmpSwap));
                record(TraceEvent::CmpSet);
                splice(sub);
            })
            .1
        });
        started.wait();
        assert!(!is_recording());
        record(TraceEvent::Phase(2));
        splice(Trace { events: vec![TraceEvent::Phase(3)] });
        idled.wait();
        let trace = worker.join().unwrap();
        let want = [TraceEvent::Phase(1), TraceEvent::CmpSet, TraceEvent::CmpSwap];
        assert_eq!(trace.events, want);
        assert!(!is_recording());
        assert_eq!(capture(|| record(TraceEvent::CmpSwap)).1.events, [TraceEvent::CmpSwap]);
    }

    fn event(x: u32) -> TraceEvent {
        match x % 3 {
            0 => TraceEvent::Phase(x),
            1 => TraceEvent::Touch { region: Region::Sort, index: x as usize },
            _ => TraceEvent::CmpSwap,
        }
    }

    proptest! {
        /// The parallel kernels' pattern: events cut into chunks, each chunk
        /// forked on its own worker thread and spliced back in chunk order,
        /// make the trace one thread recording them all makes.
        #[test]
        fn forked_chunks_splice_to_the_serial_trace(
            events in proptest::collection::vec(any::<u32>().prop_map(event), 0..64),
            cuts in proptest::collection::vec(0usize..64, 0..4),
        ) {
            let serial = capture(|| events.iter().for_each(|&e| record(e))).1;
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(events.len())).collect();
            bounds.extend([0, events.len()]);
            bounds.sort_unstable();
            let ((), spliced) = capture(|| {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = bounds
                        .windows(2)
                        .map(|w| {
                            let chunk = &events[w[0]..w[1]];
                            scope.spawn(move || fork(|| chunk.iter().for_each(|&e| record(e))).1)
                        })
                        .collect();
                    for w in workers {
                        splice(w.join().unwrap());
                    }
                })
            });
            prop_assert_eq!(spliced, serial);
        }
    }

    /// A thread that starts recording and then exits, or panics, without
    /// `stop` gives its count back when its slot drops: after a hundred of
    /// them the count is below a hundred (other tests' recorders may be
    /// live meanwhile, but never that many), and recording elsewhere still
    /// works.
    #[test]
    fn abandoned_recorders_release_their_count() {
        const THREADS: usize = 100;
        for k in 0..THREADS {
            let ended = std::thread::spawn(move || {
                start();
                record(TraceEvent::CmpSwap);
                let ((), _) = fork(|| record(TraceEvent::CmpSet));
                assert!(k % 10 != 0, "recorder {k} abandoned by a panic");
            })
            .join();
            assert_eq!(ended.is_err(), k % 10 == 0);
        }
        assert!(LIVE.load(Ordering::Relaxed) < THREADS);
        assert!(!is_recording());
        assert_eq!(capture(|| record(TraceEvent::CmpSet)).1.events, [TraceEvent::CmpSet]);
    }
}
