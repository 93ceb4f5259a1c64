//! The recorder's fast path with no other recorder in the process.
//!
//! `trace::record` skips its thread-local work while the process-wide count
//! of live recorders is zero. Library tests run in parallel, so some other
//! test's recorder usually keeps that count above zero and would hide a
//! `fork` that forgot to count its own recorder. This binary holds one test,
//! so here the count is this test's alone.

use snoopy_obliv::trace::{self, TraceEvent};

#[test]
fn a_lone_worker_fork_records_while_main_idles() {
    let worker = std::thread::spawn(|| {
        let ((), sub) = trace::fork(|| trace::record(TraceEvent::CmpSwap));
        (sub, trace::is_recording())
    });
    trace::record(TraceEvent::CmpSet);
    let (sub, still_recording) = worker.join().unwrap();
    assert_eq!(sub.events, [TraceEvent::CmpSwap]);
    assert!(!still_recording && !trace::is_recording());
    let ((), main) = trace::fork(|| trace::record(TraceEvent::CmpSet));
    assert_eq!(main.events, [TraceEvent::CmpSet]);
}
