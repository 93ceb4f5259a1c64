//! Fail-stop: a panic on any thread ends the daemon.
//!
//! A daemon is a handful of long-lived threads (the reactor that runs every
//! session, the epoch loop, dialers, a ticker). By default a panic unwinds
//! only its own thread, so a dead reactor leaves a process that holds its
//! pid but answers nothing, and a supervisor watching the pid never
//! restarts it. [`install`] turns every panic into a process exit: the
//! default hook prints the panic message as usual, then the flight recorder
//! gets a [`EventKind::Panic`] event whose one field is named after the
//! panicking thread and holds the panic's source line, dumps its ring into
//! `SNOOPY_FLIGHT_DIR` (when set), and the process exits with
//! [`PANIC_EXIT_CODE`]. Recovery is the restart path every daemon already
//! has (sealed checkpoints, the balancer's replay of unanswered batches).

use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::public::Public;

/// The exit status of a daemon ended by a panic (the status Rust gives a
/// process whose main thread panics).
pub const PANIC_EXIT_CODE: i32 = 101;

/// Installs the fail-stop panic hook for the whole process. A daemon calls
/// it once, before it spawns its threads.
pub fn install() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default(info);
        // The process ends below, so leaking the name to make it a
        // `&'static` field label costs nothing.
        let thread: &'static str =
            Box::leak(std::thread::current().name().unwrap_or("unnamed").into());
        // The panic's source line is a constant of the build.
        let line = info.location().map_or(0, |l| u64::from(l.line()));
        events::record(Event::new(EventKind::Panic).with(thread, Public::config(line)));
        events::recorder().dump("panic");
        std::process::exit(PANIC_EXIT_CODE);
    }));
}
