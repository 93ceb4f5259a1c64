//! The readiness reactor: one thread sweeps every session's nonblocking
//! socket and runs every frame handler. This replaces the
//! thread-per-connection plane — a daemon's thread count is fixed (the
//! reactor plus the epoch loop and its per-peer dialers/ticker) no matter
//! how many thousands of sessions are open.
//!
//! Built on `std::net` only: with no `epoll`/`kqueue` binding available, the
//! reactor discovers readiness by attempting nonblocking I/O on every
//! session each sweep (`WouldBlock` = not ready). That is O(sessions)
//! syscalls per sweep, which is exactly the regime the paper's epoch
//! batching amortizes: work arrives in epoch-sized bursts, so most sweeps
//! either move many bytes or find nothing to do.
//!
//! Between sweeps the reactor follows its idle ladder. A sweep that moved
//! any byte is followed at once by another, so a frame streams in at the
//! speed the kernel hands it over. After that, empty sweeps first yield the
//! CPU twice, then park for 10, 20, 40 … µs, capped at [`IDLE_PARK`]: an
//! idle daemon is back at its longest naps within about a millisecond.
//! [`SessionHandle::send_frame`] unparks the reactor, so a frame queued by
//! another thread goes out without waiting out the nap. The ladder keys
//! only on bytes moved and frames enqueued, which the network already
//! shows.
//!
//! A session's lifecycle:
//!
//! ```text
//! accept ──► Handshake ──HELLO──► Open ──► Draining ──► Closed
//!            (first frame)        ▲  │ (flush, then close)
//! register ───────────────────────┘  └──► Closed (error / EOF / kill)
//! ```
//!
//! * Accepted sockets start in `Handshake`: the first frame must be a
//!   plaintext [`Hello`], which the daemon's [`Acceptor`] turns into a
//!   [`SessionHandler`] (or rejects).
//! * Dialer-established sockets (balancer → subORAM) are registered already
//!   `Open`, handler attached, via [`ReactorHandle::register`].
//! * Each frame runs its session's handler on the reactor thread as soon as
//!   it is parsed, so every session's frames are processed in arrival order
//!   — the AEAD links require strict nonce order. A handler must not block
//!   for long: while it runs, no other session moves a byte.
//! * Writes from any thread ([`SessionHandle::send_frame`]) enqueue into the
//!   session's bounded [`OutBuf`]; only the reactor thread touches the
//!   socket, so frames can never interleave or reorder.
//! * `Draining` flushes the outbound buffer, then runs
//!   [`SessionHandler::on_drained`] before closing — this is how a
//!   `SHUTDOWN_ACK` is guaranteed onto the wire before the daemon exits.

use crate::proto::{tag, Hello};
use crate::session::{FrameAssembler, OutBuf, Overflow, ReadStep, HARD_CAP, WATERMARK};
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::{metrics, Public};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Read budget per session per sweep: a firehose peer yields the reactor to
/// its neighbours after this many bytes.
const READ_BUDGET: usize = 64 << 10;
/// How long a handshake may sit without producing a valid hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);
/// Empty sweeps after progress that only yield the CPU.
const IDLE_YIELDS: u32 = 2;
/// The first park after the yields; each further empty sweep doubles it.
const FIRST_PARK: Duration = Duration::from_micros(10);
/// The longest park: how long an idle reactor takes to notice a readable
/// socket or a new connection.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// What a handler tells the reactor after processing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep the session open.
    Continue,
    /// Kill the session now; pending outbound bytes are discarded.
    Close,
    /// Stop reading, flush everything outbound, run
    /// [`SessionHandler::on_drained`], then close.
    CloseAfterFlush,
}

/// Per-session protocol logic, run on the reactor thread. One handler
/// instance per session; calls come in frame-arrival order.
pub trait SessionHandler: Send {
    /// Processes one complete inbound frame.
    fn on_frame(&mut self, tag: u8, body: Vec<u8>, handle: &SessionHandle) -> Control;
    /// Runs after a [`Control::CloseAfterFlush`] drain reaches the wire,
    /// just before the socket closes. The place for "ack flushed, now act"
    /// effects (e.g. triggering daemon shutdown).
    fn on_drained(&mut self) {}
    /// Runs exactly once when the session closes, however it closed.
    fn on_close(&mut self) {}
}

const STATE_OPEN: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_CLOSED: u8 = 2;

/// State shared between the reactor thread and any thread holding a
/// [`SessionHandle`].
struct SessionShared {
    out: Mutex<OutBuf>,
    state: AtomicU8,
    /// The reactor thread, unparked whenever a frame is enqueued.
    reactor: Thread,
}

impl SessionShared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn request_close(&self) {
        self.state.store(STATE_CLOSED, Ordering::Release);
    }

    fn request_drain(&self) {
        let _ = self.state.compare_exchange(
            STATE_OPEN,
            STATE_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

/// A clonable, thread-safe handle to one session: enqueue outbound frames,
/// request close. Held by reply sinks, transports, and handlers.
#[derive(Clone)]
pub struct SessionHandle {
    shared: Arc<SessionShared>,
}

impl SessionHandle {
    /// Enqueues one frame for in-order delivery. Returns `false` — and
    /// kills the session — if the peer has let the bounded outbound buffer
    /// hit its hard cap (the nonblocking plane's analogue of a write
    /// timeout), or if the session is already closing. A `false` means the
    /// frame was *not* accepted; nothing is ever partially enqueued.
    pub fn send_frame(&self, tag: u8, body: &[u8]) -> bool {
        if self.shared.state() != STATE_OPEN {
            return false;
        }
        // The lock is released before the wake-up: the woken reactor takes it.
        let pushed = self.shared.out.lock().unwrap().push_frame(tag, body);
        match pushed {
            Ok(()) => {
                self.shared.reactor.unpark();
                true
            }
            Err(Overflow) => {
                self.shared.request_close();
                false
            }
        }
    }

    /// Kills the session; the reactor tears it down on its next sweep
    /// (pending outbound bytes are discarded).
    pub fn close(&self) {
        self.shared.request_close();
    }
}

/// Turns an accepted connection's hello into that session's handler, or
/// rejects it with `None`. Runs on the reactor thread — keep it cheap (key
/// derivation is fine; blocking I/O is not).
pub type Acceptor = Box<dyn FnMut(Hello, &SessionHandle) -> Option<Box<dyn SessionHandler>> + Send>;

struct Registration {
    stream: TcpStream,
    handler: Box<dyn SessionHandler>,
    handle: SessionHandle,
}

/// Registers dialer-established connections with a running reactor.
#[derive(Clone)]
pub struct ReactorHandle {
    reg_tx: Sender<Registration>,
    reactor: Thread,
}

impl ReactorHandle {
    /// Hands an established (post-hello) connection to the reactor, already
    /// `Open` with `handler` attached. Returns the session's handle, or
    /// `None` when the reactor is gone. The handle may already be closed,
    /// for the peer can hang up at once; `on_close` then runs as usual.
    pub fn register(
        &self,
        stream: TcpStream,
        handler: Box<dyn SessionHandler>,
    ) -> Option<SessionHandle> {
        let handle = new_handle(&self.reactor);
        self.reg_tx.send(Registration { stream, handler, handle: handle.clone() }).ok()?;
        self.reactor.unpark();
        Some(handle)
    }
}

fn new_handle(reactor: &Thread) -> SessionHandle {
    let shared = SessionShared {
        out: Mutex::new(OutBuf::new(WATERMARK, HARD_CAP)),
        state: AtomicU8::new(STATE_OPEN),
        reactor: reactor.clone(),
    };
    SessionHandle { shared: Arc::new(shared) }
}

enum Phase {
    /// Waiting for the hello frame; dies at `deadline` without one.
    Handshake { deadline: Instant },
    /// Handler attached; frames run it as they arrive.
    Open,
}

struct Slot {
    stream: TcpStream,
    assembler: FrameAssembler,
    phase: Phase,
    handler: Option<Box<dyn SessionHandler>>,
    handle: SessionHandle,
    /// Names the session in flight-recorder events.
    session_id: u64,
    /// Edge detector for the backpressure flight-recorder event: set while
    /// reads are paused so only the pause *transition* is recorded.
    was_paused: bool,
}

/// Spawns the reactor over `listener`. The returned handle registers
/// dialer-established sessions. The thread is detached; it lives until the
/// process exits.
pub fn spawn(listener: TcpListener, acceptor: Acceptor) -> ReactorHandle {
    let (reg_tx, reg_rx) = channel();
    let reactor = thread::Builder::new()
        .name("reactor".into())
        .spawn(move || reactor_loop(listener, acceptor, reg_rx))
        .expect("spawn the reactor thread");
    ReactorHandle { reg_tx, reactor: reactor.thread().clone() }
}

fn reactor_loop(listener: TcpListener, mut acceptor: Acceptor, reg_rx: Receiver<Registration>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let sessions_gauge = metrics::global()
        .gauge("snoopy_net_open_sessions", "sessions currently registered with the reactor");
    let me = thread::current();
    let mut sessions: Vec<Slot> = Vec::new();
    let mut next_id = 0u64;
    let mut registrations_open = true;
    let mut ladder = IdleLadder::default();
    loop {
        let mut progress = false;

        // Accept until the backlog is dry.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    sessions.push(Slot {
                        stream,
                        assembler: FrameAssembler::new(),
                        phase: Phase::Handshake { deadline: Instant::now() + HELLO_TIMEOUT },
                        handler: None,
                        handle: new_handle(&me),
                        session_id: next_id,
                        was_paused: false,
                    });
                    events::record(
                        Event::new(EventKind::NetAccept)
                            .with("session", Public::wire_observable(next_id)),
                    );
                    next_id += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE under load): back off a
                // sweep rather than spinning.
                Err(_) => break,
            }
        }

        // Pick up dialer-established sessions.
        while registrations_open {
            match reg_rx.try_recv() {
                Ok(reg) => {
                    progress = true;
                    if reg.stream.set_nonblocking(true).is_err() {
                        reg.handle.close();
                        let mut h = reg.handler;
                        h.on_close();
                        continue;
                    }
                    let _ = reg.stream.set_nodelay(true);
                    sessions.push(Slot {
                        stream: reg.stream,
                        assembler: FrameAssembler::new(),
                        phase: Phase::Open,
                        handler: Some(reg.handler),
                        handle: reg.handle,
                        session_id: next_id,
                        was_paused: false,
                    });
                    next_id += 1;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    registrations_open = false;
                }
            }
        }

        // Sweep every session.
        let now = Instant::now();
        sessions.retain_mut(|slot| match sweep(slot, now, &mut acceptor) {
            Sweep::Alive { moved } => {
                progress |= moved;
                true
            }
            Sweep::Dead => {
                slot.handle.close();
                let _ = slot.stream.shutdown(Shutdown::Both);
                if let Some(handler) = &mut slot.handler {
                    handler.on_close();
                }
                events::record(
                    Event::new(EventKind::NetClose)
                        .with("session", Public::wire_observable(slot.session_id)),
                );
                progress = true;
                false
            }
        });
        sessions_gauge.set(Public::wire_observable(sessions.len() as f64));

        match ladder.after_sweep(progress) {
            Idle::Sweep => {}
            Idle::Yield => thread::yield_now(),
            Idle::Park(d) => thread::park_timeout(d),
        }
    }
}

/// What the reactor does before its next sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Idle {
    /// Sweep again at once.
    Sweep,
    /// Give up the CPU, then sweep.
    Yield,
    /// Park until the timeout or a [`SessionHandle::send_frame`].
    Park(Duration),
}

/// The back-off between sweeps: a function of the empty sweeps since the
/// last one that moved bytes.
#[derive(Default)]
struct IdleLadder {
    empty_sweeps: u32,
}

impl IdleLadder {
    /// Records one sweep and says what to do before the next.
    fn after_sweep(&mut self, progress: bool) -> Idle {
        self.empty_sweeps = if progress { 0 } else { self.empty_sweeps.saturating_add(1) };
        match self.empty_sweeps {
            0 => Idle::Sweep,
            n if n <= IDLE_YIELDS => Idle::Yield,
            n => {
                let doublings = (n - IDLE_YIELDS - 1).min(16);
                Idle::Park(FIRST_PARK.saturating_mul(1 << doublings).min(IDLE_PARK))
            }
        }
    }
}

enum Sweep {
    Alive { moved: bool },
    Dead,
}

fn sweep(slot: &mut Slot, now: Instant, acceptor: &mut Acceptor) -> Sweep {
    let shared = &*slot.handle.shared;
    if shared.state() == STATE_CLOSED {
        return Sweep::Dead;
    }

    // Write sweep: only the reactor touches the socket, so partial writes
    // resume exactly where they stopped.
    let wrote = {
        let mut out = shared.out.lock().unwrap();
        match out.drain_into(&mut slot.stream) {
            Ok(n) => n,
            Err(_) => return Sweep::Dead,
        }
    };

    let state = shared.state();
    if state == STATE_CLOSED {
        return Sweep::Dead;
    }
    if state == STATE_DRAINING {
        if shared.out.lock().unwrap().is_empty() {
            if let Some(handler) = &mut slot.handler {
                handler.on_drained();
            }
            return Sweep::Dead;
        }
        return Sweep::Alive { moved: wrote > 0 };
    }

    // Read sweep, unless the peer is slow to drain what it is owed: paused
    // reads are the backpressure — bytes wait in the kernel and TCP flow
    // control pushes back on the peer; nothing is dropped.
    if shared.out.lock().unwrap().over_watermark() {
        if !slot.was_paused {
            slot.was_paused = true;
            events::record(
                Event::new(EventKind::NetBackpressure)
                    .with("session", Public::wire_observable(slot.session_id)),
            );
        }
        return Sweep::Alive { moved: wrote > 0 };
    }
    slot.was_paused = false;

    let buffered = slot.assembler.buffered();
    let (frames, eof) = match slot.assembler.read_from(&mut slot.stream, READ_BUDGET) {
        Ok(ReadStep::Frames(f)) => (f, false),
        Ok(ReadStep::Eof(f)) => (f, true),
        Err(_) => return Sweep::Dead,
    };
    // Bytes read either completed frames or changed what is buffered; a
    // frame still streaming in counts as progress.
    let moved = wrote > 0 || !frames.is_empty() || slot.assembler.buffered() != buffered;

    let mut frames = frames.into_iter();
    if let Phase::Handshake { deadline } = slot.phase {
        match frames.next() {
            Some((t, body)) => {
                if t != tag::HELLO {
                    return Sweep::Dead;
                }
                let Some(hello) = Hello::decode(&body) else { return Sweep::Dead };
                let Some(handler) = acceptor(hello, &slot.handle) else { return Sweep::Dead };
                slot.handler = Some(handler);
                slot.phase = Phase::Open;
            }
            None if now >= deadline => return Sweep::Dead,
            None => {
                if eof {
                    return Sweep::Dead;
                }
                return Sweep::Alive { moved };
            }
        }
    }

    // Run the handler on each remaining frame, in arrival order. Frames
    // behind one that condemned the session are never processed.
    let handler = slot.handler.as_mut().expect("open sessions have handlers");
    for (t, body) in frames {
        if shared.state() == STATE_CLOSED {
            break;
        }
        match handler.on_frame(t, body, &slot.handle) {
            Control::Continue => {}
            Control::Close => shared.request_close(),
            Control::CloseAfterFlush => shared.request_drain(),
        }
    }

    if shared.state() == STATE_CLOSED {
        return Sweep::Dead;
    }
    if eof {
        // Half-close: the peer is done sending. Flush what we owe, then
        // close (via the draining path so `on_drained` still runs).
        shared.request_drain();
    }
    Sweep::Alive { moved }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::proto::Role;

    /// Sends every frame straight back.
    struct Echo;

    impl SessionHandler for Echo {
        fn on_frame(&mut self, tag: u8, body: Vec<u8>, handle: &SessionHandle) -> Control {
            assert!(handle.send_frame(tag, &body), "the echo was refused");
            Control::Continue
        }
    }

    #[test]
    fn a_mebibyte_frame_crosses_a_live_session_both_ways() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor: Acceptor = Box::new(|_, _| Some(Box::new(Echo)));
        spawn(listener, acceptor);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write_frame(&mut stream, tag::HELLO, &Hello::new(Role::Client, 0).encode()).unwrap();
        let body: Vec<u8> = (0..1u32 << 20).map(|i| (i ^ (i >> 11)) as u8).collect();
        for t in [0x42, 0x43] {
            write_frame(&mut stream, t, &body).unwrap();
            let (got_tag, got) = read_frame(&mut stream).unwrap();
            assert_eq!(got_tag, t);
            assert!(got == body, "the echoed body differs");
        }
    }

    #[test]
    fn idle_ladder_is_monotone_capped_and_resets_on_progress() {
        let mut ladder = IdleLadder::default();
        assert_eq!(ladder.after_sweep(true), Idle::Sweep);
        let steps: Vec<Idle> = (0..40).map(|_| ladder.after_sweep(false)).collect();
        assert_eq!(steps[..3], [Idle::Yield, Idle::Yield, Idle::Park(FIRST_PARK)]);
        assert!(steps.windows(2).all(|w| w[0] <= w[1]), "not monotone: {steps:?}");
        assert!(steps.iter().all(|s| *s <= Idle::Park(IDLE_PARK)), "over the cap: {steps:?}");
        assert_eq!(steps.last(), Some(&Idle::Park(IDLE_PARK)));
        // An idle reactor is back at its longest nap within about 1 ms.
        let climb: Duration = steps
            .iter()
            .take_while(|s| **s != Idle::Park(IDLE_PARK))
            .map(|s| if let Idle::Park(d) = s { *d } else { Duration::ZERO })
            .sum();
        assert!(climb <= Duration::from_millis(1), "{climb:?} before the longest nap");
        // Progress resets the ladder, also after it saturates.
        ladder.empty_sweeps = u32::MAX;
        assert_eq!(ladder.after_sweep(false), Idle::Park(IDLE_PARK));
        assert_eq!(ladder.after_sweep(true), Idle::Sweep);
        assert_eq!(ladder.after_sweep(false), Idle::Yield);
    }
}
