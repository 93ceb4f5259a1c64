//! The load-balancer daemon: a `snoopyd --role loadbalancer` process.
//!
//! The balancer *dials* every subORAM (the dialer owns reconnection): each
//! subORAM gets one dedicated dialer thread — per *peer*, not per session —
//! that connects under [`RetryPolicy::dialer_default`] (capped exponential
//! backoff, forever), performs the session hello, then hands the socket to
//! the readiness reactor and parks until the session dies, at which point it
//! redials. Establishing a session emits [`LbEvent::SubLinkRestored`], which
//! makes the epoch loop resend the in-flight epoch's batch, so a subORAM
//! killed and restarted mid-epoch is healed end to end (its reply cache
//! absorbs duplicate deliveries).
//!
//! The epoch loop runs under the manifest's [`Manifest::fault_policy`]: a
//! subORAM that misses the per-epoch deadline has its link killed and its
//! sealed batch replayed over a fresh session; after `max_replays` waves the
//! epoch completes *degraded* and every affected client gets a typed
//! [`tag::CLIENT_FAIL`] frame instead of a hang.
//!
//! Clients and admins dial the balancer's own listen address; every accepted
//! session is multiplexed onto the reactor ([`crate::reactor`]) — tens of
//! thousands of concurrent client sessions cost sockets, not threads. The
//! epoch ticker ([`EpochTicker`]) derives *composite* epoch ids from
//! wall-clock time: balancer `i` of `L` ticks `(unix_millis / epoch_ms) * L + i`,
//! its own residue class, so ids are globally unique across balancers
//! (`id % L` names the owner), stay monotone across a balancer
//! crash/restart, and never decrease under a backwards wall-clock step (the
//! ticker clamps instead of reusing an id).

use crate::frame::{write_frame, MAX_FRAME_LEN};
use crate::manifest::Manifest;
use crate::proto::{self, tag, Hello, Role};
use crate::reactor::{self, Control, ReactorHandle, SessionHandle, SessionHandler};
use crate::reshard;
use crate::stats::{DaemonInfo, LinkStats, StatsRegistry};
use crate::suboram_daemon::{record_peer_clock_offset, AdminHandler};
use snoopy_core::link::Link;
use snoopy_core::transport::{
    run_load_balancer, LbEvent, LbTransport, RecvOutcome, ReplySink, ReshardControl, Unavailable,
};
use snoopy_core::RetryPolicy;
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{Request, Response, REAL_ID_LIMIT, RESPONSE_HEADER};
use snoopy_lb::LoadBalancer;
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::{metrics, trace, Public};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// The write side of one subORAM session: the reactor handle plus this
/// session's batch-direction link.
struct SubSession {
    handle: SessionHandle,
    batch_link: Link,
}

type SubSlots = Arc<Vec<Mutex<Option<SubSession>>>>;

struct TcpLbTransport {
    events: Receiver<LbEvent>,
    /// Client sessions holding replies staged by this epoch's deliveries.
    flush: FlushList,
    subs: SubSlots,
    sub_stats: Vec<Arc<LinkStats>>,
    lb_index: u64,
    /// Per-subORAM send sequencing for the frame trace context: `(epoch,
    /// next_seq)`. Seq 0 is the first send of an epoch's batch; higher seqs
    /// are replay waves — all wire-observable (the adversary counts frames).
    send_seq: Vec<(u64, u64)>,
}

impl LbTransport for TcpLbTransport {
    fn recv(&mut self, deadline: Option<Instant>) -> RecvOutcome {
        let msg = match deadline {
            None => self.events.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => self.events.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match msg {
            Ok(msg) => RecvOutcome::Event(msg),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn flush_replies(&mut self) {
        let sessions = std::mem::take(&mut *self.flush.lock().expect(REPLIES_POISONED));
        for session in sessions {
            session.flush();
        }
    }

    /// The wall-clock ticker runs for the daemon's life, so a tick that
    /// fired during an epoch is dropped: the next epoch starts at the next
    /// tick, by when the clients this epoch's flush answered have sent
    /// their next requests. Serving it at once would take only what arrived
    /// during the epoch, since every reply leaves in the flush at its end.
    fn serves_late_ticks(&self) -> bool {
        false
    }

    fn fail_fast(&mut self, suboram: usize) {
        // Kill the session so its handler's close notification wakes the
        // dialer, which starts redialing; the epoch loop replays the sealed
        // batch over the fresh session.
        let mut slot = self.subs[suboram].lock().unwrap();
        if let Some(conn) = slot.take() {
            conn.handle.close();
        }
    }

    fn send_batch(&mut self, suboram: usize, epoch: u64, generation: u64, batch: &[Request]) {
        let mut slot = self.subs[suboram].lock().unwrap();
        let Some(conn) = slot.as_mut() else {
            // Disconnected: drop the batch. SubLinkRestored will trigger a
            // resend once the dialer re-establishes the session.
            return;
        };
        let sealed = match conn.batch_link.seal(batch) {
            Ok(s) => s,
            Err(_) => {
                conn.handle.close();
                *slot = None;
                return;
            }
        };
        let seq = {
            let entry = &mut self.send_seq[suboram];
            if entry.0 != epoch {
                *entry = (epoch, 0);
            }
            let s = entry.1;
            entry.1 += 1;
            s
        };
        let ctx = proto::TraceCtx { epoch, lb: self.lb_index, seq, generation };
        let body = proto::encode_batch_ctx(ctx, &sealed);
        if conn.handle.send_frame(tag::BATCH, &body) {
            self.sub_stats[suboram].sent(body.len());
        } else {
            // Overflow or dead session: the handle condemned it; the dialer
            // redials and the epoch loop replays.
            *slot = None;
        }
    }
}

/// One client session as its handler and reply sinks share it: the reactor
/// handle, the link counters, and the response-direction link with the
/// replies staged during the current epoch's deliveries.
struct SessionReplies {
    handle: SessionHandle,
    stats: Arc<LinkStats>,
    /// The transport's list of sessions to flush after this epoch.
    flush_list: FlushList,
    /// Replies are sealed in order under this lock, so nonce order is wire
    /// order.
    state: Mutex<StagedReplies>,
}

struct StagedReplies {
    resp_link: Link,
    epoch: u64,
    rows: Vec<Response>,
}

/// Sessions with staged replies, in first-delivery order; drained by
/// [`LbTransport::flush_replies`].
type FlushList = Arc<Mutex<Vec<Arc<SessionReplies>>>>;

/// Only the epoch loop stages and flushes replies, so a poisoned reply lock
/// means that loop already panicked.
const REPLIES_POISONED: &str = "reply lock poisoned by a panicked epoch loop";

/// Most responses one `CLIENT_RESP` frame can carry: the tag byte, the
/// plaintext epoch and the AEAD tag, then fixed-size rows, within
/// `max_frame` bytes. A function of public sizes only.
fn responses_per_frame(value_len: usize, max_frame: usize) -> usize {
    let fixed = 1 + 8 + snoopy_crypto::aead::TAG_LEN;
    (max_frame.saturating_sub(fixed) / (RESPONSE_HEADER + value_len)).max(1)
}

impl SessionReplies {
    /// Seals the staged replies as one box per epoch — more only if one
    /// frame cannot hold them — and enqueues one `CLIENT_RESP` frame per
    /// box. The commit epoch rides plaintext ahead of each box: it is
    /// already wire-observable on the BATCH frames' trace context, and
    /// clients use it as the linearization coordinate of their own
    /// committed ops (`epoch / L`, `epoch % L`).
    fn flush(&self) {
        let mut state = self.state.lock().expect(REPLIES_POISONED);
        let rows = std::mem::take(&mut state.rows);
        let Some(first) = rows.first() else { return };
        let per_frame = responses_per_frame(first.value.len(), MAX_FRAME_LEN);
        for chunk in rows.chunks(per_frame) {
            let Ok(sealed) = state.resp_link.seal_responses(chunk) else { return };
            let body = proto::encode_epoch_sealed(state.epoch, &sealed);
            if !self.handle.send_frame(tag::CLIENT_RESP, &body) {
                return; // the session is condemned; its client redials
            }
            self.stats.sent(body.len());
        }
    }
}

struct TcpReplySink {
    session: Arc<SessionReplies>,
    /// The client-chosen request seq, captured at enqueue time so a degraded
    /// epoch can name which request the `CLIENT_FAIL` frame is for.
    seq: u64,
}

impl ReplySink for TcpReplySink {
    fn deliver(self: Box<Self>, resp: Response, epoch: u64) {
        // Stage the reply; the epoch loop's flush sends each session's
        // replies as one sealed box. The session joins the flush list with
        // its first reply of the epoch.
        let mut state = self.session.state.lock().expect(REPLIES_POISONED);
        if state.rows.is_empty() {
            self.session.flush_list.lock().expect(REPLIES_POISONED).push(self.session.clone());
        }
        state.epoch = epoch;
        state.rows.push(resp);
    }

    fn fail(self: Box<Self>, err: Unavailable) {
        let body = proto::encode_unavailable(self.seq, &err);
        if self.session.handle.send_frame(tag::CLIENT_FAIL, &body) {
            self.session.stats.sent(body.len());
        }
    }
}

/// Runs the load-balancer daemon until an admin shutdown.
pub fn run(manifest: &Manifest, index: usize, registry: &StatsRegistry) -> io::Result<()> {
    if index >= manifest.load_balancers.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "loadbalancer index {index} out of range (manifest has {})",
                manifest.load_balancers.len()
            ),
        ));
    }
    let s_total = manifest.suborams.len();
    let mut prg = Prg::from_seed(manifest.seed);
    let shared_key = Key256::random(&mut prg);
    let deploy = proto::deployment_key(manifest.seed);
    // A balancer is stateless, so a (re)started one learns the live layout
    // from the durable side of the cluster: if any subORAM's checkpoint
    // names a committed reshard generation, adopt it; otherwise boot at the
    // manifest's initial active fleet. The manifest fallback is only
    // trustworthy once at least one subORAM has *answered* — after a
    // whole-cluster restart a disk-tier fleet can take far longer than one
    // probe sweep to recover its checkpoints, and silently booting the
    // manifest layout against committed generation-G partitions would stamp
    // every batch with generation 0 (all refused as stale). So the probe
    // retries with backoff until a node answers or the budget runs out; the
    // budget keeps a balancer bootable (and its admin plane reachable —
    // the listener binds after this) even with the fleet down, and the
    // batch plane's generation fence turns a wrong fallback into typed
    // refusals rather than wrong reads.
    let probe_budget = Instant::now() + Duration::from_secs(60);
    let mut probe_pause = Duration::from_millis(250);
    let (initial_generation, initial_active) = loop {
        let (answered, best) = reshard::probe_layout_once(manifest, Duration::from_secs(2));
        match best {
            Some((generation, active_s)) => break (generation, active_s),
            // A node answered and no node has ever committed a reshard:
            // the manifest's boot layout is authoritative.
            None if answered > 0 => break (0, manifest.initial_active()),
            None => {}
        }
        if Instant::now() >= probe_budget {
            eprintln!(
                "loadbalancer {index}: no subORAM answered the boot layout probe; \
                 falling back to the manifest layout"
            );
            break (0, manifest.initial_active());
        }
        std::thread::sleep(probe_pause);
        probe_pause = (probe_pause * 2).min(Duration::from_secs(5));
    };

    events::recorder().set_identity("loadbalancer", index as u64);
    let listener = TcpListener::bind(&manifest.load_balancers[index])?;
    let (events_tx, events_rx) = channel();
    let flush: FlushList = Arc::default();

    // Client/admin sessions ride the reactor; the acceptor wires each hello
    // to its handler.
    let mut acceptor = ClientAcceptor {
        lb_index: index,
        deploy: deploy.clone(),
        value_len: manifest.value_len,
        events_tx: events_tx.clone(),
        flush: flush.clone(),
        registry: registry.clone(),
        info: DaemonInfo::new("loadbalancer", index as u64),
        client_counter: 0,
    };
    let reactor =
        reactor::spawn(listener, Box::new(move |hello, handle| acceptor.accept(hello, handle)));

    // Slots and dialers cover the whole *provisioned* fleet, not just the
    // active one: a reshard can grow into a warm spare at any epoch
    // boundary, and the connection must already be there when it does. The
    // session-link derivation is keyed on the provisioned count, which both
    // ends read from the same manifest.
    let subs: SubSlots = Arc::new((0..s_total).map(|_| Mutex::new(None)).collect());
    let mut sub_stats = Vec::with_capacity(s_total);

    // Dialer threads: one per subORAM *peer* (a fixed set, not per session),
    // owning connect/backoff and parking while the reactor runs the session.
    for sub in 0..s_total {
        let stats = registry.link(&format!("suboram/{sub}"));
        sub_stats.push(stats.clone());
        let ctx = DialerCtx {
            addr: manifest.suborams[sub].clone(),
            lb_index: index,
            sub,
            num_suborams: s_total,
            deploy: deploy.clone(),
            value_len: manifest.value_len,
            subs: subs.clone(),
            events_tx: events_tx.clone(),
            stats,
            reactor: reactor.clone(),
        };
        std::thread::spawn(move || dialer(ctx));
    }

    // Epoch ticker. Epoch ids are derived from wall-clock time so that
    // (a) they stay monotone across a balancer crash/restart — the subORAM
    // reply caches key on the epoch id, and a restarted balancer must not
    // reuse old ids for new batches — and (b) each balancer ticks ids from
    // its own residue class (`wall * L + index`) without coordination, so
    // ids never collide across balancers. The ticker coalesces: after a
    // stall only the newest id fires. Ids a balancer never ticked are simply
    // absent from its stream — safe, because subORAMs execute each
    // balancer's batch on arrival rather than waiting for every balancer per
    // wall epoch. A backwards clock step produces no tick at all (monotonic
    // clamp) rather than a reused id.
    {
        let events_tx = events_tx.clone();
        let epoch_ms = manifest.epoch_ms.max(1);
        let interval = Duration::from_millis(epoch_ms);
        let num_lbs = manifest.load_balancers.len();
        std::thread::spawn(move || {
            let mut ticker = EpochTicker::new(epoch_ms, num_lbs, index, unix_millis());
            loop {
                std::thread::sleep(interval);
                if let Some(epoch) = ticker.next(unix_millis()) {
                    if events_tx.send(LbEvent::Tick(epoch)).is_err() {
                        return;
                    }
                }
            }
        });
    }

    let mut transport = TcpLbTransport {
        events: events_rx,
        flush,
        subs,
        sub_stats,
        lb_index: index as u64,
        send_seq: vec![(u64::MAX, 0); s_total],
    };
    let control = ReshardControl {
        rebuild: {
            let shared_key = shared_key.clone();
            let value_len = manifest.value_len;
            let lambda = manifest.lambda;
            let lb_threads = manifest.lb_threads as usize;
            Box::new(move |s| {
                LoadBalancer::new(&shared_key, s, value_len, lambda).with_threads(lb_threads)
            })
        },
        initial_generation,
        initial_active,
    };
    run_load_balancer(&mut transport, manifest.fault_policy(), control);
    events::record(Event::new(EventKind::Shutdown));
    events::recorder().dump("shutdown");
    Ok(())
}

/// Milliseconds since the Unix epoch (0 if the clock reads before it).
fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// This balancer's epoch-id source, separated from the clock so the
/// monotonic guard is testable with injected timestamps.
///
/// Balancer `index` of `num_lbs` owns the residue class `index mod num_lbs`
/// of the composite epoch-id namespace: from a wall clock reading `now_ms`
/// it derives the id `(now_ms / epoch_ms) * num_lbs + index`. Ids are
/// clamped monotone — if the wall clock steps backwards (NTP correction, VM
/// migration) the ticker goes silent until the clock passes its previous
/// high-water mark, rather than ever re-issuing an id the subORAM reply
/// caches may already hold. Catch-up is coalesced: a stall yields one tick
/// with the newest id, not a burst of stale ones (ids never ticked are
/// simply absent from this balancer's stream, which no subORAM waits for).
pub struct EpochTicker {
    epoch_ms: u64,
    num_lbs: u64,
    index: u64,
    /// The last wall epoch this ticker issued an id for (high-water mark).
    last_wall: u64,
}

impl EpochTicker {
    /// A ticker for balancer `index` of `num_lbs`, anchored at `now_ms` so
    /// the first tick fires for the *next* wall epoch (a restarted balancer
    /// never re-ticks the wall epoch it died in).
    pub fn new(epoch_ms: u64, num_lbs: usize, index: usize, now_ms: u64) -> EpochTicker {
        let epoch_ms = epoch_ms.max(1);
        EpochTicker {
            epoch_ms,
            num_lbs: num_lbs.max(1) as u64,
            index: index as u64,
            last_wall: now_ms / epoch_ms,
        }
    }

    /// The composite epoch id to tick for a clock reading of `now_ms`, or
    /// `None` if the clock has not advanced past the last issued wall epoch
    /// (including any backwards step — ids never decrease).
    pub fn next(&mut self, now_ms: u64) -> Option<u64> {
        let wall = now_ms / self.epoch_ms;
        if wall <= self.last_wall {
            return None;
        }
        self.last_wall = wall;
        Some(wall * self.num_lbs + self.index)
    }
}

/// Turns accepted hellos (clients, admins) into session handlers.
struct ClientAcceptor {
    lb_index: usize,
    deploy: Key256,
    value_len: usize,
    events_tx: Sender<LbEvent>,
    flush: FlushList,
    registry: StatsRegistry,
    info: DaemonInfo,
    client_counter: u64,
}

impl ClientAcceptor {
    fn accept(&mut self, hello: Hello, handle: &SessionHandle) -> Option<Box<dyn SessionHandler>> {
        match hello.role {
            Role::Client => {
                self.client_counter += 1;
                let stats = self.registry.link(&format!("client/{}", self.client_counter));
                let (req_link, resp_link) =
                    proto::client_session_links(&self.deploy, self.lb_index, hello.session);
                let replies = Arc::new(SessionReplies {
                    handle: handle.clone(),
                    stats,
                    flush_list: self.flush.clone(),
                    state: Mutex::new(StagedReplies { resp_link, epoch: 0, rows: Vec::new() }),
                });
                Some(Box::new(ClientSessionHandler {
                    req_link,
                    replies,
                    value_len: self.value_len,
                    events_tx: self.events_tx.clone(),
                }))
            }
            Role::Admin => {
                record_peer_clock_offset("admin", hello.wall_ns);
                let events_tx = self.events_tx.clone();
                let handler = AdminHandler::new(self.registry.clone(), self.info, move || {
                    let _ = events_tx.send(LbEvent::Shutdown);
                })
                .with_reshard(reshard::lb_rpc_handler(self.events_tx.clone()));
                Some(Box::new(handler))
            }
            // Balancers do not dial balancers.
            Role::LoadBalancer => None,
        }
    }
}

/// One accepted client session: opens sealed request batches and fans each
/// request into the epoch loop with a reply sink bound to this session.
struct ClientSessionHandler {
    req_link: Link,
    replies: Arc<SessionReplies>,
    value_len: usize,
    events_tx: Sender<LbEvent>,
}

impl SessionHandler for ClientSessionHandler {
    fn on_frame(&mut self, t: u8, body: Vec<u8>, _handle: &SessionHandle) -> Control {
        self.replies.stats.received(body.len());
        if t != tag::CLIENT_REQ {
            return Control::Close;
        }
        let sealed = snoopy_crypto::aead::SealedBox { bytes: body };
        let Ok(batch) = self.req_link.open(&sealed, self.value_len) else {
            return Control::Close;
        };
        // Ids at or above REAL_ID_LIMIT are reserved for the balancer's
        // dummies and the hash table's fillers; one in a batch would collide
        // with a dummy slot and get the whole epoch refused. Honest clients
        // never send one (`SnoopyClient` refuses before sending), so the
        // session is closed like one whose frame does not open — before any
        // of its requests reaches the epoch.
        if batch.iter().any(|req| req.id >= REAL_ID_LIMIT) {
            record_refused_client();
            return Control::Close;
        }
        for req in batch {
            let sink = TcpReplySink { session: self.replies.clone(), seq: req.seq };
            if self.events_tx.send(LbEvent::Client(req, Box::new(sink))).is_err() {
                return Control::Close;
            }
        }
        Control::Continue
    }
}

/// Counts and flight-records a client session closed for a request in the
/// reserved id namespace. The close is wire-observable, and only a client
/// breaking the protocol triggers it.
fn record_refused_client() {
    metrics::global()
        .counter(
            metrics::names::REFUSED_CLIENT_SESSIONS_TOTAL,
            "client sessions closed for a request id in the reserved namespace",
        )
        .inc(Public::wire_observable(()));
    events::record(Event::new(EventKind::ClientRefused));
}

/// Everything one dialer thread needs to own its subORAM connection.
struct DialerCtx {
    addr: String,
    lb_index: usize,
    sub: usize,
    num_suborams: usize,
    deploy: Key256,
    value_len: usize,
    subs: SubSlots,
    events_tx: Sender<LbEvent>,
    stats: Arc<LinkStats>,
    reactor: ReactorHandle,
}

/// Connects to one subORAM forever: dial with capped exponential backoff,
/// hello, register the session with the reactor, then park until the
/// session dies.
fn dialer(ctx: DialerCtx) {
    let DialerCtx {
        addr,
        lb_index,
        sub,
        num_suborams,
        deploy,
        value_len,
        subs,
        events_tx,
        stats,
        reactor,
    } = ctx;
    let policy = RetryPolicy::dialer_default().jitter_seed(sub as u64);
    let mut established_before = false;
    // Consecutive sessions that closed before any inbound frame: a peer that
    // accepts and hangs up (a subORAM down behind a proxy) is redialed under
    // the same capped backoff as a refused connect, not at once.
    let mut quiet_closes = 0u32;
    loop {
        std::thread::sleep(policy.backoff(quiet_closes));
        // Dial under the dialer policy: capped exponential backoff with
        // deterministic jitter, retrying forever (the balancer cannot make
        // progress without this link). The dial span covers
        // connect-through-hello: connection establishment against a public
        // address is wire-observable timing.
        let dial_span = trace::span("dial");
        let Ok(mut stream) = policy.run(|attempt| {
            if attempt > 0 {
                stats.retried();
            }
            TcpStream::connect(&addr)
        }) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        let hello = Hello::new(Role::LoadBalancer, lb_index as u64);
        // The hello goes out while the stream is still blocking; the reactor
        // flips it nonblocking at registration.
        if write_frame(&mut stream, tag::HELLO, &hello.encode()).is_err() {
            quiet_closes += 1;
            continue;
        }
        metrics::stage_histogram("dial").observe(Public::timing(dial_span.finish()));
        let (batch_link, resp_link) =
            proto::suboram_session_links(&deploy, lb_index, sub, num_suborams, hello.session);

        let (closed_tx, closed_rx) = channel();
        let handler = SubDialHandler {
            sub,
            resp_link,
            value_len,
            events_tx: events_tx.clone(),
            stats: stats.clone(),
            heard: false,
            closed_tx,
        };
        // A session the peer already closed still goes on: its `on_close`
        // wakes the park below, which redials.
        let Some(handle) = reactor.register(stream, Box::new(handler)) else {
            return; // reactor gone: daemon is shutting down
        };
        *subs[sub].lock().unwrap() = Some(SubSession { handle, batch_link });
        if established_before {
            stats.reconnected();
        }
        established_before = true;
        if events_tx.send(LbEvent::SubLinkRestored { suboram: sub }).is_err() {
            return; // balancer loop gone: daemon is shutting down
        }

        // Park until the reactor reports the session closed, then clear the
        // slot (if a send path has not already) and redial.
        let Ok(heard) = closed_rx.recv() else { return };
        *subs[sub].lock().unwrap() = None;
        quiet_closes = if heard { 0 } else { quiet_closes + 1 };
    }
}

/// The dialer-established subORAM session, as the reactor drives it: opens
/// sealed response batches and typed refusals, feeding the epoch loop.
struct SubDialHandler {
    sub: usize,
    resp_link: Link,
    value_len: usize,
    events_tx: Sender<LbEvent>,
    stats: Arc<LinkStats>,
    /// Whether any frame arrived on this session.
    heard: bool,
    /// Reports the close, and `heard`, to the dialer.
    closed_tx: Sender<bool>,
}

impl SessionHandler for SubDialHandler {
    fn on_frame(&mut self, t: u8, body: Vec<u8>, _handle: &SessionHandle) -> Control {
        self.stats.received(body.len());
        self.heard = true;
        if t == tag::RESP_ERR {
            // Typed refusal: plaintext epoch id. Forward it so the epoch
            // loop can degrade immediately instead of replaying a batch the
            // subORAM will deterministically refuse again.
            let Ok(bytes) = <[u8; 8]>::try_from(&body[..]) else { return Control::Close };
            let epoch = u64::from_le_bytes(bytes);
            if self.events_tx.send(LbEvent::SubFailed { suboram: self.sub, epoch }).is_err() {
                return Control::Close;
            }
            return Control::Continue;
        }
        if t != tag::RESP_BATCH {
            return Control::Close;
        }
        let Some((epoch, sealed)) = proto::decode_epoch_sealed(&body) else {
            return Control::Close;
        };
        let Ok(batch) = self.resp_link.open(&sealed, self.value_len) else {
            return Control::Close;
        };
        if self.events_tx.send(LbEvent::SubResponse { suboram: self.sub, epoch, batch }).is_err() {
            return Control::Close;
        }
        Control::Continue
    }

    fn on_close(&mut self) {
        let _ = self.closed_tx.send(self.heard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_response_frame_holds_as_many_rows_as_fit() {
        for (value_len, max_frame) in [(160, MAX_FRAME_LEN), (32, 1_000), (8, 90)] {
            let n = responses_per_frame(value_len, max_frame);
            let frame = |rows: usize| 1 + 8 + rows * (RESPONSE_HEADER + value_len) + 16;
            assert!(frame(n) <= max_frame, "{value_len}/{max_frame}: {n} rows overflow");
            assert!(frame(n + 1) > max_frame, "{value_len}/{max_frame}: room for {}", n + 1);
        }
        // A row too large for any frame still ships, one per frame.
        assert_eq!(responses_per_frame(1 << 20, 1_000), 1);
    }

    #[test]
    fn ticker_ids_come_from_this_balancers_residue_class() {
        // Balancer 1 of 3, epoch_ms = 10, anchored at t = 0.
        let mut t = EpochTicker::new(10, 3, 1, 0);
        #[allow(clippy::identity_op)]
        let first = 1 * 3 + 1; // wall_epoch 1, times k=3 balancers, plus index 1
        assert_eq!(t.next(10), Some(first));
        assert_eq!(t.next(20), Some(2 * 3 + 1));
        assert_eq!(t.next(30), Some(3 * 3 + 1));
    }

    #[test]
    fn backwards_clock_step_never_decreases_epoch_ids() {
        let mut t = EpochTicker::new(10, 2, 0, 100);
        let before = t.next(110).expect("clock advanced");
        // The wall clock steps back 40ms (NTP correction): no tick at all —
        // re-issuing an id would collide with reply-cache entries.
        assert_eq!(t.next(70), None);
        assert_eq!(t.next(90), None);
        // Replaying the exact pre-step reading is also refused.
        assert_eq!(t.next(110), None);
        // Once the clock passes the high-water mark, ids resume above it.
        let after = t.next(120).expect("clock passed the high-water mark");
        assert!(after > before, "ids must be strictly increasing, got {before} then {after}");
    }

    #[test]
    fn stalls_coalesce_to_the_newest_id() {
        let mut t = EpochTicker::new(10, 2, 1, 0);
        assert_eq!(t.next(10), Some(3));
        // A 50ms scheduler stall: one tick with the newest id, not a burst.
        assert_eq!(t.next(60), Some(6 * 2 + 1));
        assert_eq!(t.next(60), None, "same reading ticks at most once");
    }

    #[test]
    fn anchor_skips_the_wall_epoch_the_ticker_started_in() {
        // A balancer restarting at t = 57 (wall epoch 5) must not re-tick 5.
        let mut t = EpochTicker::new(10, 1, 0, 57);
        assert_eq!(t.next(59), None);
        assert_eq!(t.next(61), Some(6));
    }
}
