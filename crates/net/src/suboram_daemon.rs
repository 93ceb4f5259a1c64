//! The subORAM daemon: a `snoopyd --role suboram` process.
//!
//! Listens on its manifest address and serves two kinds of peers, all
//! multiplexed onto the readiness reactor ([`crate::reactor`]) — no thread
//! is ever spawned per connection:
//!
//! * **Load balancers** dial in with a session hello; each session gets its
//!   own pair of AEAD links. The session's handler opens sealed epoch
//!   batches and feeds the shared [`run_suboram`] loop; responses go back
//!   over the same connection via the session's bounded outbound buffer. A
//!   balancer that reconnects simply replaces its session — the reply cache
//!   makes redelivered batches idempotent.
//! * **Admins** issue the plaintext `stats` RPC or a graceful shutdown; the
//!   `SHUTDOWN_ACK` is flushed to the wire (the reactor's drain-then-close
//!   path) before the shutdown event fires.
//!
//! The daemon checkpoints after every executed epoch, before responding
//! (see [`crate::checkpoint`]), so `kill -9` at any instant is recoverable.

use crate::checkpoint::{self, SaveError, StorageSpec};
use crate::manifest::Manifest;
use crate::proto::{self, tag, Hello, Role};
use crate::reactor::{self, Control, SessionHandle, SessionHandler};
use crate::reshard::{self, SubReshardCtx};
use crate::stats::{DaemonInfo, LinkStats, StatsRegistry};
use snoopy_core::link::Link;
use snoopy_core::reshard::{StagingBackend, SubStaging};
use snoopy_core::transport::{run_suboram, SubEvent, SubOramNode, SubTransport};
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::StoredObject;
use snoopy_suboram::{ObjectSlab, SubOram};
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::{merge, metrics, trace, Public};
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// One live balancer session (the write side; reads happen in the session's
/// reactor handler).
struct LbConn {
    session: u64,
    handle: SessionHandle,
    resp_link: Link,
    stats: Arc<LinkStats>,
}

/// Shared slots, one per balancer index.
type ConnTable = Arc<Mutex<Vec<Option<LbConn>>>>;

struct TcpSubTransport {
    events: Receiver<SubEvent>,
    conns: ConnTable,
}

impl SubTransport for TcpSubTransport {
    fn recv(&mut self) -> Option<SubEvent> {
        self.events.recv().ok()
    }

    fn send_response(&mut self, lb: usize, epoch: u64, batch: &[snoopy_enclave::wire::Request]) {
        // Seal and enqueue under the table lock so the AEAD nonce order
        // matches the enqueue order exactly.
        let mut conns = self.conns.lock().unwrap();
        let Some(conn) = conns[lb].as_mut() else {
            // Balancer currently disconnected: drop the response. It will
            // resend the batch on reconnect and the reply cache answers.
            return;
        };
        let sealed = match conn.resp_link.seal(batch) {
            Ok(s) => s,
            Err(_) => {
                conn.handle.close();
                conns[lb] = None;
                return;
            }
        };
        let body = proto::encode_epoch_sealed(epoch, &sealed);
        if conn.handle.send_frame(tag::RESP_BATCH, &body) {
            conn.stats.sent(body.len());
        } else {
            // Bounded-buffer overflow or a dead session: the handle killed
            // the session; the balancer replays over a fresh one.
            conns[lb] = None;
        }
    }

    fn send_error(&mut self, lb: usize, epoch: u64) {
        // Typed refusal: a plaintext RESP_ERR frame naming only the epoch
        // (the subORAM index is implicit in the connection). Refusals are
        // deterministic, so a disconnected balancer rediscovers the same
        // refusal when it replays after reconnecting.
        let mut conns = self.conns.lock().unwrap();
        let Some(conn) = conns[lb].as_mut() else { return };
        let body = epoch.to_le_bytes();
        if conn.handle.send_frame(tag::RESP_ERR, &body) {
            conn.stats.sent(body.len());
        } else {
            conns[lb] = None;
        }
    }
}

/// Runs the subORAM daemon until an admin shutdown. `checkpoint_path`
/// enables crash recovery (recommended; the integration tests rely on it).
pub fn run(
    manifest: &Manifest,
    index: usize,
    checkpoint_path: Option<PathBuf>,
    registry: &StatsRegistry,
) -> io::Result<()> {
    if index >= manifest.suborams.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "suboram index {index} out of range (manifest has {})",
                manifest.suborams.len()
            ),
        ));
    }
    let num_lbs = manifest.load_balancers.len();
    let mut prg = Prg::from_seed(manifest.seed);
    let shared_key = Key256::random(&mut prg);
    let deploy = proto::deployment_key(manifest.seed);
    let mut oram_label = b"suboram-key/".to_vec();
    oram_label.extend_from_slice(&(index as u64).to_le_bytes());
    let oram_key = deploy.derive(&oram_label);
    let ckpt_key = checkpoint::checkpoint_key(&deploy, index);

    // Recover from a checkpoint if one exists, else build the partition from
    // the deterministic initial store over the manifest's storage tier. For
    // the disk tier, recovery reopens the committed generation the sealed
    // checkpoint names (verifying its root digest); a fresh start seals
    // generation 0 under `<store_dir>/sub<index>`.
    let spec = StorageSpec::from_manifest(manifest, index);
    let recovered = match &checkpoint_path {
        Some(path) => checkpoint::load(&ckpt_key, path, oram_key.clone(), manifest.lambda, &spec)?,
        None => None,
    };
    let node = match recovered {
        Some(node) => node,
        None => {
            // Boot layout: the manifest's *active* fleet size, which may be
            // smaller than the provisioned address list (warm spares hold an
            // empty partition until a reshard grows into them).
            let active = manifest.initial_active();
            let part = manifest.initial_partition(&shared_key, active, index);
            let oram = spec.fresh_suboram(part, oram_key.clone(), manifest.lambda)?;
            let mut node = SubOramNode::new(oram, num_lbs);
            node.set_layout(0, active);
            node
        }
    };
    // Bound the reply cache (and with it the checkpoint size): epochs older
    // than `retain_epochs` evict, and a replay of an evicted epoch gets a
    // typed refusal instead of a corrupting re-execution.
    let mut node = node
        .with_index(index)
        .with_retain(manifest.retain_epochs as usize)
        .with_threads(manifest.sub_threads as usize);

    events::recorder().set_identity("suboram", index as u64);
    let listener = TcpListener::bind(&manifest.suborams[index])?;
    let (events_tx, events_rx) = channel();
    let conns: ConnTable = Arc::new(Mutex::new((0..num_lbs).map(|_| None).collect()));
    {
        let ctx = AcceptCtx {
            manifest: manifest.clone(),
            index,
            deploy: deploy.clone(),
            conns: conns.clone(),
            events_tx: events_tx.clone(),
            registry: registry.clone(),
            info: DaemonInfo::new("suboram", index as u64),
        };
        reactor::spawn(listener, Box::new(move |hello, handle| ctx.accept(hello, handle)));
    }

    let mut transport = TcpSubTransport { events: events_rx, conns };
    let staging = SubStaging::new(
        oram_key,
        DaemonStaging {
            spec,
            value_len: manifest.value_len,
            lambda: manifest.lambda,
            checkpoint: checkpoint_path.clone().map(|path| (path, ckpt_key.clone())),
        },
    );
    let after_epoch = |node: &mut SubOramNode, epoch: u64| {
        // Durability point: the storage generation and the checkpoint must
        // both land before any response for this epoch escapes.
        match node.oram_mut().commit_storage(epoch) {
            Ok(_) => {}
            Err(snoopy_suboram::SubOramError::Integrity(_)) => {
                // Poisoned partition: the node keeps serving typed refusals;
                // skip the save so the last healthy checkpoint survives.
                return;
            }
            // A storage commit that fails for I/O reasons means durability
            // is gone: fail stop before any response escapes, so the next
            // incarnation recovers from the previous sealed generation.
            Err(e) => panic!("storage commit failed: {e}"),
        }
        if let Some(path) = &checkpoint_path {
            let seal_span = trace::span("checkpoint_seal");
            match checkpoint::save(node, &ckpt_key, path) {
                Ok(()) => {}
                // Same split as the commit: a poisoned node skips the save
                // (stale checkpoint describes the last good state), an I/O
                // failure is fail-stop.
                Err(SaveError::Integrity(_)) => return,
                Err(SaveError::Io(e)) => panic!("checkpoint write failed: {e}"),
            }
            metrics::stage_histogram("checkpoint_seal").observe(Public::timing(seal_span.finish()));
            events::record(
                Event::new(EventKind::CheckpointCommit)
                    .with("epoch", Public::wire_observable(epoch)),
            );
        }
    };
    run_suboram(&mut transport, &mut node, staging, after_epoch);
    events::record(Event::new(EventKind::Shutdown));
    events::recorder().dump("shutdown");
    Ok(())
}

/// The TCP plane's half of the reshard staging machine: each generation
/// stages in its own segment directory on the disk tier, a commit is
/// re-checkpointed before it is acknowledged, and a superseded generation's
/// segments are scrubbed.
struct DaemonStaging {
    spec: StorageSpec,
    value_len: usize,
    lambda: u32,
    checkpoint: Option<(PathBuf, Key256)>,
}

impl StagingBackend for DaemonStaging {
    fn build(
        &mut self,
        generation: u64,
        objects: Vec<StoredObject>,
        key: Key256,
    ) -> Result<SubOram, String> {
        let spec = match &self.spec {
            StorageSpec::Disk { dir, cfg } => {
                let dir = snoopy_store::generation_dir(dir, generation);
                let _ = std::fs::remove_dir_all(&dir);
                StorageSpec::Disk { dir, cfg: *cfg }
            }
            other => other.clone(),
        };
        let part = ObjectSlab::from_objects(&objects, self.value_len);
        drop(objects);
        spec.fresh_suboram(part, key, self.lambda).map_err(|e| e.to_string())
    }

    fn persist(&mut self, node: &SubOramNode) -> Result<(), String> {
        match &self.checkpoint {
            Some((path, key)) => {
                checkpoint::save(node, key, path).map_err(|e| format!("checkpoint failed: {e}"))
            }
            None => Ok(()),
        }
    }

    fn scrub(&mut self, generation: u64) {
        // Generation 0's boot directory may be the operator's to keep.
        if generation == 0 {
            return;
        }
        if let StorageSpec::Disk { dir, .. } = &self.spec {
            let _ = std::fs::remove_dir_all(snoopy_store::generation_dir(dir, generation));
        }
    }
}

/// Publishes the session-handshake clock-offset estimate for a peer: the
/// hello carries the dialer's wall clock (`wall_ns`), so `theirs − ours` at
/// accept time bounds the skew to within the (one-way) connect latency.
/// A stamp of 0 means the dialer's clock is unknown, and is skipped.
/// Both the stamp and accept timing are wire-observable.
pub(crate) fn record_peer_clock_offset(peer: &str, wall_ns: u64) {
    if wall_ns == 0 {
        return;
    }
    let offset_s = (wall_ns as i64 - events::unix_now_ns() as i64) as f64 / 1e9;
    metrics::global()
        .gauge_labeled(
            "snoopy_peer_clock_offset_seconds",
            "estimated peer wall-clock offset (theirs minus ours) at session handshake",
            Some(("peer", peer)),
        )
        .set(Public::wire_observable(offset_s));
}

/// Everything the reactor's acceptor needs about the daemon it serves.
struct AcceptCtx {
    manifest: Manifest,
    index: usize,
    deploy: Key256,
    conns: ConnTable,
    events_tx: Sender<SubEvent>,
    registry: StatsRegistry,
    info: DaemonInfo,
}

impl AcceptCtx {
    /// Turns an accepted hello into this session's handler (reactor thread;
    /// key derivation only).
    fn accept(&self, hello: Hello, handle: &SessionHandle) -> Option<Box<dyn SessionHandler>> {
        match hello.role {
            Role::LoadBalancer => {
                let lb = hello.index as usize;
                if lb >= self.manifest.load_balancers.len() {
                    return None;
                }
                let stats = self.registry.link(&format!("lb/{lb}"));
                record_peer_clock_offset(&format!("lb/{lb}"), hello.wall_ns);
                let (batch_link, resp_link) = proto::suboram_session_links(
                    &self.deploy,
                    lb,
                    self.index,
                    self.manifest.suborams.len(),
                    hello.session,
                );
                {
                    let mut table = self.conns.lock().unwrap();
                    if let Some(old) = table[lb].take() {
                        // A replacement session: kill the stale connection.
                        old.handle.close();
                        stats.reconnected();
                    }
                    table[lb] = Some(LbConn {
                        session: hello.session,
                        handle: handle.clone(),
                        resp_link,
                        stats: stats.clone(),
                    });
                }
                Some(Box::new(LbSessionHandler {
                    lb,
                    session: hello.session,
                    batch_link,
                    value_len: self.manifest.value_len,
                    stats,
                    conns: self.conns.clone(),
                    events_tx: self.events_tx.clone(),
                }))
            }
            Role::Admin => {
                record_peer_clock_offset("admin", hello.wall_ns);
                let events_tx = self.events_tx.clone();
                let handler = AdminHandler::new(self.registry.clone(), self.info, move || {
                    let _ = events_tx.send(SubEvent::Shutdown);
                })
                .with_reshard(reshard::sub_rpc_handler(SubReshardCtx {
                    events_tx: self.events_tx.clone(),
                    deploy: self.deploy.clone(),
                    value_len: self.manifest.value_len,
                    num_objects: self.manifest.num_objects,
                    index: self.index,
                }));
                Some(Box::new(handler))
            }
            // Clients talk to balancers, not subORAMs.
            Role::Client => None,
        }
    }
}

/// One accepted balancer session, as the reactor drives it.
struct LbSessionHandler {
    lb: usize,
    session: u64,
    batch_link: Link,
    value_len: usize,
    stats: Arc<LinkStats>,
    conns: ConnTable,
    events_tx: Sender<SubEvent>,
}

impl SessionHandler for LbSessionHandler {
    fn on_frame(&mut self, t: u8, body: Vec<u8>, _handle: &SessionHandle) -> Control {
        self.stats.received(body.len());
        if t != tag::BATCH {
            return Control::Close;
        }
        let Some((ctx, sealed)) = proto::decode_batch_ctx(&body) else {
            return Control::Close;
        };
        // The frame's trace context is plaintext routing metadata — epoch,
        // balancer index and per-(sub, epoch) send sequence, all
        // wire-observable already. The sequence distinguishes a first send
        // (seq 0) from replay waves in traces and flight-recorder dumps.
        let epoch = ctx.epoch;
        // A link failure (tamper/replay) kills the session; the balancer
        // redials with a fresh one.
        let Ok(batch) = self.batch_link.open(&sealed, self.value_len) else {
            return Control::Close;
        };
        if self
            .events_tx
            .send(SubEvent::Batch { lb: self.lb, epoch, generation: ctx.generation, batch })
            .is_err()
        {
            return Control::Close;
        }
        Control::Continue
    }

    fn on_close(&mut self) {
        let mut table = self.conns.lock().unwrap();
        // Only clear the slot if it still belongs to this session (a newer
        // session may already have replaced it).
        if table[self.lb].as_ref().is_some_and(|c| c.session == self.session) {
            table[self.lb] = None;
        }
    }
}

/// Serves `stats`/`health`/`metrics`/`shutdown` on an admin session. Shared
/// by both daemon roles. The shutdown callback fires from `on_drained`,
/// after the `SHUTDOWN_ACK` has been flushed to the wire — an admin that has
/// read the ack knows the daemon is really going down.
pub(crate) struct AdminHandler {
    registry: StatsRegistry,
    info: DaemonInfo,
    shutdown: Box<dyn Fn() + Send>,
    shutting_down: bool,
    /// Reshard RPC handler, when this daemon's role supports resharding.
    /// Sessions without one refuse `RESHARD_REQ` frames.
    reshard: Option<reshard::RpcHandler>,
}

impl AdminHandler {
    pub(crate) fn new(
        registry: StatsRegistry,
        info: DaemonInfo,
        shutdown: impl Fn() + Send + 'static,
    ) -> AdminHandler {
        AdminHandler {
            registry,
            info,
            shutdown: Box::new(shutdown),
            shutting_down: false,
            reshard: None,
        }
    }

    /// Installs the role's reshard frame handler on this session.
    pub(crate) fn with_reshard(mut self, handler: reshard::RpcHandler) -> AdminHandler {
        self.reshard = Some(handler);
        self
    }
}

impl SessionHandler for AdminHandler {
    fn on_frame(&mut self, t: u8, body: Vec<u8>, handle: &SessionHandle) -> Control {
        let rpc_span = trace::span("rpc");
        let control = match t {
            tag::RESHARD_REQ => match (self.reshard.as_mut(), reshard::ReshardReq::decode(&body)) {
                (Some(handler), Some(req)) => {
                    let mut ok = true;
                    for r in handler(req) {
                        if !handle.send_frame(tag::RESHARD_RESP, &r.encode()) {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        Control::Continue
                    } else {
                        Control::Close
                    }
                }
                _ => Control::Close,
            },
            tag::STATS_REQ => {
                let mut body = self.info.header().render();
                body.push('\n');
                body.push_str(&self.registry.render());
                if handle.send_frame(tag::STATS_RESP, body.as_bytes()) {
                    Control::Continue
                } else {
                    Control::Close
                }
            }
            tag::HEALTH_REQ => {
                // Liveness probe: just the identity/uptime/epoch header —
                // cheap enough for tight heartbeat loops, and everything in
                // it is public configuration or coarse process age.
                let body = self.info.header().render();
                if handle.send_frame(tag::HEALTH_RESP, body.as_bytes()) {
                    Control::Continue
                } else {
                    Control::Close
                }
            }
            tag::METRICS_REQ => {
                let reg = metrics::global();
                // Bridge link counters in at scrape time; everything else
                // (epoch counters, stage histograms) is already live.
                self.registry.publish_metrics(reg);
                trace::tracer().publish_metrics(reg);
                let daemon = format!("{}/{}", self.info.role, self.info.index);
                reg.gauge_labeled(
                    "snoopy_uptime_seconds",
                    "seconds since this daemon started serving",
                    Some(("daemon", &daemon)),
                )
                .set(Public::timing(self.info.started.elapsed().as_secs_f64()));
                if handle.send_frame(tag::METRICS_RESP, reg.render_prometheus().as_bytes()) {
                    Control::Continue
                } else {
                    Control::Close
                }
            }
            tag::TRACE_REQ => {
                // Destructive drain: spans collected since the last trace
                // RPC, anchored to this process's wall clock so the
                // collector can rebase them (see `telemetry::merge`).
                let process = format!("{}/{}", self.info.role, self.info.index);
                let dump = merge::capture_dump(&process, trace::tracer());
                if handle.send_frame(tag::TRACE_RESP, dump.render_json().as_bytes()) {
                    Control::Continue
                } else {
                    Control::Close
                }
            }
            tag::EVENTS_REQ => {
                // Non-destructive snapshot of the flight recorder, as JSONL.
                let body = events::to_jsonl(&events::recorder().snapshot());
                if handle.send_frame(tag::EVENTS_RESP, body.as_bytes()) {
                    Control::Continue
                } else {
                    Control::Close
                }
            }
            tag::SHUTDOWN => {
                let _ = handle.send_frame(tag::SHUTDOWN_ACK, b"");
                self.shutting_down = true;
                Control::CloseAfterFlush
            }
            _ => Control::Close,
        };
        metrics::stage_histogram("rpc").observe(Public::timing(rpc_span.finish()));
        control
    }

    fn on_drained(&mut self) {
        if self.shutting_down {
            (self.shutdown)();
        }
    }
}
