//! Elastic resharding over TCP: the reshard wire protocol and the TCP
//! [`ReshardFleet`] the shared driver runs against.
//!
//! The protocol itself — plan, pause, export, install, commit subORAMs
//! first, flip balancers — is written once in [`snoopy_core::reshard`].
//! This module carries it between processes: [`reshard_cluster`] (surfaced
//! as `snoopyd reshard`) runs [`drive_reshard`] over admin-plane
//! `RESHARD_REQ`/`RESHARD_RESP` frames, and the daemons' admin sessions
//! round-trip each frame through their epoch loop. Migration payloads cross
//! the wire sealed, on the public schedule below.
//!
//! **Leakage.** The reconfiguration event is public by design — fleet sizes
//! are wire-observable configuration. What must *not* leak is anything about
//! the stored data: following Cloak's fixed-temporal-distribution argument,
//! every per-node transfer has the same shape regardless of contents —
//! exactly [`migration_batches`]`(num_objects)` AEAD-sealed batches of
//! exactly [`MIGRATION_BATCH_OBJECTS`] fixed-size object slots, padded with
//! dummy ids from the reserved namespace. The network sees the same byte
//! counts and cadence whether a partition is empty or holds every object.

use crate::frame::{read_frame, write_frame};
use crate::manifest::Manifest;
use crate::proto::{self, tag, Hello, Role};
use snoopy_core::reshard::{
    drive_reshard, FleetShape, ReshardCmd, ReshardFleet, ReshardOptions, ReshardPhase, ReshardPlan,
    ReshardReport, ReshardStatus, RpcFailure, SubReshardCmd, SubReshardReply,
};
use snoopy_core::transport::{LbEvent, SubEvent};
use snoopy_crypto::aead::{AeadKey, Nonce, SealedBox};
use snoopy_crypto::rng::Rng;
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{StoredObject, REAL_ID_LIMIT};
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::time::Duration;

/// Reshard command bytes (the `cmd` field of a [`ReshardReq`]).
pub mod cmd {
    /// Report status; changes nothing. Valid for both roles. The default
    /// [`super::ReshardReq`] is a status request.
    pub const STATUS: u8 = 0;
    /// Balancer: arm a plan (generation, new_s, boundary, TTL).
    pub const PLAN: u8 = 1;
    /// Both roles: commit the armed/staged layout.
    pub const COMMIT: u8 = 2;
    /// Both roles: drop the armed/staged layout; old layout stays live.
    pub const ABORT: u8 = 3;
    /// SubORAM: export the partition as sealed batches on the schedule.
    pub const EXPORT: u8 = 4;
    /// SubORAM: one staged-partition batch (idx/count in `arg1`/`arg2`).
    pub const INSTALL: u8 = 5;
}

/// Reshard reply kinds (the `kind` field of a [`ReshardResp`]).
pub mod resp {
    /// A [`snoopy_core::reshard::ReshardStatus`] snapshot.
    pub const STATUS: u8 = 0;
    /// One sealed export batch (idx/count in `batch_idx`/`n_batches`).
    pub const EXPORT: u8 = 1;
    /// The command was refused; payload is a UTF-8 reason. The live layout
    /// is untouched.
    pub const FAILED: u8 = 2;
}

/// Migration direction tags (fold into the sealing nonce so export and
/// install batches can never be confused for each other).
const DIR_EXPORT: u8 = 0;
const DIR_INSTALL: u8 = 1;

/// Object slots per sealed migration batch. Public protocol constant: with
/// [`migration_batches`] it fully determines the transfer shape.
pub const MIGRATION_BATCH_OBJECTS: usize = 64;

/// Sealed batches each node sends (export) and receives (install) per
/// migration — a *public* function of the deployment's object count alone.
/// Any partition fits: even after a shrink to S=1 a partition holds at most
/// `num_objects` objects.
pub fn migration_batches(num_objects: u64) -> u64 {
    num_objects.div_ceil(MIGRATION_BATCH_OBJECTS as u64).max(1)
}

/// The migration sealing key for one driver run: per generation *and* per
/// random run id, so an aborted run retried under the same generation never
/// reuses a `(key, nonce)` pair.
pub fn migration_key(deploy: &Key256, generation: u64, run: u64) -> Key256 {
    deploy.derive(b"reshard-migration").derive(&generation.to_le_bytes()).derive(&run.to_le_bytes())
}

/// Distinct node indices the migration nonce layout can address: the nonce
/// prefix holds the index in 16 bits, so a fleet past this bound would make
/// two subORAMs share AEAD nonce sequences under the same per-run key.
/// Enforced at manifest validation and (belt and braces) by
/// [`seal_migration`]/[`open_migration`].
pub const MAX_MIGRATION_NODES: u64 = 1 << 16;

fn mig_nonce(dir: u8, node: u64, idx: u64) -> Nonce {
    debug_assert!(node < MAX_MIGRATION_NODES);
    Nonce::from_parts(0x5E00_0000 | ((dir as u32) << 16) | (node as u32 & 0xFFFF), idx)
}

/// Rejects a node index the 16-bit nonce field would truncate (and alias).
fn check_mig_node(node: u64) -> io::Result<()> {
    if node >= MAX_MIGRATION_NODES {
        return Err(bad(format!(
            "node index {node} overflows the {MAX_MIGRATION_NODES}-node migration \
             nonce namespace"
        )));
    }
    Ok(())
}

fn mig_aad(generation: u64, new_s: u64) -> Vec<u8> {
    let mut aad = b"snoopy-reshard".to_vec();
    aad.extend_from_slice(&generation.to_le_bytes());
    aad.extend_from_slice(&new_s.to_le_bytes());
    aad
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("reshard: {}", msg.into()))
}

/// The public addressing context for one node's migration stream — every
/// field besides the batch index that keys, nonces, and authenticates its
/// sealed batches. All of it is public protocol state.
#[derive(Clone, Copy, Debug)]
pub struct MigrationCtx<'a> {
    /// The per-(generation, run) migration key from [`migration_key`].
    pub key: &'a Key256,
    /// [`DIR_EXPORT`] or [`DIR_INSTALL`]; folded into the nonce so the two
    /// directions never share a sequence.
    pub dir: u8,
    /// SubORAM index the stream belongs to.
    pub node: u64,
    /// Generation being staged (authenticated via AAD).
    pub generation: u64,
    /// Target fleet size (authenticated via AAD).
    pub new_s: u64,
    /// The deployment's fixed value length.
    pub value_len: usize,
}

/// Seals `objects` into the full public schedule for one node: exactly
/// [`migration_batches`]`(num_objects)` batches of exactly
/// [`MIGRATION_BATCH_OBJECTS`] slots, real objects first, dummy slots (ids
/// in the reserved `>= REAL_ID_LIMIT` namespace, zero values) after. The
/// sealed byte stream is the same length for an empty partition and a full
/// one.
pub fn seal_migration(
    ctx: &MigrationCtx<'_>,
    objects: &[StoredObject],
    num_objects: u64,
) -> io::Result<Vec<SealedBox>> {
    let &MigrationCtx { key, dir, node, generation, new_s, value_len } = ctx;
    check_mig_node(node)?;
    let n_batches = migration_batches(num_objects);
    let capacity = n_batches as usize * MIGRATION_BATCH_OBJECTS;
    if objects.len() > capacity {
        return Err(bad(format!(
            "partition of {} objects exceeds the public schedule capacity {capacity}",
            objects.len()
        )));
    }
    let aead = AeadKey::new(key.clone());
    let aad = mig_aad(generation, new_s);
    let mut out = Vec::with_capacity(n_batches as usize);
    for idx in 0..n_batches {
        let mut plain = Vec::with_capacity(MIGRATION_BATCH_OBJECTS * (8 + value_len));
        for slot in 0..MIGRATION_BATCH_OBJECTS {
            let pos = idx as usize * MIGRATION_BATCH_OBJECTS + slot;
            match objects.get(pos) {
                Some(o) => {
                    if o.value.len() != value_len {
                        return Err(bad("object value length disagrees with deployment"));
                    }
                    plain.extend_from_slice(&o.id.to_le_bytes());
                    plain.extend_from_slice(&o.value);
                }
                None => {
                    plain.extend_from_slice(&REAL_ID_LIMIT.to_le_bytes());
                    plain.extend_from_slice(&vec![0u8; value_len]);
                }
            }
        }
        out.push(aead.seal(mig_nonce(dir, node, idx), &aad, &plain));
    }
    Ok(out)
}

/// Opens one sealed migration batch and returns its *real* objects (dummy
/// slots from the reserved id namespace are dropped).
pub fn open_migration(
    ctx: &MigrationCtx<'_>,
    idx: u64,
    sealed: &SealedBox,
) -> io::Result<Vec<StoredObject>> {
    let &MigrationCtx { key, dir, node, generation, new_s, value_len } = ctx;
    check_mig_node(node)?;
    let plain = AeadKey::new(key.clone())
        .open(mig_nonce(dir, node, idx), &mig_aad(generation, new_s), sealed)
        .map_err(|_| bad("migration batch failed authentication"))?;
    let slot_len = 8 + value_len;
    if plain.len() != MIGRATION_BATCH_OBJECTS * slot_len {
        return Err(bad("migration batch has the wrong shape"));
    }
    let mut objects = Vec::new();
    for slot in plain.chunks_exact(slot_len) {
        let id = u64::from_le_bytes(slot[..8].try_into().unwrap());
        if id < REAL_ID_LIMIT {
            objects.push(StoredObject { id, value: slot[8..].to_vec() });
        }
    }
    Ok(objects)
}

/// One reshard command frame (the body of a [`tag::RESHARD_REQ`]). The
/// header is plaintext — every field is public protocol state — and the
/// payload (install batches) is sealed under the migration key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReshardReq {
    /// A [`cmd`] byte.
    pub cmd: u8,
    /// Plan/staged generation the command addresses.
    pub generation: u64,
    /// The target fleet size (PLAN, EXPORT, INSTALL; 0 otherwise).
    pub new_s: u64,
    /// PLAN: first wall boundary (0 = next tick). INSTALL: batch index.
    pub arg1: u64,
    /// PLAN: pause TTL in ms. INSTALL: total batches on the schedule.
    pub arg2: u64,
    /// Random per-driver-run id; keys the migration seal so a retried run
    /// never reuses a nonce sequence.
    pub run: u64,
    /// Sealed migration batch (INSTALL) or empty.
    pub payload: Vec<u8>,
}

impl ReshardReq {
    /// Serializes the request body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(41 + self.payload.len());
        out.push(self.cmd);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.new_s.to_le_bytes());
        out.extend_from_slice(&self.arg1.to_le_bytes());
        out.extend_from_slice(&self.arg2.to_le_bytes());
        out.extend_from_slice(&self.run.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// The migration stream this request addresses at subORAM `node`,
    /// sealed under `key` (its [`migration_key`]).
    fn migration<'k>(
        &self,
        key: &'k Key256,
        dir: u8,
        node: usize,
        value_len: usize,
    ) -> MigrationCtx<'k> {
        let (generation, new_s) = (self.generation, self.new_s);
        MigrationCtx { key, dir, node: node as u64, generation, new_s, value_len }
    }

    /// Parses a request body.
    pub fn decode(body: &[u8]) -> Option<ReshardReq> {
        if body.len() < 41 {
            return None;
        }
        Some(ReshardReq {
            cmd: body[0],
            generation: u64::from_le_bytes(body[1..9].try_into().ok()?),
            new_s: u64::from_le_bytes(body[9..17].try_into().ok()?),
            arg1: u64::from_le_bytes(body[17..25].try_into().ok()?),
            arg2: u64::from_le_bytes(body[25..33].try_into().ok()?),
            run: u64::from_le_bytes(body[33..41].try_into().ok()?),
            payload: body[41..].to_vec(),
        })
    }
}

/// One reshard reply frame (the body of a [`tag::RESHARD_RESP`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReshardResp {
    /// A [`resp`] kind byte.
    pub kind: u8,
    /// The node's current (STATUS) or addressed (EXPORT) generation.
    pub generation: u64,
    /// The node's active fleet size (STATUS; 0 otherwise).
    pub active_s: u64,
    /// Encoded [`ReshardPhase`] (STATUS; 0 otherwise).
    pub phase: u8,
    /// EXPORT: this batch's index on the schedule.
    pub batch_idx: u64,
    /// EXPORT: total batches on the schedule.
    pub n_batches: u64,
    /// Sealed export batch (EXPORT) or UTF-8 reason (FAILED) or empty.
    pub payload: Vec<u8>,
}

impl ReshardResp {
    /// Serializes the reply body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34 + self.payload.len());
        out.push(self.kind);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.active_s.to_le_bytes());
        out.push(self.phase);
        out.extend_from_slice(&self.batch_idx.to_le_bytes());
        out.extend_from_slice(&self.n_batches.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a reply body.
    pub fn decode(body: &[u8]) -> Option<ReshardResp> {
        if body.len() < 34 {
            return None;
        }
        Some(ReshardResp {
            kind: body[0],
            generation: u64::from_le_bytes(body[1..9].try_into().ok()?),
            active_s: u64::from_le_bytes(body[9..17].try_into().ok()?),
            phase: body[17],
            batch_idx: u64::from_le_bytes(body[18..26].try_into().ok()?),
            n_batches: u64::from_le_bytes(body[26..34].try_into().ok()?),
            payload: body[34..].to_vec(),
        })
    }

    /// The decoded status, if this is a STATUS reply.
    pub fn status(&self) -> Option<ReshardStatus> {
        if self.kind != resp::STATUS {
            return None;
        }
        Some(ReshardStatus {
            generation: self.generation,
            active_s: self.active_s as usize,
            phase: decode_phase(self.phase)?,
        })
    }

    /// The refusal reason, if this is a FAILED reply.
    pub fn reason(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }
}

fn encode_phase(p: ReshardPhase) -> u8 {
    match p {
        ReshardPhase::Idle => 0,
        ReshardPhase::Armed => 1,
        ReshardPhase::Paused => 2,
    }
}

fn decode_phase(b: u8) -> Option<ReshardPhase> {
    match b {
        0 => Some(ReshardPhase::Idle),
        1 => Some(ReshardPhase::Armed),
        2 => Some(ReshardPhase::Paused),
        _ => None,
    }
}

/// Builds a STATUS reply from a node's status.
pub(crate) fn status_resp(st: &ReshardStatus) -> ReshardResp {
    ReshardResp {
        kind: resp::STATUS,
        generation: st.generation,
        active_s: st.active_s as u64,
        phase: encode_phase(st.phase),
        ..ReshardResp::default()
    }
}

/// Builds a FAILED reply.
pub(crate) fn failed_resp(reason: impl Into<String>) -> ReshardResp {
    ReshardResp {
        kind: resp::FAILED,
        payload: reason.into().into_bytes(),
        ..ReshardResp::default()
    }
}

/// The per-admin-session reshard frame handler a daemon installs on its
/// [`crate::suboram_daemon::AdminHandler`]. Returns the reply frames to
/// send (possibly none: install batches only answer on schedule
/// completion).
pub(crate) type RpcHandler = Box<dyn FnMut(ReshardReq) -> Vec<ReshardResp> + Send>;

/// How long an admin-session handler waits for the epoch loop to answer a
/// control command before giving up (the loop may be finishing an epoch).
const LOOP_REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Reason prefix on FAILED replies that are *not* authoritative refusals:
/// the admin handler stopped waiting on the epoch loop, but the command is
/// still queued and may yet apply (e.g. a commit whose checkpoint persist
/// outlives the wait). Drivers must treat such a reply like a lost ack —
/// probe the node's status — never like a refusal that justifies aborting.
pub(crate) const REASON_INDETERMINATE: &str = "indeterminate: ";

/// Reads a STATUS-or-FAILED reply the way the driver needs it: a FAILED
/// reply is a refusal unless it is marked [`REASON_INDETERMINATE`], and a
/// transport error is indeterminate (the command may still have applied).
fn status_reply(r: io::Result<ReshardResp>) -> Result<ReshardStatus, RpcFailure> {
    let r = r.map_err(|e| RpcFailure::Indeterminate(e.to_string()))?;
    r.status().ok_or_else(|| failure(&r))
}

fn failure(r: &ReshardResp) -> RpcFailure {
    let reason = r.reason();
    if reason.starts_with(REASON_INDETERMINATE) {
        RpcFailure::Indeterminate(reason)
    } else {
        RpcFailure::Refused(reason)
    }
}

/// Builds the reshard frame handler for a *balancer* daemon: each command
/// round-trips through the epoch loop (which alone owns the routing table)
/// as an [`LbEvent::Reshard`].
pub(crate) fn lb_rpc_handler(events_tx: Sender<LbEvent>) -> RpcHandler {
    Box::new(move |req: ReshardReq| {
        let core_cmd = match req.cmd {
            cmd::STATUS => ReshardCmd::Status,
            cmd::PLAN => ReshardCmd::Plan(ReshardPlan {
                generation: req.generation,
                new_s: req.new_s as usize,
                boundary_epoch: req.arg1,
                ttl: Duration::from_millis(req.arg2.max(1)),
            }),
            cmd::COMMIT => ReshardCmd::Commit { generation: req.generation },
            cmd::ABORT => ReshardCmd::Abort { generation: req.generation },
            _ => return vec![failed_resp("balancers neither export nor install partitions")],
        };
        let (tx, rx) = std::sync::mpsc::channel();
        if events_tx.send(LbEvent::Reshard { cmd: core_cmd, reply: tx }).is_err() {
            return vec![failed_resp("balancer loop is gone")];
        }
        match rx.recv_timeout(LOOP_REPLY_TIMEOUT) {
            Ok(st) => vec![status_resp(&st)],
            Err(_) => {
                vec![failed_resp(format!("{REASON_INDETERMINATE}balancer loop did not answer"))]
            }
        }
    })
}

/// Everything the subORAM daemon's reshard handler needs beyond the frame.
pub(crate) struct SubReshardCtx {
    /// Channel into the epoch loop.
    pub events_tx: Sender<SubEvent>,
    /// Deployment key (migration batches seal under a key derived from it).
    pub deploy: Key256,
    /// The deployment's object value length.
    pub value_len: usize,
    /// The deployment's total object count — fixes the public schedule.
    pub num_objects: u64,
    /// This subORAM's index.
    pub index: usize,
}

/// An install schedule in flight on one admin session: batches accumulate
/// here and hit the epoch loop as a single `Install` once complete.
struct PendingInstall {
    generation: u64,
    run: u64,
    new_s: u64,
    next_idx: u64,
    objects: Vec<StoredObject>,
}

/// Builds the reshard frame handler for a *subORAM* daemon: seals/opens the
/// migration batches at the session edge and round-trips the staging
/// commands through the epoch loop (which alone owns the partition) as
/// [`SubEvent::Reshard`]s.
pub(crate) fn sub_rpc_handler(ctx: SubReshardCtx) -> RpcHandler {
    let mut pending: Option<PendingInstall> = None;
    Box::new(move |req: ReshardReq| {
        let round_trip = |cmd: SubReshardCmd| -> Result<SubReshardReply, ReshardResp> {
            let (tx, rx) = std::sync::mpsc::channel();
            if ctx.events_tx.send(SubEvent::Reshard { cmd, reply: tx }).is_err() {
                return Err(failed_resp("suboram loop is gone"));
            }
            match rx.recv_timeout(LOOP_REPLY_TIMEOUT) {
                Ok(reply) => reply.map_err(failed_resp),
                Err(_) => {
                    Err(failed_resp(format!("{REASON_INDETERMINATE}suboram loop did not answer")))
                }
            }
        };
        let reply_of = |r: Result<SubReshardReply, ReshardResp>| match r {
            Ok(SubReshardReply::Status(st)) => status_resp(&st),
            Ok(SubReshardReply::Objects(_)) => failed_resp("unexpected object reply"),
            Err(resp) => resp,
        };
        match req.cmd {
            cmd::STATUS => vec![reply_of(round_trip(SubReshardCmd::Status))],
            cmd::EXPORT => {
                let export =
                    SubReshardCmd::Export { generation: req.generation, new_s: req.new_s as usize };
                let objects = match round_trip(export) {
                    Ok(SubReshardReply::Objects(objects)) => objects,
                    Ok(SubReshardReply::Status(_)) => {
                        return vec![failed_resp("export did not return objects")]
                    }
                    Err(resp) => return vec![resp],
                };
                let mig = migration_key(&ctx.deploy, req.generation, req.run);
                let mctx = req.migration(&mig, DIR_EXPORT, ctx.index, ctx.value_len);
                match seal_migration(&mctx, &objects, ctx.num_objects) {
                    Ok(sealed) => {
                        let n = sealed.len() as u64;
                        sealed
                            .into_iter()
                            .enumerate()
                            .map(|(i, s)| ReshardResp {
                                kind: resp::EXPORT,
                                generation: req.generation,
                                active_s: 0,
                                phase: 0,
                                batch_idx: i as u64,
                                n_batches: n,
                                payload: s.bytes,
                            })
                            .collect()
                    }
                    Err(e) => vec![failed_resp(e.to_string())],
                }
            }
            cmd::INSTALL => {
                let n_batches = migration_batches(ctx.num_objects);
                if req.arg2 != n_batches {
                    return vec![failed_resp("install schedule disagrees with the deployment")];
                }
                if req.arg1 == 0 {
                    pending = Some(PendingInstall {
                        generation: req.generation,
                        run: req.run,
                        new_s: req.new_s,
                        next_idx: 0,
                        objects: Vec::new(),
                    });
                }
                let stale = pending.as_ref().is_none_or(|p| {
                    p.generation != req.generation
                        || p.run != req.run
                        || p.new_s != req.new_s
                        || p.next_idx != req.arg1
                });
                if stale {
                    pending = None;
                    return vec![failed_resp("install batch out of sequence")];
                }
                let mig = migration_key(&ctx.deploy, req.generation, req.run);
                let mctx = req.migration(&mig, DIR_INSTALL, ctx.index, ctx.value_len);
                let opened =
                    open_migration(&mctx, req.arg1, &SealedBox { bytes: req.payload.clone() });
                let p = pending.as_mut().expect("checked above");
                match opened {
                    Ok(objects) => {
                        p.objects.extend(objects);
                        p.next_idx += 1;
                    }
                    Err(e) => {
                        pending = None;
                        return vec![failed_resp(e.to_string())];
                    }
                }
                if p.next_idx < n_batches {
                    // Mid-schedule: no reply until the last batch lands, so
                    // the driver gets exactly one verdict per schedule.
                    return Vec::new();
                }
                let done = pending.take().expect("checked above");
                vec![reply_of(round_trip(SubReshardCmd::Install {
                    generation: done.generation,
                    new_s: done.new_s as usize,
                    objects: done.objects,
                }))]
            }
            cmd::COMMIT => {
                vec![reply_of(round_trip(SubReshardCmd::Commit { generation: req.generation }))]
            }
            cmd::ABORT => {
                pending = None;
                vec![reply_of(round_trip(SubReshardCmd::Abort { generation: req.generation }))]
            }
            _ => vec![failed_resp("unknown reshard command")],
        }
    })
}

/// Dials `addr` as an admin, sends every request frame, and reads replies
/// until the response is complete (a lone STATUS/FAILED frame, or a full
/// export schedule).
pub(crate) fn reshard_rpc(
    addr: &str,
    reqs: &[ReshardReq],
    timeout: Duration,
) -> io::Result<Vec<ReshardResp>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    write_frame(&mut stream, tag::HELLO, &Hello::new(Role::Admin, 0).encode())?;
    for req in reqs {
        write_frame(&mut stream, tag::RESHARD_REQ, &req.encode())?;
    }
    let mut out: Vec<ReshardResp> = Vec::new();
    loop {
        let (t, body) = read_frame(&mut stream)?;
        if t != tag::RESHARD_RESP {
            return Err(bad("unexpected frame from daemon"));
        }
        let r = ReshardResp::decode(&body).ok_or_else(|| bad("malformed reply"))?;
        let want = if r.kind == resp::EXPORT { r.n_batches.max(1) } else { 1 };
        out.push(r);
        if out.len() as u64 >= want {
            return Ok(out);
        }
    }
}

fn single_rpc(addr: &str, req: ReshardReq, timeout: Duration) -> io::Result<ReshardResp> {
    let mut resps = reshard_rpc(addr, &[req], timeout)?;
    resps.pop().ok_or_else(|| bad("empty reply"))
}

/// Probes every subORAM for its committed layout and returns the one of the
/// highest generation, or `None` if no node has ever resharded (or none
/// answered). Balancers call this at boot: they are stateless, so after a
/// restart the durable side of the cluster — the subORAM checkpoints — is
/// the authority on which layout is live.
pub fn probe_layout(m: &Manifest, timeout: Duration) -> Option<(u64, usize)> {
    probe_layout_once(m, timeout).1
}

/// One probe sweep over the subORAM fleet: how many nodes answered at all,
/// plus the highest committed layout any answering node reported. The count
/// lets a caller distinguish "a node answered and nothing ever resharded"
/// (the manifest layout is authoritative) from "nobody answered" (the fleet
/// may be mid-recovery and the caller should retry before trusting the
/// manifest).
pub fn probe_layout_once(m: &Manifest, timeout: Duration) -> (usize, Option<(u64, usize)>) {
    let mut answered = 0usize;
    let mut best: Option<(u64, usize)> = None;
    for addr in &m.suborams {
        if let Ok(st) = status_reply(single_rpc(addr, ReshardReq::default(), timeout)) {
            answered += 1;
            if st.generation > 0 && st.active_s > 0 && best.is_none_or(|(g, _)| st.generation > g) {
                best = Some((st.generation, st.active_s));
            }
        }
    }
    (answered, best)
}

/// The TCP plane's [`ReshardFleet`]: one admin connection per RPC, migration
/// payloads sealed on the public schedule under a per-run key.
struct TcpFleet<'a> {
    m: &'a Manifest,
    deploy: Key256,
    /// Random per-run id: keys the migration seal so a retried run never
    /// reuses a nonce sequence.
    run: u64,
    timeout: Duration,
}

impl TcpFleet<'_> {
    fn req(&self, cmd: u8, generation: u64, new_s: usize) -> ReshardReq {
        ReshardReq { cmd, generation, new_s: new_s as u64, run: self.run, ..ReshardReq::default() }
    }
}

fn indeterminate(e: io::Error) -> RpcFailure {
    RpcFailure::Indeterminate(e.to_string())
}

impl ReshardFleet for TcpFleet<'_> {
    fn shape(&self) -> FleetShape {
        FleetShape {
            balancers: self.m.load_balancers.len(),
            suborams: self.m.suborams.len(),
            num_objects: self.m.num_objects,
            partition_key: Key256::random(&mut Prg::from_seed(self.m.seed)),
        }
    }

    fn lb(&mut self, i: usize, cmd: ReshardCmd) -> Result<ReshardStatus, RpcFailure> {
        let req = match cmd {
            ReshardCmd::Status => self.req(cmd::STATUS, 0, 0),
            ReshardCmd::Plan(p) => ReshardReq {
                arg1: p.boundary_epoch,
                arg2: p.ttl.as_millis() as u64,
                ..self.req(cmd::PLAN, p.generation, p.new_s)
            },
            ReshardCmd::Commit { generation } => self.req(cmd::COMMIT, generation, 0),
            ReshardCmd::Abort { generation } => self.req(cmd::ABORT, generation, 0),
        };
        status_reply(single_rpc(&self.m.load_balancers[i], req, self.timeout))
    }

    fn sub(&mut self, i: usize, cmd: SubReshardCmd) -> Result<SubReshardReply, RpcFailure> {
        let addr = &self.m.suborams[i];
        let n_batches = migration_batches(self.m.num_objects);
        let req = match cmd {
            SubReshardCmd::Status => self.req(cmd::STATUS, 0, 0),
            SubReshardCmd::Commit { generation } => self.req(cmd::COMMIT, generation, 0),
            SubReshardCmd::Abort { generation } => self.req(cmd::ABORT, generation, 0),
            SubReshardCmd::Export { generation, new_s } => {
                let req = self.req(cmd::EXPORT, generation, new_s);
                let key = migration_key(&self.deploy, generation, self.run);
                let ctx = req.migration(&key, DIR_EXPORT, i, self.m.value_len);
                let resps = reshard_rpc(addr, &[req], self.timeout).map_err(indeterminate)?;
                if let Some(r) = resps.iter().find(|r| r.kind != resp::EXPORT) {
                    return Err(failure(r));
                }
                if resps.len() as u64 != n_batches {
                    return Err(RpcFailure::Refused("export schedule incomplete".into()));
                }
                let mut objects = Vec::new();
                for r in resps {
                    let sealed = SealedBox { bytes: r.payload };
                    let batch = open_migration(&ctx, r.batch_idx, &sealed)
                        .map_err(|e| RpcFailure::Refused(e.to_string()))?;
                    objects.extend(batch);
                }
                return Ok(SubReshardReply::Objects(objects));
            }
            SubReshardCmd::Install { generation, new_s, objects } => {
                let req = self.req(cmd::INSTALL, generation, new_s);
                let key = migration_key(&self.deploy, generation, self.run);
                let ctx = req.migration(&key, DIR_INSTALL, i, self.m.value_len);
                let sealed = seal_migration(&ctx, &objects, self.m.num_objects)
                    .map_err(|e| RpcFailure::Refused(e.to_string()))?;
                let reqs: Vec<ReshardReq> = sealed
                    .into_iter()
                    .enumerate()
                    .map(|(idx, s)| ReshardReq {
                        arg1: idx as u64,
                        arg2: n_batches,
                        payload: s.bytes,
                        ..req.clone()
                    })
                    .collect();
                let mut resps = reshard_rpc(addr, &reqs, self.timeout).map_err(indeterminate)?;
                let last = resps.pop().ok_or_else(|| bad("no reply"));
                return status_reply(last).map(SubReshardReply::Status);
            }
        };
        status_reply(single_rpc(addr, req, self.timeout)).map(SubReshardReply::Status)
    }

    fn await_boundary(&mut self) {
        // The balancers' wall-clock tickers close the boundary epoch.
        std::thread::sleep(Duration::from_millis(self.m.epoch_ms.clamp(1, 50)));
    }
}

/// Reshards a live cluster to `new_s` subORAMs by running
/// [`drive_reshard`] over the manifest's daemons.
pub fn reshard_cluster(
    m: &Manifest,
    new_s: usize,
    opts: ReshardOptions,
) -> io::Result<ReshardReport> {
    // Manifest validation enforces this already; re-check here so a
    // hand-built manifest can never alias migration nonces across nodes.
    check_mig_node(m.suborams.len().saturating_sub(1) as u64)?;
    let mut fleet = TcpFleet {
        m,
        deploy: proto::deployment_key(m.seed),
        run: Prg::from_entropy().gen(),
        timeout: opts.rpc_timeout,
    };
    drive_reshard(&mut fleet, new_s, opts).map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_and_resp_roundtrip() {
        let req = ReshardReq {
            cmd: cmd::INSTALL,
            generation: 7,
            new_s: 8,
            arg1: 3,
            arg2: 4,
            run: 0xABCD,
            payload: vec![1, 2, 3],
        };
        assert_eq!(ReshardReq::decode(&req.encode()), Some(req));
        assert_eq!(ReshardReq::decode(&[0; 40]), None);
        let r = ReshardResp {
            kind: resp::EXPORT,
            generation: 7,
            active_s: 0,
            phase: 0,
            batch_idx: 2,
            n_batches: 4,
            payload: vec![9],
        };
        assert_eq!(ReshardResp::decode(&r.encode()), Some(r));
        assert_eq!(ReshardResp::decode(&[0; 33]), None);
        // A STATUS reply reads back as the status; a plain FAILED is an
        // in-band refusal, but an indeterminate FAILED (the admin handler
        // gave up waiting on the epoch loop; the command may still apply) and
        // a transport error are not — the driver probes instead of aborting.
        let st = ReshardStatus { generation: 3, active_s: 4, phase: ReshardPhase::Paused };
        assert_eq!(status_reply(Ok(status_resp(&st))), Ok(st));
        assert_eq!(failed_resp("nope").reason(), "nope");
        assert_eq!(failed_resp("nope").status(), None);
        assert!(matches!(status_reply(Ok(failed_resp("nope"))), Err(RpcFailure::Refused(_))));
        let late = failed_resp(format!("{REASON_INDETERMINATE}suboram loop did not answer"));
        assert!(matches!(status_reply(Ok(late)), Err(RpcFailure::Indeterminate(_))));
        let lost = io::Error::new(io::ErrorKind::WouldBlock, "read timed out");
        assert!(matches!(status_reply(Err(lost)), Err(RpcFailure::Indeterminate(_))));
    }

    #[test]
    fn migration_schedule_is_a_public_function_of_object_count_alone() {
        assert_eq!(migration_batches(0), 1);
        assert_eq!(migration_batches(1), 1);
        assert_eq!(migration_batches(64), 1);
        assert_eq!(migration_batches(65), 2);
        assert_eq!(migration_batches(256), 4);
    }

    #[test]
    fn sealed_transfer_shape_is_independent_of_partition_contents() {
        let key = Key256([7u8; 32]);
        let value_len = 16;
        let full: Vec<StoredObject> =
            (0..100u64).map(|i| StoredObject::new(i, &i.to_le_bytes(), value_len)).collect();
        let empty: Vec<StoredObject> = Vec::new();
        let ctx = |node| MigrationCtx {
            key: &key,
            dir: DIR_EXPORT,
            node,
            generation: 1,
            new_s: 8,
            value_len,
        };
        let a = seal_migration(&ctx(0), &full, 256).unwrap();
        let b = seal_migration(&ctx(1), &empty, 256).unwrap();
        // Same batch count, and every batch the same sealed length: the
        // network cannot distinguish a full partition from an empty one.
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len() as u64, migration_batches(256));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes.len(), y.bytes.len());
        }
    }

    #[test]
    fn migration_roundtrip_drops_padding_and_authenticates() {
        let key = Key256([3u8; 32]);
        let value_len = 12;
        let objects: Vec<StoredObject> =
            (0..70u64).map(|i| StoredObject::new(i * 3, &i.to_le_bytes(), value_len)).collect();
        let ctx = |dir, node, generation| MigrationCtx {
            key: &key,
            dir,
            node,
            generation,
            new_s: 4,
            value_len,
        };
        let sealed = seal_migration(&ctx(DIR_INSTALL, 5, 2), &objects, 128).unwrap();
        let mut back = Vec::new();
        for (idx, s) in sealed.iter().enumerate() {
            back.extend(open_migration(&ctx(DIR_INSTALL, 5, 2), idx as u64, s).unwrap());
        }
        back.sort_by_key(|o| o.id);
        let mut want = objects.clone();
        want.sort_by_key(|o| o.id);
        assert_eq!(back, want);
        // Splicing a batch into another slot, direction, or generation fails
        // authentication.
        assert!(open_migration(&ctx(DIR_INSTALL, 5, 2), 1, &sealed[0]).is_err());
        assert!(open_migration(&ctx(DIR_EXPORT, 5, 2), 0, &sealed[0]).is_err());
        assert!(open_migration(&ctx(DIR_INSTALL, 5, 3), 0, &sealed[0]).is_err());
        // A partition larger than the schedule capacity is refused.
        let too_many: Vec<StoredObject> =
            (0..200u64).map(|i| StoredObject::new(i, &[1], value_len)).collect();
        assert!(seal_migration(&ctx(DIR_EXPORT, 0, 2), &too_many, 128).is_err());
    }

    #[test]
    fn node_indices_past_the_nonce_namespace_are_refused() {
        let key = Key256([5u8; 32]);
        let ctx = |node| MigrationCtx {
            key: &key,
            dir: DIR_EXPORT,
            node,
            generation: 1,
            new_s: 4,
            value_len: 8,
        };
        // The last addressable index seals fine; one past it would alias
        // node 0's nonce sequence and is refused by both directions.
        let sealed = seal_migration(&ctx(MAX_MIGRATION_NODES - 1), &[], 64).unwrap();
        assert!(seal_migration(&ctx(MAX_MIGRATION_NODES), &[], 64).is_err());
        assert!(open_migration(&ctx(MAX_MIGRATION_NODES), 0, &sealed[0]).is_err());
    }

    #[test]
    fn migration_keys_differ_per_generation_and_run() {
        let deploy = Key256([9u8; 32]);
        let a = migration_key(&deploy, 1, 42);
        let b = migration_key(&deploy, 2, 42);
        let c = migration_key(&deploy, 1, 43);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
