//! Elastic resharding, written once: grow or shrink the subORAM fleet at an
//! epoch boundary, live, on either deployment plane.
//!
//! This module holds the whole protocol: the control types both epoch loops
//! answer, the subORAM staging state machine ([`SubStaging`]), and the
//! cluster driver ([`drive_reshard`]). A plane supplies only what is
//! genuinely plane-specific:
//!
//! | | channel plane ([`crate::deploy`]) | TCP plane (`snoopy-net`) |
//! |---|---|---|
//! | [`StagingBackend`] | `build_suboram`, nothing persisted | per-generation segment directory, checkpoint on commit, scrub old generations |
//! | [`ReshardFleet`] RPCs | mailbox message + reply channel | `RESHARD_REQ`/`RESP` frames, sealed fixed-shape migration schedule |
//! | [`ReshardFleet::await_boundary`] | closes the boundary epoch itself | sleeps one epoch (wall-clock ticker) |
//!
//! The driver discovers every node's status, arms every balancer with a
//! [`ReshardPlan`], waits until all are paused at the boundary (no batch in
//! flight anywhere), exports and re-partitions the object set, stages the
//! new partitions, commits the subORAMs first (each durably, before it
//! acknowledges), and finally flips the balancers. Any failure before the
//! first subORAM commit aborts everywhere and the old layout resumes (the
//! pause TTL guarantees this even if the driver dies). A failure after it is
//! repaired by re-running the driver: mixed generations at discovery export
//! the whole provisioned fleet, so a repair converges.

use snoopy_crypto::Key256;
use snoopy_enclave::wire::StoredObject;
use snoopy_lb::partition_objects;
use snoopy_suboram::SubOram;
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::{metrics, Public};
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use crate::transport::SubOramNode;

/// A reshard plan as one balancer sees it: at its first owned tick with
/// id `>= boundary_epoch`, pause — defer the tick, keep buffering clients —
/// until the reshard driver commits (flip to `new_s` subORAMs) or aborts
/// (resume at the old layout). Every field is public configuration: the
/// reconfiguration event itself is wire-observable by design, and the Cloak
/// argument for the migration (see `snoopy-net`'s reshard module) only needs
/// the *transfer shape* to be data-independent, not the event hidden.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReshardPlan {
    /// Generation the cluster moves to if the plan commits. Must exceed the
    /// balancer's current generation (stale duplicates are refused).
    pub generation: u64,
    /// The subORAM count after the flip.
    pub new_s: usize,
    /// First composite epoch id (this balancer's residue class) at which the
    /// balancer pauses. The driver translates a wall epoch to each
    /// balancer's class, so all balancers pause at the same wall boundary.
    pub boundary_epoch: u64,
    /// How long to stay paused with no commit/abort before self-aborting
    /// back to the old layout (the driver died mid-migration).
    pub ttl: Duration,
}

/// Where a node is in the reshard protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardPhase {
    /// No plan armed (balancer) or nothing staged (subORAM); serving at the
    /// current layout.
    Idle,
    /// A plan is armed (balancer: it pauses at its boundary tick) or a
    /// partition is staged (subORAM: it awaits commit or abort).
    Armed,
    /// Paused at the boundary, awaiting commit or abort (balancers only).
    Paused,
}

/// A node's answer to any reshard control command: its current generation,
/// the subORAM count it routes to (balancers) or serves within (subORAMs),
/// and its protocol phase. All three are public configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReshardStatus {
    /// Current layout generation (0 until a reshard ever committed).
    pub generation: u64,
    /// The active subORAM count under that generation.
    pub active_s: usize,
    /// Where the node is in the reshard protocol.
    pub phase: ReshardPhase,
}

/// Control commands the reshard driver sends a *balancer* (surfaced as
/// [`crate::transport::LbEvent::Reshard`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReshardCmd {
    /// Arm a plan. Replied with phase [`ReshardPhase::Armed`] on acceptance,
    /// or the current status if refused (stale generation, `new_s == 0`).
    Plan(ReshardPlan),
    /// Flip to the armed plan's layout. Only honored while paused at the
    /// boundary with a matching generation.
    Commit {
        /// Generation of the plan being committed.
        generation: u64,
    },
    /// Drop the armed plan (or end the pause) and resume the old layout.
    Abort {
        /// Generation of the plan being aborted.
        generation: u64,
    },
    /// Report status without changing anything.
    Status,
}

/// Control commands the reshard driver sends a *subORAM* (surfaced as
/// [`crate::transport::SubEvent::Reshard`] and applied by [`SubStaging`]).
pub enum SubReshardCmd {
    /// Report status without changing anything.
    Status,
    /// Export the node's full object set for re-partitioning.
    Export {
        /// Generation being planned. The TCP plane authenticates the sealed
        /// migration schedule under it.
        generation: u64,
        /// SubORAM count of the planned layout (authenticated likewise).
        new_s: usize,
    },
    /// Stage the node's partition under the next generation's layout.
    Install {
        /// Generation being staged.
        generation: u64,
        /// SubORAM count of the staged layout.
        new_s: usize,
        /// This node's objects under the staged layout.
        objects: Vec<StoredObject>,
    },
    /// Swap the staged partition in and persist the new generation.
    Commit {
        /// Generation of the staged layout being committed.
        generation: u64,
    },
    /// Drop the staged partition; the live layout stays authoritative.
    Abort {
        /// Generation of the staged layout being dropped.
        generation: u64,
    },
}

/// A subORAM's reply to a [`SubReshardCmd`] it applied. A command it could
/// not apply is answered with a reason instead (`Err` from
/// [`SubStaging::handle`]); the live layout is then untouched.
#[derive(Debug)]
pub enum SubReshardReply {
    /// Command applied (or `Status` asked): the node's current status.
    Status(ReshardStatus),
    /// The `Export`ed object set.
    Objects(Vec<StoredObject>),
}

/// Why one reshard RPC produced no reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcFailure {
    /// The node answered in-band that it will not apply the command. This
    /// is authoritative: the command did not apply.
    Refused(String),
    /// No authoritative answer: a transport error, a timeout, or a node
    /// that stopped waiting on its own epoch loop. The command may still
    /// apply.
    Indeterminate(String),
}

impl fmt::Display for RpcFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcFailure::Refused(reason) => write!(f, "refused: {reason}"),
            RpcFailure::Indeterminate(reason) => write!(f, "no answer: {reason}"),
        }
    }
}

/// Records a committed layout flip on this node: both reshard gauges plus
/// the flight-recorder event. Generation and fleet size are public
/// configuration.
pub(crate) fn record_flip(generation: u64, active_s: usize) {
    let reg = metrics::global();
    reg.gauge("snoopy_reshard_generation", "reshard generation of the layout currently served")
        .set(Public::config(generation as f64));
    reg.gauge("snoopy_active_suborams", "subORAM count of the layout currently served")
        .set(Public::config(active_s as f64));
    events::record(
        Event::new(EventKind::ReshardCommit)
            .with("generation", Public::config(generation))
            .with("suborams", Public::config(active_s as u64)),
    );
}

/// Records that this node dropped an armed plan or a staged partition.
pub(crate) fn record_abort(generation: u64) {
    events::record(
        Event::new(EventKind::ReshardAbort).with("generation", Public::config(generation)),
    );
}

/// How one plane builds and persists a staged partition — the only part of
/// the subORAM staging machine that differs between planes.
pub trait StagingBackend {
    /// Builds the partition `objects` for reshard generation `generation`,
    /// sealed under `key` (already derived for that generation).
    fn build(
        &mut self,
        generation: u64,
        objects: Vec<StoredObject>,
        key: Key256,
    ) -> Result<SubOram, String>;

    /// Makes a just-swapped layout durable before the commit is
    /// acknowledged. The default persists nothing.
    fn persist(&mut self, _node: &SubOramNode) -> Result<(), String> {
        Ok(())
    }

    /// Removes whatever a generation left on the host. The default has
    /// nothing to remove.
    fn scrub(&mut self, _generation: u64) {}
}

/// Any `FnMut(generation, objects, key)` closure is a backend that builds
/// partitions and persists nothing — the channel plane's, which makes no
/// durability promise.
impl<F> StagingBackend for F
where
    F: FnMut(u64, Vec<StoredObject>, Key256) -> Result<SubOram, String>,
{
    fn build(
        &mut self,
        generation: u64,
        objects: Vec<StoredObject>,
        key: Key256,
    ) -> Result<SubOram, String> {
        self(generation, objects, key)
    }
}

/// A partition staged for the next generation, held beside the live one.
struct Staged {
    generation: u64,
    new_s: usize,
    oram: SubOram,
}

/// The subORAM staging state machine: `Install` stages a partition beside
/// the live one, `Commit` swaps it in and persists (rolling the swap back if
/// persisting fails), `Abort` drops it. It lives outside the epoch loop's
/// batch path, so between two commands the node is always fully in one
/// layout.
pub struct SubStaging {
    backend: Box<dyn StagingBackend>,
    root_key: Key256,
    staged: Option<Staged>,
}

impl SubStaging {
    /// A staging machine for a node whose boot partition is sealed under
    /// `root_key`. Generation `g` stages under
    /// [`snoopy_store::generation_key`]`(root_key, g)`: a fresh store
    /// restarts its commit counter, so reusing the live key would repeat
    /// `(key, nonce)` pairs.
    pub fn new(root_key: Key256, backend: impl StagingBackend + 'static) -> SubStaging {
        SubStaging { backend: Box::new(backend), root_key, staged: None }
    }

    fn status(&self, node: &SubOramNode) -> ReshardStatus {
        ReshardStatus {
            generation: node.generation(),
            active_s: node.active_s(),
            phase: if self.staged.is_some() { ReshardPhase::Armed } else { ReshardPhase::Idle },
        }
    }

    /// Applies one command to `node`, or refuses it with a reason (the live
    /// layout is then untouched).
    pub fn handle(
        &mut self,
        node: &mut SubOramNode,
        cmd: SubReshardCmd,
    ) -> Result<SubReshardReply, String> {
        match cmd {
            SubReshardCmd::Status => Ok(SubReshardReply::Status(self.status(node))),
            SubReshardCmd::Export { .. } => {
                let mut objects = Vec::new();
                node.oram()
                    .stream_objects(&mut |id, value| {
                        objects.push(StoredObject { id, value: value.to_vec() })
                    })
                    .map_err(|e| format!("export failed: {e}"))?;
                Ok(SubReshardReply::Objects(objects))
            }
            SubReshardCmd::Install { generation, new_s, objects } => {
                if generation <= node.generation() {
                    return Err(format!(
                        "stale install generation {generation} (serving {})",
                        node.generation()
                    ));
                }
                // A newer schedule replaces whatever was staged.
                if let Some(old) = self.staged.take() {
                    drop(old.oram);
                    self.backend.scrub(old.generation);
                }
                let key = snoopy_store::generation_key(&self.root_key, generation);
                let oram = self
                    .backend
                    .build(generation, objects, key)
                    .map_err(|e| format!("staging failed: {e}"))?;
                self.staged = Some(Staged { generation, new_s, oram });
                Ok(SubReshardReply::Status(self.status(node)))
            }
            SubReshardCmd::Commit { generation } => self.commit(node, generation),
            SubReshardCmd::Abort { generation } => {
                if let Some(s) = self.staged.take_if(|s| s.generation == generation) {
                    drop(s.oram);
                    self.backend.scrub(generation);
                    record_abort(generation);
                }
                Ok(SubReshardReply::Status(self.status(node)))
            }
        }
    }

    /// The commit point: the staged partition becomes live and the new
    /// generation is made durable *before* the ack escapes. If persisting
    /// fails the swap is rolled back, so the driver sees a refusal and the
    /// live layout (plus any still-valid checkpoint) is untouched.
    fn commit(
        &mut self,
        node: &mut SubOramNode,
        generation: u64,
    ) -> Result<SubReshardReply, String> {
        let Some(staged) = self.staged.take_if(|s| s.generation == generation) else {
            return Err(format!("no partition staged for generation {generation}"));
        };
        let (old_gen, old_active) = (node.generation(), node.active_s());
        let old = node.swap_oram(staged.oram);
        node.set_layout(generation, staged.new_s);
        let persisted = node
            .oram_mut()
            .commit_storage(0)
            .map_err(|e| format!("storage commit failed: {e}"))
            .and_then(|_| self.backend.persist(node));
        match persisted {
            Ok(()) => {
                drop(old);
                self.backend.scrub(old_gen);
                record_flip(generation, staged.new_s);
                Ok(SubReshardReply::Status(self.status(node)))
            }
            Err(e) => {
                drop(node.swap_oram(old));
                node.set_layout(old_gen, old_active);
                self.backend.scrub(generation);
                Err(e)
            }
        }
    }
}

/// What the driver knows about a deployment besides its nodes' answers.
pub struct FleetShape {
    /// Balancer count.
    pub balancers: usize,
    /// Provisioned subORAM count: the active fleet plus warm spares.
    pub suborams: usize,
    /// Real objects stored; the export union must hold exactly this many.
    pub num_objects: u64,
    /// The deployment's keyed-hash partition key.
    pub partition_key: Key256,
}

/// The cluster as the driver sees it: its shape, and one reshard RPC per
/// node. Each RPC returns the node's reply or an [`RpcFailure`]; a transport
/// error is [`RpcFailure::Indeterminate`].
pub trait ReshardFleet {
    /// The deployment's shape.
    fn shape(&self) -> FleetShape;

    /// One reshard RPC to balancer `i`.
    fn lb(&mut self, i: usize, cmd: ReshardCmd) -> Result<ReshardStatus, RpcFailure>;

    /// One reshard RPC to subORAM `i`.
    fn sub(&mut self, i: usize, cmd: SubReshardCmd) -> Result<SubReshardReply, RpcFailure>;

    /// Lets armed balancers reach their boundary tick; called between
    /// status polls while waiting for the pause.
    fn await_boundary(&mut self);
}

/// A [`ReshardOptions::phase_hook`] callback.
pub type PhaseHook = Box<dyn FnMut(&str) + Send>;

/// Tuning for one [`drive_reshard`] run.
pub struct ReshardOptions {
    /// How long balancers stay paused with no verdict before self-aborting
    /// back to the old layout (the driver died mid-migration).
    pub ttl: Duration,
    /// Per-RPC timeout (export/install of a large store can be slow).
    pub rpc_timeout: Duration,
    /// How long to wait for every balancer to reach its boundary tick.
    pub pause_deadline: Duration,
    /// Test hook: called with a phase name (`"paused"`, `"exported"`,
    /// `"installed"`, `"committed-suborams"`, `"committed"`) as the run
    /// crosses it — chaos tests kill daemons from here.
    pub phase_hook: Option<PhaseHook>,
}

impl Default for ReshardOptions {
    fn default() -> ReshardOptions {
        ReshardOptions {
            ttl: Duration::from_secs(30),
            rpc_timeout: Duration::from_secs(30),
            pause_deadline: Duration::from_secs(30),
            phase_hook: None,
        }
    }
}

/// What a committed reshard did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReshardReport {
    /// The generation the cluster now serves.
    pub generation: u64,
    /// Fleet size before.
    pub old_s: usize,
    /// Fleet size after.
    pub new_s: usize,
    /// Real objects migrated (= the deployment's object count).
    pub objects_moved: usize,
}

/// The driver's reading of one COMMIT RPC. Only [`CommitVerdict::Refused`]
/// — an authoritative in-band answer from the node — may ever trigger an
/// abort; a lost or indeterminate ack yields [`CommitVerdict::Unknown`],
/// which rolls forward.
#[derive(Debug)]
enum CommitVerdict {
    /// The node reports the new generation: the flip is durable.
    Flipped,
    /// The node answered in-band that it did not commit.
    Refused(String),
    /// The ack was lost and a follow-up probe could not confirm the flip.
    Unknown(String),
}

fn flipped(st: &ReshardStatus, generation: u64, want_active: Option<usize>) -> bool {
    st.generation == generation && want_active.is_none_or(|s| st.active_s == s)
}

/// Classifies a COMMIT reply: `Some(verdict)` when it is authoritative,
/// `None` when the ack is indeterminate and the node must be probed.
fn classify_commit_reply(
    reply: &Result<ReshardStatus, RpcFailure>,
    generation: u64,
    want_active: Option<usize>,
) -> Option<CommitVerdict> {
    match reply {
        Ok(st) if flipped(st, generation, want_active) => Some(CommitVerdict::Flipped),
        // The node executed the command and answered with the old layout.
        Ok(st) => Some(CommitVerdict::Refused(format!("still at generation {}", st.generation))),
        Err(RpcFailure::Refused(reason)) => Some(CommitVerdict::Refused(reason.clone())),
        Err(RpcFailure::Indeterminate(_)) => None,
    }
}

/// One COMMIT under the refusal-vs-lost-ack discipline. `rpc(true)` sends
/// the commit, `rpc(false)` probes status. A node can durably commit and
/// then lose the reply (its persist outlasting the RPC timeout); aborting on
/// that would scrub a node already serving the new generation while every
/// peer drops its staged partition, leaving remapped objects nowhere.
fn commit_verdict(
    generation: u64,
    want_active: Option<usize>,
    mut rpc: impl FnMut(bool) -> Result<ReshardStatus, RpcFailure>,
) -> CommitVerdict {
    if let Some(verdict) = classify_commit_reply(&rpc(true), generation, want_active) {
        return verdict;
    }
    // The status RPC goes through the same epoch loop as the commit, so it
    // answers only after a still-queued commit was processed. A probe
    // showing the old generation after a lost ack still proves nothing (the
    // node may have restarted mid-persist), so only Flipped or Unknown come
    // out of this path.
    match rpc(false) {
        Ok(st) if flipped(&st, generation, want_active) => CommitVerdict::Flipped,
        Ok(st) => {
            CommitVerdict::Unknown(format!("ack lost; probe reports generation {}", st.generation))
        }
        Err(e) => CommitVerdict::Unknown(format!("ack lost; probe failed: {e}")),
    }
}

/// A subORAM reply read as a status (every command but `Export` answers one).
fn status_reply(reply: Result<SubReshardReply, RpcFailure>) -> Result<ReshardStatus, RpcFailure> {
    match reply? {
        SubReshardReply::Status(st) => Ok(st),
        SubReshardReply::Objects(_) => Err(RpcFailure::Refused("unexpected object reply".into())),
    }
}

fn describe<T: fmt::Debug>(reply: &Result<T, RpcFailure>) -> String {
    match reply {
        Ok(v) => format!("unexpected reply {v:?}"),
        Err(e) => e.to_string(),
    }
}

/// Best-effort abort fan-out: release every paused balancer back to the old
/// layout and drop every staged partition. Failures are ignored — an abort
/// must make progress with half the cluster gone.
fn abort_all(fleet: &mut dyn ReshardFleet, generation: u64) {
    let shape = fleet.shape();
    for i in 0..shape.balancers {
        let _ = fleet.lb(i, ReshardCmd::Abort { generation });
    }
    for i in 0..shape.suborams {
        let _ = fleet.sub(i, SubReshardCmd::Abort { generation });
    }
}

/// Reshards a live cluster to `new_s` subORAMs (see the module docs). On any
/// failure before the first subORAM commit the driver aborts everywhere and
/// the old layout resumes; a failure after it returns an error asking for a
/// re-run, which rolls the cluster forward.
pub fn drive_reshard(
    fleet: &mut dyn ReshardFleet,
    new_s: usize,
    mut opts: ReshardOptions,
) -> Result<ReshardReport, String> {
    let shape = fleet.shape();
    let (lbs, subs) = (shape.balancers, shape.suborams);
    if new_s == 0 || new_s > subs {
        return Err(format!("new_s = {new_s} out of range (1..={subs} provisioned subORAMs)"));
    }
    let mut fire = |phase: &str| {
        if let Some(hook) = opts.phase_hook.as_mut() {
            hook(phase);
        }
    };

    // Discover: every provisioned node must answer, and the next generation
    // must exceed anything any node has ever committed or armed.
    let sub_status = (0..subs)
        .map(|i| {
            let st = status_reply(fleet.sub(i, SubReshardCmd::Status));
            st.map_err(|e| format!("suboram {i} not answering: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut max_gen = sub_status.iter().map(|s| s.generation).max().unwrap_or(0);
    for i in 0..lbs {
        let st = fleet
            .lb(i, ReshardCmd::Status)
            .map_err(|e| format!("balancer {i} not answering: {e}"))?;
        max_gen = max_gen.max(st.generation);
    }
    let generation = max_gen + 1;
    let old_s = sub_status
        .iter()
        .max_by_key(|s| s.generation)
        .map(|s| s.active_s.min(subs))
        .filter(|&s| s > 0)
        .unwrap_or(subs);
    // A clean cluster has every active node on the same generation. Mixed
    // generations mean a previous run died between commits: roll forward by
    // exporting from the *whole* provisioned fleet and deduplicating — an
    // object written in either layout's bin is found wherever it landed.
    let roll_forward = sub_status[..old_s].iter().any(|s| s.generation != sub_status[0].generation);
    let export_hi = if roll_forward { subs } else { old_s };
    let install_hi = if roll_forward { subs } else { new_s.max(old_s) };
    // Before the first subORAM commit, every failure aborts everywhere.
    macro_rules! abort {
        ($($msg:tt)*) => {{
            abort_all(fleet, generation);
            return Err(format!($($msg)*));
        }};
    }

    // Plan: arm every balancer. Boundary 0 = its next owned tick.
    let plan = ReshardPlan { generation, new_s, boundary_epoch: 0, ttl: opts.ttl };
    for i in 0..lbs {
        match fleet.lb(i, ReshardCmd::Plan(plan.clone())) {
            Ok(st) if st.phase == ReshardPhase::Armed => {}
            other => abort!("balancer {i} refused the plan: {}", describe(&other)),
        }
    }

    // Pause: after every balancer reports Paused nothing is in flight
    // anywhere (ticks resolve synchronously), so the partitions are quiescent.
    let deadline = Instant::now() + opts.pause_deadline;
    for i in 0..lbs {
        loop {
            match fleet.lb(i, ReshardCmd::Status) {
                Ok(st) if st.phase == ReshardPhase::Paused => break,
                Ok(_) if Instant::now() <= deadline => fleet.await_boundary(),
                other => abort!("balancer {i} never paused: {}", describe(&other)),
            }
        }
    }
    fire("paused");

    // Export from every node that may hold data; dedup keeps the copy from
    // the higher-generation node (only relevant in a roll-forward).
    let mut by_id: HashMap<u64, (u64, StoredObject)> = HashMap::new();
    for (i, st) in sub_status.iter().enumerate().take(export_hi) {
        let objects = match fleet.sub(i, SubReshardCmd::Export { generation, new_s }) {
            Ok(SubReshardReply::Objects(objects)) => objects,
            other => abort!("suboram {i} export failed: {}", describe(&other)),
        };
        for o in objects {
            if by_id.get(&o.id).is_none_or(|(g, _)| *g < st.generation) {
                by_id.insert(o.id, (st.generation, o));
            }
        }
    }
    let mut union: Vec<StoredObject> = by_id.into_values().map(|(_, o)| o).collect();
    union.sort_by_key(|o| o.id);
    let (objects_moved, num_objects) = (union.len(), shape.num_objects);
    if objects_moved as u64 != num_objects {
        abort!("export union holds {objects_moved} objects, deployment stores {num_objects}");
    }
    fire("exported");

    // Install: nodes past `new_s` get an empty partition, so a shrink
    // retires them onto the new generation instead of leaving stale state.
    let mut parts = partition_objects(union, &shape.partition_key, new_s);
    parts.resize_with(install_hi, Vec::new);
    for (i, objects) in parts.into_iter().enumerate() {
        let reply = fleet.sub(i, SubReshardCmd::Install { generation, new_s, objects });
        if !matches!(reply, Ok(SubReshardReply::Status(_))) {
            abort!("suboram {i} refused the staged partition: {}", describe(&reply));
        }
    }
    fire("installed");

    // Commit subORAMs first. The first flip is the point of no return: after
    // it the driver never aborts, only rolls forward.
    let rerun = format!("re-run the reshard to {new_s} subORAMs to roll the cluster forward");
    for i in 0..install_hi {
        let verdict = commit_verdict(generation, None, |commit| {
            let cmd =
                if commit { SubReshardCmd::Commit { generation } } else { SubReshardCmd::Status };
            status_reply(fleet.sub(i, cmd))
        });
        match verdict {
            CommitVerdict::Flipped => {}
            CommitVerdict::Refused(reason) if i == 0 => {
                abort!("suboram 0 refused to commit ({reason}); aborted cleanly")
            }
            CommitVerdict::Refused(reason) => {
                return Err(format!(
                    "suboram {i} refused to commit ({reason}) after {i} flipped; {rerun}"
                ));
            }
            CommitVerdict::Unknown(reason) => {
                return Err(format!(
                    "suboram {i} commit outcome unknown ({reason}); not aborting — {rerun}"
                ));
            }
        }
    }
    fire("committed-suborams");

    // Flip every balancer; the held ticks then execute at the new layout.
    for i in 0..lbs {
        let verdict = commit_verdict(generation, Some(new_s), |commit| {
            fleet.lb(i, if commit { ReshardCmd::Commit { generation } } else { ReshardCmd::Status })
        });
        if let CommitVerdict::Refused(reason) | CommitVerdict::Unknown(reason) = verdict {
            return Err(format!(
                "balancer {i} did not flip ({reason}; its pause TTL restores the old routing \
                 table, but the subORAMs already committed generation {generation}); {rerun}"
            ));
        }
    }
    fire("committed");
    Ok(ReshardReport { generation, old_s, new_s, objects_moved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const VLEN: usize = 8;

    fn obj(id: u64, value: &[u8]) -> StoredObject {
        StoredObject::new(id, value, VLEN)
    }

    fn idle(generation: u64, active_s: usize) -> ReshardStatus {
        ReshardStatus { generation, active_s, phase: ReshardPhase::Idle }
    }

    /// A scripted node: its status, its committed objects (subORAMs), and
    /// its armed plan or staged partition as `(generation, new_s, objects)`.
    #[derive(Clone)]
    struct Node {
        status: ReshardStatus,
        objects: Vec<StoredObject>,
        staged: Option<(u64, usize, Vec<StoredObject>)>,
    }

    /// An in-memory fleet of well-behaved nodes. `faults` queues injected
    /// failures: the head `(node, verb, failure)` fires once, the next time
    /// that node receives that verb. Every RPC is logged as `"<node> <verb>"`.
    struct Scripted {
        lbs: Vec<Node>,
        subs: Vec<Node>,
        num_objects: u64,
        faults: VecDeque<(&'static str, &'static str, RpcFailure)>,
        log: Vec<String>,
    }

    impl Scripted {
        fn new(lbs: usize, subs: Vec<(ReshardStatus, Vec<StoredObject>)>) -> Scripted {
            let node = |status, objects| Node { status, objects, staged: None };
            Scripted {
                lbs: vec![node(idle(subs[0].0.generation, subs[0].0.active_s), Vec::new()); lbs],
                num_objects: subs.iter().map(|(_, objects)| objects.len() as u64).sum(),
                subs: subs.into_iter().map(|(status, objects)| node(status, objects)).collect(),
                faults: VecDeque::new(),
                log: Vec::new(),
            }
        }

        fn fault(mut self, node: &'static str, verb: &'static str, f: RpcFailure) -> Scripted {
            self.faults.push_back((node, verb, f));
            self
        }

        fn sent(&self, entry: &str) -> bool {
            self.log.iter().any(|e| e == entry)
        }

        /// Logs one RPC, then fires the head fault if it matches or applies
        /// `verb` to the node (`stage` is what Plan/Install arm).
        fn rpc(
            &mut self,
            lb: bool,
            i: usize,
            verb: &str,
            generation: u64,
            stage: Option<(usize, Vec<StoredObject>)>,
        ) -> Result<ReshardStatus, RpcFailure> {
            let name = format!("{}{i}", if lb { "lb" } else { "sub" });
            self.log.push(format!("{name} {verb}"));
            if self.faults.front().is_some_and(|(n, v, _)| *n == name && *v == verb) {
                return Err(self.faults.pop_front().expect("head checked").2);
            }
            let node = if lb { &mut self.lbs[i] } else { &mut self.subs[i] };
            match (verb, stage) {
                ("plan" | "install", Some((new_s, objects))) => {
                    node.staged = Some((generation, new_s, objects));
                    node.status.phase = ReshardPhase::Armed;
                }
                ("commit", _) => match node.staged.take_if(|(g, ..)| *g == generation) {
                    Some((g, new_s, objects)) => {
                        node.status = idle(g, new_s);
                        node.objects = objects;
                    }
                    None => return Err(RpcFailure::Refused("nothing staged".into())),
                },
                ("abort", _) if node.staged.take_if(|(g, ..)| *g == generation).is_some() => {
                    node.status.phase = ReshardPhase::Idle;
                }
                _ => {}
            }
            Ok(node.status)
        }
    }

    impl ReshardFleet for Scripted {
        fn shape(&self) -> FleetShape {
            FleetShape {
                balancers: self.lbs.len(),
                suborams: self.subs.len(),
                num_objects: self.num_objects,
                partition_key: Key256([4u8; 32]),
            }
        }

        fn lb(&mut self, i: usize, cmd: ReshardCmd) -> Result<ReshardStatus, RpcFailure> {
            match cmd {
                ReshardCmd::Plan(p) => {
                    self.rpc(true, i, "plan", p.generation, Some((p.new_s, Vec::new())))
                }
                ReshardCmd::Commit { generation } => self.rpc(true, i, "commit", generation, None),
                ReshardCmd::Abort { generation } => self.rpc(true, i, "abort", generation, None),
                ReshardCmd::Status => self.rpc(true, i, "status", 0, None),
            }
        }

        fn sub(&mut self, i: usize, cmd: SubReshardCmd) -> Result<SubReshardReply, RpcFailure> {
            let status = match cmd {
                SubReshardCmd::Export { generation, .. } => {
                    self.rpc(false, i, "export", generation, None)?;
                    return Ok(SubReshardReply::Objects(self.subs[i].objects.clone()));
                }
                SubReshardCmd::Install { generation, new_s, objects } => {
                    self.rpc(false, i, "install", generation, Some((new_s, objects)))
                }
                SubReshardCmd::Commit { generation } => {
                    self.rpc(false, i, "commit", generation, None)
                }
                SubReshardCmd::Abort { generation } => {
                    self.rpc(false, i, "abort", generation, None)
                }
                SubReshardCmd::Status => self.rpc(false, i, "status", 0, None),
            };
            status.map(SubReshardReply::Status)
        }

        fn await_boundary(&mut self) {
            for lb in self.lbs.iter_mut().filter(|lb| lb.staged.is_some()) {
                lb.status.phase = ReshardPhase::Paused;
            }
        }
    }

    /// Two active subORAMs and one spare, at generation 0.
    fn two_active_one_spare(lbs: usize) -> Scripted {
        Scripted::new(
            lbs,
            vec![
                (idle(0, 2), vec![obj(0, b"a"), obj(2, b"c")]),
                (idle(0, 2), vec![obj(1, b"b"), obj(3, b"d")]),
                (idle(0, 2), Vec::new()),
            ],
        )
    }

    fn aborted_everywhere(fleet: &Scripted) -> bool {
        let nodes = (0..fleet.lbs.len()).map(|i| format!("lb{i}"));
        let mut nodes = nodes.chain((0..fleet.subs.len()).map(|i| format!("sub{i}")));
        nodes.all(|n| fleet.sent(&format!("{n} abort")))
    }

    #[test]
    fn refusal_at_the_first_commit_aborts_every_node() {
        let refused = RpcFailure::Refused("storage commit failed".into());
        let mut fleet = two_active_one_spare(2).fault("sub0", "commit", refused);
        let err = drive_reshard(&mut fleet, 3, ReshardOptions::default()).unwrap_err();
        assert!(err.contains("aborted cleanly"), "{err}");
        assert!(aborted_everywhere(&fleet), "{:?}", fleet.log);
        // Nothing committed anywhere; every balancer resumed the old layout.
        assert!(fleet.subs.iter().chain(&fleet.lbs).all(|n| n.status == idle(0, 2)));
    }

    #[test]
    fn lost_ack_after_a_flip_reprobes_and_rolls_forward_without_abort() {
        let mut fleet = two_active_one_spare(1)
            .fault("sub1", "commit", RpcFailure::Indeterminate("read timed out".into()))
            .fault("sub1", "status", RpcFailure::Indeterminate("connection reset".into()));
        let err = drive_reshard(&mut fleet, 3, ReshardOptions::default()).unwrap_err();
        assert!(err.contains("roll the cluster forward"), "{err}");
        // The probe went out right after the lost ack…
        let commit = fleet.log.iter().position(|e| e == "sub1 commit").expect("commit sent");
        assert_eq!(fleet.log[commit + 1], "sub1 status", "no re-probe: {:?}", fleet.log);
        // …and nothing was aborted: sub0 keeps its durable flip.
        assert!(!fleet.log.iter().any(|e| e.ends_with("abort")), "{:?}", fleet.log);
        assert_eq!(fleet.subs[0].status, idle(1, 3));
    }

    #[test]
    fn mixed_generations_export_the_whole_fleet_and_keep_the_newest_copy() {
        // A previous run died after sub0 committed generation 1: sub0 holds
        // the new copy of object 0, sub1 still holds the old one, and the
        // spare (never installed) holds object 2's only copy.
        let mut fleet = Scripted::new(
            1,
            vec![
                (idle(1, 2), vec![obj(0, b"new"), obj(1, b"b")]),
                (idle(0, 2), vec![obj(0, b"old")]),
                (idle(0, 2), vec![obj(2, b"c")]),
            ],
        );
        fleet.num_objects = 3;
        let report = drive_reshard(&mut fleet, 2, ReshardOptions::default()).expect("repair");
        assert_eq!(report.generation, 2);
        assert!((0..3).all(|i| fleet.sent(&format!("sub{i} export"))), "{:?}", fleet.log);
        let all: Vec<&StoredObject> = fleet.subs.iter().flat_map(|s| &s.objects).collect();
        assert_eq!(all.len(), 3);
        let zero = all.iter().find(|o| o.id == 0).expect("object 0 survives");
        assert_eq!(zero.value, obj(0, b"new").value, "dedupe kept the stale copy");
        assert!(fleet.subs.iter().all(|s| s.status.generation == 2));
    }

    #[test]
    fn union_count_mismatch_aborts_before_install() {
        let mut fleet = two_active_one_spare(1);
        fleet.num_objects += 1;
        let err = drive_reshard(&mut fleet, 3, ReshardOptions::default()).unwrap_err();
        assert!(err.contains("export union holds 4 objects"), "{err}");
        assert!(!fleet.log.iter().any(|e| e.ends_with("install")), "{:?}", fleet.log);
        assert!(aborted_everywhere(&fleet), "{:?}", fleet.log);
    }

    #[test]
    fn commit_reply_classification_separates_refusals_from_lost_acks() {
        let st = |generation, active_s| Ok(idle(generation, active_s));
        // The node reports the new generation: flipped (with and without an
        // active_s requirement).
        assert!(matches!(classify_commit_reply(&st(3, 8), 3, None), Some(CommitVerdict::Flipped)));
        assert!(matches!(
            classify_commit_reply(&st(3, 8), 3, Some(8)),
            Some(CommitVerdict::Flipped)
        ));
        // Old generation, or the right generation at the wrong fleet size:
        // the node executed the command and refused — authoritative.
        assert!(matches!(
            classify_commit_reply(&st(2, 4), 3, None),
            Some(CommitVerdict::Refused(_))
        ));
        assert!(matches!(
            classify_commit_reply(&st(3, 4), 3, Some(8)),
            Some(CommitVerdict::Refused(_))
        ));
        // An in-band refusal is authoritative...
        let refused = Err(RpcFailure::Refused("no staged partition".into()));
        assert!(matches!(
            classify_commit_reply(&refused, 3, None),
            Some(CommitVerdict::Refused(_))
        ));
        // ...but an indeterminate ack must NOT be read as a refusal — the
        // driver probes instead of aborting.
        let lost = Err(RpcFailure::Indeterminate("suboram loop did not answer".into()));
        assert!(classify_commit_reply(&lost, 3, None).is_none());
    }

    #[test]
    fn staging_records_each_event_once_and_only_on_a_real_change() {
        // The recorder is process-global: count only this test's generations.
        const G: u64 = 0x5EED_0023_0001;
        let count = |kind: EventKind, generation: u64| {
            let events = events::recorder().snapshot();
            events
                .iter()
                .filter(|e| e.kind == kind && e.field("generation") == Some(generation))
                .count()
        };
        let key = Key256([9u8; 32]);
        let objects: Vec<StoredObject> = (0..4u64).map(|i| obj(i, &i.to_le_bytes())).collect();
        let mut node = SubOramNode::new(SubOram::new_in_enclave(objects, VLEN, key.clone(), 16), 1);
        let mut staging = SubStaging::new(key, |_, objects, key| {
            Ok(SubOram::new_in_enclave(objects, VLEN, key, 16))
        });
        let install = |generation| SubReshardCmd::Install {
            generation,
            new_s: 2,
            objects: vec![obj(1, b"x")],
        };

        // An abort with nothing staged changes nothing and records nothing.
        staging.handle(&mut node, SubReshardCmd::Abort { generation: G }).unwrap();
        assert_eq!(count(EventKind::ReshardAbort, G), 0);
        // A real abort records once; repeating it is a no-op.
        staging.handle(&mut node, install(G)).unwrap();
        staging.handle(&mut node, SubReshardCmd::Abort { generation: G }).unwrap();
        staging.handle(&mut node, SubReshardCmd::Abort { generation: G }).unwrap();
        assert_eq!(count(EventKind::ReshardAbort, G), 1);

        // A commit records exactly once; a repeated commit is refused, and
        // the committed generation can no longer be staged.
        staging.handle(&mut node, install(G + 1)).unwrap();
        staging.handle(&mut node, SubReshardCmd::Commit { generation: G + 1 }).unwrap();
        assert!(staging.handle(&mut node, SubReshardCmd::Commit { generation: G + 1 }).is_err());
        assert_eq!(count(EventKind::ReshardCommit, G + 1), 1);
        assert_eq!((node.generation(), node.active_s()), (G + 1, 2));
        assert!(staging.handle(&mut node, install(G + 1)).unwrap_err().contains("stale"));
    }
}
