//! Deployment-plane abstraction: the epoch loops, generic over a transport.
//!
//! Snoopy's load-balancer and subORAM *logic* is identical whether the
//! machines are OS threads joined by channels ([`crate::deploy`]) or OS
//! processes joined by TCP (`snoopy-net`). This module factors that logic
//! out: [`run_load_balancer`] and [`run_suboram`] drive the epoch protocol
//! against the [`LbTransport`]/[`SubTransport`] traits, and each deployment
//! plane supplies an implementation. Transports move *plaintext* request
//! batches at this interface; sealing them into per-link AEAD channels
//! ([`crate::link::Link`]) is the transport's job, so every plane gets §3.1's
//! encrypted, replay-protected links.
//!
//! The loops preserve the observable behavior of the synchronous reference
//! engine ([`crate::system::Snoopy`]): a balancer's epoch commits only after
//! all `S` response batches for that epoch arrived.
//!
//! [`run_load_balancer`] is one loop around one deadline-aware receive
//! ([`LbTransport::recv`]), always in one of three phases: *Idle* between
//! epochs, *Paused* holding a tick at a reshard boundary, or *Waiting* for
//! the responses of the epoch in flight. Every plane — channels, TCP, and
//! the chaos harness on both — drives that same function.
//!
//! # Epoch-id namespace (multi-balancer clusters)
//!
//! With `L` balancers, epoch ids form a *composite namespace*: every id `e`
//! is owned by exactly one balancer, `e % L`, and each balancer's tick
//! source hands it ids from its own residue class (`wall * L + index`).
//! SubORAMs execute each balancer's batch the moment it arrives — there is
//! no cross-balancer barrier, so a dead balancer cannot stall the others —
//! and refuse batches whose id names a different owner. Integer division
//! recovers the paper's linearization coordinates from an id: `e / L` is
//! the wall epoch and `e % L` the balancer, giving the total order of
//! Appendix C (epoch, then balancer, then reads-before-writes, then
//! arrival). Both coordinates are wire-observable already (epoch ids ride
//! plaintext in batch trace context), so the composite encoding leaks
//! nothing new.
//!
//! # Failure handling
//!
//! Epochs are the recovery unit (the same observation Obladi makes for
//! epoch-based designs): an epoch either commits — all `S` responses arrived
//! and every client in it gets its matched response — or, under an
//! [`EpochFaultPolicy`] with a subORAM deadline, it *degrades*: after
//! `max_replays` byte-identical re-sends of the still-owed batches the
//! balancer fails **every** request in the epoch with a typed
//! [`Unavailable`] error instead of hanging. Failing the epoch wholesale is
//! a leakage requirement, not laziness: failing only the requests routed to
//! the dead subORAM would reveal the secret request→subORAM mapping, while
//! "epoch e failed after subORAM k missed its deadline" is wire-observable
//! to the adversary already.

use crate::reshard::{
    record_abort, record_flip, ReshardCmd, ReshardPhase, ReshardPlan, ReshardStatus, SubReshardCmd,
    SubReshardReply, SubStaging,
};
use crate::stats::record_epoch_metrics;
use snoopy_enclave::wire::{Request, Response};
use snoopy_lb::LoadBalancer;
use snoopy_suboram::SubOram;
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::{metrics, trace, Public};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Typed failure for an epoch the balancer completed in degraded mode: the
/// named subORAMs missed their deadline through every allowed replay, so all
/// requests in the epoch fail rather than hang. Both fields are
/// wire-observable (epoch boundaries and which machine stopped answering are
/// visible to a network adversary), so returning them leaks nothing new.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unavailable {
    /// The epoch that degraded.
    pub epoch: u64,
    /// SubORAM indices still owing a response when the replay budget ran
    /// out. Empty when no batch was sent: the balancer could not form the
    /// epoch's batches.
    pub failed_suborams: Vec<usize>,
}

impl std::fmt::Display for Unavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.failed_suborams.is_empty() {
            // No subORAM was at fault: the balancer could not form the
            // epoch's batches (an overflow, e.g. at λ = 0).
            return write!(f, "epoch {} unavailable: its batches could not be formed", self.epoch);
        }
        write!(
            f,
            "epoch {} unavailable: suborams {:?} missed deadline",
            self.epoch, self.failed_suborams
        )
    }
}

impl std::error::Error for Unavailable {}

/// What a client gets back for one request: the matched response, or a typed
/// notice that its epoch degraded.
pub type ClientReply = Result<Response, Unavailable>;

/// Where a client's matched response gets delivered.
pub trait ReplySink: Send {
    /// Consumes the sink, delivering the response. `epoch` is the id of the
    /// epoch the request committed in — wire-observable already (it rides
    /// plaintext in batch trace context), and in a multi-balancer cluster it
    /// encodes the linearization coordinates (`epoch / L`, `epoch % L`)
    /// clients use to order their own committed operations. Delivery
    /// failures (client gave up, connection gone) are swallowed: the epoch
    /// still commits.
    fn deliver(self: Box<Self>, resp: Response, epoch: u64);

    /// Consumes the sink, delivering a typed failure instead of a response
    /// (the request's epoch completed degraded).
    fn fail(self: Box<Self>, err: Unavailable);
}

impl ReplySink for std::sync::mpsc::Sender<ClientReply> {
    fn deliver(self: Box<Self>, resp: Response, _epoch: u64) {
        let _ = self.send(Ok(resp));
    }

    fn fail(self: Box<Self>, err: Unavailable) {
        let _ = self.send(Err(err));
    }
}

/// Events a load balancer's transport feeds into its epoch loop.
pub enum LbEvent {
    /// A client request plus where to answer it.
    Client(Request, Box<dyn ReplySink>),
    /// Epoch boundary: batch everything pending.
    Tick(u64),
    /// A subORAM's (opened) response batch for an epoch.
    SubResponse {
        /// Responding subORAM index.
        suboram: usize,
        /// Epoch the responses belong to.
        epoch: u64,
        /// The opened response batch.
        batch: Vec<Request>,
    },
    /// The link to a subORAM died and was re-established. The loop resends
    /// the current epoch's batch if that subORAM still owes a response.
    /// (Channel transports never emit this; the TCP plane does after a
    /// reconnect.)
    SubLinkRestored {
        /// The reconnected subORAM index.
        suboram: usize,
    },
    /// A subORAM *refused* this balancer's batch with a typed error (e.g. a
    /// duplicate-id batch that fails oblivious hash construction). Refusal is
    /// deterministic — replaying the same batch would fail the same way — so
    /// the loop degrades the epoch immediately instead of burning replays.
    /// Carries wire-observable facts only: which machine refused, and which
    /// epoch (both already visible to a network adversary as a NACK frame).
    SubFailed {
        /// The refusing subORAM index.
        suboram: usize,
        /// The epoch whose batch was refused.
        epoch: u64,
    },
    /// A reshard control command from the admin plane. The loop answers on
    /// `reply` whether or not it acts on the command (see [`ReshardCmd`]).
    Reshard {
        /// The command.
        cmd: ReshardCmd,
        /// Where to send the node's resulting status.
        reply: std::sync::mpsc::Sender<ReshardStatus>,
    },
    /// Terminate gracefully.
    Shutdown,
}

/// Result of a receive on an [`LbTransport`].
pub enum RecvOutcome {
    /// An event arrived before the deadline.
    Event(LbEvent),
    /// The deadline passed with no event.
    TimedOut,
    /// The transport is gone; the loop should exit.
    Closed,
}

/// Transport endpoint for a load balancer.
pub trait LbTransport {
    /// Blocks for the next event, until `deadline` if one is given:
    /// [`RecvOutcome::TimedOut`] once it passes with no event, and
    /// [`RecvOutcome::Closed`] once the transport is gone. Without a
    /// deadline it blocks until an event arrives or the transport closes.
    ///
    /// Required (no default): a default that ignored the deadline would
    /// silently turn every [`EpochFaultPolicy`] deadline into an infinite
    /// hang on any transport that forgot to override it.
    fn recv(&mut self, deadline: Option<Instant>) -> RecvOutcome;

    /// Seals and sends this balancer's `epoch` batch to subORAM `suboram`,
    /// stamped with the layout `generation` the balancer routed it under
    /// (plaintext — fleet layouts are public configuration). The stamp lets
    /// a subORAM *refuse* a batch routed under a layout other than the one
    /// it serves — the mixed-layout window around a crashed reshard becomes
    /// typed failures instead of silent wrong reads.
    /// Delivery failures surface later as [`LbEvent::SubLinkRestored`] (TCP)
    /// or termination (channels); the loop itself never retries eagerly.
    fn send_batch(&mut self, suboram: usize, epoch: u64, generation: u64, batch: &[Request]);

    /// Tears down the link to `suboram` so it can heal with fresh session
    /// state. Called when the subORAM misses an epoch deadline: the AEAD
    /// links are strictly in-order (a re-sent sealed frame would be rejected
    /// as a replay), so recovery is re-dial + re-seal, never re-send of old
    /// ciphertext. Default is a no-op for transports without connections.
    fn fail_fast(&mut self, suboram: usize) {
        let _ = suboram;
    }

    /// Sends what this epoch's [`ReplySink::deliver`] calls staged. The
    /// epoch loop calls it once, right after delivering every response of a
    /// committed epoch, so a transport may hold each client's replies back
    /// and send them together. Default is a no-op for transports whose
    /// sinks send at once.
    fn flush_replies(&mut self) {}

    /// Whether a tick that arrives while an epoch is running still gets an
    /// epoch of its own, served the moment the running one commits (`true`,
    /// the default), or is dropped, so the next epoch starts at the next
    /// tick (`false`).
    ///
    /// A late tick served at once holds only what arrived during the epoch
    /// before it: the clients that epoch just answered cannot have sent
    /// their next requests yet, so a closed-loop client's window splits
    /// over two scans per round trip, and the split stays wherever it first
    /// fell. Only a transport whose ticks come from a free-running clock may
    /// drop late ones — the next tick is then never more than one interval
    /// away. Transports driven by one-shot ticks keep the default, or a
    /// dropped tick would strand the requests it was sent to close.
    fn serves_late_ticks(&self) -> bool {
        true
    }
}

/// Events a subORAM's transport feeds into its loop.
pub enum SubEvent {
    /// An (opened) request batch from load balancer `lb` for `epoch`.
    Batch {
        /// Sending load balancer index.
        lb: usize,
        /// Epoch the batch belongs to.
        epoch: u64,
        /// Layout generation the balancer routed the batch under (see
        /// [`LbTransport::send_batch`]). A mismatch with the node's own
        /// generation is refused with [`BatchOutcome::StaleLayout`].
        generation: u64,
        /// The opened request batch.
        batch: Vec<Request>,
    },
    /// A reshard control command from the admin plane, answered on `reply`
    /// by the node's [`SubStaging`] machine (a reply, or the reason it
    /// refused).
    Reshard {
        /// The command.
        cmd: SubReshardCmd,
        /// Where to send the staging machine's answer.
        reply: std::sync::mpsc::Sender<Result<SubReshardReply, String>>,
    },
    /// Terminate gracefully.
    Shutdown,
}

/// Transport endpoint for a subORAM.
pub trait SubTransport {
    /// Blocks for the next event; `None` means the transport is gone.
    fn recv(&mut self) -> Option<SubEvent>;

    /// Seals and sends a response batch for `(lb, epoch)` back to that
    /// balancer.
    fn send_response(&mut self, lb: usize, epoch: u64, batch: &[Request]);

    /// Tells balancer `lb` that its `epoch` batch was refused with a typed
    /// error (surfaced there as [`LbEvent::SubFailed`]). The notice carries
    /// wire-observable facts only — the refusing node's identity and the
    /// epoch id — never why the batch failed.
    fn send_error(&mut self, lb: usize, epoch: u64);
}

/// What a fault injector decided to do with one in-flight message. Injection
/// happens *before* sealing, so a dropped message never advances the link's
/// nonce sequence and the eventual re-send is a byte-identical re-seal of
/// the same plaintext shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass the message through untouched.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice (exercises reply-cache dedup).
    Duplicate,
    /// Hold the message for the given duration, then deliver it.
    Delay(Duration),
    /// Kill the underlying connection (transports without connections treat
    /// this as [`FaultAction::Drop`]).
    Close,
}

/// Decides the fate of each message crossing a transport. Implemented by
/// `snoopy-chaos`'s seeded `FaultPlan`; the decision inputs are all public
/// (deployment indices and the epoch number), so a plan cannot target
/// messages by secret content even by accident.
pub trait FaultInjector: Send + Sync {
    /// Fate of load balancer `lb`'s epoch-`epoch` batch to `suboram`.
    fn on_batch(&self, lb: usize, suboram: usize, epoch: u64) -> FaultAction;

    /// Fate of `suboram`'s epoch-`epoch` response batch to balancer `lb`.
    fn on_response(&self, lb: usize, suboram: usize, epoch: u64) -> FaultAction;
}

/// The injector that never injects: every message is delivered.
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn on_batch(&self, _lb: usize, _suboram: usize, _epoch: u64) -> FaultAction {
        FaultAction::Deliver
    }

    fn on_response(&self, _lb: usize, _suboram: usize, _epoch: u64) -> FaultAction {
        FaultAction::Deliver
    }
}

/// How a balancer's epoch loop reacts to subORAMs that stop answering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochFaultPolicy {
    /// How long to wait for the outstanding response batches before tearing
    /// the owing links down and re-sending. `None` waits forever (the seed
    /// behavior).
    pub sub_deadline: Option<Duration>,
    /// Re-send waves allowed before the epoch completes degraded.
    pub max_replays: u32,
}

impl EpochFaultPolicy {
    /// The seed behavior: block until every subORAM answers.
    pub fn wait_forever() -> EpochFaultPolicy {
        EpochFaultPolicy { sub_deadline: None, max_replays: 0 }
    }

    /// Deadline-driven recovery: after `sub_deadline` with responses still
    /// owed, fail the owing links fast and replay their batches, up to
    /// `max_replays` waves; then degrade the epoch.
    pub fn with_deadline(sub_deadline: Duration, max_replays: u32) -> EpochFaultPolicy {
        EpochFaultPolicy { sub_deadline: Some(sub_deadline), max_replays }
    }
}

/// The balancer's layout and how to rebuild its routing state at a new
/// subORAM count when a reshard commits.
pub struct ReshardControl {
    /// Builds a fresh [`LoadBalancer`] routing to `s` subORAMs: the boot
    /// balancer, and every post-commit rebuild. The balancer is stateless
    /// (§4.3), so a rebuild is cheap: same shared key, new partition count.
    pub rebuild: Box<dyn Fn(usize) -> LoadBalancer + Send>,
    /// Generation of the layout the balancer *boots* with. A balancer is
    /// stateless, so a restarted one learns the live layout from the durable
    /// side of the cluster (the subORAM checkpoints) and reports it here —
    /// otherwise a reshard driver would see generation 0 and misread a
    /// recovered cluster as never resharded.
    pub initial_generation: u64,
    /// The subORAM count the balancer boots routing to.
    pub initial_active: usize,
}

/// Applies one reshard command to a balancer's layout state and answers it
/// with the resulting status. `Plan` arms when the generation advances (not
/// while paused); `Abort` drops a matching plan; `Commit` flips to the armed
/// plan's layout only while `paused` — outside the pause window it just
/// reports, which the driver must treat as a failed flip. Returns whether
/// the layout flipped.
fn on_reshard(
    cmd: ReshardCmd,
    reply: &std::sync::mpsc::Sender<ReshardStatus>,
    paused: bool,
    plan: &mut Option<ReshardPlan>,
    generation: &mut u64,
    active_s: &mut usize,
) -> bool {
    let armed = |g| plan.as_ref().is_some_and(|p| p.generation == g);
    let mut flipped = false;
    match cmd {
        ReshardCmd::Plan(p) if !paused && p.generation > *generation && p.new_s > 0 => {
            *plan = Some(p);
        }
        ReshardCmd::Commit { generation: g } if paused && armed(g) => {
            let p = plan.take().expect("plan checked above");
            (*generation, *active_s) = (p.generation, p.new_s);
            record_flip(p.generation, p.new_s);
            flipped = true;
        }
        ReshardCmd::Abort { generation: g } if armed(g) => {
            *plan = None;
            record_abort(g);
        }
        _ => {}
    }
    let phase = match plan {
        None => ReshardPhase::Idle,
        Some(_) if paused => ReshardPhase::Paused,
        Some(_) => ReshardPhase::Armed,
    };
    let _ = reply.send(ReshardStatus { generation: *generation, active_s: *active_s, phase });
    flipped
}

/// Where a balancer's epoch loop stands (see [`run_load_balancer`]).
enum Phase {
    Idle,
    /// Tick `epoch` held at a reshard boundary until the driver's verdict,
    /// or until `until` (the plan's TTL).
    Paused {
        epoch: u64,
        until: Instant,
    },
    Waiting(Box<InFlight>),
}

impl Phase {
    /// How long the loop's receive may block.
    fn deadline(&self) -> Option<Instant> {
        match self {
            Phase::Idle => None,
            Phase::Paused { until, .. } => Some(*until),
            Phase::Waiting(flight) => flight.deadline,
        }
    }
}

/// An epoch whose batches are out.
struct InFlight {
    epoch: u64,
    requests: Vec<Request>,
    sinks: Vec<Box<dyn ReplySink>>,
    /// The batches as sent, kept for replays.
    batches: Vec<Vec<Request>>,
    /// Per-subORAM response batch; `None` while still owed.
    responses: Vec<Option<Vec<Request>>>,
    replays: u32,
    /// When the current wave times out; `None` waits forever.
    deadline: Option<Instant>,
    entries_sent: usize,
    lb_make_time: Duration,
    epoch_span: trace::SpanGuard<'static>,
    wait_span: trace::SpanGuard<'static>,
}

impl InFlight {
    /// Whether `suboram` still owes this epoch a response (a warm spare,
    /// beyond the active fleet, owes nothing).
    fn owes(&self, suboram: usize) -> bool {
        self.responses.get(suboram).is_some_and(Option::is_none)
    }

    fn owing(&self) -> Vec<usize> {
        (0..self.responses.len()).filter(|&s| self.owes(s)).collect()
    }
}

/// Drives one load balancer until shutdown: one receive, over three phases.
///
/// * **Idle** — clients buffer; a tick starts an epoch (make the batches,
///   send one to each subORAM) and moves to *Waiting*.
/// * **Waiting** — once all `S` responses arrived the epoch commits (match,
///   reply) and the loop is *Idle* again. Requests arriving meanwhile join
///   the *next* epoch — exactly the behavior of the threaded seed
///   implementation, where they queued behind the `Tick` message. A late
///   tick is deferred until the epoch resolves, or dropped, per
///   [`LbTransport::serves_late_ticks`].
/// * **Paused** — a tick held at a reshard boundary (below).
///
/// With a `policy` deadline, *Waiting* re-sends still-owed batches
/// (byte-identical shapes — batch size stays `f(R, S)` of public values)
/// after each deadline miss, and after `max_replays` misses completes the
/// epoch in degraded mode: every request in it fails with [`Unavailable`]
/// (see the module docs for why the failure is wholesale). A subORAM that
/// refuses its batch ([`LbEvent::SubFailed`]) degrades the epoch at once.
///
/// The reshard protocol, from this loop's side: a [`ReshardCmd::Plan`] arms
/// a [`ReshardPlan`]; at the first owned tick with id `>= boundary_epoch`
/// the loop *pauses* — the tick is held, clients keep buffering into it,
/// and no batches are in flight (a pause starts from *Idle*, so the
/// balancer owes the subORAMs nothing). While paused it answers status
/// probes with [`ReshardPhase::Paused`] and waits for the driver's verdict:
/// [`ReshardCmd::Commit`] rebuilds the routing table at `new_s` via
/// `control.rebuild` and adopts the plan's generation;
/// [`ReshardCmd::Abort`] — or the plan's `ttl` expiring, the driver having
/// died mid-migration — resumes the old layout. Either way the held tick
/// then executes, so buffered clients commit in exactly one of the two
/// layouts and an acknowledged write is never lost to the flip.
pub fn run_load_balancer<T: LbTransport>(
    transport: &mut T,
    policy: EpochFaultPolicy,
    control: ReshardControl,
) {
    let mut num_suborams = control.initial_active;
    let mut balancer = (control.rebuild)(num_suborams);
    let mut pending: Vec<(Request, Box<dyn ReplySink>)> = Vec::new();
    let mut deferred_ticks: VecDeque<u64> = VecDeque::new();
    let serves_late_ticks = transport.serves_late_ticks();
    // Reshard protocol state: the armed plan (if any) and the generation of
    // the layout currently being served.
    let mut plan: Option<ReshardPlan> = None;
    let mut generation = control.initial_generation;
    let wait = policy.sub_deadline;
    let mut phase = Phase::Idle;
    loop {
        // Deferred ticks run before the next receive, once no epoch is out.
        let deferred = if let Phase::Idle = phase { deferred_ticks.pop_front() } else { None };
        let event = match deferred {
            Some(epoch) => Some(LbEvent::Tick(epoch)),
            None => match transport.recv(phase.deadline()) {
                RecvOutcome::Event(event) => Some(event),
                RecvOutcome::TimedOut => None,
                RecvOutcome::Closed => return,
            },
        };
        phase = match (phase, event) {
            (_, Some(LbEvent::Shutdown)) => return,
            (phase, Some(LbEvent::Client(mut req, sink))) => {
                // The client handle is the pending index so the matched
                // response routes back.
                req.client = pending.len() as u64;
                pending.push((req, sink));
                phase
            }
            (phase, Some(LbEvent::Reshard { cmd, reply })) => {
                // Outside a pause a command can only arm or report; a verdict
                // (commit or abort) ends the pause, and the held tick runs at
                // whichever layout won.
                let paused = matches!(phase, Phase::Paused { .. });
                if on_reshard(cmd, &reply, paused, &mut plan, &mut generation, &mut num_suborams) {
                    balancer = (control.rebuild)(num_suborams);
                }
                match phase {
                    Phase::Paused { epoch, .. } if plan.is_none() => {
                        start_epoch(transport, &balancer, generation, epoch, &mut pending, wait)
                    }
                    phase => phase,
                }
            }
            (Phase::Idle, Some(LbEvent::Tick(epoch))) => match &plan {
                // At the reshard boundary: hold the tick, keep buffering
                // clients, and wait for the driver's verdict.
                Some(p) if epoch >= p.boundary_epoch => {
                    Phase::Paused { epoch, until: Instant::now() + p.ttl }
                }
                _ => start_epoch(transport, &balancer, generation, epoch, &mut pending, wait),
            },
            // A later tick supersedes the held one, so composite ordering
            // stays monotone.
            (Phase::Paused { until, .. }, Some(LbEvent::Tick(epoch))) => {
                Phase::Paused { epoch, until }
            }
            // A late tick: deferred until the epoch resolves, or dropped.
            (phase @ Phase::Waiting(_), Some(LbEvent::Tick(epoch))) => {
                if serves_late_ticks {
                    deferred_ticks.push_back(epoch);
                } else {
                    record_late_tick_dropped();
                }
                phase
            }
            (Phase::Waiting(mut flight), Some(LbEvent::SubResponse { suboram, epoch, batch }))
                if epoch == flight.epoch =>
            {
                if flight.owes(suboram) {
                    flight.responses[suboram] = Some(batch);
                    events::record(
                        Event::new(EventKind::SubReply)
                            .with("epoch", Public::wire_observable(epoch))
                            .with("suboram", Public::wire_observable(suboram as u64)),
                    );
                }
                if flight.responses.iter().all(Option::is_some) {
                    end_epoch(transport, &balancer, flight, None)
                } else {
                    Phase::Waiting(flight)
                }
            }
            // A typed refusal is deterministic (the same batch would fail
            // the same way) and the link is healthy, so neither replays nor
            // fail_fast help: degrade at once, naming the refusing subORAM.
            (Phase::Waiting(flight), Some(LbEvent::SubFailed { suboram, epoch }))
                if epoch == flight.epoch =>
            {
                end_epoch(transport, &balancer, flight, Some(suboram))
            }
            // A subORAM that still owes this epoch (re)connected: resend its
            // batch. The reply cache on the far side makes this idempotent.
            (Phase::Waiting(flight), Some(LbEvent::SubLinkRestored { suboram }))
                if flight.owes(suboram) =>
            {
                record_replay(flight.epoch, suboram);
                transport.send_batch(suboram, flight.epoch, generation, &flight.batches[suboram]);
                Phase::Waiting(flight)
            }
            // Stale: a resent response or failure notice for an epoch that
            // already resolved, or a reconnect of a link that owes nothing.
            (
                phase,
                Some(
                    LbEvent::SubResponse { .. }
                    | LbEvent::SubFailed { .. }
                    | LbEvent::SubLinkRestored { .. },
                ),
            ) => phase,
            // The reshard driver died mid-migration: self-abort back to the
            // old layout rather than hold buffered clients hostage.
            (Phase::Paused { epoch, .. }, None) => {
                if let Some(p) = plan.take() {
                    record_abort(p.generation);
                }
                start_epoch(transport, &balancer, generation, epoch, &mut pending, wait)
            }
            // A deadline miss. The link is strictly in-order, so a stalled
            // link cannot be reused: kill it, and re-send (same plaintext,
            // fresh seal) once it heals — or at once, on connectionless
            // transports. With the replay budget spent, the epoch degrades;
            // the owing links are still torn down, to heal for the next one.
            (Phase::Waiting(mut flight), None) => {
                let replay = flight.replays < policy.max_replays;
                for sub in flight.owing() {
                    transport.fail_fast(sub);
                    if replay {
                        record_replay(flight.epoch, sub);
                        transport.send_batch(sub, flight.epoch, generation, &flight.batches[sub]);
                    }
                }
                if replay {
                    flight.replays += 1;
                    flight.deadline = wait.map(|d| Instant::now() + d);
                    Phase::Waiting(flight)
                } else {
                    end_epoch(transport, &balancer, flight, None)
                }
            }
            (Phase::Idle, None) => Phase::Idle,
        };
    }
}

/// Starts `epoch` over the buffered requests: makes the batches and sends
/// one to each subORAM, each owed a response within `wait`. When the
/// batches cannot be formed, the epoch fails and the loop stays idle.
fn start_epoch<T: LbTransport>(
    transport: &mut T,
    balancer: &LoadBalancer,
    generation: u64,
    epoch: u64,
    pending: &mut Vec<(Request, Box<dyn ReplySink>)>,
    wait: Option<Duration>,
) -> Phase {
    let epoch_span = trace::span("epoch");
    let (requests, sinks): (Vec<Request>, Vec<Box<dyn ReplySink>>) =
        std::mem::take(pending).into_iter().unzip();
    events::record(
        Event::new(EventKind::EpochStart)
            .with("epoch", Public::wire_observable(epoch))
            .with("requests", Public::request_volume(requests.len() as u64)),
    );
    let make_span = trace::span("epoch/lb_make");
    let Ok(batches) = balancer.make_batches(&requests) else {
        // More distinct requests hashed to one subORAM than a batch holds —
        // negligible at a sound λ, but λ is an operator setting. No batch
        // goes out; the epoch fails with no subORAM named.
        drop(make_span);
        fail_epoch(sinks, epoch, Vec::new());
        return Phase::Idle;
    };
    for (sub, batch) in batches.iter().enumerate() {
        transport.send_batch(sub, epoch, generation, batch);
    }
    let lb_make_time = make_span.finish();
    let entries_sent = batches.iter().map(Vec::len).sum::<usize>();
    events::record(
        Event::new(EventKind::BatchSealed)
            .with("epoch", Public::wire_observable(epoch))
            .with("entries", Public::wire_observable(entries_sent as u64))
            .with("suborams", Public::config(batches.len() as u64)),
    );
    Phase::Waiting(Box::new(InFlight {
        epoch,
        requests,
        sinks,
        responses: vec![None; batches.len()],
        batches,
        replays: 0,
        deadline: wait.map(|d| Instant::now() + d),
        entries_sent,
        lb_make_time,
        epoch_span,
        wait_span: trace::span("epoch/sub_wait"),
    }))
}

/// Resolves an epoch in flight: it commits (match, reply, flush) once every
/// response arrived, and otherwise degrades, naming the `refused` subORAM
/// if one refused its batch and every subORAM still owing one if not.
fn end_epoch<T: LbTransport>(
    transport: &mut T,
    balancer: &LoadBalancer,
    flight: Box<InFlight>,
    refused: Option<usize>,
) -> Phase {
    let flight = *flight;
    let failed = refused.map_or_else(|| flight.owing(), |sub| vec![sub]);
    let sub_wait_time = flight.wait_span.finish();
    if !failed.is_empty() {
        fail_epoch(flight.sinks, flight.epoch, failed);
        return Phase::Idle;
    }
    let match_span = trace::span("epoch/lb_match");
    if !flight.requests.is_empty() {
        let route_span = trace::span("epoch/lb_match/route");
        let responses = flight.responses.into_iter().flatten().collect();
        let matched = balancer.match_responses(&flight.requests, responses);
        drop(route_span);
        let _reply_span = trace::span("epoch/lb_match/reply");
        let mut sinks: Vec<_> = flight.sinks.into_iter().map(Some).collect();
        for resp in matched {
            if let Some(sink) = sinks[resp.client as usize].take() {
                sink.deliver(resp, flight.epoch);
            }
        }
        transport.flush_replies();
    }
    let lb_match_time = match_span.finish();
    drop(flight.epoch_span);
    record_epoch_metrics(
        flight.requests.len(),
        flight.entries_sent,
        [
            ("lb_make", flight.lb_make_time),
            ("sub_wait", sub_wait_time),
            ("lb_match", lb_match_time),
        ],
    );
    Phase::Idle
}

/// Completes an epoch degraded: every request in it fails with
/// [`Unavailable`] naming `failed` (empty when no batch was sent). Then it
/// publishes the epoch-failure counter, how many client requests received
/// `Unavailable`, and a flight-recorder event naming the failed subORAMs (as
/// a bitmask — bit *i* set means subORAM *i* still owed a response or
/// refused). Degradation is triggered purely by wire-observable deadline
/// misses or NACK frames; the affected-request count is the epoch's request
/// volume, public by assumption.
fn fail_epoch(sinks: Vec<Box<dyn ReplySink>>, epoch: u64, failed: Vec<usize>) {
    let affected = sinks.len() as u64;
    for sink in sinks {
        sink.fail(Unavailable { epoch, failed_suborams: failed.clone() });
    }
    let reg = metrics::global();
    // A degraded epoch still *executed* (its clients got typed failures), so
    // it counts toward the epoch total — keeping the SLO plane's
    // degraded-epoch ratio in [0, 1] even when every epoch degrades.
    reg.counter(metrics::names::EPOCHS_TOTAL, "epochs executed").inc(Public::wire_observable(()));
    reg.counter(metrics::names::DEGRADED_EPOCHS_TOTAL, "epochs completed in degraded mode")
        .inc(Public::wire_observable(()));
    reg.counter(metrics::names::UNAVAILABLE_TOTAL, "client requests failed with Unavailable")
        .add(Public::request_volume(affected));
    let mask = failed.iter().filter(|&&s| s < 64).fold(0u64, |m, &s| m | (1 << s));
    events::record(
        Event::new(EventKind::EpochDegraded)
            .with("epoch", Public::wire_observable(epoch))
            .with("requests", Public::request_volume(affected))
            .with("failed", Public::wire_observable(failed.len() as u64))
            .with("subs_mask", Public::wire_observable(mask)),
    );
}

/// Counts one tick dropped because it fired while an epoch was in flight.
/// Ticks follow the public wall-clock cadence and epochs end on the wire, so
/// the count is wire-observable.
fn record_late_tick_dropped() {
    metrics::global()
        .counter(
            metrics::names::LATE_TICKS_DROPPED_TOTAL,
            "epoch ticks dropped because they fired while an epoch was in flight",
        )
        .inc(Public::wire_observable(()));
}

/// Counts one batch re-send (deadline-miss wave or post-reconnect replay)
/// and flight-records the wave. Re-sends are wire-observable by definition —
/// the adversary sees the frame, and sees which subORAM's link it crossed.
fn record_replay(epoch: u64, suboram: usize) {
    metrics::global()
        .counter(
            metrics::names::REPLAYS_TOTAL,
            "epoch batches re-sent after deadline misses or reconnects",
        )
        .inc(Public::wire_observable(()));
    events::record(
        Event::new(EventKind::ReplayWave)
            .with("epoch", Public::wire_observable(epoch))
            .with("suboram", Public::wire_observable(suboram as u64)),
    );
}

/// What [`SubOramNode::handle_batch`] decided about an incoming batch.
pub enum BatchOutcome {
    /// The batch's epoch just executed. `Some` is the response batch for the
    /// owning balancer; `None` means the batch was refused with a typed
    /// error (it gets a failure notice instead of a response). The node's
    /// state (and any checkpoint) already reflects it.
    Completed(Option<Vec<Request>>),
    /// The batch was a re-delivery of an already-executed epoch (a resend
    /// after a reconnect or restart); the cached outcome for the sending
    /// balancer is replayed without touching the ORAM. `None` replays the
    /// failure notice — refusal is deterministic, so the replay must be too.
    Replayed {
        /// Balancer to re-answer.
        lb: usize,
        /// The cached response batch, or `None` if the batch was refused.
        batch: Option<Vec<Request>>,
    },
    /// The batch belongs to an epoch whose cached responses were already
    /// evicted from the bounded reply cache. Re-executing it would corrupt
    /// write semantics (writes return the pre-write value), so the node
    /// refuses: no response is sent and the balancer's epoch eventually
    /// degrades. Only a balancer replaying far into the past hits this.
    Evicted {
        /// The balancer whose batch was refused.
        lb: usize,
        /// The too-old epoch.
        epoch: u64,
    },
    /// The batch's epoch id names a different balancer as its owner
    /// (`epoch % num_lbs != lb`). Caching it under the sender would collide
    /// with the owner's reply-cache slot, so the node refuses with a typed
    /// NACK and touches no state. Only a buggy or malicious balancer — or a
    /// misconfigured cluster where two daemons disagree on `L` — hits this.
    Rejected {
        /// The balancer whose batch was refused.
        lb: usize,
        /// The epoch id with the foreign owner.
        epoch: u64,
    },
    /// The batch was stamped with a layout generation other than the one
    /// this node serves, so executing it would route keys with the wrong
    /// partition map (reads of absent keys, silently wrong answers). The
    /// node refuses with a typed NACK and touches no state. This closes the
    /// mixed-layout window around a crashed reshard: e.g. a balancer whose
    /// pause TTL expired and self-aborted to the old layout *after* the
    /// subORAMs durably committed the new generation.
    StaleLayout {
        /// The balancer whose batch was refused.
        lb: usize,
        /// The refused epoch.
        epoch: u64,
        /// The generation the batch was stamped with.
        batch_generation: u64,
    },
}

/// A subORAM's deployment-plane state machine: per-balancer epoch streams,
/// immediate execution, and an at-most-once reply cache.
///
/// Every epoch id is owned by one balancer (`epoch % num_lbs` — see the
/// module docs) and carries exactly one batch, so the node executes each
/// batch the moment it arrives. Batches from distinct balancers interleave
/// in arrival order; there is no cross-balancer barrier, so a dead balancer
/// cannot stall the epochs of the survivors.
///
/// The reply cache makes batch delivery idempotent: a balancer that lost the
/// connection mid-epoch can blindly resend its batch after reconnecting, and
/// a restarted subORAM process (recovered from a checkpoint) can re-answer
/// epochs it already executed without re-running them — which would corrupt
/// write semantics, since writes return the pre-write value.
///
/// The cache is bounded *per balancer*: composite epoch ids stride by
/// `num_lbs` (balancer `i` only ever sends ids `≡ i mod L`), so a single
/// global bound of `retain` entries would shrink each balancer's effective
/// retention window to `retain / L` — and one fast balancer could evict a
/// lagging balancer's epochs out from under it. Instead the node keeps the
/// newest [`SubOramNode::retain`] executed epochs of *each residue class*,
/// with one eviction watermark per class. The watermarks persist across
/// restarts (via the checkpoint) so a replay of an evicted epoch is
/// *refused* with [`BatchOutcome::Evicted`] rather than silently
/// re-executed.
pub struct SubOramNode {
    oram: SubOram,
    num_lbs: usize,
    /// This subORAM's index in the deployment (telemetry labels only).
    index: Option<usize>,
    /// Executed epochs kept for replay, newest `retain` per residue class.
    /// `None` entries are batches that were refused with a typed error.
    completed: BTreeMap<u64, Option<Vec<Request>>>,
    retain: usize,
    /// Per-residue-class eviction watermarks (`watermarks[c]` bounds epochs
    /// `≡ c mod num_lbs`): epochs below their class watermark executed once
    /// and were evicted; replaying them is refused. Persisted in
    /// checkpoints so restarts cannot re-execute.
    watermarks: Vec<u64>,
    /// Layout generation this node serves (0 until a reshard ever commits).
    /// Persisted in checkpoints so a restart recovers into exactly one of
    /// {old, new} layouts, never a mix.
    generation: u64,
    /// The active subORAM count of that layout (0 = not recorded; single
    /// planes that never reshard don't track it).
    active_s: usize,
    /// Enclave threads for the parallel linear scan (§8.4, Fig. 13b).
    threads: usize,
}

impl SubOramNode {
    /// Wraps a freshly initialized subORAM.
    pub fn new(oram: SubOram, num_lbs: usize) -> SubOramNode {
        SubOramNode {
            oram,
            num_lbs,
            index: None,
            completed: BTreeMap::new(),
            retain: 8,
            watermarks: vec![0; num_lbs.max(1)],
            generation: 0,
            active_s: 0,
            threads: 1,
        }
    }

    /// Rebuilds a node from checkpointed state: the recovered ORAM, the
    /// reply cache of already-executed epochs, and the per-residue eviction
    /// watermark vector (one entry per balancer).
    pub fn restore_with_watermarks(
        oram: SubOram,
        num_lbs: usize,
        completed: BTreeMap<u64, Option<Vec<Request>>>,
        watermarks: Vec<u64>,
    ) -> SubOramNode {
        assert_eq!(watermarks.len(), num_lbs.max(1), "one watermark per balancer");
        SubOramNode {
            oram,
            num_lbs,
            index: None,
            completed,
            retain: 8,
            watermarks,
            generation: 0,
            active_s: 0,
            threads: 1,
        }
    }

    /// Labels this node with its deployment index so its scan spans read
    /// `epoch/suboram_scan/<i>`. The index is configuration — public.
    pub fn with_index(mut self, index: usize) -> SubOramNode {
        self.index = Some(index);
        self
    }

    /// Sets the number of enclave threads the linear scan may use
    /// (§8.4, Fig. 13b). The scan's access trace is identical either way.
    pub fn with_threads(mut self, threads: usize) -> SubOramNode {
        self.threads = threads.max(1);
        self
    }

    /// The configured enclave thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Bounds the reply cache to the newest `retain` executed epochs
    /// (minimum 1 — an unbounded node would never answer a replay from a
    /// cacheless past anyway, it would corrupt it).
    pub fn with_retain(mut self, retain: usize) -> SubOramNode {
        self.retain = retain.max(1);
        self
    }

    /// The wrapped subORAM.
    pub fn oram(&self) -> &SubOram {
        &self.oram
    }

    /// Mutable access to the wrapped subORAM, for epoch hooks that commit
    /// storage generations before responses are released.
    pub fn oram_mut(&mut self) -> &mut SubOram {
        &mut self.oram
    }

    /// The reply cache (for checkpointing), keyed by composite epoch id
    /// (the owning balancer is `epoch % num_lbs`). `None` entries are
    /// batches that were refused with a typed error.
    pub fn completed(&self) -> &BTreeMap<u64, Option<Vec<Request>>> {
        &self.completed
    }

    /// Per-residue-class eviction watermarks: epochs `e` with
    /// `e < watermarks[e % num_lbs]` were executed and evicted; replaying
    /// them returns [`BatchOutcome::Evicted`]. Persisted in checkpoints.
    pub fn watermarks(&self) -> &[u64] {
        &self.watermarks
    }

    /// Layout generation this node serves (0 until a reshard commits).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The active subORAM count recorded with the layout (0 = not recorded).
    pub fn active_s(&self) -> usize {
        self.active_s
    }

    /// Stamps the layout this node serves: the reshard generation and the
    /// subORAM count active under it. Called on reshard commit (and on
    /// restore from a v6 checkpoint) so the stamp persists with the state.
    pub fn set_layout(&mut self, generation: u64, active_s: usize) {
        self.generation = generation;
        self.active_s = active_s;
    }

    /// Replaces the wrapped subORAM — the reshard commit point, swapping the
    /// staged partition in. Returns the old ORAM so the caller can keep it
    /// for abort-rollback until the cluster-wide flip completes.
    pub fn swap_oram(&mut self, oram: SubOram) -> SubOram {
        std::mem::replace(&mut self.oram, oram)
    }

    /// Number of load balancers feeding this node.
    pub fn num_lbs(&self) -> usize {
        self.num_lbs
    }

    /// Feeds one batch in from a plane that carries no layout-generation
    /// stamp: the batch is trusted to belong to this node's own layout.
    /// Stamped planes (everything reshardable) use
    /// [`SubOramNode::handle_stamped_batch`].
    pub fn handle_batch(&mut self, lb: usize, epoch: u64, batch: Vec<Request>) -> BatchOutcome {
        self.handle_stamped_batch(lb, epoch, self.generation, batch)
    }

    /// Feeds one batch in; executes it immediately (each epoch id carries
    /// exactly one balancer's batch — see the module docs on the composite
    /// epoch-id namespace). `generation` is the layout stamp the balancer
    /// sent the batch under: a mismatch with this node's layout is refused
    /// with [`BatchOutcome::StaleLayout`] *before* any state mutates.
    /// Cached replays are exempt — their epochs executed (and their writes
    /// migrated) under whatever layout was live at the time, so re-answering
    /// from the cache is correct at any generation.
    pub fn handle_stamped_batch(
        &mut self,
        lb: usize,
        epoch: u64,
        generation: u64,
        batch: Vec<Request>,
    ) -> BatchOutcome {
        assert!(lb < self.num_lbs, "balancer index {lb} out of range");
        if epoch % self.num_lbs as u64 != lb as u64 {
            return BatchOutcome::Rejected { lb, epoch };
        }
        if epoch < self.watermarks[lb] {
            return BatchOutcome::Evicted { lb, epoch };
        }
        if let Some(cached) = self.completed.get(&epoch) {
            return BatchOutcome::Replayed { lb, batch: cached.clone() };
        }
        if generation != self.generation {
            return BatchOutcome::StaleLayout { lb, epoch, batch_generation: generation };
        }
        // The scan span name carries only configuration (the subORAM index)
        // and its duration is the timing of a data-oblivious linear scan —
        // both public per §2.1.
        let scan_span = match self.index {
            Some(i) => trace::span(format!("epoch/suboram_scan/{i}")),
            None => trace::span("epoch/suboram_scan"),
        };
        let out = if batch.is_empty() {
            Some(Vec::new())
        } else {
            // A malformed batch (duplicate ids, from a buggy or malicious
            // balancer) fails oblivious hash construction *before* any
            // partition state mutates, so refusing just this balancer's
            // batch is safe: other balancers' epochs execute normally and
            // the node stays serviceable. The refusal is recorded and
            // NACKed; it must never panic the node.
            match self.oram.batch_access_parallel(batch, self.threads) {
                Ok(resp) => Some(resp),
                Err(_) => {
                    metrics::global()
                        .counter(
                            metrics::names::SUB_BATCH_FAILURES_TOTAL,
                            "subORAM batches refused with a typed error",
                        )
                        .inc(Public::wire_observable(()));
                    None
                }
            }
        };
        let scan_time = scan_span.finish();
        metrics::stage_histogram("suboram_scan").observe(Public::timing(scan_time));
        self.completed.insert(epoch, out.clone());
        // Evict within this epoch's residue class only: composite ids stride
        // by num_lbs, so a global bound would cut each balancer's retention
        // window to retain / L and let a fast balancer starve a slow one.
        let class = epoch % self.num_lbs as u64;
        let in_class: Vec<u64> =
            self.completed.keys().copied().filter(|e| e % self.num_lbs as u64 == class).collect();
        if in_class.len() > self.retain {
            for &oldest in &in_class[..in_class.len() - self.retain] {
                self.completed.remove(&oldest);
                self.watermarks[class as usize] = self.watermarks[class as usize].max(oldest + 1);
            }
        }
        BatchOutcome::Completed(out)
    }
}

/// Drives one subORAM until shutdown.
///
/// `after_epoch` runs after an epoch executes but *before* its responses are
/// sent — the durability point: a TCP node commits dirty storage generations
/// and checkpoints there, so a crash at any instant either re-executes the
/// epoch (no responses escaped) or replays cached responses (state already
/// persisted). The hook gets mutable access so it can drive
/// [`SubOram::commit_storage`].
///
/// Reshard control commands go to `staging`, the node's staging state
/// machine; between two commands the node is always fully in one layout.
pub fn run_suboram<T: SubTransport>(
    transport: &mut T,
    node: &mut SubOramNode,
    mut staging: SubStaging,
    mut after_epoch: impl FnMut(&mut SubOramNode, u64),
) {
    while let Some(ev) = transport.recv() {
        match ev {
            SubEvent::Shutdown => break,
            SubEvent::Reshard { cmd, reply } => {
                let _ = reply.send(staging.handle(node, cmd));
            }
            SubEvent::Batch { lb, epoch, generation, batch } => {
                match node.handle_stamped_batch(lb, epoch, generation, batch) {
                    BatchOutcome::Replayed { lb, batch } => match batch {
                        Some(batch) => transport.send_response(lb, epoch, &batch),
                        None => transport.send_error(lb, epoch),
                    },
                    BatchOutcome::Evicted { lb, epoch } => {
                        // Refused: the epoch executed long ago and its cached
                        // responses are gone. Answering nothing lets the
                        // balancer's deadline degrade the epoch; re-executing
                        // would silently corrupt write semantics.
                        metrics::global()
                        .counter(
                            metrics::names::EVICTED_REPLAYS_TOTAL,
                            "replayed batches refused because the epoch was evicted from the reply cache",
                        )
                        .inc(Public::wire_observable(()));
                        events::record(
                            Event::new(EventKind::ReplayEvicted)
                                .with("epoch", Public::wire_observable(epoch))
                                .with("lb", Public::wire_observable(lb as u64)),
                        );
                    }
                    BatchOutcome::Rejected { lb, epoch } => {
                        // The epoch id names another balancer as owner: a typed
                        // NACK so the sender's epoch degrades immediately. Both
                        // fields are wire-observable (they arrived plaintext in
                        // the batch trace context).
                        metrics::global()
                            .counter(
                                metrics::names::SUB_BATCH_FAILURES_TOTAL,
                                "subORAM batches refused with a typed error",
                            )
                            .inc(Public::wire_observable(()));
                        transport.send_error(lb, epoch);
                    }
                    BatchOutcome::StaleLayout { lb, epoch, batch_generation } => {
                        // The balancer routed this batch under a layout other
                        // than the one this node serves (a mixed-layout window
                        // around a crashed reshard). Executing it would return
                        // silently wrong answers; a typed NACK degrades the
                        // balancer's epoch visibly instead, and the operator
                        // repairs by re-running the reshard driver.
                        metrics::global()
                            .counter(
                                metrics::names::STALE_LAYOUT_BATCHES_TOTAL,
                                "batches refused because their layout generation stamp mismatched",
                            )
                            .inc(Public::wire_observable(()));
                        events::record(
                            Event::new(EventKind::StaleLayoutBatch)
                                .with("epoch", Public::wire_observable(epoch))
                                .with("lb", Public::wire_observable(lb as u64))
                                .with("generation", Public::config(batch_generation)),
                        );
                        transport.send_error(lb, epoch);
                    }
                    BatchOutcome::Completed(resp) => {
                        after_epoch(node, epoch);
                        let owner = (epoch % node.num_lbs() as u64) as usize;
                        match resp {
                            Some(resp) => transport.send_response(owner, epoch, &resp),
                            None => transport.send_error(owner, epoch),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailable_display_names_suborams() {
        let u = Unavailable { epoch: 9, failed_suborams: vec![1, 3] };
        let msg = u.to_string();
        assert!(msg.contains("epoch 9"), "{msg}");
        assert!(msg.contains("[1, 3]"), "{msg}");
    }

    #[test]
    fn unavailable_display_without_suborams_blames_no_deadline() {
        let msg = Unavailable { epoch: 4, failed_suborams: Vec::new() }.to_string();
        assert!(msg.contains("epoch 4"), "{msg}");
        assert!(!msg.contains("deadline"), "{msg}");
    }

    #[test]
    fn fault_policy_constructors() {
        assert_eq!(EpochFaultPolicy::wait_forever().sub_deadline, None);
        let p = EpochFaultPolicy::with_deadline(Duration::from_millis(250), 3);
        assert_eq!(p.sub_deadline, Some(Duration::from_millis(250)));
        assert_eq!(p.max_replays, 3);
    }

    #[test]
    fn no_faults_delivers() {
        assert_eq!(NoFaults.on_batch(0, 0, 0), FaultAction::Deliver);
        assert_eq!(NoFaults.on_response(1, 2, 3), FaultAction::Deliver);
    }

    fn test_oram(value_len: usize) -> SubOram {
        use snoopy_crypto::{Key256, Prg};
        use snoopy_enclave::wire::StoredObject;
        let mut prg = Prg::from_seed(7);
        let objs: Vec<StoredObject> =
            (0..8u64).map(|i| StoredObject::new(i, &i.to_le_bytes(), value_len)).collect();
        SubOram::new_in_enclave(objs, value_len, Key256::random(&mut prg), 16)
    }

    #[test]
    fn duplicate_id_batch_refused_without_panic() {
        // 2 balancers: lb 0 owns even epoch ids, lb 1 owns odd ones.
        let mut node = SubOramNode::new(test_oram(8), 2);
        let dup = vec![Request::read(1, 8, 0, 0), Request::read(1, 8, 0, 1)];
        let good = vec![Request::read(2, 8, 0, 0)];
        let out = match node.handle_batch(0, 0, dup) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("each batch executes the moment it arrives"),
        };
        assert!(out.is_none(), "the duplicate-id batch must be refused");
        // The other balancer's epoch is unaffected by the refusal.
        let out = match node.handle_batch(1, 1, good.clone()) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("epoch 1 should execute on arrival"),
        };
        assert!(out.is_some(), "the well-formed batch still executes");
        // A replay of the refused batch replays the refusal deterministically.
        assert!(matches!(
            node.handle_batch(0, 0, vec![Request::read(1, 8, 0, 0)]),
            BatchOutcome::Replayed { lb: 0, batch: None }
        ));
        // The node stays serviceable: the next epochs commit for everyone.
        assert!(matches!(node.handle_batch(0, 2, good.clone()), BatchOutcome::Completed(Some(_))));
        assert!(matches!(node.handle_batch(1, 3, good), BatchOutcome::Completed(Some(_))));
    }

    #[test]
    fn foreign_owner_epoch_ids_are_rejected_without_touching_state() {
        // lb 1 claims epoch 0, which lb 0 owns (0 % 2 == 0).
        let mut node = SubOramNode::new(test_oram(8), 2);
        let good = vec![Request::read(2, 8, 0, 0)];
        assert!(matches!(
            node.handle_batch(1, 0, good.clone()),
            BatchOutcome::Rejected { lb: 1, epoch: 0 }
        ));
        // No state was cached under the foreign id: the true owner's batch
        // still executes (a replay would return the rejected sender's batch).
        assert!(matches!(node.handle_batch(0, 0, good), BatchOutcome::Completed(Some(_))));
    }

    #[test]
    fn stale_generation_batch_refused_without_touching_state() {
        // The node has committed generation 1; a balancer that self-aborted
        // to the old layout still stamps generation 0.
        let mut node = SubOramNode::new(test_oram(8), 1).with_retain(16);
        let good = vec![Request::read(2, 8, 0, 0)];
        assert!(matches!(
            node.handle_stamped_batch(0, 0, 0, good.clone()),
            BatchOutcome::Completed(Some(_))
        ));
        node.set_layout(1, 2);
        // A stale-stamped batch for a NEW epoch is refused before executing
        // (nothing is cached under its id — no wrong answer can be replayed).
        assert!(matches!(
            node.handle_stamped_batch(0, 1, 0, good.clone()),
            BatchOutcome::StaleLayout { lb: 0, epoch: 1, batch_generation: 0 }
        ));
        // A future-stamped batch (balancer flipped first) is refused the
        // same way — only an exact generation match executes.
        assert!(matches!(
            node.handle_stamped_batch(0, 1, 2, good.clone()),
            BatchOutcome::StaleLayout { lb: 0, epoch: 1, batch_generation: 2 }
        ));
        // The refused epoch never entered the cache: the correctly stamped
        // batch still executes fresh.
        assert!(matches!(
            node.handle_stamped_batch(0, 1, 1, good.clone()),
            BatchOutcome::Completed(Some(_))
        ));
        // Cached replays are exempt from the fence: epoch 0 executed (and
        // its writes migrated) under the old layout, so re-answering from
        // the cache is correct at any stamp.
        assert!(matches!(
            node.handle_stamped_batch(0, 0, 0, good),
            BatchOutcome::Replayed { lb: 0, batch: Some(_) }
        ));
    }

    #[test]
    fn balancer_streams_interleave_without_a_barrier() {
        // One balancer far ahead of the other: every batch still executes
        // on arrival, and replays hit the cache regardless of arrival order.
        let mut node = SubOramNode::new(test_oram(8), 2).with_retain(16);
        let good = vec![Request::read(3, 8, 0, 0)];
        for wall in 0..4u64 {
            let epoch = wall * 2; // lb 0's residue class
            assert!(matches!(
                node.handle_batch(0, epoch, good.clone()),
                BatchOutcome::Completed(Some(_))
            ));
        }
        // lb 1 is still on wall epoch 0 — no barrier, executes immediately.
        assert!(matches!(node.handle_batch(1, 1, good.clone()), BatchOutcome::Completed(Some(_))));
        // Replays of both streams come from the cache, keyed by composite id.
        assert!(matches!(
            node.handle_batch(0, 4, good.clone()),
            BatchOutcome::Replayed { lb: 0, batch: Some(_) }
        ));
        assert!(matches!(
            node.handle_batch(1, 1, good),
            BatchOutcome::Replayed { lb: 1, batch: Some(_) }
        ));
    }

    /// A transport that never delivers a subORAM response: events come only
    /// from the scripted queue, and waiting past the deadline times out.
    struct NeverDelivering {
        queue: VecDeque<LbEvent>,
        batches_sent: usize,
        serves_late_ticks: bool,
    }

    impl LbTransport for NeverDelivering {
        fn recv(&mut self, deadline: Option<Instant>) -> RecvOutcome {
            match (self.queue.pop_front(), deadline) {
                (Some(ev), _) => RecvOutcome::Event(ev),
                (None, None) => RecvOutcome::Closed,
                (None, Some(at)) => {
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    RecvOutcome::TimedOut
                }
            }
        }

        fn send_batch(
            &mut self,
            _suboram: usize,
            _epoch: u64,
            _generation: u64,
            _batch: &[Request],
        ) {
            self.batches_sent += 1;
        }

        fn serves_late_ticks(&self) -> bool {
            self.serves_late_ticks
        }
    }

    /// A balancer booting at generation 0 over `s` subORAMs.
    fn control(s: usize) -> ReshardControl {
        let key = snoopy_crypto::Key256([1u8; 32]);
        ReshardControl {
            rebuild: Box::new(move |s| LoadBalancer::new(&key, s, 8, 128)),
            initial_generation: 0,
            initial_active: s,
        }
    }

    #[test]
    fn deadline_degrades_instead_of_hanging_on_silent_transport() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut transport = NeverDelivering {
            queue: VecDeque::from([
                LbEvent::Client(Request::read(1, 8, 0, 0), Box::new(tx)),
                LbEvent::Tick(7),
            ]),
            batches_sent: 0,
            serves_late_ticks: true,
        };
        run_load_balancer(
            &mut transport,
            EpochFaultPolicy::with_deadline(Duration::from_millis(5), 1),
            control(1),
        );
        let reply = rx.try_recv().expect("the epoch must resolve, not hang");
        assert_eq!(reply, Err(Unavailable { epoch: 7, failed_suborams: vec![0] }));
        // One initial send plus one replay wave before degrading.
        assert_eq!(transport.batches_sent, 2);
    }

    #[test]
    fn late_tick_gets_its_own_epoch_unless_the_transport_drops_it() {
        let dropped = metrics::global().counter(metrics::names::LATE_TICKS_DROPPED_TOTAL, "");
        for serves_late_ticks in [true, false] {
            let dropped_before = dropped.value();
            let (tx1, rx1) = std::sync::mpsc::channel();
            let (tx2, rx2) = std::sync::mpsc::channel();
            // Tick 5 and the second request both arrive while epoch 3 waits.
            let mut transport = NeverDelivering {
                queue: VecDeque::from([
                    LbEvent::Client(Request::read(1, 8, 0, 0), Box::new(tx1)),
                    LbEvent::Tick(3),
                    LbEvent::Tick(5),
                    LbEvent::Client(Request::read(2, 8, 0, 0), Box::new(tx2)),
                ]),
                batches_sent: 0,
                serves_late_ticks,
            };
            run_load_balancer(
                &mut transport,
                EpochFaultPolicy::with_deadline(Duration::from_millis(5), 0),
                control(1),
            );
            assert_eq!(rx1.try_recv(), Ok(Err(Unavailable { epoch: 3, failed_suborams: vec![0] })));
            if serves_late_ticks {
                // Tick 5 ran as soon as epoch 3 resolved, with the request
                // that arrived meanwhile.
                assert_eq!(transport.batches_sent, 2);
                let reply = rx2.try_recv().expect("the late tick must run an epoch");
                assert_eq!(reply, Err(Unavailable { epoch: 5, failed_suborams: vec![0] }));
            } else {
                // Tick 5 was dropped: the request waits for the next tick,
                // and none comes before the transport closes.
                assert_eq!(transport.batches_sent, 1);
                assert!(rx2.try_recv().is_err(), "no epoch ran for the late tick");
                assert!(dropped.value() > dropped_before, "the dropped tick was not counted");
            }
        }
    }

    #[test]
    fn sub_failed_notice_degrades_epoch_immediately() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut transport = NeverDelivering {
            queue: VecDeque::from([
                LbEvent::Client(Request::read(1, 8, 0, 0), Box::new(tx)),
                LbEvent::Tick(3),
                LbEvent::SubFailed { suboram: 1, epoch: 3 },
            ]),
            batches_sent: 0,
            serves_late_ticks: true,
        };
        run_load_balancer(&mut transport, EpochFaultPolicy::wait_forever(), control(2));
        let reply = rx.try_recv().expect("the epoch must resolve");
        // The refusing subORAM is named precisely — not every sub still owed.
        assert_eq!(reply, Err(Unavailable { epoch: 3, failed_suborams: vec![1] }));
        // No replay waves: refusal is deterministic.
        assert_eq!(transport.batches_sent, 2, "one batch per subORAM, no replays");
    }

    /// Runs a balancer over `s` subORAMs through the scripted `events`,
    /// with a 5 ms deadline and no replays, until the script runs out.
    fn run_scripted(events: Vec<LbEvent>, s: usize) -> NeverDelivering {
        let mut transport =
            NeverDelivering { queue: events.into(), batches_sent: 0, serves_late_ticks: true };
        let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(5), 0);
        run_load_balancer(&mut transport, policy, control(s));
        transport
    }

    fn client(id: u64) -> (LbEvent, std::sync::mpsc::Receiver<ClientReply>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (LbEvent::Client(Request::read(id, 8, 0, 0), Box::new(tx)), rx)
    }

    /// A plan pausing the balancer at its first tick, and its verdict.
    fn plan_and_abort() -> (LbEvent, LbEvent) {
        let (plan_tx, _) = std::sync::mpsc::channel();
        let (abort_tx, _) = std::sync::mpsc::channel();
        let ttl = Duration::from_secs(5);
        let plan = ReshardPlan { generation: 1, new_s: 2, boundary_epoch: 0, ttl };
        let abort = ReshardCmd::Abort { generation: 1 };
        (
            LbEvent::Reshard { cmd: ReshardCmd::Plan(plan), reply: plan_tx },
            LbEvent::Reshard { cmd: abort, reply: abort_tx },
        )
    }

    #[test]
    fn link_restored_resends_only_to_a_suboram_that_still_owes() {
        // SubORAM 0 answers epoch 3; then link 0 (answered), 5 (a warm spare
        // beyond the active fleet) or 1 (still owing) comes back.
        for (restored, resends) in [(0, 0), (5, 0), (1, 1)] {
            let (req, rx) = client(1);
            let transport = run_scripted(
                vec![
                    req,
                    LbEvent::Tick(3),
                    LbEvent::SubResponse { suboram: 0, epoch: 3, batch: Vec::new() },
                    LbEvent::SubLinkRestored { suboram: restored },
                ],
                2,
            );
            assert_eq!(transport.batches_sent, 2 + resends, "link {restored} restored");
            let reply = rx.try_recv().expect("the epoch must resolve");
            assert_eq!(reply, Err(Unavailable { epoch: 3, failed_suborams: vec![1] }));
        }
    }

    #[test]
    fn client_arriving_during_the_pause_is_served_in_the_held_epoch() {
        let ((req1, rx1), (req2, rx2)) = (client(1), client(2));
        let (plan, abort) = plan_and_abort();
        let transport = run_scripted(vec![req1, plan, LbEvent::Tick(0), req2, abort], 1);
        assert_eq!(transport.batches_sent, 1, "one epoch, at the old layout");
        let held = Err(Unavailable { epoch: 0, failed_suborams: vec![0] });
        assert_eq!(rx1.try_recv(), Ok(held.clone()));
        assert_eq!(rx2.try_recv(), Ok(held), "the late client joined the held epoch");
    }

    #[test]
    fn later_tick_during_the_pause_becomes_the_held_epoch() {
        let (req, rx) = client(1);
        let (plan, abort) = plan_and_abort();
        let transport = run_scripted(vec![req, plan, LbEvent::Tick(0), LbEvent::Tick(2), abort], 1);
        assert_eq!(transport.batches_sent, 1, "the superseded tick runs no epoch");
        let reply = rx.try_recv().expect("the held epoch must resolve");
        assert_eq!(reply, Err(Unavailable { epoch: 2, failed_suborams: vec![0] }));
    }

    #[test]
    fn responses_and_refusals_for_an_older_epoch_are_ignored() {
        let (req, rx) = client(1);
        run_scripted(
            vec![
                req,
                LbEvent::Tick(3),
                LbEvent::SubResponse { suboram: 0, epoch: 1, batch: Vec::new() },
                LbEvent::SubFailed { suboram: 1, epoch: 2 },
            ],
            2,
        );
        // Neither stale event counted: epoch 3 timed out owing both.
        let reply = rx.try_recv().expect("the epoch must resolve");
        assert_eq!(reply, Err(Unavailable { epoch: 3, failed_suborams: vec![0, 1] }));
    }

    /// Regression: the reply-cache bound is per residue class. Composite
    /// epoch ids stride by L, so the old *global* `retain` bound cut each
    /// balancer's effective retention to `retain / L` — and a balancer
    /// racing ahead evicted a lagging balancer's epochs (here, lb 0's four
    /// epochs would have pushed lb 1's only epoch out of a retain=2 cache,
    /// turning lb 1's legitimate replay into a refusal).
    #[test]
    fn reply_cache_retention_is_per_balancer_residue_class() {
        let mut node = SubOramNode::new(test_oram(8), 2).with_retain(2);
        // lb 0 races ahead: epochs 0,2,4,6 (its residue class).
        for e in [0u64, 2, 4, 6] {
            assert!(matches!(node.handle_batch(0, e, Vec::new()), BatchOutcome::Completed(_)));
        }
        // lb 1 executed only epoch 1; per-class retention must keep it
        // replayable no matter how far ahead lb 0 got.
        assert!(matches!(node.handle_batch(1, 1, Vec::new()), BatchOutcome::Completed(_)));
        assert!(matches!(
            node.handle_batch(1, 1, Vec::new()),
            BatchOutcome::Replayed { lb: 1, .. }
        ));
        // lb 0's class evicted epochs 0 and 2, keeping {4, 6}.
        assert!(matches!(
            node.handle_batch(0, 0, Vec::new()),
            BatchOutcome::Evicted { lb: 0, epoch: 0 }
        ));
        assert!(matches!(
            node.handle_batch(0, 4, Vec::new()),
            BatchOutcome::Replayed { lb: 0, .. }
        ));
        assert_eq!(node.watermarks(), &[3, 0]);
        // Restoring with the full vector preserves the per-class bounds.
        let completed = node.completed().clone();
        let marks = node.watermarks().to_vec();
        let SubOramNode { oram, .. } = node;
        let mut restored = SubOramNode::restore_with_watermarks(oram, 2, completed, marks);
        assert!(matches!(restored.handle_batch(0, 0, Vec::new()), BatchOutcome::Evicted { .. }));
        assert!(matches!(restored.handle_batch(1, 1, Vec::new()), BatchOutcome::Replayed { .. }));
    }

    #[test]
    fn reshard_commit_at_boundary_flips_routing_to_new_s() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (plan_tx, plan_rx) = std::sync::mpsc::channel();
        let (commit_tx, commit_rx) = std::sync::mpsc::channel();
        let mut transport = NeverDelivering {
            queue: VecDeque::from([
                LbEvent::Client(Request::read(1, 8, 0, 0), Box::new(tx)),
                LbEvent::Reshard {
                    cmd: ReshardCmd::Plan(ReshardPlan {
                        generation: 1,
                        new_s: 2,
                        boundary_epoch: 0,
                        ttl: Duration::from_secs(5),
                    }),
                    reply: plan_tx,
                },
                LbEvent::Tick(0),
                LbEvent::Reshard { cmd: ReshardCmd::Commit { generation: 1 }, reply: commit_tx },
            ]),
            batches_sent: 0,
            serves_late_ticks: true,
        };
        run_load_balancer(
            &mut transport,
            EpochFaultPolicy::with_deadline(Duration::from_millis(5), 0),
            control(1),
        );
        assert_eq!(
            plan_rx.try_recv().expect("plan must be acknowledged"),
            ReshardStatus { generation: 0, active_s: 1, phase: ReshardPhase::Armed }
        );
        assert_eq!(
            commit_rx.try_recv().expect("commit must be acknowledged"),
            ReshardStatus { generation: 1, active_s: 2, phase: ReshardPhase::Idle }
        );
        // The held tick executed at the NEW layout: one batch per new
        // subORAM went out, and with no subORAM answering, the buffered
        // client got a typed failure naming both new subORAMs — not lost.
        assert_eq!(transport.batches_sent, 2, "post-commit epoch routes to new_s subORAMs");
        let reply = rx.try_recv().expect("the held epoch must resolve");
        assert_eq!(reply, Err(Unavailable { epoch: 0, failed_suborams: vec![0, 1] }));
    }

    #[test]
    fn reshard_pause_self_aborts_when_driver_dies() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (plan_tx, _plan_rx) = std::sync::mpsc::channel();
        let mut transport = NeverDelivering {
            queue: VecDeque::from([
                LbEvent::Client(Request::read(1, 8, 0, 0), Box::new(tx)),
                LbEvent::Reshard {
                    cmd: ReshardCmd::Plan(ReshardPlan {
                        generation: 1,
                        new_s: 2,
                        boundary_epoch: 0,
                        ttl: Duration::from_millis(5),
                    }),
                    reply: plan_tx,
                },
                LbEvent::Tick(0),
                // Nothing else arrives: the driver died after arming.
            ]),
            batches_sent: 0,
            serves_late_ticks: true,
        };
        run_load_balancer(
            &mut transport,
            EpochFaultPolicy::with_deadline(Duration::from_millis(5), 0),
            control(1),
        );
        // The TTL expired, the plan self-aborted, and the held tick executed
        // at the OLD layout (one subORAM): buffered clients resolve rather
        // than hang on a dead driver.
        assert_eq!(transport.batches_sent, 1, "self-abort resumes the old layout");
        let reply = rx.try_recv().expect("the held epoch must resolve");
        assert_eq!(reply, Err(Unavailable { epoch: 0, failed_suborams: vec![0] }));
    }

    #[test]
    fn evicted_epoch_replay_returns_typed_outcome_not_recompute() {
        use snoopy_crypto::{Key256, Prg};
        use snoopy_enclave::wire::StoredObject;
        let mut prg = Prg::from_seed(1);
        let objs: Vec<StoredObject> =
            (0..8u64).map(|i| StoredObject::new(i, &i.to_le_bytes(), 8)).collect();
        let oram = SubOram::new_in_enclave(objs, 8, Key256::random(&mut prg), 16);
        let mut node = SubOramNode::new(oram, 1).with_retain(2);
        for e in 0..4u64 {
            assert!(
                matches!(node.handle_batch(0, e, Vec::new()), BatchOutcome::Completed(_)),
                "epoch {e} should complete"
            );
        }
        // retain = 2 kept epochs {2, 3}; 0 and 1 were evicted.
        assert_eq!(node.watermarks(), &[2]);
        // A retained epoch replays from cache.
        assert!(matches!(node.handle_batch(0, 3, Vec::new()), BatchOutcome::Replayed { .. }));
        // An evicted epoch is refused with the typed outcome — not re-executed.
        assert!(matches!(
            node.handle_batch(0, 1, Vec::new()),
            BatchOutcome::Evicted { lb: 0, epoch: 1 }
        ));
        // The watermark survives a checkpoint-style restore.
        let completed = node.completed().clone();
        let marks = node.watermarks().to_vec();
        let SubOramNode { oram, .. } = node;
        let restored = SubOramNode::restore_with_watermarks(oram, 1, completed, marks);
        assert_eq!(restored.watermarks(), &[2]);
    }
}
