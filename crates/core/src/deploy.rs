//! The in-process cluster: Snoopy's deployment topology on OS threads.
//!
//! Every load balancer and every subORAM runs on its own thread ("machine"),
//! connected by channels standing in for the datacenter network. Batches and
//! responses crossing a link are serialized and AEAD-sealed with a per-link
//! key (drawn from the boot PRG at deployment time, where a real deployment
//! would agree it by remote attestation — §3.1's encrypted, replay-protected
//! channels) with per-link sequence numbers as nonces. An epoch ticker drives the system; clients get blocking handles.
//!
//! The epoch protocol itself lives in [`crate::transport`]: this module only
//! supplies the channel-backed [`LbTransport`]/[`SubTransport`]
//! implementations, so the exact same loops drive the TCP deployment plane
//! (`snoopy-net`). The concurrent execution must be *observably identical* to
//! the synchronous reference engine ([`crate::system::Snoopy`]): each epoch
//! id belongs to one balancer (the ticker hands balancer `i` ids from its
//! residue class `i mod L`), subORAMs execute each batch on arrival, and
//! responses only depend on epoch boundaries — integration tests check this.
//!
//! For chaos testing, [`InProcessCluster::start_with_faults`] boots the same
//! topology with a [`FaultInjector`] wired into every link and an
//! [`EpochFaultPolicy`] driving deadline-based recovery. Faults are injected
//! *before* sealing: a dropped message never advances the link nonce, so the
//! balancer's replay re-seals the identical plaintext and the AEAD channel
//! stays healthy — deterministic chaos without fighting replay protection.

use snoopy_crypto::aead::SealedBox;
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{Request, Response, StoredObject};
use snoopy_lb::{partition_objects, LoadBalancer};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::SnoopyConfig;
use crate::link::Link;
use crate::reshard::{
    drive_reshard, FleetShape, ReshardCmd, ReshardFleet, ReshardOptions, ReshardStatus, RpcFailure,
    SubReshardCmd, SubReshardReply, SubStaging,
};
use crate::transport::{
    run_load_balancer, run_suboram, ClientReply, EpochFaultPolicy, FaultAction, FaultInjector,
    LbEvent, LbTransport, NoFaults, RecvOutcome, ReshardControl, SubEvent, SubOramNode,
    SubTransport, Unavailable,
};

/// Messages into a load-balancer thread (its single mailbox).
enum LbMsg {
    /// A client request plus the channel to answer on.
    Client(Request, Sender<ClientReply>),
    /// Epoch boundary.
    Tick(u64),
    /// A sealed response batch from a subORAM.
    Resp { suboram: usize, epoch: u64, sealed: SealedBox },
    /// A subORAM refused this balancer's batch with a typed error. Carries
    /// wire-observable facts only (sender identity + epoch), so it needs no
    /// sealing — mirroring the TCP plane's plaintext NACK frame.
    SubFail { suboram: usize, epoch: u64 },
    /// A reshard control command from [`InProcessCluster::reshard`].
    Reshard { cmd: ReshardCmd, reply: Sender<ReshardStatus> },
    /// Terminate.
    Shutdown,
}

/// Messages into a subORAM thread.
enum SubMsg {
    /// A sealed batch from balancer `lb` for epoch `epoch`, stamped with the
    /// layout `generation` the balancer routed it under.
    Batch {
        lb: usize,
        epoch: u64,
        generation: u64,
        sealed: SealedBox,
    },
    /// A reshard control command from [`InProcessCluster::reshard`].
    /// Migration payloads ride plaintext here — the channel plane's links
    /// never leave the process; the TCP plane seals them.
    Reshard {
        cmd: SubReshardCmd,
        reply: Sender<Result<SubReshardReply, String>>,
    },
    Shutdown,
}

/// Channel-backed transport for one load-balancer thread.
struct ChannelLbTransport {
    rx: Receiver<LbMsg>,
    sub_txs: Vec<Sender<SubMsg>>,
    links: Vec<Link>,
    resp_links: Vec<Link>,
    lb_idx: usize,
    value_len: usize,
    injector: Arc<dyn FaultInjector>,
}

impl ChannelLbTransport {
    fn event(&mut self, msg: LbMsg) -> LbEvent {
        match msg {
            LbMsg::Shutdown => LbEvent::Shutdown,
            LbMsg::Client(req, reply) => LbEvent::Client(req, Box::new(reply)),
            LbMsg::Tick(epoch) => LbEvent::Tick(epoch),
            LbMsg::Resp { suboram, epoch, sealed } => {
                let batch = self.resp_links[suboram]
                    .open(&sealed, self.value_len)
                    .expect("response link failure");
                LbEvent::SubResponse { suboram, epoch, batch }
            }
            LbMsg::SubFail { suboram, epoch } => LbEvent::SubFailed { suboram, epoch },
            LbMsg::Reshard { cmd, reply } => LbEvent::Reshard { cmd, reply },
        }
    }

    fn seal_and_send(&mut self, suboram: usize, epoch: u64, generation: u64, batch: &[Request]) {
        let sealed = self.links[suboram].seal(batch).expect("batch link failure");
        self.sub_txs[suboram]
            .send(SubMsg::Batch { lb: self.lb_idx, epoch, generation, sealed })
            .expect("subORAM gone");
    }
}

impl LbTransport for ChannelLbTransport {
    fn recv(&mut self, deadline: Option<Instant>) -> RecvOutcome {
        let msg = match deadline {
            None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => self.rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match msg {
            Ok(msg) => RecvOutcome::Event(self.event(msg)),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn send_batch(&mut self, suboram: usize, epoch: u64, generation: u64, batch: &[Request]) {
        // Faults are decided before sealing (see module docs): a Drop leaves
        // the link sequence untouched, so the epoch loop's replay is a
        // byte-identical re-seal. Delay blocks inline, preserving the link's
        // strict ordering. Channels have no connection to Close — it drops.
        match self.injector.on_batch(self.lb_idx, suboram, epoch) {
            FaultAction::Deliver => self.seal_and_send(suboram, epoch, generation, batch),
            FaultAction::Drop | FaultAction::Close => {}
            FaultAction::Duplicate => {
                self.seal_and_send(suboram, epoch, generation, batch);
                self.seal_and_send(suboram, epoch, generation, batch);
            }
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.seal_and_send(suboram, epoch, generation, batch);
            }
        }
    }
}

/// Channel-backed transport for one subORAM thread.
struct ChannelSubTransport {
    rx: Receiver<SubMsg>,
    lb_txs: Vec<Sender<LbMsg>>,
    links: Vec<Link>,
    resp_links: Vec<Link>,
    sub_idx: usize,
    value_len: usize,
    injector: Arc<dyn FaultInjector>,
}

impl ChannelSubTransport {
    fn seal_and_send(&mut self, lb: usize, epoch: u64, batch: &[Request]) {
        let sealed = self.resp_links[lb].seal(batch).expect("response link failure");
        self.lb_txs[lb]
            .send(LbMsg::Resp { suboram: self.sub_idx, epoch, sealed })
            .expect("balancer gone");
    }
}

impl SubTransport for ChannelSubTransport {
    fn recv(&mut self) -> Option<SubEvent> {
        Some(match self.rx.recv().ok()? {
            SubMsg::Shutdown => SubEvent::Shutdown,
            SubMsg::Batch { lb, epoch, generation, sealed } => {
                let batch =
                    self.links[lb].open(&sealed, self.value_len).expect("batch link failure");
                SubEvent::Batch { lb, epoch, generation, batch }
            }
            SubMsg::Reshard { cmd, reply } => SubEvent::Reshard { cmd, reply },
        })
    }

    fn send_response(&mut self, lb: usize, epoch: u64, batch: &[Request]) {
        match self.injector.on_response(lb, self.sub_idx, epoch) {
            FaultAction::Deliver => self.seal_and_send(lb, epoch, batch),
            FaultAction::Drop | FaultAction::Close => {}
            FaultAction::Duplicate => {
                self.seal_and_send(lb, epoch, batch);
                self.seal_and_send(lb, epoch, batch);
            }
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.seal_and_send(lb, epoch, batch);
            }
        }
    }

    fn send_error(&mut self, lb: usize, epoch: u64) {
        // The NACK crosses the same lossy network as responses, so the
        // injector gets a say; a dropped NACK just means the balancer's
        // deadline degrades the epoch later. Duplicates are harmless: the
        // second notice arrives after the epoch resolved and is ignored.
        let send = |me: &Self| {
            let _ = me.lb_txs[lb].send(LbMsg::SubFail { suboram: me.sub_idx, epoch });
        };
        match self.injector.on_response(lb, self.sub_idx, epoch) {
            FaultAction::Deliver => send(self),
            FaultAction::Drop | FaultAction::Close => {}
            FaultAction::Duplicate => {
                send(self);
                send(self);
            }
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                send(self);
            }
        }
    }
}

/// Handle for submitting requests to the cluster.
#[derive(Clone)]
pub struct ClientHandle {
    lb_senders: Vec<Sender<LbMsg>>,
    value_len: usize,
    next: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ClientHandle {
    fn pick_lb(&self) -> &Sender<LbMsg> {
        // Clients choose a balancer uniformly (here: round-robin over the
        // shared counter, which load-balances identically).
        let i = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as usize;
        &self.lb_senders[i % self.lb_senders.len()]
    }

    /// Submits a read and blocks until the epoch containing it commits.
    ///
    /// Panics if the epoch degrades; use [`ClientHandle::try_read`] to
    /// observe [`Unavailable`] as a value.
    pub fn read(&self, id: u64) -> Vec<u8> {
        self.try_read(id).expect("epoch degraded").value
    }

    /// Submits a write and blocks for its commit; returns the pre-write value.
    ///
    /// Panics if the epoch degrades; use [`ClientHandle::try_write`] to
    /// observe [`Unavailable`] as a value.
    pub fn write(&self, id: u64, payload: &[u8]) -> Vec<u8> {
        self.try_write(id, payload).expect("epoch degraded").value
    }

    /// Blocking read returning the typed epoch-failure instead of panicking.
    pub fn try_read(&self, id: u64) -> Result<Response, Unavailable> {
        self.read_async(id).recv().expect("cluster shut down")
    }

    /// Blocking write returning the typed epoch-failure instead of
    /// panicking. An `Err` is *indeterminate* for writes: the epoch may have
    /// partially executed, so the write may or may not have been applied
    /// (at-least-once on retry — see DESIGN.md's failure model).
    pub fn try_write(&self, id: u64, payload: &[u8]) -> Result<Response, Unavailable> {
        self.write_async(id, payload).recv().expect("cluster shut down")
    }

    /// Non-blocking read: returns the reply channel. The reply is the
    /// matched response, or [`Unavailable`] if the epoch degraded.
    pub fn read_async(&self, id: u64) -> Receiver<ClientReply> {
        let (tx, rx) = channel();
        let req = Request::read(id, self.value_len, 0, 0);
        self.pick_lb().send(LbMsg::Client(req, tx)).expect("cluster shut down");
        rx
    }

    /// Non-blocking write.
    pub fn write_async(&self, id: u64, payload: &[u8]) -> Receiver<ClientReply> {
        let (tx, rx) = channel();
        let req = Request::write(id, payload, self.value_len, 0, 0);
        self.pick_lb().send(LbMsg::Client(req, tx)).expect("cluster shut down");
        rx
    }
}

/// The running cluster.
pub struct InProcessCluster {
    lb_senders: Vec<Sender<LbMsg>>,
    sub_senders: Vec<Sender<SubMsg>>,
    threads: Vec<JoinHandle<()>>,
    ticker_stop: Option<Sender<()>>,
    ticker: Option<JoinHandle<()>>,
    epoch: u64,
    value_len: usize,
    /// The deployment-wide partition key, kept so the reshard driver can
    /// re-partition exported objects at a new subORAM count.
    shared_key: Key256,
    /// Objects the cluster stores (a reshard's export union must match).
    num_objects: u64,
    /// SubORAMs currently holding data (≤ the provisioned fleet size).
    active_suborams: usize,
    /// Layout generation (0 until a reshard ever commits).
    generation: u64,
}

impl InProcessCluster {
    /// Boots the cluster: `L` balancer threads, `S` subORAM threads, sealed
    /// links between every pair.
    pub fn start(config: SnoopyConfig, objects: Vec<StoredObject>, seed: u64) -> InProcessCluster {
        InProcessCluster::start_with_faults(
            config,
            objects,
            seed,
            EpochFaultPolicy::wait_forever(),
            Arc::new(NoFaults),
        )
    }

    /// Boots the cluster with an [`EpochFaultPolicy`] on every balancer and
    /// a [`FaultInjector`] consulted (pre-seal) on every link — the chaos
    /// harness's entry point. `start` is this with
    /// [`EpochFaultPolicy::wait_forever`] and no faults.
    pub fn start_with_faults(
        config: SnoopyConfig,
        objects: Vec<StoredObject>,
        seed: u64,
        policy: EpochFaultPolicy,
        injector: Arc<dyn FaultInjector>,
    ) -> InProcessCluster {
        let l = config.num_load_balancers;
        let s = config.num_suborams;
        // Data is partitioned over the *active* prefix of the fleet; the
        // rest boot as empty spares the reshard protocol can grow into
        // without changing the link topology (all l×s links exist from
        // boot, so growing is a routing flip, not a re-keying).
        let active_s = config.initial_active();
        let mut prg = Prg::from_seed(seed);
        let shared_key = Key256::random(&mut prg);
        let num_objects = objects.len() as u64;
        let mut parts = partition_objects(objects, &shared_key, active_s);
        parts.resize_with(s, Vec::new);

        // Channels: one mailbox per machine.
        let (lb_txs, lb_rxs): (Vec<_>, Vec<_>) = (0..l).map(|_| channel::<LbMsg>()).unzip();
        let (sub_txs, sub_rxs): (Vec<_>, Vec<_>) = (0..s).map(|_| channel::<SubMsg>()).unzip();

        // Per-(lb, suboram) link keys, one for each direction.
        let mut lb_links: Vec<Vec<Link>> = Vec::with_capacity(l);
        let mut sub_links: Vec<Vec<Link>> = (0..s).map(|_| Vec::new()).collect();
        let mut resp_links_lb: Vec<Vec<Link>> = Vec::with_capacity(l);
        let mut resp_links_sub: Vec<Vec<Link>> = (0..s).map(|_| Vec::new()).collect();
        for lb in 0..l {
            let mut row = Vec::with_capacity(s);
            let mut resp_row = Vec::with_capacity(s);
            for sub in 0..s {
                let chan = (lb * s + sub) as u32;
                let (a, b) = Link::pair(Key256::random(&mut prg), chan);
                row.push(a);
                sub_links[sub].push(b);
                let (c, d) = Link::pair(Key256::random(&mut prg), chan | 0x8000_0000);
                resp_row.push(c);
                resp_links_sub[sub].push(d);
            }
            lb_links.push(row);
            resp_links_lb.push(resp_row);
        }

        let mut threads = Vec::new();

        // SubORAM threads.
        for (sub_idx, ((rx, part), links)) in
            sub_rxs.into_iter().zip(parts).zip(sub_links).enumerate()
        {
            let resp_links = std::mem::take(&mut resp_links_sub[sub_idx]);
            let lb_txs = lb_txs.clone();
            let key = Key256::random(&mut prg);
            let value_len = config.value_len;
            let lambda = config.lambda;
            let storage = config.storage;
            let sub_threads = config.sub_threads;
            let injector = injector.clone();
            threads.push(std::thread::spawn(move || {
                let oram =
                    snoopy_store::build_suboram(storage, part, value_len, key.clone(), lambda);
                let mut node =
                    SubOramNode::new(oram, l).with_index(sub_idx).with_threads(sub_threads);
                node.set_layout(0, active_s);
                let mut transport = ChannelSubTransport {
                    rx,
                    lb_txs,
                    links,
                    resp_links,
                    sub_idx,
                    value_len,
                    injector,
                };
                // Staged partitions are built in process and never persisted.
                let staging = SubStaging::new(key, move |_, objects, key| {
                    Ok(snoopy_store::build_suboram(storage, objects, value_len, key, lambda))
                });
                // Commit dirty storage generations each epoch; a failed
                // commit poisons the subORAM, which already surfaces on the
                // wire as per-epoch refusals (channel clusters make no
                // durability promise beyond that).
                run_suboram(&mut transport, &mut node, staging, |node, epoch| {
                    let _ = node.oram_mut().commit_storage(epoch);
                });
            }));
        }

        // Load-balancer threads.
        for (lb_idx, (rx, links)) in lb_rxs.into_iter().zip(lb_links).enumerate() {
            let resp_links = std::mem::take(&mut resp_links_lb[lb_idx]);
            let sub_txs = sub_txs.clone();
            let shared_key = shared_key.clone();
            let value_len = config.value_len;
            let lambda = config.lambda;
            let lb_threads = config.lb_threads;
            let policy = policy.clone();
            let injector = injector.clone();
            threads.push(std::thread::spawn(move || {
                let mut transport = ChannelLbTransport {
                    rx,
                    sub_txs,
                    links,
                    resp_links,
                    lb_idx,
                    value_len,
                    injector,
                };
                // Balancers are stateless (§4.3): a reshard commit rebuilds
                // the routing table from the same shared key at the new S.
                let control = ReshardControl {
                    rebuild: Box::new(move |s| {
                        LoadBalancer::new(&shared_key, s, value_len, lambda)
                            .with_threads(lb_threads)
                    }),
                    initial_generation: 0,
                    initial_active: active_s,
                };
                run_load_balancer(&mut transport, policy, control);
            }));
        }

        InProcessCluster {
            lb_senders: lb_txs,
            sub_senders: sub_txs,
            threads,
            ticker_stop: None,
            ticker: None,
            epoch: 0,
            value_len: config.value_len,
            shared_key,
            num_objects,
            active_suborams: active_s,
            generation: 0,
        }
    }

    /// A client handle (cheaply cloneable).
    pub fn client(&self) -> ClientHandle {
        ClientHandle {
            lb_senders: self.lb_senders.clone(),
            value_len: self.value_len,
            next: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// The metrics registry this cluster's threads record into.
    ///
    /// The in-process cluster shares the process-wide
    /// [`snoopy_telemetry::metrics::global`] registry — the same one
    /// `snoopyd` daemons expose over their admin port — so tests and
    /// embedders scrape identical series either way. Multiple clusters in
    /// one process therefore aggregate; counters are monotone across them.
    pub fn metrics(&self) -> &'static snoopy_telemetry::MetricsRegistry {
        snoopy_telemetry::metrics::global()
    }

    /// SubORAMs currently holding data (≤ the provisioned fleet size).
    pub fn active_suborams(&self) -> usize {
        self.active_suborams
    }

    /// The layout generation (0 until a reshard ever commits).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Reshards the fleet to `new_s` active subORAMs at the next epoch
    /// boundary, running [`drive_reshard`] over this cluster's mailboxes.
    /// Buffered requests commit in exactly one of the two layouts, and any
    /// failure before the first subORAM commit aborts back to the old one.
    pub fn reshard(&mut self, new_s: usize) -> Result<(), String> {
        let opts = ReshardOptions::default();
        let mut fleet = ChannelFleet { timeout: opts.rpc_timeout, ticked: false, cluster: self };
        let report = drive_reshard(&mut fleet, new_s, opts)?;
        self.active_suborams = report.new_s;
        self.generation = report.generation;
        Ok(())
    }

    /// Manually closes the current epoch: all balancers batch what they
    /// have. Balancer `i` gets the composite epoch id `wall * L + i` — its
    /// own residue class, so ids are globally unique and `id % L` names the
    /// owner (see `transport`'s module docs).
    pub fn tick(&mut self) {
        let wall = self.epoch;
        self.epoch += 1;
        let l = self.lb_senders.len() as u64;
        for (i, tx) in self.lb_senders.iter().enumerate() {
            let _ = tx.send(LbMsg::Tick(wall * l + i as u64));
        }
    }

    /// Starts a background ticker closing epochs every `interval`.
    pub fn start_ticker(&mut self, interval: Duration) {
        let (stop_tx, stop_rx) = channel::<()>();
        let lb_senders = self.lb_senders.clone();
        let mut wall = self.epoch;
        // Reserve a large epoch range for the ticker so manual ticks (not
        // recommended while a ticker runs) don't collide.
        self.epoch += 1 << 32;
        self.ticker_stop = Some(stop_tx);
        self.ticker = Some(std::thread::spawn(move || loop {
            match stop_rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    let l = lb_senders.len() as u64;
                    for (i, tx) in lb_senders.iter().enumerate() {
                        let _ = tx.send(LbMsg::Tick(wall * l + i as u64));
                    }
                    wall += 1;
                }
            }
        }));
    }

    /// Shuts the cluster down, joining all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(stop) = self.ticker_stop.take() {
            let _ = stop.send(());
        }
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        for tx in &self.lb_senders {
            let _ = tx.send(LbMsg::Shutdown);
        }
        for tx in &self.sub_senders {
            let _ = tx.send(SubMsg::Shutdown);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for InProcessCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The channel plane's [`ReshardFleet`]: each reshard RPC is a mailbox
/// message carrying a reply channel.
struct ChannelFleet<'a> {
    cluster: &'a mut InProcessCluster,
    timeout: Duration,
    /// Whether this run already closed the boundary epoch itself.
    ticked: bool,
}

impl ReshardFleet for ChannelFleet<'_> {
    fn shape(&self) -> FleetShape {
        FleetShape {
            balancers: self.cluster.lb_senders.len(),
            suborams: self.cluster.sub_senders.len(),
            num_objects: self.cluster.num_objects,
            partition_key: self.cluster.shared_key.clone(),
        }
    }

    fn lb(&mut self, i: usize, cmd: ReshardCmd) -> Result<ReshardStatus, RpcFailure> {
        let (tx, rx) = channel();
        let gone = |_| RpcFailure::Indeterminate(format!("balancer {i} gone"));
        self.cluster.lb_senders[i].send(LbMsg::Reshard { cmd, reply: tx }).map_err(gone)?;
        rx.recv_timeout(self.timeout).map_err(|e| RpcFailure::Indeterminate(e.to_string()))
    }

    fn sub(&mut self, i: usize, cmd: SubReshardCmd) -> Result<SubReshardReply, RpcFailure> {
        let (tx, rx) = channel();
        let gone = |_| RpcFailure::Indeterminate(format!("subORAM {i} gone"));
        self.cluster.sub_senders[i].send(SubMsg::Reshard { cmd, reply: tx }).map_err(gone)?;
        match rx.recv_timeout(self.timeout) {
            Ok(reply) => reply.map_err(RpcFailure::Refused),
            Err(e) => Err(RpcFailure::Indeterminate(e.to_string())),
        }
    }

    fn await_boundary(&mut self) {
        // Close the boundary epoch once, unless a ticker already does; the
        // balancers then pause as soon as they process it.
        if self.cluster.ticker.is_none() && !self.ticked {
            self.cluster.tick();
            self.ticked = true;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::matrix::each_cell;
    use crate::reshard::ReshardPhase;

    const VLEN: usize = 32;

    fn objects(n: u64) -> Vec<StoredObject> {
        (0..n).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
    }

    fn payload(bytes: &[u8]) -> Vec<u8> {
        let mut v = bytes.to_vec();
        v.resize(VLEN, 0);
        v
    }

    #[test]
    fn read_after_manual_tick() {
        each_cell(|cell| {
            let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
            let mut cluster = InProcessCluster::start(cfg, objects(100), 1);
            let client = cluster.client();
            let rx = client.read_async(42);
            cluster.tick();
            let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(resp.value, payload(&42u64.to_le_bytes()));
            cluster.shutdown();
        });
    }

    #[test]
    fn write_then_read_across_epochs() {
        each_cell(|cell| {
            let cfg = cell.apply(SnoopyConfig::with_machines(2, 2).value_len(VLEN));
            let mut cluster = InProcessCluster::start(cfg, objects(50), 2);
            let client = cluster.client();
            let w = client.write_async(7, &[0xAB; 4]);
            cluster.tick();
            w.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            let r = client.read_async(7);
            cluster.tick();
            let resp = r.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(resp.value, payload(&[0xAB; 4]));
            cluster.shutdown();
        });
    }

    #[test]
    fn ticker_drives_blocking_clients() {
        each_cell(|cell| {
            let cfg = cell.apply(SnoopyConfig::with_machines(2, 3).value_len(VLEN));
            let mut cluster = InProcessCluster::start(cfg, objects(200), 3);
            cluster.start_ticker(Duration::from_millis(5));
            let client = cluster.client();
            let pre = client.write(9, &[1, 2, 3]);
            assert_eq!(pre, payload(&9u64.to_le_bytes()));
            assert_eq!(client.read(9), payload(&[1, 2, 3]));
            // Concurrent clients.
            let mut rxs = Vec::new();
            for i in 0..20u64 {
                rxs.push((i, client.read_async(i)));
            }
            for (i, rx) in rxs {
                let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
                let want = if i == 9 { payload(&[1, 2, 3]) } else { payload(&i.to_le_bytes()) };
                assert_eq!(resp.value, want, "id {i}");
            }
            cluster.shutdown();
        });
    }

    #[test]
    fn empty_epochs_do_not_wedge() {
        each_cell(|cell| {
            let cfg = cell.apply(SnoopyConfig::with_machines(2, 2).value_len(VLEN));
            let mut cluster = InProcessCluster::start(cfg, objects(10), 4);
            for _ in 0..5 {
                cluster.tick();
            }
            let client = cluster.client();
            let rx = client.read_async(3);
            cluster.tick();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap().value,
                payload(&3u64.to_le_bytes())
            );
            cluster.shutdown();
        });
    }

    /// Drops every batch to subORAM 1 forever: with a deadline policy the
    /// epoch must degrade and every request in it must fail typed, not hang.
    struct DropToSub1;

    impl FaultInjector for DropToSub1 {
        fn on_batch(&self, _lb: usize, suboram: usize, _epoch: u64) -> FaultAction {
            if suboram == 1 {
                FaultAction::Drop
            } else {
                FaultAction::Deliver
            }
        }

        fn on_response(&self, _lb: usize, _suboram: usize, _epoch: u64) -> FaultAction {
            FaultAction::Deliver
        }
    }

    #[test]
    fn reshard_grow_and_shrink_preserves_all_data() {
        each_cell(|cell| {
            // Provision 4 subORAMs but boot with data on only 2: the other two
            // are spares the grow flips into service.
            let cfg =
                cell.apply(SnoopyConfig::with_machines(2, 4).active_suborams(2).value_len(VLEN));
            let mut cluster = InProcessCluster::start(cfg, objects(60), 6);
            assert_eq!(cluster.active_suborams(), 2);
            let client = cluster.client();
            // Acknowledge a write at the old layout.
            let w = client.write_async(7, &[0xCD; 4]);
            cluster.tick();
            w.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            // Buffer a request across the reshard boundary: it must commit at
            // the new layout, not get lost or fail.
            let inflight = client.read_async(7);
            cluster.reshard(4).expect("grow 2->4");
            assert_eq!(cluster.active_suborams(), 4);
            assert_eq!(cluster.generation(), 1);
            let resp = inflight.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(resp.value, payload(&[0xCD; 4]), "acked write visible across the grow");
            // Every object is still readable after the grow.
            let rxs: Vec<_> = (0..60u64).step_by(7).map(|i| (i, client.read_async(i))).collect();
            cluster.tick();
            cluster.tick();
            for (i, rx) in rxs {
                let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
                let want = if i == 7 { payload(&[0xCD; 4]) } else { payload(&i.to_le_bytes()) };
                assert_eq!(resp.value, want, "id {i} after grow");
            }
            // Shrink all the way down to one subORAM and read again.
            cluster.reshard(1).expect("shrink 4->1");
            assert_eq!(cluster.active_suborams(), 1);
            assert_eq!(cluster.generation(), 2);
            let rxs: Vec<_> = (0..60u64).step_by(11).map(|i| (i, client.read_async(i))).collect();
            cluster.tick();
            cluster.tick();
            for (i, rx) in rxs {
                let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
                let want = if i == 7 { payload(&[0xCD; 4]) } else { payload(&i.to_le_bytes()) };
                assert_eq!(resp.value, want, "id {i} after shrink");
            }
            // Out-of-range targets are refused without touching the cluster.
            assert!(cluster.reshard(0).is_err());
            assert!(cluster.reshard(5).is_err());
            assert_eq!(cluster.active_suborams(), 1);
            cluster.shutdown();
        });
    }

    #[test]
    fn stale_install_generation_is_refused() {
        each_cell(|cell| {
            let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
            let mut cluster = InProcessCluster::start(cfg, objects(20), 7);
            cluster.reshard(1).expect("shrink 2->1");
            let mut fleet = ChannelFleet {
                timeout: Duration::from_secs(30),
                ticked: false,
                cluster: &mut cluster,
            };
            // Generation 1 is live, so staging generation 1 (or 0) is stale.
            for generation in [0, 1] {
                let stale = SubReshardCmd::Install { generation, new_s: 2, objects: Vec::new() };
                let reply = fleet.sub(0, stale);
                assert!(
                    matches!(&reply, Err(RpcFailure::Refused(r)) if r.contains("stale")),
                    "{reply:?}"
                );
            }
            // Nothing was staged: the node still serves generation 1, idle.
            let idle = ReshardStatus { generation: 1, active_s: 1, phase: ReshardPhase::Idle };
            let reply = fleet.sub(0, SubReshardCmd::Status);
            assert!(matches!(reply, Ok(SubReshardReply::Status(st)) if st == idle), "{reply:?}");
            cluster.shutdown();
        });
    }

    #[test]
    fn batch_overflow_fails_the_epoch_and_the_balancer_keeps_serving() {
        each_cell(|cell| {
            // λ = 0 sizes each batch at exactly ⌈R/S⌉: two distinct ids on one
            // subORAM overflow its single slot with certainty.
            let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN).lambda(0));
            let mut cluster = InProcessCluster::start(cfg, objects(100), 6);
            let balancer = LoadBalancer::new(&cluster.shared_key, 2, VLEN, 0);
            let a = 0u64;
            let b = (1..100).find(|&id| balancer.suboram_of(id) == balancer.suboram_of(a)).unwrap();
            let client = cluster.client();
            let rxs = [client.read_async(a), client.read_async(b)];
            cluster.tick();
            for rx in rxs {
                let err = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("an overflowing epoch must answer, not hang")
                    .expect_err("every request in an overflowing epoch fails");
                assert!(err.failed_suborams.is_empty(), "no subORAM was at fault");
                assert!(!err.to_string().contains("deadline"), "{err}");
            }
            // The next epoch fits (one request, one slot) and commits.
            let rx = client.read_async(b);
            cluster.tick();
            let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(resp.value, payload(&b.to_le_bytes()));
            cluster.shutdown();
        });
    }

    #[test]
    fn partitioned_suboram_degrades_epoch_with_typed_error() {
        each_cell(|cell| {
            let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
            let policy = EpochFaultPolicy::with_deadline(Duration::from_millis(50), 1);
            let mut cluster = InProcessCluster::start_with_faults(
                cfg,
                objects(40),
                5,
                policy,
                Arc::new(DropToSub1),
            );
            let client = cluster.client();
            let rxs: Vec<_> = (0..8u64).map(|i| client.read_async(i)).collect();
            cluster.tick();
            let epoch_failures: Vec<Unavailable> = rxs
                .into_iter()
                .map(|rx| {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("degraded epoch must answer, not hang")
                        .expect_err("all requests in a degraded epoch fail")
                })
                .collect();
            // Every request in the epoch fails identically (wholesale failure —
            // per-request failures would leak the request→subORAM mapping).
            for u in &epoch_failures {
                assert_eq!(u.failed_suborams, vec![1]);
                assert_eq!(u.epoch, epoch_failures[0].epoch);
            }
            cluster.shutdown();
        });
    }
}
