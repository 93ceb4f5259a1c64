//! The unified client API: [`SnoopyClient`] + builder.
//!
//! One facade serves both deployment planes. A client built with
//! [`SnoopyClientBuilder::connect_tcp`] speaks the sealed framed-AEAD
//! session protocol to a `snoopyd` balancer
//! ([`SnoopyClientBuilder::connect_tcp_multi`] does the same across a
//! cluster's full balancer set, with health-probed sticky failover); one
//! built with [`SnoopyClientBuilder::connect_cluster`] drives an
//! [`InProcessCluster`](snoopy_core::InProcessCluster) through its
//! [`ClientHandle`]. Both expose the same reads/writes, fail with the same
//! typed [`NetError`], and share the facade-level retry loop (classified by
//! [`NetError::class`]; only TCP transports can actually reconnect).

use crate::error::{ErrorClass, NetError};
use crate::frame::{read_frame, write_frame};
use crate::proto::{self, tag, Hello, Role};
use snoopy_core::link::Link;
use snoopy_core::{ClientHandle, RetryPolicy};
use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, Response, REAL_ID_LIMIT};
use snoopy_telemetry::{metrics, Public};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// One client operation, as seen by a [`SessionTransport`]. Borrowed so the
/// facade's retry loop can re-issue the same operation without cloning the
/// payload per attempt.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a> {
    /// Fetch the object with this id.
    Read {
        /// Object id.
        id: u64,
    },
    /// Store `payload` under this id (returns the pre-write value).
    Write {
        /// Object id.
        id: u64,
        /// New value; must be exactly the deployment's `value_len`.
        payload: &'a [u8],
    },
}

/// Where a [`SnoopyClient`] sends its operations. Implementations own
/// connection state; the facade owns sequencing and the retry loop.
pub trait SessionTransport: Send {
    /// Executes one operation, blocking until the epoch containing it
    /// commits (or fails). `seq` is the facade-assigned request sequence
    /// number; transports without wire-level matching may ignore it.
    fn execute(&mut self, op: Op<'_>, seq: u64) -> Result<Response, NetError>;

    /// Re-establishes the connection after a non-fatal failure. Transports
    /// with nothing to re-establish (the channel plane) succeed trivially.
    /// Multi-endpoint transports may come back connected to a *different*
    /// balancer (that is their failover path for timeouts and dead
    /// connections).
    fn reconnect(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    /// Tries to reposition to a *different* endpoint after a typed
    /// [`NetError::Unavailable`]: one balancer's degraded epoch (it cannot
    /// reach some subORAMs) does not mean another balancer's epochs degrade
    /// too. Returns `true` only if the transport actually moved, so the
    /// facade retries exactly when the retry would hit different fault
    /// domains — a single-endpoint transport keeps `Unavailable` fatal.
    fn fail_over(&mut self) -> bool {
        false
    }

    /// The composite epoch id the most recent successful [`Self::execute`]
    /// committed in, if the transport learns it (the TCP plane reads it off
    /// the response frame). `epoch / L` is the wall epoch and `epoch % L`
    /// the serving balancer — the paper's linearization coordinates.
    fn last_commit(&self) -> Option<u64> {
        None
    }
}

/// Builder for a [`SnoopyClient`].
#[derive(Clone, Debug)]
pub struct SnoopyClientBuilder {
    value_len: usize,
    read_timeout: Duration,
    retry: RetryPolicy,
}

impl SnoopyClientBuilder {
    /// Replaces the per-attempt socket read deadline (TCP only; the channel
    /// plane resolves every request in-process). Default 10 s.
    pub fn read_timeout(mut self, timeout: Duration) -> SnoopyClientBuilder {
        self.read_timeout = timeout;
        self
    }

    /// Replaces the retry schedule for dials and request roundtrips.
    /// Default [`RetryPolicy::client_default`].
    pub fn retry(mut self, retry: RetryPolicy) -> SnoopyClientBuilder {
        self.retry = retry;
        self
    }

    /// Dials the `snoopyd` balancer at `addr` (index `lb_index` in the
    /// manifest); `deploy` is the deployment key
    /// ([`proto::deployment_key`] of the manifest seed). The dial runs
    /// under the builder's retry schedule.
    pub fn connect_tcp(
        self,
        addr: &str,
        lb_index: usize,
        deploy: &Key256,
    ) -> Result<SnoopyClient, NetError> {
        let endpoint = Endpoint { addr: addr.to_string(), lb_index };
        let transport = TcpTransport::dial(vec![endpoint], deploy, &self)?;
        Ok(self.assemble(Box::new(transport)))
    }

    /// Dials a multi-balancer cluster: `addrs` are the `loadbalancer`
    /// manifest entries **in manifest order** (position = balancer index,
    /// which keys the per-balancer session link derivation). The client
    /// health-probes the endpoints in order, sticks to the first that
    /// accepts a session (stickiness keeps retried requests hitting the
    /// balancer whose reply cache has seen them), and fails over to the
    /// next live balancer when the current one times out, drops the
    /// connection, or reports its epoch `Unavailable`.
    ///
    /// Endpoint choice is public: which balancer a client talks to is
    /// visible on the wire anyway, so failover leaks nothing about request
    /// contents or the request→subORAM mapping.
    pub fn connect_tcp_multi(
        self,
        addrs: &[String],
        deploy: &Key256,
    ) -> Result<SnoopyClient, NetError> {
        let transport = TcpTransport::dial(manifest_endpoints(addrs), deploy, &self)?;
        Ok(self.assemble(Box::new(transport)))
    }

    /// Wraps an in-process cluster's [`ClientHandle`]: same API, no
    /// sockets. Epoch failures surface as [`NetError::Unavailable`] exactly
    /// like the TCP plane's failure frames.
    pub fn connect_cluster(self, handle: ClientHandle) -> SnoopyClient {
        self.assemble(Box::new(ClusterTransport { handle }))
    }

    /// Installs a custom transport (tests, future planes).
    pub fn connect_transport(self, transport: Box<dyn SessionTransport>) -> SnoopyClient {
        self.assemble(transport)
    }

    fn assemble(self, transport: Box<dyn SessionTransport>) -> SnoopyClient {
        SnoopyClient { transport, retry: self.retry, value_len: self.value_len, seq: 0 }
    }
}

/// A client session with a Snoopy deployment, over any transport.
pub struct SnoopyClient {
    transport: Box<dyn SessionTransport>,
    retry: RetryPolicy,
    value_len: usize,
    seq: u64,
}

impl SnoopyClient {
    /// Starts a builder. `value_len` is the deployment's public object
    /// size.
    pub fn builder(value_len: usize) -> SnoopyClientBuilder {
        SnoopyClientBuilder {
            value_len,
            read_timeout: Duration::from_secs(10),
            retry: RetryPolicy::client_default(),
        }
    }

    /// The deployment's public object size.
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Reads object `id`, blocking until the epoch containing the request
    /// commits. Non-fatal failures (timeout, disconnect) are retried under
    /// the builder's [`RetryPolicy`], reconnecting as needed.
    pub fn read(&mut self, id: u64) -> Result<Vec<u8>, NetError> {
        self.call(Op::Read { id }).map(|resp| resp.value)
    }

    /// Writes object `id`; returns the pre-write value (Snoopy's write
    /// semantics). Retried writes are at-least-once: if the first attempt's
    /// epoch committed but the response was lost, the retry re-executes the
    /// write in a later epoch and the returned pre-write value reflects the
    /// first write.
    pub fn write(&mut self, id: u64, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self.call(Op::Write { id, payload }).map(|resp| resp.value)
    }

    /// [`Self::read`], also returning the composite epoch id the read
    /// committed in when the transport exposes it (TCP sessions do; the
    /// channel plane returns `None`). The id is already wire-observable —
    /// balancers stamp it on every batch — so exposing it leaks nothing new.
    pub fn read_stamped(&mut self, id: u64) -> Result<(Vec<u8>, Option<u64>), NetError> {
        let value = self.call(Op::Read { id })?.value;
        Ok((value, self.transport.last_commit()))
    }

    /// [`Self::write`] with the commit epoch id, like [`Self::read_stamped`].
    pub fn write_stamped(
        &mut self,
        id: u64,
        payload: &[u8],
    ) -> Result<(Vec<u8>, Option<u64>), NetError> {
        let value = self.call(Op::Write { id, payload })?.value;
        Ok((value, self.transport.last_commit()))
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The facade-level retry loop: classify, back off, reconnect, re-issue.
    /// Fatal errors (typed `Unavailable`, protocol violations) return
    /// immediately — with one carve-out: an `Unavailable` is retried when the
    /// transport [`SessionTransport::fail_over`]s to a *different* balancer,
    /// because another balancer's epochs run through independent fault
    /// domains. Single-endpoint transports never fail over, so their fatal
    /// semantics are unchanged.
    fn call(&mut self, op: Op<'_>) -> Result<Response, NetError> {
        let (Op::Read { id } | Op::Write { id, .. }) = op;
        if id >= REAL_ID_LIMIT {
            return Err(NetError::ReservedId { id });
        }
        let seq = self.next_seq();
        let policy = self.retry.clone();
        let mut attempt = 0u32;
        loop {
            let err = match self.transport.execute(op, seq) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let next = attempt + 1;
            if err.class() == ErrorClass::Fatal {
                let repositioned = matches!(err, NetError::Unavailable(_))
                    && policy.allows(next)
                    && self.transport.fail_over();
                if !repositioned {
                    return Err(err);
                }
                attempt = next;
                count_retry();
                continue;
            }
            if !policy.allows(next) {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(next));
            attempt = next;
            count_retry();
            if let Err(redial) = self.transport.reconnect() {
                // Keep retrying through dial failures until attempts run out.
                if !policy.allows(attempt + 1) {
                    return Err(redial);
                }
            }
        }
    }
}

/// How long a balancer endpoint sits out after a failed dial before the
/// client probes it again. Short enough that a restarted balancer rejoins
/// the rotation within a few requests; long enough that a dead one is not
/// re-dialed on every operation.
const ENDPOINT_COOLDOWN: Duration = Duration::from_millis(500);

/// A balancer a [`TcpTransport`] may hold its session with.
struct Endpoint {
    addr: String,
    /// The balancer's position in the manifest, which keys its session links.
    lb_index: usize,
}

/// The manifest's `loadbalancer` entries, in manifest order, as endpoints.
fn manifest_endpoints(addrs: &[String]) -> Vec<Endpoint> {
    addrs
        .iter()
        .enumerate()
        .map(|(lb_index, addr)| Endpoint { addr: addr.clone(), lb_index })
        .collect()
}

/// The sealed framed-AEAD session transport to one or more `snoopyd`
/// balancers.
///
/// Holds one live session at a time (the *current* endpoint) plus the full
/// endpoint list. Reconnects prefer the current endpoint (reply cache
/// locality); if it cannot be re-dialed it is put on cooldown and the probe
/// rotates to the next balancer. [`SessionTransport::fail_over`]
/// deliberately skips the current endpoint first, because it is called when
/// the current balancer is up but its epochs are failing.
struct TcpTransport {
    endpoints: Vec<Endpoint>,
    cooldown_until: Vec<Option<std::time::Instant>>,
    current: usize,
    stream: TcpStream,
    req_link: Link,
    resp_link: Link,
    deploy: Key256,
    value_len: usize,
    read_timeout: Duration,
    last_epoch: Option<u64>,
}

impl TcpTransport {
    /// Dials the first endpoint, in list order, that accepts a session,
    /// under the builder's retry schedule.
    fn dial(
        endpoints: Vec<Endpoint>,
        deploy: &Key256,
        builder: &SnoopyClientBuilder,
    ) -> Result<TcpTransport, NetError> {
        if endpoints.is_empty() {
            return Err(NetError::protocol("empty balancer endpoint set"));
        }
        let (current, stream, req_link, resp_link) = builder
            .retry
            .run(|attempt| {
                if attempt > 0 {
                    count_retry();
                }
                let mut cooldown_until = vec![None; endpoints.len()];
                probe_endpoints(&endpoints, &mut cooldown_until, 0, deploy, builder.read_timeout)
            })
            .map_err(NetError::from_io)?;
        Ok(TcpTransport {
            cooldown_until: vec![None; endpoints.len()],
            endpoints,
            current,
            stream,
            req_link,
            resp_link,
            deploy: deploy.clone(),
            value_len: builder.value_len,
            read_timeout: builder.read_timeout,
            last_epoch: None,
        })
    }

    /// Installs a probed session as the current one (new session id → new
    /// link keys; the old session's sequence numbers die with it).
    fn install(&mut self, (index, stream, req_link, resp_link): (usize, TcpStream, Link, Link)) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.stream = stream;
        self.req_link = req_link;
        self.resp_link = resp_link;
        self.current = index;
    }

    /// Probes the endpoints from `start`, wrapping, for one that accepts a
    /// session.
    fn probe(&mut self, start: usize) -> io::Result<(usize, TcpStream, Link, Link)> {
        probe_endpoints(
            &self.endpoints,
            &mut self.cooldown_until,
            start,
            &self.deploy,
            self.read_timeout,
        )
    }
}

impl SessionTransport for TcpTransport {
    fn execute(&mut self, op: Op<'_>, seq: u64) -> Result<Response, NetError> {
        let req = match op {
            Op::Read { id } => Request::read(id, self.value_len, 0, seq),
            Op::Write { id, payload } => Request::write(id, payload, self.value_len, 0, seq),
        };
        let sealed =
            self.req_link.seal(&[req]).map_err(|_| NetError::protocol("request link failure"))?;
        write_frame(&mut self.stream, tag::CLIENT_REQ, &sealed.bytes)?;
        loop {
            let (t, body) = read_frame(&mut self.stream)?;
            match t {
                tag::CLIENT_RESP => {
                    let (epoch, sealed) = proto::decode_epoch_sealed(&body)
                        .ok_or_else(|| NetError::protocol("short CLIENT_RESP frame"))?;
                    let batch = self
                        .resp_link
                        .open_responses(&sealed, self.value_len)
                        .map_err(|_| NetError::protocol("response link failure"))?;
                    for resp in batch {
                        if resp.seq == seq {
                            self.last_epoch = Some(epoch);
                            return Ok(resp);
                        }
                        // A stale response for an abandoned earlier request.
                    }
                }
                tag::CLIENT_FAIL => {
                    let (fail_seq, err) = NetError::from_client_fail(&body)?;
                    if fail_seq == seq {
                        return Err(err);
                    }
                    // A stale failure for an abandoned earlier request.
                }
                _ => return Err(NetError::protocol("unexpected frame from balancer")),
            }
        }
    }

    /// Re-dials starting from the *current* endpoint (stickiness), rotating
    /// through the remaining balancers if it is down. This is the failover
    /// path for timeouts and dead connections: a SIGKILLed balancer refuses
    /// the re-dial, goes on cooldown, and the session lands on a survivor.
    fn reconnect(&mut self) -> Result<(), NetError> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let session = self.probe(self.current)?;
        self.install(session);
        Ok(())
    }

    /// Repositions to a different balancer after an `Unavailable`: the
    /// current balancer answered (it is alive) but its epoch degraded, so
    /// the probe starts at the *next* endpoint. Returns `false` — keeping
    /// the error fatal — when no other balancer accepts a session.
    fn fail_over(&mut self) -> bool {
        if self.endpoints.len() < 2 {
            return false;
        }
        let prev = self.current;
        self.cooldown_until[prev] = Some(std::time::Instant::now() + ENDPOINT_COOLDOWN);
        match self.probe((prev + 1) % self.endpoints.len()) {
            Ok(session) if session.0 != prev => {
                self.install(session);
                true
            }
            _ => false,
        }
    }

    fn last_commit(&self) -> Option<u64> {
        self.last_epoch
    }
}

/// Probes `endpoints[start], endpoints[start+1], …` (wrapping) for a
/// balancer that accepts a client session. Endpoints on cooldown are
/// skipped on the first pass; if *every* endpoint was cooling, a fallback
/// pass dials them anyway in least-recently-cooled order (ascending
/// cooldown expiry), so the all-cooling window neither busy-spins nor
/// hard-fails without a dial attempt, and the endpoint most likely to have
/// recovered is tried first.
/// A failed dial puts the endpoint on cooldown; a success clears it.
fn probe_endpoints(
    endpoints: &[Endpoint],
    cooldown_until: &mut [Option<std::time::Instant>],
    start: usize,
    deploy: &Key256,
    read_timeout: Duration,
) -> io::Result<(usize, TcpStream, Link, Link)> {
    let now = std::time::Instant::now();
    let mut last_err: Option<io::Error> = None;
    let mut attempted = false;
    for offset in 0..endpoints.len() {
        let index = (start + offset) % endpoints.len();
        if cooldown_until[index].is_some_and(|until| until > now) {
            continue;
        }
        attempted = true;
        match dial_session(&endpoints[index], deploy, read_timeout) {
            Ok((stream, req_link, resp_link)) => {
                cooldown_until[index] = None;
                return Ok((index, stream, req_link, resp_link));
            }
            Err(e) => {
                cooldown_until[index] = Some(now + ENDPOINT_COOLDOWN);
                last_err = Some(e);
            }
        }
    }
    if !attempted {
        // Every endpoint is on cooldown. Dialing nothing would strand the
        // client until a cooldown lapses, so fall back to dialing the
        // least-recently-cooled endpoint first (the one whose cooldown
        // expires soonest) rather than blind rotation order.
        for index in cooling_order(cooldown_until, start) {
            match dial_session(&endpoints[index], deploy, read_timeout) {
                Ok((stream, req_link, resp_link)) => {
                    cooldown_until[index] = None;
                    return Ok((index, stream, req_link, resp_link));
                }
                Err(e) => {
                    cooldown_until[index] = Some(now + ENDPOINT_COOLDOWN);
                    last_err = Some(e);
                }
            }
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no balancer reachable")))
}

/// Endpoint indices ordered by ascending cooldown expiry (least recently
/// cooled first); rotation order from `start` breaks ties, so the fallback
/// stays deterministic when several endpoints were cooled together.
fn cooling_order(cooldown_until: &[Option<std::time::Instant>], start: usize) -> Vec<usize> {
    let n = cooldown_until.len();
    let mut order: Vec<usize> = (0..n).map(|offset| (start + offset) % n).collect();
    order.sort_by_key(|&i| cooldown_until[i]);
    order
}

/// The in-process channel transport: delegates to [`ClientHandle`]. The
/// channel plane matches requests internally, so `seq` is unused, and there
/// is no connection to lose — every failure is a typed epoch failure.
struct ClusterTransport {
    handle: ClientHandle,
}

impl SessionTransport for ClusterTransport {
    fn execute(&mut self, op: Op<'_>, _seq: u64) -> Result<Response, NetError> {
        let result = match op {
            Op::Read { id } => self.handle.try_read(id),
            Op::Write { id, payload } => self.handle.try_write(id, payload),
        };
        result.map_err(NetError::Unavailable)
    }
}

/// Dials `endpoint`, runs the client hello, and derives the session links.
fn dial_session(
    endpoint: &Endpoint,
    deploy: &Key256,
    read_timeout: Duration,
) -> io::Result<(TcpStream, Link, Link)> {
    let mut stream = TcpStream::connect(&endpoint.addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;
    let hello = Hello::new(Role::Client, 0);
    write_frame(&mut stream, tag::HELLO, &hello.encode())?;
    let (req_link, resp_link) =
        proto::client_session_links(deploy, endpoint.lb_index, hello.session);
    Ok((stream, req_link, resp_link))
}

pub(crate) fn count_retry() {
    metrics::global()
        .counter(metrics::names::RETRIES_TOTAL, "operation retries under a RetryPolicy")
        .inc(Public::wire_observable(()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A scripted transport: pops the next result per call, counting
    /// executes and reconnects. `failovers_left` scripts how many times
    /// [`SessionTransport::fail_over`] succeeds (repositions).
    struct ScriptedTransport {
        script: Vec<Result<Response, NetError>>,
        executes: Arc<AtomicU32>,
        reconnects: Arc<AtomicU32>,
        failovers_left: u32,
    }

    impl SessionTransport for ScriptedTransport {
        fn execute(&mut self, _op: Op<'_>, seq: u64) -> Result<Response, NetError> {
            self.executes.fetch_add(1, Ordering::SeqCst);
            match self.script.remove(0) {
                Ok(mut resp) => {
                    resp.seq = seq;
                    Ok(resp)
                }
                Err(e) => Err(e),
            }
        }

        fn reconnect(&mut self) -> Result<(), NetError> {
            self.reconnects.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn fail_over(&mut self) -> bool {
            if self.failovers_left == 0 {
                return false;
            }
            self.failovers_left -= 1;
            true
        }
    }

    fn ok_response(value: &[u8]) -> Result<Response, NetError> {
        Ok(Response { id: 1, value: value.to_vec(), client: 0, seq: 0 })
    }

    fn harness(
        script: Vec<Result<Response, NetError>>,
        retry: RetryPolicy,
    ) -> (SnoopyClient, Arc<AtomicU32>, Arc<AtomicU32>) {
        let executes = Arc::new(AtomicU32::new(0));
        let reconnects = Arc::new(AtomicU32::new(0));
        let transport = ScriptedTransport {
            script,
            executes: executes.clone(),
            reconnects: reconnects.clone(),
            failovers_left: 0,
        };
        let client = SnoopyClient::builder(4).retry(retry).connect_transport(Box::new(transport));
        (client, executes, reconnects)
    }

    #[test]
    fn facade_retries_timeouts_and_reconnects() {
        let timeout = NetError::Timeout(io::ErrorKind::WouldBlock.into());
        let (mut client, executes, reconnects) =
            harness(vec![Err(timeout), ok_response(b"abcd")], RetryPolicy::client_default());
        assert_eq!(client.read(1).unwrap(), b"abcd");
        assert_eq!(executes.load(Ordering::SeqCst), 2);
        assert_eq!(reconnects.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn facade_never_retries_fatal_errors() {
        let u = snoopy_core::Unavailable { epoch: 2, failed_suborams: vec![0] };
        let (mut client, executes, _) = harness(
            vec![Err(NetError::Unavailable(u.clone())), ok_response(b"abcd")],
            RetryPolicy::client_default(),
        );
        match client.write(1, b"abcd") {
            Err(NetError::Unavailable(back)) => assert_eq!(back, u),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(executes.load(Ordering::SeqCst), 1, "fatal errors must not be retried");
    }

    #[test]
    fn facade_respects_the_retry_budget() {
        let errs: Vec<_> =
            (0..4).map(|_| Err(NetError::Timeout(io::ErrorKind::TimedOut.into()))).collect();
        let (mut client, executes, _) = harness(errs, RetryPolicy::once());
        assert!(matches!(client.read(1), Err(NetError::Timeout(_))));
        assert_eq!(executes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn facade_retries_unavailable_only_across_a_failover() {
        let u = snoopy_core::Unavailable { epoch: 4, failed_suborams: vec![1] };
        let executes = Arc::new(AtomicU32::new(0));
        let reconnects = Arc::new(AtomicU32::new(0));
        let transport = ScriptedTransport {
            script: vec![Err(NetError::Unavailable(u)), ok_response(b"abcd")],
            executes: executes.clone(),
            reconnects: reconnects.clone(),
            failovers_left: 1,
        };
        let mut client = SnoopyClient::builder(4)
            .retry(RetryPolicy::client_default())
            .connect_transport(Box::new(transport));
        assert_eq!(client.write(1, b"abcd").unwrap(), b"abcd");
        assert_eq!(executes.load(Ordering::SeqCst), 2, "retried once on the other balancer");
        assert_eq!(reconnects.load(Ordering::SeqCst), 0, "failover repositions without reconnect");
    }

    #[test]
    fn facade_gives_up_on_unavailable_when_failover_is_exhausted() {
        let u = snoopy_core::Unavailable { epoch: 4, failed_suborams: vec![1] };
        let executes = Arc::new(AtomicU32::new(0));
        let transport = ScriptedTransport {
            script: vec![
                Err(NetError::Unavailable(u.clone())),
                Err(NetError::Unavailable(u.clone())),
                ok_response(b"abcd"),
            ],
            executes: executes.clone(),
            reconnects: Arc::new(AtomicU32::new(0)),
            failovers_left: 1,
        };
        let mut client = SnoopyClient::builder(4)
            .retry(RetryPolicy::client_default())
            .connect_transport(Box::new(transport));
        match client.read(1) {
            Err(NetError::Unavailable(back)) => assert_eq!(back, u),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_eq!(
            executes.load(Ordering::SeqCst),
            2,
            "second Unavailable is fatal once no other balancer remains"
        );
    }

    #[test]
    fn facade_assigns_increasing_seqs() {
        let (mut client, _, _) =
            harness(vec![ok_response(b"aaaa"), ok_response(b"bbbb")], RetryPolicy::once());
        client.read(1).unwrap();
        client.read(2).unwrap();
        assert_eq!(client.seq, 2);
    }

    #[test]
    fn cooling_order_sorts_by_expiry_then_rotation() {
        let now = std::time::Instant::now();
        let cools = vec![
            Some(now + Duration::from_millis(400)),
            Some(now + Duration::from_millis(100)),
            Some(now + Duration::from_millis(250)),
        ];
        assert_eq!(cooling_order(&cools, 0), vec![1, 2, 0]);
        // Ties fall back to rotation order from `start`.
        let tied = vec![Some(now), Some(now), Some(now)];
        assert_eq!(cooling_order(&tied, 2), vec![2, 0, 1]);
        // Cleared endpoints (None) sort before any live cooldown.
        let mixed = vec![Some(now + Duration::from_millis(100)), None];
        assert_eq!(cooling_order(&mixed, 0), vec![1, 0]);
    }

    /// The all-cooling window: every endpoint is on its 500 ms cooldown, but
    /// the probe must still dial (no instant hard-fail, no busy wait) and
    /// must start with the least-recently-cooled endpoint, not rotation
    /// order. Endpoint 0 comes first in rotation but was cooled most
    /// recently; endpoint 1's cooldown expires soonest, so the probe must
    /// land there even though both listeners would accept.
    #[test]
    fn all_cooling_probe_prefers_least_recently_cooled_endpoint() {
        let listeners: Vec<std::net::TcpListener> =
            (0..2).map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<String> =
            listeners.iter().map(|l| l.local_addr().unwrap().to_string()).collect();
        let now = std::time::Instant::now();
        let mut cools =
            vec![Some(now + Duration::from_millis(400)), Some(now + Duration::from_millis(100))];
        let deploy = proto::deployment_key(3);
        let (index, _stream, _rl, _wl) = probe_endpoints(
            &manifest_endpoints(&addrs),
            &mut cools,
            0,
            &deploy,
            Duration::from_millis(200),
        )
        .expect("all-cooling fallback must still dial");
        assert_eq!(index, 1, "must dial the endpoint whose cooldown expires soonest");
        assert_eq!(cools[1], None, "a successful dial clears the endpoint's cooldown");
    }

    /// All endpoints cooling *and* dead: the probe returns the dial error
    /// (after really attempting each endpoint once) instead of the generic
    /// "no balancer reachable" non-attempt, and refreshes the cooldowns.
    #[test]
    fn all_cooling_probe_fails_with_dial_error_when_all_dead() {
        // Bind-then-drop yields addresses that refuse connections.
        let addrs: Vec<String> = (0..2)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            })
            .collect();
        let now = std::time::Instant::now();
        let mut cools = vec![Some(now + Duration::from_millis(50)); 2];
        let deploy = proto::deployment_key(3);
        let err = match probe_endpoints(
            &manifest_endpoints(&addrs),
            &mut cools,
            0,
            &deploy,
            Duration::from_millis(200),
        ) {
            Err(err) => err,
            Ok(_) => panic!("dead endpoints must fail"),
        };
        assert_ne!(
            err.kind(),
            io::ErrorKind::NotConnected,
            "the error must come from a real dial attempt, got {err:?}"
        );
        assert!(
            cools.iter().all(|c| c.is_some_and(|until| until > now)),
            "failed fallback dials must refresh the cooldowns"
        );
    }

    #[test]
    fn cluster_transport_shares_the_facade() {
        use snoopy_enclave::wire::StoredObject;
        const VLEN: usize = 8;
        let cfg = snoopy_core::SnoopyConfig::with_machines(1, 2).value_len(VLEN);
        let objects = (0..16u64).map(|i| StoredObject::new(i, &[0u8; 1], VLEN)).collect();
        let mut cluster = snoopy_core::InProcessCluster::start(cfg, objects, 11);
        cluster.start_ticker(Duration::from_millis(5));
        let mut client = SnoopyClient::builder(VLEN).connect_cluster(cluster.client());
        let before = client.write(3, &[7u8; VLEN]).unwrap();
        assert_eq!(before, vec![0u8; VLEN]);
        assert_eq!(client.read(3).unwrap(), vec![7u8; VLEN]);
        cluster.shutdown();
    }
}
