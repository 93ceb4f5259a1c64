//! The snoopy-net wire protocol: frame tags, hellos, and session key
//! derivation.
//!
//! A connection starts with a plaintext [`Hello`] naming the dialer's role,
//! index, and a fresh random session id. Both ends then derive this
//! session's pair of link keys from the deployment key and the session id,
//! so a reconnect gets fresh keys — sequence numbers restart at zero on a
//! new session without ever reusing a `(key, nonce)` pair, and a sealed
//! message recorded from an old session can never be replayed into a new
//! one.

use snoopy_core::link::Link;
use snoopy_crypto::{Key256, Prg};

/// Frame tags.
pub mod tag {
    /// Session hello (plaintext): role, index, session id.
    pub const HELLO: u8 = 1;
    /// Load balancer → subORAM: sealed epoch batch.
    pub const BATCH: u8 = 2;
    /// SubORAM → load balancer: sealed epoch response batch.
    pub const RESP_BATCH: u8 = 3;
    /// Client → load balancer: sealed request batch.
    pub const CLIENT_REQ: u8 = 4;
    /// Load balancer → client: sealed response batch.
    pub const CLIENT_RESP: u8 = 5;
    /// Admin → daemon: per-link counters request (plaintext).
    pub const STATS_REQ: u8 = 6;
    /// Daemon → admin: counters snapshot (plaintext UTF-8 lines).
    pub const STATS_RESP: u8 = 7;
    /// Admin → daemon: graceful shutdown request.
    pub const SHUTDOWN: u8 = 8;
    /// Daemon → admin: shutdown acknowledged (sent before exiting).
    pub const SHUTDOWN_ACK: u8 = 9;
    /// Admin → daemon: Prometheus metrics request (plaintext).
    pub const METRICS_REQ: u8 = 10;
    /// Daemon → admin: Prometheus text exposition (plaintext UTF-8).
    pub const METRICS_RESP: u8 = 11;
    /// Admin → daemon: liveness/heartbeat probe (plaintext).
    pub const HEALTH_REQ: u8 = 12;
    /// Daemon → admin: health snapshot (plaintext `role=... index=...
    /// uptime_secs=... epochs=...` — a [`crate::stats::StatsHeader`]).
    pub const HEALTH_RESP: u8 = 13;
    /// Load balancer → client: this request's epoch degraded; typed
    /// `Unavailable` body ([`super::encode_unavailable`]). Plaintext by
    /// design: it is a liveness signal with the same trust level as a TCP
    /// RST — an adversary who can forge it can already sever the connection,
    /// and it carries only wire-observable facts (epoch id, which subORAMs
    /// went silent).
    pub const CLIENT_FAIL: u8 = 14;
    /// SubORAM → load balancer: this epoch's batch was refused with a typed
    /// error (body: `epoch u64 LE`). Plaintext for the same reason as
    /// [`CLIENT_FAIL`]: a liveness signal carrying only wire-observable
    /// facts — the balancer learns *which subORAM* refused *which epoch*,
    /// both of which the network already sees, and nothing about why.
    pub const RESP_ERR: u8 = 15;
    /// Admin → daemon: tracer span-dump request (plaintext).
    pub const TRACE_REQ: u8 = 16;
    /// Daemon → admin: drained spans as a [`crate::merge`]-compatible
    /// `ProcessDump` JSON document (plaintext UTF-8). Spans cover only
    /// data-independent stages with public names — the same surface the
    /// metrics exposition already exports.
    pub const TRACE_RESP: u8 = 17;
    /// Admin → daemon: flight-recorder snapshot request (plaintext).
    pub const EVENTS_REQ: u8 = 18;
    /// Daemon → admin: flight-recorder events as JSONL (plaintext UTF-8).
    /// Every event field passed the `Public` gate at record time.
    pub const EVENTS_RESP: u8 = 19;
    /// Admin → daemon: reshard command (plaintext header, sealed payload
    /// for migration batches — see [`crate::reshard`]). The header carries
    /// only public facts: generation, fleet sizes, batch schedule indices.
    pub const RESHARD_REQ: u8 = 20;
    /// Daemon → admin: reshard reply (status snapshot or a sealed export
    /// batch on the public migration schedule).
    pub const RESHARD_RESP: u8 = 21;
}

/// Who is dialing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A load balancer dialing a subORAM.
    LoadBalancer,
    /// A client dialing a load balancer.
    Client,
    /// An operator tool (stats/shutdown) dialing any daemon.
    Admin,
}

impl Role {
    fn encode(self) -> u8 {
        match self {
            Role::LoadBalancer => 0,
            Role::Client => 1,
            Role::Admin => 2,
        }
    }

    fn decode(b: u8) -> Option<Role> {
        match b {
            0 => Some(Role::LoadBalancer),
            1 => Some(Role::Client),
            2 => Some(Role::Admin),
            _ => None,
        }
    }
}

/// The first frame on every connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The dialer's role.
    pub role: Role,
    /// The dialer's index within its role (load-balancer index; 0 for
    /// clients and admins).
    pub index: u64,
    /// Fresh random session id; scopes this connection's link keys.
    pub session: u64,
    /// The dialer's wall clock at handshake time, nanoseconds since the
    /// Unix epoch (0 = unknown). The acceptor
    /// subtracts its own clock to estimate the per-peer offset that aligns
    /// merged cluster traces. Leakage: the send time of the hello frame is
    /// observable on the wire already; stamping it inside the frame adds
    /// nothing the network adversary lacks.
    pub wall_ns: u64,
}

impl Hello {
    /// Builds a hello with a fresh random session id, stamped with the
    /// current wall clock.
    pub fn new(role: Role, index: u64) -> Hello {
        let mut prg = Prg::from_entropy();
        Hello {
            role,
            index,
            session: snoopy_crypto::rng::Rng::gen(&mut prg),
            wall_ns: snoopy_telemetry::events::unix_now_ns(),
        }
    }

    /// Serializes the hello body (goes under [`tag::HELLO`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(25);
        out.push(self.role.encode());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.wall_ns.to_le_bytes());
        out
    }

    /// Parses a 25-byte hello body.
    pub fn decode(body: &[u8]) -> Option<Hello> {
        if body.len() != 25 {
            return None;
        }
        Some(Hello {
            role: Role::decode(body[0])?,
            index: u64::from_le_bytes(body[1..9].try_into().ok()?),
            session: u64::from_le_bytes(body[9..17].try_into().ok()?),
            wall_ns: u64::from_le_bytes(body[17..25].try_into().ok()?),
        })
    }
}

/// The public trace context carried on every [`tag::BATCH`] frame: which
/// epoch, from which balancer, and the per-epoch send wave (0 = first send,
/// 1+ = replay waves). All three are wire-observable already — the network
/// adversary sees which link carried the frame and counts re-sends — so
/// carrying them in the clear leaks nothing new, and they let every
/// subORAM's spans and events name the balancer-side epoch they served.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The balancer epoch this batch belongs to.
    pub epoch: u64,
    /// The sending balancer's index.
    pub lb: u64,
    /// The layout generation the balancer routed the batch under. Public by
    /// design — reshard commits are wire-visible reconfiguration events —
    /// and checked by the subORAM so mixed-layout batches around a crashed
    /// reshard are refused instead of silently misrouted.
    pub generation: u64,
    /// Send wave within the epoch: 0 on first send, incremented per replay.
    pub seq: u64,
}

/// Encodes a [`tag::BATCH`] body: `epoch | lb | seq | generation` (u64 LE
/// each) followed
/// by the sealed batch. The epoch stays first so epoch-keyed frame
/// inspection (e.g. the chaos proxy's fault decisions) reads both this and
/// the [`encode_epoch_sealed`] layout.
pub fn encode_batch_ctx(ctx: TraceCtx, sealed: &snoopy_crypto::aead::SealedBox) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + sealed.bytes.len());
    out.extend_from_slice(&ctx.epoch.to_le_bytes());
    out.extend_from_slice(&ctx.lb.to_le_bytes());
    out.extend_from_slice(&ctx.seq.to_le_bytes());
    out.extend_from_slice(&ctx.generation.to_le_bytes());
    out.extend_from_slice(&sealed.bytes);
    out
}

/// Inverse of [`encode_batch_ctx`].
pub fn decode_batch_ctx(body: &[u8]) -> Option<(TraceCtx, snoopy_crypto::aead::SealedBox)> {
    if body.len() < 32 {
        return None;
    }
    let ctx = TraceCtx {
        epoch: u64::from_le_bytes(body[..8].try_into().ok()?),
        lb: u64::from_le_bytes(body[8..16].try_into().ok()?),
        seq: u64::from_le_bytes(body[16..24].try_into().ok()?),
        generation: u64::from_le_bytes(body[24..32].try_into().ok()?),
    };
    Some((ctx, snoopy_crypto::aead::SealedBox { bytes: body[32..].to_vec() }))
}

/// An epoch-tagged sealed payload: the body of [`tag::BATCH`] and
/// [`tag::RESP_BATCH`] frames (`epoch u64 LE` + sealed bytes).
pub fn encode_epoch_sealed(epoch: u64, sealed: &snoopy_crypto::aead::SealedBox) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + sealed.bytes.len());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&sealed.bytes);
    out
}

/// Inverse of [`encode_epoch_sealed`].
pub fn decode_epoch_sealed(body: &[u8]) -> Option<(u64, snoopy_crypto::aead::SealedBox)> {
    if body.len() < 8 {
        return None;
    }
    let epoch = u64::from_le_bytes(body[..8].try_into().ok()?);
    Some((epoch, snoopy_crypto::aead::SealedBox { bytes: body[8..].to_vec() }))
}

/// Encodes a [`tag::CLIENT_FAIL`] body: the failing request's client `seq`,
/// the degraded epoch, and the subORAM indices that went silent.
pub fn encode_unavailable(seq: u64, err: &snoopy_core::Unavailable) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 8 * err.failed_suborams.len());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&err.epoch.to_le_bytes());
    out.extend_from_slice(&(err.failed_suborams.len() as u64).to_le_bytes());
    for sub in &err.failed_suborams {
        out.extend_from_slice(&(*sub as u64).to_le_bytes());
    }
    out
}

/// Inverse of [`encode_unavailable`]: `(seq, Unavailable)`.
pub fn decode_unavailable(body: &[u8]) -> Option<(u64, snoopy_core::Unavailable)> {
    if body.len() < 24 {
        return None;
    }
    let seq = u64::from_le_bytes(body[..8].try_into().ok()?);
    let epoch = u64::from_le_bytes(body[8..16].try_into().ok()?);
    let count = u64::from_le_bytes(body[16..24].try_into().ok()?);
    let rest = &body[24..];
    // Compared by division: a hostile count times 8 would overflow.
    if !rest.len().is_multiple_of(8) || (rest.len() / 8) as u64 != count {
        return None;
    }
    let failed_suborams =
        rest.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize).collect();
    Some((seq, snoopy_core::Unavailable { epoch, failed_suborams }))
}

/// Derives the deployment key every daemon shares. It seeds all per-session
/// link keys and the checkpoint keys; in a real deployment it would be
/// established by remote attestation, here it is derived from the manifest
/// seed exactly like the in-process planes derive theirs.
pub fn deployment_key(seed: u64) -> Key256 {
    let mut prg = Prg::from_seed(seed);
    Key256::random(&mut prg).derive(b"snoopy-net/deployment")
}

/// Derives the batch-direction and response-direction links for a
/// LB ↔ subORAM session. Channel ids reuse the in-process scheme
/// (`lb * s + sub`, response direction with the top bit set); the session id
/// is folded into the *key*, so ids only need to be unique per key.
pub fn suboram_session_links(
    deploy: &Key256,
    lb: usize,
    sub: usize,
    num_suborams: usize,
    session: u64,
) -> (Link, Link) {
    let chan = (lb * num_suborams + sub) as u32;
    let mut label = b"link/lb-sub/".to_vec();
    label.extend_from_slice(&(lb as u64).to_le_bytes());
    label.extend_from_slice(&(sub as u64).to_le_bytes());
    label.extend_from_slice(&session.to_le_bytes());
    let batch_key = deploy.derive(&label);
    label.push(b'r');
    let resp_key = deploy.derive(&label);
    (Link::new(batch_key, chan), Link::new(resp_key, chan | 0x8000_0000))
}

/// Derives the request-direction and response-direction links for a
/// client ↔ LB session.
pub fn client_session_links(deploy: &Key256, lb: usize, session: u64) -> (Link, Link) {
    let mut label = b"link/client-lb/".to_vec();
    label.extend_from_slice(&(lb as u64).to_le_bytes());
    label.extend_from_slice(&session.to_le_bytes());
    let req_key = deploy.derive(&label);
    label.push(b'r');
    let resp_key = deploy.derive(&label);
    (Link::new(req_key, 0x4000_0000), Link::new(resp_key, 0x4000_0001))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hello_roundtrip() {
        let h =
            Hello { role: Role::LoadBalancer, index: 3, session: 0xDEAD_BEEF, wall_ns: 123_456 };
        assert_eq!(Hello::decode(&h.encode()), Some(h));
        assert_eq!(Hello::decode(&[]), None);
        assert_eq!(Hello::decode(&[9; 25]), None); // bad role
        assert_eq!(Hello::decode(&[0; 20]), None); // bad length
        assert_eq!(Hello::decode(&h.encode()[..17]), None); // truncated
                                                            // Hello::new stamps a live wall clock.
        assert!(Hello::new(Role::Admin, 0).wall_ns > 0);
    }

    #[test]
    fn batch_ctx_roundtrip() {
        let sealed = snoopy_crypto::aead::SealedBox { bytes: vec![4, 5, 6] };
        let ctx = TraceCtx { epoch: 11, lb: 2, seq: 1, generation: 3 };
        let body = encode_batch_ctx(ctx, &sealed);
        let (back, back_sealed) = decode_batch_ctx(&body).unwrap();
        assert_eq!(back, ctx);
        assert_eq!(back_sealed.bytes, sealed.bytes);
        // Epoch-first layout: epoch-keyed inspectors read the same prefix
        // as the plain epoch+sealed framing.
        assert_eq!(u64::from_le_bytes(body[..8].try_into().unwrap()), 11);
        assert!(decode_batch_ctx(&body[..31]).is_none());
    }

    #[test]
    fn session_links_interoperate() {
        let deploy = deployment_key(7);
        let (mut a, _) = suboram_session_links(&deploy, 0, 1, 2, 42);
        let (mut b, _) = suboram_session_links(&deploy, 0, 1, 2, 42);
        let batch = vec![snoopy_enclave::wire::Request::read(5, 8, 0, 0)];
        let sealed = a.seal(&batch).unwrap();
        assert_eq!(b.open(&sealed, 8).unwrap(), batch);
    }

    #[test]
    fn different_sessions_use_different_keys() {
        let deploy = deployment_key(7);
        let (mut a, _) = suboram_session_links(&deploy, 0, 1, 2, 42);
        let (mut b, _) = suboram_session_links(&deploy, 0, 1, 2, 43);
        let sealed = a.seal(&[snoopy_enclave::wire::Request::read(5, 8, 0, 0)]).unwrap();
        assert!(b.open(&sealed, 8).is_err());
    }

    #[test]
    fn unavailable_roundtrip() {
        let err = snoopy_core::Unavailable { epoch: 77, failed_suborams: vec![0, 3] };
        let body = encode_unavailable(9, &err);
        assert_eq!(decode_unavailable(&body), Some((9, err)));
        assert_eq!(decode_unavailable(&body[..body.len() - 1]), None);
        assert_eq!(decode_unavailable(&[0; 8]), None);
    }

    #[test]
    fn epoch_sealed_roundtrip() {
        let sealed = snoopy_crypto::aead::SealedBox { bytes: vec![1, 2, 3] };
        let body = encode_epoch_sealed(9, &sealed);
        let (epoch, back) = decode_epoch_sealed(&body).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(back.bytes, sealed.bytes);
        assert!(decode_epoch_sealed(&[1, 2]).is_none());
    }

    /// Words a hostile peer would put in a length or count field.
    const EDGE_WORDS: [u64; 8] = [0, 1, 2, 3, 1 << 61, (1 << 61) + 1, u64::MAX / 8 + 1, u64::MAX];

    proptest! {
        /// Every decoder of network bytes, on arbitrary bodies: it never
        /// panics, what it accepts re-encodes to exactly the body, and every
        /// buffer it returns is at most the body's size. Bodies sit at and
        /// around each decoder's fixed header length, with edge words in
        /// their count and length fields and valid role bytes half the time.
        #[test]
        fn hostile_bodies_never_panic_or_overallocate(
            len in prop::sample::select(vec![0usize, 1, 7, 8, 9, 23, 24, 25, 26, 31, 32, 33, 34, 35, 40, 41, 42, 48, 64, 200]),
            noise in prop::collection::vec(any::<u8>(), 200),
            edge in prop::sample::select(EDGE_WORDS.to_vec()),
            word_at in 0usize..6,
            small_head in any::<bool>(),
        ) {
            let mut body = noise[..len].to_vec();
            if let Some(w) = body.get_mut(word_at * 8..word_at * 8 + 8) {
                w.copy_from_slice(&edge.to_le_bytes());
            }
            if small_head && !body.is_empty() {
                body[0] %= 4;
            }
            let n = body.len();

            if let Some(h) = Hello::decode(&body) {
                prop_assert_eq!(h.encode(), body.clone());
            }
            if let Some((ctx, sealed)) = decode_batch_ctx(&body) {
                prop_assert!(sealed.bytes.capacity() <= n);
                prop_assert_eq!(encode_batch_ctx(ctx, &sealed), body.clone());
            }
            if let Some((epoch, sealed)) = decode_epoch_sealed(&body) {
                prop_assert!(sealed.bytes.capacity() <= n);
                prop_assert_eq!(encode_epoch_sealed(epoch, &sealed), body.clone());
            }
            if let Some((seq, err)) = decode_unavailable(&body) {
                prop_assert!(err.failed_suborams.capacity() * std::mem::size_of::<usize>() <= n);
                prop_assert_eq!(encode_unavailable(seq, &err), body.clone());
            }
            if let Some(req) = crate::reshard::ReshardReq::decode(&body) {
                prop_assert!(req.payload.capacity() <= n);
                prop_assert_eq!(req.encode(), body.clone());
            }
            if let Some(resp) = crate::reshard::ReshardResp::decode(&body) {
                prop_assert!(resp.payload.capacity() <= n);
                prop_assert_eq!(resp.encode(), body.clone());
            }
        }
    }
}
