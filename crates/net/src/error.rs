//! The typed client-side error surface, and the single place where wire
//! frames and `io::Error`s map into it. [`NetError`] names each failure
//! class; the [`ErrorClass`] projection drives retry decisions.

use crate::proto;
use snoopy_core::Unavailable;
use std::fmt;
use std::io;

/// Everything a Snoopy client operation can fail with.
#[derive(Debug)]
pub enum NetError {
    /// The request's epoch completed degraded: the typed [`Unavailable`]
    /// names the epoch and the subORAMs that went silent (a
    /// [`crate::proto::tag::CLIENT_FAIL`] frame, or the channel plane's
    /// `Err` reply).
    Unavailable(Unavailable),
    /// The peer refused the connection or the session (TCP `ECONNREFUSED`,
    /// or a daemon rejecting the hello). Retryable: the daemon may simply
    /// be restarting.
    Refused(io::Error),
    /// A subORAM refused an epoch replay because that epoch was evicted
    /// from its bounded reply cache (a [`crate::proto::tag::RESP_ERR`]
    /// frame). Deterministic: replaying again cannot succeed.
    Evicted {
        /// The refused epoch.
        epoch: u64,
    },
    /// The attempt's deadline passed; the connection may still be healthy.
    Timeout(io::Error),
    /// The peer violated the protocol: malformed frame, undecodable body,
    /// or an AEAD link failure (tamper/replay). Never retried — the same
    /// bytes will fail the same way.
    Protocol(String),
    /// Any other transport failure (peer hung up, reset, broken pipe...).
    Io(io::Error),
    /// The operation names an object id at or above
    /// [`snoopy_enclave::wire::REAL_ID_LIMIT`], the namespace reserved for
    /// dummies and fillers. Refused before anything is sent: a balancer
    /// closes any session that sends one.
    ReservedId {
        /// The refused id.
        id: u64,
    },
}

/// How an error should be handled by a retry loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// The attempt's deadline passed (`WouldBlock`/`TimedOut`): the
    /// connection may still be healthy but this attempt is over.
    Timeout,
    /// The peer is gone (clean EOF mid-frame, reset, broken pipe, refused):
    /// the connection is dead and a retry must re-dial.
    Disconnected,
    /// Not a transport condition (bad frame, link failure, typed
    /// `Unavailable`): retrying the same bytes will not help.
    Fatal,
}

impl NetError {
    /// The retry classification of this error.
    pub fn class(&self) -> ErrorClass {
        match self {
            NetError::Timeout(_) => ErrorClass::Timeout,
            NetError::Refused(_) => ErrorClass::Disconnected,
            NetError::Unavailable(_)
            | NetError::Evicted { .. }
            | NetError::Protocol(_)
            | NetError::ReservedId { .. } => ErrorClass::Fatal,
            NetError::Io(e) => classify_io_error(e),
        }
    }

    /// Builds a protocol violation.
    pub fn protocol(msg: impl Into<String>) -> NetError {
        NetError::Protocol(msg.into())
    }

    /// Classifies a raw transport error into the matching variant —
    /// timeouts and refusals get their own arms, everything else stays
    /// [`NetError::Io`].
    pub fn from_io(e: io::Error) -> NetError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => NetError::Timeout(e),
            io::ErrorKind::ConnectionRefused => NetError::Refused(e),
            _ => NetError::Io(e),
        }
    }

    /// Decodes a [`crate::proto::tag::CLIENT_FAIL`] body into
    /// `(seq, NetError::Unavailable)`. The *only* place this wire frame is
    /// interpreted.
    pub fn from_client_fail(body: &[u8]) -> Result<(u64, NetError), NetError> {
        match proto::decode_unavailable(body) {
            Some((seq, err)) => Ok((seq, NetError::Unavailable(err))),
            None => Err(NetError::protocol("bad failure frame")),
        }
    }

    /// Decodes a [`crate::proto::tag::RESP_ERR`] body (epoch `u64` LE) into
    /// [`NetError::Evicted`]. The *only* place this wire frame is
    /// interpreted.
    pub fn from_resp_err(body: &[u8]) -> Result<NetError, NetError> {
        match <[u8; 8]>::try_from(body) {
            Ok(bytes) => Ok(NetError::Evicted { epoch: u64::from_le_bytes(bytes) }),
            Err(_) => Err(NetError::protocol("bad refusal frame")),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unavailable(u) => {
                write!(f, "epoch {} degraded (subORAMs {:?} silent)", u.epoch, u.failed_suborams)
            }
            NetError::Refused(e) => write!(f, "connection refused: {e}"),
            NetError::Evicted { epoch } => write!(f, "epoch {epoch} evicted from reply cache"),
            NetError::Timeout(e) => write!(f, "timed out: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::ReservedId { id } => write!(f, "object id {id} is in the reserved namespace"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::from_io(e)
    }
}

/// Classifies an I/O error for retry purposes. Timeouts (`WouldBlock` is
/// what a socket read deadline surfaces as on Unix, `TimedOut` on other
/// platforms) are distinct from a peer that hung up (`UnexpectedEof` — a
/// clean close mid-frame — reset, or broken pipe); everything else is fatal.
pub fn classify_io_error(e: &io::Error) -> ErrorClass {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ErrorClass::Timeout,
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionRefused
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::NotConnected => ErrorClass::Disconnected,
        _ => ErrorClass::Fatal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(variant: usize) -> NetError {
        match variant {
            0 => NetError::Unavailable(Unavailable { epoch: 3, failed_suborams: vec![1] }),
            1 => NetError::Refused(io::ErrorKind::ConnectionRefused.into()),
            2 => NetError::Evicted { epoch: 9 },
            3 => NetError::Timeout(io::ErrorKind::WouldBlock.into()),
            4 => NetError::protocol("bad frame"),
            5 => NetError::ReservedId { id: u64::MAX },
            _ => NetError::Io(io::ErrorKind::BrokenPipe.into()),
        }
    }

    #[test]
    fn every_variant_has_a_class_and_a_display() {
        // Exhaustive: one arm per variant, no wildcard, so adding a variant
        // forces this test (and every retry loop) to decide its class.
        for v in 0..7 {
            let err = sample(v);
            let class = match &err {
                NetError::Unavailable(_) => ErrorClass::Fatal,
                NetError::Refused(_) => ErrorClass::Disconnected,
                NetError::Evicted { .. } => ErrorClass::Fatal,
                NetError::Timeout(_) => ErrorClass::Timeout,
                NetError::Protocol(_) => ErrorClass::Fatal,
                NetError::ReservedId { .. } => ErrorClass::Fatal,
                NetError::Io(_) => ErrorClass::Disconnected, // broken pipe
            };
            assert_eq!(err.class(), class, "variant {v}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn io_errors_map_by_kind() {
        // Timeouts and refusals are recognized from the raw kind.
        let e = NetError::from_io(io::ErrorKind::WouldBlock.into());
        assert!(matches!(e, NetError::Timeout(_)));
        assert_eq!(e.class(), ErrorClass::Timeout);
        assert!(matches!(
            NetError::from_io(io::ErrorKind::ConnectionRefused.into()),
            NetError::Refused(_)
        ));

        // Plain transport errors stay Io and classify as before.
        let e = NetError::from_io(io::ErrorKind::UnexpectedEof.into());
        assert!(matches!(e, NetError::Io(_)));
        assert_eq!(e.class(), ErrorClass::Disconnected);
    }

    #[test]
    fn wire_frame_mapping_is_total() {
        // CLIENT_FAIL: valid body → (seq, Unavailable); garbage → Protocol.
        let u = Unavailable { epoch: 77, failed_suborams: vec![0, 3] };
        let body = proto::encode_unavailable(9, &u);
        let (seq, err) = NetError::from_client_fail(&body).unwrap();
        assert_eq!(seq, 9);
        match err {
            NetError::Unavailable(back) => assert_eq!(back, u),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(matches!(
            NetError::from_client_fail(&body[..body.len() - 1]),
            Err(NetError::Protocol(_))
        ));

        // RESP_ERR: 8-byte epoch → Evicted; anything else → Protocol.
        match NetError::from_resp_err(&42u64.to_le_bytes()).unwrap() {
            NetError::Evicted { epoch } => assert_eq!(epoch, 42),
            other => panic!("expected Evicted, got {other:?}"),
        }
        assert!(matches!(NetError::from_resp_err(&[1, 2, 3]), Err(NetError::Protocol(_))));
    }
}
