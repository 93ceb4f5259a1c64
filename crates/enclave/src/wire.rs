//! Wire types shared by load balancers and subORAMs.
//!
//! Everything secret in a request — the object id, whether it is a read or a
//! write, the write payload, even whether it is a dummy — is carried in
//! fixed-size fields with branch-free [`Cmov`] implementations, so requests
//! can flow through oblivious sorts, compactions and hash-table scans without
//! data-dependent accesses. Object *size* is public (paper §2.1), so payload
//! vectors have a single deployment-wide length.

use snoopy_obliv::ct::{ct_eq_u64, Choice};
use snoopy_obliv::impl_cmov_struct;

/// Real object ids must lie below this limit. Ids at or above it are reserved
/// for the synthetic id namespaces below, which keeps dummies and fillers
/// distinct from every storable object while still being *distinct from each
/// other* — a requirement of the subORAM's hash table (a batch must contain
/// unique ids, paper Definition 2).
pub const REAL_ID_LIMIT: u64 = 1 << 62;

/// Base id for load-balancer dummy requests: the `k`-th dummy in a batch gets
/// id `LB_DUMMY_BASE + k` (distinctness within the batch).
pub const LB_DUMMY_BASE: u64 = 1 << 62;

/// Base id for hash-table construction fillers (`snoopy-ohash`).
pub const FILLER_BASE: u64 = 2 << 62;

/// The object id reserved for untargeted dummy slots. Real object ids
/// must be below [`REAL_ID_LIMIT`].
pub const DUMMY_ID: u64 = u64::MAX;

/// Public request kind constants. The kind of a *specific* request is secret;
/// it is stored as a `u64` and inspected only through constant-time compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Read the object's current value.
    Read,
    /// Overwrite the object's value.
    Write,
}

impl RequestKind {
    /// The secret wire encoding (0 = read, 1 = write).
    pub fn encode(self) -> u64 {
        match self {
            RequestKind::Read => 0,
            RequestKind::Write => 1,
        }
    }
}

/// A client request as processed inside enclaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Object id (secret). `DUMMY_ID` marks dummy/padding requests.
    pub id: u64,
    /// 0 = read, 1 = write (secret).
    pub kind: u64,
    /// Write payload, or the response value once filled in (secret).
    /// All requests in a deployment share one public length.
    pub value: Vec<u8>,
    /// Originating client handle (used only to route the response back over
    /// the already-established channel; never interpreted obliviously).
    pub client: u64,
    /// Client-chosen sequence number echoed in the response.
    pub seq: u64,
    /// Access-control bit (Appendix D): 1 = the issuing client may perform
    /// this operation. Secret; conditions the subORAM's compare-and-sets so
    /// denied reads return zeros and denied writes do not apply. Defaults
    /// to 1 in deployments without access control.
    pub permit: u64,
}

impl_cmov_struct!(Request { id, kind, value, client, seq, permit });

impl Request {
    /// Builds a read request.
    pub fn read(id: u64, value_len: usize, client: u64, seq: u64) -> Request {
        Request {
            id,
            kind: RequestKind::Read.encode(),
            value: vec![0u8; value_len],
            client,
            seq,
            permit: 1,
        }
    }

    /// Builds a write request. The payload is padded/truncated to `value_len`
    /// (object size is public and fixed).
    pub fn write(id: u64, payload: &[u8], value_len: usize, client: u64, seq: u64) -> Request {
        let mut value = payload.to_vec();
        value.resize(value_len, 0);
        Request { id, kind: RequestKind::Write.encode(), value, client, seq, permit: 1 }
    }

    /// Builds a dummy request (read of `DUMMY_ID`).
    pub fn dummy(value_len: usize) -> Request {
        Request {
            id: DUMMY_ID,
            kind: RequestKind::Read.encode(),
            value: vec![0u8; value_len],
            client: 0,
            seq: 0,
            permit: 1,
        }
    }

    /// Secret predicate: is this a dummy request (any synthetic id at or
    /// above [`REAL_ID_LIMIT`])?
    pub fn is_dummy(&self) -> Choice {
        snoopy_obliv::ct::ct_le_u64(REAL_ID_LIMIT, self.id)
    }

    /// Secret predicate: is this a write?
    pub fn is_write(&self) -> Choice {
        ct_eq_u64(self.kind, RequestKind::Write.encode())
    }

    /// Secret predicate: is the operation permitted?
    pub fn is_permitted(&self) -> Choice {
        ct_eq_u64(self.permit, 1)
    }
}

/// One stored object in a subORAM partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredObject {
    /// Object id.
    pub id: u64,
    /// Current value (fixed public length per deployment).
    pub value: Vec<u8>,
}

impl_cmov_struct!(StoredObject { id, value });

impl StoredObject {
    /// Creates an object with the given id and value padded to `value_len`.
    pub fn new(id: u64, payload: &[u8], value_len: usize) -> StoredObject {
        let mut value = payload.to_vec();
        value.resize(value_len, 0);
        StoredObject { id, value }
    }
}

/// A response returned to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The object id the client asked for.
    pub id: u64,
    /// The object's value — pre-write value for writes, current value for
    /// reads (the paper's subORAM returns the value before the write).
    pub value: Vec<u8>,
    /// Client handle this response routes to.
    pub client: u64,
    /// Echo of the request sequence number.
    pub seq: u64,
}

impl_cmov_struct!(Response { id, value, client, seq });

/// Serializes a request for transport (AEAD-sealed by the channel layer).
/// Fixed-size framing: all requests in a deployment serialize to the same
/// length, so ciphertext lengths leak nothing but the (public) object size.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(REQUEST_HEADER + r.value.len());
    encode_request_into(r, &mut out);
    out
}

/// Bytes of a request frame before its value.
pub const REQUEST_HEADER: usize = 40;

/// Appends [`encode_request`]'s bytes to `out`, so a batch encodes into one
/// buffer.
pub fn encode_request_into(r: &Request, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.id.to_le_bytes());
    out.extend_from_slice(&r.kind.to_le_bytes());
    out.extend_from_slice(&r.client.to_le_bytes());
    out.extend_from_slice(&r.seq.to_le_bytes());
    out.extend_from_slice(&r.permit.to_le_bytes());
    out.extend_from_slice(&r.value);
}

/// Inverse of [`encode_request`]. `value_len` is the deployment's public
/// object size. Returns `None` on malformed length.
pub fn decode_request(bytes: &[u8], value_len: usize) -> Option<Request> {
    if bytes.len() != REQUEST_HEADER + value_len {
        return None;
    }
    Some(Request {
        id: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
        kind: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
        client: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
        seq: u64::from_le_bytes(bytes[24..32].try_into().ok()?),
        permit: u64::from_le_bytes(bytes[32..40].try_into().ok()?),
        value: bytes[REQUEST_HEADER..].to_vec(),
    })
}

/// Serializes a response for transport (AEAD-sealed by the channel layer).
/// Fixed-size framing, like [`encode_request`]: 24-byte header + the public
/// object size.
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(RESPONSE_HEADER + r.value.len());
    encode_response_into(r, &mut out);
    out
}

/// Bytes of a response frame before its value.
pub const RESPONSE_HEADER: usize = 24;

/// Appends [`encode_response`]'s bytes to `out`.
pub fn encode_response_into(r: &Response, out: &mut Vec<u8>) {
    out.extend_from_slice(&r.id.to_le_bytes());
    out.extend_from_slice(&r.client.to_le_bytes());
    out.extend_from_slice(&r.seq.to_le_bytes());
    out.extend_from_slice(&r.value);
}

/// Inverse of [`encode_response`]. Returns `None` on malformed length.
pub fn decode_response(bytes: &[u8], value_len: usize) -> Option<Response> {
    if bytes.len() != RESPONSE_HEADER + value_len {
        return None;
    }
    Some(Response {
        id: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
        client: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
        seq: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
        value: bytes[RESPONSE_HEADER..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_obliv::ct::Cmov;

    #[test]
    fn request_constructors() {
        let r = Request::read(5, 16, 2, 7);
        assert_eq!(r.id, 5);
        assert!(!r.is_write().declassify());
        assert!(!r.is_dummy().declassify());
        assert_eq!(r.value.len(), 16);

        let w = Request::write(6, b"hello", 16, 2, 8);
        assert!(w.is_write().declassify());
        assert_eq!(&w.value[..5], b"hello");
        assert_eq!(w.value.len(), 16);

        let d = Request::dummy(16);
        assert!(d.is_dummy().declassify());
    }

    #[test]
    fn cmov_moves_whole_request() {
        let mut a = Request::read(1, 8, 10, 1);
        let b = Request::write(2, b"xy", 8, 20, 2);
        a.cmov(&b, Choice::FALSE);
        assert_eq!(a.id, 1);
        a.cmov(&b, Choice::TRUE);
        assert_eq!(a, b);
    }

    #[test]
    fn cswap_swaps_stored_objects() {
        let mut a = StoredObject::new(1, b"aaa", 8);
        let mut b = StoredObject::new(2, b"bbb", 8);
        let a0 = a.clone();
        let b0 = b.clone();
        a.cswap(&mut b, Choice::TRUE);
        assert_eq!(a, b0);
        assert_eq!(b, a0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = Request::write(42, b"payload", 32, 9, 1234);
        let bytes = encode_request(&r);
        assert_eq!(bytes.len(), 40 + 32);
        let back = decode_request(&bytes, 32).unwrap();
        assert_eq!(back, r);
        assert!(decode_request(&bytes, 16).is_none());
        assert!(decode_request(&bytes[..10], 32).is_none());
    }

    #[test]
    fn response_encode_decode_roundtrip() {
        let r = Response { id: 11, value: vec![7u8; 32], client: 4, seq: 99 };
        let bytes = encode_response(&r);
        assert_eq!(bytes.len(), 24 + 32);
        assert_eq!(decode_response(&bytes, 32).unwrap(), r);
        assert!(decode_response(&bytes, 16).is_none());
    }

    #[test]
    fn all_requests_same_wire_length() {
        let a = encode_request(&Request::read(1, 64, 0, 0));
        let b = encode_request(&Request::write(u64::MAX - 1, &[7u8; 64], 64, 3, 3));
        let d = encode_request(&Request::dummy(64));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), d.len());
    }
}
