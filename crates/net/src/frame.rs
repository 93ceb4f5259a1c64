//! Length-prefixed framing over a byte stream.
//!
//! Every message on a snoopy-net connection is one frame:
//!
//! ```text
//! +----------------+-----+------------------+
//! | len: u32 LE    | tag | body (len-1 B)   |
//! +----------------+-----+------------------+
//! ```
//!
//! `len` counts the tag byte plus the body, so an empty-bodied frame has
//! `len = 1`. Frames carry either AEAD-sealed link messages (batches,
//! responses, client requests) or small plaintext control messages (hellos,
//! stats). The framing layer is untrusted: a mangled length or truncated
//! frame is an I/O error, and anything that decrypts is still gated by the
//! link layer's replay protection.

use std::io::{self, Read, Write};

/// Hard cap on a frame's size (tag + body). Batches are bounded by the epoch
/// batch size, so anything larger than this is a corrupt or hostile peer.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes one frame. The caller supplies the tag and the body separately so
/// sealed payloads need not be copied into a tagged buffer first.
pub fn write_frame(w: &mut impl Write, tag: u8, body: &[u8]) -> io::Result<()> {
    let len = body.len() + 1;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(body);
    // One write call so a frame is never interleaved with another writer's
    // (callers still serialize writers per connection).
    w.write_all(&buf)?;
    w.flush()
}

/// Bytes a body buffer starts with before any arrive: a whole small frame,
/// and nothing a hostile length can inflate.
const FIRST_BODY_ALLOC: usize = 16 << 10;

/// Reads one frame, returning `(tag, body)`. The body buffer grows as its
/// bytes arrive, so a peer that announces a large frame and then stalls or
/// hangs up costs no more memory than it actually sent.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let [l0, l1, l2, l3, tag] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
    }
    let mut body = Vec::with_capacity((len - 1).min(FIRST_BODY_ALLOC));
    r.take(len as u64 - 1).read_to_end(&mut body)?;
    if body.len() != len - 1 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((tag, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"hello").unwrap();
        write_frame(&mut wire, 2, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), (7, b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), (2, Vec::new()));
        assert!(read_frame(&mut r).is_err()); // EOF
    }

    #[test]
    fn rejects_oversized_and_zero_length() {
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert!(read_frame(&mut r).is_err());
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r: &[u8] = &huge;
        assert!(read_frame(&mut r).is_err());
    }
}
