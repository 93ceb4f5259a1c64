//! The per-session state machine of the readiness reactor: incremental
//! frame parsing, bounded outbound buffering, and the read/write sweep
//! steps — everything a session does *except* touch a real socket.
//!
//! The reactor (`crate::reactor`) drives one [`FrameAssembler`] and one
//! [`OutBuf`] per connection over a nonblocking `TcpStream`; the unit tests
//! here drive the same code over in-memory fakes, which is what makes
//! partial reads, split frames, slow-drain writers, and half-close testable
//! without sockets.
//!
//! Backpressure is explicit and never drops data. Inbound: when a session's
//! outbound buffer sits above its watermark ([`OutBuf::over_watermark`]),
//! the reactor simply stops reading that socket — the kernel's receive
//! window fills and TCP pushes back on the peer.
//! Outbound: [`OutBuf`] is bounded by a hard cap; a peer that cannot drain
//! its responses within the cap gets its session killed (the wire-level
//! equivalent of the old blocking plane's write timeout), and the epoch
//! protocol's replay machinery heals the loss. Within a live session, frames
//! are delivered in exactly the order they were enqueued: there is one
//! queue, appended under a lock, drained by one reactor thread.
//!
//! None of this touches payloads: the state machine sees sealed frames as
//! opaque `(tag, bytes)` pairs. What an observer of the reactor learns —
//! which sockets became readable when, how large each frame was — is
//! exactly what the network itself already reveals.

use crate::frame::MAX_FRAME_LEN;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Read-pause watermark for a session's outbound buffer (bytes).
pub const WATERMARK: usize = 256 << 10;
/// Hard cap on a session's outbound buffer (bytes). One maximum frame always
/// fits above the cap check, so a single oversized epoch batch cannot kill a
/// healthy session.
pub const HARD_CAP: usize = 64 << 20;

/// Bytes asked of the socket per read while no frame body is being filled:
/// headers and small frames arrive in reads of at most this size, and a
/// body never gets less room than this when it starts to grow.
const READ_CHUNK: usize = 16 << 10;

/// Incremental frame parser: feed arbitrary byte chunks, pop complete
/// `(tag, body)` frames. The streaming twin of [`crate::frame::read_frame`],
/// which blocks for a whole frame and so cannot be used on a nonblocking
/// socket.
///
/// Headers and small frames are parsed out of one contiguous read buffer.
/// Once a header announces a body longer than what is buffered, the rest of
/// that body is read straight into the frame's own `Vec`, which is handed
/// to the caller whole: a large frame is copied once, from the kernel. That
/// `Vec` grows with the bytes that actually arrive (at most doubling), never
/// with the announced length alone, so a hostile header costs nothing.
#[derive(Default)]
pub struct FrameAssembler {
    head: Head,
    /// The frame whose header arrived before its whole body did. While it
    /// is incomplete, `head` holds nothing unparsed.
    partial: Option<Partial>,
}

/// The contiguous read buffer: wire bytes not yet parsed are
/// `buf[start..end]`; `buf[end..]` is zeroed room for the next read.
#[derive(Default)]
struct Head {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Head {
    fn unparsed(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Moves the unparsed bytes to the front of the buffer.
    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// At least [`READ_CHUNK`] of zeroed room after the unparsed bytes.
    fn room(&mut self) -> &mut [u8] {
        if self.buf.len() - self.end < READ_CHUNK {
            self.compact();
            self.buf.resize(self.buf.len().max(self.end + READ_CHUNK), 0);
        }
        &mut self.buf[self.end..]
    }
}

/// A frame whose body is being filled in place.
struct Partial {
    tag: u8,
    /// `body[..filled]` has arrived; `body[filled..]` is zeroed room.
    body: Vec<u8>,
    filled: usize,
    /// The announced body length.
    want: usize,
}

impl Partial {
    fn is_complete(&self) -> bool {
        self.filled == self.want
    }

    /// Zeroed room for the next read, within the announced body. Room grows
    /// by doubling what has arrived, so the allocation is never more than
    /// twice the bytes received (or one [`READ_CHUNK`]).
    fn room(&mut self) -> &mut [u8] {
        if self.filled == self.body.len() {
            let len = self.want.min((2 * self.filled).max(READ_CHUNK));
            self.body.reserve_exact(len - self.body.len());
            self.body.resize(len, 0);
        }
        &mut self.body[self.filled..]
    }

    /// Appends as much of `bytes` as the body still needs; returns how many
    /// bytes that was.
    fn fill_from(&mut self, bytes: &[u8]) -> usize {
        let n = (self.want - self.filled).min(bytes.len());
        self.body.truncate(self.filled);
        self.body.extend_from_slice(&bytes[..n]);
        self.filled += n;
        n
    }
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends raw bytes from the wire.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        if let Some(p) = &mut self.partial {
            bytes = &bytes[p.fill_from(bytes)..];
        }
        if !bytes.is_empty() {
            self.head.extend(bytes);
        }
    }

    /// Bytes buffered but not yet popped as frames, headers included.
    pub fn buffered(&self) -> usize {
        let partial = self.partial.as_ref().map_or(0, |p| 5 + p.filled);
        self.head.unparsed().len() + partial
    }

    /// Read sweep: reads from `r` until it would block, hits EOF, or
    /// `max_bytes` arrive this sweep (one peer cannot monopolize the
    /// reactor), parsing every complete frame. Fatal errors (including a
    /// malformed length) kill the session.
    pub fn read_from(&mut self, r: &mut impl Read, max_bytes: usize) -> io::Result<ReadStep> {
        let mut frames = Vec::new();
        let mut taken = 0;
        loop {
            let room = self.room();
            let len = room.len().min((max_bytes - taken).max(1));
            match r.read(&mut room[..len]) {
                Ok(0) => {
                    self.pop_into(&mut frames)?;
                    return Ok(ReadStep::Eof(frames));
                }
                Ok(n) => {
                    match self.partial.as_mut().filter(|p| !p.is_complete()) {
                        Some(p) => p.filled += n,
                        None => self.head.end += n,
                    }
                    self.pop_into(&mut frames)?;
                    taken += n;
                    if taken >= max_bytes {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(ReadStep::Frames(frames))
    }

    /// Where the next read lands: the unfinished body if there is one, else
    /// the head.
    fn room(&mut self) -> &mut [u8] {
        match self.partial.as_mut().filter(|p| !p.is_complete()) {
            Some(p) => p.room(),
            None => self.head.room(),
        }
    }

    fn pop_into(&mut self, frames: &mut Vec<(u8, Vec<u8>)>) -> io::Result<()> {
        while let Some(f) = self.next_frame()? {
            frames.push(f);
        }
        Ok(())
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    /// A zero or oversized length is a protocol error (hostile or corrupt
    /// peer); the caller must kill the session.
    pub fn next_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        if let Some(p) = &self.partial {
            if !p.is_complete() {
                return Ok(None);
            }
            let Partial { tag, mut body, filled, .. } = self.partial.take().expect("checked above");
            body.truncate(filled);
            return Ok(Some((tag, body)));
        }
        let avail = self.head.unparsed();
        let Some(len_bytes) = avail.first_chunk::<4>() else { return Ok(None) };
        let len = u32::from_le_bytes(*len_bytes) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad frame length"));
        }
        let Some(&tag) = avail.get(4) else { return Ok(None) };
        if avail.len() >= 4 + len {
            let body = avail[5..4 + len].to_vec();
            self.head.start += 4 + len;
            return Ok(Some((tag, body)));
        }
        // The body is longer than what is buffered: what has arrived moves
        // into the frame's own `Vec`, and the rest is read straight there.
        let body = avail[5..].to_vec();
        self.partial = Some(Partial { tag, filled: body.len(), body, want: len - 1 });
        self.head.start = self.head.end;
        Ok(None)
    }

    /// Heap bytes the assembler holds.
    #[cfg(test)]
    fn footprint(&self) -> usize {
        self.head.buf.capacity() + self.partial.as_ref().map_or(0, |p| p.body.capacity())
    }
}

/// The outbound buffer is full: the peer has not drained `hard_cap` bytes of
/// already-accepted frames. Callers kill the session (fail-fast) rather than
/// drop or reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow;

/// Bounded outbound byte queue. Frames are encoded at enqueue time and
/// drained strictly in order by the reactor's write sweep; partial writes
/// leave a front offset, so a slow peer never sees bytes out of order.
pub struct OutBuf {
    chunks: VecDeque<Vec<u8>>,
    front_off: usize,
    pending: usize,
    watermark: usize,
    hard_cap: usize,
}

impl OutBuf {
    /// Creates a buffer with the given read-pause watermark and hard cap.
    pub fn new(watermark: usize, hard_cap: usize) -> OutBuf {
        OutBuf { chunks: VecDeque::new(), front_off: 0, pending: 0, watermark, hard_cap }
    }

    /// Encodes and enqueues one frame. Errors (without enqueuing anything)
    /// if `hard_cap` bytes are already pending — the frame is never
    /// truncated or partially accepted.
    pub fn push_frame(&mut self, tag: u8, body: &[u8]) -> Result<(), Overflow> {
        if self.pending >= self.hard_cap {
            return Err(Overflow);
        }
        let len = body.len() + 1;
        let mut chunk = Vec::with_capacity(4 + len);
        chunk.extend_from_slice(&(len as u32).to_le_bytes());
        chunk.push(tag);
        chunk.extend_from_slice(body);
        self.pending += chunk.len();
        self.chunks.push_back(chunk);
        Ok(())
    }

    /// Bytes enqueued but not yet written to the socket.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when nothing is pending (a drain-to-close can complete).
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// True when the buffer is above its read-pause watermark.
    pub fn over_watermark(&self) -> bool {
        self.pending > self.watermark
    }

    /// Write sweep: drains outbound bytes into `w` until it would block,
    /// errors, or the buffer empties. Returns bytes written this sweep;
    /// `WouldBlock`/`Interrupted` are not errors, anything else is fatal to
    /// the session.
    pub fn drain_into(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut total = 0;
        while let Some(chunk) = self.chunks.front() {
            match w.write(&chunk[self.front_off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    total += n;
                    self.pending -= n;
                    self.front_off += n;
                    if self.front_off == chunk.len() {
                        self.chunks.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }
}

/// What one read sweep over a session produced.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStep {
    /// Zero or more complete frames arrived (possibly none: a partial frame
    /// is buffered). The connection is still open.
    Frames(Vec<(u8, Vec<u8>)>),
    /// The peer half-closed its write side (`read` returned 0). Any frames
    /// parsed from the final bytes are included; the session should drain
    /// its outbound buffer and then close.
    Eof(Vec<(u8, Vec<u8>)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use proptest::prelude::*;

    /// A scripted nonblocking reader: each entry is either bytes to return
    /// (split however the script says), a `WouldBlock`, or EOF (empty vec
    /// terminator).
    struct ScriptedReader {
        script: VecDeque<Option<Vec<u8>>>,
        eof_after: bool,
    }

    impl ScriptedReader {
        fn new(script: Vec<Option<Vec<u8>>>, eof_after: bool) -> ScriptedReader {
            ScriptedReader { script: script.into(), eof_after }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Some(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk exceeds read buffer");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                None if self.eof_after => Ok(0),
                None => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    /// A writer that accepts at most `per_call` bytes per write and a
    /// scripted number of `WouldBlock`s in between — a slow-draining peer.
    struct SlowWriter {
        accepted: Vec<u8>,
        per_call: usize,
        block_every: usize,
        calls: usize,
    }

    impl SlowWriter {
        fn new(per_call: usize, block_every: usize) -> SlowWriter {
            SlowWriter { accepted: Vec::new(), per_call, block_every, calls: 0 }
        }
    }

    impl Write for SlowWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.block_every != 0 && self.calls.is_multiple_of(self.block_every) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.per_call);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn encode(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, tag, body).unwrap();
        wire
    }

    #[test]
    fn assembler_handles_split_frames() {
        // One frame delivered a byte at a time, then two frames in one read.
        let wire = encode(7, b"hello");
        let mut asm = FrameAssembler::new();
        for (i, b) in wire.iter().enumerate() {
            asm.extend(&[*b]);
            let got = asm.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame completed early at byte {i}");
            } else {
                assert_eq!(got, Some((7, b"hello".to_vec())));
            }
        }
        let mut two = encode(1, b"a");
        two.extend_from_slice(&encode(2, b"bb"));
        asm.extend(&two);
        assert_eq!(asm.next_frame().unwrap(), Some((1, b"a".to_vec())));
        assert_eq!(asm.next_frame().unwrap(), Some((2, b"bb".to_vec())));
        assert_eq!(asm.next_frame().unwrap(), None);
    }

    #[test]
    fn assembler_rejects_bad_lengths() {
        let mut asm = FrameAssembler::new();
        asm.extend(&[0, 0, 0, 0]); // zero length
        assert!(asm.next_frame().is_err());
        let mut asm = FrameAssembler::new();
        asm.extend(&u32::MAX.to_le_bytes()); // oversized
        assert!(asm.next_frame().is_err());
    }

    #[test]
    fn read_step_partial_reads_across_wouldblocks() {
        // A frame split across three readable windows separated by
        // WouldBlocks: each sweep returns no frame until the last byte lands.
        let wire = encode(9, b"partial");
        let (a, rest) = wire.split_at(3);
        let (b, c) = rest.split_at(4);
        let mut r = ScriptedReader::new(
            vec![Some(a.to_vec()), None, Some(b.to_vec()), None, Some(c.to_vec())],
            false,
        );
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.read_from(&mut r, usize::MAX).unwrap(), ReadStep::Frames(vec![]));
        assert_eq!(asm.read_from(&mut r, usize::MAX).unwrap(), ReadStep::Frames(vec![]));
        assert_eq!(
            asm.read_from(&mut r, usize::MAX).unwrap(),
            ReadStep::Frames(vec![(9, b"partial".to_vec())])
        );
    }

    #[test]
    fn read_step_half_close_flushes_trailing_frames() {
        // Peer sends two frames then half-closes: EOF must still surface the
        // final parsed frames so none are lost.
        let mut wire = encode(4, b"one");
        wire.extend_from_slice(&encode(4, b"two"));
        let mut r = ScriptedReader::new(vec![Some(wire)], true);
        let mut asm = FrameAssembler::new();
        match asm.read_from(&mut r, usize::MAX).unwrap() {
            ReadStep::Frames(f) => {
                assert_eq!(f.len(), 2);
                // Next sweep sees the EOF.
                match asm.read_from(&mut r, usize::MAX).unwrap() {
                    ReadStep::Eof(rest) => assert!(rest.is_empty()),
                    other => panic!("expected EOF, got {other:?}"),
                }
            }
            ReadStep::Eof(f) => assert_eq!(f.len(), 2),
        }
    }

    #[test]
    fn slow_drain_writer_preserves_byte_order() {
        // Enqueue many frames, drain through a writer that takes 3 bytes at
        // a time and blocks every 5th call: the accepted byte stream must be
        // exactly the concatenation of the frames, in order.
        let mut out = OutBuf::new(WATERMARK, HARD_CAP);
        let mut expect = Vec::new();
        for i in 0..20u8 {
            let body = vec![i; (i as usize % 7) + 1];
            out.push_frame(i, &body).unwrap();
            expect.extend_from_slice(&encode(i, &body));
        }
        let mut w = SlowWriter::new(3, 5);
        while !out.is_empty() {
            out.drain_into(&mut w).unwrap();
        }
        assert_eq!(w.accepted, expect);
    }

    #[test]
    fn backpressure_pauses_reads_but_never_drops_or_reorders() {
        // Regression: with a tiny watermark and a slow peer, the session
        // pauses reads (backpressure) yet every enqueued frame is delivered
        // exactly once, in order.
        let mut out = OutBuf::new(64, 1 << 20);
        let mut expect = Vec::new();
        for i in 0..50u8 {
            out.push_frame(10, &[i; 16]).unwrap();
            expect.extend_from_slice(&encode(10, &[i; 16]));
        }
        assert!(out.over_watermark(), "over-watermark session must pause reads");

        let mut w = SlowWriter::new(7, 0);
        let mut sweeps = 0;
        while !out.is_empty() {
            out.drain_into(&mut w).unwrap();
            sweeps += 1;
            assert!(sweeps < 10_000, "drain did not make progress");
        }
        assert!(!out.over_watermark(), "drained session must resume reads");
        assert_eq!(w.accepted, expect, "frames dropped or reordered under backpressure");
    }

    #[test]
    fn outbuf_hard_cap_refuses_without_corrupting() {
        let mut out = OutBuf::new(8, 32);
        out.push_frame(1, &[0; 40]).unwrap(); // first frame always fits
        assert_eq!(out.push_frame(1, b"more"), Err(Overflow));
        // The refused frame left no partial bytes behind.
        assert_eq!(out.pending(), 4 + 1 + 40);
        // Draining past the cap re-admits frames.
        let mut w = SlowWriter::new(usize::MAX, 0);
        out.drain_into(&mut w).unwrap();
        assert!(out.push_frame(2, b"ok").is_ok());
    }

    #[test]
    fn write_error_is_fatal() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = OutBuf::new(WATERMARK, HARD_CAP);
        out.push_frame(1, b"x").unwrap();
        assert_eq!(out.drain_into(&mut Broken).unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_budget_bounds_one_sweep() {
        // A firehose peer: read_from must stop at max_bytes even though more
        // is readable, so one session cannot monopolize the reactor.
        let frame = encode(3, &[7; 100]);
        let script: Vec<Option<Vec<u8>>> = (0..32).map(|_| Some(frame.clone())).collect();
        let mut r = ScriptedReader::new(script, false);
        let mut asm = FrameAssembler::new();
        match asm.read_from(&mut r, 4 * frame.len()).unwrap() {
            ReadStep::Frames(f) => assert_eq!(f.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A nonblocking reader over a fixed byte string: each read hands over
    /// at most the next scripted size (and never more than the caller's
    /// buffer), a scripted step may be a `WouldBlock` first, and the end of
    /// the bytes is EOF. The script repeats.
    struct SplitReader {
        wire: Vec<u8>,
        pos: usize,
        script: Vec<(usize, bool)>,
        step: usize,
        blocked: bool,
    }

    impl SplitReader {
        fn new(wire: Vec<u8>, script: Vec<(usize, bool)>) -> SplitReader {
            SplitReader { wire, pos: 0, script, step: 0, blocked: false }
        }
    }

    impl Read for SplitReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let (size, block) = self.script[self.step % self.script.len()];
            if block && !self.blocked {
                self.blocked = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.blocked = false;
            self.step += 1;
            let n = size.min(buf.len()).min(self.wire.len() - self.pos);
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Frame bodies from small to several read chunks long, with contents
    /// that differ per frame and per byte.
    fn frames_from(specs: &[(u8, usize, u8)]) -> Vec<(u8, Vec<u8>)> {
        const LENS: [usize; 4] = [0, 37, READ_CHUNK + 5, 5 * READ_CHUNK + 123];
        specs
            .iter()
            .map(|&(tag, size, salt)| {
                let len = LENS[size % LENS.len()] + salt as usize;
                let body = (0..len).map(|i| ((i ^ (i >> 8)) * 31) as u8 ^ salt).collect();
                (tag, body)
            })
            .collect()
    }

    fn wire_of(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
        frames.iter().flat_map(|(t, b)| encode(*t, b)).collect()
    }

    /// Drives `read_from` sweeps until EOF or an error; returns every frame
    /// that came out and how the stream ended.
    fn drain(
        asm: &mut FrameAssembler,
        r: &mut SplitReader,
        budget: usize,
    ) -> (Vec<(u8, Vec<u8>)>, io::Result<()>) {
        let mut got = Vec::new();
        for _ in 0..1_000_000 {
            match asm.read_from(r, budget) {
                Ok(ReadStep::Frames(f)) => got.extend(f),
                Ok(ReadStep::Eof(f)) => {
                    got.extend(f);
                    return (got, Ok(()));
                }
                Err(e) => return (got, Err(e)),
            }
        }
        panic!("the reader never reached EOF");
    }

    proptest! {
        /// Any frame sequence, split any way with `WouldBlock`s between
        /// reads and any read budget, comes out byte-identical and in order.
        #[test]
        fn assembler_reassembles_any_split(
            specs in prop::collection::vec((any::<u8>(), 0usize..4, any::<u8>()), 0..6),
            script in prop::collection::vec((1usize..3 * READ_CHUNK, any::<bool>()), 1..8),
            budget in 1usize..8 * READ_CHUNK,
        ) {
            let frames = frames_from(&specs);
            let mut r = SplitReader::new(wire_of(&frames), script);
            let mut asm = FrameAssembler::new();
            let (got, end) = drain(&mut asm, &mut r, budget);
            prop_assert!(end.is_ok(), "{end:?}");
            prop_assert!(got == frames, "frames differ");
            prop_assert_eq!(asm.buffered(), 0);
        }

        /// `extend` and `next_frame`, fed the same bytes in any split, give
        /// the same frames.
        #[test]
        fn assembler_extend_matches_any_split(
            specs in prop::collection::vec((any::<u8>(), 0usize..4, any::<u8>()), 1..6),
            cuts in prop::collection::vec(1usize..3 * READ_CHUNK, 1..8),
        ) {
            let frames = frames_from(&specs);
            let wire = wire_of(&frames);
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            let (mut pos, mut i) = (0, 0);
            while pos < wire.len() {
                let n = cuts[i % cuts.len()].min(wire.len() - pos);
                asm.extend(&wire[pos..pos + n]);
                while let Some(f) = asm.next_frame().unwrap() {
                    got.push(f);
                }
                pos += n;
                i += 1;
            }
            prop_assert!(got == frames, "frames differ");
        }

        /// A zero or oversized length after any valid frames is
        /// `InvalidData`, however the bytes are split.
        #[test]
        fn assembler_rejects_bad_length_anywhere(
            specs in prop::collection::vec((any::<u8>(), 0usize..4, any::<u8>()), 0..4),
            script in prop::collection::vec((1usize..3 * READ_CHUNK, any::<bool>()), 1..8),
            oversize in 1u32..(u32::MAX - MAX_FRAME_LEN as u32),
            zero in any::<bool>(),
        ) {
            let frames = frames_from(&specs);
            let mut wire = wire_of(&frames);
            let len = if zero { 0 } else { MAX_FRAME_LEN as u32 + oversize };
            wire.extend_from_slice(&len.to_le_bytes());
            wire.extend_from_slice(&[9; 64]);
            let mut r = SplitReader::new(wire, script);
            let (got, end) = drain(&mut FrameAssembler::new(), &mut r, usize::MAX);
            prop_assert_eq!(end.map_err(|e| e.kind()), Err(io::ErrorKind::InvalidData));
            prop_assert!(frames.starts_with(&got), "a frame before the bad length was garbled");
        }

        /// EOF in the middle of a frame still hands over every complete
        /// frame before it.
        #[test]
        fn assembler_eof_mid_frame_keeps_earlier_frames(
            specs in prop::collection::vec((any::<u8>(), 0usize..4, any::<u8>()), 1..6),
            script in prop::collection::vec((1usize..3 * READ_CHUNK, any::<bool>()), 1..8),
            cut in any::<u64>(),
        ) {
            let frames = frames_from(&specs);
            let mut wire = wire_of(&frames);
            let last = encode(frames[frames.len() - 1].0, &frames[frames.len() - 1].1).len();
            // Keep 1 ..= last - 1 bytes of the final frame.
            wire.truncate(wire.len() - last + 1 + (cut % (last as u64 - 1)) as usize);
            let mut r = SplitReader::new(wire, script);
            let (got, end) = drain(&mut FrameAssembler::new(), &mut r, usize::MAX);
            prop_assert!(end.is_ok(), "{end:?}");
            prop_assert!(got == frames[..frames.len() - 1], "complete frames lost");
        }

        /// A peer that announces a huge frame and then sends only part of
        /// it holds memory in proportion to what it sent, not to what it
        /// announced.
        #[test]
        fn assembler_memory_follows_bytes_received(
            len in 1u32..MAX_FRAME_LEN as u32,
            sent in 0usize..6 * READ_CHUNK,
            script in prop::collection::vec((1usize..3 * READ_CHUNK, any::<bool>()), 1..8),
        ) {
            let mut wire = (len + 1).to_le_bytes().to_vec();
            wire.push(1);
            wire.extend((0..sent.min(len as usize - 1)).map(|i| i as u8));
            let received = wire.len();
            let mut r = SplitReader::new(wire, script);
            let mut asm = FrameAssembler::new();
            let (got, end) = drain(&mut asm, &mut r, usize::MAX);
            prop_assert!(end.is_ok() && got.is_empty());
            prop_assert!(
                asm.footprint() <= 2 * received + 2 * READ_CHUNK + 64,
                "{} bytes held after {received} received",
                asm.footprint()
            );
        }
    }
}
