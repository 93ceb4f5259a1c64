//! Per-link AEAD channels with sequence-number nonces.
//!
//! Every pair of machines in a Snoopy deployment (load balancer ↔ subORAM,
//! client ↔ load balancer) communicates over an encrypted, replay-protected
//! channel (§3.1). A [`Link`] is one *direction* of such a channel: it seals
//! request batches under a per-link key with a `(channel id, sequence
//! number)` nonce, and rejects anything that is not the exact next message —
//! replays, reordering, and tampering all fail authentication because the
//! expected nonce has moved on.
//!
//! Both the in-process cluster ([`crate::deploy`]) and the TCP deployment
//! plane (`snoopy-net`) speak this format, so the network layer never sees
//! plaintext requests.

use snoopy_crypto::aead::{AeadKey, Nonce, SealedBox, TAG_LEN};
use snoopy_crypto::Key256;
use snoopy_enclave::wire::{
    decode_request, decode_response, encode_request_into, encode_response_into, Request, Response,
    REQUEST_HEADER, RESPONSE_HEADER,
};

/// Errors raised by link sealing/opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// Authentication failed: the message was tampered with, reordered, or
    /// replayed. The channel cannot be used further.
    Integrity,
    /// The 64-bit sequence space is exhausted; continuing would reuse a
    /// nonce, so the link refuses instead of wrapping.
    NonceExhausted,
    /// Decrypted payload does not frame into whole requests.
    Malformed,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Integrity => write!(f, "link integrity failure: tampered or replayed batch"),
            LinkError::NonceExhausted => write!(f, "link nonce space exhausted"),
            LinkError::Malformed => write!(f, "malformed request frame"),
        }
    }
}

impl std::error::Error for LinkError {}

/// One direction of a per-link AEAD channel.
pub struct Link {
    key: AeadKey,
    channel_id: u32,
    send_seq: u64,
    recv_seq: u64,
}

impl Link {
    /// Creates one endpoint of a channel. Peers must construct their ends
    /// from the same key and channel id (the channel plane draws keys from
    /// its boot PRG; the TCP plane derives them per session from the
    /// deployment key).
    pub fn new(key: Key256, channel_id: u32) -> Link {
        Link { key: AeadKey::new(key), channel_id, send_seq: 0, recv_seq: 0 }
    }

    /// Creates both endpoints of a channel at once (in-process deployments).
    pub fn pair(key: Key256, channel_id: u32) -> (Link, Link) {
        let k = AeadKey::new(key);
        (
            Link { key: k.clone(), channel_id, send_seq: 0, recv_seq: 0 },
            Link { key: k, channel_id, send_seq: 0, recv_seq: 0 },
        )
    }

    /// Fault-injection constructor for tests: starts the sequence counters at
    /// the given values (e.g. near `u64::MAX` to exercise nonce exhaustion).
    pub fn with_sequences(key: Key256, channel_id: u32, send_seq: u64, recv_seq: u64) -> Link {
        Link { key: AeadKey::new(key), channel_id, send_seq, recv_seq }
    }

    /// Seals a batch of requests as the next message on this link.
    pub fn seal(&mut self, batch: &[Request]) -> Result<SealedBox, LinkError> {
        self.seal_rows(batch, |r| REQUEST_HEADER + r.value.len(), encode_request_into)
    }

    /// Opens the next message on this link. Anything that is not the exact
    /// next sealed batch — a replay, a reordering, a forgery — fails with
    /// [`LinkError::Integrity`].
    pub fn open(
        &mut self,
        sealed: &SealedBox,
        value_len: usize,
    ) -> Result<Vec<Request>, LinkError> {
        self.open_rows(sealed, REQUEST_HEADER + value_len, |c| decode_request(c, value_len))
    }

    /// Seals a batch of client responses as the next message on this link
    /// (the client ↔ load-balancer direction of the TCP plane).
    pub fn seal_responses(&mut self, batch: &[Response]) -> Result<SealedBox, LinkError> {
        self.seal_rows(batch, |r| RESPONSE_HEADER + r.value.len(), encode_response_into)
    }

    /// Opens a batch of client responses; the replay/reorder guarantees of
    /// [`Link::open`] apply identically.
    pub fn open_responses(
        &mut self,
        sealed: &SealedBox,
        value_len: usize,
    ) -> Result<Vec<Response>, LinkError> {
        self.open_rows(sealed, RESPONSE_HEADER + value_len, |c| decode_response(c, value_len))
    }

    /// Encodes every row straight into one buffer sized for the rows and the
    /// tag, and seals it in place. The AAD is the row count.
    fn seal_rows<T>(
        &mut self,
        rows: &[T],
        frame_len: impl Fn(&T) -> usize,
        encode: impl Fn(&T, &mut Vec<u8>),
    ) -> Result<SealedBox, LinkError> {
        let nonce = Nonce::from_parts(self.channel_id, self.send_seq);
        // Refuse to wrap: a repeated (key, nonce) pair would break both
        // confidentiality and the replay guarantee.
        self.send_seq = self.send_seq.checked_add(1).ok_or(LinkError::NonceExhausted)?;
        let mut bytes = Vec::with_capacity(rows.iter().map(frame_len).sum::<usize>() + TAG_LEN);
        for r in rows {
            encode(r, &mut bytes);
        }
        let tag = self.key.seal_in_place(nonce, &(rows.len() as u64).to_le_bytes(), &mut bytes);
        bytes.extend_from_slice(&tag);
        Ok(SealedBox { bytes })
    }

    /// Authenticates and decrypts the next message in place on one copy of
    /// its ciphertext, then splits it into `frame`-byte rows.
    fn open_rows<T>(
        &mut self,
        sealed: &SealedBox,
        frame: usize,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> Result<Vec<T>, LinkError> {
        let nonce = Nonce::from_parts(self.channel_id, self.recv_seq);
        self.recv_seq = self.recv_seq.checked_add(1).ok_or(LinkError::NonceExhausted)?;
        // The AAD binds the batch length; it is recomputed from the (public)
        // ciphertext length. A failure here means the untrusted network
        // tampered with, reordered, or replayed a message; the enclave cannot
        // proceed safely.
        let split = sealed.bytes.len().checked_sub(TAG_LEN).ok_or(LinkError::Integrity)?;
        let n = split / frame;
        let (ct, tag) = sealed.bytes.split_at(split);
        let mut plain = ct.to_vec();
        self.key
            .open_in_place(
                nonce,
                &(n as u64).to_le_bytes(),
                &mut plain,
                tag.try_into().expect("TAG_LEN bytes"),
            )
            .map_err(|_| LinkError::Integrity)?;
        if plain.len() != n * frame {
            return Err(LinkError::Malformed);
        }
        plain.chunks(frame).map(|c| decode(c).ok_or(LinkError::Malformed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VLEN: usize = 16;

    fn batch(n: u64) -> Vec<Request> {
        (0..n).map(|i| Request::read(i, VLEN, i, i)).collect()
    }

    #[test]
    fn roundtrip_and_sequencing() {
        let (mut a, mut b) = Link::pair(Key256([3u8; 32]), 9);
        for round in 0..4u64 {
            let sent = batch(round + 1);
            let sealed = a.seal(&sent).unwrap();
            assert_eq!(b.open(&sealed, VLEN).unwrap(), sent);
        }
    }

    #[test]
    fn replayed_batch_is_rejected() {
        let (mut a, mut b) = Link::pair(Key256([4u8; 32]), 1);
        let sealed = a.seal(&batch(3)).unwrap();
        assert!(b.open(&sealed, VLEN).is_ok());
        // Re-delivering the identical sealed box must fail: the receiver's
        // expected nonce has advanced past it.
        assert_eq!(b.open(&sealed, VLEN).unwrap_err(), LinkError::Integrity);
    }

    #[test]
    fn reordered_batches_are_rejected() {
        let (mut a, mut b) = Link::pair(Key256([5u8; 32]), 2);
        let first = a.seal(&batch(1)).unwrap();
        let second = a.seal(&batch(2)).unwrap();
        assert_eq!(b.open(&second, VLEN).unwrap_err(), LinkError::Integrity);
        // The failed open burned a nonce: the channel is dead by design.
        assert_eq!(b.open(&first, VLEN).unwrap_err(), LinkError::Integrity);
    }

    #[test]
    fn cross_channel_batches_are_rejected() {
        let (mut a, _) = Link::pair(Key256([6u8; 32]), 3);
        let (_, mut d) = Link::pair(Key256([6u8; 32]), 4);
        let sealed = a.seal(&batch(2)).unwrap();
        assert_eq!(d.open(&sealed, VLEN).unwrap_err(), LinkError::Integrity);
    }

    #[test]
    fn response_roundtrip_and_replay_rejection() {
        let (mut a, mut b) = Link::pair(Key256([8u8; 32]), 6);
        let sent: Vec<Response> = (0..3u64)
            .map(|i| Response { id: i, value: vec![i as u8; VLEN], client: i, seq: i })
            .collect();
        let sealed = a.seal_responses(&sent).unwrap();
        assert_eq!(b.open_responses(&sealed, VLEN).unwrap(), sent);
        assert_eq!(b.open_responses(&sealed, VLEN).unwrap_err(), LinkError::Integrity);
    }

    /// The one-buffer encoding changes no wire byte: in both directions the
    /// sealed message is `AeadKey::seal` over the concatenated row encodings,
    /// with the row count as AAD and `(channel, seq)` as nonce.
    #[test]
    fn sealed_bytes_equal_seal_of_concatenated_encodings() {
        use snoopy_enclave::wire::{encode_request, encode_response};
        let key = Key256([9u8; 32]);
        let aead = AeadKey::new(key.clone());
        let (mut a, mut b) = Link::pair(key, 7);
        let responses: Vec<Response> = (0..5u64)
            .map(|i| Response { id: i, value: vec![i as u8; VLEN], client: i, seq: i })
            .collect();
        for (seq, n) in [0u64, 1, 12].into_iter().enumerate() {
            let requests = batch(n);
            let plain: Vec<u8> = requests.iter().flat_map(encode_request).collect();
            let expected =
                aead.seal(Nonce::from_parts(7, 2 * seq as u64), &n.to_le_bytes(), &plain);
            let sealed = a.seal(&requests).unwrap();
            assert_eq!(sealed, expected);
            assert_eq!(b.open(&sealed, VLEN).unwrap(), requests);

            let rows = &responses[..n.min(5) as usize];
            let plain: Vec<u8> = rows.iter().flat_map(encode_response).collect();
            let expected = aead.seal(
                Nonce::from_parts(7, 2 * seq as u64 + 1),
                &(rows.len() as u64).to_le_bytes(),
                &plain,
            );
            let sealed = a.seal_responses(rows).unwrap();
            assert_eq!(sealed, expected);
            assert_eq!(b.open_responses(&sealed, VLEN).unwrap(), rows);
        }
    }

    #[test]
    fn nonce_overflow_errors_instead_of_wrapping() {
        let mut a = Link::with_sequences(Key256([7u8; 32]), 5, u64::MAX, 0);
        assert_eq!(a.seal(&batch(1)).unwrap_err(), LinkError::NonceExhausted);
        let mut b = Link::with_sequences(Key256([7u8; 32]), 5, 0, u64::MAX);
        let sealed = Link::with_sequences(Key256([7u8; 32]), 5, 0, 0).seal(&batch(1)).unwrap();
        assert_eq!(b.open(&sealed, VLEN).unwrap_err(), LinkError::NonceExhausted);
    }
}
