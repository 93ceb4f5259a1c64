//! The sealed-block layer: how a partition that lives outside the enclave is
//! AEAD-sealed, and how the enclave checks it on the way back in (paper §2
//! "Data integrity", §7: "for memory outside the enclave, we store a digest
//! of each block inside the enclave"). Both untrusted tiers use it — the RAM
//! image of [`crate::ExternalBackend`] and the segment files of
//! `snoopy-store`'s `DiskBackend` — and no other code knows the rule.
//!
//! **Block format.** A partition of `count` objects is cut into
//! [`Geometry::nblocks`] blocks of [`Geometry::objs_per_block`] records; a
//! record is the 8-byte little-endian id, then the value. The last block is
//! zero-padded, so every sealed block has the public length
//! [`Geometry::sealed_len`]: the ciphertext, then its 16-byte Poly1305 tag.
//!
//! **Sealing discipline.** Every sealing pass (a fresh image, each scan's
//! write-back, each disk commit of a resident partition) draws a random
//! 128-bit pass id and seals under its own key, `root.derive("disk-pass" ‖
//! id)`; block `i` uses nonce `i` and AAD `i` ([`Pass`]). The label keeps
//! the disk tier's name so its existing segments still open; each tier has
//! its own pass root, so the tiers never share a key. The enclave keeps every
//! block's tag and compares it in constant time before it opens the block
//! ([`Pass::open_active`]). A block moved from another index fails the tag
//! compare and the AEAD; a block replayed from an earlier pass fails the tag
//! compare even if that pass drew the same id. [`root_digest`] binds (pass
//! id, count, tags) into one value for a tier whose image outlives the
//! enclave.
//!
//! **Nonce budget.** A pass seals each of its nonces `0..nblocks` once, so
//! no (key, nonce) pair repeats while pass ids do not; ids are 128-bit draws
//! from a PRG seeded with OS entropy. No counter has to survive a restart.
//!
//! Per block and per scan the cost is one AEAD pass and one 16-byte compare.

use snoopy_crypto::aead::{AeadKey, Nonce, TAG_LEN};
use snoopy_crypto::hmac::hmac_sha256;
use snoopy_crypto::poly1305::tags_equal;
use snoopy_crypto::rng::Rng;
use snoopy_crypto::{Key256, Prg};

use crate::IntegrityError;

/// A sealed block's Poly1305 tag, which the enclave keeps as the block's
/// digest.
pub type Tag = [u8; TAG_LEN];

/// The public layout of a sealed partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of stored objects.
    pub count: usize,
    /// The public object size.
    pub value_len: usize,
    /// Records per block (at least one).
    pub objs_per_block: usize,
}

impl Geometry {
    /// `count` objects of `value_len` bytes, as many per block as fit in
    /// `block_bytes` of plaintext, and at least one.
    pub fn new(count: usize, value_len: usize, block_bytes: usize) -> Geometry {
        Geometry { count, value_len, objs_per_block: (block_bytes / (8 + value_len)).max(1) }
    }

    /// Number of sealed blocks (one, all padding, for an empty partition).
    pub fn nblocks(&self) -> usize {
        self.count.div_ceil(self.objs_per_block).max(1)
    }

    /// Plaintext bytes per block.
    pub fn plain_len(&self) -> usize {
        self.objs_per_block * (8 + self.value_len)
    }

    /// Sealed bytes per block: the plaintext's length, then the tag.
    pub fn sealed_len(&self) -> usize {
        self.plain_len() + TAG_LEN
    }

    /// Real records in block `index`; the rest of the block is padding.
    pub fn objs_in_block(&self, index: usize) -> usize {
        self.count.saturating_sub(index * self.objs_per_block).min(self.objs_per_block)
    }

    /// Writes the plaintext of block `index` to the front of `block`, object
    /// `i` of the partition being `record(i)` as `(id, value)`, and zeroes
    /// the padding.
    pub fn pack<'a>(
        &self,
        index: usize,
        block: &mut [u8],
        record: impl Fn(usize) -> (u64, &'a [u8]),
    ) {
        let objs = self.objs_in_block(index);
        let obj_len = 8 + self.value_len;
        for (j, rec) in block.chunks_exact_mut(obj_len).take(objs).enumerate() {
            let (id, value) = record(index * self.objs_per_block + j);
            assert_eq!(value.len(), self.value_len, "record length is fixed and public");
            rec[..8].copy_from_slice(&id.to_le_bytes());
            rec[8..].copy_from_slice(value);
        }
        block[objs * obj_len..self.plain_len()].fill(0);
    }

    /// Visits the records of the opened block `index` in place as
    /// `(id, value)`.
    pub fn visit(&self, index: usize, block: &mut [u8], visit: &mut dyn FnMut(u64, &mut [u8])) {
        for record in block.chunks_exact_mut(8 + self.value_len).take(self.objs_in_block(index)) {
            let (id, value) = record.split_at_mut(8);
            visit(u64::from_le_bytes((&*id).try_into().expect("8 bytes")), value);
        }
    }
}

/// One sealing pass: a random 128-bit id and the key derived from it.
/// Block `i` of the pass is sealed under nonce `i`, AAD `i`.
pub struct Pass {
    /// The pass id (public: a disk segment's header carries it).
    pub id: u128,
    key: AeadKey,
}

impl Pass {
    /// The pass with id `id`: its key is `root.derive("disk-pass" ‖ id)`, so
    /// distinct passes never share a (key, nonce) pair.
    pub fn derive(root: &Key256, id: u128) -> Pass {
        let mut label = b"disk-pass".to_vec();
        label.extend_from_slice(&id.to_le_bytes());
        Pass { id, key: AeadKey::new(root.derive(&label)) }
    }

    /// A pass under `root` with an id drawn from `prg`.
    pub fn fresh(root: &Key256, prg: &mut Prg) -> Pass {
        Pass::derive(root, prg.gen())
    }

    /// Seals the plaintext at the front of `block` in place as block
    /// `index` and writes its tag into the last [`TAG_LEN`] bytes; returns
    /// the tag.
    pub fn seal(&self, index: usize, block: &mut [u8]) -> Tag {
        let (plain, tag_bytes) = block.split_at_mut(block.len() - TAG_LEN);
        let tag = self.key.seal_in_place(block_nonce(index), &block_aad(index), plain);
        tag_bytes.copy_from_slice(&tag);
        tag
    }

    /// Authenticates the sealed `block` as this pass's block `index` and
    /// decrypts it in place; the plaintext is `block[..len - TAG_LEN]`.
    pub fn open(&self, index: usize, block: &mut [u8]) -> Result<(), IntegrityError> {
        let (ct, tag) = block.split_at_mut(block.len() - TAG_LEN);
        let tag: &Tag = (&*tag).try_into().expect("TAG_LEN bytes");
        self.key
            .open_in_place(block_nonce(index), &block_aad(index), ct, tag)
            .map_err(|_| IntegrityError::Corrupted { index })
    }

    /// Authenticates the sealed `block` without decrypting it.
    pub fn verify(&self, index: usize, block: &[u8]) -> Result<(), IntegrityError> {
        let (ct, tag) = block.split_at(block.len() - TAG_LEN);
        self.key
            .verify(
                block_nonce(index),
                &block_aad(index),
                ct,
                tag.try_into().expect("TAG_LEN bytes"),
            )
            .map_err(|_| IntegrityError::Corrupted { index })
    }

    /// Opens block `index` of the image this pass sealed, in place. Its tag
    /// must equal `tags[index]`, the enclave's copy, before the block is
    /// authenticated under the pass key, so integrity does not rest on pass
    /// ids never repeating.
    pub fn open_active(
        &self,
        tags: &[Tag],
        index: usize,
        block: &mut [u8],
    ) -> Result<(), IntegrityError> {
        let tag: &Tag = block[block.len() - TAG_LEN..].try_into().expect("TAG_LEN bytes");
        if !tags_equal(tag, &tags[index]) {
            return Err(IntegrityError::Corrupted { index });
        }
        self.open(index, block)
    }
}

/// HMAC under `mac_key` over (pass id, count, every block's tag): a sealed
/// image's identity in one value.
pub fn root_digest(mac_key: &Key256, pass_id: u128, count: usize, tags: &[Tag]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(24 + tags.len() * TAG_LEN);
    buf.extend_from_slice(&pass_id.to_le_bytes());
    buf.extend_from_slice(&(count as u64).to_le_bytes());
    for tag in tags {
        buf.extend_from_slice(tag);
    }
    hmac_sha256(&mac_key.0, &buf)
}

fn block_nonce(index: usize) -> Nonce {
    Nonce::from_parts(0, index as u64)
}

fn block_aad(index: usize) -> [u8; 8] {
    (index as u64).to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The disk tier's format, pinned: root key `[7; 32]` under the disk
    /// tier's labels, a fixed pass id, three 8-byte objects two to a block.
    /// The expected bytes were produced by the disk tier as it stood before
    /// this layer was shared, so a segment it wrote still opens.
    #[test]
    fn sealed_block_known_answer() {
        let root = Key256([7u8; 32]);
        let pass = Pass::derive(
            &root.derive(b"disk-store-aead"),
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
        );
        let geom = Geometry::new(3, 8, 32);
        assert_eq!((geom.nblocks(), geom.objs_per_block, geom.sealed_len()), (2, 2, 48));
        let values: Vec<[u8; 8]> = (1..=3u8).map(|i| [i * 0x11; 8]).collect();
        let mut tags = Vec::new();
        let mut blocks = Vec::new();
        for i in 0..geom.nblocks() {
            let mut block = vec![0xFFu8; geom.sealed_len()];
            geom.pack(i, &mut block, |j| (j as u64 + 1, &values[j][..]));
            tags.push(pass.seal(i, &mut block));
            blocks.push(hex(&block));
        }
        assert_eq!(
            blocks,
            [
                "c54aa2430b07c4412c6537e435959c66558b14df8bf77f3ec45c9e8235fd1f09\
                 45bbaeb6f55c5e65912d16391d34ed3c",
                "0e8749877ca2be543b8c4d669bec6a42932c88903cc5e689b8c807bf4441dbb5\
                 36eeddd9c02c4029140910359647687b",
            ]
        );
        assert_eq!(
            hex(&root_digest(&root.derive(b"disk-store-mac"), pass.id, 3, &tags)),
            "1e8fbdb89e1e8daf3a8179f68ffb2e363adf7c1281d87082d9fad8c754f084a1"
        );
    }
}
