//! The external tier: a partition AEAD-sealed in untrusted memory, the
//! paper's deployment for partitions that exceed the EPC (§2, §7). The
//! image is one contiguous buffer of sealed blocks, one object per block, in
//! the format and under the sealing discipline of [`crate::sealed`]; the
//! enclave holds the pass key and every block's tag.
//!
//! A scan opens each block in place, visits its object, and reseals it in
//! place under a fresh pass, whether or not the object changed, so writes are
//! invisible to the host.
//!
//! Fail-stop: a scan that meets a bad block returns at once and leaves the
//! blocks before it resealed under a pass the enclave never adopts, so the
//! image no longer opens at all. The [`crate::SubOram`] above poisons itself
//! on that first `Integrity` error, so nothing is served from such an image.

use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::StoredObject;

use crate::sealed::{Geometry, Pass, Tag};
use crate::{SnapshotError, StorageBackend, SubOramError};

/// Objects AEAD-sealed in untrusted memory, one per block, with every
/// block's tag inside the enclave.
pub struct ExternalBackend {
    geom: Geometry,
    /// Untrusted: the sealed blocks, back to back.
    image: Vec<u8>,
    /// Trusted: the key every pass key is derived from.
    pass_root: Key256,
    /// Trusted: the pass the image is sealed under.
    pass: Pass,
    /// Trusted: every block's tag.
    tags: Vec<Tag>,
    prg: Prg,
}

impl ExternalBackend {
    /// Seals `objects` (every value `value_len` bytes) into a fresh image
    /// under a pass root derived from `key`.
    pub fn new(objects: &[StoredObject], value_len: usize, key: &Key256) -> ExternalBackend {
        let geom = Geometry { count: objects.len(), value_len, objs_per_block: 1 };
        let pass_root = key.derive(b"external-store-aead");
        let mut prg = Prg::from_entropy();
        let pass = Pass::fresh(&pass_root, &mut prg);
        let mut image = vec![0u8; geom.nblocks() * geom.sealed_len()];
        let tags = image
            .chunks_exact_mut(geom.sealed_len())
            .enumerate()
            .map(|(i, block)| {
                geom.pack(i, block, |j| (objects[j].id, &objects[j].value));
                pass.seal(i, block)
            })
            .collect();
        ExternalBackend { geom, image, pass_root, pass, tags, prg }
    }
}

impl StorageBackend for ExternalBackend {
    fn len(&self) -> usize {
        self.geom.count
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u64, &mut [u8])) -> Result<(), SubOramError> {
        let next = Pass::fresh(&self.pass_root, &mut self.prg);
        let plain_len = self.geom.plain_len();
        for (i, block) in self.image.chunks_exact_mut(self.geom.sealed_len()).enumerate() {
            self.pass.open_active(&self.tags, i, block)?;
            self.geom.visit(i, &mut block[..plain_len], visit);
            self.tags[i] = next.seal(i, block);
        }
        self.pass = next;
        Ok(())
    }

    fn for_each(&self, visit: &mut dyn FnMut(u64, &[u8])) -> Result<(), SubOramError> {
        let mut block = vec![0u8; self.geom.sealed_len()];
        for (i, sealed) in self.image.chunks_exact(block.len()).enumerate() {
            block.copy_from_slice(sealed);
            self.pass.open_active(&self.tags, i, &mut block)?;
            self.geom.visit(i, &mut block, &mut |id, value| visit(id, value));
        }
        Ok(())
    }

    fn snapshot(&self) -> Result<Vec<StoredObject>, SnapshotError> {
        let mut out = Vec::with_capacity(self.geom.count);
        self.for_each(&mut |id, value| out.push(StoredObject { id, value: value.to_vec() }))
            .map_err(SnapshotError::Failed)?;
        Ok(out)
    }

    fn untrusted_image(&mut self) -> Option<Vec<u8>> {
        Some(self.image.clone())
    }

    fn restore_untrusted_image(&mut self, image: &[u8]) -> bool {
        if image.len() != self.image.len() {
            return false;
        }
        self.image.copy_from_slice(image);
        true
    }

    fn corrupt_block(&mut self, index: usize) -> bool {
        if index >= self.geom.nblocks() {
            return false;
        }
        self.image[index * self.geom.sealed_len()] ^= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntegrityError;

    const VLEN: usize = 16;

    /// Eight objects; object `i` starts with the byte `i`.
    fn store() -> ExternalBackend {
        let objects: Vec<_> = (0..8).map(|i| StoredObject::new(i, &[i as u8; 4], VLEN)).collect();
        ExternalBackend::new(&objects, VLEN, &Key256([1u8; 32]))
    }

    fn corrupted(index: usize) -> Result<(), SubOramError> {
        Err(SubOramError::Integrity(IntegrityError::Corrupted { index }))
    }

    /// Replaces sealed block `to` of `s` with block `from` of `source`.
    fn splice(s: &mut ExternalBackend, source: &[u8], from: usize, to: usize) {
        let (mut image, len) = (s.image.clone(), s.geom.sealed_len());
        image[to * len..(to + 1) * len].copy_from_slice(&source[from * len..(from + 1) * len]);
        assert!(s.restore_untrusted_image(&image));
    }

    #[test]
    fn roundtrip() {
        let mut s = store();
        s.scan(&mut |id, v| v[1] = id as u8 + 0xA0).unwrap();
        let mut seen = Vec::new();
        s.for_each(&mut |id, v| seen.push((id, v[..2].to_vec()))).unwrap();
        assert_eq!(seen, (0..8).map(|i| (i, vec![i as u8, i as u8 + 0xA0])).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_range() {
        let mut s = store();
        let image = s.untrusted_image().unwrap();
        assert!(!s.corrupt_block(8) && !s.restore_untrusted_image(&image[1..]));
        s.scan(&mut |_, _| {}).unwrap();
    }

    #[test]
    fn detects_bit_flip() {
        let mut s = store();
        assert!(s.corrupt_block(2));
        assert_eq!(s.scan(&mut |_, _| {}), corrupted(2));
    }

    #[test]
    fn detects_block_swap() {
        let mut s = store();
        let image = s.image.clone();
        splice(&mut s, &image, 0, 1);
        splice(&mut s, &image, 1, 0);
        assert_eq!(s.for_each(&mut |_, _| {}), corrupted(0));
    }

    #[test]
    fn detects_rollback_of_single_block() {
        let mut s = store();
        let old = s.image.clone();
        s.scan(&mut |_, _| {}).unwrap();
        splice(&mut s, &old, 4, 4);
        assert_eq!(s.scan(&mut |_, _| {}), corrupted(4));
    }

    #[test]
    fn scan_visits_all_blocks_in_order() {
        let mut seen = Vec::new();
        store().scan(&mut |id, v| seen.push((id, v[0]))).unwrap();
        assert_eq!(seen, (0..8).map(|i| (i, i as u8)).collect::<Vec<_>>());
    }

    #[test]
    fn scan_aborts_on_corruption() {
        let mut s = store();
        assert!(s.corrupt_block(5));
        let mut count = 0;
        assert_eq!(s.scan(&mut |_, _| count += 1), corrupted(5));
        assert_eq!(count, 5);
        // Blocks 0..5 were resealed under a pass the enclave never adopted.
        assert_eq!(s.for_each(&mut |_, _| {}), corrupted(0));
    }

    #[test]
    #[should_panic(expected = "fixed and public")]
    fn wrong_block_length_panics() {
        ExternalBackend::new(&[StoredObject { id: 0, value: vec![0; 15] }], VLEN, &Key256([1; 32]));
    }
}
