//! Sealed subORAM checkpoints: crash/restart survival for the TCP plane.
//!
//! A `snoopyd --role suboram` process checkpoints after executing an epoch
//! but *before* sending that epoch's responses (the `after_epoch` hook of
//! [`snoopy_core::transport::run_suboram`]). The checkpoint holds the
//! partition's objects plus the reply cache of recently executed epochs, so
//! a killed-and-restarted daemon resumes exactly where it stopped:
//!
//! * crash before the checkpoint lands → no response escaped, the balancer
//!   resends on reconnect, and the epoch re-executes from the previous state;
//! * crash after → the state is durable and redelivered batches are answered
//!   from the reply cache without re-executing (re-execution would corrupt
//!   write semantics, since writes return the pre-write value).
//!
//! The file is AEAD-sealed under a key derived from the deployment key (the
//! disk is untrusted, like the network) with a random 64-bit nonce stored in
//! the plaintext header, and replaced atomically via write-to-temp + rename.

use snoopy_core::transport::SubOramNode;
use snoopy_crypto::aead::{AeadKey, Nonce};
use snoopy_crypto::rng::Rng;
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{decode_request, encode_request_into, Request, StoredObject};
use snoopy_store::{DiskConfig, StorageKind};
use snoopy_suboram::{ObjectSlab, SnapshotError, StorageGeneration, SubOram, SubOramError};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

// Format v6: a mode byte distinguishes checkpoints that carry the partition
// inline (memory/external tiers) from disk-tier checkpoints that carry only
// the committed {generation, root digest} — the partition itself lives in
// the sealed on-disk segment, so the checkpoint stays O(reply cache) rather
// than O(partition). Epoch ids are composite (`epoch % num_lbs` names the
// owning balancer — see snoopy_core::transport), so each reply-cache epoch
// carries exactly one slot, not one per balancer as v4 did. A cached reply
// can be `None` (the epoch was *refused* with a typed error, not executed);
// encoded as count `u64::MAX`. Refusals must be durable like successes —
// replaying a refused batch after a restart has to re-refuse, not re-execute
// against mutated state.
//
// The header also carries:
// * one eviction watermark **per balancer residue class**: balancer i's
//   epoch ids stride by L, so a single global watermark taken as the max
//   across classes would wrongly evict a slow balancer's still-replayable
//   epochs after a restart;
// * a reshard `generation` and `active_s` stamping the fleet layout the
//   partition was written under, so a daemon killed mid-reshard recovers
//   into exactly one of {old, new} layouts — on the disk tier the
//   generation also names which segment directory holds the partition.
//
// Only this version is read. An older file fails `load` with an
// "unsupported format version" error rather than being upgraded by guesswork.
const MAGIC: &[u8; 8] = b"SNPCKPT6";

/// Sentinel batch count marking a refused (None) cached reply.
const REFUSED: u64 = u64::MAX;

/// Mode byte: partition objects are inline in the checkpoint.
const MODE_INLINE: u8 = 0;
/// Mode byte: the partition lives in a disk generation; the checkpoint
/// carries its {generation, root digest} for rollback-protected reopen.
const MODE_DISK: u8 = 1;

/// Where a daemon's partition lives — derived from the manifest; `load`
/// rebuilds the matching backend and refuses a checkpoint written for a
/// different tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageSpec {
    /// Modeled in-enclave memory.
    Memory,
    /// AEAD-sealed untrusted memory.
    External,
    /// AEAD-sealed segment files under `dir`, streamed through a bounded
    /// buffer.
    Disk {
        /// Segment directory (the daemon's `<store_dir>/sub<index>`).
        dir: PathBuf,
        /// Disk-tier geometry (sealed block size, buffer capacity).
        cfg: DiskConfig,
    },
}

impl StorageSpec {
    /// Builds the spec for subORAM `index` from manifest storage keys.
    pub fn from_manifest(m: &crate::manifest::Manifest, index: usize) -> StorageSpec {
        match m.storage {
            StorageKind::Memory => StorageSpec::Memory,
            StorageKind::External => StorageSpec::External,
            StorageKind::Disk => {
                StorageSpec::Disk { dir: m.store_path(index), cfg: m.disk_config() }
            }
        }
    }

    /// Builds a fresh (no checkpoint) subORAM over this tier holding
    /// `part`.
    pub fn fresh_suboram(
        &self,
        part: ObjectSlab,
        root_key: Key256,
        lambda: u32,
    ) -> io::Result<SubOram> {
        let value_len = part.value_len();
        Ok(match self {
            StorageSpec::Memory => SubOram::from_slab(part, root_key, lambda),
            StorageSpec::External => {
                SubOram::new_external(part.to_objects(), value_len, root_key, lambda)
            }
            StorageSpec::Disk { dir, cfg } => {
                snoopy_store::build_suboram_disk_from_slab(dir, part, *cfg, root_key, lambda)?
            }
        })
    }
}

/// Why a checkpoint could not be written.
#[derive(Debug)]
pub enum SaveError {
    /// The subORAM is poisoned (integrity or storage failure): its state
    /// must not be persisted as if healthy. The node keeps serving typed
    /// refusals; the stale checkpoint keeps describing the last good state.
    Integrity(SubOramError),
    /// The disk write itself failed.
    Io(io::Error),
}

impl fmt::Display for SaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaveError::Integrity(e) => write!(f, "checkpoint refused: {e}"),
            SaveError::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for SaveError {}

impl From<io::Error> for SaveError {
    fn from(e: io::Error) -> Self {
        SaveError::Io(e)
    }
}

/// Derives the checkpoint sealing key for subORAM `index`.
pub fn checkpoint_key(deploy: &Key256, index: usize) -> Key256 {
    let mut label = b"checkpoint/".to_vec();
    label.extend_from_slice(&(index as u64).to_le_bytes());
    deploy.derive(&label)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {msg}"))
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn u64(&mut self) -> io::Result<u64> {
        if self.0.len() < 8 {
            return Err(bad("truncated"));
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        Ok(u64::from_le_bytes(head.try_into().unwrap()))
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(bad("truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
}

fn encode_state(node: &SubOramNode) -> Result<Vec<u8>, SaveError> {
    if let Some(e) = node.oram().poisoned() {
        // A poisoned partition's state is suspect by definition; persisting
        // it would launder the failure into the next incarnation.
        return Err(SaveError::Integrity(e));
    }
    let value_len = node.oram().value_len();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(value_len as u64).to_le_bytes());
    out.extend_from_slice(&(node.num_lbs() as u64).to_le_bytes());
    for w in node.watermarks() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&node.generation().to_le_bytes());
    out.extend_from_slice(&(node.active_s() as u64).to_le_bytes());
    match node.oram().export_objects() {
        Ok(objects) => {
            out.push(MODE_INLINE);
            out.extend_from_slice(&(objects.len() as u64).to_le_bytes());
            for o in &objects {
                out.extend_from_slice(&o.id.to_le_bytes());
                out.extend_from_slice(&o.value);
            }
        }
        Err(SnapshotError::Streaming { .. }) => {
            // Disk tier: the partition is already durable in the sealed
            // generation committed just before this checkpoint. Recording
            // its {generation, root digest} here (inside the seal) is what
            // makes the on-disk store rollback-protected across restarts.
            let gen = node.oram().last_commit().ok_or_else(|| {
                SaveError::Io(bad("streaming backend has no committed generation"))
            })?;
            out.push(MODE_DISK);
            out.extend_from_slice(&gen.generation.to_le_bytes());
            out.extend_from_slice(&gen.digest);
        }
        Err(SnapshotError::Failed(e)) => return Err(SaveError::Integrity(e)),
    }
    let completed = node.completed();
    out.extend_from_slice(&(completed.len() as u64).to_le_bytes());
    for (epoch, batch) in completed {
        out.extend_from_slice(&epoch.to_le_bytes());
        match batch {
            Some(batch) => {
                out.extend_from_slice(&(batch.len() as u64).to_le_bytes());
                for r in batch {
                    encode_request_into(r, &mut out);
                }
            }
            None => out.extend_from_slice(&REFUSED.to_le_bytes()),
        }
    }
    Ok(out)
}

/// Where a decoded checkpoint says the partition lives.
enum Partition {
    /// Objects carried inline (memory/external tiers).
    Inline(Vec<StoredObject>),
    /// Partition in a committed disk generation.
    Disk(StorageGeneration),
}

/// Decoded checkpoint payload.
struct CheckpointState {
    value_len: usize,
    num_lbs: usize,
    /// Per-balancer-residue-class eviction watermarks.
    watermarks: Vec<u64>,
    /// Reshard generation the partition was committed under (0 = boot).
    generation: u64,
    /// Fleet size the partition was committed under (0 = boot layout).
    active_s: usize,
    partition: Partition,
    /// Cached response per composite epoch id.
    completed: BTreeMap<u64, Option<Vec<Request>>>,
}

fn decode_state(plain: &[u8]) -> io::Result<CheckpointState> {
    let mut r = Reader(plain);
    let magic = r.bytes(8)?;
    if magic != MAGIC {
        let known_family = magic[..7] == MAGIC[..7];
        return Err(bad(if known_family { "unsupported format version" } else { "bad magic" }));
    }
    let value_len = r.u64()? as usize;
    let num_lbs = r.u64()? as usize;
    if num_lbs == 0 || num_lbs > 4096 {
        return Err(bad("implausible balancer count"));
    }
    let mut watermarks = Vec::with_capacity(num_lbs);
    for _ in 0..num_lbs {
        watermarks.push(r.u64()?);
    }
    let generation = r.u64()?;
    let active_s = r.u64()? as usize;
    let partition = match r.bytes(1)?[0] {
        MODE_INLINE => {
            let num_objects = r.u64()? as usize;
            let mut objects = Vec::with_capacity(num_objects);
            for _ in 0..num_objects {
                let id = r.u64()?;
                let value = r.bytes(value_len)?.to_vec();
                objects.push(StoredObject { id, value });
            }
            Partition::Inline(objects)
        }
        MODE_DISK => {
            let generation = r.u64()?;
            let digest: [u8; 32] = r.bytes(32)?.try_into().unwrap();
            Partition::Disk(StorageGeneration { generation, digest })
        }
        other => return Err(bad(&format!("unknown partition mode {other}"))),
    };
    let num_epochs = r.u64()? as usize;
    let mut completed = BTreeMap::new();
    for _ in 0..num_epochs {
        let epoch = r.u64()?;
        let count = r.u64()?;
        let slot = if count == REFUSED {
            None
        } else {
            let count = count as usize;
            let mut batch = Vec::with_capacity(count);
            for _ in 0..count {
                let frame = r.bytes(40 + value_len)?;
                batch.push(decode_request(frame, value_len).ok_or_else(|| bad("bad request"))?);
            }
            Some(batch)
        };
        completed.insert(epoch, slot);
    }
    if !r.0.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(CheckpointState {
        value_len,
        num_lbs,
        watermarks,
        generation,
        active_s,
        partition,
        completed,
    })
}

/// Seals the node's state and atomically replaces `path`. Refuses (typed)
/// to checkpoint a poisoned subORAM — see [`SaveError::Integrity`].
pub fn save(node: &SubOramNode, key: &Key256, path: &Path) -> Result<(), SaveError> {
    Ok(write_sealed(&encode_state(node)?, key, path)?)
}

fn write_sealed(plain: &[u8], key: &Key256, path: &Path) -> io::Result<()> {
    let seq: u64 = Prg::from_entropy().gen();
    let sealed =
        AeadKey::new(key.clone()).seal(Nonce::from_parts(0x7F00_0000, seq), b"ckpt", plain);
    let mut file = Vec::with_capacity(8 + sealed.bytes.len());
    file.extend_from_slice(&seq.to_le_bytes());
    file.extend_from_slice(&sealed.bytes);
    // Durable before it is published: the storage commit this checkpoint
    // names is already on disk, so a crash must never keep the commit and
    // lose the checkpoint. Write and fsync the temp file, rename it over the
    // checkpoint, then fsync the directory that holds the rename.
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&file)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    snoopy_store::fsync_dir(dir)
}

/// Loads and unseals a checkpoint, rebuilding the node over the storage
/// tier named by `spec`. Returns `Ok(None)` if no checkpoint exists (fresh
/// start); tampering, truncation, or a tier mismatch between checkpoint and
/// manifest is an error — the daemon must not silently fall back to stale
/// state. For the disk tier, the partition itself is reopened from the
/// committed generation the checkpoint names, and the segment's root digest
/// must match — detecting host tampering or rollback while the daemon was
/// down.
pub fn load(
    key: &Key256,
    path: &Path,
    root_key: Key256,
    lambda: u32,
    spec: &StorageSpec,
) -> io::Result<Option<SubOramNode>> {
    let file = match std::fs::read(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if file.len() < 8 {
        return Err(bad("truncated header"));
    }
    let seq = u64::from_le_bytes(file[..8].try_into().unwrap());
    let sealed = snoopy_crypto::aead::SealedBox { bytes: file[8..].to_vec() };
    let plain = AeadKey::new(key.clone())
        .open(Nonce::from_parts(0x7F00_0000, seq), b"ckpt", &sealed)
        .map_err(|_| bad("seal verification failed"))?;
    let st = decode_state(&plain)?;
    // A crash between write-to-temp and rename leaves a stale `.tmp` behind;
    // it is garbage by construction (the rename never happened), so clean it
    // up rather than letting the checkpoint directory grow one orphan per
    // unlucky crash.
    let _ = std::fs::remove_file(path.with_extension("tmp"));
    let value_len = st.value_len;
    // A resharded partition was sealed under the reshard generation's forked
    // key (and, on the disk tier, written into the generation's own segment
    // directory): each generation restarts its storage commit counter at
    // zero, so reusing the boot key across generations would repeat
    // (key, nonce) pairs. See `snoopy_store::generation_key`.
    let root_key = snoopy_store::generation_key(&root_key, st.generation);
    let oram = match (st.partition, spec) {
        (Partition::Inline(objects), StorageSpec::Memory) => {
            SubOram::new_in_enclave(objects, value_len, root_key, lambda)
        }
        (Partition::Inline(objects), StorageSpec::External) => {
            SubOram::new_external(objects, value_len, root_key, lambda)
        }
        (Partition::Disk(expected), StorageSpec::Disk { dir, cfg }) => {
            let dir = snoopy_store::generation_dir(dir, st.generation);
            snoopy_store::open_suboram_disk(&dir, value_len, *cfg, root_key, lambda, expected)?
        }
        (Partition::Inline(_), StorageSpec::Disk { .. }) => {
            return Err(bad("checkpoint carries inline objects but manifest says `storage = disk`"))
        }
        (Partition::Disk(_), _) => {
            return Err(bad("checkpoint names a disk generation but manifest storage is in-memory"))
        }
    };
    let mut node =
        SubOramNode::restore_with_watermarks(oram, st.num_lbs, st.completed, st.watermarks);
    node.set_layout(st.generation, st.active_s);
    Ok(Some(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_core::transport::BatchOutcome;

    const VLEN: usize = 16;

    fn node() -> SubOramNode {
        let objects: Vec<StoredObject> =
            (0..32).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
        SubOramNode::new(SubOram::new_in_enclave(objects, VLEN, Key256([9u8; 32]), 80), 1)
    }

    #[test]
    fn save_load_roundtrip_preserves_state_and_reply_cache() {
        let dir = snoopy_store::TempDir::new("snoopy-ckpt").unwrap();
        let path = dir.path().join("sub0.ckpt");
        let key = checkpoint_key(&Key256([1u8; 32]), 0);

        let mut n = node();
        let batch = vec![Request::write(3, &[0xEE; 4], VLEN, 0, 0), Request::read(5, VLEN, 0, 1)];
        let out = match n.handle_batch(0, 0, batch.clone()) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("epoch should complete"),
        };
        save(&n, &key, &path).unwrap();

        let mut restored =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap().unwrap();
        // The write landed.
        assert_eq!(restored.oram().peek(3).unwrap()[..4], [0xEE; 4]);
        // A redelivered epoch replays the cached response, not a re-execution.
        match restored.handle_batch(0, 0, batch) {
            BatchOutcome::Replayed { lb: 0, batch: replay } => assert_eq!(replay, out),
            _ => panic!("expected replay from cache"),
        }
    }

    #[test]
    fn interleaved_multi_balancer_epochs_roundtrip_per_composite_id() {
        // Two balancers' epoch streams interleave at one subORAM; the reply
        // cache keys on the composite id, so a restart replays each
        // balancer's own batches — never the other's.
        let dir = snoopy_store::TempDir::new("snoopy-ckpt5").unwrap();
        let path = dir.path().join("sub4.ckpt");
        let key = checkpoint_key(&Key256([4u8; 32]), 4);

        let objects: Vec<StoredObject> =
            (0..32).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
        let mut n =
            SubOramNode::new(SubOram::new_in_enclave(objects, VLEN, Key256([9u8; 32]), 80), 2);
        // lb 0 owns even ids, lb 1 odd ids; arrival order interleaves and
        // lb 1 runs ahead of lb 0 (no barrier).
        let b0e0 = vec![Request::write(1, &[0x11; 4], VLEN, 0, 0)];
        let b1e1 = vec![Request::read(1, VLEN, 0, 0)];
        let b1e3 = vec![Request::write(2, &[0x22; 4], VLEN, 0, 0)];
        let b0e2 = vec![Request::read(2, VLEN, 0, 0)];
        let out_b0e0 = match n.handle_batch(0, 0, b0e0.clone()) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("epoch 0 executes on arrival"),
        };
        let out_b1e1 = match n.handle_batch(1, 1, b1e1.clone()) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("epoch 1 executes on arrival"),
        };
        assert!(matches!(n.handle_batch(1, 3, b1e3.clone()), BatchOutcome::Completed(Some(_))));
        assert!(matches!(n.handle_batch(0, 2, b0e2), BatchOutcome::Completed(Some(_))));
        save(&n, &key, &path).unwrap();

        let mut restored =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap().unwrap();
        assert_eq!(restored.num_lbs(), 2);
        // Each balancer's replay hits its own composite-id slot.
        match restored.handle_batch(0, 0, b0e0) {
            BatchOutcome::Replayed { lb: 0, batch: replay } => assert_eq!(replay, out_b0e0),
            _ => panic!("lb 0 epoch 0 should replay from cache"),
        }
        match restored.handle_batch(1, 1, b1e1) {
            BatchOutcome::Replayed { lb: 1, batch: replay } => assert_eq!(replay, out_b1e1),
            _ => panic!("lb 1 epoch 1 should replay from cache"),
        }
        // Owner confusion after restore is still refused.
        assert!(matches!(
            restored.handle_batch(0, 3, b1e3),
            BatchOutcome::Rejected { lb: 0, epoch: 3 }
        ));
    }

    #[test]
    fn disk_tier_checkpoint_is_small_and_reopens_committed_generation() {
        let root = snoopy_store::TempDir::new("snoopy-ckpt-disk").unwrap();
        let store = root.path().join("sub0");
        let path = root.path().join("sub0.ckpt");
        let key = checkpoint_key(&Key256([5u8; 32]), 0);
        // Small geometry so a 64-object partition streams (not resident).
        let cfg = DiskConfig { block_bytes: 128, buffer_blocks: 2 };
        let spec = StorageSpec::Disk { dir: store.clone(), cfg };
        let objects: Vec<StoredObject> =
            (0..64).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
        let part = ObjectSlab::from_objects(&objects, VLEN);
        let oram = spec.fresh_suboram(part, Key256([9u8; 32]), 80).unwrap();
        let mut n = SubOramNode::new(oram, 1);

        let batch = vec![Request::write(7, &[0xAB; 4], VLEN, 0, 0)];
        let out = match n.handle_batch(0, 0, batch.clone()) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("epoch should complete"),
        };
        // An uncommitted streaming node has no generation to checkpoint.
        assert!(matches!(save(&n, &key, &path), Err(SaveError::Io(_))));
        n.oram_mut().commit_storage(0).unwrap();
        save(&n, &key, &path).unwrap();

        // The checkpoint carries {generation, digest}, not the partition:
        // far smaller than the 64-object store.
        let ckpt_len = std::fs::metadata(&path).unwrap().len();
        assert!(
            ckpt_len < (64 * (8 + VLEN) as u64) / 2,
            "disk checkpoint should be O(reply cache), got {ckpt_len} bytes"
        );

        let mut restored = load(&key, &path, Key256([9u8; 32]), 80, &spec).unwrap().unwrap();
        assert_eq!(restored.oram().peek(7).unwrap()[..4], [0xAB; 4]);
        match restored.handle_batch(0, 0, batch) {
            BatchOutcome::Replayed { lb: 0, batch: replay } => assert_eq!(replay, out),
            _ => panic!("expected replay from cache"),
        }
        drop(restored);

        // A tier mismatch between checkpoint and manifest is refused.
        let e =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).map(|_| ()).unwrap_err();
        assert!(e.to_string().contains("disk"), "{e}");
    }

    #[test]
    fn refused_epoch_survives_restart_as_a_refusal() {
        let dir = snoopy_store::TempDir::new("snoopy-ckpt4").unwrap();
        let path = dir.path().join("sub3.ckpt");
        let key = checkpoint_key(&Key256([3u8; 32]), 3);

        let mut n = node();
        // A duplicate-id batch is refused with a typed error, and the refusal
        // is cached (None) so a replay gets the same answer.
        let dup = vec![Request::read(4, VLEN, 0, 0), Request::read(4, VLEN, 0, 1)];
        match n.handle_batch(0, 0, dup.clone()) {
            BatchOutcome::Completed(out) => assert!(out.is_none()),
            _ => panic!("expected completed-with-refusal"),
        }
        save(&n, &key, &path).unwrap();

        let mut restored =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap().unwrap();
        match restored.handle_batch(0, 0, dup) {
            BatchOutcome::Replayed { lb: 0, batch: None } => {}
            _ => panic!("expected replayed refusal"),
        }
    }

    #[test]
    fn eviction_watermark_survives_restart_and_stale_tmp_is_cleaned() {
        let dir = snoopy_store::TempDir::new("snoopy-ckpt3").unwrap();
        let path = dir.path().join("sub2.ckpt");
        let key = checkpoint_key(&Key256([2u8; 32]), 2);

        // Bound the reply cache to 2 epochs and run 4: epochs 0 and 1 evict.
        let objects: Vec<StoredObject> =
            (0..32).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
        let mut n =
            SubOramNode::new(SubOram::new_in_enclave(objects, VLEN, Key256([9u8; 32]), 80), 1)
                .with_retain(2);
        for e in 0..4u64 {
            let batch = vec![Request::read(e % 8, VLEN, 0, e)];
            assert!(matches!(n.handle_batch(0, e, batch), BatchOutcome::Completed(_)));
        }
        assert_eq!(n.watermarks(), &[2]);
        save(&n, &key, &path).unwrap();

        // Simulate a crash that left a half-written temp file behind.
        std::fs::write(path.with_extension("tmp"), b"half-written garbage").unwrap();

        let mut restored =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap().unwrap();
        assert!(!path.with_extension("tmp").exists(), "stale tmp should be cleaned on load");
        assert_eq!(restored.watermarks(), &[2]);
        // A replayed-but-evicted epoch is refused after restart too.
        let replay = vec![Request::read(0, VLEN, 0, 0)];
        assert!(matches!(
            restored.handle_batch(0, 0, replay),
            BatchOutcome::Evicted { lb: 0, epoch: 0 }
        ));
    }

    #[test]
    fn torn_tmp_beside_a_good_checkpoint_is_ignored_and_replaced() {
        let dir = snoopy_store::TempDir::new("snoopy-ckpt-torn").unwrap();
        let path = dir.path().join("sub0.ckpt");
        let tmp = path.with_extension("tmp");
        let key = checkpoint_key(&Key256([6u8; 32]), 0);
        let load_peek = |id: u64| {
            let n = load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap();
            n.unwrap().oram().peek(id).unwrap()[..4].to_vec()
        };
        let mut n = node();
        save(&n, &key, &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert!(!tmp.exists());

        // A crash mid-write of the next checkpoint leaves the first half of
        // a sealed file beside the good one.
        let write = vec![Request::write(3, &[0xEE; 4], VLEN, 0, 0)];
        assert!(matches!(n.handle_batch(0, 0, write), BatchOutcome::Completed(_)));
        let torn = || std::fs::write(&tmp, &good[..good.len() / 2]).unwrap();
        torn();
        assert_eq!(load_peek(3), 3u64.to_le_bytes()[..4]);
        assert_eq!(std::fs::read(&path).unwrap(), good, "load leaves the checkpoint alone");

        // The next save writes over the torn file and publishes it.
        torn();
        save(&n, &key, &path).unwrap();
        assert!(!tmp.exists());
        assert_eq!(load_peek(3), [0xEE; 4]);
    }

    #[test]
    fn per_class_watermarks_survive_restart_independently_with_two_balancers() {
        // Regression for a global-watermark bug: with L=2 balancers,
        // balancer 0's epoch ids are even and balancer 1's odd. If balancer 0
        // runs far ahead (evicting its old epochs) while balancer 1 lags, a
        // single max-based watermark would wrongly evict balancer 1's
        // still-replayable epochs after a restart. The per-residue-class
        // vector keeps them independent across save/load.
        let dir = snoopy_store::TempDir::new("snoopy-ckpt6").unwrap();
        let path = dir.path().join("sub5.ckpt");
        let key = checkpoint_key(&Key256([6u8; 32]), 5);

        let objects: Vec<StoredObject> =
            (0..32).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
        let mut n =
            SubOramNode::new(SubOram::new_in_enclave(objects, VLEN, Key256([9u8; 32]), 80), 2)
                .with_retain(2);
        // Balancer 1 executes exactly one epoch (id 1), then balancer 0
        // races ahead through epochs 0, 2, 4, 6 — its class retains {4, 6}
        // and evicts below 4, while class 1 must still replay epoch 1.
        let b1 = vec![Request::read(3, VLEN, 0, 0)];
        let out_b1 = match n.handle_batch(1, 1, b1.clone()) {
            BatchOutcome::Completed(out) => out,
            _ => panic!("balancer 1 epoch should complete"),
        };
        for e in [0u64, 2, 4, 6] {
            let batch = vec![Request::read(e % 8, VLEN, 0, e)];
            assert!(matches!(n.handle_batch(0, e, batch), BatchOutcome::Completed(_)));
        }
        save(&n, &key, &path).unwrap();

        let mut restored =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap().unwrap();
        // Balancer 0's evicted epoch stays evicted...
        assert!(matches!(
            restored.handle_batch(0, 0, vec![Request::read(0, VLEN, 0, 0)]),
            BatchOutcome::Evicted { lb: 0, epoch: 0 }
        ));
        // ...while balancer 1's lone epoch replays from the cache — it was
        // never evicted, so the restart must not have dropped it.
        match restored.handle_batch(1, 1, b1) {
            BatchOutcome::Replayed { lb: 1, batch: replay } => assert_eq!(replay, out_b1),
            _ => panic!("balancer 1 epoch 1 must replay from its own class"),
        }
    }

    #[test]
    fn missing_file_is_fresh_start_and_tampering_is_detected() {
        let dir = snoopy_store::TempDir::new("snoopy-ckpt2").unwrap();
        let path = dir.path().join("sub1.ckpt");
        let key = checkpoint_key(&Key256([1u8; 32]), 1);
        assert!(load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).unwrap().is_none());

        save(&node(), &key, &path).unwrap();
        let mut file = std::fs::read(&path).unwrap();
        let mid = file.len() / 2;
        file[mid] ^= 0x80;
        std::fs::write(&path, &file).unwrap();
        assert!(load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).is_err());
    }

    #[test]
    fn older_format_version_is_refused_not_upgraded() {
        let dir = snoopy_store::TempDir::new("snoopy-ckpt7").unwrap();
        let path = dir.path().join("sub6.ckpt");
        let key = checkpoint_key(&Key256([7u8; 32]), 6);
        // A correctly sealed file whose payload carries the previous
        // format's magic: authentic, but not a layout this build reads.
        let mut plain = encode_state(&node()).unwrap();
        plain[..8].copy_from_slice(b"SNPCKPT5");
        write_sealed(&plain, &key, &path).unwrap();
        let e =
            load(&key, &path, Key256([9u8; 32]), 80, &StorageSpec::Memory).map(|_| ()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("unsupported format version"), "{e}");
    }
}
