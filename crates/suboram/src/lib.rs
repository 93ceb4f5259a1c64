//! Snoopy's throughput-optimized subORAM (paper §5).
//!
//! A subORAM owns one static partition of the object space and supports a
//! single operation: **batch access**. Instead of polylogarithmic per-request
//! structures, it amortizes *one* linear scan of the partition over the whole
//! batch:
//!
//! 1. Build a two-tier oblivious hash table over the batch under a fresh key
//!    (so bucket occupancy is unlinkable across batches), sized by
//!    [`TableParams::derive`] for the public batch and partition sizes.
//! 2. Scan every stored object; for each, scan its tier-1 and tier-2 buckets
//!    fully ([`OHashTable::access`]), performing per slot a *pair* of
//!    oblivious compare-and-sets — one that may update the stored object
//!    (writes) and one that may fill the request's response value (reads and
//!    pre-write values) — so that neither the match nor the request type is
//!    observable.
//! 3. Obliviously extract exactly the batch entries from the table and return
//!    them as responses.
//!
//! The batch must contain **distinct** object ids (paper Definition 2); the
//! hash table verifies this obliviously and returns an error otherwise.
//!
//! **Layout.** The in-memory partition is an [`ObjectSlab`]: the ids in one
//! array and the values in one contiguous byte slab with the public stride
//! `value_len`; the table keeps its slot values in a slab of its own. The
//! scan walks both in order and hands each object's value to the table in
//! place, and the table does a slot's pair of compare-and-sets as one masked
//! pass over the two values (`d = o ^ s; o ^= wr & d; s ^= rd & d`). So the
//! scan allocates nothing and chases no pointers; the sealed tiers visit the
//! records of each opened plaintext block in place the same way.
//! [`StoredObject`] appears only where objects enter (construction) or leave
//! (snapshots, exports).
//!
//! Storage lives behind the [`StorageBackend`] trait: [`MemoryBackend`] keeps
//! the partition in (modeled) enclave memory; [`ExternalBackend`] keeps it
//! AEAD-sealed in untrusted memory with every block's tag inside, mirroring
//! the paper's deployment where partitions exceed the EPC (§7) — every object
//! is re-sealed under a fresh pass on every scan regardless of whether it
//! changed, so writes are invisible to the host. The file-backed tier
//! (`snoopy-store`'s `DiskBackend`) implements the same trait for
//! larger-than-RAM partitions without touching the scan kernel. Both sealed
//! tiers share one block format and sealing discipline, [`sealed`].
//!
//! Failure discipline: the first integrity or storage failure **poisons** the
//! subORAM — every later batch returns the same typed error, so the node
//! above turns them into wire-observable refusals instead of serving results
//! off a partially-applied scan. Restarting the process recovers from the
//! last sealed checkpoint/generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, StoredObject, REAL_ID_LIMIT};
use snoopy_obliv::trace::{self, TraceEvent};
use snoopy_ohash::{OHashError, OHashTable, TableParams};
use std::collections::HashMap;
// Memory-touch trace vs. wall-clock spans: see the note in `snoopy-lb`.
use snoopy_telemetry::trace as telem;

mod external;
pub mod sealed;

pub use external::ExternalBackend;

/// A sealed block failed its integrity check: the host tampered with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// The untrusted block failed its tag compare or AEAD verification.
    Corrupted {
        /// Index of the offending block.
        index: usize,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::Corrupted { index } => {
                write!(f, "block {index} failed integrity check")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Errors from batch processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubOramError {
    /// The batch violated the distinct-ids requirement or hit the
    /// negligible-probability table overflow.
    Hash(OHashError),
    /// External storage failed an integrity check (host tampering).
    Integrity(IntegrityError),
    /// The batch was empty (the load balancer always sends `B ≥ 1`).
    EmptyBatch,
    /// A file-backed storage tier failed an I/O operation.
    Storage(std::io::ErrorKind),
}

impl std::fmt::Display for SubOramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubOramError::Hash(e) => write!(f, "hash table: {e}"),
            SubOramError::Integrity(e) => write!(f, "integrity: {e}"),
            SubOramError::EmptyBatch => write!(f, "empty batch"),
            SubOramError::Storage(kind) => write!(f, "storage i/o: {kind}"),
        }
    }
}

impl std::error::Error for SubOramError {}

impl From<OHashError> for SubOramError {
    fn from(e: OHashError) -> Self {
        SubOramError::Hash(e)
    }
}

impl From<IntegrityError> for SubOramError {
    fn from(e: IntegrityError) -> Self {
        SubOramError::Integrity(e)
    }
}

impl From<std::io::Error> for SubOramError {
    fn from(e: std::io::Error) -> Self {
        SubOramError::Storage(e.kind())
    }
}

/// Why a backend could not produce a full in-RAM snapshot of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The backend streams from secondary storage and refuses to materialize
    /// the partition; checkpoint the durable generation instead
    /// ([`StorageBackend::commit`]). Carries the partition's public size so
    /// callers can report what they would have had to materialize.
    Streaming {
        /// Number of stored objects.
        objects: usize,
        /// Total plaintext bytes a snapshot would occupy.
        bytes: u64,
    },
    /// The backend failed while reading (integrity or I/O).
    Failed(SubOramError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Streaming { objects, bytes } => {
                write!(f, "streaming backend: snapshot would materialize {objects} objects ({bytes} bytes)")
            }
            SnapshotError::Failed(e) => write!(f, "snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Identity of a durably committed storage generation: the generation number
/// plus the in-enclave root digest authenticating the sealed segment. Stored
/// inside the sealed checkpoint so recovery can verify the on-disk state it
/// reopens (rollback protection for file-backed tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageGeneration {
    /// Monotone commit counter.
    pub generation: u64,
    /// HMAC over the segment's pass id, object count and every block's tag.
    pub digest: [u8; 32],
}

/// Where the partition lives: the storage tier behind the linear scan.
///
/// The subORAM's only access pattern is a full sequential scan with
/// unconditional write-back (anything else would leak which objects a batch
/// touched), so a backend needs to support exactly that — which is also the
/// pattern a disk tier wants (Goodrich–Mitzenmacher's low-I/O oblivious
/// storage). Implementations: [`MemoryBackend`] (plaintext objects in modeled
/// enclave memory), [`ExternalBackend`] (AEAD-sealed blocks in untrusted
/// memory with in-enclave tags), and `snoopy-store`'s `DiskBackend`
/// (AEAD-sealed segment files with crash-safe generation commit).
pub trait StorageBackend: Send {
    /// Number of stored objects.
    fn len(&self) -> usize;

    /// True when the partition holds no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every stored object in index order as `(id, value)`, the value
    /// in place, writing each back unconditionally after `visit` ran — a
    /// skipped write-back would reveal which objects a batch wrote. Errors on
    /// integrity failure (host tampering with a sealed backend) or storage
    /// I/O failure.
    fn scan(&mut self, visit: &mut dyn FnMut(u64, &mut [u8])) -> Result<(), SubOramError>;

    /// Read-only visit of every stored object in index order, *without* the
    /// write-back. Not part of the oblivious interface — used by `peek`,
    /// tests, and benches; the oblivious path is [`StorageBackend::scan`].
    fn for_each(&self, visit: &mut dyn FnMut(u64, &[u8])) -> Result<(), SubOramError>;

    /// The partition as a slab, for the chunked parallel scan; `None` for
    /// streaming backends, which the parallel scan runs serially.
    fn as_slab_mut(&mut self) -> Option<&mut ObjectSlab> {
        None
    }

    /// Snapshots the partition (for checkpointing; the caller seals it
    /// before it leaves the enclave). Streaming backends return a typed,
    /// size-aware [`SnapshotError::Streaming`] instead of materializing the
    /// partition — checkpoint their [`StorageBackend::commit`] result
    /// instead.
    fn snapshot(&self) -> Result<Vec<StoredObject>, SnapshotError>;

    /// Durably commits state mutated by scans since the last commit and
    /// returns the committed generation, or `Ok(None)` for backends with no
    /// durability of their own (memory tiers; the checkpoint carries their
    /// objects inline). Called once per epoch, after the epoch's batches and
    /// before the sealed checkpoint that references the generation.
    fn commit(&mut self, epoch: u64) -> Result<Option<StorageGeneration>, SubOramError> {
        let _ = epoch;
        Ok(None)
    }

    /// Adversary hook: a copy of the backend's untrusted bytes (sealed
    /// blocks / segment file), or `None` when there is no untrusted surface
    /// (pure in-enclave memory). Tests use this with
    /// [`StorageBackend::restore_untrusted_image`] to emulate rollback.
    fn untrusted_image(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Adversary hook: overwrite the untrusted bytes with a previously
    /// captured image. Returns `false` when unsupported or the image does
    /// not fit the backend's geometry.
    fn restore_untrusted_image(&mut self, image: &[u8]) -> bool {
        let _ = image;
        false
    }

    /// Adversary hook: flip a byte of untrusted block `index`. Returns
    /// `false` when unsupported or out of range.
    fn corrupt_block(&mut self, index: usize) -> bool {
        let _ = index;
        false
    }
}

/// A partition as two flat arrays: the ids, and the values as one slab
/// with a public stride — object `i`'s value is
/// `values[i * value_len..(i + 1) * value_len]`. The scan walks both in
/// order and hands out each value in place, so it allocates nothing and
/// chases no pointers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObjectSlab {
    ids: Vec<u64>,
    values: Vec<u8>,
    value_len: usize,
}

impl ObjectSlab {
    /// An empty slab with room for `objects` objects of `value_len` bytes.
    pub fn with_capacity(objects: usize, value_len: usize) -> ObjectSlab {
        ObjectSlab {
            ids: Vec::with_capacity(objects),
            values: Vec::with_capacity(objects * value_len),
            value_len,
        }
    }

    /// Copies `objects` (every value `value_len` bytes) into a slab.
    pub fn from_objects(objects: &[StoredObject], value_len: usize) -> ObjectSlab {
        let mut slab = ObjectSlab::with_capacity(objects.len(), value_len);
        for o in objects {
            slab.push(o.id, &o.value);
        }
        slab
    }

    /// Appends one object.
    pub fn push(&mut self, id: u64, value: &[u8]) {
        assert_eq!(value.len(), self.value_len, "object sizes are public and fixed");
        self.ids.push(id);
        self.values.extend_from_slice(value);
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// The public object size.
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Whether the slab holds no objects.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Object `i` as `(id, value)`.
    pub fn get(&self, i: usize) -> (u64, &[u8]) {
        let vl = self.value_len;
        (self.ids[i], &self.values[i * vl..(i + 1) * vl])
    }

    /// Visits every object in index order.
    pub fn for_each(&self, mut visit: impl FnMut(u64, &[u8])) {
        for i in 0..self.len() {
            let (id, value) = self.get(i);
            visit(id, value);
        }
    }

    /// Visits every object in index order with its value in place.
    pub fn scan(&mut self, visit: impl FnMut(u64, &mut [u8])) {
        scan_span(&self.ids, &mut self.values, self.value_len, visit);
    }

    /// Splits the slab into consecutive runs of at most `objects` objects
    /// (ids, value bytes), for workers that scan disjoint ranges.
    pub fn chunks_mut(&mut self, objects: usize) -> Vec<(&[u64], &mut [u8])> {
        let objects = objects.max(1);
        let mut values = self.values.as_mut_slice();
        let mut out = Vec::new();
        for ids in self.ids.chunks(objects) {
            let (head, rest) = std::mem::take(&mut values).split_at_mut(ids.len() * self.value_len);
            out.push((ids, head));
            values = rest;
        }
        out
    }

    /// The objects, materialized (snapshot and export boundaries only).
    pub fn to_objects(&self) -> Vec<StoredObject> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|id, value| out.push(StoredObject { id, value: value.to_vec() }));
        out
    }
}

/// Visits a run of slab objects (`ids` with their `value_len`-byte values)
/// in order, each value in place.
fn scan_span(
    ids: &[u64],
    values: &mut [u8],
    value_len: usize,
    mut visit: impl FnMut(u64, &mut [u8]),
) {
    assert_eq!(values.len(), ids.len() * value_len, "one value per id");
    for (i, &id) in ids.iter().enumerate() {
        visit(id, &mut values[i * value_len..(i + 1) * value_len]);
    }
}

/// Objects in (modeled) enclave memory — fastest, used when the partition
/// fits in the EPC.
pub struct MemoryBackend {
    slab: ObjectSlab,
}

impl MemoryBackend {
    /// Wraps a partition held in enclave memory.
    pub fn new(objects: Vec<StoredObject>, value_len: usize) -> MemoryBackend {
        MemoryBackend { slab: ObjectSlab::from_objects(&objects, value_len) }
    }
}

impl StorageBackend for MemoryBackend {
    fn len(&self) -> usize {
        self.slab.len()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u64, &mut [u8])) -> Result<(), SubOramError> {
        self.slab.scan(visit);
        Ok(())
    }

    fn for_each(&self, visit: &mut dyn FnMut(u64, &[u8])) -> Result<(), SubOramError> {
        self.slab.for_each(visit);
        Ok(())
    }

    fn as_slab_mut(&mut self) -> Option<&mut ObjectSlab> {
        Some(&mut self.slab)
    }

    fn snapshot(&self) -> Result<Vec<StoredObject>, SnapshotError> {
        Ok(self.slab.to_objects())
    }
}

/// A subORAM instance.
///
/// ```
/// use snoopy_suboram::SubOram;
/// use snoopy_crypto::Key256;
/// use snoopy_enclave::wire::{Request, StoredObject};
///
/// let objects: Vec<StoredObject> =
///     (0..64).map(|id| StoredObject::new(id, &[id as u8], 16)).collect();
/// let mut sub = SubOram::new_in_enclave(objects, 16, Key256([1u8; 32]), 128);
/// // One linear scan serves the whole (distinct-id) batch:
/// let out = sub
///     .batch_access(vec![Request::read(5, 16, 0, 0), Request::write(9, &[0xFF], 16, 0, 1)])
///     .unwrap();
/// assert_eq!(out.len(), 2);
/// assert_eq!(sub.peek(9).unwrap()[0], 0xFF);
/// ```
pub struct SubOram {
    storage: Box<dyn StorageBackend>,
    value_len: usize,
    root_key: Key256,
    batch_counter: u64,
    lambda: u32,
    /// Table parameters per public `(batch size, partition size)`: the
    /// derivation is a numeric search (0.15–0.4 ms), and under steady load
    /// most batches repeat a size already seen.
    table_params: HashMap<(usize, usize), TableParams>,
    poisoned: Option<SubOramError>,
    last_commit: Option<StorageGeneration>,
}

impl SubOram {
    /// Creates a subORAM holding `objects` in enclave memory. All object ids
    /// must be below [`REAL_ID_LIMIT`] and all values share `value_len`.
    pub fn new_in_enclave(
        objects: Vec<StoredObject>,
        value_len: usize,
        root_key: Key256,
        lambda: u32,
    ) -> SubOram {
        SubOram::from_slab(ObjectSlab::from_objects(&objects, value_len), root_key, lambda)
    }

    /// Creates a subORAM holding `slab` in enclave memory. All object ids
    /// must be below [`REAL_ID_LIMIT`].
    pub fn from_slab(slab: ObjectSlab, root_key: Key256, lambda: u32) -> SubOram {
        slab.for_each(|id, _| assert!(id < REAL_ID_LIMIT, "object id {id} in reserved namespace"));
        let value_len = slab.value_len();
        SubOram::with_backend(Box::new(MemoryBackend { slab }), value_len, root_key, lambda)
    }

    /// Creates a subORAM over an arbitrary [`StorageBackend`]. The backend
    /// is trusted to hold the partition; the scan drives it identically
    /// whatever the tier.
    pub fn with_backend(
        storage: Box<dyn StorageBackend>,
        value_len: usize,
        root_key: Key256,
        lambda: u32,
    ) -> SubOram {
        SubOram {
            storage,
            value_len,
            root_key,
            batch_counter: 0,
            lambda,
            table_params: HashMap::new(),
            poisoned: None,
            last_commit: None,
        }
    }

    /// Creates a subORAM whose partition lives sealed in untrusted memory.
    pub fn new_external(
        objects: Vec<StoredObject>,
        value_len: usize,
        root_key: Key256,
        lambda: u32,
    ) -> SubOram {
        validate_objects(&objects, value_len);
        let backend =
            ExternalBackend::new(&objects, value_len, &root_key.derive(b"suboram-external"));
        SubOram::with_backend(Box::new(backend), value_len, root_key, lambda)
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The public object size.
    pub fn value_len(&self) -> usize {
        self.value_len
    }

    /// Processes one batch of distinct requests, returning one response per
    /// batch entry (order unspecified; the load balancer re-sorts by id).
    ///
    /// Reads receive the object's current value; writes apply their payload
    /// and receive the *pre-write* value; requests for absent ids (including
    /// dummies) receive zeros.
    ///
    /// After a storage integrity or I/O failure the subORAM is **poisoned**:
    /// this and every later call return that first error, so no response
    /// computed over a partially-applied scan can escape. Recovery is by
    /// restart from the last sealed checkpoint/generation.
    pub fn batch_access(&mut self, batch: Vec<Request>) -> Result<Vec<Request>, SubOramError> {
        let mut table = self.build_table(batch)?;
        // Linear scan of the partition: the backend hands every object's
        // value to the table in place and writes it back unconditionally.
        let _scan_span = telem::span("epoch/suboram_scan/linear_scan");
        if let Err(e) = self.storage.scan(&mut |id, value| table.access(id, value)) {
            self.poisoned = Some(e);
            return Err(e);
        }
        Ok(table.into_batch_requests())
    }

    /// Multithreaded batch access (paper §8.4, Fig. 13b: "we can use the
    /// remaining cores to parallelize both the hash table construction and
    /// linear scan").
    ///
    /// The slab is split into `threads` chunks; each worker scans its chunk
    /// against a private copy of the hash table (objects are distinct, so
    /// each request matches in at most one chunk), and the copies are merged
    /// with oblivious compare-and-sets afterwards. Only supported for
    /// in-enclave storage (streaming backends scan serially by design).
    pub fn batch_access_parallel(
        &mut self,
        batch: Vec<Request>,
        threads: usize,
    ) -> Result<Vec<Request>, SubOramError> {
        if threads <= 1 || self.storage.as_slab_mut().is_none() {
            return self.batch_access(batch);
        }
        let table = self.build_table(batch)?;
        let _scan_span = telem::span("epoch/suboram_scan/linear_scan");
        let slab = self.storage.as_slab_mut().expect("checked above");
        let value_len = self.value_len;
        let chunks = slab.chunks_mut(slab.len().div_ceil(threads));
        // When the access trace is being recorded, each worker captures its
        // scan events on its own recorder; splicing the captures in chunk
        // order reproduces exactly the serial object order, so the trace is
        // byte-identical to `batch_access` regardless of thread count.
        let recording = trace::is_recording();
        let mut tables: Vec<OHashTable> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (ids, values) in chunks {
                let mut local = table.clone();
                handles.push(scope.spawn(move || {
                    let mut scan =
                        || scan_span(ids, values, value_len, |id, v| local.access(id, v));
                    let sub_trace = if recording {
                        Some(trace::capture(scan).1)
                    } else {
                        scan();
                        None
                    };
                    (local, sub_trace)
                }));
            }
            for h in handles {
                let (local, sub_trace) = h.join().expect("scan worker panicked");
                if let Some(t) = sub_trace {
                    trace::splice(t);
                }
                tables.push(local);
            }
        });

        // Merge: each request slot was mutated in at most one copy; fold the
        // changed versions (relative to the pristine table) back obliviously.
        let mut merged = table.clone();
        for local in tables {
            merged.merge_changed_from(&table, &local);
        }
        Ok(merged.into_batch_requests())
    }

    /// Opens a batch: refuses it if the subORAM is poisoned or the batch is
    /// empty, then builds its hash table under a fresh key, sized for the
    /// batch and the partition (both public: the scan's length reveals the
    /// partition size).
    fn build_table(&mut self, batch: Vec<Request>) -> Result<OHashTable, SubOramError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        if batch.is_empty() {
            return Err(SubOramError::EmptyBatch);
        }
        // "SO" batch marker, then a fresh key per batch (§5): unlinks bucket
        // occupancy across batches.
        trace::record(TraceEvent::Phase(0x534f));
        let batch_key = self.root_key.derive(&self.batch_counter.to_le_bytes());
        self.batch_counter += 1;
        let _build_span = telem::span("epoch/suboram_scan/ohash_build");
        let (n, objects, lambda) = (batch.len(), self.storage.len(), self.lambda);
        let params = *self
            .table_params
            .entry((n, objects))
            .or_insert_with(|| TableParams::derive(n, objects, lambda));
        Ok(OHashTable::construct_with_params(batch, &batch_key, params)?)
    }

    /// Durably commits storage state mutated since the last commit (file-
    /// backed tiers fsync + atomically publish a new sealed generation;
    /// memory tiers are a no-op returning `Ok(None)`). Called once per epoch
    /// *before* the sealed checkpoint, which records the returned generation.
    pub fn commit_storage(
        &mut self,
        epoch: u64,
    ) -> Result<Option<StorageGeneration>, SubOramError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        match self.storage.commit(epoch) {
            Ok(gen) => {
                if gen.is_some() {
                    self.last_commit = gen;
                }
                Ok(gen)
            }
            Err(e) => {
                self.poisoned = Some(e);
                Err(e)
            }
        }
    }

    /// The most recently committed storage generation, if the backend has
    /// one. Checkpoints of streaming backends record this instead of the
    /// objects.
    pub fn last_commit(&self) -> Option<StorageGeneration> {
        self.last_commit
    }

    /// Whether a storage failure has poisoned this subORAM (every batch is
    /// refused with the recorded error until restart).
    pub fn poisoned(&self) -> Option<SubOramError> {
        self.poisoned
    }

    /// Test/bench helper: reads an object's current value non-obliviously.
    /// Not part of the oblivious interface.
    pub fn peek(&self, id: u64) -> Option<Vec<u8>> {
        let mut found = None;
        self.storage
            .for_each(&mut |oid, value| {
                if oid == id {
                    found = Some(value.to_vec());
                }
            })
            .ok()?;
        found
    }

    /// Snapshots the partition's current objects (for checkpointing a
    /// subORAM node; the snapshot must be sealed before leaving the
    /// enclave). Streaming backends return a typed, size-aware
    /// [`SnapshotError::Streaming`] — checkpoint [`SubOram::last_commit`]
    /// instead of materializing the partition.
    pub fn export_objects(&self) -> Result<Vec<StoredObject>, SnapshotError> {
        self.storage.snapshot()
    }

    /// Visits every stored object in index order, read-only and without the
    /// oblivious write-back — the reshard migration's export path, which
    /// must also work on streaming (disk-tier) backends where
    /// [`SubOram::export_objects`] refuses to materialize the partition.
    /// Index order is data-independent, and the caller re-partitions, seals,
    /// and pads the collected set to a public bound before anything derived
    /// from it leaves the enclave.
    pub fn stream_objects(&self, visit: &mut dyn FnMut(u64, &[u8])) -> Result<(), SubOramError> {
        self.storage.for_each(visit)
    }

    /// Adversary hook: copy of the backend's untrusted bytes (sealed
    /// blocks / segment file); `None` for pure in-enclave storage.
    pub fn untrusted_image(&mut self) -> Option<Vec<u8>> {
        self.storage.untrusted_image()
    }

    /// Adversary hook: roll the untrusted bytes back to a captured image.
    pub fn restore_untrusted_image(&mut self, image: &[u8]) -> bool {
        self.storage.restore_untrusted_image(image)
    }

    /// Adversary hook: flip a byte in untrusted block `index`.
    pub fn corrupt_block(&mut self, index: usize) -> bool {
        self.storage.corrupt_block(index)
    }
}

fn validate_objects(objects: &[StoredObject], value_len: usize) {
    for o in objects {
        assert!(o.id < REAL_ID_LIMIT, "object id {} in reserved namespace", o.id);
        assert_eq!(o.value.len(), value_len, "object sizes are public and fixed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_enclave::wire::LB_DUMMY_BASE;

    const VLEN: usize = 16;

    fn objects(n: u64) -> Vec<StoredObject> {
        (0..n).map(|i| StoredObject::new(i, &[(i % 251) as u8; 4], VLEN)).collect()
    }

    fn suboram(n: u64) -> SubOram {
        SubOram::new_in_enclave(objects(n), VLEN, Key256([3u8; 32]), 128)
    }

    fn val(byte: u8) -> Vec<u8> {
        let mut v = vec![byte; 4];
        v.resize(VLEN, 0);
        v
    }

    #[test]
    fn reads_return_current_values() {
        let mut s = suboram(100);
        let batch = vec![
            Request::read(5, VLEN, 1, 0),
            Request::read(50, VLEN, 1, 1),
            Request::read(99, VLEN, 1, 2),
        ];
        let out = s.batch_access(batch).unwrap();
        assert_eq!(out.len(), 3);
        for r in out {
            assert_eq!(r.value, val((r.id % 251) as u8), "id {}", r.id);
        }
    }

    #[test]
    fn writes_apply_and_return_prewrite_value() {
        let mut s = suboram(50);
        let out = s.batch_access(vec![Request::write(7, &[0xAB; 4], VLEN, 1, 0)]).unwrap();
        assert_eq!(out[0].value, val(7), "write response carries the pre-write value");
        assert_eq!(s.peek(7).unwrap(), val(0xAB));
        // A later read sees the write.
        let out2 = s.batch_access(vec![Request::read(7, VLEN, 1, 1)]).unwrap();
        assert_eq!(out2[0].value, val(0xAB));
    }

    #[test]
    fn absent_ids_and_dummies_get_zeros() {
        let mut s = suboram(10);
        let out = s
            .batch_access(vec![
                Request::read(12345, VLEN, 1, 0), // absent id
                Request::read(LB_DUMMY_BASE + 7, VLEN, 0, 0),
            ])
            .unwrap();
        for r in out {
            assert_eq!(r.value, vec![0u8; VLEN]);
        }
    }

    #[test]
    fn duplicate_batch_rejected() {
        let mut s = suboram(10);
        let err = s
            .batch_access(vec![Request::read(1, VLEN, 0, 0), Request::read(1, VLEN, 0, 1)])
            .unwrap_err();
        assert_eq!(err, SubOramError::Hash(OHashError::DuplicateIds));
    }

    #[test]
    fn empty_batch_rejected() {
        let mut s = suboram(10);
        assert_eq!(s.batch_access(vec![]).unwrap_err(), SubOramError::EmptyBatch);
    }

    #[test]
    fn mixed_large_batch_correct() {
        let mut s = suboram(2000);
        let mut batch = Vec::new();
        // Writes to even ids, reads of odd ids, plus dummies.
        for i in 0..200u64 {
            if i % 2 == 0 {
                batch.push(Request::write(i, &[0xC0 | (i % 16) as u8; 4], VLEN, 1, i));
            } else {
                batch.push(Request::read(i, VLEN, 1, i));
            }
        }
        for k in 0..56u64 {
            let mut d = Request::dummy(VLEN);
            d.id = LB_DUMMY_BASE + k;
            batch.push(d);
        }
        let out = s.batch_access(batch).unwrap();
        assert_eq!(out.len(), 256);
        for r in &out {
            if r.id < 200 {
                assert_eq!(r.value, val((r.id % 251) as u8), "pre-batch value for id {}", r.id);
            }
        }
        // Writes landed.
        for i in (0..200u64).step_by(2) {
            assert_eq!(s.peek(i).unwrap(), val(0xC0 | (i % 16) as u8));
        }
        // Reads did not clobber.
        for i in (1..200u64).step_by(2) {
            assert_eq!(s.peek(i).unwrap(), val((i % 251) as u8));
        }
    }

    #[test]
    fn external_mode_matches_in_enclave_semantics() {
        let mut a = SubOram::new_in_enclave(objects(300), VLEN, Key256([5u8; 32]), 128);
        let mut b = SubOram::new_external(objects(300), VLEN, Key256([5u8; 32]), 128);
        let batch = || {
            vec![
                Request::write(10, &[1; 4], VLEN, 1, 0),
                Request::read(20, VLEN, 1, 1),
                Request::write(299, &[2; 4], VLEN, 1, 2),
            ]
        };
        let sort_out = |mut v: Vec<Request>| {
            v.sort_by_key(|r| r.id);
            v
        };
        assert_eq!(
            sort_out(a.batch_access(batch()).unwrap()),
            sort_out(b.batch_access(batch()).unwrap())
        );
        assert_eq!(a.peek(10), b.peek(10));
        assert_eq!(a.peek(299), b.peek(299));
    }

    #[test]
    fn external_mode_detects_tampering() {
        let mut s = SubOram::new_external(objects(50), VLEN, Key256([5u8; 32]), 128);
        assert!(s.corrupt_block(10));
        let err = s.batch_access(vec![Request::read(1, VLEN, 0, 0)]).unwrap_err();
        assert!(matches!(err, SubOramError::Integrity(_)));
    }

    #[test]
    fn integrity_failure_poisons_all_later_batches() {
        // Fail-stop: after the first integrity failure every later batch is
        // refused with the same typed error — a half-applied scan must never
        // serve responses.
        let mut s = SubOram::new_external(objects(50), VLEN, Key256([5u8; 32]), 128);
        assert!(s.corrupt_block(10));
        let err = s.batch_access(vec![Request::read(1, VLEN, 0, 0)]).unwrap_err();
        assert!(matches!(err, SubOramError::Integrity(_)));
        assert_eq!(s.poisoned(), Some(err));
        // Even an otherwise-fine batch is refused now.
        let err2 = s.batch_access(vec![Request::read(2, VLEN, 0, 0)]).unwrap_err();
        assert_eq!(err2, err);
        // And so is a commit.
        assert_eq!(s.commit_storage(1).unwrap_err(), err);
    }

    #[test]
    fn snapshot_of_memory_tiers_succeeds() {
        let s = suboram(20);
        assert_eq!(s.export_objects().unwrap().len(), 20);
        let ext = SubOram::new_external(objects(20), VLEN, Key256([5u8; 32]), 128);
        assert_eq!(ext.export_objects().unwrap().len(), 20);
    }

    #[test]
    fn memory_commit_is_a_noop() {
        let mut s = suboram(10);
        assert_eq!(s.commit_storage(7).unwrap(), None);
        assert_eq!(s.last_commit(), None);
    }

    #[test]
    fn rollback_of_untrusted_image_detected() {
        let mut s = SubOram::new_external(objects(40), VLEN, Key256([5u8; 32]), 128);
        let before = s.untrusted_image().unwrap();
        s.batch_access(vec![Request::write(3, &[9; 4], VLEN, 1, 0)]).unwrap();
        assert!(s.restore_untrusted_image(&before));
        let err = s.batch_access(vec![Request::read(3, VLEN, 1, 1)]).unwrap_err();
        assert!(matches!(err, SubOramError::Integrity(_)));
    }

    #[test]
    fn batch_trace_independent_of_request_contents() {
        // Same partition, same keys, same batch size — different ids, kinds,
        // and payloads. The adversary's view must be identical.
        let run = |batch: Vec<Request>| {
            let mut s = suboram(128);
            let (res, tr) = snoopy_obliv::trace::capture(|| s.batch_access(batch));
            res.unwrap();
            tr
        };
        let t1 = run(vec![
            Request::read(1, VLEN, 1, 0),
            Request::read(2, VLEN, 1, 1),
            Request::read(3, VLEN, 1, 2),
        ]);
        let t2 = run(vec![
            Request::write(100, &[9; 4], VLEN, 1, 0),
            Request::write(101, &[8; 4], VLEN, 1, 1),
            Request::read(102, VLEN, 1, 2),
        ]);
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        // Different batch *size* is public and changes the trace.
        let t3 = run(vec![Request::read(1, VLEN, 1, 0), Request::read(2, VLEN, 1, 1)]);
        assert_ne!(t1.fingerprint(), t3.fingerprint());
    }

    #[test]
    fn sized_table_trace_independent_of_contents() {
        // 300 requests over 4 096 objects: past the one-bucket path, so the
        // table is the cost model's pick for (300, 4 096). Reads of stored
        // ids against a writes/denied/absent/dummy mix, over partitions of
        // the same size and ids but different values, must look the same.
        // (The scan touches each stored id's buckets under the batch key,
        // so the stored ids, which the partitioning fixes, shape the trace.)
        const N: u64 = 300;
        let p = TableParams::derive(N as usize, 4096, 128);
        let unsized_lookup = TableParams::derive(N as usize, N as usize, 128).lookup_cost();
        assert!(p.m1 > 1 && p.lookup_cost() != unsized_lookup, "{p:?}");
        let run = |objects: Vec<StoredObject>, batch: Vec<Request>| {
            let count = objects.len() as u64;
            let mut s = SubOram::new_in_enclave(objects, VLEN, Key256([8u8; 32]), 128);
            let (res, tr) = snoopy_obliv::trace::capture(|| s.batch_access(batch));
            res.unwrap();
            // The table was sized for this partition, not for the batch alone.
            let (n, count) = (N as usize, count as usize);
            assert_eq!(s.table_params[&(n, count)], TableParams::derive(n, count, 128));
            tr
        };
        let reads = || (0..N).map(|i| Request::read(i, VLEN, 1, i)).collect::<Vec<_>>();
        let mixed: Vec<Request> = (0..N)
            .map(|i| match i % 4 {
                0 => Request::write(2 * i, &[i as u8; 4], VLEN, 2, i),
                1 => Request { permit: 0, ..Request::write(2 * i, &[7; 4], VLEN, 3, i) },
                2 => Request::read(1_000_000 + i, VLEN, 4, i),
                _ => Request::read(LB_DUMMY_BASE + i, VLEN, 0, 0),
            })
            .collect();
        let other_values: Vec<StoredObject> =
            (0..4096u64).map(|i| StoredObject::new(i, &i.to_be_bytes(), VLEN)).collect();
        let t1 = run(objects(4096), reads());
        let t2 = run(other_values, mixed);
        assert_eq!((t1.len(), t1.fingerprint()), (t2.len(), t2.fingerprint()));
        // The partition size is public: it sizes the table and the scan.
        let t3 = run(objects(2048), reads());
        assert_ne!(t1.fingerprint(), t3.fingerprint());
    }

    #[test]
    fn scan_trace_golden() {
        // The adversary's view of one fixed batch (table build, scan, and
        // extraction), pinned to a constant: a change to the scan kernel's
        // data layout must leave the memory trace exactly as it was.
        let mut s = SubOram::new_in_enclave(objects(300), VLEN, Key256([9u8; 32]), 128);
        let mut batch = vec![
            Request::write(4, &[0xA4; 4], VLEN, 1, 0),
            Request::read(17, VLEN, 1, 1),
            Request::write(250, &[0x5A; 4], VLEN, 2, 2),
            Request::read(100_000, VLEN, 2, 3),
            Request::read(LB_DUMMY_BASE + 1, VLEN, 0, 0),
        ];
        batch[1].permit = 0;
        let (out, tr) = snoopy_obliv::trace::capture(|| s.batch_access(batch));
        let mut out = out.unwrap();
        out.sort_by_key(|r| r.id);
        let values: Vec<Vec<u8>> = out.iter().map(|r| r.value.clone()).collect();
        assert_eq!(values, vec![val(4), vec![0; VLEN], val(250), vec![0; VLEN], vec![0; VLEN]]);
        assert_eq!(s.peek(4).unwrap(), val(0xA4));
        assert_eq!(s.peek(250).unwrap(), val(0x5A));
        assert_eq!((tr.len(), tr.fingerprint()), (653, 15_754_192_445_845_025_286));
    }

    #[test]
    #[should_panic(expected = "reserved namespace")]
    fn reserved_object_ids_rejected() {
        SubOram::new_in_enclave(
            vec![StoredObject::new(REAL_ID_LIMIT + 1, &[0], VLEN)],
            VLEN,
            Key256([0u8; 32]),
            128,
        );
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use snoopy_crypto::Key256;
    use snoopy_enclave::wire::{Request, StoredObject};

    const VLEN: usize = 16;

    fn objects(n: u64) -> Vec<StoredObject> {
        (0..n).map(|i| StoredObject::new(i, &[(i % 251) as u8; 4], VLEN)).collect()
    }

    fn mixed_batch() -> Vec<Request> {
        let mut batch = Vec::new();
        for i in 0..100u64 {
            if i % 3 == 0 {
                batch.push(Request::write(i * 5, &[0xD0 | (i % 16) as u8; 4], VLEN, 1, i));
            } else {
                batch.push(Request::read(i * 5, VLEN, 1, i));
            }
        }
        batch
    }

    #[test]
    fn parallel_matches_serial_semantics() {
        for threads in [1usize, 2, 3, 4, 7] {
            let mut serial = SubOram::new_in_enclave(objects(1000), VLEN, Key256([4u8; 32]), 128);
            let mut parallel = SubOram::new_in_enclave(objects(1000), VLEN, Key256([4u8; 32]), 128);
            let sort = |mut v: Vec<Request>| {
                v.sort_by_key(|r| r.id);
                v
            };
            let a = sort(serial.batch_access(mixed_batch()).unwrap());
            let b = sort(parallel.batch_access_parallel(mixed_batch(), threads).unwrap());
            assert_eq!(a, b, "threads={threads}");
            // Stored state matches too.
            for i in 0..1000u64 {
                assert_eq!(serial.peek(i), parallel.peek(i), "object {i}, threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_trace_identical_to_serial_for_all_thread_counts() {
        let (_, serial_trace) = snoopy_obliv::trace::capture(|| {
            let mut s = SubOram::new_in_enclave(objects(500), VLEN, Key256([4u8; 32]), 128);
            s.batch_access(mixed_batch()).unwrap();
        });
        assert!(!serial_trace.is_empty());
        for threads in [1usize, 2, 3, 4, 7] {
            let (_, par_trace) = snoopy_obliv::trace::capture(|| {
                // Same public shape (object count, batch size), different
                // secret contents: ids shifted, all writes.
                let mut s = SubOram::new_in_enclave(objects(500), VLEN, Key256([4u8; 32]), 128);
                let batch: Vec<Request> = (0..100u64)
                    .map(|i| Request::write(i * 7 + 3, &[0x11; 4], VLEN, 1, i))
                    .collect();
                s.batch_access_parallel(batch, threads).unwrap();
            });
            assert_eq!(serial_trace, par_trace, "trace diverged at threads={threads}");
        }
    }

    #[test]
    fn parallel_emits_the_serial_scan_spans() {
        // With `sub_threads > 1` the build and the scan must still show up
        // as named stages, not as unattributed epoch time.
        use std::collections::BTreeSet;
        let tracer = snoopy_telemetry::trace::tracer();
        let tid = tracer.current_tid();
        let span_names = |run: &mut dyn FnMut()| -> BTreeSet<String> {
            run();
            let (spans, _) = tracer.drain();
            spans
                .into_iter()
                .filter(|s| s.tid == tid && s.name.starts_with("epoch/suboram_scan/"))
                .map(|s| s.name.into_owned())
                .collect()
        };
        let mut s = SubOram::new_in_enclave(objects(300), VLEN, Key256([4u8; 32]), 128);
        let serial = span_names(&mut || {
            s.batch_access(mixed_batch()).unwrap();
        });
        let parallel = span_names(&mut || {
            s.batch_access_parallel(mixed_batch(), 3).unwrap();
        });
        let want: BTreeSet<String> =
            ["epoch/suboram_scan/ohash_build", "epoch/suboram_scan/linear_scan"]
                .map(String::from)
                .into();
        assert_eq!(serial, want);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_rejects_duplicates_too() {
        let mut s = SubOram::new_in_enclave(objects(100), VLEN, Key256([4u8; 32]), 128);
        let batch = vec![Request::read(1, VLEN, 0, 0), Request::read(1, VLEN, 0, 1)];
        assert!(matches!(
            s.batch_access_parallel(batch, 4),
            Err(SubOramError::Hash(OHashError::DuplicateIds))
        ));
    }

    #[test]
    fn parallel_on_external_falls_back_to_serial() {
        let mut s = SubOram::new_external(objects(100), VLEN, Key256([4u8; 32]), 128);
        let out = s.batch_access_parallel(vec![Request::read(5, VLEN, 0, 0)], 4).unwrap();
        assert_eq!(out.len(), 1);
    }
}
