//! `snoopy-store`: the file-backed oblivious storage tier (ROADMAP
//! "larger-than-RAM partitions").
//!
//! A subORAM partition that exceeds enclave memory lives here as one
//! AEAD-sealed **segment file** of fixed-size blocks, laid out for exactly
//! the access pattern the subORAM has: a full sequential scan with
//! unconditional write-back (Goodrich–Mitzenmacher, "Oblivious Storage with
//! Low I/O Overhead"). Blocks are sealed in the format and under the
//! sealing discipline of [`snoopy_suboram::sealed`], which the external tier
//! shares: every sealing pass (create, each streaming scan, each resident
//! commit) seals under its own key, and the enclave keeps every block's
//! 16-byte AEAD tag and compares it before opening the block. The segment
//! header carries the pass id. A root digest over (pass id, count, tags)
//! rides in the sealed checkpoint, so the host can neither forge, swap, nor
//! roll back blocks or whole segments.
//!
//! The scan streams blocks through a bounded read-ahead/write-behind buffer
//! — resident memory is O(`buffer_blocks`), not O(partition) — writing the
//! re-sealed blocks to a *new* segment. An epoch **commit** makes that
//! segment durable with fsync + atomic rename (`gen-<g>.seg`), so a kill at
//! any instant recovers to the previous sealed generation; the sealed
//! checkpoint stores the committed generation's root digest
//! ([`snoopy_suboram::StorageGeneration`]), which gives whole-store rollback
//! protection across restarts. Partitions that *do* fit the buffer run
//! resident (a plaintext slab in enclave memory, sealed only at commit) —
//! crossing that boundary is the paper's Fig. 12 paging cliff, reproduced
//! here with real I/O.
//!
//! Leakage: every scan reads and writes every block of the segment in index
//! order with fixed sizes, so the block-layer I/O schedule (offsets, lengths,
//! order — see [`IoEvent`]) is a function of public geometry only. Tests
//! assert it is byte-identical across request contents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{StoredObject, REAL_ID_LIMIT};
use snoopy_suboram::sealed::{self, Geometry, Pass, Tag};
use snoopy_suboram::{
    IntegrityError, ObjectSlab, SnapshotError, StorageBackend, StorageGeneration, SubOram,
    SubOramError,
};
use snoopy_telemetry::events::{self, Event, EventKind};
use snoopy_telemetry::metrics::{self, names};
use snoopy_telemetry::Public;

const MAGIC: &[u8; 8] = b"SNPSEG02";
/// The format before per-pass keys: one key for every pass. Refused.
const MAGIC_V1: &[u8; 8] = b"SNPSEG01";
/// Magic, pass id (16 B), count, value_len, objs_per_block.
const HEADER_LEN: usize = 48;

/// Which storage tier a subORAM partition lives in. Flows from the manifest
/// (`storage = memory|external|disk`) and `SnoopyConfig` down to the backend
/// constructed for each subORAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Plaintext objects in (modeled) enclave memory.
    Memory,
    /// AEAD-sealed blocks in untrusted memory, their tags in-enclave.
    External,
    /// AEAD-sealed segment files on disk ([`DiskBackend`]).
    Disk,
}

impl StorageKind {
    /// Parses the manifest spelling.
    pub fn parse(s: &str) -> Option<StorageKind> {
        match s {
            "memory" => Some(StorageKind::Memory),
            "external" => Some(StorageKind::External),
            "disk" => Some(StorageKind::Disk),
            _ => None,
        }
    }

    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageKind::Memory => "memory",
            StorageKind::External => "external",
            StorageKind::Disk => "disk",
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Public geometry of a disk-backed partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Target plaintext bytes per sealed block (rounded to whole objects,
    /// minimum one object per block).
    pub block_bytes: usize,
    /// Enclave-resident block budget: the scan's read-ahead/write-behind
    /// buffer, and the threshold below which the whole partition stays
    /// resident between commits.
    pub buffer_blocks: usize,
}

impl Default for DiskConfig {
    fn default() -> DiskConfig {
        DiskConfig { block_bytes: 4096, buffer_blocks: 64 }
    }
}

/// One block-layer I/O operation, as recorded by [`DiskBackend::enable_io_log`].
/// Offsets and lengths are functions of public geometry only; tests assert
/// the event stream is byte-identical across request contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEvent {
    /// Sequential read of sealed blocks from the active segment.
    Read {
        /// Byte offset in the source segment file.
        offset: u64,
        /// Bytes read.
        len: u64,
    },
    /// Write-behind flush of re-sealed blocks to the pending segment.
    Write {
        /// Byte offset in the destination segment file.
        offset: u64,
        /// Bytes written.
        len: u64,
    },
    /// fsync of the pending segment or its directory.
    Fsync,
    /// Atomic rename publishing a committed generation.
    Rename,
}

/// RAII temporary directory (std-only; no `tempfile` dependency). Removed
/// recursively on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh uniquely-named directory under the system temp dir.
    pub fn new(prefix: &str) -> io::Result<TempDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The file-backed [`StorageBackend`]: AEAD-sealed fixed-size blocks in a
/// sequential-scan-friendly segment file under a fresh key per sealing pass,
/// per-block tags in-enclave, bounded-buffer streaming scan, crash-safe
/// generation commit.
pub struct DiskBackend {
    dir: PathBuf,
    /// The key every pass key is derived from.
    pass_root: Key256,
    mac_key: Key256,
    geom: Geometry,
    buffer_blocks: usize,
    /// The pass the active sealed state was sealed under.
    pass: Pass,
    generation: u64,
    /// In-enclave per-block AEAD tags of the active sealed state.
    tags: Vec<Tag>,
    /// Resident mode: the whole partition as a plaintext slab in enclave
    /// memory (only when it fits the buffer budget); sealed at commit.
    resident: Option<ObjectSlab>,
    active_path: PathBuf,
    active_is_tmp: bool,
    /// Handle to the last scan's pending segment, kept for the commit fsync.
    active_file: Option<File>,
    dirty: bool,
    temp: Option<TempDir>,
    io_log: Option<Vec<IoEvent>>,
    prg: Prg,
}

impl DiskBackend {
    /// Seals `part` into a fresh generation-0 segment under `dir` (created
    /// if missing; stale segments from earlier runs are removed). When the
    /// partition fits the buffer, `part` itself becomes the resident cache.
    pub fn create(
        dir: &Path,
        part: ObjectSlab,
        cfg: DiskConfig,
        root_key: &Key256,
    ) -> io::Result<DiskBackend> {
        fs::create_dir_all(dir)?;
        clear_segments(dir)?;
        let geom = Geometry::new(part.len(), part.value_len(), cfg.block_bytes);
        // A fresh backend already holds a fresh pass: the create pass.
        let mut b = DiskBackend::empty(dir.to_path_buf(), geom, cfg, root_key);
        let path = b.gen_path(0);
        b.tags = b.write_sealed_segment(&path, &b.pass, |i| part.get(i))?;
        fsync_dir(&b.dir)?;
        b.active_path = path;
        if b.nblocks() <= b.buffer_blocks {
            b.resident = Some(part);
        }
        Ok(b)
    }

    /// Like [`DiskBackend::create`] but in a fresh private temp directory
    /// that is removed when the backend drops — for in-process clusters and
    /// the reference engine.
    pub fn create_temp(
        part: ObjectSlab,
        cfg: DiskConfig,
        root_key: &Key256,
    ) -> io::Result<DiskBackend> {
        let temp = TempDir::new("snoopy-store")?;
        let mut b = DiskBackend::create(temp.path(), part, cfg, root_key)?;
        b.temp = Some(temp);
        Ok(b)
    }

    /// Reopens the committed generation named by `expected` (from the sealed
    /// checkpoint): authenticates every block under the segment's pass key
    /// (Poly1305 only, unless the partition fits the buffer and is decrypted
    /// into the resident cache), and refuses to start if a block fails or the
    /// root digest disagrees — host tampering or a whole-store rollback while
    /// the enclave was down is detected here, before any request is served.
    /// A segment in the retired `SNPSEG01` format is refused as
    /// `InvalidData`. Uncommitted pending segments and orphaned generations
    /// are removed.
    pub fn open(
        dir: &Path,
        value_len: usize,
        cfg: DiskConfig,
        root_key: &Key256,
        expected: StorageGeneration,
    ) -> io::Result<DiskBackend> {
        let path = dir.join(format!("gen-{}.seg", expected.generation));
        let mut f = File::open(&path)?;
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic == MAGIC_V1 {
            return Err(bad_data(
                "segment format SNPSEG01 (one key for every pass) is no longer supported; \
                 this build reads SNPSEG02",
            ));
        }
        if &magic != MAGIC {
            return Err(bad_data("segment magic mismatch"));
        }
        let mut header = [0u8; HEADER_LEN - 8];
        f.read_exact(&mut header)?;
        let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let id = u128::from_le_bytes(header[..16].try_into().expect("16 bytes"));
        let count = word(16) as usize;
        let (hdr_value_len, hdr_opb) = (word(24) as usize, word(32) as usize);
        let geom = Geometry::new(count, value_len, cfg.block_bytes);
        let mut b = DiskBackend::empty(dir.to_path_buf(), geom, cfg, root_key);
        if hdr_value_len != value_len || hdr_opb != geom.objs_per_block {
            return Err(bad_data("segment geometry does not match configuration"));
        }
        b.pass = Pass::derive(&b.pass_root, id);
        b.generation = expected.generation;

        // Stream the segment once, authenticating every block and rebuilding
        // the in-enclave tags (and the resident cache when the partition
        // fits the buffer).
        let plain_len = geom.plain_len();
        let mut block = vec![0u8; geom.sealed_len()];
        let mut resident =
            (b.nblocks() <= b.buffer_blocks).then(|| ObjectSlab::with_capacity(count, value_len));
        let refuse = |e: IntegrityError| bad_data(&format!("segment block: {e}"));
        for i in 0..b.nblocks() {
            f.read_exact(&mut block)?;
            if let Some(slab) = resident.as_mut() {
                b.pass.open(i, &mut block).map_err(refuse)?;
                geom.visit(i, &mut block[..plain_len], &mut |id, v| slab.push(id, v));
            } else {
                b.pass.verify(i, &block).map_err(refuse)?;
            }
            // Opening decrypts only the ciphertext; the tag is as read.
            b.tags.push(block[plain_len..].try_into().expect("TAG_LEN bytes"));
        }
        if b.root_digest() != expected.digest {
            return Err(bad_data("generation root digest mismatch (tampering or rollback)"));
        }
        b.resident = resident;
        b.active_path = path;
        // Clean everything except the generation we just verified: pending
        // scans that never committed, and generations the checkpoint does
        // not reference (e.g. a commit that raced the checkpoint write).
        for entry in fs::read_dir(dir)? {
            let p = entry?.path();
            if p != b.active_path && is_segment_file(&p) {
                let _ = fs::remove_file(&p);
            }
        }
        Ok(b)
    }

    fn empty(dir: PathBuf, geom: Geometry, cfg: DiskConfig, root_key: &Key256) -> DiskBackend {
        let pass_root = root_key.derive(b"disk-store-aead");
        let mut prg = Prg::from_entropy();
        let pass = Pass::fresh(&pass_root, &mut prg);
        DiskBackend {
            dir,
            pass_root,
            mac_key: root_key.derive(b"disk-store-mac"),
            geom,
            buffer_blocks: cfg.buffer_blocks.max(1),
            pass,
            generation: 0,
            tags: Vec::new(),
            resident: None,
            active_path: PathBuf::new(),
            active_is_tmp: false,
            active_file: None,
            dirty: false,
            temp: None,
            io_log: None,
            prg,
        }
    }

    /// Starts recording the block-layer I/O schedule (offsets/lengths/order
    /// of every read, write, fsync, rename). Used by the obliviousness
    /// tests: the schedule must be a function of public geometry only.
    pub fn enable_io_log(&mut self) {
        self.io_log = Some(Vec::new());
    }

    /// Drains the recorded I/O schedule.
    pub fn take_io_log(&mut self) -> Vec<IoEvent> {
        match self.io_log.take() {
            Some(log) => {
                self.io_log = Some(Vec::new());
                log
            }
            None => Vec::new(),
        }
    }

    /// The committed generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the partition is held resident (fits the buffer budget) or
    /// streamed from disk on every scan.
    pub fn is_resident(&self) -> bool {
        self.resident.is_some()
    }

    /// Number of sealed blocks in the segment.
    pub fn nblocks(&self) -> usize {
        self.geom.nblocks()
    }

    fn log(&mut self, ev: IoEvent) {
        if let Some(log) = self.io_log.as_mut() {
            log.push(ev);
        }
    }

    fn sealed_len(&self) -> usize {
        self.geom.sealed_len()
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation}.seg"))
    }

    /// A pass with a fresh random id.
    fn new_pass(&mut self) -> Pass {
        Pass::fresh(&self.pass_root, &mut self.prg)
    }

    /// Where a pass writes its segment before a commit publishes it.
    fn pending_path(&self, pass: &Pass) -> PathBuf {
        self.dir.join(format!("scan-{:032x}.tmp", pass.id))
    }

    /// The whole-segment identity carried in the sealed checkpoint.
    fn root_digest(&self) -> [u8; 32] {
        sealed::root_digest(&self.mac_key, self.pass.id, self.geom.count, &self.tags)
    }

    /// Seals the partition whose object `i` is `record(i)` as `(id, value)`
    /// under `pass` into a new segment file at `path`, one block at a time,
    /// and fsyncs it. Returns the blocks' tags.
    fn write_sealed_segment<'a>(
        &self,
        path: &Path,
        pass: &Pass,
        record: impl Fn(usize) -> (u64, &'a [u8]),
    ) -> io::Result<Vec<Tag>> {
        let mut out = BufWriter::with_capacity(64 * 1024, File::create(path)?);
        out.write_all(&segment_header(pass.id, &self.geom))?;
        let mut block = vec![0u8; self.sealed_len()];
        let mut tags = Vec::with_capacity(self.nblocks());
        for i in 0..self.nblocks() {
            self.geom.pack(i, &mut block, &record);
            tags.push(pass.seal(i, &mut block));
            out.write_all(&block)?;
        }
        out.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        Ok(tags)
    }

    /// The streaming scan: bounded read-ahead from the active segment,
    /// verify + open + visit + re-seal per block, bounded write-behind into
    /// a new pending segment. On any failure the pending segment is removed
    /// and the active state is untouched.
    fn scan_streaming(
        &mut self,
        visit: &mut dyn FnMut(u64, &mut [u8]),
    ) -> Result<(), SubOramError> {
        let pass = self.new_pass();
        let tmp_path = self.pending_path(&pass);
        let result = self.scan_streaming_inner(visit, pass, &tmp_path);
        if result.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        result
    }

    fn scan_streaming_inner(
        &mut self,
        visit: &mut dyn FnMut(u64, &mut [u8]),
        pass: Pass,
        tmp_path: &Path,
    ) -> Result<(), SubOramError> {
        let sealed_len = self.sealed_len();
        let plain_len = self.geom.plain_len();
        let nblocks = self.nblocks();
        // Split the block budget between read-ahead and write-behind.
        let read_chunk = (self.buffer_blocks / 2).max(1);
        let write_cap = (self.buffer_blocks - read_chunk).max(1);

        let mut src = File::open(&self.active_path)?;
        src.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut dst = File::create(tmp_path)?;
        dst.write_all(&segment_header(pass.id, &self.geom))?;
        self.log(IoEvent::Write { offset: 0, len: HEADER_LEN as u64 });

        let reg = metrics::global();
        let mut bytes_read = 0u64;
        let mut bytes_written = HEADER_LEN as u64;
        let mut stalls = 0u64;

        let mut read_buf = vec![0u8; read_chunk * sealed_len];
        let mut write_buf = vec![0u8; write_cap * sealed_len];
        let mut pending = 0usize; // blocks in write_buf
        let mut write_off = HEADER_LEN as u64;
        let mut new_tags = Vec::with_capacity(nblocks);

        let mut i = 0usize;
        while i < nblocks {
            let k = read_chunk.min(nblocks - i);
            let buf = &mut read_buf[..k * sealed_len];
            src.read_exact(buf)?;
            self.log(IoEvent::Read {
                offset: (HEADER_LEN + i * sealed_len) as u64,
                len: buf.len() as u64,
            });
            bytes_read += buf.len() as u64;
            for (j, block) in read_buf[..k * sealed_len].chunks_exact_mut(sealed_len).enumerate() {
                // Open in place in the read buffer, visit, then re-seal in
                // place at the tail of the write buffer.
                let index = i + j;
                self.pass.open_active(&self.tags, index, block)?;
                let plain = &mut block[..plain_len];
                self.geom.visit(index, plain, visit);
                let out = &mut write_buf[pending * sealed_len..(pending + 1) * sealed_len];
                out[..plain_len].copy_from_slice(plain);
                new_tags.push(pass.seal(index, out));
                pending += 1;
                if pending == write_cap {
                    // Write-behind buffer full: forced flush before the next
                    // read-ahead — a buffer stall.
                    dst.write_all(&write_buf)?;
                    self.log(IoEvent::Write { offset: write_off, len: write_buf.len() as u64 });
                    write_off += write_buf.len() as u64;
                    bytes_written += write_buf.len() as u64;
                    stalls += 1;
                    pending = 0;
                }
            }
            i += k;
        }
        if pending > 0 {
            let rest = &write_buf[..pending * sealed_len];
            dst.write_all(rest)?;
            self.log(IoEvent::Write { offset: write_off, len: rest.len() as u64 });
            bytes_written += rest.len() as u64;
        }
        dst.flush()?;

        reg.counter(names::STORE_BYTES_READ_TOTAL, "bytes read from segment files")
            .add(Public::wire_observable(bytes_read));
        reg.counter(names::STORE_BYTES_WRITTEN_TOTAL, "bytes written to segment files")
            .add(Public::wire_observable(bytes_written));
        reg.counter(names::STORE_BUFFER_STALLS_TOTAL, "write-behind buffer forced flushes")
            .add(Public::wire_observable(stalls));

        // Publish the new sealed state as the active (still uncommitted)
        // segment; the previous committed generation stays on disk for crash
        // recovery until the commit after the *next* one.
        if self.active_is_tmp {
            let _ = fs::remove_file(&self.active_path);
        }
        self.active_path = tmp_path.to_path_buf();
        self.active_is_tmp = true;
        self.active_file = Some(dst);
        self.tags = new_tags;
        self.pass = pass;
        self.dirty = true;
        Ok(())
    }
}

fn segment_header(pass_id: u128, geom: &Geometry) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&pass_id.to_le_bytes());
    for word in [geom.count, geom.value_len, geom.objs_per_block] {
        h.extend_from_slice(&(word as u64).to_le_bytes());
    }
    h
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn is_segment_file(p: &Path) -> bool {
    matches!(p.extension().and_then(|e| e.to_str()), Some("seg" | "tmp"))
}

fn clear_segments(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if is_segment_file(&p) {
            let _ = fs::remove_file(&p);
        }
    }
    Ok(())
}

/// Fsyncs the directory `dir`, which makes a rename inside it durable.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Durability of the rename itself: fsync the directory entry.
    File::open(dir)?.sync_all()
}

impl StorageBackend for DiskBackend {
    fn len(&self) -> usize {
        self.geom.count
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u64, &mut [u8])) -> Result<(), SubOramError> {
        let started = std::time::Instant::now();
        if let Some(slab) = self.resident.as_mut() {
            slab.scan(visit);
            self.dirty = true;
        } else {
            self.scan_streaming(visit)?;
        }
        metrics::stage_histogram("store_scan").observe(Public::timing(started.elapsed()));
        Ok(())
    }

    fn for_each(&self, visit: &mut dyn FnMut(u64, &[u8])) -> Result<(), SubOramError> {
        if let Some(slab) = self.resident.as_ref() {
            slab.for_each(visit);
            return Ok(());
        }
        let plain_len = self.geom.plain_len();
        let mut f = File::open(&self.active_path)?;
        f.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut block = vec![0u8; self.sealed_len()];
        for i in 0..self.nblocks() {
            f.read_exact(&mut block)?;
            self.pass.open_active(&self.tags, i, &mut block)?;
            self.geom.visit(i, &mut block[..plain_len], &mut |id, value| visit(id, value));
        }
        Ok(())
    }

    fn snapshot(&self) -> Result<Vec<StoredObject>, SnapshotError> {
        // Size-aware refusal: checkpoints must record the committed
        // generation, never materialize a larger-than-RAM partition.
        let Geometry { count, value_len, .. } = self.geom;
        Err(SnapshotError::Streaming { objects: count, bytes: (count * (8 + value_len)) as u64 })
    }

    fn commit(&mut self, _epoch: u64) -> Result<Option<StorageGeneration>, SubOramError> {
        if !self.dirty {
            return Ok(Some(StorageGeneration {
                generation: self.generation,
                digest: self.root_digest(),
            }));
        }
        let started = std::time::Instant::now();
        let next_gen = self.generation + 1;
        let new_path = self.gen_path(next_gen);
        let mut fsyncs = 0u64;
        if self.resident.is_some() {
            // Resident partitions are sealed wholesale at commit time.
            let pass = self.new_pass();
            let tmp = self.pending_path(&pass);
            let slab = self.resident.as_ref().expect("resident");
            let tags = self.write_sealed_segment(&tmp, &pass, |i| slab.get(i))?;
            self.log(IoEvent::Write {
                offset: 0,
                len: (HEADER_LEN + tags.len() * self.sealed_len()) as u64,
            });
            self.log(IoEvent::Fsync);
            fsyncs += 1;
            fs::rename(&tmp, &new_path)?;
            self.tags = tags;
            self.pass = pass;
        } else {
            let pending =
                self.active_file.take().ok_or(SubOramError::Storage(io::ErrorKind::NotFound))?;
            pending.sync_all()?;
            self.log(IoEvent::Fsync);
            fsyncs += 1;
            fs::rename(&self.active_path, &new_path)?;
        }
        self.log(IoEvent::Rename);
        fsync_dir(&self.dir)?;
        self.log(IoEvent::Fsync);
        fsyncs += 1;
        // Keep exactly one previous sealed generation for crash recovery.
        if next_gen >= 2 {
            let _ = fs::remove_file(self.gen_path(next_gen - 2));
        }
        self.generation = next_gen;
        self.active_path = new_path;
        self.active_is_tmp = false;
        self.dirty = false;
        metrics::global()
            .counter(names::STORE_FSYNCS_TOTAL, "segment/directory fsyncs")
            .add(Public::wire_observable(fsyncs));
        metrics::stage_histogram("store_commit").observe(Public::timing(started.elapsed()));
        events::record(
            Event::new(EventKind::StorageCommit)
                .with("generation", Public::wire_observable(self.generation))
                .with("fsyncs", Public::wire_observable(fsyncs)),
        );
        Ok(Some(StorageGeneration { generation: self.generation, digest: self.root_digest() }))
    }

    fn untrusted_image(&mut self) -> Option<Vec<u8>> {
        if self.resident.is_some() {
            // Resident state is enclave memory; the segment file is only
            // read at open, so there is no live untrusted surface to image.
            return None;
        }
        fs::read(&self.active_path).ok()
    }

    fn restore_untrusted_image(&mut self, image: &[u8]) -> bool {
        if self.resident.is_some() {
            return false;
        }
        let expect = HEADER_LEN + self.nblocks() * self.sealed_len();
        if image.len() != expect {
            return false;
        }
        fs::write(&self.active_path, image).is_ok()
    }

    fn corrupt_block(&mut self, index: usize) -> bool {
        if self.resident.is_some() || index >= self.nblocks() {
            return false;
        }
        let offset = (HEADER_LEN + index * self.sealed_len()) as u64;
        let flip = || -> io::Result<()> {
            let mut f = OpenOptions::new().read(true).write(true).open(&self.active_path)?;
            f.seek(SeekFrom::Start(offset))?;
            let mut byte = [0u8; 1];
            f.read_exact(&mut byte)?;
            byte[0] ^= 1;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(&byte)?;
            Ok(())
        };
        flip().is_ok()
    }
}

/// Builds a [`SubOram`] over the requested storage tier. Disk partitions go
/// to a private temp directory removed on drop — the path used by the
/// reference engine and in-process clusters; daemons with a manifest
/// `store_dir` construct [`DiskBackend`] explicitly for durable recovery.
///
/// The disk geometry here is deliberately small (1 KiB blocks, 8-block
/// buffer) so test-sized partitions exercise the streaming path rather than
/// hiding in the resident fast path.
pub fn build_suboram(
    kind: StorageKind,
    objects: Vec<StoredObject>,
    value_len: usize,
    root_key: Key256,
    lambda: u32,
) -> SubOram {
    match kind {
        StorageKind::Memory => SubOram::new_in_enclave(objects, value_len, root_key, lambda),
        StorageKind::External => SubOram::new_external(objects, value_len, root_key, lambda),
        StorageKind::Disk => {
            let part = slab_of(objects, value_len);
            let cfg = DiskConfig { block_bytes: 1024, buffer_blocks: 8 };
            let backend = DiskBackend::create_temp(part, cfg, &root_key.derive(b"suboram-disk"))
                .expect("disk store setup");
            SubOram::with_backend(Box::new(backend), value_len, root_key, lambda)
        }
    }
}

/// [`build_suboram_disk_from_slab`] over an object list.
pub fn build_suboram_disk(
    dir: &Path,
    objects: Vec<StoredObject>,
    value_len: usize,
    cfg: DiskConfig,
    root_key: Key256,
    lambda: u32,
) -> io::Result<SubOram> {
    build_suboram_disk_from_slab(dir, slab_of(objects, value_len), cfg, root_key, lambda)
}

/// Builds a disk-tier [`SubOram`] holding `part` in a durable directory
/// with explicit geometry — the daemon path: the segment directory outlives
/// the process so a restart can [`open_suboram_disk`] the committed
/// generation.
pub fn build_suboram_disk_from_slab(
    dir: &Path,
    part: ObjectSlab,
    cfg: DiskConfig,
    root_key: Key256,
    lambda: u32,
) -> io::Result<SubOram> {
    part.for_each(|id, _| assert!(id < REAL_ID_LIMIT, "object id {id} in reserved namespace"));
    let value_len = part.value_len();
    let backend = DiskBackend::create(dir, part, cfg, &root_key.derive(b"suboram-disk"))?;
    Ok(SubOram::with_backend(Box::new(backend), value_len, root_key, lambda))
}

/// `objects` as a slab, freeing the list before returning (every value must
/// be `value_len` bytes).
fn slab_of(objects: Vec<StoredObject>, value_len: usize) -> ObjectSlab {
    ObjectSlab::from_objects(&objects, value_len)
}

/// Reopens a disk-tier [`SubOram`] from the committed generation recorded in
/// a sealed checkpoint. Refuses (as `InvalidData`) if the on-disk segment's
/// root digest disagrees with `expected` — host tampering or rollback.
pub fn open_suboram_disk(
    dir: &Path,
    value_len: usize,
    cfg: DiskConfig,
    root_key: Key256,
    lambda: u32,
    expected: StorageGeneration,
) -> io::Result<SubOram> {
    let backend =
        DiskBackend::open(dir, value_len, cfg, &root_key.derive(b"suboram-disk"), expected)?;
    Ok(SubOram::with_backend(Box::new(backend), value_len, root_key, lambda))
}

/// The segment directory for reshard generation `generation` of a partition
/// whose boot-layout directory is `base`: the boot generation keeps `base`
/// itself (so pre-reshard deployments are untouched), later generations get
/// the sibling `<base>-gen<g>`. A reshard stages the next generation beside
/// the live one and only the committed checkpoint says which is
/// authoritative.
pub fn generation_dir(base: &Path, generation: u64) -> PathBuf {
    if generation == 0 {
        return base.to_path_buf();
    }
    let name = base.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    base.with_file_name(format!("{name}-gen{generation}"))
}

/// The partition sealing key for reshard generation `generation`: the boot
/// generation keeps `root` (back-compat with pre-reshard stores), later
/// generations derive a fresh key. Each generation's segment directory
/// restarts its storage-commit counter at zero, so reusing one key across
/// generations would repeat `(key, nonce)` pairs over different plaintexts;
/// a per-generation key makes every nonce sequence fresh.
pub fn generation_key(root: &Key256, generation: u64) -> Key256 {
    if generation == 0 {
        return root.clone();
    }
    root.derive(b"reshard-generation").derive(&generation.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const VLEN: usize = 24;

    fn objects(n: u64) -> Vec<StoredObject> {
        (0..n).map(|i| StoredObject::new(i, &[(i % 251) as u8; 4], VLEN)).collect()
    }

    fn slab(objects: &[StoredObject]) -> ObjectSlab {
        ObjectSlab::from_objects(objects, VLEN)
    }

    fn key() -> Key256 {
        Key256([7u8; 32])
    }

    /// Streaming geometry: 8 objects per 256-byte block, 4-block buffer.
    fn streaming_cfg() -> DiskConfig {
        DiskConfig { block_bytes: 256, buffer_blocks: 4 }
    }

    fn collect(b: &DiskBackend) -> Vec<StoredObject> {
        let mut out = Vec::new();
        b.for_each(&mut |id, value| out.push(StoredObject { id, value: value.to_vec() })).unwrap();
        out
    }

    #[test]
    fn storage_kind_parses_exactly_the_three_tiers() {
        for kind in [StorageKind::Memory, StorageKind::External, StorageKind::Disk] {
            assert_eq!(StorageKind::parse(kind.as_str()), Some(kind));
        }
        for bad in ["dsk", "Disk", "", " disk"] {
            assert_eq!(StorageKind::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn generation_dir_and_key_keep_boot_layout_and_fork_later_generations() {
        let base = Path::new("/var/lib/snoopy/sub3");
        // Generation 0 is the pre-reshard layout: same directory, same key.
        assert_eq!(generation_dir(base, 0), base);
        assert_eq!(generation_key(&key(), 0), key());
        // Later generations are siblings with fresh keys, distinct per
        // generation (each directory restarts its nonce counters).
        assert_eq!(generation_dir(base, 2), Path::new("/var/lib/snoopy/sub3-gen2"));
        let g1 = generation_key(&key(), 1);
        let g2 = generation_key(&key(), 2);
        assert_ne!(g1, key());
        assert_ne!(g1, g2);
        assert_ne!(generation_dir(base, 1), generation_dir(base, 2));
    }

    /// Pass ids come from `Prg::from_entropy`, which reads the OS entropy
    /// source: two backends in one process never share a pass key.
    #[test]
    fn backends_in_one_process_draw_distinct_pass_ids() {
        let objs = objects(10);
        let a = DiskBackend::create_temp(slab(&objs), streaming_cfg(), &key()).unwrap();
        let b = DiskBackend::create_temp(slab(&objs), streaming_cfg(), &key()).unwrap();
        assert_ne!(a.pass.id, b.pass.id);
    }

    #[test]
    fn create_scan_roundtrip_streaming() {
        let objs = objects(100);
        let mut b = DiskBackend::create_temp(slab(&objs), streaming_cfg(), &key()).unwrap();
        assert!(!b.is_resident(), "100 objects must exceed the 4-block buffer");
        assert_eq!(collect(&b), objs);
        // A scan that rewrites one object persists (in the pending segment).
        b.scan(&mut |id, value| {
            if id == 42 {
                value.fill(0xEE);
            }
        })
        .unwrap();
        let now = collect(&b);
        assert_eq!(now.len(), 100);
        assert_eq!(now[42].value, vec![0xEE; VLEN]);
        assert_eq!(now[41], objs[41]);
    }

    #[test]
    fn resident_mode_for_small_partitions() {
        let objs = objects(16);
        let mut b = DiskBackend::create_temp(slab(&objs), DiskConfig::default(), &key()).unwrap();
        assert!(b.is_resident());
        b.scan(&mut |_, v| v[0] ^= 0xFF).unwrap();
        let gen = b.commit(1).unwrap().unwrap();
        assert_eq!(gen.generation, 1);
        assert_eq!(collect(&b)[3].value[0], objs[3].value[0] ^ 0xFF);
    }

    #[test]
    fn partition_8x_larger_than_buffer_serves_correctly() {
        // Acceptance: buffer = 4 blocks × 256 B = 1 KiB resident budget;
        // partition = 1024 objects × 32 B = 32 KiB ≥ 8× the buffer.
        let cfg = streaming_cfg();
        let objs = objects(1024);
        let partition_bytes = objs.len() * (8 + VLEN);
        let buffer_bytes = cfg.buffer_blocks * cfg.block_bytes;
        assert!(partition_bytes >= 8 * buffer_bytes);
        let mut b = DiskBackend::create_temp(slab(&objs), cfg, &key()).unwrap();
        assert!(!b.is_resident());
        for round in 0..3u8 {
            b.scan(&mut |_, v| v[1] = round).unwrap();
            b.commit(round as u64).unwrap();
        }
        let now = collect(&b);
        assert_eq!(now.len(), 1024);
        assert!(now.iter().all(|o| o.value[1] == 2));
    }

    #[test]
    fn commit_reopen_roundtrip() {
        let dir = TempDir::new("snoopy-store-test").unwrap();
        let objs = objects(100);
        let mut b = DiskBackend::create(dir.path(), slab(&objs), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, v| v[0] = 0xAA).unwrap();
        let gen = b.commit(1).unwrap().unwrap();
        assert_eq!(gen.generation, 1);
        drop(b);
        let b2 = DiskBackend::open(dir.path(), VLEN, streaming_cfg(), &key(), gen).unwrap();
        let now = collect(&b2);
        assert_eq!(now.len(), 100);
        assert!(now.iter().all(|o| o.value[0] == 0xAA));
    }

    #[test]
    fn uncommitted_scan_rolls_back_to_previous_generation() {
        // Kill-mid-epoch model: scans after the last commit die with the
        // process; reopening the committed generation recovers pre-scan
        // state and removes the orphaned pending segment.
        let dir = TempDir::new("snoopy-store-test").unwrap();
        let objs = objects(64);
        let mut b = DiskBackend::create(dir.path(), slab(&objs), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, v| v[0] = 1).unwrap();
        let gen = b.commit(1).unwrap().unwrap();
        b.scan(&mut |_, v| v[0] = 2).unwrap(); // never committed
        drop(b);
        let b2 = DiskBackend::open(dir.path(), VLEN, streaming_cfg(), &key(), gen).unwrap();
        assert!(collect(&b2).iter().all(|o| o.value[0] == 1));
        let stale: Vec<_> = fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tmp"))
            .collect();
        assert!(stale.is_empty(), "pending segments must be cleaned at open");
    }

    #[test]
    fn open_rejects_rolled_back_generation() {
        let dir = TempDir::new("snoopy-store-test").unwrap();
        let objs = objects(64);
        let mut b = DiskBackend::create(dir.path(), slab(&objs), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, v| v[0] = 1).unwrap();
        let g1 = b.commit(1).unwrap().unwrap();
        let g1_bytes = fs::read(dir.path().join("gen-1.seg")).unwrap();
        b.scan(&mut |_, v| v[0] = 2).unwrap();
        let g2 = b.commit(2).unwrap().unwrap();
        drop(b);
        // Host rolls the store back to generation 1 but the checkpoint
        // references generation 2: open must refuse.
        fs::write(dir.path().join("gen-2.seg"), &g1_bytes).unwrap();
        let err = DiskBackend::open(dir.path(), VLEN, streaming_cfg(), &key(), g2)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And the rolled-back bytes under the *right* name still verify as
        // generation 1 (the previous sealed generation is the recovery
        // point).
        fs::write(dir.path().join("gen-1.seg"), &g1_bytes).unwrap();
        let b2 = DiskBackend::open(dir.path(), VLEN, streaming_cfg(), &key(), g1).unwrap();
        assert!(collect(&b2).iter().all(|o| o.value[0] == 1));
    }

    #[test]
    fn scan_detects_tampered_block() {
        let mut b = DiskBackend::create_temp(slab(&objects(100)), streaming_cfg(), &key()).unwrap();
        assert!(b.corrupt_block(5));
        let err = b.scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err, SubOramError::Integrity(IntegrityError::Corrupted { index: 5 }));
    }

    #[test]
    fn rollback_of_untrusted_image_detected() {
        let mut b = DiskBackend::create_temp(slab(&objects(100)), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, v| v[0] = 1).unwrap();
        let before = b.untrusted_image().unwrap();
        b.scan(&mut |_, v| v[0] = 2).unwrap();
        assert!(b.restore_untrusted_image(&before));
        assert!(matches!(b.scan(&mut |_, _| {}), Err(SubOramError::Integrity(_))));
    }

    #[test]
    fn snapshot_refuses_with_size() {
        let b = DiskBackend::create_temp(slab(&objects(100)), streaming_cfg(), &key()).unwrap();
        assert_eq!(
            b.snapshot().unwrap_err(),
            SnapshotError::Streaming { objects: 100, bytes: (100 * (8 + VLEN)) as u64 }
        );
    }

    #[test]
    fn io_schedule_is_position_deterministic() {
        // Same geometry, different request contents → byte-identical I/O
        // schedule (the leakage argument for why block I/O is public).
        let run = |payload: u8| {
            let mut b =
                DiskBackend::create_temp(slab(&objects(100)), streaming_cfg(), &key()).unwrap();
            b.enable_io_log();
            b.scan(&mut |id, value| {
                if id % 3 == u64::from(payload % 3) {
                    value.fill(payload);
                }
            })
            .unwrap();
            b.commit(1).unwrap();
            b.take_io_log()
        };
        let a = run(0x11);
        let b = run(0xEE);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn commit_is_idempotent_when_clean() {
        let mut b = DiskBackend::create_temp(slab(&objects(32)), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, _| {}).unwrap();
        let g1 = b.commit(1).unwrap().unwrap();
        let g1_again = b.commit(2).unwrap().unwrap();
        assert_eq!(g1, g1_again, "no scan between commits → same generation");
    }

    #[test]
    fn buffer_stall_counter_advances() {
        let reg = metrics::global();
        let before = reg
            .counter(names::STORE_BUFFER_STALLS_TOTAL, "write-behind buffer forced flushes")
            .value();
        let mut b = DiskBackend::create_temp(slab(&objects(512)), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, _| {}).unwrap();
        let after = reg
            .counter(names::STORE_BUFFER_STALLS_TOTAL, "write-behind buffer forced flushes")
            .value();
        assert!(after > before, "a 64-block scan through a 4-block buffer must stall");
    }

    /// The sealed blocks of a segment image, header stripped.
    fn blocks_of(image: &[u8], b: &DiskBackend) -> Vec<Vec<u8>> {
        image[HEADER_LEN..].chunks(b.sealed_len()).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn open_refuses_v1_segment() {
        let dir = TempDir::new("snoopy-store-test").unwrap();
        let objs = objects(64);
        let mut b = DiskBackend::create(dir.path(), slab(&objs), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, _| {}).unwrap();
        let gen = b.commit(1).unwrap().unwrap();
        drop(b);
        // Rewrite the committed segment in the SNPSEG01 layout: a 40-byte
        // header (magic, u64 sequence, count, value_len, objs_per_block)
        // ahead of the same blocks.
        let path = dir.path().join("gen-1.seg");
        let current = fs::read(&path).unwrap();
        let mut v1 = b"SNPSEG01".to_vec();
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(&current[24..HEADER_LEN]);
        v1.extend_from_slice(&current[HEADER_LEN..]);
        fs::write(&path, &v1).unwrap();
        let err = DiskBackend::open(dir.path(), VLEN, streaming_cfg(), &key(), gen)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("SNPSEG01"), "{err}");
    }

    #[test]
    fn every_scan_seals_under_a_fresh_pass() {
        let mut b = DiskBackend::create_temp(slab(&objects(100)), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, _| {}).unwrap();
        let first = b.untrusted_image().unwrap();
        b.scan(&mut |_, _| {}).unwrap();
        let second = b.untrusted_image().unwrap();
        // Same plaintext, no writes: a new pass id in the header, and every
        // block's ciphertext (and so its tag) differs.
        assert_eq!(first.len(), second.len());
        assert_eq!(&first[..8], b"SNPSEG02");
        assert_ne!(first[8..24], second[8..24], "pass id");
        let (a, c) = (blocks_of(&first, &b), blocks_of(&second, &b));
        assert_eq!(a.len(), b.nblocks());
        for (i, (x, y)) in a.iter().zip(&c).enumerate() {
            assert_ne!(x, y, "block {i} resealed identically");
        }
    }

    #[test]
    fn block_from_previous_generation_is_refused() {
        let dir = TempDir::new("snoopy-store-test").unwrap();
        let objs = objects(100);
        let mut b = DiskBackend::create(dir.path(), slab(&objs), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, v| v[0] = 1).unwrap();
        b.commit(1).unwrap();
        b.scan(&mut |_, v| v[0] = 2).unwrap();
        b.commit(2).unwrap();
        // The host splices block 3 of generation 1 into generation 2 at the
        // same offset: a validly sealed block, but from another pass.
        let old = fs::read(dir.path().join("gen-1.seg")).unwrap();
        let path = dir.path().join("gen-2.seg");
        let mut now = fs::read(&path).unwrap();
        let at = HEADER_LEN + 3 * b.sealed_len();
        now[at..at + b.sealed_len()].copy_from_slice(&old[at..at + b.sealed_len()]);
        fs::write(&path, &now).unwrap();
        let err = b.scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err, SubOramError::Integrity(IntegrityError::Corrupted { index: 3 }));
    }

    #[test]
    fn block_from_a_pass_with_a_reused_id_is_refused() {
        // Two backends whose PRGs share a seed draw the same pass ids, so
        // their scans seal under the same pass key: the model of a restart
        // that replays the entropy behind the ids. A block of one then opens
        // under the other's key at the same index, and only the in-enclave
        // tag tells the two apart.
        let cfg = streaming_cfg();
        let mut a = DiskBackend::create_temp(slab(&objects(100)), cfg, &key()).unwrap();
        let mut b = DiskBackend::create_temp(slab(&objects(100)), cfg, &key()).unwrap();
        a.prg = Prg::from_seed(9);
        b.prg = Prg::from_seed(9);
        a.scan(&mut |_, v| v[0] = 1).unwrap();
        b.scan(&mut |_, v| v[0] = 2).unwrap();
        assert_eq!(a.pass.id, b.pass.id);
        let len = b.sealed_len();
        let at = HEADER_LEN + 3 * len;
        let spliced = a.untrusted_image().unwrap()[at..at + len].to_vec();
        assert!(b.pass.open(3, &mut spliced.clone()).is_ok(), "same pass key");
        let mut image = b.untrusted_image().unwrap();
        image[at..at + len].copy_from_slice(&spliced);
        assert!(b.restore_untrusted_image(&image));
        let corrupted = SubOramError::Integrity(IntegrityError::Corrupted { index: 3 });
        assert_eq!(b.for_each(&mut |_, _| {}).unwrap_err(), corrupted);
        assert_eq!(b.scan(&mut |_, _| {}).unwrap_err(), corrupted);
    }

    #[test]
    fn boot_refuses_flipped_ciphertext_with_intact_tag() {
        let dir = TempDir::new("snoopy-store-test").unwrap();
        let mut b =
            DiskBackend::create(dir.path(), slab(&objects(100)), streaming_cfg(), &key()).unwrap();
        b.scan(&mut |_, _| {}).unwrap();
        let gen = b.commit(1).unwrap().unwrap();
        let at = HEADER_LEN + 2 * b.sealed_len() + 5; // ciphertext of block 2
        drop(b);
        let path = dir.path().join("gen-1.seg");
        let mut bytes = fs::read(&path).unwrap();
        bytes[at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        // The root digest covers the tags, which are intact: only the
        // per-block tag check at open can catch this.
        let err = DiskBackend::open(dir.path(), VLEN, streaming_cfg(), &key(), gen)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("block 2"), "{err}");
    }
}
