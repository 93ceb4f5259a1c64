//! Hand-rolled cluster-manifest parser.
//!
//! A manifest describes one Snoopy deployment: the public parameters every
//! machine must agree on, and the listen address of each daemon. The format
//! is deliberately trivial — `#` comments, blank lines, and `key = value`
//! pairs, with `loadbalancer`/`suboram` keys repeating in index order:
//!
//! ```text
//! # cluster of one balancer and two subORAMs
//! value_len   = 32
//! lambda      = 128
//! seed        = 1
//! num_objects = 256
//! epoch_ms    = 10
//! # fault tolerance (all optional)
//! sub_deadline_ms = 10000
//! max_replays     = 3
//! retain_epochs   = 8
//! loadbalancer = 127.0.0.1:7000
//! suboram      = 127.0.0.1:7100
//! suboram      = 127.0.0.1:7101
//! ```
//!
//! Every `snoopyd` in a cluster reads the same manifest; a daemon's
//! `--role`/`--index` flags select which line it binds. There is no serde in
//! the build (the workspace compiles with zero network access), hence the
//! by-hand parser.

use snoopy_enclave::wire::StoredObject;
use snoopy_store::StorageKind;
use snoopy_suboram::ObjectSlab;
use std::fmt;

/// A parsed cluster manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Public object size (bytes).
    pub value_len: usize,
    /// Security parameter λ.
    pub lambda: u32,
    /// Deployment seed: derives the shared key (partitioning) and, through
    /// it, the deployment key for link/checkpoint keys. Stands in for the
    /// attestation-time key exchange.
    pub seed: u64,
    /// Object count; each daemon regenerates the initial store
    /// deterministically from the seed (ids `0..num_objects`).
    pub num_objects: u64,
    /// Epoch length driven by each load balancer's ticker.
    pub epoch_ms: u64,
    /// How long a balancer waits for a subORAM's epoch response before
    /// killing the link and replaying the batch (milliseconds). `0` waits
    /// forever (disables deadline-driven recovery).
    pub sub_deadline_ms: u64,
    /// Replay waves allowed per epoch before the balancer completes it in
    /// degraded mode (typed `Unavailable` to every affected client).
    pub max_replays: u32,
    /// How many executed epochs each subORAM keeps in its reply cache (and
    /// checkpoint) for idempotent replay; older epochs are refused.
    pub retain_epochs: u32,
    /// Enclave threads per load balancer for the oblivious sort/compaction
    /// (§8.4, Fig. 13a). Thread count is public configuration; the oblivious
    /// access trace is byte-identical at every setting.
    pub lb_threads: u32,
    /// Enclave threads per subORAM for the parallel linear scan (Fig. 13b).
    pub sub_threads: u32,
    /// Storage tier for subORAM partitions: `memory` (modeled enclave
    /// memory), `external` (AEAD-sealed untrusted RAM), or `disk` (sealed
    /// segment files streamed through a bounded buffer). Public
    /// configuration; the enclave access trace is identical for all three.
    pub storage: StorageKind,
    /// Root directory for `disk` storage; each subORAM daemon uses
    /// `<store_dir>/sub<index>`. Required iff `storage = disk`.
    pub store_dir: Option<String>,
    /// Sealed block size in bytes for `disk` storage (default 4096).
    pub block_bytes: u64,
    /// Bounded scan-buffer capacity in blocks for `disk` storage (default
    /// 64): resident memory during a streaming scan stays O(buffer_blocks),
    /// not O(partition).
    pub buffer_blocks: u64,
    /// How many of the provisioned `suboram` entries serve the initial
    /// layout (`0` = all of them). Extra entries are warm spares a later
    /// `snoopyd reshard` can grow into without re-provisioning machines.
    /// Public configuration: the fleet size is wire-observable.
    pub active_suborams: usize,
    /// Load-balancer listen addresses, in index order.
    pub load_balancers: Vec<String>,
    /// SubORAM listen addresses, in index order.
    pub suborams: Vec<String>,
}

/// A manifest syntax or consistency error, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line the error was found on (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError { line, message: message.into() }
}

impl Manifest {
    /// Parses a manifest from its textual form.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut value_len = None;
        let mut lambda = None;
        let mut seed = None;
        let mut num_objects = None;
        let mut epoch_ms = None;
        let mut sub_deadline_ms = None;
        let mut max_replays = None;
        let mut retain_epochs = None;
        let mut lb_threads = None;
        let mut sub_threads = None;
        let mut storage: Option<StorageKind> = None;
        let mut store_dir: Option<String> = None;
        let mut block_bytes = None;
        let mut buffer_blocks = None;
        let mut active_suborams = None;
        let mut load_balancers: Vec<(String, usize)> = Vec::new();
        let mut suborams: Vec<(String, usize)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected `key = value`, got `{line}`")))?;
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(err(lineno, format!("`{key}` has no value")));
            }
            let parse_u64 = |v: &str| {
                v.parse::<u64>().map_err(|_| err(lineno, format!("`{key}`: not a number: `{v}`")))
            };
            let set_once = |slot: &mut Option<u64>, v: &str| {
                if slot.is_some() {
                    return Err(err(lineno, format!("duplicate `{key}`")));
                }
                *slot = Some(parse_u64(v)?);
                Ok(())
            };
            match key {
                "value_len" => set_once(&mut value_len, value)?,
                "lambda" => set_once(&mut lambda, value)?,
                "seed" => set_once(&mut seed, value)?,
                "num_objects" => set_once(&mut num_objects, value)?,
                "epoch_ms" => set_once(&mut epoch_ms, value)?,
                "sub_deadline_ms" => set_once(&mut sub_deadline_ms, value)?,
                "max_replays" => set_once(&mut max_replays, value)?,
                "retain_epochs" => set_once(&mut retain_epochs, value)?,
                "lb_threads" => set_once(&mut lb_threads, value)?,
                "sub_threads" => set_once(&mut sub_threads, value)?,
                "storage" => {
                    if storage.is_some() {
                        return Err(err(lineno, "duplicate `storage`"));
                    }
                    storage = Some(StorageKind::parse(value).ok_or_else(|| {
                        err(
                            lineno,
                            format!("`storage`: expected memory|external|disk, got `{value}`"),
                        )
                    })?);
                }
                "store_dir" => {
                    if store_dir.is_some() {
                        return Err(err(lineno, "duplicate `store_dir`"));
                    }
                    store_dir = Some(value.to_string());
                }
                "block_bytes" => set_once(&mut block_bytes, value)?,
                "buffer_blocks" => set_once(&mut buffer_blocks, value)?,
                "active_suborams" => set_once(&mut active_suborams, value)?,
                "loadbalancer" => load_balancers.push((check_addr(value, lineno)?, lineno)),
                "suboram" => suborams.push((check_addr(value, lineno)?, lineno)),
                other => return Err(err(lineno, format!("unknown key `{other}`"))),
            }
        }

        // Two daemons sharing an address cannot both bind it; catch the
        // typo at parse time with the offending line, not at deploy time
        // with an opaque EADDRINUSE on one machine.
        {
            let mut seen: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
            for (addr, lineno) in load_balancers.iter().chain(suborams.iter()) {
                if let Some(first) = seen.insert(addr.as_str(), *lineno) {
                    return Err(err(
                        *lineno,
                        format!("duplicate address `{addr}` (first used on line {first})"),
                    ));
                }
            }
        }

        let value_len = value_len.ok_or_else(|| err(0, "missing `value_len`"))? as usize;
        let manifest = Manifest {
            value_len,
            lambda: lambda.ok_or_else(|| err(0, "missing `lambda`"))? as u32,
            seed: seed.ok_or_else(|| err(0, "missing `seed`"))?,
            num_objects: num_objects.ok_or_else(|| err(0, "missing `num_objects`"))?,
            epoch_ms: epoch_ms.unwrap_or(10),
            sub_deadline_ms: sub_deadline_ms.unwrap_or(10_000),
            max_replays: max_replays.unwrap_or(3) as u32,
            retain_epochs: retain_epochs.unwrap_or(8).max(1) as u32,
            // 0 threads cannot run anything; clamp like retain_epochs.
            lb_threads: lb_threads.unwrap_or(1).max(1) as u32,
            sub_threads: sub_threads.unwrap_or(1).max(1) as u32,
            storage: storage.unwrap_or(StorageKind::Memory),
            store_dir,
            // Blocks must hold at least one object and the buffer at least
            // one block; clamp like the thread knobs.
            block_bytes: block_bytes.unwrap_or(4096).max(1),
            buffer_blocks: buffer_blocks.unwrap_or(64).max(1),
            active_suborams: active_suborams.unwrap_or(0) as usize,
            load_balancers: load_balancers.into_iter().map(|(a, _)| a).collect(),
            suborams: suborams.into_iter().map(|(a, _)| a).collect(),
        };
        if manifest.load_balancers.is_empty() {
            return Err(err(0, "no `loadbalancer` entries"));
        }
        if manifest.suborams.is_empty() {
            return Err(err(0, "no `suboram` entries"));
        }
        if manifest.value_len == 0 {
            return Err(err(0, "`value_len` must be positive"));
        }
        if manifest.storage == StorageKind::Disk && manifest.store_dir.is_none() {
            return Err(err(0, "`storage = disk` requires `store_dir`"));
        }
        if manifest.active_suborams > manifest.suborams.len() {
            return Err(err(
                0,
                format!(
                    "`active_suborams = {}` exceeds the {} provisioned `suboram` entries",
                    manifest.active_suborams,
                    manifest.suborams.len()
                ),
            ));
        }
        // The reshard migration nonce carries the node index in 16 bits
        // (see `reshard::MAX_MIGRATION_NODES`): a larger fleet would alias
        // AEAD nonce sequences across subORAMs, so refuse it at the door.
        if manifest.suborams.len() as u64 > crate::reshard::MAX_MIGRATION_NODES {
            return Err(err(
                0,
                format!(
                    "{} `suboram` entries exceed the {} the migration nonce \
                     namespace can address",
                    manifest.suborams.len(),
                    crate::reshard::MAX_MIGRATION_NODES
                ),
            ));
        }
        Ok(manifest)
    }

    /// Reads and parses a manifest file.
    pub fn load(path: &std::path::Path) -> Result<Manifest, ManifestError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(0, format!("cannot read {}: {e}", path.display())))?;
        Manifest::parse(&text)
    }

    /// Renders the manifest back to its textual form (used by tests and
    /// cluster-launch tooling).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("value_len = {}\n", self.value_len));
        out.push_str(&format!("lambda = {}\n", self.lambda));
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("num_objects = {}\n", self.num_objects));
        out.push_str(&format!("epoch_ms = {}\n", self.epoch_ms));
        out.push_str(&format!("sub_deadline_ms = {}\n", self.sub_deadline_ms));
        out.push_str(&format!("max_replays = {}\n", self.max_replays));
        out.push_str(&format!("retain_epochs = {}\n", self.retain_epochs));
        out.push_str(&format!("lb_threads = {}\n", self.lb_threads));
        out.push_str(&format!("sub_threads = {}\n", self.sub_threads));
        out.push_str(&format!("storage = {}\n", self.storage));
        if let Some(dir) = &self.store_dir {
            out.push_str(&format!("store_dir = {dir}\n"));
        }
        out.push_str(&format!("block_bytes = {}\n", self.block_bytes));
        out.push_str(&format!("buffer_blocks = {}\n", self.buffer_blocks));
        out.push_str(&format!("active_suborams = {}\n", self.active_suborams));
        for lb in &self.load_balancers {
            out.push_str(&format!("loadbalancer = {lb}\n"));
        }
        for sub in &self.suborams {
            out.push_str(&format!("suboram = {sub}\n"));
        }
        out
    }

    /// The balancer's epoch fault policy from the manifest knobs.
    pub fn fault_policy(&self) -> snoopy_core::EpochFaultPolicy {
        if self.sub_deadline_ms == 0 {
            snoopy_core::EpochFaultPolicy::wait_forever()
        } else {
            snoopy_core::EpochFaultPolicy::with_deadline(
                std::time::Duration::from_millis(self.sub_deadline_ms),
                self.max_replays,
            )
        }
    }

    /// The disk-tier geometry from the manifest knobs.
    pub fn disk_config(&self) -> snoopy_store::DiskConfig {
        snoopy_store::DiskConfig {
            block_bytes: self.block_bytes as usize,
            buffer_blocks: self.buffer_blocks as usize,
        }
    }

    /// The segment directory for subORAM `index` under `store_dir`.
    /// Callers must have validated `storage = disk` (so `store_dir` is set).
    pub fn store_path(&self, index: usize) -> std::path::PathBuf {
        let dir = self.store_dir.as_deref().expect("`storage = disk` requires `store_dir`");
        std::path::Path::new(dir).join(format!("sub{index}"))
    }

    /// The subORAM count the initial layout routes over: `active_suborams`
    /// when set, otherwise every provisioned entry. Always ≥ 1 (the parser
    /// rejects manifests with no `suboram` lines).
    pub fn initial_active(&self) -> usize {
        if self.active_suborams == 0 {
            self.suborams.len()
        } else {
            self.active_suborams
        }
    }

    /// The deterministic initial object store every daemon regenerates.
    pub fn initial_objects(&self) -> Vec<StoredObject> {
        (0..self.num_objects).map(|id| self.initial_object(id)).collect()
    }

    /// Initial object `id`: `id`'s little-endian bytes, zero-padded.
    fn initial_object(&self, id: u64) -> StoredObject {
        StoredObject::new(id, &id.to_le_bytes(), self.value_len)
    }

    /// Subset `index` of [`Manifest::initial_objects`] under a layout over
    /// `active` subORAMs — what `partition_objects` assigns it — built
    /// straight into a slab, so a booting daemon never holds the whole
    /// store object by object.
    pub fn initial_partition(
        &self,
        shared_key: &snoopy_crypto::Key256,
        active: usize,
        index: usize,
    ) -> ObjectSlab {
        let hash = snoopy_lb::partition_hash(shared_key);
        let mut slab = ObjectSlab::with_capacity(0, self.value_len);
        for id in (0..self.num_objects).filter(|&id| hash.bin_u64(id, active) == index) {
            slab.push(id, &self.initial_object(id).value);
        }
        slab
    }
}

fn check_addr(value: &str, lineno: usize) -> Result<String, ManifestError> {
    // `host:port` shape only; resolution happens at connect/bind time.
    let (_, port) = value
        .rsplit_once(':')
        .ok_or_else(|| err(lineno, format!("address `{value}` is missing `:port`")))?;
    port.parse::<u16>().map_err(|_| err(lineno, format!("bad port in `{value}`")))?;
    Ok(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# comment\n\
value_len = 32   # trailing comment\n\
lambda = 128\n\
seed = 1\n\
num_objects = 256\n\
epoch_ms = 5\n\
loadbalancer = 127.0.0.1:7000\n\
suboram = 127.0.0.1:7100\n\
suboram = 127.0.0.1:7101\n";

    #[test]
    fn initial_partition_is_the_partitioned_initial_store() {
        let key = snoopy_crypto::Key256([3u8; 32]);
        for value_len in [4, 32] {
            let mut m = Manifest::parse(GOOD).unwrap();
            m.value_len = value_len;
            for active in [1, 2, 3] {
                let parts = snoopy_lb::partition_objects(m.initial_objects(), &key, active);
                for (index, part) in parts.iter().enumerate() {
                    let slab = m.initial_partition(&key, active, index);
                    assert_eq!(slab, ObjectSlab::from_objects(part, value_len));
                }
                assert!(m.initial_partition(&key, active, active).is_empty());
            }
        }
    }

    #[test]
    fn parses_a_full_manifest() {
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.value_len, 32);
        assert_eq!(m.lambda, 128);
        assert_eq!(m.epoch_ms, 5);
        assert_eq!(m.load_balancers, vec!["127.0.0.1:7000"]);
        assert_eq!(m.suborams.len(), 2);
        assert_eq!(m.initial_objects().len(), 256);
        // Fault-tolerance knobs default sensibly.
        assert_eq!(m.sub_deadline_ms, 10_000);
        assert_eq!(m.max_replays, 3);
        assert_eq!(m.retain_epochs, 8);
        // Parallelism knobs default to serial.
        assert_eq!(m.lb_threads, 1);
        assert_eq!(m.sub_threads, 1);
        let policy = m.fault_policy();
        assert_eq!(policy.sub_deadline, Some(std::time::Duration::from_secs(10)));
        assert_eq!(policy.max_replays, 3);
    }

    #[test]
    fn fleets_past_the_migration_nonce_namespace_are_rejected() {
        // 65537 unique subORAM addresses: one more than the 16-bit node
        // field in the reshard migration nonce can address.
        let n = crate::reshard::MAX_MIGRATION_NODES + 1;
        let mut text = String::from(
            "value_len = 32\nlambda = 128\nseed = 1\nnum_objects = 256\nepoch_ms = 5\n\
             loadbalancer = 127.0.0.1:7000\n",
        );
        for i in 0..n {
            text.push_str(&format!(
                "suboram = 10.{}.{}.{}:7100\n",
                i >> 16,
                (i >> 8) & 0xFF,
                i & 0xFF
            ));
        }
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("migration nonce"), "{e}");
        // Exactly at the bound is fine.
        let at_bound = text.lines().take(6 + 65536).collect::<Vec<_>>().join("\n");
        assert!(Manifest::parse(&at_bound).is_ok());
    }

    #[test]
    fn fault_knobs_are_configurable_and_zero_deadline_waits_forever() {
        let text = format!("{GOOD}sub_deadline_ms = 250\nmax_replays = 1\nretain_epochs = 4\n");
        let m = Manifest::parse(&text).unwrap();
        assert_eq!(m.sub_deadline_ms, 250);
        assert_eq!(m.max_replays, 1);
        assert_eq!(m.retain_epochs, 4);
        let off = Manifest::parse(&format!("{GOOD}sub_deadline_ms = 0\n")).unwrap();
        assert_eq!(off.fault_policy(), snoopy_core::EpochFaultPolicy::wait_forever());
        // retain_epochs = 0 would disable the reply cache entirely; clamp.
        let clamped = Manifest::parse(&format!("{GOOD}retain_epochs = 0\n")).unwrap();
        assert_eq!(clamped.retain_epochs, 1);
    }

    #[test]
    fn thread_knobs_parse_clamp_and_reject_garbage() {
        let m = Manifest::parse(&format!("{GOOD}lb_threads = 4\nsub_threads = 8\n")).unwrap();
        assert_eq!(m.lb_threads, 4);
        assert_eq!(m.sub_threads, 8);
        // 0 threads cannot run an epoch; clamp to serial.
        let clamped = Manifest::parse(&format!("{GOOD}lb_threads = 0\nsub_threads = 0\n")).unwrap();
        assert_eq!(clamped.lb_threads, 1);
        assert_eq!(clamped.sub_threads, 1);
        // Non-numeric and duplicate values are line-numbered errors.
        let e = Manifest::parse(&format!("{GOOD}lb_threads = many\n")).unwrap_err();
        assert!(e.message.contains("not a number"), "{e}");
        assert!(e.line > 0, "{e}");
        let e = Manifest::parse(&format!("{GOOD}sub_threads = 2\nsub_threads = 4\n")).unwrap_err();
        assert!(e.message.contains("duplicate `sub_threads`"), "{e}");
        let e = Manifest::parse(&format!("{GOOD}sub_threads =\n")).unwrap_err();
        assert!(e.message.contains("has no value"), "{e}");
    }

    #[test]
    fn render_parse_roundtrip() {
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
        let threaded =
            Manifest::parse(&format!("{GOOD}lb_threads = 4\nsub_threads = 2\n")).unwrap();
        assert_eq!(Manifest::parse(&threaded.render()).unwrap(), threaded);
        let disk = Manifest::parse(&format!(
            "{GOOD}storage = disk\nstore_dir = /tmp/snoopy-store\nblock_bytes = 1024\nbuffer_blocks = 8\n"
        ))
        .unwrap();
        assert_eq!(Manifest::parse(&disk.render()).unwrap(), disk);
    }

    #[test]
    fn storage_keys_parse_default_and_validate() {
        // Default tier is in-enclave memory with the documented geometry.
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.storage, StorageKind::Memory);
        assert_eq!(m.store_dir, None);
        assert_eq!(m.block_bytes, 4096);
        assert_eq!(m.buffer_blocks, 64);
        // All three tiers parse; disk carries its geometry through.
        let ext = Manifest::parse(&format!("{GOOD}storage = external\n")).unwrap();
        assert_eq!(ext.storage, StorageKind::External);
        let disk = Manifest::parse(&format!(
            "{GOOD}storage = disk\nstore_dir = /tmp/s\nblock_bytes = 512\nbuffer_blocks = 4\n"
        ))
        .unwrap();
        assert_eq!(disk.storage, StorageKind::Disk);
        assert_eq!(
            disk.disk_config(),
            snoopy_store::DiskConfig { block_bytes: 512, buffer_blocks: 4 }
        );
        assert_eq!(disk.store_path(2), std::path::Path::new("/tmp/s").join("sub2"));
        // Disk without a directory is a whole-file error, not a deploy-time
        // surprise.
        let e = Manifest::parse(&format!("{GOOD}storage = disk\n")).unwrap_err();
        assert!(e.message.contains("store_dir"), "{e}");
        // Unknown tiers and duplicates are line-numbered errors.
        let e = Manifest::parse(&format!("{GOOD}storage = floppy\n")).unwrap_err();
        assert!(e.message.contains("memory|external|disk"), "{e}");
        assert!(e.line > 0, "{e}");
        let e = Manifest::parse(&format!("{GOOD}storage = memory\nstorage = disk\n")).unwrap_err();
        assert!(e.message.contains("duplicate `storage`"), "{e}");
        // Zero-sized geometry clamps rather than dividing by zero later.
        let clamped =
            Manifest::parse(&format!("{GOOD}block_bytes = 0\nbuffer_blocks = 0\n")).unwrap();
        assert_eq!(clamped.block_bytes, 1);
        assert_eq!(clamped.buffer_blocks, 1);
    }

    #[test]
    fn active_suborams_parses_defaults_and_validates() {
        // Default: every provisioned subORAM serves the initial layout.
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.active_suborams, 0);
        assert_eq!(m.initial_active(), 2);
        // Warm spares: 1 active of 2 provisioned.
        let m = Manifest::parse(&format!("{GOOD}active_suborams = 1\n")).unwrap();
        assert_eq!(m.initial_active(), 1);
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m, "render must carry the knob");
        // More active than provisioned is a whole-file error.
        let e = Manifest::parse(&format!("{GOOD}active_suborams = 3\n")).unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Manifest::parse("nonsense\n").is_err());
        assert!(Manifest::parse("value_len = x\n").is_err());
        let dup = format!("{GOOD}seed = 2\n");
        let e = Manifest::parse(&dup).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        // Missing subORAMs.
        let e =
            Manifest::parse("value_len=8\nlambda=80\nseed=0\nnum_objects=4\nloadbalancer=a:1\n")
                .unwrap_err();
        assert!(e.message.contains("suboram"), "{e}");
        // Bad address.
        assert!(Manifest::parse(&GOOD.replace("127.0.0.1:7100", "127.0.0.1")).is_err());
    }

    #[test]
    fn duplicate_addresses_are_descriptive_errors() {
        // Two subORAMs on the same port.
        let text = GOOD.replace("127.0.0.1:7101", "127.0.0.1:7100");
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("duplicate address `127.0.0.1:7100`"), "{e}");
        assert!(e.message.contains("first used on line"), "{e}");
        assert!(e.line > 0, "duplicate addresses should name the offending line");
        // A balancer colliding with a subORAM is just as fatal.
        let text = GOOD.replace("127.0.0.1:7000", "127.0.0.1:7101");
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("duplicate address"), "{e}");
        assert!(e.to_string().contains("manifest line"), "{e}");
    }

    /// `GOOD` grown to a 3×2 cluster: repeated `loadbalancer` keys, in
    /// index order.
    const MULTI_LB: &str = "\
value_len = 32\n\
lambda = 128\n\
seed = 1\n\
num_objects = 256\n\
epoch_ms = 5\n\
loadbalancer = 127.0.0.1:7000\n\
loadbalancer = 127.0.0.1:7001\n\
loadbalancer = 127.0.0.1:7002\n\
suboram = 127.0.0.1:7100\n\
suboram = 127.0.0.1:7101\n";

    #[test]
    fn multi_balancer_manifests_parse_in_index_order() {
        let m = Manifest::parse(MULTI_LB).unwrap();
        // Line order is index order: the i-th `loadbalancer` key is balancer
        // i, which keys session-link derivation and the epoch-id residue
        // class — reordering the list is a different deployment.
        assert_eq!(m.load_balancers, vec!["127.0.0.1:7000", "127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(m.suborams, vec!["127.0.0.1:7100", "127.0.0.1:7101"]);
        // Indexed lookup: each balancer's address sits at its index.
        for (i, addr) in m.load_balancers.iter().enumerate() {
            assert_eq!(addr, &format!("127.0.0.1:700{i}"));
        }
    }

    #[test]
    fn multi_balancer_manifests_render_roundtrip() {
        let m = Manifest::parse(MULTI_LB).unwrap();
        let back = Manifest::parse(&m.render()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.load_balancers, m.load_balancers, "render must preserve index order");
    }

    #[test]
    fn duplicate_balancer_addresses_are_rejected() {
        // Two balancers on one address.
        let text = MULTI_LB.replace("127.0.0.1:7002", "127.0.0.1:7000");
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("duplicate address `127.0.0.1:7000`"), "{e}");
        assert!(e.message.contains("first used on line"), "{e}");
        // A balancer colliding with a subORAM in the k≥2 shape.
        let text = MULTI_LB.replace("127.0.0.1:7001", "127.0.0.1:7101");
        let e = Manifest::parse(&text).unwrap_err();
        assert!(e.message.contains("duplicate address `127.0.0.1:7101`"), "{e}");
    }

    #[test]
    fn truncated_lines_are_descriptive_errors_not_panics() {
        // A key with `=` but nothing after it.
        let e = Manifest::parse("value_len =\n").unwrap_err();
        assert!(e.message.contains("has no value"), "{e}");
        assert_eq!(e.line, 1);
        // A bare key with no `=` at all (a line cut mid-edit).
        let e = Manifest::parse("value_len = 8\nlambda\n").unwrap_err();
        assert!(e.message.contains("expected `key = value`"), "{e}");
        assert_eq!(e.line, 2);
        // An address cut short of its port.
        let e = Manifest::parse(&format!("{GOOD}suboram = 127.0.0.1:\n")).unwrap_err();
        assert!(e.message.contains("bad port"), "{e}");
        // A file truncated before the address lists: whole-file error.
        let e =
            Manifest::parse("value_len = 8\nlambda = 80\nseed = 0\nnum_objects = 4\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("loadbalancer"), "{e}");
    }
}
