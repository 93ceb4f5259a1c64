//! The workloads and the metric table. Names, rates, windows and bounds are
//! frozen here; `BENCHMARK.json` carries the same names, units, directions
//! and bounds (a unit test holds the two together).

use snoopy_store::StorageKind;

/// Cluster shape shared by every workload: the smallest topology that has
/// partitioning and `f(R,S)` padding.
pub const SUBORAMS: usize = 2;
/// Security parameter λ.
pub const LAMBDA: u32 = 128;
/// Balancer epoch tick.
pub const EPOCH_MS: u64 = 5;
/// Zipf skew of the key popularity.
pub const ZIPF_THETA: f64 = 0.99;
/// Share of requests that are writes.
pub const WRITE_FRAC: f64 = 0.10;
/// An open-phase response slower than this misses the limit (`ok_frac`).
pub const LATENCY_LIMIT_MS: f64 = 500.0;
/// Requests still pending this long after a window count as failed.
pub const DRAIN_GRACE_SECS: u64 = 5;
/// Epochs replayed by the in-process layer walk.
pub const WALK_EPOCHS: usize = 30;

/// One workload: a cluster configuration plus the load put on it.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Final name (also the `BENCHMARK.json` workload name).
    pub name: &'static str,
    /// Why the workload exists: which layers it loads and which it bypasses.
    pub why: &'static str,
    /// Storage tier of both subORAMs.
    pub storage: StorageKind,
    /// Objects in the store (ids `0..objects`).
    pub objects: u64,
    /// Object size in bytes.
    pub value_len: usize,
    /// Open-phase offered rate, requests per second (about half of what the
    /// closed phase sustained on the build box).
    pub open_rate: f64,
    /// Closed-phase outstanding requests per connection.
    pub window: usize,
    /// Requests per epoch replayed by the layer walk (frozen so that the
    /// exact-count metrics repeat).
    pub walk_requests: usize,
}

/// Disk-tier geometry of `scan_disk`: a 256 KiB buffer against a ~2.9 MB
/// partition, so every scan takes the streaming path.
pub const DISK_BLOCK_BYTES: u64 = 4096;
/// See [`DISK_BLOCK_BYTES`].
pub const DISK_BUFFER_BLOCKS: u64 = 64;

/// Every workload, in run order. `bigval_mem` (2^13 × 1 KiB objects) was
/// dropped rather than shortening the windows of the other three: the
/// driver's time cap does not hold four workloads at this run length.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "scan_mem",
            why: "memory tier, 2^16 x 160 B: the subORAM linear scan is most of the epoch; \
                  working set that fits",
            storage: StorageKind::Memory,
            objects: 1 << 16,
            value_len: 160,
            open_rate: 2500.0,
            window: 256,
            walk_requests: 256,
        },
        Workload {
            name: "batch_mem",
            why: "memory tier, 2^12 x 160 B, huge batches: sort, compact, hash build, link AEAD \
                  and codecs dominate; bypasses the scan",
            storage: StorageKind::Memory,
            objects: 1 << 12,
            value_len: 160,
            open_rate: 8000.0,
            window: 4096,
            walk_requests: 4096,
        },
        Workload {
            name: "scan_disk",
            why: "disk tier, 2^15 x 160 B, 256 KiB buffer, checkpointed: streaming scan, block \
                  AEAD, fsync commit; working set that does not fit",
            storage: StorageKind::Disk,
            objects: 1 << 15,
            value_len: 160,
            open_rate: 800.0,
            window: 256,
            walk_requests: 256,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// `--smoke`: the same workloads at 2^10 objects and low rates, for a quick
/// end-to-end check of the harness rather than a measurement.
pub fn smoke(mut w: Workload) -> Workload {
    w.objects = 1 << 10;
    w.open_rate = w.open_rate.min(1000.0);
    w.window = w.window.min(256);
    w.walk_requests = w.walk_requests.min(256);
    w
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric's contract: unit, direction, and the share of the
/// base value by which it may worsen before `--compare` calls it `worse`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (share of the base median).
    pub bound: f64,
}

/// The seven end-to-end metrics, reported per workload from the untraced run.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "capacity_rps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "open_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "open_p90_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ok_frac", unit: "frac", better: Better::Higher, bound: 0.005 },
    EndToEnd { name: "cpu_ms_per_req", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "rss_boot_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

/// Every per-layer metric (`<crate>.<name>`) with its unit, from the traced
/// run. Metrics of a layer a workload does not use are reported as 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("obliv.osort_ns_per_elem", "ns"),
    ("obliv.ocompact_ns_per_elem", "ns"),
    ("binning.dummy_frac", "frac"),
    ("binning.batch_size_ns", "ns"),
    ("ohash.construct_ns_per_req", "ns"),
    ("ohash.slots_per_req", "count"),
    ("suboram.batch_access_ms", "ms"),
    ("suboram.scan_ns_per_obj", "ns"),
    ("suboram.scan_vs_plaintext", "ratio"),
    ("store.scan_mb_s", "MB/s"),
    ("store.commit_ms", "ms"),
    ("store.fsyncs_per_epoch", "count"),
    ("store.bytes_written_per_epoch", "count"),
    ("store.buffer_stalls_per_epoch", "count"),
    ("store.write_amp", "ratio"),
    ("lb.make_batches_ms", "ms"),
    ("lb.match_responses_ms", "ms"),
    ("core.link_seal_ns_per_req", "ns"),
    ("core.link_open_ns_per_req", "ns"),
    ("core.epoch_inproc_ms", "ms"),
    ("enclave.encode_request_ns", "ns"),
    ("enclave.decode_request_ns", "ns"),
    ("crypto.aead_seal_mb_s", "MB/s"),
    ("crypto.aead_open_mb_s", "MB/s"),
    ("net.frame_ns_per_frame", "ns"),
    ("net.frame_mb_s", "MB/s"),
    ("net.checkpoint_save_ms", "ms"),
    ("net.admin_rpc_us", "us"),
    ("net.epoch_wall_ms", "ms"),
    ("net.reqs_per_epoch", "count"),
    ("net.stage.lb_make_ms", "ms"),
    ("net.stage.sub_wait_ms", "ms"),
    ("net.stage.lb_match_ms", "ms"),
    ("net.stage.suboram_scan_ms", "ms"),
    ("net.stage.store_scan_ms", "ms"),
    ("net.stage.store_commit_ms", "ms"),
    ("net.stage.checkpoint_seal_ms", "ms"),
    ("net.unattributed_frac", "frac"),
    ("net.overhead_frac", "frac"),
    ("client.open_p99_ms", "ms"),
    ("client.open_max_ms", "ms"),
    ("client.sched_lag_p99_us", "us"),
    ("client.backlog_end", "count"),
    ("client.samples", "count"),
    ("calib.memcpy_gb_s", "GB/s"),
    ("calib.aead_raw_mb_s", "MB/s"),
    ("calib.plaintext_scan_ns_per_obj", "ns"),
    ("calib.spin_ns", "ns"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.rss_peak_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_telemetry::chrome::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints and compares by. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        let workload_names: Vec<String> = all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), workload_names);
        for (json, w) in doc.get("workloads").and_then(Json::as_arr).unwrap().iter().zip(all()) {
            assert_eq!(json.get("why").and_then(Json::as_str), Some(w.why));
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, spec) in e2e.iter().zip(END_TO_END) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(json.get("unit").and_then(Json::as_str), Some(spec.unit));
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(json.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(json.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(json.get("unit").and_then(Json::as_str), Some(unit));
        }
    }

    #[test]
    fn smoke_shrinks_every_workload() {
        for w in all() {
            let s = smoke(w.clone());
            assert_eq!(s.objects, 1 << 10);
            assert!(s.open_rate <= w.open_rate && s.window <= w.window);
            assert_eq!(s.name, w.name);
        }
    }
}
