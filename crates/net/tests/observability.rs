//! The cluster observability plane, end to end over real TCP processes.
//!
//! Boots one balancer and three subORAM daemons (flight recorders dumping
//! into a scratch dir), drives client traffic, then:
//!
//! * merges every daemon's span rings into ONE Chrome trace via
//!   `snoopy-mon trace` — validated by the in-tree parser, with per-epoch
//!   spans from the balancer and every subORAM aligned onto one timeline;
//! * SIGKILLs one subORAM so epochs degrade, and checks `snoopy-mon --watch`
//!   emits a burn time series (JSONL + CSV), passes the conservative SLO
//!   gate, and fails a strict one nonzero;
//! * pulls every reachable daemon's flight recorder via `snoopy-mon events`
//!   and checks the balancer's ring *explains* the degradation — the
//!   `epoch_degraded` events name exactly the killed subORAM;
//! * checks the degraded epochs auto-dumped post-mortems into
//!   `SNOOPY_FLIGHT_DIR`, and graceful shutdown dumps one more;
//! * checks the handshake clock-offset gauge and the trace-ring
//!   drop/occupancy series are exported.

use snoopy_chaos::harness::{free_addrs, prom_value, wait_for_health, Daemon};
use snoopy_net::fetch_metrics;
use snoopy_net::manifest::Manifest;
use snoopy_telemetry::chrome::{parse_chrome_trace, Json};
use snoopy_telemetry::events::{parse_jsonl, EventKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const VLEN: usize = 32;
const NUM_OBJECTS: u64 = 64;
const SEED: u64 = 23;
/// The subORAM the test kills; `epoch_degraded` events must name it.
const KILLED_SUB: usize = 2;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

fn snoopy_mon(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snoopy-mon")).args(args).output().expect("run snoopy-mon")
}

/// Dump files in `dir` whose name contains every given needle.
fn dumps_matching(dir: &Path, needles: &[&str]) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy().into_owned();
            needles.iter().all(|n| name.contains(n))
        })
        .collect()
}

#[test]
fn cluster_observability_plane_end_to_end() {
    let dir = std::env::temp_dir().join(format!("snoopy-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let flight_dir = dir.join("flight");
    let flight_env = [("SNOOPY_FLIGHT_DIR", flight_dir.as_os_str())];
    let addrs = free_addrs(4);
    let manifest = Manifest {
        value_len: VLEN,
        lambda: 128,
        seed: SEED,
        num_objects: NUM_OBJECTS,
        // An epoch period comfortably above the degraded-epoch cost
        // (deadline + one replay wave = ~160 ms) so the tick backlog cannot
        // grow while the killed subORAM degrades every epoch.
        epoch_ms: 250,
        sub_deadline_ms: 80,
        max_replays: 1,
        retain_epochs: 8,
        active_suborams: 0,
        lb_threads: 1,
        sub_threads: 1,
        // The observability plane is tier-independent; pin the memory tier
        // so this test is immune to the verify script's env matrix.
        storage: snoopy_core::StorageKind::Memory,
        store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
        block_bytes: 256,
        buffer_blocks: 4,
        load_balancers: vec![addrs[0].clone()],
        suborams: vec![addrs[1].clone(), addrs[2].clone(), addrs[3].clone()],
    };
    let manifest_path = dir.join("cluster.manifest");
    std::fs::write(&manifest_path, manifest.render()).unwrap();
    let manifest_arg = manifest_path.to_string_lossy().into_owned();
    let ckpt: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("sub{i}.ckpt"))).collect();

    let sub0 =
        Daemon::spawn_with_env(SNOOPYD, "suboram", 0, &manifest_path, Some(&ckpt[0]), &flight_env);
    let sub1 =
        Daemon::spawn_with_env(SNOOPYD, "suboram", 1, &manifest_path, Some(&ckpt[1]), &flight_env);
    let mut sub2 =
        Daemon::spawn_with_env(SNOOPYD, "suboram", 2, &manifest_path, Some(&ckpt[2]), &flight_env);
    let lb = Daemon::spawn_with_env(SNOOPYD, "loadbalancer", 0, &manifest_path, None, &flight_env);

    wait_for_health(&addrs[0], "loadbalancer");
    let deploy = snoopy_net::proto::deployment_key(SEED);
    let mut client = loop {
        match snoopy_net::SnoopyClient::builder(VLEN).connect_tcp(&addrs[0], 0, &deploy) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };

    // Healthy traffic so every daemon has epoch spans and events to export.
    for i in 0..8u64 {
        let id = (i * 11 + 2) % NUM_OBJECTS;
        if i % 2 == 0 {
            client.write(id, format!("obs{i}").as_bytes()).expect("cluster write");
        } else {
            client.read(id).expect("cluster read");
        }
    }

    // Satellite series: the trace-ring accounting and the handshake
    // clock-offset gauge (subORAM side: its peers are the dialing
    // balancers; 25-byte hellos carry the dialer's wall clock).
    let lb_metrics = fetch_metrics(&addrs[0]).expect("lb metrics");
    assert!(lb_metrics.contains("# TYPE snoopy_trace_spans_dropped_total counter"));
    assert!(lb_metrics.contains("# TYPE snoopy_trace_buffer_spans gauge"));
    let sub_metrics = fetch_metrics(&addrs[1]).expect("sub metrics");
    assert!(
        sub_metrics.contains("snoopy_peer_clock_offset_seconds{peer=\"lb/0\"}"),
        "subORAM did not export the handshake clock-offset gauge:\n{sub_metrics}"
    );
    // Loopback clocks are the same clock: the estimate must be sane (well
    // under a second either way).
    let offset = sub_metrics
        .lines()
        .find(|l| l.starts_with("snoopy_peer_clock_offset_seconds{peer=\"lb/0\"}"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap();
    assert!(offset.abs() < 1.0, "loopback clock offset implausible: {offset}s");

    // --- Cross-node tracing: one merged Chrome trace from all 4 daemons.
    let trace_path = dir.join("merged-trace.json");
    let out =
        snoopy_mon(&["trace", "--manifest", &manifest_arg, "--out", &trace_path.to_string_lossy()]);
    assert!(
        out.status.success(),
        "snoopy-mon trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace_json = std::fs::read_to_string(&trace_path).unwrap();
    let events = parse_chrome_trace(&trace_json).expect("merged trace must validate");
    assert!(!events.is_empty());
    let processes: BTreeSet<String> =
        events.iter().map(|e| e.name.split("::").next().unwrap().to_string()).collect();
    for proc in ["loadbalancer/0", "suboram/0", "suboram/1", "suboram/2"] {
        assert!(processes.contains(proc), "no spans from {proc}; got {processes:?}");
    }
    assert!(processes.len() >= 3, "merged trace must span >=3 processes");
    // The cluster-wide epoch critical path: balancer epoch spans plus each
    // subORAM's scan spans, on one timeline with non-negative rebased ts.
    assert!(
        events.iter().any(|e| e.name == "loadbalancer/0::epoch"),
        "balancer epoch spans missing from merged trace"
    );
    for sub in 0..3 {
        assert!(
            events.iter().any(|e| e.name.starts_with(&format!("suboram/{sub}::"))
                && e.name.contains("suboram_scan")),
            "suboram/{sub} scan spans missing from merged trace"
        );
    }
    // Distinct processes landed in distinct Chrome pid lanes.
    let doc = Json::parse(&trace_json).unwrap();
    let pids: BTreeSet<u64> = doc
        .get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| e.get("pid").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(pids.len(), 4, "expected one pid lane per process, got {pids:?}");

    // --- Chaos: kill one subORAM; every epoch now degrades after the
    // replay budget, which the flight recorder must explain.
    sub2.kill9();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let m = fetch_metrics(&addrs[0]).expect("lb metrics");
        if prom_value(&m, "snoopy_degraded_epochs_total").unwrap_or(0.0) >= 2.0 {
            break;
        }
        assert!(Instant::now() < deadline, "no degraded epochs after killing a subORAM");
        std::thread::sleep(Duration::from_millis(100));
    }

    // --- snoopy-mon watch: burn time series + conservative SLO gate PASS
    // (one daemon being down must not wedge the scrape).
    let series_path = dir.join("burn.jsonl");
    let csv_path = dir.join("burn.csv");
    let out = snoopy_mon(&[
        "--manifest",
        &manifest_arg,
        "--watch",
        "--interval-ms",
        "150",
        "--count",
        "3",
        "--series",
        &series_path.to_string_lossy(),
        "--csv",
        &csv_path.to_string_lossy(),
    ]);
    assert!(
        out.status.success(),
        "conservative SLO gate must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let series = std::fs::read_to_string(&series_path).unwrap();
    let samples: Vec<&str> = series.lines().collect();
    assert_eq!(samples.len(), 3, "expected 3 time-series samples:\n{series}");
    let last = Json::parse(samples.last().unwrap()).expect("series line must be valid JSON");
    let field = |n: &str| last.get(n).and_then(Json::as_f64).unwrap();
    assert_eq!(field("daemons_total"), 4.0);
    assert_eq!(field("daemons_up"), 3.0, "killed subORAM must scrape as down");
    assert!(field("epochs") > 0.0);
    assert!(field("degraded_epochs") >= 2.0);
    assert!(field("replay_waves") >= 1.0);
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.lines().next().unwrap().starts_with("t_unix_ns,daemons_up,daemons_total"));
    assert_eq!(csv.lines().count(), 4, "header + 3 rows:\n{csv}");

    // A strict gate over the same cluster must fail nonzero and say why.
    let out = snoopy_mon(&["--manifest", &manifest_arg, "--max-degraded-ratio", "0.0001"]);
    assert!(!out.status.success(), "strict SLO gate must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SLO violation"), "no violation printed:\n{stderr}");
    assert!(stderr.contains("degraded-epoch ratio"), "wrong violation:\n{stderr}");

    // --- Flight recorder: remote snapshots explain the degradation.
    let ev_dir = dir.join("events");
    let out =
        snoopy_mon(&["events", "--manifest", &manifest_arg, "--out", &ev_dir.to_string_lossy()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let lb_events =
        parse_jsonl(&std::fs::read_to_string(ev_dir.join("loadbalancer-0.events.jsonl")).unwrap())
            .expect("balancer events must parse");
    for kind in [EventKind::EpochStart, EventKind::BatchSealed, EventKind::SubReply] {
        assert!(lb_events.iter().any(|e| e.kind == kind), "no {kind:?} event in balancer ring");
    }
    // The degradation is *attributed*: replay waves against the killed
    // subORAM, then degraded epochs whose failure mask names it — and only
    // it (the healthy subORAMs answered).
    assert!(
        lb_events
            .iter()
            .any(|e| e.kind == EventKind::ReplayWave
                && e.field("suboram") == Some(KILLED_SUB as u64)),
        "no replay wave against the killed subORAM"
    );
    let degraded: Vec<_> =
        lb_events.iter().filter(|e| e.kind == EventKind::EpochDegraded).collect();
    assert!(!degraded.is_empty(), "no epoch_degraded events in balancer ring");
    assert!(
        degraded.iter().any(|e| e.field("subs_mask") == Some(1 << KILLED_SUB)),
        "no degraded epoch attributing exactly suboram/{KILLED_SUB}: {degraded:?}"
    );
    // Every event field passed the Public gate daemon-side; the audit trail
    // survives the wire.
    for e in &lb_events {
        assert_eq!(e.provenances.is_empty(), e.fields.is_empty(), "provenance lost: {e:?}");
    }
    // Healthy subORAM rings carry their own lifecycle.
    let sub0_events =
        parse_jsonl(&std::fs::read_to_string(ev_dir.join("suboram-0.events.jsonl")).unwrap())
            .unwrap();
    assert!(sub0_events.iter().any(|e| e.kind == EventKind::CheckpointCommit));
    assert!(sub0_events.iter().any(|e| e.kind == EventKind::NetAccept));

    // --- Auto-dumped post-mortems: degraded epochs dumped the balancer's
    // ring into SNOOPY_FLIGHT_DIR without anyone asking.
    let degraded_dumps = dumps_matching(&flight_dir, &["loadbalancer-0.", "degraded"]);
    assert!(!degraded_dumps.is_empty(), "no degraded post-mortem dump in {flight_dir:?}");
    let dump = parse_jsonl(&std::fs::read_to_string(&degraded_dumps[0]).unwrap()).unwrap();
    assert!(dump.iter().any(|e| e.kind == EventKind::EpochDegraded));

    // --- Graceful shutdown dumps one more post-mortem per daemon.
    snoopy_net::shutdown_daemon(&addrs[0]).expect("shutdown lb");
    snoopy_net::shutdown_daemon(&addrs[1]).expect("shutdown sub0");
    snoopy_net::shutdown_daemon(&addrs[2]).expect("shutdown sub1");
    lb.wait_graceful();
    sub0.wait_graceful();
    sub1.wait_graceful();
    drop(sub2);
    for who in ["loadbalancer-0.", "suboram-0.", "suboram-1."] {
        assert!(
            !dumps_matching(&flight_dir, &[who, "shutdown"]).is_empty(),
            "no shutdown dump for {who} in {flight_dir:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
