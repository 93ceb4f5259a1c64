//! Multi-process loopback cluster test: real `snoopyd` daemons over TCP.
//!
//! Boots one load balancer and two subORAMs as separate OS processes on
//! 127.0.0.1, drives >100 client requests across many epochs, and checks
//! every response byte-for-byte against the synchronous reference engine
//! (`snoopy_core::system::Snoopy`) running the same operation sequence.
//! Mid-run, one subORAM is SIGKILLed and restarted from its checkpoint; the
//! balancer's reconnect/backoff plus the subORAM's reply cache must heal the
//! cluster with no lost or corrupted operation. Finally the `stats` RPC must
//! account for the traffic and the reconnect.
//!
//! A second test holds hundreds of sealed client sessions open at once
//! against a 2×2 cluster: every session must be served, and every session
//! must be released by the balancers' reactors once the client hangs up.
//!
//! Every scenario runs once per cell of the deployment matrix
//! ([`CELLS`]): the memory tier at 1 and 4 enclave threads and the disk
//! tier at 1, each byte-compared against the serial memory-tier reference.

use snoopy_chaos::harness::{
    each_cell, free_addrs, prom_value, wait_for_health, Cell, Daemon, CELLS,
};
use snoopy_core::link::Link;
use snoopy_core::{Snoopy, SnoopyConfig};
use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, Response, LB_DUMMY_BASE};
use snoopy_net::frame::{read_frame, write_frame};
use snoopy_net::manifest::Manifest;
use snoopy_net::proto::{tag, Hello, Role};
use snoopy_net::{
    fetch_metrics, fetch_stats, parse_stats, parse_stats_header, proto, shutdown_daemon,
    SnoopyClient,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

const VLEN: usize = 32;
const NUM_OBJECTS: u64 = 128;
const SEED: u64 = 11;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

/// A scratch directory for one scenario in one cell.
fn scratch_dir(name: &str, cell: Cell) -> PathBuf {
    let pid = std::process::id();
    let dir =
        std::env::temp_dir().join(format!("snoopy-{name}-{}-{}-{pid}", cell.storage, cell.threads));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The operation sequence both the cluster and the reference engine run:
/// interleaved reads and writes over the whole id space, >100 ops.
fn ops() -> Vec<(bool, u64, Vec<u8>)> {
    let mut out = Vec::new();
    for i in 0..120u64 {
        let id = (i * 7 + 3) % NUM_OBJECTS;
        if i % 3 == 0 {
            out.push((true, id, format!("op{i}").into_bytes()));
        } else {
            out.push((false, id, Vec::new()));
        }
    }
    out
}

#[test]
fn multi_process_cluster_matches_reference_and_survives_kill() {
    each_cell(&CELLS, |cell| {
        let dir = scratch_dir("cluster", cell);
        let addrs = free_addrs(3);
        let manifest = Manifest {
            value_len: VLEN,
            lambda: 128,
            seed: SEED,
            num_objects: NUM_OBJECTS,
            epoch_ms: 5,
            sub_deadline_ms: 10_000,
            max_replays: 3,
            retain_epochs: 8,
            active_suborams: 0,
            lb_threads: cell.threads as u32,
            sub_threads: cell.threads as u32,
            // Small blocks and buffer, so on the disk tier even this
            // test-sized partition streams rather than sitting resident.
            storage: cell.storage,
            store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
            block_bytes: 256,
            buffer_blocks: 4,
            load_balancers: vec![addrs[0].clone()],
            suborams: vec![addrs[1].clone(), addrs[2].clone()],
        };
        let manifest_path = dir.join("cluster.manifest");
        std::fs::write(&manifest_path, manifest.render()).unwrap();
        let ckpt: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("sub{i}.ckpt"))).collect();
        let _ = std::fs::remove_file(&ckpt[0]);
        let _ = std::fs::remove_file(&ckpt[1]);

        let sub0 = Daemon::spawn(SNOOPYD, "suboram", 0, &manifest_path, Some(&ckpt[0]));
        let mut sub1 = Some(Daemon::spawn(SNOOPYD, "suboram", 1, &manifest_path, Some(&ckpt[1])));
        let lb = Daemon::spawn(SNOOPYD, "loadbalancer", 0, &manifest_path, None);

        // The reference engine: same objects, same seed, one epoch per op (the
        // grouping of sequential ops into epochs cannot change their results).
        // The serial memory-tier deployment: in every cell the daemons'
        // responses must match it byte for byte.
        let cfg = SnoopyConfig::with_machines(1, 2).value_len(VLEN);
        let mut reference = Snoopy::init(cfg, manifest.initial_objects(), SEED);

        // Wait for the balancer to come up, then connect a client.
        wait_for_health(&addrs[0], "loadbalancer");
        let deploy = proto::deployment_key(SEED);
        let mut client = loop {
            match SnoopyClient::builder(VLEN).connect_tcp(&addrs[0], 0, &deploy) {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };

        let all_ops = ops();
        assert!(all_ops.len() >= 100);
        let kill_at = 40;
        let mut first_scrape = String::new();
        for (i, (is_write, id, payload)) in all_ops.iter().enumerate() {
            if i == 30 {
                // First metrics scrape mid-run; a second after the loop checks
                // the counters are monotone.
                first_scrape = fetch_metrics(&addrs[0]).expect("metrics RPC");
            }
            if i == kill_at {
                // SIGKILL one subORAM mid-run and restart it from its
                // checkpoint. In-flight epochs stall until the balancer's
                // backoff loop reconnects to the replacement.
                let mut d = sub1.take().unwrap();
                d.kill9();
                drop(d);
                sub1 = Some(Daemon::spawn(SNOOPYD, "suboram", 1, &manifest_path, Some(&ckpt[1])));
            }
            let got = if *is_write {
                client.write(*id, payload).expect("cluster write")
            } else {
                client.read(*id).expect("cluster read")
            };
            let req = if *is_write {
                Request::write(*id, payload, VLEN, 0, i as u64)
            } else {
                Request::read(*id, VLEN, 0, i as u64)
            };
            let want = reference.execute_epoch_single(vec![req]).unwrap();
            assert_eq!(got, want[0].value, "op {i} diverged from the reference engine");
        }

        // Metrics: the balancer's Prometheus exposition must carry the epoch
        // counters, per-stage latency histograms, and per-link counters — and
        // the counters must be monotone across the two scrapes.
        let second_scrape = fetch_metrics(&addrs[0]).expect("metrics RPC");
        for text in [&first_scrape, &second_scrape] {
            assert!(text.contains("# TYPE snoopy_epochs_total counter"), "missing epochs counter");
            assert!(
                text.contains("# TYPE snoopy_stage_seconds histogram"),
                "missing stage histogram"
            );
            for stage in ["lb_make", "sub_wait", "lb_match", "dial"] {
                assert!(
                    text.contains(&format!("snoopy_stage_seconds_count{{stage=\"{stage}\"}}")),
                    "missing stage series {stage}"
                );
            }
            assert!(
                text.contains("snoopy_link_frames_sent_total{link=\"suboram/0\"}"),
                "missing link counter series"
            );
        }
        for name in ["snoopy_epochs_total", "snoopy_requests_total", "snoopy_batch_entries_total"] {
            let first = prom_value(&first_scrape, name).expect("series in first scrape");
            let second = prom_value(&second_scrape, name).expect("series in second scrape");
            assert!(first > 0.0, "{name} zero at first scrape");
            assert!(second >= first, "{name} went backwards: {first} -> {second}");
        }
        assert!(
            prom_value(&second_scrape, "snoopy_requests_total").expect("requests series")
                > prom_value(&first_scrape, "snoopy_requests_total").expect("requests series"),
            "request counter did not advance between scrapes"
        );
        // The subORAM daemon exposes its own registry: scan and checkpoint
        // stages plus its side of the links.
        let sub_metrics = fetch_metrics(&addrs[1]).expect("suboram metrics RPC");
        assert!(sub_metrics.contains("snoopy_stage_seconds_count{stage=\"suboram_scan\"}"));
        assert!(sub_metrics.contains("snoopy_stage_seconds_count{stage=\"checkpoint_seal\"}"));
        assert!(sub_metrics.contains("snoopy_link_frames_received_total{link=\"lb/0\"}"));
        assert!(sub_metrics.contains("snoopy_uptime_seconds{daemon=\"suboram/0\"}"));

        // Stats: the balancer must account frames/bytes on both subORAM links
        // and at least one reconnect on the killed one.
        let lb_stats_text = fetch_stats(&addrs[0]).unwrap();
        let lb_header = parse_stats_header(&lb_stats_text).expect("no stats header from balancer");
        assert_eq!(lb_header.role, "loadbalancer");
        assert_eq!(lb_header.index, 0);
        assert!(lb_header.epochs > 0, "balancer header reports no epochs");
        let sub_header = parse_stats_header(&fetch_stats(&addrs[1]).unwrap()).unwrap();
        assert_eq!(sub_header.role, "suboram");
        assert!(sub_header.epochs > 0, "subORAM header reports no epochs");
        let lb_stats = parse_stats(&lb_stats_text);
        for sub in 0..2 {
            let line = lb_stats
                .iter()
                .find(|l| l.link == format!("suboram/{sub}"))
                .unwrap_or_else(|| panic!("no stats line for suboram/{sub}"));
            assert!(line.frames_sent > 0, "suboram/{sub}: no frames sent");
            assert!(line.frames_received > 0, "suboram/{sub}: no frames received");
            assert!(line.bytes_sent > 0 && line.bytes_received > 0, "suboram/{sub}: no bytes");
        }
        let killed = lb_stats.iter().find(|l| l.link == "suboram/1").unwrap();
        assert!(killed.reconnects >= 1, "balancer never reconnected to the killed subORAM");
        // The subORAM side serves stats too.
        let sub_stats = parse_stats(&fetch_stats(&addrs[1]).unwrap());
        assert!(sub_stats.iter().any(|l| l.link == "lb/0" && l.frames_received > 0));

        // The snoopyd CLI fronts the same RPC.
        let out = Command::new(env!("CARGO_BIN_EXE_snoopyd"))
            .args(["stats", "--addr", &addrs[0]])
            .output()
            .expect("snoopyd stats");
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("link=suboram/0"));

        // Graceful shutdown, everywhere.
        shutdown_daemon(&addrs[0]).expect("shutdown lb");
        shutdown_daemon(&addrs[1]).expect("shutdown sub0");
        shutdown_daemon(&addrs[2]).expect("shutdown sub1");
        lb.wait_graceful();
        sub0.wait_graceful();
        sub1.take().unwrap().wait_graceful();
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A sealed client session driven by hand rather than through
/// `SnoopyClient`, so one thread can hold hundreds open at once.
struct RawSession {
    stream: TcpStream,
    req_link: Link,
    resp_link: Link,
}

impl RawSession {
    fn open(addr: &str, lb: usize, deploy: &Key256) -> RawSession {
        let mut stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                // A connect storm can overflow the loopback accept backlog.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let hello = Hello::new(Role::Client, 0);
        write_frame(&mut stream, tag::HELLO, &hello.encode()).expect("hello");
        let (req_link, resp_link) = proto::client_session_links(deploy, lb, hello.session);
        RawSession { stream, req_link, resp_link }
    }

    fn send(&mut self, req: Request) {
        self.send_all(&[req]);
    }

    /// Sends `reqs` in one sealed `CLIENT_REQ` frame.
    fn send_all(&mut self, reqs: &[Request]) {
        let sealed = self.req_link.seal(reqs).unwrap();
        write_frame(&mut self.stream, tag::CLIENT_REQ, &sealed.bytes).expect("request");
    }

    /// Reads one `CLIENT_RESP` frame: its commit epoch and the responses in
    /// its box, opened as the next message on the response link.
    fn recv_frame(&mut self) -> (u64, Vec<Response>) {
        let (t, body) = read_frame(&mut self.stream).expect("response");
        assert_eq!(t, tag::CLIENT_RESP, "expected a response frame");
        let (epoch, sealed) = proto::decode_epoch_sealed(&body).expect("epoch-sealed body");
        (epoch, self.resp_link.open_responses(&sealed, VLEN).expect("response link"))
    }

    fn recv(&mut self) -> Vec<u8> {
        let (_, mut batch) = self.recv_frame();
        assert_eq!(batch.len(), 1, "one request in flight, one response");
        batch.pop().unwrap().value
    }
}

/// One long-lived admin session that reads a balancer's
/// `snoopy_net_open_sessions` gauge. A fresh `fetch_metrics` connection per
/// reading would count itself or not depending on a race with the reactor's
/// sweep, and its predecessor until that is reaped; this session is always
/// counted exactly once.
struct SessionGauge {
    stream: TcpStream,
    addr: String,
}

impl SessionGauge {
    fn open(addr: &str) -> SessionGauge {
        let mut stream = TcpStream::connect(addr).expect("admin dial");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write_frame(&mut stream, tag::HELLO, &Hello::new(Role::Admin, 0).encode()).unwrap();
        SessionGauge { stream, addr: addr.to_string() }
    }

    fn read(&mut self) -> f64 {
        write_frame(&mut self.stream, tag::METRICS_REQ, b"").expect("metrics request");
        let (t, body) = read_frame(&mut self.stream).expect("metrics response");
        assert_eq!(t, tag::METRICS_RESP);
        prom_value(&String::from_utf8(body).unwrap(), "snoopy_net_open_sessions")
            .expect("open-sessions series")
    }

    /// Polls every 100 ms until `done` accepts the readings so far (newest
    /// last); returns the newest.
    fn poll(&mut self, what: &str, done: impl Fn(&[f64]) -> bool) -> f64 {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut seen = Vec::new();
        loop {
            seen.push(self.read());
            if done(&seen) {
                return *seen.last().unwrap();
            }
            assert!(Instant::now() < deadline, "{}: {what}; read {seen:?}", self.addr);
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

#[test]
fn hundreds_of_concurrent_sessions_are_served_and_released() {
    const SESSIONS: usize = 512;
    const OBJECTS: u64 = 1024;
    each_cell(&CELLS, |cell| {
        let dir = scratch_dir("sessions", cell);
        let addrs = free_addrs(4);
        let manifest = Manifest {
            value_len: VLEN,
            lambda: 128,
            seed: SEED,
            num_objects: OBJECTS,
            epoch_ms: 10,
            sub_deadline_ms: 10_000,
            max_replays: 3,
            retain_epochs: 8,
            active_suborams: 0,
            lb_threads: cell.threads as u32,
            sub_threads: cell.threads as u32,
            storage: cell.storage,
            store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
            block_bytes: 256,
            buffer_blocks: 4,
            load_balancers: addrs[..2].to_vec(),
            suborams: addrs[2..].to_vec(),
        };
        let manifest_path = dir.join("cluster.manifest");
        std::fs::write(&manifest_path, manifest.render()).unwrap();
        let subs = [
            Daemon::spawn(SNOOPYD, "suboram", 0, &manifest_path, None),
            Daemon::spawn(SNOOPYD, "suboram", 1, &manifest_path, None),
        ];
        let lbs = [
            Daemon::spawn(SNOOPYD, "loadbalancer", 0, &manifest_path, None),
            Daemon::spawn(SNOOPYD, "loadbalancer", 1, &manifest_path, None),
        ];
        let lb_addrs = &manifest.load_balancers;
        let deploy = proto::deployment_key(SEED);

        // One served read per balancer proves its subORAM links are up, so the
        // baseline below already counts them.
        for (lb, addr) in lb_addrs.iter().enumerate() {
            wait_for_health(addr, "loadbalancer");
            let mut client = loop {
                match SnoopyClient::builder(VLEN).connect_tcp(addr, lb, &deploy) {
                    Ok(c) => break c,
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            };
            client.read(0).expect("warm-up read");
        }
        // Sessions closed before this point (the warm-up clients, the stats
        // probes) are reaped asynchronously: the baseline is the count once it
        // has held still for five readings.
        let mut gauges: Vec<SessionGauge> =
            lb_addrs.iter().map(|a| SessionGauge::open(a)).collect();
        let baseline: Vec<f64> = gauges
            .iter_mut()
            .map(|g| {
                g.poll("never settled", |seen| {
                    seen.len() >= 5 && seen.ends_with(&[seen[seen.len() - 1]; 5])
                })
            })
            .collect();

        // Session i lives on balancer i % 2 and owns object i: it writes, then
        // reads back. Each phase puts every session's request in flight before
        // collecting any response, so all of them share a handful of epochs.
        let mut sessions: Vec<RawSession> =
            (0..SESSIONS).map(|i| RawSession::open(&lb_addrs[i % 2], i % 2, &deploy)).collect();
        let initial = manifest.initial_objects();
        let value = |i: usize| {
            let mut v = format!("session {i}").into_bytes();
            v.resize(VLEN, 0);
            v
        };
        for (i, s) in sessions.iter_mut().enumerate() {
            s.send(Request::write(i as u64, &value(i), VLEN, 0, 1));
        }
        for (i, s) in sessions.iter_mut().enumerate() {
            assert_eq!(
                s.recv(),
                initial[i].value,
                "session {i}: write returns the pre-write value"
            );
        }
        for (i, s) in sessions.iter_mut().enumerate() {
            s.send(Request::read(i as u64, VLEN, 0, 2));
        }
        for (i, s) in sessions.iter_mut().enumerate() {
            assert_eq!(s.recv(), value(i), "session {i}: read returns its own write");
        }
        drop(sessions);

        for (g, &before) in gauges.iter_mut().zip(&baseline) {
            g.poll(&format!("sessions not released (baseline {before})"), |seen| {
                seen.last() == Some(&before)
            });
        }
        drop(gauges);
        for addr in &addrs {
            shutdown_daemon(addr).expect("shutdown");
        }
        for d in lbs.into_iter().chain(subs) {
            d.wait_graceful();
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A 1×2 cluster for the reply-plane tests, under its own directory.
struct SmallCluster {
    dir: PathBuf,
    manifest: Manifest,
    daemons: Vec<Daemon>,
}

impl SmallCluster {
    fn boot(cell: Cell, name: &str, epoch_ms: u64) -> SmallCluster {
        let dir = scratch_dir(name, cell);
        let addrs = free_addrs(3);
        let manifest = Manifest {
            value_len: VLEN,
            lambda: 128,
            seed: SEED,
            num_objects: NUM_OBJECTS,
            epoch_ms,
            sub_deadline_ms: 10_000,
            max_replays: 3,
            retain_epochs: 8,
            active_suborams: 0,
            lb_threads: cell.threads as u32,
            sub_threads: cell.threads as u32,
            storage: cell.storage,
            store_dir: Some(dir.join("store").to_string_lossy().into_owned()),
            block_bytes: 256,
            buffer_blocks: 4,
            load_balancers: vec![addrs[0].clone()],
            suborams: addrs[1..].to_vec(),
        };
        let path = dir.join("cluster.manifest");
        std::fs::write(&path, manifest.render()).unwrap();
        let daemons = vec![
            Daemon::spawn(SNOOPYD, "suboram", 0, &path, None),
            Daemon::spawn(SNOOPYD, "suboram", 1, &path, None),
            Daemon::spawn(SNOOPYD, "loadbalancer", 0, &path, None),
        ];
        // One served read proves the balancer's subORAM links are up.
        let lb = &manifest.load_balancers[0];
        wait_for_health(lb, "loadbalancer");
        let deploy = proto::deployment_key(SEED);
        let mut client = loop {
            match SnoopyClient::builder(VLEN).connect_tcp(lb, 0, &deploy) {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        client.read(0).expect("warm-up read");
        SmallCluster { dir, manifest, daemons }
    }

    fn lb(&self) -> &str {
        &self.manifest.load_balancers[0]
    }

    fn shutdown(self) {
        for addr in self.manifest.load_balancers.iter().chain(&self.manifest.suborams) {
            shutdown_daemon(addr).expect("shutdown");
        }
        for d in self.daemons {
            d.wait_graceful();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The balancer seals each session's replies once per epoch: k requests
/// committed in one epoch come back as one `CLIENT_RESP` frame holding k
/// responses, and the next epoch's frame opens as the link's next message.
#[test]
fn each_session_gets_one_response_frame_per_epoch() {
    each_cell(&CELLS, |cell| {
        let cluster = SmallCluster::boot(cell, "one-box", 100);
        let deploy = proto::deployment_key(SEED);
        let initial = cluster.manifest.initial_objects();
        let mut session = RawSession::open(cluster.lb(), 0, &deploy);
        for (round, ids) in [vec![3u64, 9, 3, 40, 77], vec![5, 6, 7]].into_iter().enumerate() {
            let reqs: Vec<Request> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| Request::read(id, VLEN, 0, (round * 10 + i) as u64))
                .collect();
            session.send_all(&reqs);
            // One frame per commit epoch; the requests of one frame almost
            // always share an epoch, but a tick may land between them.
            let mut got: Vec<Response> = Vec::new();
            let mut epochs: Vec<u64> = Vec::new();
            while got.len() < reqs.len() {
                let (epoch, batch) = session.recv_frame();
                assert!(!batch.is_empty(), "round {round}: an empty response box");
                assert!(
                    epochs.last().is_none_or(|&e| e < epoch),
                    "round {round}: two frames for epoch {epoch}"
                );
                epochs.push(epoch);
                got.extend(batch);
            }
            assert_eq!(got.len(), reqs.len(), "round {round}: one response per request");
            for req in &reqs {
                let resp = got.iter().find(|r| r.seq == req.seq).expect("every request answered");
                assert_eq!((resp.id, &resp.value), (req.id, &initial[req.id as usize].value));
            }
        }
        drop(session);
        cluster.shutdown();
    });
}

/// A request in the reserved id namespace would collide with a dummy slot
/// and get every client's epoch refused. The balancer closes that session
/// before the request reaches an epoch, and an honest client sending in
/// the same window still commits; `SnoopyClient` refuses such an id
/// without sending it.
#[test]
fn reserved_ids_close_the_session_and_spare_the_epoch() {
    each_cell(&CELLS, |cell| {
        let cluster = SmallCluster::boot(cell, "reserved-id", 50);
        let deploy = proto::deployment_key(SEED);
        let initial = cluster.manifest.initial_objects();
        let mut honest = RawSession::open(cluster.lb(), 0, &deploy);
        let mut hostile = RawSession::open(cluster.lb(), 0, &deploy);
        for round in 0..3u64 {
            honest.send(Request::read(round, VLEN, 0, round));
            if round == 0 {
                // An id in the balancer's dummy namespace.
                hostile.send(Request::read(LB_DUMMY_BASE + 1, VLEN, 0, 1));
            }
            assert_eq!(honest.recv(), initial[round as usize].value, "round {round}");
        }
        let closed = read_frame(&mut hostile.stream);
        assert!(closed.is_err(), "the hostile session must be closed, got {closed:?}");
        let metrics = fetch_metrics(cluster.lb()).expect("metrics");
        assert_eq!(
            prom_value(&metrics, "snoopy_refused_client_sessions_total").expect("refused series"),
            1.0
        );

        let mut client = SnoopyClient::builder(VLEN).connect_tcp(cluster.lb(), 0, &deploy).unwrap();
        match client.read(LB_DUMMY_BASE + 5) {
            Err(snoopy_net::NetError::ReservedId { id }) => assert_eq!(id, LB_DUMMY_BASE + 5),
            other => panic!("expected a ReservedId refusal, got {other:?}"),
        }
        assert_eq!(client.read(7).expect("the client still works"), initial[7].value);
        drop((honest, hostile, client));
        cluster.shutdown();
    });
}
