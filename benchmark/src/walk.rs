//! The layer walk: the traced, in-process half of the traced run.
//!
//! It builds the pieces a 1×2 cluster is made of — a `LoadBalancer`, two
//! `SubOram` nodes on the workload's tier, and the AEAD `Link`s between them
//! — and replays epochs of a fixed number of requests through the epoch's
//! public calls in the order the daemons make them, with a span around each
//! call. A layer's number is its span's own time; what the `epoch` span does
//! not hand to a named child is printed as unattributed. Spans live only in
//! this file: tracing inside the daemons is a later change.
//!
//! Beside the spans it times, standalone and at the workload's shape, the
//! kernels an epoch is built from (sort, compact, hash build, codecs, AEAD),
//! so each layer has a number that does not depend on where a span boundary
//! was drawn.

use crate::gen::{Checker, Stream, Zipf};
use crate::stats::median;
use crate::workloads::{self, Workload};
use snoopy_core::link::Link;
use snoopy_core::transport::{BatchOutcome, SubOramNode};
use snoopy_core::{Snoopy, SnoopyConfig};
use snoopy_crypto::aead::{AeadKey, Nonce, SealedBox};
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{decode_request, encode_request, Request, Response, StoredObject};
use snoopy_lb::{partition_objects, LoadBalancer};
use snoopy_net::checkpoint;
use snoopy_net::proto::{self, tag};
use snoopy_net::session::{FrameAssembler, OutBuf};
use snoopy_obliv::compact::ocompact;
use snoopy_obliv::ct::{ct_lt_u64, Choice};
use snoopy_obliv::sort::osort_by;
use snoopy_ohash::OHashTable;
use snoopy_store::{DiskConfig, StorageKind};
use snoopy_suboram::SubOram;
use snoopy_telemetry::metrics::{self, names};
use snoopy_telemetry::SpanRecord;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One span: a call into a layer, or the whole epoch that contains it.
struct Span {
    name: &'static str,
    /// Epoch number: the identifier every span of one epoch shares.
    epoch: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the walk ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of `epoch`'s span).
    fn time<T>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, epoch, start_ns, end_ns });
        out
    }
}

const EPOCH: &str = "epoch";

/// What the walk produced.
pub struct Walk {
    /// Per-layer rows (`<crate>.<name>`, value).
    pub rows: Vec<(&'static str, f64)>,
    /// Every span, ready for `chrome_trace_json`: the epoch span is named
    /// `epoch`, its children `epoch/<layer>`, and `tid` is the epoch number.
    pub spans: Vec<SpanRecord>,
    /// Share of all epoch time each named span took, largest first, then the
    /// hash build's share (which is part of `suboram.batch_access`'s).
    pub shares: Vec<(&'static str, f64)>,
    /// Share of epoch time inside some named child span.
    pub coverage: f64,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Times `f` `reps` times and returns the median, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The wire codec without a socket: `OutBuf` encodes a frame, the bytes go
/// through a buffer, `FrameAssembler` parses them back. Counts what passed.
struct FrameCodec {
    out: OutBuf,
    asm: FrameAssembler,
    wire: Vec<u8>,
    frames: u64,
    bytes: u64,
}

impl FrameCodec {
    fn new() -> FrameCodec {
        FrameCodec {
            out: OutBuf::new(usize::MAX, usize::MAX),
            asm: FrameAssembler::new(),
            wire: Vec::new(),
            frames: 0,
            bytes: 0,
        }
    }

    fn pass(&mut self, t: u8, body: &[u8]) -> Vec<u8> {
        self.frames += 1;
        self.bytes += body.len() as u64;
        self.out.push_frame(t, body).expect("outbuf has room");
        self.wire.clear();
        self.out.drain_into(&mut self.wire).expect("vec write");
        self.asm.extend(&self.wire);
        let (got, parsed) = self.asm.next_frame().expect("well-formed").expect("one whole frame");
        assert_eq!(got, t);
        parsed
    }
}

struct SubSide {
    node: SubOramNode,
    /// Balancer → subORAM batches: sealing end and opening end.
    batch_tx: Link,
    batch_rx: Link,
    /// SubORAM → balancer responses: sealing end and opening end.
    resp_tx: Link,
    resp_rx: Link,
    ckpt_key: Key256,
    objects: usize,
}

/// The disk tier's process-wide counters, read before and after the walk.
struct StoreCounters {
    bytes_read: f64,
    bytes_written: f64,
    fsyncs: f64,
    buffer_stalls: f64,
    scan_seconds: f64,
}

impl StoreCounters {
    fn read() -> StoreCounters {
        let counter = |name| metrics::global().counter(name, "").value() as f64;
        StoreCounters {
            bytes_read: counter(names::STORE_BYTES_READ_TOTAL),
            bytes_written: counter(names::STORE_BYTES_WRITTEN_TOTAL),
            fsyncs: counter(names::STORE_FSYNCS_TOTAL),
            buffer_stalls: counter(names::STORE_BUFFER_STALLS_TOTAL),
            scan_seconds: metrics::stage_histogram("store_scan").snapshot().sum as f64 / 1e9,
        }
    }
}

/// Runs the walk for `w`: `epochs` epochs of `w.walk_requests` requests.
/// `dir` receives the disk tier's segments and checkpoints.
pub fn run(w: &Workload, seed: u64, dir: &Path, epochs: usize) -> io::Result<Walk> {
    let s = workloads::SUBORAMS;
    let r = w.walk_requests;
    let vl = w.value_len;
    let disk = w.storage == StorageKind::Disk;
    let mut prg = Prg::from_seed(seed);
    let shared_key = Key256::random(&mut prg);
    let deploy = proto::deployment_key(seed);
    let balancer = LoadBalancer::new(&shared_key, s, vl, workloads::LAMBDA);
    let objects = || -> Vec<StoredObject> {
        (0..w.objects).map(|i| StoredObject::new(i, &i.to_le_bytes(), vl)).collect()
    };

    let mut subs = Vec::with_capacity(s);
    for (i, part) in partition_objects(objects(), &shared_key, s).into_iter().enumerate() {
        let n = part.len();
        let key = Key256::random(&mut prg);
        let oram = if disk {
            let cfg = DiskConfig {
                block_bytes: workloads::DISK_BLOCK_BYTES as usize,
                buffer_blocks: workloads::DISK_BUFFER_BLOCKS as usize,
            };
            snoopy_store::build_suboram_disk(
                &dir.join(format!("sub{i}")),
                part,
                vl,
                cfg,
                key,
                workloads::LAMBDA,
            )?
        } else {
            SubOram::new_in_enclave(part, vl, key, workloads::LAMBDA)
        };
        let (batch_tx, resp_rx) = proto::suboram_session_links(&deploy, 0, i, s, 1 + i as u64);
        let (batch_rx, resp_tx) = proto::suboram_session_links(&deploy, 0, i, s, 1 + i as u64);
        subs.push(SubSide {
            node: SubOramNode::new(oram, 1).with_index(i),
            batch_tx,
            batch_rx,
            resp_tx,
            resp_rx,
            ckpt_key: checkpoint::checkpoint_key(&deploy, i),
            objects: n,
        });
    }
    let (mut client_req_tx, mut client_resp_rx) = proto::client_session_links(&deploy, 0, 99);
    let (mut client_req_rx, mut client_resp_tx) = proto::client_session_links(&deploy, 0, 99);

    let zipf = Zipf::new(w.objects, workloads::ZIPF_THETA);
    let mut stream = Stream::new(seed, 0, 1, workloads::WRITE_FRAC);
    let mut checker = Checker::new(w.objects, vl);
    let mut next_requests = |epoch: u64| -> (Vec<Request>, usize) {
        let mut writes = 0;
        let reqs = (0..r)
            .map(|i| {
                let op = stream.next_op(&zipf);
                let (_, payload) = checker.on_issue(op);
                let seq = epoch * r as u64 + i as u64;
                match payload {
                    Some(p) => {
                        writes += 1;
                        Request::write(op.key, &p, vl, i as u64, seq)
                    }
                    None => Request::read(op.key, vl, i as u64, seq),
                }
            })
            .collect();
        (reqs, writes)
    };

    let mut codec = FrameCodec::new();
    let mut rec = Recorder { origin: Instant::now(), spans: Vec::new() };
    let mut construct_ns = Vec::new();
    let mut batch_len = 0usize;
    let mut slots_per_req = 0.0;
    let mut user_bytes_written = 0u64;
    let store_before = StoreCounters::read();

    for epoch in 1..=epochs as u64 {
        // Client side, before the epoch: seal each request on its session.
        let (requests, writes) = next_requests(epoch);
        user_bytes_written += (writes * vl) as u64;
        let sealed_requests: Vec<SealedBox> = requests
            .iter()
            .map(|q| client_req_tx.seal(std::slice::from_ref(q)).expect("seal"))
            .collect();

        let epoch_start = rec.now_ns();
        // Ingest: the balancer parses and opens every client frame.
        let bodies: Vec<Vec<u8>> = rec.time("net.frame", epoch, || {
            sealed_requests.iter().map(|sb| codec.pass(tag::CLIENT_REQ, &sb.bytes)).collect()
        });
        let opened: Vec<Request> = rec.time("core.link_open", epoch, || {
            bodies
                .into_iter()
                .map(|bytes| {
                    let mut q = client_req_rx.open(&SealedBox { bytes }, vl).expect("open");
                    q.pop().expect("one request per frame")
                })
                .collect()
        });
        debug_assert_eq!(opened, requests);

        let batches =
            rec.time("lb.make_batches", epoch, || balancer.make_batches(&opened)).expect("batches");
        batch_len = batches[0].len();

        // Kept for the hash-build probe that runs once the epoch is over.
        let probe = batches[0].clone();

        let mut sub_responses = Vec::with_capacity(s);
        for (i, batch) in batches.into_iter().enumerate() {
            let side = &mut subs[i];
            let sealed =
                rec.time("core.link_seal", epoch, || side.batch_tx.seal(&batch)).expect("seal");
            let ctx = proto::TraceCtx { epoch, lb: 0, seq: 0, generation: 0 };
            let body = rec.time("net.frame", epoch, || {
                codec.pass(tag::BATCH, &proto::encode_batch_ctx(ctx, &sealed))
            });
            let arrived = rec.time("core.link_open", epoch, || {
                let (_, sealed) = proto::decode_batch_ctx(&body).expect("ctx");
                side.batch_rx.open(&sealed, vl)
            });
            let arrived = arrived.expect("open");
            let outcome = rec
                .time("suboram.batch_access", epoch, || side.node.handle_batch(0, epoch, arrived));
            let BatchOutcome::Completed(Some(resp)) = outcome else {
                return Err(io::Error::other("subORAM refused a walk batch"));
            };
            if disk {
                rec.time("store.commit", epoch, || side.node.oram_mut().commit_storage(epoch))
                    .map_err(|e| io::Error::other(format!("commit: {e}")))?;
                let path = dir.join(format!("sub{i}.ckpt"));
                rec.time("net.checkpoint_save", epoch, || {
                    checkpoint::save(&side.node, &side.ckpt_key, &path)
                })
                .map_err(|e| io::Error::other(format!("checkpoint: {e}")))?;
            }
            let sealed =
                rec.time("core.link_seal", epoch, || side.resp_tx.seal(&resp)).expect("seal");
            let body = rec.time("net.frame", epoch, || {
                codec.pass(tag::RESP_BATCH, &proto::encode_epoch_sealed(epoch, &sealed))
            });
            let back = rec.time("core.link_open", epoch, || {
                let (_, sealed) = proto::decode_epoch_sealed(&body).expect("epoch");
                side.resp_rx.open(&sealed, vl)
            });
            sub_responses.push(back.expect("open"));
        }

        let matched: Vec<Response> = rec
            .time("lb.match_responses", epoch, || balancer.match_responses(&opened, sub_responses));
        // Egress: one sealed frame per response, as the balancer sends them.
        let sealed_responses: Vec<SealedBox> = rec.time("core.link_seal", epoch, || {
            matched
                .iter()
                .map(|m| client_resp_tx.seal_responses(std::slice::from_ref(m)).expect("seal"))
                .collect()
        });
        let bodies: Vec<Vec<u8>> = rec.time("net.frame", epoch, || {
            sealed_responses
                .iter()
                .map(|sb| codec.pass(tag::CLIENT_RESP, &proto::encode_epoch_sealed(epoch, sb)))
                .collect()
        });
        let delivered = rec.time("core.link_open", epoch, || {
            bodies
                .iter()
                .map(|body| {
                    let (_, sealed) = proto::decode_epoch_sealed(body).expect("epoch");
                    client_resp_rx.open_responses(&sealed, vl).expect("open").len()
                })
                .sum::<usize>()
        });
        assert_eq!(delivered, r);
        let epoch_end = rec.now_ns();
        rec.spans.push(Span { name: EPOCH, epoch, start_ns: epoch_start, end_ns: epoch_end });

        // Between epochs: what the hash build alone costs on this epoch's
        // first batch, to split the scan from it in `batch_access`.
        let key = shared_key.derive(&epoch.to_le_bytes());
        let t = Instant::now();
        let table = OHashTable::construct(probe, &key, workloads::LAMBDA).expect("construct");
        construct_ns.push(t.elapsed().as_nanos() as f64);
        slots_per_req = table.params().total_slots() as f64 / batch_len as f64;
        black_box(table);
    }

    let store_after = StoreCounters::read();

    // ---- spans → per-layer rows -------------------------------------------
    let dur = |sp: &Span| (sp.end_ns - sp.start_ns) as f64;
    let per_epoch_sum = |name: &str| -> Vec<f64> {
        (1..=epochs as u64)
            .map(|e| rec.spans.iter().filter(|sp| sp.name == name && sp.epoch == e).map(dur).sum())
            .collect()
    };
    let each = |name: &str| -> Vec<f64> {
        rec.spans.iter().filter(|sp| sp.name == name).map(dur).collect()
    };
    let median_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let epoch_total: f64 = each(EPOCH).iter().sum();
    let mut names_seen: Vec<&'static str> = Vec::new();
    for sp in &rec.spans {
        if sp.name != EPOCH && !names_seen.contains(&sp.name) {
            names_seen.push(sp.name);
        }
    }
    let mut shares: Vec<(&'static str, f64)> =
        names_seen.iter().map(|&n| (n, each(n).iter().sum::<f64>() / epoch_total)).collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let coverage: f64 = shares.iter().map(|(_, f)| f).sum();
    // The hash build has no span of its own (it runs inside `batch_access`);
    // its share is the probe's time, once per subORAM per epoch.
    shares.push((
        "(ohash.construct, inside suboram.batch_access)",
        median(&construct_ns) * (s * epochs) as f64 / epoch_total,
    ));

    let batch_access_ns = median_or_zero(each("suboram.batch_access"));
    let construct_med = median(&construct_ns);
    let objs_per_sub = subs.iter().map(|x| x.objects).sum::<usize>() as f64 / s as f64;
    let scan_ns_per_obj = (batch_access_ns - construct_med).max(0.0) / objs_per_sub;
    let frame_total_ns: f64 = each("net.frame").iter().sum();

    // ---- standalone kernels at the workload's shape ------------------------
    let sort_len = r + s * batch_len;
    let sort_input: Vec<Request> = (0..sort_len)
        .map(|i| Request::read((i as u64).wrapping_mul(0x9E37_79B9) % (1 << 40), vl, 0, 0))
        .collect();
    let osort_ns = median_ns(3, || {
        let mut v = sort_input.clone();
        osort_by(&mut v, &|a: &Request, b: &Request| ct_lt_u64(b.id, a.id));
        black_box(v);
    });
    let ocompact_ns = median_ns(3, || {
        let mut v = sort_input.clone();
        let mut keep: Vec<Choice> =
            (0..sort_len).map(|i| if i % 2 == 0 { Choice::TRUE } else { Choice::FALSE }).collect();
        ocompact(&mut v, &mut keep);
        black_box(v);
    });
    // Cloning the input is inside both timings; take it out.
    let clone_ns = median_ns(3, || {
        black_box(sort_input.clone());
    });
    let batch_size_ns = median_ns(15, || {
        black_box(snoopy_binning::batch_size(black_box(r as u64), s as u64, workloads::LAMBDA));
    });
    let dummy_frac = (s * batch_len - r.min(s * batch_len)) as f64 / (s * batch_len) as f64;

    let sample: Vec<Request> = sort_input[..r.min(sort_len)].to_vec();
    let encode_ns = median_ns(9, || {
        for q in &sample {
            black_box(encode_request(q));
        }
    }) / sample.len() as f64;
    let encoded: Vec<Vec<u8>> = sample.iter().map(encode_request).collect();
    let decode_ns = median_ns(9, || {
        for bytes in &encoded {
            black_box(decode_request(bytes, vl));
        }
    }) / encoded.len() as f64;

    let aead = AeadKey::new(shared_key.derive(b"bench-aead"));
    let plain = vec![0xA5u8; batch_len * (40 + vl)];
    let nonce = Nonce::from_parts(1, 1);
    let mut sealed = aead.seal(nonce, b"", &plain);
    let seal_ns = median_ns(5, || sealed = aead.seal(nonce, b"", black_box(&plain)));
    let open_ns = median_ns(5, || {
        black_box(aead.open(nonce, b"", &sealed).expect("authentic"));
    });
    let mb_s = |bytes: usize, ns: f64| bytes as f64 / ns * 1e3;

    // The scan's floor: one pass that reads every byte of a partition-sized
    // plaintext store (which leaks everything and does O(1) work per key).
    let floor_ns = crate::calib::plaintext_scan_ns_per_obj(objs_per_sub as u64, vl);

    // A memory-tier daemon is not checkpointed in these workloads; the save
    // is still timed at the workload's shape, outside the epoch.
    let checkpoint_save_ns = if disk {
        median_or_zero(each("net.checkpoint_save"))
    } else {
        let path = dir.join("probe.ckpt");
        let side = &subs[0];
        let mut failed = None;
        let ns = median_ns(3, || {
            if let Err(e) = checkpoint::save(&side.node, &side.ckpt_key, &path) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(io::Error::other(format!("checkpoint: {e}")));
        }
        ns
    };
    drop(subs);

    // The compute-only floor of an epoch: the reference engine at the same
    // shape — no links, no frames, no processes. It runs the S subORAMs one
    // after the other where a cluster runs them side by side, so the floor
    // of a cluster epoch's wall time is its critical path: make, one
    // subORAM's share of the scans, match.
    let inproc_ms = {
        let cfg = SnoopyConfig::with_machines(1, s)
            .value_len(vl)
            .lambda(workloads::LAMBDA)
            .storage(w.storage);
        let mut engine = Snoopy::init(cfg, objects(), seed);
        let mut samples = Vec::new();
        for e in 0..epochs.min(10) as u64 {
            let (reqs, _) = next_requests(epochs as u64 + 1 + e);
            engine
                .execute_epoch_single(reqs)
                .map_err(|e| io::Error::other(format!("reference engine: {e}")))?;
            let st = engine.last_epoch_stats();
            let path = st.lb_make_time + st.suboram_time / s as u32 + st.lb_match_time;
            samples.push(path.as_nanos() as f64);
        }
        ms(median(&samples))
    };

    let per_epoch = |a: f64, b: f64| (b - a) / epochs as f64;
    let scan_secs = store_after.scan_seconds - store_before.scan_seconds;
    let bytes_read = store_after.bytes_read - store_before.bytes_read;
    let bytes_written = store_after.bytes_written - store_before.bytes_written;
    let rows = vec![
        ("obliv.osort_ns_per_elem", (osort_ns - clone_ns).max(0.0) / sort_len as f64),
        ("obliv.ocompact_ns_per_elem", (ocompact_ns - clone_ns).max(0.0) / sort_len as f64),
        ("binning.dummy_frac", dummy_frac),
        ("binning.batch_size_ns", batch_size_ns),
        ("ohash.construct_ns_per_req", construct_med / batch_len as f64),
        ("ohash.slots_per_req", slots_per_req),
        ("suboram.batch_access_ms", ms(batch_access_ns)),
        ("suboram.scan_ns_per_obj", scan_ns_per_obj),
        ("suboram.scan_vs_plaintext", scan_ns_per_obj / floor_ns),
        ("store.scan_mb_s", if scan_secs > 0.0 { bytes_read / scan_secs / 1e6 } else { 0.0 }),
        ("store.commit_ms", ms(median_or_zero(each("store.commit")))),
        ("store.fsyncs_per_epoch", per_epoch(store_before.fsyncs, store_after.fsyncs)),
        ("store.bytes_written_per_epoch", bytes_written / epochs as f64),
        (
            "store.buffer_stalls_per_epoch",
            per_epoch(store_before.buffer_stalls, store_after.buffer_stalls),
        ),
        (
            "store.write_amp",
            if user_bytes_written > 0 { bytes_written / user_bytes_written as f64 } else { 0.0 },
        ),
        ("lb.make_batches_ms", ms(median(&each("lb.make_batches")))),
        ("lb.match_responses_ms", ms(median(&each("lb.match_responses")))),
        ("core.link_seal_ns_per_req", median(&per_epoch_sum("core.link_seal")) / r as f64),
        ("core.link_open_ns_per_req", median(&per_epoch_sum("core.link_open")) / r as f64),
        ("core.epoch_inproc_ms", inproc_ms),
        ("enclave.encode_request_ns", encode_ns),
        ("enclave.decode_request_ns", decode_ns),
        ("crypto.aead_seal_mb_s", mb_s(plain.len(), seal_ns)),
        ("crypto.aead_open_mb_s", mb_s(plain.len(), open_ns)),
        ("net.frame_ns_per_frame", frame_total_ns / codec.frames as f64),
        ("net.frame_mb_s", mb_s(codec.bytes as usize, frame_total_ns)),
        ("net.checkpoint_save_ms", ms(checkpoint_save_ns)),
    ];

    let spans = rec
        .spans
        .iter()
        .map(|sp| SpanRecord {
            name: if sp.name == EPOCH {
                EPOCH.into()
            } else {
                format!("{EPOCH}/{}", sp.name).into()
            },
            tid: sp.epoch,
            start_ns: sp.start_ns,
            dur_ns: sp.end_ns - sp.start_ns,
        })
        .collect();
    Ok(Walk { rows, spans, shares, coverage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_store::TempDir;

    fn tiny(storage: StorageKind) -> Workload {
        let mut w = workloads::smoke(workloads::by_name("scan_mem").unwrap());
        w.storage = storage;
        w.walk_requests = 32;
        w
    }

    fn scratch(name: &str) -> TempDir {
        TempDir::new(&format!("walk-test-{name}")).unwrap()
    }

    #[test]
    fn spans_cover_the_epoch_and_counts_repeat() {
        let dir = scratch("mem");
        let a = run(&tiny(StorageKind::Memory), 5, dir.path(), 3).unwrap();
        let b = run(&tiny(StorageKind::Memory), 5, dir.path(), 3).unwrap();
        assert!(a.coverage > 0.9 && a.coverage <= 1.0 + 1e-9, "coverage {}", a.coverage);
        let row = |w: &Walk, name: &str| w.rows.iter().find(|(n, _)| *n == name).unwrap().1;
        for exact in ["binning.dummy_frac", "ohash.slots_per_req"] {
            assert_eq!(row(&a, exact), row(&b, exact), "{exact}");
        }
        assert!(row(&a, "binning.dummy_frac") > 0.0 && row(&a, "binning.dummy_frac") < 1.0);
        // One epoch span per epoch, each containing its children.
        let roots: Vec<&SpanRecord> = a.spans.iter().filter(|s| s.name == "epoch").collect();
        assert_eq!(roots.len(), 3);
        for child in a.spans.iter().filter(|s| s.name != "epoch") {
            let root = roots.iter().find(|r| r.tid == child.tid).unwrap();
            assert!(child.start_ns >= root.start_ns);
            assert!(child.start_ns + child.dur_ns <= root.start_ns + root.dur_ns);
        }
    }

    #[test]
    fn disk_walk_counts_io_exactly() {
        let dir = scratch("disk");
        // 2^12 objects: each partition outgrows the 256 KiB buffer, so the
        // scans stream (a resident partition writes only at commit).
        let mut w = tiny(StorageKind::Disk);
        w.objects = 1 << 12;
        let a = run(&w, 9, dir.path(), 2).unwrap();
        let dir2 = scratch("disk2");
        let b = run(&w, 9, dir2.path(), 2).unwrap();
        let row = |w: &Walk, name: &str| w.rows.iter().find(|(n, _)| *n == name).unwrap().1;
        // Two subORAMs, each one segment fsync and one directory fsync.
        assert_eq!(row(&a, "store.fsyncs_per_epoch"), 4.0);
        assert_eq!(
            row(&a, "store.bytes_written_per_epoch"),
            row(&b, "store.bytes_written_per_epoch")
        );
        assert!(row(&a, "store.bytes_written_per_epoch") > 0.0);
        assert!(row(&a, "store.write_amp") > 1.0);
    }
}
