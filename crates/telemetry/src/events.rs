//! The flight recorder: a bounded ring of structured lifecycle events.
//!
//! Metrics answer "how much"; traces answer "where did the time go". The
//! flight recorder answers "what happened, in order" — the last few
//! thousand lifecycle events (epoch starts, sealed batches, subORAM
//! replies, replay waves, degraded epochs, storage/checkpoint commits,
//! reactor session churn) kept in constant memory per process, so a chaos
//! failure is explainable *after the fact* without rerunning it.
//!
//! **Leakage**: events live on the same side of the boundary as exported
//! metrics. Every field value enters through the [`Public`] witness gate
//! ([`Event::with`] accepts only `Public<u64>`), each record keeps the
//! provenances it was fed (auditable like [`crate::metrics`] series), and
//! the event kinds themselves are wire-observable facts — an epoch
//! boundary, a frame, an accept, a commit cadence. A [`crate::public::Secret`]
//! value cannot be placed in an event:
//!
//! ```compile_fail
//! use snoopy_telemetry::events::{Event, EventKind};
//! use snoopy_telemetry::public::Secret;
//!
//! // The post-dedup dummy count is secret; an event field only accepts
//! // Public<u64>, so this does not compile.
//! let dummies: Secret<u64> = Secret::new(3);
//! let ev = Event::new(EventKind::BatchSealed).with("dummies", dummies);
//! ```
//!
//! Dumps are JSON lines ([`to_jsonl`] / [`parse_jsonl`]), written by the
//! daemons on degraded epochs and at shutdown (`SNOOPY_FLIGHT_DIR`), and
//! drained remotely over the `EVENTS` admin RPC.

use crate::public::{Provenance, Public};
use crate::trace::escape_json;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Events kept per process before the oldest is overwritten.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What happened. Every kind is a wire-observable or public-timing fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A balancer epoch ticked (epoch boundaries are wire-visible cadence).
    EpochStart,
    /// The balancer sealed and sent this epoch's batches.
    BatchSealed,
    /// A subORAM's sealed response was accepted by the balancer.
    SubReply,
    /// A deadline/teardown wave re-sent sealed batches to a subORAM.
    ReplayWave,
    /// The replay budget ran out; the epoch completed degraded.
    EpochDegraded,
    /// A subORAM refused a replay because the epoch left the reply cache.
    ReplayEvicted,
    /// A subORAM sealed and persisted its per-epoch checkpoint.
    CheckpointCommit,
    /// The storage tier committed a sealed on-disk generation.
    StorageCommit,
    /// The reactor accepted a connection.
    NetAccept,
    /// The reactor tore down a session.
    NetClose,
    /// A session crossed into backpressure (writes paused reads).
    NetBackpressure,
    /// The daemon is shutting down.
    Shutdown,
    /// A reshard committed: the node flipped to a new fleet layout. The
    /// reconfiguration event is public by design (the migration's *shape*
    /// is what stays data-independent).
    ReshardCommit,
    /// A reshard was aborted (driver verdict or pause-TTL expiry); the node
    /// resumed its old layout.
    ReshardAbort,
    /// A subORAM refused a batch whose layout-generation stamp did not match
    /// its committed generation (mixed-layout fence).
    StaleLayoutBatch,
    /// A balancer closed a client session for sending a request id in the
    /// reserved namespace (a protocol violation; the close is on the wire).
    ClientRefused,
    /// A thread panicked and the daemon is exiting (the exit is on the
    /// wire: every session closes).
    Panic,
}

impl EventKind {
    /// Stable label used in dumps.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::EpochStart => "epoch_start",
            EventKind::BatchSealed => "batch_sealed",
            EventKind::SubReply => "sub_reply",
            EventKind::ReplayWave => "replay_wave",
            EventKind::EpochDegraded => "epoch_degraded",
            EventKind::ReplayEvicted => "replay_evicted",
            EventKind::CheckpointCommit => "checkpoint_commit",
            EventKind::StorageCommit => "storage_commit",
            EventKind::NetAccept => "net_accept",
            EventKind::NetClose => "net_close",
            EventKind::NetBackpressure => "net_backpressure",
            EventKind::Shutdown => "shutdown",
            EventKind::ReshardCommit => "reshard_commit",
            EventKind::ReshardAbort => "reshard_abort",
            EventKind::StaleLayoutBatch => "stale_layout_batch",
            EventKind::ClientRefused => "client_refused",
            EventKind::Panic => "panic",
        }
    }

    /// Parses a dump label back into a kind.
    pub fn from_label(s: &str) -> Option<EventKind> {
        EventKind::all().into_iter().find(|k| k.label() == s)
    }

    /// Every kind (for exhaustive audits).
    pub fn all() -> [EventKind; 17] {
        [
            EventKind::EpochStart,
            EventKind::BatchSealed,
            EventKind::SubReply,
            EventKind::ReplayWave,
            EventKind::EpochDegraded,
            EventKind::ReplayEvicted,
            EventKind::CheckpointCommit,
            EventKind::StorageCommit,
            EventKind::NetAccept,
            EventKind::NetClose,
            EventKind::NetBackpressure,
            EventKind::Shutdown,
            EventKind::ReshardCommit,
            EventKind::ReshardAbort,
            EventKind::StaleLayoutBatch,
            EventKind::ClientRefused,
            EventKind::Panic,
        ]
    }

    /// Kinds that mark a failure worth an immediate post-mortem dump.
    pub fn is_failure(self) -> bool {
        matches!(self, EventKind::EpochDegraded)
    }
}

/// An event under construction. Fields enter only through the [`Public`]
/// gate; [`record`] (or [`FlightRecorder::record`]) stamps time and
/// sequence.
#[derive(Clone, Debug)]
pub struct Event {
    kind: EventKind,
    fields: Vec<(&'static str, u64)>,
    mask: u8,
}

impl Event {
    /// Starts an event of the given kind.
    pub fn new(kind: EventKind) -> Event {
        Event { kind, fields: Vec::new(), mask: 0 }
    }

    /// Attaches a named public field. This is the only way to put a value
    /// on an event — a `Secret<u64>` is not accepted (see the module doc's
    /// `compile_fail` proof).
    pub fn with(mut self, name: &'static str, value: Public<u64>) -> Event {
        self.mask |= value.provenance().bit();
        self.fields.push((name, value.into_value()));
        self
    }
}

/// One recorded event, as stored in the ring and in dumps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotone per-process sequence number (never resets).
    pub seq: u64,
    /// Wall-clock at record time, nanoseconds since the Unix epoch.
    pub t_unix_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Named public field values, in attach order.
    pub fields: Vec<(String, u64)>,
    /// Provenances of every field value (the leakage audit trail).
    pub provenances: Vec<Provenance>,
}

impl EventRecord {
    /// The value of a named field, if present.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A bounded per-process ring of [`EventRecord`]s.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<EventRecord>>,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    /// `role/index` of the owning process, for dump filenames.
    identity: Mutex<Option<String>>,
    /// Directory for automatic JSONL dumps (degraded epochs, shutdown).
    dump_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with the default capacity.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            identity: Mutex::new(None),
            dump_dir: Mutex::new(None),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Names the owning process (`role`, `index`) for dump files.
    pub fn set_identity(&self, role: &str, index: u64) {
        *self.identity.lock().unwrap() = Some(format!("{role}-{index}"));
    }

    /// Sets (or clears) the directory for automatic post-mortem dumps.
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        *self.dump_dir.lock().unwrap() = dir;
    }

    /// Records an event, stamping wall-clock time and a sequence number.
    /// Failure-kind events additionally flush a post-mortem dump if a dump
    /// directory is configured.
    pub fn record(&self, ev: Event) {
        let rec = EventRecord {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            t_unix_ns: unix_now_ns(),
            kind: ev.kind,
            fields: ev.fields.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            provenances: Provenance::from_mask(ev.mask),
        };
        let kind = rec.kind;
        {
            let mut ring = self.ring.lock().unwrap();
            if ring.len() >= self.capacity {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back(rec);
        }
        if kind.is_failure() {
            self.dump("degraded");
        }
    }

    /// A copy of the buffered events, oldest first. Non-destructive so a
    /// remote drain does not erase the post-mortem state a later crash dump
    /// would need.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Events overwritten by the bounded ring since process start.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the current snapshot as JSONL into the configured dump
    /// directory (no-op without one). Returns the path written. Filenames
    /// are `<role>-<index>.<n>.<reason>.events.jsonl`, so repeated dumps
    /// never clobber each other.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.lock().unwrap().clone()?;
        let who = self.identity.lock().unwrap().clone().unwrap_or_else(|| "proc".to_string());
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{who}.{n}.{reason}.events.jsonl"));
        let body = to_jsonl(&self.snapshot());
        let _ = std::fs::create_dir_all(&dir);
        std::fs::write(&path, body).ok()?;
        Some(path)
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder. Its dump directory is seeded from
/// `SNOOPY_FLIGHT_DIR` on first use.
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| {
        let r = FlightRecorder::new();
        if let Ok(dir) = std::env::var("SNOOPY_FLIGHT_DIR") {
            if !dir.is_empty() {
                r.set_dump_dir(Some(PathBuf::from(dir)));
            }
        }
        r
    })
}

/// Records an event into the process-wide recorder.
pub fn record(ev: Event) {
    recorder().record(ev);
}

/// Wall-clock now, nanoseconds since the Unix epoch.
pub fn unix_now_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
}

/// Renders records as JSON lines — one event per line, fields in attach
/// order under a `fields` object, provenances labeled for the audit trail.
pub fn to_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 128);
    for r in records {
        out.push_str(&format!("{{\"seq\":{},\"t_unix_ns\":{},\"kind\":\"", r.seq, r.t_unix_ns));
        out.push_str(r.kind.label());
        out.push_str("\",\"fields\":{");
        for (i, (n, v)) in r.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(n, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("},\"provenance\":[");
        for (i, p) in r.provenances.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(p.label());
            out.push('"');
        }
        out.push_str("]}\n");
    }
    out
}

/// Parses a JSONL dump back into records (validating each line with the
/// in-tree JSON parser).
pub fn parse_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = crate::chrome::Json::parse(line).map_err(|e| format!("line {i}: {e}"))?;
        let seq = doc
            .get("seq")
            .and_then(crate::chrome::Json::as_f64)
            .ok_or(format!("line {i}: missing seq"))? as u64;
        let t_unix_ns = doc
            .get("t_unix_ns")
            .and_then(crate::chrome::Json::as_f64)
            .ok_or(format!("line {i}: missing t_unix_ns"))? as u64;
        let kind = doc
            .get("kind")
            .and_then(crate::chrome::Json::as_str)
            .and_then(EventKind::from_label)
            .ok_or(format!("line {i}: bad kind"))?;
        let mut fields = Vec::new();
        if let Some(crate::chrome::Json::Obj(map)) = doc.get("fields") {
            for (k, v) in map {
                let v = v.as_f64().ok_or(format!("line {i}: non-numeric field {k}"))?;
                fields.push((k.clone(), v as u64));
            }
        }
        let mut provenances = Vec::new();
        if let Some(arr) = doc.get("provenance").and_then(crate::chrome::Json::as_arr) {
            for p in arr {
                let label = p.as_str().ok_or(format!("line {i}: bad provenance"))?;
                let p = [
                    Provenance::Config,
                    Provenance::RequestVolume,
                    Provenance::WireObservable,
                    Provenance::PublicTiming,
                    Provenance::Derived,
                ]
                .into_iter()
                .find(|p| p.label() == label)
                .ok_or(format!("line {i}: unknown provenance {label}"))?;
                provenances.push(p);
            }
        }
        out.push(EventRecord { seq, t_unix_ns, kind, fields, provenances });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_roundtrip() {
        let r = FlightRecorder::with_capacity(8);
        r.record(
            Event::new(EventKind::EpochStart)
                .with("epoch", Public::wire_observable(7))
                .with("requests", Public::request_volume(12)),
        );
        r.record(Event::new(EventKind::SubReply).with("suboram", Public::wire_observable(1)));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, EventKind::EpochStart);
        assert_eq!(snap[0].field("epoch"), Some(7));
        assert_eq!(snap[0].field("requests"), Some(12));
        assert_eq!(
            snap[0].provenances,
            vec![Provenance::RequestVolume, Provenance::WireObservable]
        );
        assert!(snap[0].seq < snap[1].seq);
        assert!(snap[0].t_unix_ns > 0);
        // Snapshot is non-destructive.
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            r.record(Event::new(EventKind::NetAccept).with("n", Public::wire_observable(i)));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(snap[0].field("n"), Some(6));
        assert_eq!(snap[3].field("n"), Some(9));
    }

    #[test]
    fn jsonl_roundtrip() {
        let r = FlightRecorder::with_capacity(8);
        r.record(
            Event::new(EventKind::EpochDegraded)
                .with("epoch", Public::wire_observable(3))
                .with("failed", Public::wire_observable(1)),
        );
        r.record(Event::new(EventKind::Shutdown));
        let text = to_jsonl(&r.snapshot());
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].kind, EventKind::EpochDegraded);
        assert_eq!(back[0].field("failed"), Some(1));
        assert_eq!(back[1].kind, EventKind::Shutdown);
        assert!(back[1].fields.is_empty());
        assert!(parse_jsonl("not json\n").is_err());
    }

    #[test]
    fn failure_events_auto_dump() {
        let dir = std::env::temp_dir().join(format!("snoopy-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::with_capacity(8);
        r.set_identity("loadbalancer", 0);
        r.set_dump_dir(Some(dir.clone()));
        r.record(Event::new(EventKind::EpochStart).with("epoch", Public::wire_observable(1)));
        r.record(Event::new(EventKind::EpochDegraded).with("epoch", Public::wire_observable(1)));
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 1, "exactly one degraded dump: {files:?}");
        let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("loadbalancer-0.") && name.contains("degraded"), "{name}");
        let back = parse_jsonl(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].kind, EventKind::EpochDegraded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_labels_roundtrip() {
        for k in EventKind::all() {
            assert_eq!(EventKind::from_label(k.label()), Some(k));
        }
        assert_eq!(EventKind::from_label("nope"), None);
    }
}
