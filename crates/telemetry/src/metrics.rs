//! The exported-metrics plane: named counters, gauges, and histograms with
//! a Prometheus text exposition — every value entering through the
//! [`Public`] leakage gate.
//!
//! A [`MetricsRegistry`] is a set of series keyed by `(name, label)`.
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones;
//! the hot-path operations are single atomics. Because updates only accept
//! [`Public<T>`] witnesses, the registry can answer *why* each exported
//! series is safe: [`MetricsRegistry::audit`] lists the provenances each
//! series has been fed with, and tests assert the whole plane stays inside
//! the allowed set (see `tests/telemetry.rs` at the workspace root).
//!
//! The process-wide registry ([`global`]) is what the deployment planes
//! (in-process cluster, `snoopyd`) and the bench binaries all record into,
//! so `snoopyd metrics`, the in-process cluster's scrapes, and a bench
//! run's dump expose identical series.

use crate::hist::{HistogramSnapshot, LogHistogram};
use crate::public::{Provenance, Public};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Series key: metric name plus an optional single `key="value"` label.
type SeriesKey = (String, Option<(String, String)>);

#[derive(Default)]
struct ProvenanceMask(AtomicU8);

impl ProvenanceMask {
    fn note(&self, p: Provenance) {
        self.0.fetch_or(p.bit(), Ordering::Relaxed);
    }

    fn seen(&self) -> Vec<Provenance> {
        Provenance::from_mask(self.0.load(Ordering::Relaxed))
    }
}

struct CounterCell {
    value: AtomicU64,
    provenance: ProvenanceMask,
}

struct GaugeCell {
    /// f64 bits, stored atomically.
    bits: AtomicU64,
    provenance: ProvenanceMask,
}

struct HistCell {
    hist: LogHistogram,
    provenance: ProvenanceMask,
}

/// A monotone counter handle.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Adds a public quantity.
    pub fn add(&self, v: Public<u64>) {
        self.0.provenance.note(v.provenance());
        self.0.value.fetch_add(v.into_value(), Ordering::Relaxed);
    }

    /// Increments by one; the unit increment inherits the given provenance
    /// witness (e.g. `Public::wire_observable(())` for "one more frame").
    pub fn inc(&self, witness: Public<()>) {
        self.add(witness.carry(1));
    }

    /// Current value (scrape-side).
    pub fn value(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle (last-write-wins float).
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Sets the gauge to a public value.
    pub fn set(&self, v: Public<f64>) {
        self.0.provenance.note(v.provenance());
        self.0.bits.store(v.into_value().to_bits(), Ordering::Relaxed);
    }

    /// Current value (scrape-side).
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }
}

/// A latency-histogram handle. Samples are nanoseconds; the exposition
/// converts to seconds (Prometheus convention).
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Records a public duration.
    pub fn observe(&self, d: Public<std::time::Duration>) {
        self.0.provenance.note(d.provenance());
        self.0.hist.record_duration(d.into_value());
    }

    /// Records a public raw nanosecond sample (simulators).
    pub fn observe_ns(&self, ns: Public<u64>) {
        self.0.provenance.note(ns.provenance());
        self.0.hist.record(ns.into_value());
    }

    /// Snapshot for percentile assertions.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.hist.snapshot()
    }
}

/// One line of [`MetricsRegistry::audit`]: a series and the provenances of
/// every value it has been fed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEntry {
    /// Metric name.
    pub name: String,
    /// Optional `(key, value)` label.
    pub label: Option<(String, String)>,
    /// Series kind: `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Provenances observed on this series (empty until first update).
    pub provenances: Vec<Provenance>,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<SeriesKey, (Arc<CounterCell>, String)>>,
    gauges: Mutex<BTreeMap<SeriesKey, (Arc<GaugeCell>, String)>>,
    hists: Mutex<BTreeMap<SeriesKey, (Arc<HistCell>, String)>>,
}

/// A set of exported series. Cloning shares the underlying registry.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or fetches) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_labeled(name, help, None)
    }

    /// Registers (or fetches) a counter with one `key="value"` label.
    pub fn counter_labeled(&self, name: &str, help: &str, label: Option<(&str, &str)>) -> Counter {
        let key = series_key(name, label);
        let mut map = self.inner.counters.lock().unwrap();
        let (cell, _) = map.entry(key).or_insert_with(|| {
            (
                Arc::new(CounterCell {
                    value: AtomicU64::new(0),
                    provenance: ProvenanceMask::default(),
                }),
                help.to_string(),
            )
        });
        Counter(cell.clone())
    }

    /// Registers (or fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_labeled(name, help, None)
    }

    /// Registers (or fetches) a labeled gauge.
    pub fn gauge_labeled(&self, name: &str, help: &str, label: Option<(&str, &str)>) -> Gauge {
        let key = series_key(name, label);
        let mut map = self.inner.gauges.lock().unwrap();
        let (cell, _) = map.entry(key).or_insert_with(|| {
            (
                Arc::new(GaugeCell {
                    bits: AtomicU64::new(0f64.to_bits()),
                    provenance: ProvenanceMask::default(),
                }),
                help.to_string(),
            )
        });
        Gauge(cell.clone())
    }

    /// Registers (or fetches) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_labeled(name, help, None)
    }

    /// Registers (or fetches) a labeled histogram.
    pub fn histogram_labeled(
        &self,
        name: &str,
        help: &str,
        label: Option<(&str, &str)>,
    ) -> Histogram {
        let key = series_key(name, label);
        let mut map = self.inner.hists.lock().unwrap();
        let (cell, _) = map.entry(key).or_insert_with(|| {
            (
                Arc::new(HistCell {
                    hist: LogHistogram::new(),
                    provenance: ProvenanceMask::default(),
                }),
                help.to_string(),
            )
        });
        Histogram(cell.clone())
    }

    /// Every registered series with the provenances it has been fed — the
    /// dynamic half of the leakage audit.
    pub fn audit(&self) -> Vec<AuditEntry> {
        let mut out = Vec::new();
        for ((name, label), (cell, _)) in self.inner.counters.lock().unwrap().iter() {
            out.push(AuditEntry {
                name: name.clone(),
                label: label.clone(),
                kind: "counter",
                provenances: cell.provenance.seen(),
            });
        }
        for ((name, label), (cell, _)) in self.inner.gauges.lock().unwrap().iter() {
            out.push(AuditEntry {
                name: name.clone(),
                label: label.clone(),
                kind: "gauge",
                provenances: cell.provenance.seen(),
            });
        }
        for ((name, label), (cell, _)) in self.inner.hists.lock().unwrap().iter() {
            out.push(AuditEntry {
                name: name.clone(),
                label: label.clone(),
                kind: "histogram",
                provenances: cell.provenance.seen(),
            });
        }
        out
    }

    /// Renders the whole registry in Prometheus text exposition format.
    /// Histograms emit cumulative buckets in *seconds* (samples are
    /// nanoseconds) at each non-empty bucket boundary plus `+Inf`, so
    /// p50/p99 are derivable by any Prometheus-compatible scraper.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for ((name, label), (cell, help)) in self.inner.counters.lock().unwrap().iter() {
            if *name != last_name {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
                last_name = name.clone();
            }
            out.push_str(&format!(
                "{}{} {}\n",
                name,
                render_label(label),
                cell.value.load(Ordering::Relaxed)
            ));
        }
        last_name.clear();
        for ((name, label), (cell, help)) in self.inner.gauges.lock().unwrap().iter() {
            if *name != last_name {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                last_name = name.clone();
            }
            let v = f64::from_bits(cell.bits.load(Ordering::Relaxed));
            out.push_str(&format!("{}{} {}\n", name, render_label(label), fmt_f64(v)));
        }
        last_name.clear();
        for ((name, label), (cell, help)) in self.inner.hists.lock().unwrap().iter() {
            if *name != last_name {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
                last_name = name.clone();
            }
            let snap = cell.hist.snapshot();
            for (top_ns, cum) in snap.cumulative_buckets() {
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    name,
                    render_label_with(label, "le", &fmt_f64(top_ns as f64 / 1e9)),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                name,
                render_label_with(label, "le", "+Inf"),
                snap.count
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                name,
                render_label(label),
                fmt_f64(snap.sum as f64 / 1e9)
            ));
            out.push_str(&format!("{}_count{} {}\n", name, render_label(label), snap.count));
        }
        out
    }
}

fn series_key(name: &str, label: Option<(&str, &str)>) -> SeriesKey {
    (name.to_string(), label.map(|(k, v)| (k.to_string(), v.to_string())))
}

fn render_label(label: &Option<(String, String)>) -> String {
    match label {
        Some((k, v)) => format!("{{{k}=\"{}\"}}", escape_label(v)),
        None => String::new(),
    }
}

fn render_label_with(label: &Option<(String, String)>, extra_k: &str, extra_v: &str) -> String {
    match label {
        Some((k, v)) => format!("{{{k}=\"{}\",{extra_k}=\"{extra_v}\"}}", escape_label(v)),
        None => format!("{{{extra_k}=\"{extra_v}\"}}"),
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Whether `name` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. External scrapers silently drop series with
/// invalid names, so the registry's tests hold every exported name to this
/// grammar.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name: `[a-zA-Z_][a-zA-Z0-9_]*`
/// (colons are reserved for metric names).
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.9}")
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry all instrumented pipelines record into.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Well-known series names, so the planes and the tests agree.
pub mod names {
    /// Epochs executed by this process's balancer loop(s).
    pub const EPOCHS_TOTAL: &str = "snoopy_epochs_total";
    /// Client requests admitted into epochs.
    pub const REQUESTS_TOTAL: &str = "snoopy_requests_total";
    /// Batch entries sent to subORAMs (real + padding; a public shape).
    pub const BATCH_ENTRIES_TOTAL: &str = "snoopy_batch_entries_total";
    /// Per-stage latency histogram; label `stage` ∈ `lb_make`,
    /// `suboram_scan`, `lb_match`, `checkpoint_seal`, `dial`, `rpc`.
    pub const STAGE_SECONDS: &str = "snoopy_stage_seconds";
    /// Epoch batches re-sent to subORAMs (deadline-miss waves + replays
    /// after reconnects). Wire-observable: each re-send is a frame.
    pub const REPLAYS_TOTAL: &str = "snoopy_replays_total";
    /// Epochs the balancer completed in degraded mode (replay budget spent).
    pub const DEGRADED_EPOCHS_TOTAL: &str = "snoopy_degraded_epochs_total";
    /// Client requests failed with a typed `Unavailable` in degraded epochs.
    pub const UNAVAILABLE_TOTAL: &str = "snoopy_unavailable_total";
    /// Operation retries under a `RetryPolicy` (client roundtrips, dials,
    /// admin RPCs). Each retry re-opens or re-uses a connection — observable.
    pub const RETRIES_TOTAL: &str = "snoopy_retries_total";
    /// Faults injected by a chaos `FaultPlan`; label `kind` ∈ `drop`,
    /// `duplicate`, `delay`, `close`. The plan acts only on public inputs.
    pub const FAULTS_INJECTED_TOTAL: &str = "snoopy_faults_injected_total";
    /// Replayed batches refused because the epoch left the bounded reply
    /// cache (the balancer replaying is observable; the refusal is implicit
    /// wire silence).
    pub const EVICTED_REPLAYS_TOTAL: &str = "snoopy_evicted_replays_total";
    /// SubORAM batches refused with a typed error (e.g. duplicate ids from a
    /// buggy balancer). Each refusal is an explicit NACK frame — observable.
    pub const SUB_BATCH_FAILURES_TOTAL: &str = "snoopy_sub_batch_failures_total";
    /// SubORAM batches refused because their layout-generation stamp did not
    /// match the node's committed generation (mixed-layout fence). The refusal
    /// is an explicit NACK frame — observable.
    pub const STALE_LAYOUT_BATCHES_TOTAL: &str = "snoopy_stale_layout_batches_total";
    /// Client sessions a balancer closed for sending a request id in the
    /// reserved (dummy / filler) namespace — a protocol violation honest
    /// clients never commit. Each close is observable on the wire.
    pub const REFUSED_CLIENT_SESSIONS_TOTAL: &str = "snoopy_refused_client_sessions_total";
    /// Epoch ticks a balancer dropped because they fired while an epoch was
    /// in flight (the next epoch starts at the next tick). Tick cadence and
    /// epoch ends are both on the wire.
    pub const LATE_TICKS_DROPPED_TOTAL: &str = "snoopy_late_ticks_dropped_total";
    /// Bytes the disk storage tier read from segment files. Block I/O is a
    /// function of public geometry (every scan reads every block in order).
    pub const STORE_BYTES_READ_TOTAL: &str = "snoopy_store_bytes_read_total";
    /// Bytes the disk storage tier wrote to segment files (unconditional
    /// re-seal of every block — public geometry, like the read side).
    pub const STORE_BYTES_WRITTEN_TOTAL: &str = "snoopy_store_bytes_written_total";
    /// fsyncs issued by the disk tier (pending segments + directory entries
    /// at commit). One commit per epoch — observable cadence.
    pub const STORE_FSYNCS_TOTAL: &str = "snoopy_store_fsyncs_total";
    /// Scans where the write-behind buffer filled and forced a flush before
    /// the next read-ahead. Depends only on buffer/partition geometry.
    pub const STORE_BUFFER_STALLS_TOTAL: &str = "snoopy_store_buffer_stalls_total";
}

/// The global per-stage histogram for `stage` (cached handles are cheap —
/// this re-registers idempotently).
pub fn stage_histogram(stage: &str) -> Histogram {
    global().histogram_labeled(
        names::STAGE_SECONDS,
        "wall-clock of data-independent epoch stages",
        Some(("stage", stage)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = MetricsRegistry::new();
        let c = r.counter("snoopy_epochs_total", "epochs executed");
        c.add(Public::wire_observable(2));
        c.inc(Public::wire_observable(()));
        assert_eq!(c.value(), 3);
        let g = r.gauge_labeled("snoopy_info", "daemon info", Some(("role", "loadbalancer")));
        g.set(Public::config(1.0));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE snoopy_epochs_total counter"));
        assert!(text.contains("snoopy_epochs_total 3"));
        assert!(text.contains("snoopy_info{role=\"loadbalancer\"} 1"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = MetricsRegistry::new();
        let h =
            r.histogram_labeled("snoopy_stage_seconds", "stage time", Some(("stage", "lb_make")));
        for ms in [1u64, 2, 2, 3] {
            h.observe(Public::timing(std::time::Duration::from_millis(ms)));
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE snoopy_stage_seconds histogram"));
        assert!(text.contains("snoopy_stage_seconds_bucket{stage=\"lb_make\",le=\"+Inf\"} 4"));
        assert!(text.contains("snoopy_stage_seconds_count{stage=\"lb_make\"} 4"));
        // Buckets are cumulative and end at the total count.
        let last_bucket =
            text.lines().rfind(|l| l.starts_with("snoopy_stage_seconds_bucket")).unwrap();
        assert!(last_bucket.ends_with(" 4"));
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert!(snap.p50() >= 1_900_000 && snap.p50() <= 2_200_000, "p50 {}", snap.p50());
    }

    #[test]
    fn audit_lists_provenances() {
        let r = MetricsRegistry::new();
        r.counter("a_total", "a").add(Public::wire_observable(1));
        r.gauge("b", "b").set(Public::config(3.0));
        let audit = r.audit();
        assert_eq!(audit.len(), 2);
        assert_eq!(audit[0].provenances, vec![Provenance::WireObservable]);
        assert_eq!(audit[1].provenances, vec![Provenance::Config]);
        // Same-name re-registration shares the series.
        r.counter("a_total", "a").add(Public::request_volume(1));
        let audit = r.audit();
        assert_eq!(
            audit[0].provenances,
            vec![Provenance::RequestVolume, Provenance::WireObservable]
        );
    }

    #[test]
    fn exported_names_match_prometheus_grammar() {
        // Every well-known constant and every name a populated registry
        // renders must satisfy the scraper's name grammar — an invalid name
        // would be dropped silently by a real Prometheus.
        let r = MetricsRegistry::new();
        r.counter(names::EPOCHS_TOTAL, "e").add(Public::wire_observable(1));
        r.gauge_labeled("snoopy_info", "i", Some(("role", "loadbalancer")))
            .set(Public::config(1.0));
        r.histogram_labeled(names::STAGE_SECONDS, "s", Some(("stage", "lb_make")))
            .observe(Public::timing(std::time::Duration::from_millis(1)));
        for entry in r.audit() {
            assert!(is_valid_metric_name(&entry.name), "bad metric name {:?}", entry.name);
            if let Some((k, _)) = &entry.label {
                assert!(is_valid_label_name(k), "bad label name {k:?}");
            }
        }
        for line in r.render_prometheus().lines() {
            let name = if let Some(rest) =
                line.strip_prefix("# HELP ").or_else(|| line.strip_prefix("# TYPE "))
            {
                rest.split_whitespace().next().unwrap()
            } else {
                line.split(['{', ' ']).next().unwrap()
            };
            assert!(is_valid_metric_name(name), "rendered bad name {name:?} in line {line:?}");
        }
    }

    #[test]
    fn name_grammar_rejects_invalid() {
        assert!(is_valid_metric_name("snoopy_epochs_total"));
        assert!(is_valid_metric_name(":subsystem:ok"));
        assert!(is_valid_metric_name("_hidden"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9starts_with_digit"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name("has space"));
        assert!(is_valid_label_name("stage"));
        assert!(!is_valid_label_name("sta:ge"));
        assert!(!is_valid_label_name("1stage"));
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("snoopy_test_shared_total", "test");
        let before = c.value();
        global().counter("snoopy_test_shared_total", "test").inc(Public::config(()));
        assert_eq!(c.value(), before + 1);
    }
}
