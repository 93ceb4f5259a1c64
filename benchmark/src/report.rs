//! The result document (`schema`'d JSON, one per run of the benchmark), the
//! one-line result the driver reads, and `--compare`.

use crate::workloads::{Better, EndToEnd, END_TO_END};
use snoopy_telemetry::chrome::Json;
use std::fmt::Write as _;

/// Version tag of the result document.
pub const SCHEMA: &str = "snoopy-benchmark/1";

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value: a median over slices where the metric has slices.
    pub value: f64,
    /// Inter-quartile range of the slices as a share of their median (0 for
    /// a metric measured once).
    pub iqr_frac: f64,
    /// How many slices (or repetitions) the value is the median of.
    pub n: usize,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: &str, unit: &str, value: f64) -> Metric {
        Metric { name: name.into(), unit: unit.into(), value, iqr_frac: 0.0, n: 1 }
    }

    /// A metric that is the median of `slices`.
    pub fn from_slices(name: &str, unit: &str, slices: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: if slices.is_empty() { 0.0 } else { crate::stats::median(slices) },
            iqr_frac: crate::stats::iqr_frac(slices),
            n: slices.len(),
        }
    }
}

/// One workload's results. A run fills `end_to_end` (untraced), `per_layer`
/// (traced), or both.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Requests sent, over every phase of every run of this workload.
    pub attempted: u64,
    /// Requests that were refused, wrong, or never answered.
    pub failed: u64,
    /// A calibration row moved by more than a tenth during a run.
    pub noisy: bool,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
}

/// The whole document.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Git commit of the checkout, or `unknown` outside a repository.
    pub commit: String,
    /// Cores available to the run.
    pub nproc: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--smoke` run: a harness check, not a measurement.
    pub smoke: bool,
    /// Any workload was noisy.
    pub noisy: bool,
    /// The calibration row (mean of all readings).
    pub calib: Vec<Metric>,
    /// Per-workload results.
    pub workloads: Vec<WorkloadReport>,
}

fn num(v: f64) -> String {
    // JSON has no NaN or infinity; a metric that could not be computed is 0.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_object(out: &mut String, metrics: &[Metric], with_spread: bool) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ =
            write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"", m.name, num(m.value), m.unit);
        if with_spread {
            let _ = write!(out, ", \"iqr_frac\": {}, \"n\": {}", num(m.iqr_frac), m.n);
        }
        out.push('}');
    }
    out.push('}');
}

/// The driver's one-line result: `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": "
    );
    metrics_object(&mut out, metrics, false);
    out.push('}');
    out
}

impl Report {
    /// Renders the document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"commit\": \"{}\",\n  \"nproc\": {},\n  \
             \"seed\": {},\n  \"smoke\": {},\n  \"noisy\": {},\n  \"calib\": ",
            self.commit, self.nproc, self.seed, self.smoke, self.noisy
        );
        metrics_object(&mut out, &self.calib, false);
        out.push_str(",\n  \"workloads\": {");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\n      \"attempted\": {}, \"failed\": {}, \"noisy\": {},\n      \
                 \"end_to_end\": ",
                w.name, w.attempted, w.failed, w.noisy
            );
            metrics_object(&mut out, &w.end_to_end, true);
            out.push_str(",\n      \"per_layer\": ");
            metrics_object(&mut out, &w.per_layer, false);
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a document written by [`Report::to_json`].
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing `schema`")?;
        if schema != SCHEMA {
            return Err(format!("schema `{schema}`, expected `{SCHEMA}`"));
        }
        let obj = |j: &Json, key: &str| -> Result<Vec<(String, Json)>, String> {
            match j.get(key) {
                Some(Json::Obj(m)) => Ok(m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
                _ => Err(format!("missing object `{key}`")),
            }
        };
        let f = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64);
        let flag = |j: &Json, key: &str| matches!(j.get(key), Some(Json::Bool(true)));
        let metrics = |j: &Json, key: &str| -> Result<Vec<Metric>, String> {
            obj(j, key)?
                .into_iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        value: f(&m, "value").ok_or(format!("`{name}` has no value"))?,
                        unit: m.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                        iqr_frac: f(&m, "iqr_frac").unwrap_or(0.0),
                        n: f(&m, "n").unwrap_or(1.0) as usize,
                        name,
                    })
                })
                .collect()
        };
        let mut workloads = Vec::new();
        for (name, w) in obj(&doc, "workloads")? {
            workloads.push(WorkloadReport {
                name,
                attempted: f(&w, "attempted").unwrap_or(0.0) as u64,
                failed: f(&w, "failed").unwrap_or(0.0) as u64,
                noisy: flag(&w, "noisy"),
                end_to_end: metrics(&w, "end_to_end")?,
                per_layer: metrics(&w, "per_layer")?,
            });
        }
        Ok(Report {
            commit: doc.get("commit").and_then(Json::as_str).unwrap_or("unknown").to_string(),
            nproc: f(&doc, "nproc").unwrap_or(0.0) as usize,
            seed: f(&doc, "seed").unwrap_or(0.0) as u64,
            smoke: flag(&doc, "smoke"),
            noisy: flag(&doc, "noisy"),
            calib: metrics(&doc, "calib")?,
            workloads,
        })
    }
}

/// `--compare`'s judgement of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// The slices of A or B spread wider than the bound: the runs cannot
    /// resolve a change of that size, so none is claimed or denied.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against base A under `spec`'s direction and bound.
pub fn verdict(spec: &EndToEnd, a: &Metric, b: &Metric) -> Verdict {
    if a.iqr_frac > spec.bound || b.iqr_frac > spec.bound {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        return if b.value == 0.0 { Verdict::Same } else { Verdict::Unresolved };
    }
    let change = (b.value - a.value) / a.value.abs();
    let worse_by = match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares B against base A: one row per workload × end-to-end metric.
/// Returns the table and whether any row is `worse`.
pub fn compare(a: &Report, b: &Report) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "compare: A = {} (seed {}), B = {} (seed {}); ratio is B / A, base A",
        a.commit, a.seed, b.commit, b.seed
    );
    if a.noisy || b.noisy {
        let _ = writeln!(out, "note: a calibration row moved >10 % during A or B (noisy)");
    }
    let _ = writeln!(
        out,
        "{:<10} {:<15} {:>12} {:>12} {:>7} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "ratio", "unit", "iqr_A", "bound"
    );
    let mut any_worse = false;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else { continue };
        for spec in &END_TO_END {
            let find =
                |w: &WorkloadReport| w.end_to_end.iter().find(|m| m.name == spec.name).cloned();
            let (Some(ma), Some(mb)) = (find(wa), find(wb)) else { continue };
            let v = verdict(spec, &ma, &mb);
            any_worse |= v == Verdict::Worse;
            let ratio = if ma.value != 0.0 { mb.value / ma.value } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<10} {:<15} {:>12.4} {:>12.4} {:>7.3} {:>8} {:>7.3} {:>7.3}  {}",
                wa.name,
                spec.name,
                ma.value,
                mb.value,
                ratio,
                spec.unit,
                ma.iqr_frac.max(mb.iqr_frac),
                spec.bound,
                v.as_str()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, iqr: f64) -> Metric {
        Metric { name: "x".into(), unit: "u".into(), value, iqr_frac: iqr, n: 15 }
    }

    fn spec(better: Better, bound: f64) -> EndToEnd {
        EndToEnd { name: "x", unit: "u", better, bound }
    }

    #[test]
    fn compare_bounds_respect_direction() {
        let lower = spec(Better::Lower, 0.10);
        assert_eq!(verdict(&lower, &m(100.0, 0.02), &m(105.0, 0.02)), Verdict::Same);
        assert_eq!(verdict(&lower, &m(100.0, 0.02), &m(111.0, 0.02)), Verdict::Worse);
        assert_eq!(verdict(&lower, &m(100.0, 0.02), &m(89.0, 0.02)), Verdict::Better);
        let higher = spec(Better::Higher, 0.10);
        assert_eq!(verdict(&higher, &m(5000.0, 0.02), &m(4400.0, 0.02)), Verdict::Worse);
        assert_eq!(verdict(&higher, &m(5000.0, 0.02), &m(5600.0, 0.02)), Verdict::Better);
        assert_eq!(verdict(&higher, &m(5000.0, 0.02), &m(4600.0, 0.02)), Verdict::Same);
        // Exactly on the bound is still within it.
        assert_eq!(verdict(&lower, &m(100.0, 0.0), &m(110.0, 0.0)), Verdict::Same);
    }

    #[test]
    fn wide_slices_are_unresolved_not_same() {
        let lower = spec(Better::Lower, 0.10);
        assert_eq!(verdict(&lower, &m(100.0, 0.15), &m(100.0, 0.01)), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &m(100.0, 0.01), &m(150.0, 0.12)), Verdict::Unresolved);
        // ok_frac: a half-percent bound on a value near 1.
        let ok = spec(Better::Higher, 0.005);
        assert_eq!(verdict(&ok, &m(1.0, 0.0), &m(0.996, 0.0)), Verdict::Same);
        assert_eq!(verdict(&ok, &m(1.0, 0.0), &m(0.99, 0.0)), Verdict::Worse);
    }

    fn sample_report(capacity: f64) -> Report {
        Report {
            commit: "abc123".into(),
            nproc: 2,
            seed: 1,
            smoke: false,
            noisy: false,
            calib: vec![Metric::single("calib.spin_ns", "ns", 0.9)],
            workloads: vec![WorkloadReport {
                name: "scan_mem".into(),
                attempted: 1000,
                failed: 0,
                noisy: false,
                end_to_end: vec![
                    Metric::from_slices(
                        "capacity_rps",
                        "1/s",
                        &[capacity, capacity * 1.01, capacity * 0.99],
                    ),
                    Metric::single("rss_peak_mb", "MB", 40.5),
                ],
                per_layer: vec![Metric::single("binning.dummy_frac", "frac", 0.431)],
            }],
        }
    }

    #[test]
    fn document_round_trips_and_compare_flags_a_regression() {
        let a = sample_report(5000.0);
        let back = Report::parse(&a.to_json()).expect("parses");
        assert_eq!(back, a);
        assert!(Report::parse("{\"schema\": \"other/9\"}").is_err());

        let (table, worse) = compare(&a, &sample_report(5100.0));
        assert!(!worse, "{table}");
        assert!(table.contains("capacity_rps") && table.contains("same"));
        let (table, worse) = compare(&a, &sample_report(3000.0));
        assert!(worse, "{table}");
        assert!(table.contains("worse"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(true, 1000, 0, &[Metric::single("setup_s", "s", 0.8127)]);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(map) = &doc else { panic!("object") };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.8127)
        );
    }
}
