//! Shared harness utilities for the experiment binaries.
//!
//! Every binary (`cargo run -p snoopy-bench --release --bin <name>`) prints
//! an aligned table to stdout and writes `results/<name>.csv`;
//! `EXPERIMENTS.md` labels what each one's numbers are worth. Binaries accept
//! `--quick` to shrink the slowest sweeps. End-to-end and per-layer
//! measurements of the real system come from `benchmark/`, not from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Locates (and creates) the workspace-level `results/` directory.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Writes a CSV with a header row.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    println!("\n[csv] wrote {}", path.display());
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// True if `--quick` was passed (shrinks slow sweeps).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Times a closure, returning (result, milliseconds).
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Formats a float with limited precision for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Shared machinery for the simulated-cluster figures (9, 10, 11).
pub mod cluster_sweep {
    use snoopy_netsim::cluster::{ClusterParams, ClusterSim, SubKind};
    use snoopy_netsim::costmodel::CostModel;
    use snoopy_netsim::SimReport;

    /// The best (L, S) split for `machines` total machines under a mean-latency
    /// SLO, mirroring the paper's methodology for Fig. 9a ("measuring
    /// throughput with different system configurations and plotting the
    /// highest throughput configuration").
    pub fn best_throughput(
        machines: usize,
        num_objects: u64,
        slo_ms: f64,
        sub_kind: SubKind,
        model: &CostModel,
        max_lbs: usize,
    ) -> (usize, usize, f64, SimReport) {
        let epoch_ns = (slo_ms * 1e6 * 2.0 / 5.0) as u64;
        let mut best: Option<(usize, usize, f64, SimReport)> = None;
        for l in 1..=max_lbs.min(machines - 1) {
            let s = machines - l;
            let sim = ClusterSim::new(
                ClusterParams {
                    num_lbs: l,
                    num_suborams: s,
                    num_objects,
                    epoch_ns,
                    duration_ns: 24 * epoch_ns,
                    warmup_ns: 6 * epoch_ns,
                    sub_kind,
                },
                model.clone(),
            );
            let (rate, rep) = sim.max_throughput_under_slo(slo_ms, 17);
            if best.as_ref().map(|b| rate > b.2).unwrap_or(true) {
                best = Some((l, s, rate, rep));
            }
        }
        best.expect("at least one configuration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(1.23456), "1.235");
    }

    #[test]
    fn time_ms_returns_result() {
        let (v, ms) = time_ms(|| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
    }
}
