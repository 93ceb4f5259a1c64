//! `benchmark` — the repo's benchmark: a real 1×2 `snoopyd` cluster on
//! loopback TCP under open- and closed-loop load, end-to-end numbers from an
//! untraced run and per-layer numbers from a traced one. See
//! `benchmark/README.md`; `benchmark/run.sh` builds and runs it.
//!
//! ```text
//! benchmark --workload scan_mem --seed 1 --seconds 30 --trace 0   # one run, one result line
//! benchmark --all [--seed N] [--out FILE] [--smoke]              # every workload, both runs
//! benchmark --compare A.json B.json                              # exit 1 on any `worse`
//! ```

mod calib;
mod cluster;
mod gen;
mod load;
mod report;
mod stats;
mod walk;
mod workloads;

use calib::Calib;
use cluster::{Cluster, ClusterScrape, Env};
use load::{Driver, Phase};
use report::{Metric, Report, WorkloadReport};
use snoopy_store::TempDir;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workloads::{Workload, END_TO_END, PER_LAYER};

/// Cluster boots per untraced run; `setup_s` is their median.
const BOOTS: usize = 5;
/// Untimed open-loop seconds before the first timed window.
const WARMUP_SECS: u64 = 3;
/// `fetch_stats` round trips timed for `net.admin_rpc_us`.
const ADMIN_RPCS: usize = 20;

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    snoopyd: Option<PathBuf>,
    tmp: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n  \
         benchmark --all [--seed N] [--seconds S] [--smoke] [--out FILE]\n  \
         benchmark --compare A.json B.json\n\
         common: [--snoopyd PATH] [--tmp DIR] [--trace-dir DIR]\n\
         workloads: {}",
        workloads::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        snoopyd: None,
        tmp: None,
        trace_dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = Some(value(&mut i)),
            "--all" => a.all = true,
            "--compare" => a.compare = Some((value(&mut i).into(), value(&mut i).into())),
            "--seed" => a.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--trace" => a.trace = value(&mut i) == "1",
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value(&mut i).into()),
            "--snoopyd" => a.snoopyd = Some(value(&mut i).into()),
            "--tmp" => a.tmp = Some(value(&mut i).into()),
            "--trace-dir" => a.trace_dir = Some(value(&mut i).into()),
            _ => usage(),
        }
        i += 1;
    }
    a
}

/// How one run is sized: the full measurement, or `--smoke`.
struct Sizing {
    seconds: u64,
    boots: usize,
    warmup_secs: u64,
    walk_epochs: usize,
}

impl Sizing {
    /// `seconds` is the cluster time of one run. A smoke run is sized to get
    /// through all six runs in about twenty seconds: 1-second phases, one
    /// boot, no warm-up, three walk epochs.
    fn new(smoke: bool, seconds: Option<u64>, traced: bool) -> Sizing {
        // An untraced run has two phases of whole seconds, a traced one three.
        let phases = if traced { 3 } else { 2 };
        if smoke {
            let seconds = seconds.unwrap_or(phases).max(phases);
            Sizing { seconds, boots: 1, warmup_secs: 0, walk_epochs: 3 }
        } else {
            Sizing {
                seconds: seconds.unwrap_or(30).max(phases),
                boots: BOOTS,
                warmup_secs: WARMUP_SECS,
                walk_epochs: workloads::WALK_EPOCHS,
            }
        }
    }
}

/// Client connections: two, or fewer on a one-core machine — never more
/// than there are cores for the generator to share with three daemons.
fn connections() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run adds to the totals the driver line reports.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Something other than a failed request went wrong (a growing backlog,
    /// spans not covering the epoch): the result is not to be trusted.
    incorrect: Vec<String>,
}

impl Tally {
    fn add(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
    }
}

/// Boots a cluster and connects the generator; set-up ends at the first
/// verified response on every connection. Returns the set-up time.
fn boot_and_connect(
    w: &Workload,
    seed: u64,
    env: &Env,
    tag: &str,
) -> io::Result<(Cluster, Driver, f64)> {
    let cluster = Cluster::boot(w, seed, env, tag)?;
    let mut driver = Driver::connect(&cluster, w, seed, connections())?;
    driver.first_responses()?;
    let setup_s = cluster.spawned_at.elapsed().as_secs_f64();
    Ok((cluster, driver, setup_s))
}

/// The untraced run: end-to-end metrics.
fn run_untraced(
    w: &Workload,
    seed: u64,
    sz: &Sizing,
    env: &Env,
) -> io::Result<(Vec<Metric>, Tally, [Calib; 2])> {
    let calib_start = Calib::measure();
    let mut tally = Tally::default();

    // Set-up, several times over: the last cluster is the one measured.
    let mut setups = Vec::with_capacity(sz.boots);
    let mut boot_rss = Vec::with_capacity(sz.boots);
    let mut booted = None;
    for b in 0..sz.boots {
        drop(booted.take()); // the previous cluster dies before the next boots
        let (cluster, driver, setup_s) =
            boot_and_connect(w, seed, env, &format!("{}-{b}", w.name))?;
        setups.push(setup_s);
        boot_rss.push(cluster.rss_mb());
        tally.attempted += connections() as u64;
        booted = Some((cluster, driver));
    }
    let (cluster, mut driver) = booted.expect("at least one boot");

    let warm = driver.run_open(w.open_rate, sz.warmup_secs);
    tally.add(&warm);

    let open_secs = sz.seconds / 2;
    let open = driver.run_open(w.open_rate, open_secs);
    tally.add(&open);
    if open.backlog_grew {
        tally.incorrect.push(format!(
            "open phase: backlog grew ({:?}); {} req/s is above capacity",
            open.backlog, w.open_rate
        ));
    }

    let closed_secs = sz.seconds - open_secs;
    let mut cpu_at = vec![0.0f64; closed_secs as usize + 1];
    let closed = driver.run_closed(w.window, closed_secs, &mut |k| cpu_at[k] = cluster.cpu_ms());
    tally.add(&closed);
    drop(driver);
    drop(cluster);
    let calib_end = Calib::measure();

    let cpu_per_req: Vec<f64> = closed
        .completions
        .iter()
        .enumerate()
        .filter(|(_, &done)| done > 0.0)
        .map(|(k, &done)| (cpu_at[k + 1] - cpu_at[k]) / done)
        .collect();
    // `ok_frac`: answered correctly and, in the open phase, within the
    // latency limit, out of everything the timed phases sent.
    let timed = open.attempted + closed.attempted;
    let ok = timed - (open.failed + closed.failed) - open.late;
    let ok_frac = if timed > 0 { ok as f64 / timed as f64 } else { 0.0 };

    let slices: [(&str, Vec<f64>); 7] = [
        ("setup_s", setups),
        ("capacity_rps", closed.rate_by_slice()),
        ("open_p50_ms", open.latency_quantile_by_slice(0.50)),
        ("open_p90_ms", open.latency_quantile_by_slice(0.90)),
        ("ok_frac", vec![ok_frac]),
        ("cpu_ms_per_req", cpu_per_req),
        ("rss_boot_mb", boot_rss),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(&slices)
        .map(|(spec, (name, values))| {
            assert_eq!(spec.name, *name, "metrics are reported in the declared order");
            Metric::from_slices(name, spec.unit, values)
        })
        .collect();
    println!(
        "[{}] untraced: open {} req/s x {open_secs}s (late {}, sched lag p99 {:.0} us, backlog at \
         end {}), closed 2x{} x {closed_secs}s; attempted {}, failed {}",
        w.name,
        w.open_rate,
        open.late,
        quantile_or_zero(&stats::sorted(open.sched_lag_us.clone()), 0.99),
        open.backlog_end,
        w.window,
        tally.attempted,
        tally.failed
    );
    Ok((metrics, tally, [calib_start, calib_end]))
}

/// Quantile of ascending samples; 0 when there are none.
fn quantile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::quantile(sorted, q)
    }
}

/// The traced run: the in-process layer walk, then a fresh cluster whose
/// `metrics` RPC is polled each second of a closed phase.
fn run_traced(
    w: &Workload,
    seed: u64,
    sz: &Sizing,
    env: &Env,
    trace_dir: &Path,
) -> io::Result<(Vec<Metric>, Tally, [Calib; 2])> {
    let calib_start = Calib::measure();
    let mut tally = Tally::default();
    let mut rows: Vec<(&'static str, f64)> = Vec::new();

    // Part 1: the layer walk.
    let walk = {
        let dir = TempDir::new(&format!("walk-{}", w.name))?;
        walk::run(w, seed, dir.path(), sz.walk_epochs)?
    };
    std::fs::create_dir_all(trace_dir)?;
    let trace_path = trace_dir.join(format!("trace_{}.json", w.name));
    std::fs::write(&trace_path, snoopy_telemetry::chrome_trace_json(&walk.spans))?;
    println!(
        "[{}] layer walk: {} epochs x {} requests, spans cover {:.1} % of epoch time \
         (unattributed {:.1} %); trace in {}",
        w.name,
        sz.walk_epochs,
        w.walk_requests,
        walk.coverage * 100.0,
        (1.0 - walk.coverage) * 100.0,
        trace_path.display()
    );
    for (name, share) in &walk.shares {
        println!("[{}]   {:<46} {:>5.1} % of epoch", w.name, name, share * 100.0);
    }
    if walk.coverage < 0.90 {
        tally
            .incorrect
            .push(format!("named spans cover only {:.1} % of the epoch", walk.coverage * 100.0));
    }
    let inproc_ms =
        walk.rows.iter().find(|(n, _)| *n == "core.epoch_inproc_ms").map_or(0.0, |r| r.1);
    rows.extend(walk.rows);

    // Part 2: the cluster.
    let (cluster, mut driver, _) = boot_and_connect(w, seed, env, &format!("{}-traced", w.name))?;
    tally.attempted += connections() as u64;
    let mut rpc_us = Vec::with_capacity(ADMIN_RPCS);
    for _ in 0..ADMIN_RPCS {
        let t = Instant::now();
        snoopy_net::fetch_stats(&cluster.lb.addr)?;
        rpc_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    rows.push(("net.admin_rpc_us", stats::median(&rpc_us)));

    let third = sz.seconds / 3;
    let open = driver.run_open(w.open_rate, third);
    tally.add(&open);
    let plain = driver.run_closed(w.window, third, &mut |_| {});
    tally.add(&plain);

    // The observed phase: a second thread polls every daemon once a second.
    let stop = AtomicBool::new(false);
    let (scraped, polls) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| -> io::Result<Vec<ClusterScrape>> {
            let mut polls = vec![cluster.scrape()?];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                if polls.last().expect("first poll").at.elapsed() >= Duration::from_secs(1) {
                    polls.push(cluster.scrape()?);
                }
            }
            polls.push(cluster.scrape()?);
            Ok(polls)
        });
        let phase = driver.run_closed(w.window, sz.seconds - 2 * third, &mut |_| {});
        stop.store(true, Ordering::Relaxed);
        (phase, poller.join().expect("poller thread"))
    });
    let polls = polls?;
    tally.add(&scraped);
    rows.push(("bench.rss_peak_mb", cluster.peak_rss_mb()));
    drop(driver);
    drop(cluster);
    let calib_end = Calib::measure();

    let net = cluster::net_rows(&polls[0], polls.last().expect("two polls"));
    let epoch_wall_ms = net.iter().find(|(n, _)| *n == "net.epoch_wall_ms").map_or(0.0, |r| r.1);
    rows.extend(net);
    rows.push((
        "net.overhead_frac",
        if epoch_wall_ms > 0.0 { 1.0 - inproc_ms / epoch_wall_ms } else { 0.0 },
    ));
    let open_sorted = open.all_latencies_sorted();
    rows.push(("client.open_p99_ms", quantile_or_zero(&open_sorted, 0.99)));
    rows.push(("client.open_max_ms", open_sorted.last().copied().unwrap_or(0.0)));
    let lag_sorted = stats::sorted(open.sched_lag_us.clone());
    rows.push(("client.sched_lag_p99_us", quantile_or_zero(&lag_sorted, 0.99)));
    rows.push(("client.backlog_end", open.backlog_end as f64));
    rows.push(("client.samples", open_sorted.len() as f64));
    rows.extend(Calib::mean(&[calib_start, calib_end]).rows());
    let untraced_rps = stats::median(&plain.rate_by_slice());
    let traced_rps = stats::median(&scraped.rate_by_slice());
    rows.push((
        "bench.trace_overhead_frac",
        if untraced_rps > 0.0 { 1.0 - traced_rps / untraced_rps } else { 0.0 },
    ));

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = rows.iter().find(|(n, _)| n == name).map_or(0.0, |r| r.1);
            Metric::single(name, unit, value)
        })
        .collect();
    println!(
        "[{}] traced: {} polls of 3 daemons over {}s closed; attempted {}, failed {}",
        w.name,
        polls.len(),
        sz.seconds - 2 * third,
        tally.attempted,
        tally.failed
    );
    Ok((metrics, tally, [calib_start, calib_end]))
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        if m.n > 1 {
            println!(
                "[{workload}] {:<34} {:>14.4} {:<6} (median of {}, IQR {:.1} %)",
                m.name,
                m.value,
                m.unit,
                m.n,
                m.iqr_frac * 100.0
            );
        } else {
            println!("[{workload}] {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: Args) -> io::Result<bool> {
    if let Some((a, b)) = &args.compare {
        let load = |p: &Path| -> io::Result<Report> {
            Report::parse(&std::fs::read_to_string(p)?)
                .map_err(|e| io::Error::other(format!("{}: {e}", p.display())))
        };
        let (table, any_worse) = report::compare(&load(a)?, &load(b)?);
        print!("{table}");
        return Ok(!any_worse);
    }

    let exe_dir = std::env::current_exe()?.parent().map(Path::to_path_buf).unwrap_or_default();
    let snoopyd = args.snoopyd.clone().unwrap_or_else(|| exe_dir.join("snoopyd"));
    if !snoopyd.is_file() {
        return Err(io::Error::other(format!(
            "snoopyd not found at {} (build it: cargo build --release -p snoopy-net --bin snoopyd, \
             or pass --snoopyd)",
            snoopyd.display()
        )));
    }
    let tmp_root = args.tmp.clone().unwrap_or_else(|| exe_dir.join("benchmark-tmp"));
    // Everything that asks for "the temp dir" — this run's scratch directory,
    // each cluster's, the in-tree disk tier's — gets a place under ours.
    std::fs::create_dir_all(&tmp_root)?;
    std::env::set_var("TMPDIR", &tmp_root);
    let tmp = TempDir::new("run")?;
    std::env::set_var("TMPDIR", tmp.path());
    let env = Env { snoopyd, tmp: tmp.path().to_path_buf() };
    let trace_dir = args.trace_dir.clone().unwrap_or_else(|| exe_dir.join("benchmark-out"));
    let shape = |w: Workload| if args.smoke { workloads::smoke(w) } else { w };

    let selected: Vec<Workload> = match (&args.workload, args.all) {
        (Some(name), false) => vec![workloads::by_name(name).map(shape).unwrap_or_else(|| usage())],
        (None, true) => workloads::all().into_iter().map(shape).collect(),
        _ => usage(),
    };

    let mut reports: Vec<WorkloadReport> = Vec::new();
    let mut readings: Vec<Calib> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut last_line = None;
    // Every workload untraced first, then the traced runs.
    for traced in [false, true] {
        if !args.all && traced != args.trace {
            continue;
        }
        let sz = Sizing::new(args.smoke, args.seconds, traced);
        for w in &selected {
            println!("[{}] {}", w.name, w.why);
            let (metrics, tally, calibs) = if traced {
                run_traced(w, args.seed, &sz, &env, &trace_dir)?
            } else {
                run_untraced(w, args.seed, &sz, &env)?
            };
            print_metrics(w.name, &metrics);
            let idx = match reports.iter().position(|r| r.name == w.name) {
                Some(i) => i,
                None => {
                    reports.push(WorkloadReport { name: w.name.into(), ..Default::default() });
                    reports.len() - 1
                }
            };
            reports[idx].attempted += tally.attempted;
            reports[idx].failed += tally.failed;
            reports[idx].noisy |= Calib::moved(&calibs[0], &calibs[1]);
            readings.extend(calibs);
            problems.extend(tally.incorrect.iter().map(|p| format!("{}: {p}", w.name)));
            let correct = tally.failed == 0 && tally.incorrect.is_empty();
            last_line = Some(report::driver_line(correct, tally.attempted, tally.failed, &metrics));
            if traced {
                reports[idx].per_layer = metrics;
            } else {
                reports[idx].end_to_end = metrics;
            }
        }
    }

    let calib = Calib::mean(&readings);
    let document = Report {
        commit: git_commit(),
        nproc: nproc(),
        seed: args.seed,
        smoke: args.smoke,
        noisy: reports.iter().any(|r| r.noisy),
        calib: calib
            .rows()
            .iter()
            .map(|(n, v)| {
                let unit = PER_LAYER.iter().find(|(name, _)| name == n).expect("declared").1;
                Metric::single(n, unit, *v)
            })
            .collect(),
        workloads: reports,
    };
    if let Some(path) = &args.out {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, document.to_json())?;
        println!("wrote {}", path.display());
    }
    let failed: u64 = document.workloads.iter().map(|w| w.failed).sum();
    for p in &problems {
        eprintln!("benchmark: {p}");
    }
    if document.noisy {
        eprintln!("benchmark: a calibration row moved >10 % within a run (noisy box)");
    }
    drop(tmp);
    // The driver reads the last line of standard output.
    if !args.all {
        println!("{}", last_line.expect("one run"));
    }
    Ok(failed == 0 && problems.is_empty())
}

fn main() -> ExitCode {
    match run(parse_args()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
