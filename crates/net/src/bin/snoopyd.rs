//! `snoopyd` — one machine of a Snoopy TCP cluster.
//!
//! ```text
//! snoopyd --role loadbalancer --index 0 --manifest cluster.toml
//! snoopyd --role suboram      --index 1 --manifest cluster.toml \
//!         --checkpoint /var/lib/snoopy/sub1.ckpt
//! snoopyd stats    --addr 127.0.0.1:7000
//! snoopyd metrics  --addr 127.0.0.1:7000
//! snoopyd health   --addr 127.0.0.1:7000
//! snoopyd shutdown --addr 127.0.0.1:7000
//! snoopyd reshard  --manifest cluster.toml --new-s 8
//! ```
//!
//! Every daemon in a cluster reads the same manifest; `--role`/`--index`
//! pick its line. The daemon runs until `snoopyd shutdown` (or a signal).
//! `stats` prints the plaintext per-link counters; `metrics` prints the
//! daemon's Prometheus text exposition (stage latency histograms, epoch
//! counters, link counters) — pipe it into a node_exporter-style textfile
//! collector or scrape it from a cron job.
//!
//! `reshard` drives a live epoch-boundary fleet reconfiguration (see
//! [`snoopy_net::reshard`]): `--new-s N` moves the cluster to `N` active
//! subORAMs (any value up to the manifest's provisioned list).

use snoopy_net::manifest::Manifest;
use snoopy_net::stats::StatsRegistry;
use snoopy_net::{fetch_health, fetch_metrics, fetch_stats, shutdown_daemon};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         snoopyd --role loadbalancer|suboram --index N --manifest PATH [--checkpoint PATH]\n  \
         snoopyd stats --addr HOST:PORT\n  \
         snoopyd metrics --addr HOST:PORT\n  \
         snoopyd health --addr HOST:PORT\n  \
         snoopyd shutdown --addr HOST:PORT\n  \
         snoopyd reshard --manifest PATH --new-s N [--ttl-ms N]"
    );
    exit(2);
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") => {
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            match fetch_stats(&addr) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("snoopyd stats: {e}");
                    exit(1);
                }
            }
        }
        Some("metrics") => {
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            match fetch_metrics(&addr) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("snoopyd metrics: {e}");
                    exit(1);
                }
            }
        }
        Some("health") => {
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            match fetch_health(&addr) {
                Ok(header) => println!("{}", header.render()),
                Err(e) => {
                    eprintln!("snoopyd health: {e}");
                    exit(1);
                }
            }
        }
        Some("shutdown") => {
            let addr = flag_value(&args, "--addr").unwrap_or_else(|| usage());
            if let Err(e) = shutdown_daemon(&addr) {
                eprintln!("snoopyd shutdown: {e}");
                exit(1);
            }
        }
        Some("reshard") => run_reshard(&args),
        Some(_) => run_daemon(&args),
        None => usage(),
    }
}

/// `snoopyd reshard`: drive a live fleet reconfiguration from the CLI.
fn run_reshard(args: &[String]) {
    let manifest_path = PathBuf::from(flag_value(args, "--manifest").unwrap_or_else(|| usage()));
    let manifest = match Manifest::load(&manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("snoopyd reshard: {e}");
            exit(1);
        }
    };
    let new_s = flag_value(args, "--new-s").unwrap_or_else(|| usage());
    let new_s: usize = new_s.parse().unwrap_or_else(|_| {
        eprintln!("snoopyd reshard: bad value for --new-s: {new_s}");
        exit(2)
    });
    let mut opts = snoopy_net::ReshardOptions::default();
    if let Some(ms) = flag_value(args, "--ttl-ms") {
        let ms: u64 = ms.parse().unwrap_or_else(|_| {
            eprintln!("snoopyd reshard: bad value for --ttl-ms: {ms}");
            exit(2)
        });
        opts.ttl = std::time::Duration::from_millis(ms.max(1));
    }
    match snoopy_net::reshard_cluster(&manifest, new_s, opts) {
        Ok(report) => {
            println!(
                "resharded: generation {} moved {} objects from {} to {} subORAMs \
                 ({} sealed batches per node per direction)",
                report.generation,
                report.objects_moved,
                report.old_s,
                report.new_s,
                snoopy_net::reshard::migration_batches(manifest.num_objects)
            );
        }
        Err(e) => {
            eprintln!("snoopyd reshard: {e}");
            exit(1);
        }
    }
}

fn run_daemon(args: &[String]) {
    snoopy_net::fail_stop::install();
    let role = flag_value(args, "--role").unwrap_or_else(|| usage());
    let index: usize =
        flag_value(args, "--index").unwrap_or_else(|| usage()).parse().unwrap_or_else(|_| usage());
    let manifest_path = PathBuf::from(flag_value(args, "--manifest").unwrap_or_else(|| usage()));
    let checkpoint = flag_value(args, "--checkpoint").map(PathBuf::from);

    let manifest = match Manifest::load(&manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("snoopyd: {e}");
            exit(1);
        }
    };
    let registry = StatsRegistry::new();
    let result = match role.as_str() {
        "loadbalancer" => {
            if checkpoint.is_some() {
                eprintln!("snoopyd: --checkpoint only applies to --role suboram");
                exit(2);
            }
            snoopy_net::lb_daemon::run(&manifest, index, &registry)
        }
        "suboram" => snoopy_net::suboram_daemon::run(&manifest, index, checkpoint, &registry),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("snoopyd ({role} {index}): {e}");
        exit(1);
    }
    // The epoch loop returned: graceful shutdown. Remaining service threads
    // (listeners, dialers) are blocked in I/O; the process exit reaps them.
    exit(0);
}
