//! The closure ledger: which workspace crates `snoopyd` links.
//!
//! The daemon's dependency closure is the system a deployment runs, so a
//! crate enters it only for a reason. This test reads `[dependencies]` from
//! every `crates/*/Cargo.toml`, walks `snoopy-net`'s path-dependency closure
//! (dev-dependencies do not ship), and requires it to be exactly [`LEDGER`].
//! A crate the daemon starts linking fails the test, by name, until it is
//! listed with its reason; a listed crate it no longer links fails it as
//! stale.

// This ledger reads manifests, not sources: `common::rust_files` goes unused.
#[allow(dead_code)]
mod common;

use common::crates_dir;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;

/// The crate that builds `snoopyd`.
const ROOT: &str = "snoopy-net";

/// Every workspace crate `snoopy-net` may link, with its reason.
const LEDGER: &[(&str, &str)] = &[
    ("snoopy-core", "the epoch engine, sealed links and retry policy both daemons run"),
    ("snoopy-crypto", "AEAD, key derivation and the PRG behind every link and checkpoint"),
    ("snoopy-enclave", "the request, object and response types on the wire"),
    ("snoopy-lb", "the balancer's deduplication, batching and response matching"),
    ("snoopy-suboram", "the subORAM's batch access: hash table build and linear scan"),
    ("snoopy-store", "the storage tiers: the disk tier's sealed segments and commits"),
    ("snoopy-telemetry", "the metrics, spans and flight recorder the daemons export"),
    ("snoopy-obliv", "oblivious sort, compaction and constant-time selection"),
    ("snoopy-binning", "the batch size f(R, S) every balancer pads to"),
    ("snoopy-ohash", "the subORAM's two-tier oblivious hash table"),
];

/// The `[package]` name and the `[dependencies]` names of a `Cargo.toml`.
fn manifest_deps(toml: &str) -> (Option<String>, Vec<String>) {
    let mut section = String::new();
    let mut name = None;
    let mut deps = Vec::new();
    for line in toml.lines().map(|l| l.split('#').next().unwrap_or("").trim()) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        match section.as_str() {
            "package" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            "dependencies" => deps.push(key.split('.').next().unwrap_or(key).trim().to_string()),
            _ => {}
        }
    }
    (name, deps)
}

#[test]
fn snoopy_net_links_exactly_the_ledger() {
    let mut graph: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for entry in fs::read_dir(crates_dir()).expect("crates dir") {
        let toml = entry.expect("dir entry").path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&toml) else { continue };
        let (name, deps) = manifest_deps(&text);
        let name = name.unwrap_or_else(|| panic!("{}: no package name", toml.display()));
        graph.insert(name, deps);
    }
    assert!(graph.contains_key(ROOT), "no {ROOT} under {}", crates_dir().display());

    let mut closure = BTreeSet::new();
    let mut todo = vec![ROOT.to_string()];
    while let Some(krate) = todo.pop() {
        for dep in &graph[&krate] {
            if graph.contains_key(dep) && closure.insert(dep.clone()) {
                todo.push(dep.clone());
            }
        }
    }

    let unlisted: Vec<&String> =
        closure.iter().filter(|c| !LEDGER.iter().any(|(l, _)| l == c)).collect();
    assert!(
        unlisted.is_empty(),
        "{ROOT} links crates missing from the closure ledger: {unlisted:?}"
    );
    let stale: Vec<&str> =
        LEDGER.iter().map(|(l, _)| *l).filter(|l| !closure.contains(*l)).collect();
    assert!(stale.is_empty(), "ledger entries {ROOT} no longer links: {stale:?}");
}

#[test]
fn the_parser_reads_only_normal_dependencies() {
    let toml = "[package]\n\
                name = \"a\"\n\
                [dependencies]\n\
                b.workspace = true\n\
                c = { path = \"../c\" } # why\n\
                [dev-dependencies]\n\
                d.workspace = true\n\
                [[bin]]\n\
                name = \"e\"\n";
    assert_eq!(manifest_deps(toml), (Some("a".into()), vec!["b".into(), "c".into()]));
}
