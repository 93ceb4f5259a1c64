//! The knob ledger: which environment variables the library code reads.
//!
//! An environment variable is a setting nobody sees in a manifest or on a
//! command line, so each one has to earn its place. Every
//! `std::env::var`/`var_os` call under `crates/*/src` must read a variable
//! named in [`LEDGER`], with a string literal, and every variable in the
//! ledger must still be read somewhere. An unlisted read, a read whose name
//! is not a literal, or a stale entry fails this test.

mod common;

use common::{crates_dir, rust_files};
use std::fs;

/// Every environment variable the library code may read, with its reason.
const LEDGER: &[(&str, &str)] = &[
    ("CHAOS_SEED", "pins the chaos suites' seed, so a failure replays under the seed it printed"),
    ("SNOOPY_FLIGHT_DIR", "where the flight recorder writes its dumps (degraded epochs, shutdown)"),
];

/// The environment reads in `src` (comments removed): each one's 1-based
/// line and the variable it names, `None` when the name is not a literal.
fn env_reads(src: &str) -> Vec<(usize, Option<String>)> {
    let code: String =
        src.lines().map(|l| l.split("//").next().unwrap_or("")).collect::<Vec<_>>().join("\n");
    let mut out = Vec::new();
    for (at, _) in code.match_indices("env::var") {
        let rest = &code[at + "env::var".len()..];
        let Some(args) = ["(", "_os(", "s(", "s_os("].iter().find_map(|c| rest.strip_prefix(c))
        else {
            continue;
        };
        let name = args
            .trim_start()
            .strip_prefix('"')
            .and_then(|s| s.split_once('"'))
            .map(|(name, _)| name.to_string());
        out.push((code[..at].matches('\n').count() + 1, name));
    }
    out
}

#[test]
fn env_reads_are_exactly_the_ledger() {
    let mut unlisted = Vec::new();
    let mut read: Vec<String> = Vec::new();
    for entry in fs::read_dir(crates_dir()).expect("crates dir") {
        let src_dir = entry.expect("dir entry").path().join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for path in rust_files(&src_dir) {
            let text = fs::read_to_string(&path).expect("readable source");
            for (line, name) in env_reads(&text) {
                match name {
                    Some(n) if LEDGER.iter().any(|(v, _)| *v == n) => read.push(n),
                    other => unlisted.push(format!("{}:{line}: {other:?}", path.display())),
                }
            }
        }
    }
    assert!(unlisted.is_empty(), "environment reads missing from the knob ledger: {unlisted:#?}");
    let stale: Vec<&str> =
        LEDGER.iter().map(|(v, _)| *v).filter(|v| !read.iter().any(|r| r == v)).collect();
    assert!(stale.is_empty(), "ledger entries nothing reads any more: {stale:?}");
}

#[test]
fn the_scanner_sees_env_reads_and_ignores_lookalikes() {
    let src = "let a = std::env::var(\"A\");\n\
               // std::env::var(\"COMMENTED\")\n\
               let b = env::var_os(\n    \"B\",\n);\n\
               let c = std::env::var(name);\n\
               let d = env!(\"CARGO_MANIFEST_DIR\");\n\
               let e = std::env::vars();";
    let got = env_reads(src);
    assert_eq!(
        got,
        vec![(1, Some("A".into())), (3, Some("B".into())), (6, None), (8, None)],
        "{got:?}"
    );
}
