//! Trace regions are named, never numbered.
//!
//! Every `TraceEvent::Touch` names its array by a `snoopy_obliv::trace::Region`
//! variant; the numbers behind the variants (the encoding pinned trace
//! fingerprints hash) live in `crates/obliv/src/trace.rs` alone. A
//! `region:` field written with anything but `Region::…` anywhere else in
//! the workspace's Rust sources fails this test.

mod common;

use common::{crates_dir, rust_files};
use std::fs;
use std::path::Path;

/// The 1-based lines of `src` (comments removed) whose `region:` field is
/// not a `Region::` path.
fn region_literals(src: &str) -> Vec<usize> {
    let code: String =
        src.lines().map(|l| l.split("//").next().unwrap_or("")).collect::<Vec<_>>().join("\n");
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("region:")
        .filter(|&(at, w)| {
            let value = code[at + w.len()..].trim_start();
            !code[..at].chars().next_back().is_some_and(ident)
                && !value.starts_with("Region::")
                && !value.starts_with(':')
        })
        .map(|(at, _)| code[..at].matches('\n').count() + 1)
        .collect()
}

#[test]
fn touch_regions_are_named_outside_trace_rs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(crates_dir()).expect("crates dir") {
        let krate = entry.expect("dir entry").path();
        for sub in ["src", "tests", "benches", "examples"] {
            if krate.join(sub).is_dir() {
                files.extend(rust_files(&krate.join(sub)));
            }
        }
    }
    for sub in ["src", "tests", "examples", "benchmark/src"] {
        files.extend(rust_files(&root.join(sub)));
    }
    let this = root.join(file!());
    let mut found = Vec::new();
    for path in files {
        if path.ends_with("crates/obliv/src/trace.rs") || path == this {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable source");
        found.extend(region_literals(&text).into_iter().map(|l| format!("{}:{l}", path.display())));
    }
    assert!(found.is_empty(), "trace regions written as literals, not `Region::`: {found:#?}");
}

#[test]
fn the_scanner_sees_literals_and_ignores_named_regions() {
    let src = "record(TraceEvent::Touch { region: 0x4f, index: i });\n\
               record(TraceEvent::Touch { region: Region::Table, index: i });\n\
               // TraceEvent::Touch { region: 0x50, index: 0 }\n\
               TraceEvent::Touch { region, index } => {}\n\
               let subregion: u32 = 7;\n\
               Touch {\n    region:\n        79,\n";
    assert_eq!(region_literals(src), vec![1, 7]);
}
