//! The `unsafe` ledger: where the workspace may use `unsafe` code.
//!
//! Every crate under `crates/` forbids `unsafe_code` except `snoopy-crypto`,
//! which denies it and allows it only at the sites listed in [`LEDGER`]: the
//! calls into its AVX2 kernels. Each site must sit under a `// SAFETY:`
//! comment that names the `avx2` feature check that makes the call sound.
//! A new `unsafe` anywhere in the crypto crate, a listed site that loses its
//! comment, or a crate that drops `forbid` fails this test.

mod common;

use common::{crates_dir, rust_files};
use std::fs;

/// Every allowed `unsafe` in `crates/crypto/src`: (file, enclosing fn).
const LEDGER: &[(&str, &str)] = &[("simd.rs", "chacha20_blocks8"), ("simd.rs", "poly1305_blocks4")];

/// Whether `line`, with any `//` comment removed, has `unsafe` as a whole
/// word (so `unsafe_code` does not count).
fn has_unsafe(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, w)| {
        !code[..at].chars().next_back().is_some_and(ident)
            && !code[at + w.len()..].chars().next().is_some_and(ident)
    })
}

/// The name of the last `fn` declared at or above line `at`.
fn enclosing_fn(lines: &[&str], at: usize) -> String {
    lines[..=at]
        .iter()
        .rev()
        .find_map(|l| {
            let code = l.split("//").next().unwrap_or("");
            let rest = &code[code.find("fn ")? + 3..];
            let name: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            (!name.is_empty()).then_some(name)
        })
        .unwrap_or_default()
}

/// The run of `//` comment lines directly above line `at`.
fn comment_above(lines: &[&str], at: usize) -> String {
    let mut out: Vec<&str> = lines[..at]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .copied()
        .collect();
    out.reverse();
    out.join("\n")
}

#[test]
fn every_crate_but_crypto_forbids_unsafe() {
    let mut checked = 0;
    for entry in fs::read_dir(crates_dir()).expect("crates dir") {
        let lib = entry.expect("dir entry").path().join("src/lib.rs");
        let Ok(src) = fs::read_to_string(&lib) else { continue };
        checked += 1;
        if lib.starts_with(crates_dir().join("crypto")) {
            assert!(
                src.contains("#![deny(unsafe_code)]"),
                "{}: must deny unsafe_code",
                lib.display()
            );
        } else {
            assert!(
                src.contains("#![forbid(unsafe_code)]"),
                "{}: must forbid unsafe_code",
                lib.display()
            );
        }
    }
    assert!(checked > 10, "found only {checked} crates");
}

#[test]
fn crypto_unsafe_sites_are_exactly_the_ledger() {
    let src_dir = crates_dir().join("crypto/src");
    let mut found = Vec::new();
    for path in rust_files(&src_dir) {
        let file = path.strip_prefix(&src_dir).expect("under src").display().to_string();
        let text = fs::read_to_string(&path).expect("readable source");
        let lines: Vec<&str> = text.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            if !has_unsafe(line) {
                continue;
            }
            let site = (file.clone(), enclosing_fn(&lines, at));
            let comment = comment_above(&lines, at);
            assert!(
                comment.contains("// SAFETY:") && comment.contains("avx2"),
                "{file}:{}: `unsafe` in `{}` needs a `// SAFETY:` comment naming the avx2 check",
                at + 1,
                site.1
            );
            found.push(site);
        }
    }
    let mut expected: Vec<(String, String)> =
        LEDGER.iter().map(|(f, n)| (f.to_string(), n.to_string())).collect();
    found.sort();
    expected.sort();
    assert_eq!(found, expected, "`unsafe` sites in snoopy-crypto differ from the ledger");
}

#[test]
fn the_scanner_sees_unsafe_and_ignores_lookalikes() {
    assert!(has_unsafe("    unsafe { f() }"));
    assert!(has_unsafe("pub unsafe fn f() {}"));
    assert!(!has_unsafe("#![deny(unsafe_code)]"));
    assert!(!has_unsafe("    // unsafe in a comment"));
    assert!(!has_unsafe("let not_unsafe = 1;"));
    let lines = ["fn outer() {", "    // SAFETY: avx2 checked", "    unsafe { g() }", "}"];
    assert_eq!(enclosing_fn(&lines, 2), "outer");
    assert!(comment_above(&lines, 2).contains("SAFETY"));
}
