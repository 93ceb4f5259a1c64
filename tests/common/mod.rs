//! Source-tree helpers shared by the ledger tests, which read the
//! workspace's own `.rs` files.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace's `crates/` directory.
pub fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")
}

/// `.rs` files under `dir`, recursively, sorted.
pub fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}
