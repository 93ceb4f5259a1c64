#!/usr/bin/env bash
# Full verification, fully offline: format, lints, the release build, the
# whole test suite, the deep property suite, and the standalone benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== lints (clippy, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== build (release, offline) =="
cargo build --release --offline --workspace

# The workspace pass holds every suite: the multi-process TCP clusters (real
# snoopyd processes over loopback, kill/restart, byte-compare against the
# reference engine), the chaos, disk-store, multi-balancer, reshard and
# observability suites. Each deployment suite runs its scenarios once per
# cell of the tier × threads matrix (snoopy_chaos::harness::CELLS: memory
# at 1 and 4 enclave threads, disk at 1), every cell byte-compared against
# the serial memory-tier reference engine. Every chaos test prints its
# CHAOS_SEED on stderr; to replay a failure, re-run with that seed pinned:
#   CHAOS_SEED=<seed> scripts/verify.sh
echo "== tests (workspace, offline; CHAOS_SEED=${CHAOS_SEED:-default}) =="
cargo test -q --offline --workspace

# Deep property suite: the library property tests that use the default case
# count (oblivious primitives, the hash table's kernel oracle, the balancer
# against its plain model, binning, Poly1305 / the AEAD against their
# oracles, and the net plane's frame assembler against random splits and
# hostile lengths) re-run at 16× the default.
# Suites that pin their own count keep it.
echo "== property tests, deep (PROPTEST_CASES=1024) =="
PROPTEST_CASES=1024 cargo test -q --offline --release \
    -p snoopy-obliv -p snoopy-ohash -p snoopy-lb -p snoopy-binning -p snoopy-crypto -p snoopy-net \
    -p proptest --lib

# Benchmark suite: the standalone benchmark package builds against the
# workspace's public APIs, so an API change that breaks it fails here. Its
# unit tests run, then a smoke run boots a real cluster per workload.
echo "== benchmark (package tests + smoke run) =="
cargo test --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "verify: OK"
