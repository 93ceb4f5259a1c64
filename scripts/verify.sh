#!/usr/bin/env bash
# Tier-1 verification, fully offline: build + the whole test suite, then the
# multi-process TCP cluster test explicitly (real snoopyd processes over
# loopback, kill/restart, byte-compare against the reference engine).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== lints (clippy, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (workspace, offline) =="
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

echo "== multi-process loopback cluster =="
cargo test --offline -p snoopy-net --test cluster -- --nocapture

# Deterministic chaos suite. Every chaos test prints its CHAOS_SEED on
# stderr; to replay a failure, re-run with that seed pinned:
#   CHAOS_SEED=<seed> scripts/verify.sh
echo "== chaos harness (seeded fault injection; CHAOS_SEED=${CHAOS_SEED:-default}) =="
cargo test -q --offline -p snoopy-chaos
cargo test --offline -p snoopy-net --test chaos_net -- --nocapture

# Parallel suite: the same deployed-cluster and chaos tests, re-run with the
# enclave kernels at 4 threads (SNOOPY_THREADS feeds SnoopyConfig::default
# and both TCP integration manifests). Every test byte-compares responses
# against the serial reference engine, so a pass here IS the byte-identity
# check — any trace or result divergence between the serial and parallel
# kernels fails the comparison.
echo "== parallel suite (SNOOPY_THREADS=4; byte-compared against serial) =="
SNOOPY_THREADS=4 cargo test -q --offline -p snoopy-core
SNOOPY_THREADS=4 cargo test -q --offline -p snoopy-chaos
SNOOPY_THREADS=4 cargo test --offline -p snoopy-net --test cluster -- --nocapture
SNOOPY_THREADS=4 cargo test --offline -p snoopy-net --test chaos_net -- --nocapture

# Storage suite: the disk tier end to end. The conformance suite (every
# tier, same responses / same enclave trace / same typed tamper refusals,
# proptested position-deterministic block I/O) runs in the workspace pass
# above; here the core, chaos, and TCP-cluster tests re-run with every
# subORAM partition on AEAD-sealed segment files (SNOOPY_STORAGE feeds
# SnoopyConfig::default and both TCP integration manifests), still
# byte-compared against the memory-pinned reference engine — plus the
# always-on disk_store test: a disk-backed cluster surviving kill -9
# mid-epoch by reopening the committed on-disk generation named by its
# sealed checkpoint. Tests create their stores under $TMPDIR and remove
# them on exit.
echo "== storage suite (SNOOPY_STORAGE=disk; byte-compared against memory) =="
SNOOPY_STORAGE=disk cargo test -q --offline -p snoopy-core
SNOOPY_STORAGE=disk cargo test -q --offline -p snoopy-chaos
SNOOPY_STORAGE=disk cargo test --offline -p snoopy-net --test cluster -- --nocapture
SNOOPY_STORAGE=disk cargo test --offline -p snoopy-net --test chaos_net -- --nocapture
cargo test --offline -p snoopy-net --test disk_store -- --nocapture

# Multi-balancer suite: k balancers × m subORAMs as real processes. Boots a
# 2×3 TCP cluster, SIGKILLs one balancer mid-epoch (never restarted) and
# requires the SnoopyClient multi-endpoint transport to fail over with zero
# lost acknowledged writes while the survivor keeps sealing composite
# epochs; then races conflicting writes through two balancers at once and
# checks the combined wire history with the real-time (Wing–Gong)
# linearizability checker.
echo "== multi-balancer cluster (balancer kill + cross-balancer linearizability) =="
cargo test --offline -p snoopy-net --test multi_lb -- --nocapture

# Reshard suite: live elastic reconfiguration on real TCP clusters with the
# disk tier under every partition. Grows 4→8 through the `snoopyd reshard`
# CLI (post-reshard responses byte-compared against a fresh cluster built at
# S=8, then the whole cluster is SIGKILLed and rebooted from
# generation-stamped checkpoints), shrinks 8→4, SIGKILLs a subORAM
# mid-migration and requires a clean rollback to the old layout with zero
# lost acknowledged writes, and SIGKILLs a balancer at the flip to exercise
# probe-driven roll-forward. The chaos half reruns a grow and a shrink on
# the channel plane under a lossy (drop/duplicate/delay) fault plan.
echo "== reshard suite (SNOOPY_STORAGE=disk; live grow/shrink + mid-migration kills) =="
SNOOPY_STORAGE=disk cargo test --offline -p snoopy-net --test reshard -- --nocapture
SNOOPY_STORAGE=disk cargo test --offline -p snoopy-chaos --test reshard_chaos -- --nocapture

# Observability suite: the cluster-wide telemetry plane end to end. Boots a
# real 4-process TCP cluster, merges every daemon's span rings into one
# validated Chrome trace via `snoopy-mon trace`, SIGKILLs a subORAM, and
# checks the SLO gate (`snoopy-mon --watch`: burn time series + pass/fail
# exit code) plus flight-recorder attribution — the balancer's event ring
# and its degraded-epoch auto-dumps must name exactly the killed subORAM.
# The chaos half re-runs the attribution + provenance audit in-process.
echo "== observability (merged trace, snoopy-mon SLO gate, flight recorder) =="
cargo test --offline -p snoopy-net --test observability -- --nocapture
cargo test --offline -p snoopy-chaos --test flight_recorder -- --nocapture

# Benchmark suite: the standalone benchmark package builds against the
# workspace's public APIs, so an API change that breaks it fails here. Its
# unit tests run, then a smoke run boots a real cluster per workload.
echo "== benchmark (package tests + smoke run) =="
cargo test --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "verify: OK"
