#!/usr/bin/env bash
# Builds `snoopyd` and the benchmark from source, then runs the benchmark.
#
#   benchmark/run.sh [--seed N] [--out FILE] [--smoke]
#       every workload untraced, then every workload traced; prints every
#       metric by name with its unit, verifies responses, writes one JSON.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#       (this is BENCHMARK.json's `command`).
#   benchmark/run.sh --compare A.json B.json
#       exit 1 if any end-to-end metric is `worse` in B.
#
# Everything it writes goes under $CARGO_TARGET_DIR (default: <repo>/target).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

# The daemon is the repo's own binary, built the way a user builds it; the
# benchmark is a package of its own beside it.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p snoopy-net --bin snoopyd
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

tmp=$target/benchmark-tmp/sh-$$
mkdir -p "$tmp"
child=
cleanup() {
    # The benchmark kills its daemons and removes its directories itself,
    # panics included; this covers the benchmark being killed outright.
    [ -n "$child" ] && kill "$child" 2>/dev/null || true
    for pids in "$tmp"/*/pids; do
        [ -f "$pids" ] || continue
        while read -r pid; do
            [ "$(cat "/proc/$pid/comm" 2>/dev/null)" = snoopyd ] && kill -9 "$pid" 2>/dev/null || true
        done <"$pids"
    done
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 143' TERM INT

mode=--all
for arg in "$@"; do
    case $arg in --workload | --compare | --all) mode= ;; esac
done
"$target/release/benchmark" $mode "$@" --tmp "$tmp" &
child=$!
status=0
wait "$child" || status=$?
child=
exit "$status"
