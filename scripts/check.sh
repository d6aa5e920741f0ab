#!/usr/bin/env bash
# The full offline gate: build, test, clippy, doc, compare. Zero
# network access, zero external crates, no flags and no environment
# variables of its own. Two questions, one home each:
#   "is it the same bytes"  -> the test stage (tests/determinism.rs pins
#                              every fingerprint, digest and golden hash;
#                              tests/doc_tables.rs pins every table
#                              EXPERIMENTS.md quotes to its producer)
#   "is it the same speed"  -> the compare stage, against bench/baseline/
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --workspace --offline

echo "== test (offline) =="
# netfi-lint's four rules run here too (crates/lint/tests/workspace_clean.rs).
cargo test -q --workspace --offline
# The two crates with `unsafe` kernels (CRC-8 fold, payload filler) are
# tested again optimised: their differential tests must hold in the code
# that ships, not only in the debug build. So is the sharded round
# driver: a barrier or hand-over race shows in optimised code first. And
# so is the sampler, whose points forked at their arming instant must
# match the byte-timed oracle in the build the benchmark measures. And so
# are the kernel's property tests: the timing wheel against a reference
# heap, its rung and fallback heap included, in the code that ships.
cargo test -q --release --offline -p netfi-myrinet -p netfi-netstack -p netfi-sim -p netfi-sample --lib
cargo test -q --release --offline -p netfi-sim --test props

echo "== clippy (-D warnings) =="
# Panic-freedom, SAFETY comments and the determinism bans: the root
# Cargo.toml's [workspace.lints.clippy] and clippy.toml.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (warning-free, missing_docs denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== compare (benchmark, this build vs bench/baseline/) =="
# Every workload of BENCHMARK.json runs three times at its run_seconds,
# round-robin so a slow minute of a shared box lands on different
# workloads, into target/bench/. Three files per side give `compare`
# quartiles: a dip widens the spread and reads *unresolved*, a real
# regression reads *WORSE* (beyond the metric's bound) and exits
# non-zero, which is the gate. A run also exits non-zero by itself when
# an operation fails — a digest, fingerprint or worker-count mismatch.
# When a change moves a rate for the better, refresh the baseline in the
# same PR: cp target/bench/*.json bench/baseline/
benchmark=./target/release/benchmark
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
workloads=$($benchmark list | grep '^workload' | tr -s ' ' | cut -d' ' -f2)
rm -rf target/bench
mkdir -p target/bench
for round in 1 2 3; do
    for workload in $workloads; do
        $benchmark --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 \
            --out "target/bench/$workload.$round.json"
    done
done
$benchmark compare bench/baseline/*.json -- target/bench/*.json
