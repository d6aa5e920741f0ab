#!/usr/bin/env bash
# The full offline gate: release build, tests, lints, engine bench.
# Runs with zero network access and zero external crates.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --workspace --offline

echo "== test (offline) =="
cargo test -q --workspace --offline

echo "== clippy (-D warnings) =="
cargo clippy --all-targets --offline -- -D warnings

echo "== rustdoc (warning-free, missing_docs denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== lint (netfi-lint workspace invariants, structural rules) =="
# One structural pass covers the per-line rules plus fork-completeness,
# dead-suppression and relaxed-atomic; a non-zero exit on any of them
# fails the gate here (set -e). The JSON artifact is what CI tooling
# consumes; the text run above it is for humans reading the log. The
# suppression-budget ratchet itself lives in
# crates/lint/tests/workspace_clean.rs, already enforced by the test
# stage above. The analyzer indexes every workspace source on each run,
# so its wall time is recorded — it must stay instant-feeling.
lint_start=$(date +%s%N)
./target/release/netfi-lint .
./target/release/netfi-lint --format json . > target/LINT.json
lint_end=$(date +%s%N)
awk -v s="$lint_start" -v e="$lint_end" \
    'BEGIN { printf "lint wall time: %.3f s (two full scans)\n", (e - s) / 1e9 }'
# Artifact sanity: the JSON names the three structural rules' scan (a
# clean report still carries files/suppressions/violations keys).
for key in files suppressions violations; do
    grep -q "\"$key\"" target/LINT.json || {
        echo "target/LINT.json is missing the \"$key\" key"
        exit 1
    }
done
echo "artifact: target/LINT.json"

extract() { awk -F'"'"$2"'": ' '/"'"$2"'"/ { gsub(/[,}].*/, "", $2); print $2 }' "$1"; }

# ratchet "<bin + args>" <file> <key> <label>: the run already written to
# target/<file> must sustain at least 0.9x the committed <file>'s <key>.
# The slack absorbs scheduler noise, and the retries (re-running the
# command) absorb sustained slow phases — shared hosts dip 20-30% for
# minutes at a time, e.g. right after the build above; a genuine
# regression fails every attempt. When a change makes the number better,
# refresh the committed file in the same PR so the gate ratchets forward.
ratchet() {
    local cmd=$1 file=$2 key=$3 label=$4 committed current attempt
    committed=$(extract "$file" "$key")
    for attempt in 1 2 3; do
        current=$(extract "target/$file" "$key")
        if awk -v c="$current" -v b="$committed" -v a="$attempt" -v k="$key" -v f="$file" 'BEGIN {
            ratio = c / b
            printf "attempt %s: committed %.0f %s, this run %.0f (%.2fx)\n", a, b, k, c, ratio
            if (ratio > 1.1) {
                print "note: >1.1x the committed number — refresh " f " in this PR"
            }
            exit !(ratio >= 0.9)
        }'; then
            return 0
        fi
        if [ "$attempt" -lt 3 ]; then
            echo "below 0.9x — letting the machine settle, then retrying"
            sleep 15
            $cmd --out "target/$file" > /dev/null
        fi
    done
    echo "REGRESSION: $label stayed below 0.9x the committed $file"
    echo "(if the machine is busy, re-run on an idle box before reverting anything)"
    exit 1
}

echo "== engine bench =="
# 31 samples: throughput is min-of-samples, and on a shared box the min
# needs a wide net to dodge scheduler-noise phases (each sample is ~5 ms).
engine_bench="./target/release/bench_engine --sim-ms 2000 --samples 31 --campaigns 0"
$engine_bench --out target/BENCH_engine.json
echo "summary: target/BENCH_engine.json"
cat target/BENCH_engine.json

echo "== engine bench regression gate =="
ratchet "$engine_bench" BENCH_engine.json events_per_sec "engine throughput"

echo "== fabric scaling gate =="
# The scaling curve's schema: every committed size must carry its full
# key block (throughput, digest, shard count, both sharded rates). The
# digests themselves are cross-checked in-run by bench_engine (serial vs
# sharded at every size) and pinned for 10/100 hosts in
# tests/determinism.rs, so presence is what's validated here.
for n in 10 100 1000; do
    for key in fabric_${n}_hosts fabric_${n}_shards fabric_${n}_events \
        fabric_${n}_events_per_sec fabric_${n}_ns_per_event fabric_${n}_digest \
        fabric_${n}_sharded_w1_events_per_sec fabric_${n}_sharded_events_per_sec; do
        grep -q "\"$key\"" target/BENCH_engine.json || {
            echo "target/BENCH_engine.json is missing the \"$key\" key"
            exit 1
        }
    done
done
# With real cores to spread windows on, the sharded executor must not
# lose to serial at the 1,000-host size (it already wins on one core
# there — per-shard locality — so this is a conservative floor). On a
# single-core runner the comparison measures nothing but round
# overhead; the gate stays dormant.
cores=$(extract target/BENCH_engine.json cores)
fabric_serial=$(extract target/BENCH_engine.json fabric_1000_events_per_sec)
fabric_sharded=$(extract target/BENCH_engine.json fabric_1000_sharded_events_per_sec)
if [ "$cores" -ge 2 ]; then
    if ! awk -v s="$fabric_serial" -v p="$fabric_sharded" 'BEGIN {
        printf "fabric 1000 hosts: serial %.0f ev/s, sharded %.0f ev/s (%.2fx)\n", s, p, p / s
        exit !(p >= s)
    }'; then
        echo "REGRESSION: sharded fabric ran slower than serial on a ${cores}-core runner"
        exit 1
    fi
else
    awk -v s="$fabric_serial" -v p="$fabric_sharded" 'BEGIN {
        printf "fabric 1000 hosts: serial %.0f ev/s, sharded %.0f ev/s (%.2fx) — single core, gate dormant\n", s, p, p / s
    }'
fi

echo "== campaign bench (serial vs parallel, determinism cross-check) =="
./target/release/bench_campaign --suite-seeds 2 \
    --out target/BENCH_campaign.json
echo "summary: target/BENCH_campaign.json"
cat target/BENCH_campaign.json

echo "== fork-grid gate (snapshot/fork bit-identity + amortization) =="
# Two promises, both hard-failed here. Correctness: the fork-vs-fresh
# tests pin a forked engine's exports against the same golden hashes a
# fresh run carries. Performance: the fork grid exists to delete N-1
# warm-ups, so its wall time may never exceed the fresh grid's (both were
# just measured by bench_campaign above).
cargo test -q --release --offline --test determinism fork
fork_wall=$(extract target/BENCH_campaign.json fork_grid_wall_secs)
fresh_wall=$(extract target/BENCH_campaign.json fresh_grid_wall_secs)
if ! awk -v fork="$fork_wall" -v fresh="$fresh_wall" 'BEGIN {
    printf "fork grid %.2f s vs fresh grid %.2f s (%.2fx)\n", fork, fresh, fresh / fork
    exit !(fork <= fresh)
}'; then
    echo "REGRESSION: the fork grid ran slower than per-spec fresh warm-ups"
    exit 1
fi

echo "== sampled injection campaign gate =="
# The statistical sampler's two promises, hard-failed here. Determinism:
# bench_injections itself asserts byte-identical campaigns at workers
# 1/2/8, and the fingerprint must match the committed artifact exactly —
# same seed, same points, same bytes, on any box. Throughput: the
# sampled rate must sustain 0.9x the committed injections/sec, same
# retry discipline as the engine gate (`ratchet`).
injections_bench="./target/release/bench_injections --points 2048 --seed 11"
$injections_bench --out target/BENCH_injections.json
echo "summary: target/BENCH_injections.json"
cat target/BENCH_injections.json
for key in injections_per_sec fingerprint \
    masked corrupted_delivered detected_crc detected_timeout hang \
    dir_breakdown control_swap_breakdown dir_a dir_b gap_to_idle; do
    grep -q "\"$key\"" target/BENCH_injections.json || {
        echo "target/BENCH_injections.json is missing the \"$key\" key"
        exit 1
    }
done
committed_fp=$(extract BENCH_injections.json fingerprint)
current_fp=$(extract target/BENCH_injections.json fingerprint)
if [ "$committed_fp" != "$current_fp" ]; then
    echo "DETERMINISM BREAK: campaign fingerprint $current_fp != committed $committed_fp"
    echo "(if a change legitimately altered sampled behaviour, refresh BENCH_injections.json in this PR)"
    exit 1
fi
ratchet "$injections_bench" BENCH_injections.json injections_per_sec "sampled injection throughput"

echo "== detection campaign gate =="
# The failure-analysis layer's promise, hard-failed here. bench_detect
# itself asserts the campaign is byte-identical at workers 1/2/4 (plus
# the widest count the box offers); on top of that the fingerprint must
# match the committed artifact exactly — the φ-accrual math is SimTime
# fixed-point and the fault schedule is seeded, so the same spec list
# produces the same bytes on any machine. No throughput ratchet: the
# campaign is latency-study machinery, not a speed benchmark.
./target/release/bench_detect --hosts 100 \
    --out target/BENCH_detect.json
echo "summary: target/BENCH_detect.json"
cat target/BENCH_detect.json
for key in fingerprint scenarios agreement_permille \
    theta2_samples theta2_p50_us theta2_missed theta2_false_alarms \
    theta2_baseline_false_alarms \
    theta5_p50_us theta5_false_alarms theta8_p50_us theta8_false_alarms \
    spof_count diameter redundancy_milli health; do
    grep -q "\"$key\"" target/BENCH_detect.json || {
        echo "target/BENCH_detect.json is missing the \"$key\" key"
        exit 1
    }
done
committed_fp=$(extract BENCH_detect.json fingerprint)
current_fp=$(extract target/BENCH_detect.json fingerprint)
if [ "$committed_fp" != "$current_fp" ]; then
    echo "DETERMINISM BREAK: detection fingerprint $current_fp != committed $committed_fp"
    echo "(if a change legitimately altered detection behaviour, refresh BENCH_detect.json in this PR)"
    exit 1
fi

echo "== obs overhead gate =="
./target/release/bench_obs --sim-ms 2000 --samples 5 \
    --baseline target/BENCH_engine.json --min-ratio 0.8 \
    --out target/BENCH_obs.json
echo "summary: target/BENCH_obs.json"
cat target/BENCH_obs.json
