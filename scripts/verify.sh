#!/usr/bin/env sh
# Tier-1 verification gate, hermetic by construction: the workspace has no
# external dependencies, so --offline proves no network is ever consulted.
# Bench targets are feature-gated (`criterion`) and stay out of the build
# and test steps.
#
# Every gate announces itself before running so a failure in CI output is
# attributable at a glance, and a gate that silently does nothing (e.g. a
# bench invocation that matched zero targets) is treated as a failure.
set -eu
cd "$(dirname "$0")/.."

gate() {
    name=$1
    shift
    echo "==> gate: $name"
    "$@"
    echo "==> gate: $name OK"
}

gate "build (release, offline)" cargo build --release --offline --workspace

gate "test" cargo test -q --offline --workspace

# Determinism & invariant lints (DESIGN.md "Determinism policy"): the
# committed tree must scan clean — zero D1/D2/D3/T1/P1/A1/A2
# violations, every escape hatch annotated and load-bearing. Exit 1 here
# means a new violation crept in.
gate "fsoi-lint check" cargo run -q --release --offline -p fsoi-lint -- check

# Observability-plane determinism (DESIGN.md "Harness observability
# plane"): the deterministic-plane export of `experiments profile` must
# be byte-identical across thread counts — the wall-clock telemetry
# plane may differ, the profile/registry bytes may not. A small --ops
# keeps this a seconds-scale gate; the full-size pin lives in
# crates/bench/tests/profile_manifest.rs.
profile_det_identity() {
    det1=target/VERIFY_det_t1.txt
    det2=target/VERIFY_det_t2.txt
    mkdir -p target
    FSOI_THREADS=1 cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --ops 30 --out target/VERIFY_manifest_t1.json --det "$det1"
    FSOI_THREADS=2 cargo run -q --release --offline -p fsoi-bench --bin experiments -- \
        profile --ops 30 --out target/VERIFY_manifest_t2.json --det "$det2"
    cmp "$det1" "$det2" || {
        echo "deterministic-plane export differs between FSOI_THREADS=1 and =2" >&2
        return 1
    }
}
gate "profile determinism (threads 1 vs 2)" profile_det_identity

# The structured-trace event API must also build compiled-in on release
# (debug builds always carry it; plain release compiles it out).
gate "build --features trace" cargo build --release --offline --workspace --features trace

# Microbench guard: tick() throughput with tracing disabled must stay
# within noise of a plain release build. The emit sites compile out
# entirely without the `trace` feature, so this run *is* the baseline —
# the bench exists so the trace-feature cost is one command away:
#   cargo bench -p fsoi-bench --features criterion,trace --bench trace_overhead
#
# `cargo bench` exits 0 even when the feature/target combination matches
# nothing and no bench runs, so we capture the output and require the
# bench's own report line — a silently-skipped bench fails the gate.
echo "==> gate: bench trace_overhead"
bench_out=$(cargo bench -q --offline -p fsoi-bench --features criterion --bench trace_overhead 2>&1) || {
    echo "$bench_out"
    echo "==> gate: bench trace_overhead FAILED"
    exit 1
}
echo "$bench_out"
if ! echo "$bench_out" | grep -q "^bench "; then
    echo "==> gate: bench trace_overhead FAILED — no bench report line in the output above;"
    echo "    the bench was silently skipped (feature/target combination matched nothing)"
    exit 1
fi
echo "==> gate: bench trace_overhead OK"

# Hot-path guard: the tick/fast-forward throughput bench must actually
# run, with the same report-line check as above (a matched-nothing
# `cargo bench` exits 0 without running anything).
echo "==> gate: bench tick_throughput"
bench_out=$(cargo bench -q --offline -p fsoi-bench --features criterion --bench tick_throughput 2>&1) || {
    echo "$bench_out"
    echo "==> gate: bench tick_throughput FAILED"
    exit 1
}
echo "$bench_out"
if ! echo "$bench_out" | grep -q "^bench "; then
    echo "==> gate: bench tick_throughput FAILED — no bench report line in the output above;"
    echo "    the bench was silently skipped (feature/target combination matched nothing)"
    exit 1
fi
echo "==> gate: bench tick_throughput OK"
