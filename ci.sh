#!/usr/bin/env bash
# CI gate for the VIBNN reproduction. Later PRs must keep every step
# green; the first two lines are the repository's tier-1 verify.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

# Runs every unit, doc and integration test of the default members,
# the determinism suites under tests/ included, so none is re-run below.
echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --no-run

echo "==> perfbench builds (its own workspace, so the steps above do not compile it)"
cargo build --release --manifest-path perfbench/Cargo.toml

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace (deny warnings)"
    cargo clippy --workspace -- -D warnings
else
    echo "==> NOTICE: clippy unavailable (offline toolchain); skipping lint step"
fi

echo "==> VIBNN_SCALE=quick smoke run (table1, the forked-ε ablations, machine-readable GRNG bench)"
VIBNN_SCALE=quick cargo run --release -p vibnn_bench --bin table1
VIBNN_SCALE=quick cargo run --release -p vibnn_bench --bin ablation_eps_source
VIBNN_SCALE=quick cargo run --release -p vibnn_bench --bin ablation_mc_samples
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_grng.json" \
    cargo run --release -p vibnn_bench --bin bench_grng
grep -q '"fork_ns"' target/BENCH_grng.json \
    || { echo "FAIL: BENCH_grng.json lacks the fork_ns field"; exit 1; }

echo "==> hardware_sim example (one paper-sized image ticked through the simulator: SimStats and infer_forked's output)"
cargo run --release --example hardware_sim

echo "==> serving example (queued serving through a one-replica cluster, with backoff on QueueFull)"
cargo run --release --example serving

echo "==> ingest example (decodes the Metrics frame over real sockets; skips itself where sockets are unavailable)"
cargo run --release --example ingest

echo "==> VIBNN_SCALE=quick training-engine bench (machine-readable, asserts bit-identity)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_train.json" \
    cargo run --release -p vibnn_bench --bin bench_train
for field in phase_seconds allocations_per_step; do
    grep -q "\"$field\"" target/BENCH_train.json \
        || { echo "FAIL: BENCH_train.json lacks the $field breakdown"; exit 1; }
done

echo "==> VIBNN_SCALE=quick serving bench (software/quantized/cycle grid, asserts determinism before timing)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_serve.json" \
    cargo run --release -p vibnn_bench --bin bench_serve
for field in samples_used_mean policy_speedup cycles_per_request energy_nj_per_request \
    stage_seconds host_ns_per_mac energy_nj_per_mac; do
    grep -q "\"$field\"" target/BENCH_serve.json \
        || { echo "FAIL: BENCH_serve.json lacks the $field field"; exit 1; }
done

echo "==> VIBNN_SCALE=quick cluster bench (machine-readable, asserts cluster == batched)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_cluster.json" \
    cargo run --release -p vibnn_bench --bin bench_cluster

echo "==> VIBNN_SCALE=quick ingest bench (real sockets, asserts wire == direct submit; writes a stub if sockets are unavailable)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_ingest.json" \
    cargo run --release -p vibnn_bench --bin bench_ingest

echo "==> VIBNN_SCALE=quick online bench (drift loop, asserts report bit-identity and adaptive >= baseline)"
VIBNN_SCALE=quick VIBNN_BENCH_OUT="target/BENCH_online.json" \
    cargo run --release -p vibnn_bench --bin bench_online
for field in drift_accuracy_adaptive drift_accuracy_baseline swaps_completed; do
    grep -q "\"$field\"" target/BENCH_online.json \
        || { echo "FAIL: BENCH_online.json lacks the $field field"; exit 1; }
done

echo "CI green."
