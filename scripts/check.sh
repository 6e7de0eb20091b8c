#!/usr/bin/env bash
# Full local CI gate: build, tests, formatting, and lints must all pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --test fault_injection (panic-free ingestion gate)"
cargo test -q --test fault_injection

echo "==> cargo test -q --test artifact_roundtrip (model artifact gate)"
cargo test -q --test artifact_roundtrip

echo "==> cargo test -q --test determinism (threading + featurizer equivalence gate)"
cargo test -q --test determinism

echo "==> cargo test --release (bitwise QR oracle + MF pins under optimized codegen)"
cargo test --release -q -p leva-linalg
cargo test --release -q --test determinism

echo "==> cargo test -q --test mmap_artifacts (zero-copy artifact gate)"
cargo test -q --test mmap_artifacts

echo "==> cargo test -q --test quantization (precision-ladder tolerance gate)"
cargo test -q --test quantization

echo "==> cargo test -q --test incremental (delta-ingestion + retrofit gate)"
cargo test -q --test incremental

echo "==> cargo test -q -p leva-serve (server smoke + hot-swap stress gate)"
cargo test -q -p leva-serve

echo "==> exp_serve (serving benchmark -> results/BENCH_6.json)"
cargo build --release -q -p leva-bench --bin exp_serve
./target/release/exp_serve --scale 0.2 --iters 60 >/dev/null

echo "==> exp_discovery (schema-free discovery benchmark -> results/BENCH_7.json)"
cargo build --release -q -p leva-bench --bin exp_discovery
./target/release/exp_discovery --scale 0.2 >/dev/null

echo "==> exp_mmap (out-of-core artifact benchmark -> results/BENCH_8.json + BENCH_9.json)"
cargo build --release -q -p leva-bench --bin exp_mmap
./target/release/exp_mmap --scale 0.2 >/dev/null

echo "==> exp_incremental (delta-ingestion benchmark -> results/BENCH_10.json)"
cargo build --release -q -p leva-bench --bin exp_incremental
./target/release/exp_incremental --scale 0.2 >/dev/null

echo "==> bench_all (the repository benchmark builds and its own tests pass against the current API)"
cargo build --release --manifest-path bench_all/Cargo.toml
cargo test -q --manifest-path bench_all/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "All checks passed."
