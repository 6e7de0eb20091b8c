#!/usr/bin/env bash
# Full local CI gate: build, tests, formatting, and lints must all pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (every crate's unit, integration and doc tests)"
cargo test --workspace -q

echo "==> cargo test --release (bitwise QR, Jacobi eigen, Gram, CRC-32 and SGNS oracles, flat store and stamp, MF and RW pins under optimized codegen)"
cargo test --release -q -p leva-linalg
cargo test --release -q -p leva-interner
cargo test --release -q -p leva-embedding -p leva-serve
cargo test --release -q -p leva-ml
cargo test --release -q --test determinism

echo "==> bench_all (the repository benchmark builds and its own tests pass against the current API)"
cargo build --release --manifest-path bench_all/Cargo.toml
cargo test -q --manifest-path bench_all/Cargo.toml

echo "==> cargo fmt --check (the workspace, then bench_all, which is not a workspace member)"
cargo fmt --check
cargo fmt --check --manifest-path bench_all/Cargo.toml

echo "==> cargo clippy -- -D warnings (the workspace, then bench_all)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --manifest-path bench_all/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings, including broken intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "All checks passed."

echo "==> net non-test Rust lines (information only, not a gate)"
scripts/loc.sh
