#!/bin/sh
# The benchmark's own gate: format, lints, build, tests, the smoke suite
# traced and untraced, and BENCHMARK.json against the tables in spec.rs.
# Kept here because scripts/verify.sh belongs to the repo's tier-1 gate.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo build --offline --release
cargo test --offline --release
cargo run --offline --release --quiet -- --smoke
cargo run --offline --release --quiet -- --smoke --workload dist_graph --trace 1 >/dev/null
cargo run --offline --release --quiet -- benchmark-json | diff - ../BENCHMARK.json
echo "perf/check.sh: OK"
