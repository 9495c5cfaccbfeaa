#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload archive_scan --seed 1 --seconds 10 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default: .bench_build). Build
# output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/perfbench" "$@"
