#!/usr/bin/env bash
# Runs the in-tree static analyzer over the workspace: float determinism,
# dead pub items and allow-comment grammar. Everything else is a compiler
# lint: panic-freedom, cast discipline, docs, hash collections, wall
# clocks, raw seeds and unsafe fail `cargo clippy --workspace
# --all-targets -- -D warnings`, and `tests/hermetic.rs` checks that every
# locked package is a path crate. Exit codes:
#   0  clean
#   1  violations (printed as file:line: [rule] message)
#   2  usage or I/O error
#
#   scripts/lint.sh                     # all rules
#   scripts/lint.sh --rule dead-pub     # one rule family
#   scripts/lint.sh --list-rules        # what is enforced
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q --offline --release -p ssd-lint -- --root . "$@"
