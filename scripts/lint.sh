#!/usr/bin/env bash
# Runs the in-tree static analyzer over the workspace: determinism, rng
# discipline, hermeticity, unsafe gate and dead pub items. Panic-freedom,
# cast discipline and docs are compiler lints that `cargo clippy
# --workspace --all-targets -- -D warnings` enforces. Exit codes:
#   0  clean
#   1  violations (printed as file:line: [rule] message)
#   2  usage or I/O error
#
#   scripts/lint.sh                    # all rules
#   scripts/lint.sh --rule hermeticity # one rule family
#   scripts/lint.sh --list-rules      # what is enforced
set -euo pipefail
cd "$(dirname "$0")/.."

exec cargo run -q --offline --release -p ssd-lint -- --root . "$@"
