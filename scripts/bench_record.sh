#!/usr/bin/env bash
# Records perfbench runs in the committed BENCH_<workload>.json files.
#
#   scripts/bench_record.sh --pr LABEL predict_online
#   scripts/bench_record.sh --pr LABEL --base REV --base-pr LABEL --pairs 10 \
#       --seed 1 --seed 2 predict_online
#   scripts/bench_record.sh --pr LABEL --trace 1 predict_online reproduce
#
# Every run of `bash perfbench/run.sh --workload W --seed S --seconds T
# --trace X` appends one row to BENCH_<W>.json at the repository root:
#
#   {"pr", "commit", "workload", "seed", "cores", "trace", "setup_s",
#    "op_s", "peak_rss_mb", "per_layer", "digest"}
#
# T is BENCHMARK.json's `run_seconds`, the same for every row. `commit`
# is the short hash the build came from: the script refuses a working
# tree with changes or untracked files (other than BENCH_*.json), so the
# rows always name a commit that holds the code they measured.
# `per_layer` holds the non-zero per-layer metrics of a traced run and is
# empty otherwise. `cores` is the host's `nproc`.
#
# Without --base, each pair is one run of HEAD. With --base REV, REV is
# exported by `git archive` into .bench_build/base-<full hash of REV> and
# built there with its own target dir; the export is reused by later
# calls for the same hash. Each pair runs both builds back to back,
# alternating which goes first, and the base rows carry --base-pr as
# their `pr`.
#
# Options: --pr LABEL (required), --base REV, --base-pr LABEL (default
# "base"), --pairs N (default 1), --seed N (repeatable, default 1),
# --trace 0|1 (default 0).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

pr="" base="" base_pr="base" pairs=1 trace=0
seeds=() workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pr) pr="$2"; shift 2 ;;
    --base) base="$2"; shift 2 ;;
    --base-pr) base_pr="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seeds+=("$2"); shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    -*) echo "bench_record: unknown option $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [ -z "$pr" ] || [ "${#workloads[@]}" -eq 0 ]; then
  echo "usage: scripts/bench_record.sh --pr LABEL [--base REV] [--pairs N] [--seed N]... WORKLOAD..." >&2
  exit 2
fi
[ "${#seeds[@]}" -gt 0 ] || seeds=(1)

if [ -n "$(git status --porcelain -- . ':(exclude)BENCH_*.json')" ]; then
  echo "bench_record: the working tree differs from HEAD; commit or stash first:" >&2
  git status --short -- . ':(exclude)BENCH_*.json' >&2
  exit 2
fi
head="$(git rev-parse --short HEAD)"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

if [ -n "$base" ]; then
  base_hash="$(git rev-parse --verify "$base^{commit}")"
  base_commit="$(git rev-parse --short "$base_hash")"
  base_dir="$root/.bench_build/base-$base_hash"
  if [ ! -d "$base_dir" ]; then
    rm -rf "$base_dir.tmp"
    mkdir -p "$base_dir.tmp"
    git archive "$base_hash" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
  fi
fi

# Reads one perfbench stdout and appends its row to the BENCH file.
read -r -d '' append_row <<'PY' || true
import json, os, re, sys

path, pr, commit, workload, seed, trace = sys.argv[1:]
row = {"pr": pr, "commit": commit, "workload": workload, "seed": int(seed),
       "cores": os.cpu_count(), "trace": int(trace)}
per_layer = {}
for line in sys.stdin:
    m = re.match(r"# end-to-end(?: \(traced run\))?: (\w+) = (\S+)", line)
    if m:
        row[m.group(1)] = float(m.group(2))
    m = re.match(r"# per-layer: (\S+) = (\S+)", line)
    if m and float(m.group(2)) != 0.0:
        per_layer[m.group(1)] = float(m.group(2))
    m = re.match(r"# output digest: (.*)", line)
    if m:
        row["digest"] = m.group(1).strip()
    m = re.match(r"# host: nproc=(\d+)", line)
    if m:
        row["cores"] = int(m.group(1))
    if line.startswith("{"):
        result = json.loads(line)
        if result["failed"] or not result["correct"]:
            sys.exit(f"bench_record: {workload} seed {seed} failed: {line.strip()}")
row["per_layer"] = per_layer
keys = ["pr", "commit", "workload", "seed", "cores", "trace", "setup_s", "op_s",
        "peak_rss_mb", "per_layer", "digest"]
row = {k: row[k] for k in keys}
rows = json.load(open(path)) if os.path.exists(path) else []
rows.append(row)
with open(path, "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
print(f"{pr:>8} {commit:>14} {workload} seed {seed}: op_s {row['op_s']:.3f} "
      f"setup_s {row['setup_s']:.3f} peak_rss_mb {row['peak_rss_mb']:.1f}")
PY

# run DIR TARGET_DIR PR COMMIT WORKLOAD SEED: one perfbench run, one row.
run() {
  local dir="$1" target="$2" label="$3" commit="$4" workload="$5" seed="$6" out
  out="$(cd "$dir" && CARGO_TARGET_DIR="$target" bash perfbench/run.sh \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")"
  printf '%s\n' "$out" | python3 -c "$append_row" "$root/BENCH_$workload.json" "$label" \
    "$commit" "$workload" "$seed" "$trace"
}

for workload in "${workloads[@]}"; do
  for seed in "${seeds[@]}"; do
    for ((i = 0; i < pairs; i++)); do
      if [ -z "$base" ]; then
        run "$root" "${CARGO_TARGET_DIR:-$root/.bench_build}" "$pr" "$head" "$workload" "$seed"
      elif [ $((i % 2)) -eq 0 ]; then
        run "$base_dir" "$base_dir/.bench_build" "$base_pr" "$base_commit" "$workload" "$seed"
        run "$root" "${CARGO_TARGET_DIR:-$root/.bench_build}" "$pr" "$head" "$workload" "$seed"
      else
        run "$root" "${CARGO_TARGET_DIR:-$root/.bench_build}" "$pr" "$head" "$workload" "$seed"
        run "$base_dir" "$base_dir/.bench_build" "$base_pr" "$base_commit" "$workload" "$seed"
      fi
    done
  done
done
