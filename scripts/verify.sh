#!/usr/bin/env bash
# Full verification sweep for the hermetic workspace. Everything here must
# pass with no network access and no crate registry.
#
#   scripts/verify.sh          # tier-1 + full workspace + benches compile
#
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline build (debug) =="
cargo build --offline

echo "== static analysis: ssd-lint (float determinism, dead pub, allow grammar) =="
cargo build -q --offline --release -p ssd-lint
lint_start="$(date +%s)"
# Violations print as file:line: [rule] lines and exit nonzero.
target/release/ssd-lint --root .
lint_elapsed="$(( $(date +%s) - lint_start ))"
echo "ssd-lint: ${lint_elapsed}s"
# Runtime budget smoke: the analyzer must stay cheap enough to run
# first on every verify sweep (a cold workspace walk is ~100ms; 60s
# catches an accidental quadratic blowup, not normal variance).
if [ "${lint_elapsed}" -gt 60 ]; then
  echo "ERROR: ssd-lint runtime budget exceeded (${lint_elapsed}s > 60s)"
  exit 1
fi

# The crate roots deny unwrap/expect/panic!/todo!/unimplemented!, `as`
# casts in sim and ml, missing docs and `#[allow]`, and outside tests the
# clippy.toml determinism gates (HashMap/HashSet, Instant/SystemTime::now,
# raw SplitMix64::new); [workspace.lints] denies unsafe. -D warnings
# turns a stale `#[expect]` into an error too.
echo "== clippy gate: every target warning-free; panic-freedom, cast discipline, no hashing, clocks, raw seeds or unsafe =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== doc gate: rustdoc builds warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: root test suite =="
cargo test -q --offline

echo "== full workspace test suite =="
cargo test -q --offline --workspace

echo "== benches compile (all 5 targets) =="
cargo bench --no-run --offline --workspace

echo "== bench smoke: bench_sim (incl. sparse span walker + encode_stream/decode_stream) + ML kernels + flat predict =="
SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_sim

# "train_" selects both training groups: train_2k_rows (one fit per
# Table 6 family, the forest as forest_50) and train_imbalanced.
SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_ml_kernels train_
# Batch scoring of one Table-6-shaped CV fold: k-NN and a 100-tree forest.
SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_ml_kernels score_cv_fold
# Pointer vs flattened scoring of a 50-tree forest: pointer_forest_50, flat_forest.
SSD_BENCH_SAMPLES=2 cargo bench --offline -p ssd-bench --bench bench_flat_predict flat_predict

echo "== streaming smoke: generate -> summarize, truncated/corrupt archives rejected =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
# 800 days so staggered deployment leaves real report data in the file
# (short horizons produce near-empty archives a truncation can't corrupt).
target/release/ssdgen --out "$smoke_dir" --drives 7 --days 800 --seed 99 --format bin
target/release/ssdstat --trace "$smoke_dir/trace.ssdfs" > /dev/null
archive_bytes="$(wc -c < "$smoke_dir/trace.ssdfs")"
head -c "$((archive_bytes / 2))" "$smoke_dir/trace.ssdfs" > "$smoke_dir/truncated.ssdfs"
if target/release/ssdstat --trace "$smoke_dir/truncated.ssdfs" > /dev/null 2> "$smoke_dir/truncated.err"; then
  echo "ERROR: ssdstat accepted a truncated archive"; exit 1
fi
# The cut lies past the first 64 KiB refill, so the offset pins the decoder's
# fast-path fallback end to end: the error must name the truncation point.
truncated_msg="decode archive: unexpected end of input at byte $((archive_bytes / 2))"
if ! grep -qxF "ssdstat: $truncated_msg" "$smoke_dir/truncated.err"; then
  echo "ERROR: truncated archive did not fail with '$truncated_msg':"
  cat "$smoke_dir/truncated.err"; exit 1
fi
printf 'not an archive' > "$smoke_dir/corrupt.ssdfs"
if target/release/ssdstat --trace "$smoke_dir/corrupt.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdstat accepted a corrupt archive"; exit 1
fi

echo "== archive pin smoke: plain and --importance archive bytes pinned by cksum, --importance decodable =="
# `cksum` (CRC, byte count) of the two smoke archives; a change means the
# generator's output bytes moved.
pin() {
  local got
  got="$(cksum < "$1")"
  if [ "$got" != "$2" ]; then
    echo "ERROR: $1 cksum '$got' != pinned '$2' (archive bytes changed)"; exit 1
  fi
}
pin "$smoke_dir/trace.ssdfs" "2788473221 135010"
target/release/ssdgen --out "$smoke_dir/imp" --drives 7 --days 800 --seed 99 \
  --format bin --importance 4
pin "$smoke_dir/imp/trace.ssdfs" "549773521 122529"
target/release/ssdstat --trace "$smoke_dir/imp/trace.ssdfs" > /dev/null

echo "== prediction pin smoke: test-scale tab6, tab7, fig12-fig16, tab8 JSON pinned by cksum =="
# Every cross-validated AUC, ROC curve and importance of the prediction
# experiments lands in these files; a change means a kernel, the fold
# scheduling or the training protocol moved a result. The default id list
# skips tab8 at test scale, so it runs on its own.
target/release/repro --scale test --json "$smoke_dir/repro" > /dev/null
target/release/repro --scale test --json "$smoke_dir/repro" tab8 > /dev/null
pin "$smoke_dir/repro/tab6.json" "1674766258 2302"
pin "$smoke_dir/repro/tab7.json" "268017444 363"
pin "$smoke_dir/repro/fig12.json" "1822555806 1055"
pin "$smoke_dir/repro/fig13.json" "2280682227 271656"
pin "$smoke_dir/repro/fig14.json" "371239996 2357"
pin "$smoke_dir/repro/fig15.json" "3947713693 386417"
pin "$smoke_dir/repro/fig16_young.json" "804316766 1748"
pin "$smoke_dir/repro/fig16_old.json" "1470032522 1852"
pin "$smoke_dir/repro/tab8.json" "1836768382 967"

echo "== online prediction smoke: train + rank streamed fleet, bad archives rejected =="
# A larger fleet so the training pass sees both classes (swaps are rare).
target/release/ssdgen --out "$smoke_dir/predict" --drives 40 --days 800 --seed 11 --format bin
target/release/ssdpredict --trace "$smoke_dir/predict/trace.ssdfs" \
  --lookahead 14 --sample-rate 0.5 --seed 7 --trees 10 > /dev/null
if target/release/ssdpredict --trace "$smoke_dir/truncated.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdpredict accepted a truncated archive"; exit 1
fi
if target/release/ssdpredict --trace "$smoke_dir/corrupt.ssdfs" > /dev/null 2>&1; then
  echo "ERROR: ssdpredict accepted a corrupt archive"; exit 1
fi

echo "== fleet service smoke: framed queries answered, identical across shard counts, malformed frames rejected =="
# Frame = 4-byte little-endian length prefix + JSON body.
frame() {
  local body="$1" len=${#1}
  # shellcheck disable=SC2059  # the format string is built from hex escapes
  printf "$(printf '\\x%02x\\x%02x\\x%02x\\x%02x' \
    "$((len & 0xff))" "$((len >> 8 & 0xff))" "$((len >> 16 & 0xff))" "$((len >> 24 & 0xff))")"
  printf '%s' "$body"
}
{ frame '{"q":"info"}'; frame '[{"q":"summary"},{"q":"topk","k":3}]'; } \
  | target/release/ssdserve --trace "$smoke_dir/predict/trace.ssdfs" \
      --shards 3 --trees 8 --seed 7 --lookahead 14 --sample-rate 0.5 \
      > "$smoke_dir/serve_out.bin"
serve_bytes="$(wc -c < "$smoke_dir/serve_out.bin")"
if [ "$serve_bytes" -lt 8 ]; then
  echo "ERROR: ssdserve produced no response frames"; exit 1
fi
# Shard-count identity at the binary level: the same frames answered with
# the fleet folded into 1 and into 3 shards must give identical bytes.
for shards in 1 3; do
  { frame '{"q":"summary"}'; frame '{"q":"survival"}'; frame '{"q":"hazard","bin_days":30}'
    frame '{"q":"topk","k":20}'; } \
    | target/release/ssdserve --trace "$smoke_dir/predict/trace.ssdfs" \
        --shards "$shards" --trees 8 --seed 7 --lookahead 14 --sample-rate 0.5 \
        > "$smoke_dir/serve_s$shards.bin"
done
if [ "$(wc -c < "$smoke_dir/serve_s1.bin")" -lt 100 ]; then
  echo "ERROR: ssdserve gave no answers for the shard-count identity check"; exit 1
fi
if ! cmp -s "$smoke_dir/serve_s1.bin" "$smoke_dir/serve_s3.bin"; then
  echo "ERROR: ssdserve answers differ between --shards 1 and --shards 3"; exit 1
fi
if frame 'this is not json' \
  | target/release/ssdserve --trace "$smoke_dir/predict/trace.ssdfs" \
      --shards 2 --model none > /dev/null 2>&1; then
  echo "ERROR: ssdserve accepted a malformed frame"; exit 1
fi

echo "== examples compile =="
cargo build --offline --examples

echo "== examples run: each example once in release, a nonzero exit fails; failure_prediction stdout pinned by cksum =="
cargo build -q --offline --release --examples
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  example_start="$(date +%s)"
  if [ "$name" = observation_audit ]; then
    # The audit exits 1 when an observation does not hold. On its own
    # fleet (seed 13, 700 drives per model) observation 3 does not; any
    # other exit status or set of failing observations fails.
    status=0
    target/release/examples/observation_audit > "$smoke_dir/audit.txt" || status=$?
    failing="$(awk '$2 == "NO" { printf "%s ", $1 }' "$smoke_dir/audit.txt")"
    if [ "$status" != 1 ] || [ "$failing" != "3 " ]; then
      echo "ERROR: observation_audit exited $status with failing observations '$failing' (pinned: exit 1, '3 ')"
      exit 1
    fi
  elif [ "$name" = failure_prediction ]; then
    # The only example that fits forests with output no other pin covers
    # (cross-validated AUCs, held-out AUC, operating points read off a
    # `RocCurve` and counted by `Confusion`): a kernel change that moves
    # one of its digits fails here.
    target/release/examples/failure_prediction > "$smoke_dir/failure_prediction.txt"
    pin "$smoke_dir/failure_prediction.txt" "3797133835 726"
  else
    "target/release/examples/$name" > /dev/null
  fi
  echo "$name: $(( $(date +%s) - example_start ))s"
done

echo "verify: all green"
