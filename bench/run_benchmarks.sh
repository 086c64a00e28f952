#!/usr/bin/env bash
#===-- bench/run_benchmarks.sh - perf bench driver ------------------------===#
#
# Runs the Google Benchmark perf drivers with JSON output so the perf
# trajectory accumulates in version-controllable artifacts:
#
#   BENCH_kernels.json   <- bench/perf_kernels
#   BENCH_pipeline.json  <- bench/perf_pipeline
#   BENCH_index.json     <- bench/perf_index  (append-vs-recompute, queries)
#   BENCH_serving.json   <- bench/perf_serving (async batched runtime)
#   BENCH_ml.json        <- bench/perf_ml (eigensolver, PSD repair,
#                           kernel PCA, clustering)
#
# Each JSON's "context" object is stamped with the git SHA and UTC run
# date, so a committed artifact is traceable to the exact tree that
# produced it without relying on git blame. A driver writes to a
# temporary file that replaces its artifact only once stamped, so a
# failed run never leaves a truncated artifact behind.
#
# Usage:
#   bench/run_benchmarks.sh [output-dir]
#
# Environment:
#   BUILD_DIR          build tree containing bench/perf_* (default: build)
#   BENCH_FILTER       --benchmark_filter regex (default: all benchmarks);
#                      a driver with no benchmark matching it is skipped
#                      and its artifact left as it was
#   BENCH_ARGS         extra flags, e.g. --benchmark_repetitions=3
#   BENCH_ALLOW_DEBUG  set to 1 to record from a non-Release build anyway
#   PAGE_CACHE_STATE   "warm" (default) or "cold"; recorded in the JSON
#                      context — set "cold" only if caches were actually
#                      dropped before the run (see note below)
#
# The build must have been configured with system Google Benchmark
# available (the perf_* targets are skipped without it), and it must be
# a Release build: numbers from an unoptimized tree are meaningless as a
# perf trajectory, and committing them silently poisons every later
# comparison. The guard reads CMAKE_BUILD_TYPE out of the build tree's
# CMakeCache.txt — the JSON's "library_build_type" field is no help, as
# it records how the *benchmark library* was compiled (the distro
# package reports "debug" regardless of how our code was built).
# Non-Release trees are an error unless BENCH_ALLOW_DEBUG=1 is set
# explicitly.
#
#===------------------------------------------------------------------------===#

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-"$REPO_ROOT/build"}"
OUT_DIR="${1:-"$REPO_ROOT"}"
mkdir -p "$OUT_DIR"
BENCH_FILTER="${BENCH_FILTER:-}"
BENCH_ARGS="${BENCH_ARGS:-}"
BENCH_ALLOW_DEBUG="${BENCH_ALLOW_DEBUG:-}"

# Refuse to record numbers from an unoptimized tree.
CACHE="$BUILD_DIR/CMakeCache.txt"
if [[ ! -f "$CACHE" ]]; then
  echo "error: $CACHE not found ($BUILD_DIR is not a configured build tree)" >&2
  exit 1
fi
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  if [[ "$BENCH_ALLOW_DEBUG" == "1" ]]; then
    echo "WARNING: recording benchmarks from a '${BUILD_TYPE:-<unset>}' build" >&2
    echo "WARNING: these numbers are NOT comparable to Release baselines" >&2
  else
    echo "error: $BUILD_DIR is a '${BUILD_TYPE:-<unset>}' build, not Release." >&2
    echo "error: benchmark numbers from unoptimized builds are meaningless;" >&2
    echo "error: reconfigure with -DCMAKE_BUILD_TYPE=Release, or set" >&2
    echo "error: BENCH_ALLOW_DEBUG=1 to record them anyway." >&2
    exit 1
  fi
fi

# Provenance for committed artifacts: the SHA of the tree that produced
# the numbers and the UTC date of the run, written into the Google
# Benchmark JSON's top-level "context" object (where machine info
# already lives). Dirty trees are marked so a number from uncommitted
# code can't masquerade as the SHA's.
GIT_SHA="$(git -C "$REPO_ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ "$GIT_SHA" != unknown ]] \
   && ! git -C "$REPO_ROOT" diff --quiet HEAD -- 2>/dev/null; then
  GIT_SHA="$GIT_SHA-dirty"
fi
RUN_DATE_UTC="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Page-cache state matters for the restart/mmap benchmarks
# (BM_RestartToFirstQuery, BM_MappedImageSharedRss): their setup writes
# the shard files immediately before the timed region, so mapped pages
# are served from a warm page cache and the numbers measure restart
# *software* cost, not disk latency. A truly cold restart (after
# `echo 3 > /proc/sys/vm/drop_caches`, which needs root) would add
# device read time on each first fault. The context records which
# regime produced the artifact so committed numbers are comparable.
PAGE_CACHE_STATE="${PAGE_CACHE_STATE:-warm}"

stamp_json() {
  local out="$1"
  GIT_SHA="$GIT_SHA" RUN_DATE_UTC="$RUN_DATE_UTC" \
  PAGE_CACHE_STATE="$PAGE_CACHE_STATE" python3 - "$out" <<'EOF'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})
doc["context"]["git_sha"] = os.environ["GIT_SHA"]
doc["context"]["run_date_utc"] = os.environ["RUN_DATE_UTC"]
doc["context"]["page_cache_state"] = os.environ["PAGE_CACHE_STATE"]
doc["context"]["page_cache_note"] = (
    "restart/mmap benchmarks write their files in setup, so 'warm' means "
    "mapped pages come from the page cache; cold-cache restarts add device "
    "read latency to first faults")
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
}

WRITTEN=()
TMP_OUT=""
trap 'rm -f "$TMP_OUT"' EXIT

run_bench() {
  local name="$1" out="$2"
  local bin="$BUILD_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (configure with system Google Benchmark)" >&2
    exit 1
  fi
  local filter=()
  [[ -n "$BENCH_FILTER" ]] && filter+=(--benchmark_filter="$BENCH_FILTER")
  local listed
  listed="$("$bin" "${filter[@]}" --benchmark_list_tests=true)"
  if [[ -z "$listed" ]]; then
    echo "== $name: no benchmark matches the filter, skipped"
    return
  fi
  TMP_OUT="$OUT_DIR/.$name.json.tmp"
  local flags=(--benchmark_format=json --benchmark_out="$TMP_OUT"
               --benchmark_out_format=json)
  # shellcheck disable=SC2206
  [[ -n "$BENCH_ARGS" ]] && flags+=($BENCH_ARGS)
  echo "== $name -> $out"
  "$bin" "${filter[@]}" "${flags[@]}" > /dev/null
  stamp_json "$TMP_OUT"
  mv "$TMP_OUT" "$out"
  TMP_OUT=""
  WRITTEN+=("$out")
}

run_bench perf_kernels "$OUT_DIR/BENCH_kernels.json"
run_bench perf_pipeline "$OUT_DIR/BENCH_pipeline.json"
run_bench perf_index "$OUT_DIR/BENCH_index.json"
run_bench perf_serving "$OUT_DIR/BENCH_serving.json"
run_bench perf_ml "$OUT_DIR/BENCH_ml.json"

echo "done: ${WRITTEN[*]:-no benchmark matched the filter}"
