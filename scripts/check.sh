#!/usr/bin/env bash
# Repo health check: configure + build + run the full test suite, optionally
# under ASan/UBSan or TSan, plus the point-lookup bench as a smoke test.
#
# Usage:
#   scripts/check.sh            # release build + ctest + bench/scenario smoke
#   scripts/check.sh --asan     # ASan+UBSan build + ctest + node-retirement benches
#   scripts/check.sh --tsan     # TSan build + storage/kv suites
#   scripts/check.sh --full     # default path + full-mode scenario snapshots
#                               # (BENCH_<scenario>.json into the repo root)
#   scripts/check.sh --all      # release, asan, tsan in sequence
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"

JOBS="$(nproc 2>/dev/null || echo 4)"
# The built-in "cluster weather" scenarios; each writes BENCH_<name>.json.
SCENARIOS=(black-friday tenant-stampede az-outage rolling-upgrade-under-chaos gray-partition range-storm)

run_preset() {
  local preset="$1"
  echo "==> configure (${preset})"
  cmake --preset "${preset}" >/dev/null
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "${JOBS}"
}

# The benches whose runs retire SQL nodes (Fig 10's scale-to-zero probes,
# Fig 8's autoscaler drains, Fig 9's rolling-upgrade drains, and the fast
# scenarios) on the ASan/UBSan build: the pool frees every retired node, so
# a use of one after its retirement fails the run.
asan_retire_smoke() {
  echo "==> ASan node-retirement smoke (fig10, fig8, fig9, scenarios --fast)"
  local out="build-asan/bench-smoke" bench
  mkdir -p "${out}"
  export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  for bench in bench_fig10_coldstart bench_fig8_autoscaler bench_fig9_migration; do
    echo "--> ${bench}"
    ./build-asan/bench/"${bench}" > "${out}/${bench}.txt"
  done
  echo "--> bench_scenarios --fast"
  ./build-asan/bench/bench_scenarios --fast --out="${out}" > "${out}/bench_scenarios.txt"
  echo "ASan node-retirement smoke OK"
}

# Runs the point-lookup, write-path, txn-throughput, and SQL-exec benches
# end to end and asserts each completed and emitted parseable JSON. Exit 0
# enforces their internal gates: point lookup >= 2x its baseline read;
# write path group_commit_bg 8-thread >= 2x its own 1-thread rate with a
# mean commit group >= 2; txn throughput >= 3x; q1_lite >= 5x vectorized.
bench_smoke() {
  echo "==> bench smoke (bench_point_lookup)"
  local out="build/bench-smoke"
  mkdir -p "${out}"
  (cd "${out}" && ../bench/bench_point_lookup)
  local json="${out}/BENCH_point_lookup.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"uniform_cold_speedup"' "${json}"
  fi
  echo "==> bench smoke (bench_write_path)"
  (cd "${out}" && ../bench/bench_write_path)
  json="${out}/BENCH_write_path.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"multi_writer_speedup"' "${json}"
  fi
  echo "==> bench smoke (bench_txn_throughput)"
  (cd "${out}" && ../bench/bench_txn_throughput)  # exit 0 enforces the >= 3x gate
  json="${out}/BENCH_txn_throughput.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"uncontended_speedup_8t"' "${json}"
  fi
  echo "==> bench smoke (bench_sql_exec)"
  (cd "${out}" && ../bench/bench_sql_exec)  # exit 0 enforces the >= 5x gate
  json="${out}/BENCH_sql_exec.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"q1_lite_speedup"' "${json}"
  fi
  echo "bench smoke OK"
}

# Chaos smoke: the seeded crash-injection harness (fault-labeled suite) at a
# fixed seed with a bounded iteration count, so every check.sh run exercises
# crash recovery end to end without depending on the suite's default scale.
chaos_smoke() {
  echo "==> chaos smoke (fault suite, fixed seed)"
  VELOCE_CHAOS_SEED=0xC4A05 VELOCE_CHAOS_ITERS=200 \
    ctest --test-dir build -L '^fault$' --output-on-failure -j "${JOBS}"
  echo "chaos smoke OK"
}

# Partition-chaos smoke: the netfault suite (ReplicaTransport seam, seeded
# FaultyMesh, epoch leases, replica catch-up, linearizability checker) with
# the seeded partition-chaos harness pinned to a fixed seed and a bounded
# iteration count.
netfault_smoke() {
  echo "==> partition-chaos smoke (netfault suite, fixed seed)"
  VELOCE_NETFAULT_SEED=0x9E7F VELOCE_NETFAULT_ITERS=100 \
    ctest --test-dir build -L '^netfault$' --output-on-failure -j "${JOBS}"
  echo "partition-chaos smoke OK"
}

# Range-storm smoke: the rangestorm-labeled suite (load splits, cooldown
# merges, directory cache, pipelined moves) at a fixed seed with a bounded
# seed sweep, so the composed split/merge/rebalance invariants run on every
# check.sh pass without the suite's default 100-seed scale.
rangestorm_smoke() {
  echo "==> range-storm smoke (rangestorm suite, fixed seed)"
  VELOCE_RANGESTORM_SEEDS=20 VELOCE_RANGESTORM_ITERS=8 \
    ctest --test-dir build -L '^rangestorm$' --output-on-failure -j "${JOBS}"
  echo "range-storm smoke OK"
}

# File-size bound on src/kv, src/sql, src/storage, src/serverless and
# src/obs: KVCluster is split into one file per mechanism (range directory,
# liveness, replication, txn recovery, data path), the two SELECT engines
# share one plan (select_plan.cc), storage::Engine keeps its level set in
# version.cc and its flush/compaction and read paths in
# engine_compaction.cc and engine_read.cc, and the SQL-node lifecycle has
# one start, stamp and retirement path in node_pool.cc; a file past 800
# lines is a mechanism growing back into a monolith.
size_check() {
  echo "==> src/kv, src/sql, src/sql/vec, src/storage, src/serverless, src/obs file sizes (at most 800 lines each)"
  local f lines over=0
  for f in src/kv/*.h src/kv/*.cc src/sql/*.h src/sql/*.cc src/sql/vec/*.h src/sql/vec/*.cc \
           src/storage/*.h src/storage/*.cc src/serverless/*.h src/serverless/*.cc \
           src/obs/*.h src/obs/*.cc; do
    lines="$(wc -l < "${f}")"
    if (( lines > 800 )); then
      echo "${f}: ${lines} lines, over the 800-line bound" >&2
      over=1
    fi
  done
  (( over == 0 )) || exit 1
  echo "file sizes OK"
}

# Scenario smoke: all six built-in "cluster weather" scenarios at a fixed
# seed in fast mode (compressed timelines), each asserting its invariants
# and emitting a parseable BENCH_<scenario>.json; plus the scenario-labeled
# test suite (determinism + snapshot schema).
scenario_smoke() {
  echo "==> scenario smoke (all scenarios, fixed seed, fast mode)"
  local out="build/bench-smoke"
  mkdir -p "${out}"
  ./build/bench/bench_scenarios --fast --seed=0xC10D --out="${out}"
  local name
  for name in "${SCENARIOS[@]}"; do
    local json="${out}/BENCH_${name}.json"
    [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
    if command -v python3 >/dev/null 2>&1; then
      python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
    else
      grep -q '"passed":true' "${json}"
    fi
  done
  ctest --test-dir build -L '^scenario$' --output-on-failure -j "${JOBS}"
  echo "scenario smoke OK"
}

# Full scenario run: uncompressed timelines at the default seed, snapshots
# committed-to-repo-root BENCH_<scenario>.json (the trajectory artifacts).
# The snapshots are deterministic, so each must regenerate byte-identical to
# its committed copy; a difference is a behavior change to review and commit.
scenario_full() {
  echo "==> scenario full run (default seed, repo root snapshots)"
  ./build/bench/bench_scenarios --out="${ROOT}"
  local snapshots=() name
  for name in "${SCENARIOS[@]}"; do snapshots+=("BENCH_${name}.json"); done
  git -C "${ROOT}" rev-parse --is-inside-work-tree >/dev/null 2>&1 || {
    echo "the snapshot check needs a git work tree at ${ROOT}" >&2
    exit 1
  }
  git -C "${ROOT}" diff --exit-code HEAD -- "${snapshots[@]}" || {
    echo "scenario snapshots differ from the committed ones (HEAD)" >&2
    exit 1
  }
  echo "scenario full OK"
}

# Range-storm scale bench: 10k tenants / >= 100k ranges through the full
# split/merge/move/directory data plane. Exit 0 enforces the bench's
# internal gates (peak >= 100k ranges, load splits and merges fire,
# wall-clock p99 bound). Unlike the scenario snapshots this one carries
# wall-clock timings, so it stays in build/bench-smoke, not the repo root.
rangestorm_full() {
  echo "==> range-storm scale bench (10k tenants)"
  local out="build/bench-smoke"
  mkdir -p "${out}"
  (cd "${out}" && ../bench/bench_range_storm)
  local json="${out}/BENCH_range_storm_scale.json"
  [[ -s "${json}" ]] || { echo "missing ${json}" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${json}"
  else
    grep -q '"passed":true' "${json}"
  fi
  echo "range-storm scale OK"
}

case "${1:-}" in
  "")     size_check; run_preset release; bench_smoke; chaos_smoke; netfault_smoke; rangestorm_smoke; scenario_smoke ;;
  --asan) run_preset asan; asan_retire_smoke ;;
  --tsan) run_preset tsan ;;
  --full) size_check; run_preset release; bench_smoke; chaos_smoke; netfault_smoke; rangestorm_smoke; scenario_smoke; scenario_full; rangestorm_full ;;
  --all)  size_check; run_preset release; bench_smoke; chaos_smoke; netfault_smoke; rangestorm_smoke; scenario_smoke; run_preset asan; asan_retire_smoke; run_preset tsan ;;
  *)      echo "usage: scripts/check.sh [--asan|--tsan|--full|--all]" >&2; exit 2 ;;
esac

echo "OK"
