#!/usr/bin/env bash
# Three-flavor CI sweep (the invocations documented in the root
# CMakeLists.txt sanitizer comment, in runnable form):
#
#   1. Release            — full test suite (the tier-1 gate)
#   2. GES_SANITIZE=thread    — concurrency / gc / replication / planner /
#      compaction / service labels (the replication stream + semisync ack
#      path, the shared plan cache's lookup/insert/invalidate races, the
#      compaction's level install under churn, and the server's frame
#      dispatch, in-flight query records and Drain must be TSan-clean)
#   3. GES_SANITIZE=undefined — kernels / executor / durability labels
#      plus one pass of bench_filter_selectivity (GES_ITERS=1): the shared
#      byte codec (common/wire.h: wire frames, WAL records, snapshot file,
#      covered by the serialization, snapshot-integrity, WAL and
#      golden-byte tests) and CRC32C are bit-twiddling-heavy
#   4. GES_SANITIZE=address   — governor / service / storage / compaction
#      / executor labels: the resource governor's unwind paths (budget
#      kills mid-allocation, watchdog shots, watermark sheds) must be leak-
#      and overflow-clean, the golden-byte codec tests run here too, and so
#      do the adjacency level's raw and varint slot reads, the MVCC
#      touched-bit arrays (mvcc_test carries the storage label), the
#      f-Tree count DP's prefix arrays indexed by range bounds (ftree_*,
#      fuzz_plan_test), the grouped aggregator's lazily made per-group
#      state and its open-addressing typed-key index (operators_test,
#      fuzz_plan_test), and a counted Expand's columnless f-Tree child
#      (explain_test, fuzz_plan_test's and determinism_test's updated-
#      graph suites); determinism_test and mvcc_test carry the executor
#      label as well, so UBSan and ASan run them, and so does
#      traversal_oracle_test (executor + concurrency, so TSan too): the
#      per-thread visited bitmap of multi-hop Expand and the per-thread
#      person arrays of IC13/IC14, reused call after call, and the
#      per-thread vertex slot array of a vertex-keyed AggProjectTop, with
#      the dead-row ranges of its f-Tree Expands (optimizer_test,
#      explain_test, ftree_property_test, fuzz_plan_test's regrouping
#      plans)
#
# The release flavor also compiles perfbench/ (it links service::Server and
# reads its statistics), so a server-API change cannot break the end-to-end
# benchmark unnoticed. It is built, not run.
#
# Usage: scripts/ci.sh [flavor...]     (default: all four)
#   flavors: release, tsan, ubsan, asan
# Knobs: GES_CI_JOBS (parallel build/test jobs, default nproc),
#        GES_CI_BUILD_ROOT (default build-ci).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${GES_CI_JOBS:-$(nproc)}
ROOT=${GES_CI_BUILD_ROOT:-build-ci}
FLAVORS=("$@")
[[ ${#FLAVORS[@]} -eq 0 ]] && FLAVORS=(release tsan ubsan asan)

build() {  # build <dir> [extra cmake args...]
  local dir=$1; shift
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

for flavor in "${FLAVORS[@]}"; do
  case "$flavor" in
    release)
      echo "=== [ci] Release: full suite + plan-cache gate + perfbench build ==="
      build "$ROOT/release"
      ctest --test-dir "$ROOT/release" --output-on-failure -j "$JOBS"
      # Perf acceptance: prepared short reads must hit the cache (>= 99%
      # after warmup) and beat uncached planning by the p50 gate.
      "$ROOT/release/bench/bench_plan_cache"
      cmake -S perfbench -B "$ROOT/perfbench" >/dev/null
      cmake --build "$ROOT/perfbench" -j "$JOBS" --target ges_perfbench
      ;;
    tsan)
      echo "=== [ci] ThreadSanitizer: concurrency|gc|replication|planner|compaction|service ==="
      build "$ROOT/tsan" -DGES_SANITIZE=thread
      ctest --test-dir "$ROOT/tsan" --output-on-failure -j "$JOBS" \
        -L 'concurrency|gc|replication|planner|compaction|service'
      ;;
    ubsan)
      echo "=== [ci] UBSan: kernels|executor|durability + WAL-heavy bench ==="
      build "$ROOT/ubsan" -DGES_SANITIZE=undefined
      ctest --test-dir "$ROOT/ubsan" --output-on-failure -j "$JOBS" \
        -L 'kernels|executor|durability'
      GES_ITERS=1 "$ROOT/ubsan/bench/bench_filter_selectivity"
      ;;
    asan)
      echo "=== [ci] AddressSanitizer: governor|service|storage|compaction|executor ==="
      build "$ROOT/asan" -DGES_SANITIZE=address
      ctest --test-dir "$ROOT/asan" --output-on-failure -j "$JOBS" \
        -L 'governor|service|storage|compaction|executor'
      ;;
    *)
      echo "[ci] unknown flavor '$flavor' (release, tsan, ubsan, asan)" >&2
      exit 2
      ;;
  esac
done
echo "=== [ci] all flavors green ==="
