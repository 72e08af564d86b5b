#!/usr/bin/env bash
# Tier-1 verification: normal build + full ctest, then sanitizer builds of
# the suites that exercise cross-thread interleavings and error-unwind
# paths — TSan for races, ASan for leaks/overflows on the fault-injection
# unwinds (a mid-build abort that leaks shows up here, not in ctest).
#
# Usage: scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# Low-memory-budget sweep: the differential matrix (strategy x spill x
# threads x join impl, all cells asserted row-identical to naive serial)
# re-run at budgets from "barely above the hash join's skew bound" to
# "spills only the big build sides". Each setting moves the trip points —
# which operator spills first, how deep partitions recurse, whether the
# external sort needs one merge pass or several — so one green sweep
# covers many more degrade paths than the single baked-in budget.
for budget in 131072 262144 524288; do
  TMDB_DIFF_BUDGET_BYTES=$budget ./build/tests/differential_exec_test
done

# Sanitizer passes over the parallel + fault-injection + spill paths: TSan
# for races, ASan for leaks and overflows (every injected fault must unwind
# without leaking operator, pool, or spill-file state). The spill suites
# bake in tiny (tens-of-KiB) memory budgets, so every run here partitions
# to disk — races between morsel workers and the spill write-out, and leaks
# on I/O-fault unwinds, surface in these trees and not in plain ctest.
# Sanitizers need their own object files, so each gets a dedicated build
# tree.
SANITIZER_SUITES=(
  parallel_exec_test
  # sched_test is the work-stealing scheduler's own suite: deque
  # discipline, per-query caps, the multi-query soak (several tagged
  # queries sharing the one pool), and cancellation isolation — the
  # highest-value TSan target in the tree, since every interleaving it
  # finds is a real scheduler race.
  sched_test
  fault_injection_test
  spill_codec_test
  spill_exec_test
  subplan_cache_test
  columnar_exec_test
  # budget_fastpath_test runs raw- and composite-key joins over a budget
  # ladder at threads 1 and 4: morsel probes against a live memory guard.
  budget_fastpath_test
  differential_exec_test
  # cost_model_test covers the strategy = auto paths: sampling under the
  # guard, the adaptive controller's cross-thread Observe, and the
  # mid-query kStrategySwitch restart.
  cost_model_test
  # Net suites bind port 0 (ephemeral), so parallel CI jobs never collide;
  # on failure they print the TMDB_NET_SEED that reproduces the schedule.
  net_service_test
  # net_wire_test feeds the payload decoders, the counter-table-driven
  # stats decoder among them, truncated and trailing-byte input.
  net_wire_test
  executor_reuse_soak_test
  # The operator suites drive every join implementation and basic operator
  # directly — each join mode, serve-buffer drains at several batch sizes.
  join_ops_test
  exec_ops_test
  exec_edge_test
)
for sanitizer in thread address; do
  tree="build-${sanitizer:0:1}san"
  cmake -B "$tree" -S . -DTMDB_SANITIZE="$sanitizer"
  cmake --build "$tree" -j --target "${SANITIZER_SUITES[@]}"
  for suite in "${SANITIZER_SUITES[@]}"; do
    "./$tree/tests/$suite"
  done
done

echo "tier1: OK"
