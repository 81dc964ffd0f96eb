#!/usr/bin/env bash
# CI entry point: a staged build/test matrix over the three configurations
# that matter for the execution engine and the fault-injection layer:
#
#   release  optimized build; the perf smoke gate runs here with
#            --perf-smoke-strict, so a missing baseline fails the stage
#            instead of soft-skipping (satellite of DESIGN.md §8).
#   tsan     ThreadSanitizer; catches data races in the snapshot/fan-out/
#            merge path (parallel fleet, thread pool, VM scheduler).
#   asan     AddressSanitizer + UBSan; the chaos suite feeds the decoders
#            truncated/bit-flipped/garbage bytes, exactly the inputs where
#            heap overreads and UB hide.
#
# Within every stage ctest runs label by label, fail-fast (the LABELS array
# below is the single source of the order):
#   unit -> obs -> fleet -> chaos -> corpus
# so a broken unit test stops the stage before the expensive diagnosis loops
# and fault-injection sweeps run. Each stage ends with a per-label timing
# table so slow suites are visible at a glance.
#
# Usage: tools/ci.sh [stage] [jobs]
#   stage  release | tsan | asan | all (default: all)
#   jobs   parallelism for build and ctest (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
STAGE="${1:-all}"
JOBS="${2:-$(nproc)}"

# ccache makes the three configure trees cheap to rebuild (locally and in the
# workflow's cache); absence is fine, the launcher flag is simply omitted.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# The staged test order. run_labels and the CMake label registry
# (tests/CMakeLists.txt) must agree; a label listed here with no tests fails
# the stage (ctest -L with no matches errors under --no-tests=error).
LABELS=(unit obs fleet chaos corpus)

run_labels() {
  local dir="$1"
  local -a label_seconds=()
  local label start
  for label in "${LABELS[@]}"; do
    echo "=== [${dir#build-ci-}] ctest -L ${label} ==="
    start=${SECONDS}
    (cd "${dir}" && ctest --output-on-failure --no-tests=error -j "${JOBS}" -L "${label}")
    label_seconds+=("$((SECONDS - start))")
  done
  echo "=== [${dir#build-ci-}] label timing ==="
  printf '  %-8s %8s\n' "label" "seconds"
  local i
  for i in "${!LABELS[@]}"; do
    printf '  %-8s %8s\n' "${LABELS[$i]}" "${label_seconds[$i]}"
  done
}

run_config() {
  local name="$1"
  shift
  local dir="build-ci-${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . "${LAUNCHER_ARGS[@]}" "$@" >/dev/null
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  run_labels "${dir}"
}

stage_release() {
  run_config release -DCMAKE_BUILD_TYPE=Release
  # Perf smoke: the Release interpreter must stay within 30% of the committed
  # steps/second baseline (BENCH_interp.json, regenerated with
  # `micro_benchmarks --emit-json`). Strict mode: a missing or unreadable
  # baseline is a CI failure, not a silent skip.
  echo "=== [release] perf smoke (strict) ==="
  ./build-ci-release/bench/micro_benchmarks \
    --perf-smoke=BENCH_interp.json --perf-smoke-strict
  # Flight-recorder smoke (DESIGN.md §9): one full diagnosis with the
  # recorder attached; both exported artifacts must be well-formed JSON and
  # the trace must carry Chrome trace-event spans.
  echo "=== [release] flight recorder smoke ==="
  ./build-ci-release/gist diagnose-app sqlite --fleet-seed 3 \
    --metrics-json build-ci-release/obs_metrics.json \
    --trace-json build-ci-release/obs_trace.json \
    --profile-json build-ci-release/profile.json \
    --profile-collapsed build-ci-release/profile.collapsed >/dev/null
  python3 - <<'EOF'
import json
with open("build-ci-release/obs_metrics.json") as f:
    metrics = json.load(f)
assert metrics["counters"]["vm.monitored_runs"] > 0, "no monitored runs recorded"
with open("build-ci-release/obs_trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty trace"
assert any(e["ph"] == "X" for e in events), "no spans in trace"
print(f"flight recorder smoke OK: {len(metrics['counters'])} counters, {len(events)} events")
EOF
  # Profile schema check (DESIGN.md §10): the exported gist.profile.v1 JSON
  # must be internally consistent — the per-block retired histogram sums to
  # the totals — and every collapsed-stack line must parse as
  # "app;function;block count".
  echo "=== [release] profile schema check ==="
  python3 - <<'EOF'
import json
with open("build-ci-release/profile.json") as f:
    profile = json.load(f)
assert profile["schema"] == "gist.profile.v1", profile.get("schema")
for key in ("app", "runs", "totals", "blocks", "edges", "hot_chains", "watch", "dispatch"):
    assert key in profile, f"missing {key}"
assert profile["runs"] > 0, "no runs profiled"
retired = sum(b["retired"] for b in profile["blocks"])
assert retired == profile["totals"]["retired"], (retired, profile["totals"]["retired"])
with open("build-ci-release/profile.collapsed") as f:
    lines = f.read().splitlines()
assert lines, "empty collapsed export"
for line in lines:
    stack, count = line.rsplit(" ", 1)
    assert len(stack.split(";")) == 3, line
    int(count)
print(f"profile schema OK: {len(profile['blocks'])} blocks, {len(lines)} collapsed stacks")
EOF
  # Profile-diff gate (DESIGN.md §10): the deterministic profile must match
  # the committed BENCH_profile.json baseline bit-for-bit — any drifted block
  # means different instructions executed, which the throughput floor would
  # never catch. Regenerate the baseline with:
  #   ./build-ci-release/gist diagnose-app sqlite --fleet-seed 3 \
  #     --profile-json BENCH_profile.json
  echo "=== [release] profile diff gate ==="
  ./build-ci-release/gist profdiff BENCH_profile.json build-ci-release/profile.json --top 5
  # Campaign observatory gate (DESIGN.md §14): one diagnosis exporting the
  # gist.campaign.v1 journal, schema-validated, then re-run at a different
  # worker count and under the streaming-stats shadow check — the journal
  # must be byte-identical (virtual-time clocked, coordinator-merged), and
  # `gist status` must render it. GIST_STATS_SHADOW=1 makes the server
  # recompute every sketch's statistics from scratch and CHECK-fail on any
  # divergence from the incremental aggregation.
  echo "=== [release] campaign observatory gate ==="
  ./build-ci-release/gist diagnose-app sqlite --fleet-seed 3 --jobs 1 \
    --campaign-json build-ci-release/campaign_j1.json >/dev/null
  GIST_STATS_SHADOW=1 ./build-ci-release/gist diagnose-app sqlite --fleet-seed 3 --jobs 8 \
    --campaign-json build-ci-release/campaign_j8.json >/dev/null
  cmp build-ci-release/campaign_j1.json build-ci-release/campaign_j8.json
  python3 - <<'EOF'
import json
with open("build-ci-release/campaign_j1.json") as f:
    journal = json.load(f)
assert journal["schema"] == "gist.campaign.v1", journal.get("schema")
for key in ("title", "iterations", "status"):
    assert key in journal, f"missing {key}"
iterations = journal["iterations"]
assert iterations, "no iterations recorded"
previous_end = 0
for it in iterations:
    assert it["virtual_end"] >= previous_end, "virtual clock not monotone"
    previous_end = it["virtual_end"]
status = journal["status"]
for key in ("trend", "eta_bucket", "iterations", "runs_consumed"):
    assert key in status, f"missing status.{key}"
assert status["iterations"] == len(iterations), "status/iteration count mismatch"
print(f"campaign journal OK: {len(iterations)} iterations, "
      f"trend={status['trend']}, eta={status['eta_bucket']}")
EOF
  ./build-ci-release/gist status build-ci-release/campaign_j1.json
  # Corpus accuracy gate (DESIGN.md §13): generate the fixed-seed quick
  # corpus, diagnose every program end to end, and floor the aggregate rates
  # against the committed BENCH_corpus.json. Strict: a missing or empty
  # baseline fails the stage. Regenerate the baseline with:
  #   ./build-ci-release/gist corpus score --dir build-ci-release/corpus \
  #     --baseline BENCH_corpus.json --write-baseline BENCH_corpus.json
  echo "=== [release] corpus accuracy gate (strict) ==="
  rm -rf build-ci-release/corpus
  ./build-ci-release/gist corpus gen --out build-ci-release/corpus \
    --seed 2015 --count 49 >/dev/null
  ./build-ci-release/gist corpus score --dir build-ci-release/corpus \
    --jobs "${JOBS}" --baseline BENCH_corpus.json \
    --score-json build-ci-release/corpus_score.json
  # Shadow mode (DESIGN.md §14, §15) re-runs the batch statistics and the
  # decode-every-failing-trace reference selection inside every sketch build
  # and CHECK-fails on divergence; the report must not change by a byte.
  echo "=== [release] corpus shadow-mode identity ==="
  GIST_STATS_SHADOW=1 ./build-ci-release/gist corpus score \
    --dir build-ci-release/corpus --jobs "${JOBS}" --baseline BENCH_corpus.json \
    --log-level warning --score-json build-ci-release/corpus_score_shadow.json
  cmp build-ci-release/corpus_score.json build-ci-release/corpus_score_shadow.json
}

stage_tsan() {
  # TSan halts the whole suite on the first race it sees; the engine's
  # determinism tests (fleet_parallel_test, fleet_chaos_test,
  # thread_pool_test) are the hottest path.
  TSAN_OPTIONS="halt_on_error=1" \
    run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGIST_SANITIZE=thread
}

stage_asan() {
  ASAN_OPTIONS="detect_leaks=0:abort_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    run_config asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGIST_SANITIZE=address,undefined
}

case "${STAGE}" in
  release) stage_release ;;
  tsan) stage_tsan ;;
  asan) stage_asan ;;
  all)
    stage_release
    stage_tsan
    stage_asan
    ;;
  *)
    echo "unknown stage '${STAGE}' (expected release|tsan|asan|all)" >&2
    exit 2
    ;;
esac

echo "=== CI passed (${STAGE}) ==="
