#!/usr/bin/env bash
# The full verification gate: release build + tests, rule-program lint
# over the shipped fixtures, the sync-layer discipline gate, clang-tidy
# and the thread-safety analysis build (both when clang is installed),
# and the tsan/asan/ubsan suites. Any new diagnostic fails the script.
#
# Usage:
#   scripts/check.sh              # everything
#   scripts/check.sh --fast       # release build + ctest + eid-lint +
#                                 # mutex gate only
#   scripts/check.sh --mutex-gate # only the raw-std::mutex grep gate
#                                 # (what the CI thread-safety job calls)
#   EID_CHECK_SANITIZER_TESTS=... # ctest -R filter for sanitizer runs
#                                 # (default: the determinism/equivalence
#                                 #  suites the sanitizers exist to guard)
set -euo pipefail

cd "$(dirname "$0")/.."

# Sync-layer discipline (DESIGN.md §4f): every lock in src/ outside the
# base layer must be a base::Mutex so Clang Thread Safety Analysis can
# see it. A raw std:: synchronization primitive as a member or local is
# invisible to the capability model and fails this gate.
mutex_gate() {
  local hits
  hits=$(grep -rnE 'std::(mutex|shared_mutex|recursive_mutex|condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)' \
      src --include='*.h' --include='*.cc' | grep -v '^src/base/' || true)
  if [[ -n "$hits" ]]; then
    echo "raw std:: synchronization outside src/base/ (use base::Mutex" \
         "from src/base/mutex.h so thread-safety analysis sees it):"
    echo "$hits"
    return 1
  fi
  echo "mutex gate: no raw std:: synchronization outside src/base/"
}

if [[ "${1:-}" == "--mutex-gate" ]]; then
  mutex_gate
  exit 0
fi

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Sanitizer runs cover the suites exercising the parallel exec layer and
# the engine-vs-reference equivalence; a full suite under three
# sanitizers is prohibitive on small machines. Override the filter (e.g.
# '.' for everything) via EID_CHECK_SANITIZER_TESTS.
# (gtest_discover_tests registers per-case names, so the filter matches
# gtest suite names, not test binary names.)
SANITIZER_TESTS="${EID_CHECK_SANITIZER_TESTS:-^(Coverage/|Staged/)?(Determinism|Differential|DifferentialConflict|DifferentialIncremental|Incremental|IncrementalProperty|Reference|DerivationProgram|Identifier|ExplainProperty|Analyzer.*|ThreadPool|ParallelForHelper|ResolveThreads|ColumnIndex|PlanBlocking|CandidateGenerator|Matcher|MatchTable|ColumnarDifferential|ColumnarInterner|ValueDictionary|ClosureEvaluator|Dictionary|Snapshot|SnapshotDifferential|Provenance|IdentityRule|IdentityRuleProperty|InducedRuleProperty|DifferentialRowPart|DifferentialSpecialDouble|Figure1|Negative|NegativeTable|Multiway)Test\.}"

step() { printf '\n=== %s ===\n' "$*"; }

step "release: configure + build"
cmake --preset release >/dev/null
cmake --build --preset release -j "$(nproc)"

step "release: ctest"
ctest --preset release -j "$(nproc)"

step "eid-lint: shipped fixtures must be clean"
for fixture in example1 example2 example3; do
  ./build/examples/eid-lint --fixture "$fixture" --quiet
  echo "eid-lint --fixture $fixture: clean"
done

step "sync-layer discipline: no raw std::mutex outside src/base/"
mutex_gate

if [[ "$FAST" == "1" ]]; then
  echo "--fast: skipping clang-tidy, thread-safety and sanitizer presets"
  exit 0
fi

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --preset clang-tidy >/dev/null
  cmake --build --preset clang-tidy -j "$(nproc)"
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi

step "thread-safety: clang -Wthread-safety[-beta] as errors"
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset thread-safety >/dev/null
  cmake --build --preset thread-safety -j "$(nproc)"
else
  echo "clang++ not installed; skipping (annotations are no-ops on gcc;" \
       "CI runs this gate — see .github/workflows/check.yml)"
fi

for preset in tsan asan ubsan; do
  step "$preset: build + tests ($SANITIZER_TESTS)"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --test-dir "build-$preset" -R "$SANITIZER_TESTS" \
    --no-tests=error --output-on-failure -j "$(nproc)"
done

echo
echo "all checks passed"
