// Per-stage instrumentation of the identification engine.
//
// Every stage of an identification run (extension, key join, identity
// rules, distinctness rules) records what it actually did: tuples
// derived, candidate pairs generated versus the full cross product,
// rule-antecedent evaluations, wall time, thread count. The counters are
// the engine's perf contract — the scaling benches serialise them into
// BENCH_scaling.json, and `candidate_pairs / cross_product` is the
// blocking-index selectivity that explains *why* a run was fast, not
// just how fast it was.
//
// Counters are aggregated per index chunk and summed, so every count is
// deterministic across thread counts; only wall_ms (and compile_ms) vary
// run to run.

#ifndef EID_EXEC_STAGE_STATS_H_
#define EID_EXEC_STAGE_STATS_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "base/thread_annotations.h"

namespace eid {
namespace exec {

/// Counters for one engine stage. EID_PER_WORKER while a stage runs:
/// each worker (or chunk) accumulates into its own instance or slot, and
/// the stage folds them serially after the ParallelFor joins — counters
/// are never shared mutable state, which is why every count is
/// deterministic across thread counts.
struct EID_PER_WORKER StageStats {
  std::string stage;    // "extend_r", "key_join", "identity_rules", ...
  double wall_ms = 0.0; // wall-clock time of the stage
  int threads = 1;      // parallelism the stage ran with

  size_t items = 0;            // stage unit: tuples processed / pairs added
  size_t values_derived = 0;   // attribute values filled in via ILFDs
  size_t candidate_pairs = 0;  // pairs actually evaluated
  size_t cross_product = 0;    // |R'| * |S'| baseline for candidate_pairs
  size_t rule_evals = 0;       // antecedent-conjunction evaluations

  // Staged candidate-generation counters (exec/candidate_generator.h).
  size_t amq_rejects = 0;         // always 0: the AMQ pre-filter is gone
                                  // (kept for reports that read it)
  size_t feature_cache_hits = 0;  // pair evals reusing a hoisted row part

  // Always 0: the block-vectorized residual evaluator is gone (DESIGN.md
  // §4h). Kept only because perfbench reports read them.
  size_t pair_blocks = 0;
  size_t block_early_exits = 0;
  size_t block_scalar_fallbacks = 0;

  // Compiled-execution counters (src/compile/).
  double compile_ms = 0.0;  // rule-program compilation time (in wall_ms)
  // Always 0: the derivation memo is gone. Kept only because perfbench
  // reports read them.
  size_t memo_hits = 0;
  size_t memo_misses = 0;

  // Snapshot counters (src/storage/), zero on worlds built from rows.
  double snapshot_load_ms = 0.0;  // mmap + decode + index rebuild time
  size_t dict_values = 0;         // dictionary entries decoded

  // Columnar-world counters (exec/columnar_world.h). These make the
  // encode-once claim observable: reuse
  // hits are ids served without hashing a Value (cached columns,
  // snapshot-seeded dictionary/cells), encode_ms is the total time this
  // stage spent turning Values into ids, and probe_batches counts the
  // vectorized key-join probe blocks.
  size_t probe_batches = 0;         // batched join-probe blocks run
  size_t interner_reuse_hits = 0;   // ids served without re-encoding
  double columnar_encode_ms = 0.0;  // Value -> id encode time (in wall_ms)

  /// One-line human-readable form.
  std::string ToString() const;
};

/// An ordered collection of stage counters for one run.
class StageStatsSet {
 public:
  void Add(StageStats stats) { stages_.push_back(std::move(stats)); }
  /// Appends every stage of `other` (used to fold sub-results into the
  /// full identification result). Serial-only, like Add: stats merging
  /// always happens after the stage's ParallelFor has joined.
  void Merge(const StageStatsSet& other);

  const std::vector<StageStats>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }

  /// The named stage, or nullptr.
  const StageStats* Find(const std::string& stage) const;

 private:
  std::vector<StageStats> stages_;
};

/// Scoped wall timer: construct at stage start, call ElapsedMs() when
/// filling in the stage's StageStats.
class StageTimer {
 public:
  StageTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace exec
}  // namespace eid

#endif  // EID_EXEC_STAGE_STATS_H_
