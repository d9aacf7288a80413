// Matching-table construction (paper §4.2) — the direct implementation.
//
// Pipeline:
//   1. R → R', S → S' (eid/extension.h): world naming, K_Ext columns
//      appended, missing values derived via ILFDs.
//   2. Hash-join R' and S' on the extended key with `non_null_eq`
//      semantics: a pair matches when the tuples agree, and are non-NULL,
//      on *every* K_Ext attribute.
//   3. Each joined pair is appended to MT_RS; the uniqueness constraint is
//      verified (a violation means the chosen extended key is not sound
//      for these relations — the prototype's "extended key causes unsound
//      matching result" diagnostic).
//
// The relational-expression formulation of the same computation (§4.2's
// chain of projections, IM-table joins, unions and outer joins) lives in
// eid/algebra_pipeline.h; tests cross-check the two.

#ifndef EID_EID_MATCHER_H_
#define EID_EID_MATCHER_H_

#include <memory>

#include "eid/extension.h"
#include "eid/match_tables.h"

namespace eid {

/// Outcome of matching-table construction.
struct MatcherResult {
  /// The extended relations R' and S' (world naming). Row order matches
  /// the source relations, so pair indices apply to both.
  ExtensionResult r_extension;
  ExtensionResult s_extension;
  /// Matched pairs.
  MatchTable matching;
  /// OK when the uniqueness constraint held; ConstraintViolation(+detail)
  /// when some tuple matched more than one counterpart (unsound key).
  Status uniqueness;
  /// Per-stage counters: extend_r, extend_s, key_join.
  exec::StageStatsSet stats;

  /// Printable MT_RS (paper Table 7 layout: R-key columns then S-key
  /// columns of the extended relations).
  Result<Relation> MatchingRelation(const std::string& name = "MT") const {
    return matching.ToRelation(r_extension.extended, s_extension.extended,
                               name);
  }
};

/// Options for BuildMatchingTable.
struct MatcherOptions {
  ExtensionOptions extension;
  /// Pre-flight: statically analyze the rule program (correspondence,
  /// extended key, ILFDs, identity/distinctness rules) against the input
  /// schemas before touching any tuple, and fail with FailedPrecondition
  /// carrying the diagnostic list when it has error-severity findings
  /// (see analysis/analyzer.h). Warnings never fail the pre-flight. Off
  /// by default: analysis costs a closure computation per ILFD.
  bool analyze = false;
  /// When true, the first uniqueness violation fails the whole build. The
  /// default records the violation in MatcherResult::uniqueness, skips the
  /// violating pair, and still returns the table — mirroring the prototype,
  /// which warns ("unsound matching result") but keeps the definition.
  bool fail_on_uniqueness_violation = false;
  /// Parallelism for the whole build (extension, join probe, and — when
  /// driven from EntityIdentifier — the rule sweeps). 0 resolves via
  /// EID_THREADS, then hardware concurrency; 1 is the serial engine.
  /// Output is identical for every value (see src/exec/thread_pool.h).
  int threads = 0;
  /// Master switch for the compiled execution path (src/compile/):
  /// derivation programs with per-worker memo caches, the interned
  /// extended-key join, and compiled rule antecedents. Overrides
  /// `extension.compile`. Off runs the per-tuple interpreter everywhere,
  /// kept as a differential-testing oracle; results are bit-identical.
  bool compile = true;
  /// Master switch for staged candidate generation (see
  /// exec/candidate_generator.h): the identity and distinctness sweeps
  /// enumerate candidates through one r-major sweep over the posting
  /// indexes of the session's columnar world instead of one scan per
  /// rule. Off runs the exhaustive sweep, kept as a differential-testing
  /// oracle; results are bit-identical (the staged filters
  /// over-approximate, never under-approximate, and emission order is
  /// preserved).
  bool staged = true;
  /// Master switch for block-vectorized residual evaluation (see
  /// StagedEvaluator::PairTruthBlock, DESIGN.md §4h): the staged sweeps
  /// drain surviving candidates in fixed-size pair blocks and compiled
  /// residuals evaluate them op-major over the columnar id slices. Off
  /// evaluates one scalar PairTruth per pair, kept as the block path's
  /// differential oracle; fired pairs, evidence and the
  /// engine-invariant counters are bit-identical either way. Only
  /// meaningful when `staged` is on.
  bool block_eval = true;
  /// Precomputed columnar-world seed (exec/columnar_world.h): the
  /// snapshot's value dictionary plus dense per-column id matrices for
  /// the base relations, normally from storage::LoadedWorld::ToConfig.
  /// When set (and compile is on), the session's columnar world starts
  /// with every base column already encoded — a zero-re-interning cold
  /// start. Null encodes lazily from the rows; results are identical.
  std::shared_ptr<const exec::ColumnarSeeds> columnar_seeds;
};

/// Builds MT_RS for `r` and `s` under the given extended key and ILFDs.
Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options = {});

/// World-sharing form used by the engine: `world` (may be null) is the
/// session's columnar world, whose dictionary and column slices are
/// shared across the extension, join and rule stages so each base /
/// extended column is encoded at most once per session. The caller seeds
/// the world (if at all) before calling; only the compiled path reads
/// it. Results are identical to the default form.
Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options,
                                         exec::ColumnarWorld* world);

/// Joins two already-extended relations on `ext_key` (step 3 alone):
/// returns the pairs agreeing non-NULL on every extended-key attribute.
/// Exposed for cross-checking against the algebra pipeline and for reuse
/// by the incremental engine.
Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key);

/// Pool-sharing form: the probe side is sharded over `pool` (null = serial)
/// with per-chunk pair buffers merged in index order, so the pair sequence
/// equals the serial probe's for any thread count. Stage counters land in
/// `stats` when non-null. `compiled` selects the id-keyed join (S' key
/// column posting index built serially, read-only probes by R' row id);
/// off hashes re-serialised string fingerprints per row, kept as the
/// oracle. `world` (compiled path only) makes the join read the session's
/// shared id columns and indexes under the kRExtended/kSExtended slots
/// instead of encoding a private copy of the key columns.
Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key,
                                                 exec::ThreadPool* pool,
                                                 exec::StageStats* stats,
                                                 bool compiled = true,
                                                 exec::ColumnarWorld* world =
                                                     nullptr);

}  // namespace eid

#endif  // EID_EID_MATCHER_H_
