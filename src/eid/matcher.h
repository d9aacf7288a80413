// Matching-table construction (paper §4.2) — the direct implementation.
//
// Pipeline:
//   1. R → R', S → S' (eid/extension.h): world naming, K_Ext columns
//      appended, missing values derived via ILFDs.
//   2. Join R' and S' on the extended key with `non_null_eq` semantics
//      (a pair matches when the tuples agree, and are non-NULL, on
//      *every* K_Ext attribute). The join is the key's induced identity
//      rule (§4.1, ExtendedKey::EquivalenceRule) run through the same
//      staged sweep as every other identity rule (compile::SweepRules).
//   3. Each joined pair is appended to MT_RS; the uniqueness constraint is
//      verified (a violation means the chosen extended key is not sound
//      for these relations — the prototype's "extended key causes unsound
//      matching result" diagnostic).
//
// The relational-expression formulation of the same computation (§4.2's
// chain of projections, IM-table joins, unions and outer joins) lives in
// eid/algebra_pipeline.h, and the paper-literal one in eid/reference.h;
// tests cross-check all three.

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
  /// Parallelism for the whole build (extension, key join, and — when
  /// driven from EntityIdentifier — the rule sweeps). 0 resolves via
  /// EID_THREADS, then hardware concurrency; 1 is the serial engine.
  /// Output is identical for every value (see src/exec/thread_pool.h).
  int threads = 0;
  /// Precomputed columnar-world seed (exec/columnar_world.h): the
  /// snapshot's value dictionary plus dense per-column id matrices for
  /// the base relations, normally from storage::LoadedWorld::ToConfig.
  /// When set, the session's columnar world starts with every base
  /// column already encoded — a zero-re-interning cold start. Null
  /// encodes lazily from the rows; results are identical.
  std::shared_ptr<const exec::ColumnarSeeds> columnar_seeds;
};

/// Builds MT_RS for `r` and `s` under the given extended key and ILFDs,
/// in a columnar world of its own (seeded from options.columnar_seeds)
/// on a thread pool of its own (options.threads).
Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options = {});

/// World-sharing form used by the engine: `world` is the session's
/// columnar world, whose dictionary and column slices are shared across
/// the extension, join and rule stages so each base / extended column is
/// encoded at most once per session, and `pool` (null = serial) is the
/// caller's. The caller seeds the world (if at all) before calling;
/// options.threads and options.columnar_seeds are not read.
Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options,
                                         exec::ThreadPool* pool,
                                         exec::ColumnarWorld& world);

/// Joins two already-extended relations on `ext_key` (step 3 alone): the
/// key's equivalence rule swept in a columnar world of its own. Returns
/// the pairs agreeing non-NULL on every extended-key attribute, r-major
/// and s ascending; NotFound when a key attribute is missing from either
/// schema. Exposed for cross-checking against the algebra pipeline and
/// for reuse by the multiway matcher.
Result<std::vector<TuplePair>> JoinOnExtendedKey(const Relation& r_extended,
                                                 const Relation& s_extended,
                                                 const ExtendedKey& ext_key);

/// Adds `pairs` to `matching` in order. A pair that breaks uniqueness is
/// skipped and the first such violation is kept in `*uniqueness` (while
/// it is still OK) — mirroring the prototype, which warns ("unsound
/// matching result") but keeps the table.
void AddMatches(const std::vector<TuplePair>& pairs, MatchTable* matching,
                Status* uniqueness);

}  // namespace eid

#endif  // EID_EID_MATCHER_H_
