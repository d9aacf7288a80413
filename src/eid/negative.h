// Negative matching table construction via distinctness rules (paper §4.1,
// Proposition 1 and Table 4).
//
// Every pair of (extended) tuples for which some distinctness rule's
// antecedent evaluates to true is a known-distinct pair. The paper notes
// the number of non-matching pairs is usually far larger than matching
// pairs, so NMT_RS is conceptual; this module materialises exactly the
// pairs the supplied rules certify, which is what consistency checking and
// the three-valued decision function need.
//
// Evaluation is index-accelerated (src/exec/blocking_index.h): each
// rule's equality conjuncts bound its candidate pairs, and candidates
// are swept in parallel. The resulting table, certificate column and
// ordering are identical to the serial nested-loop sweep for any thread
// count.

#ifndef EID_EID_NEGATIVE_H_
#define EID_EID_NEGATIVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "eid/match_tables.h"
#include "exec/stage_stats.h"
#include "exec/thread_pool.h"
#include "rules/distinctness_rule.h"

namespace eid {

namespace exec {
class ColumnarWorld;
}  // namespace exec

/// Provenance of one negative pair: which rule certified it, and in which
/// orientation. Rules quantify over all entity pairs (∀e1,e2), so both
/// instantiations (e1:=r-tuple, e2:=s-tuple) and (e1:=s-tuple, e2:=r-tuple)
/// are checked; `flipped` records that the second one fired. Stored as a
/// 4-byte certificate, rule_index * 2 + (flipped ? 1 : 0) — the
/// candidate generator's priority of that (rule, orientation).
struct NegativePairEvidence {
  size_t rule_index = 0;
  bool flipped = false;

  static NegativePairEvidence FromCertificate(uint32_t certificate) {
    return NegativePairEvidence{certificate / 2, (certificate & 1) != 0};
  }
};

/// Result of negative-table construction.
struct NegativeResult {
  /// The NMT, sorted row-major.
  MatchTable table{/*negative=*/true};
  /// evidence[i] certifies table.pairs()[i]: the first (rule,
  /// orientation) whose antecedent is true on it, as a certificate (see
  /// NegativePairEvidence). The two columns are the NMT's only copy of
  /// each pair: 16 B of pair plus 4 B of certificate.
  std::vector<uint32_t> evidence;
  /// Counters of the sweep ("distinctness_rules" stage).
  exec::StageStats stats;

  /// The certificate of `pair`, by binary search over the sorted table;
  /// nullopt when the table does not hold the pair.
  std::optional<NegativePairEvidence> EvidenceFor(const TuplePair& pair) const;
};

/// Evaluates every rule over every pair of rows of the two (extended,
/// world-named) relations. Rules must be well-formed (Validate() is
/// called; the first invalid rule fails the build).
Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules);

/// Pool-sharing form used by the engine (null pool = serial sweep).
/// `compile` lowers each rule antecedent to a compiled program per
/// orientation before the sweep (src/compile/pair_program.h); off
/// re-resolves attribute names per pair. `staged` runs the sweep through
/// the staged candidate generator (exec/candidate_generator.h: one
/// r-major sweep over posting-index blocking and hoisted row features);
/// off is the exhaustive per-rule sweep kept as a differential oracle.
/// The fired pairs, certificates and ordering are identical on every
/// path. `world` (optional) is the session's columnar world with the
/// extended relations under the kRExtended / kSExtended slots: every
/// path blocks through its posting indexes, and the compiled residuals
/// read its id columns, so no column an earlier stage encoded or indexed
/// is rebuilt. Null uses a private world for this build. `block_eval`
/// (staged path only) drains residual candidates in fixed-size
/// PairTruthBlock batches; off evaluates one scalar PairTruth per pair —
/// the block path's differential oracle, identical output either way.
Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules, exec::ThreadPool* pool,
    bool compile = true, bool staged = true,
    exec::ColumnarWorld* world = nullptr, bool block_eval = true);

}  // namespace eid

#endif  // EID_EID_NEGATIVE_H_
