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
// Evaluation runs through the staged candidate generator
// (src/exec/candidate_generator.h): each rule's equality conjuncts bound
// its candidate pairs through the session world's posting indexes, and
// candidates are swept in parallel. The resulting table, certificate
// column and ordering equal eid::reference's nested-loop sweep for any
// thread count.

#ifndef EID_EID_NEGATIVE_H_
#define EID_EID_NEGATIVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "eid/match_tables.h"
#include "exec/columnar_world.h"
#include "exec/stage_stats.h"
#include "exec/thread_pool.h"
#include "rules/distinctness_rule.h"

namespace eid {

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
/// world-named) relations, in a columnar world of its own. Rules must be
/// well-formed (Validate() is called; the first invalid rule fails the
/// build).
Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules);

/// Pool-sharing form used by the engine (null pool = serial sweep).
/// `world` is the session's columnar world with the extended relations
/// under the kRExtended / kSExtended slots (or without those slots yet):
/// the sweep blocks through its posting indexes and the compiled
/// residuals (compile::StagedConjunction) read its id columns, so no
/// column an earlier stage encoded or indexed is rebuilt.
Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules, exec::ThreadPool* pool,
    exec::ColumnarWorld& world);

}  // namespace eid

#endif  // EID_EID_NEGATIVE_H_
