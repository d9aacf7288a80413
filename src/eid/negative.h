// Negative matching table construction via distinctness rules (paper §4.1,
// Proposition 1 and Table 4).
//
// Every pair of (extended) tuples for which some distinctness rule's
// antecedent evaluates to true is a known-distinct pair. The paper notes
// the number of non-matching pairs is usually far larger than matching
// pairs, so NMT_RS is conceptual. This module keeps exactly the pairs the
// supplied rules certify, which is what consistency checking and the
// three-valued decision function need, without writing each one: a row
// that holds most of S is stored by its complement and the rules that
// fired on it (DESIGN.md §4d).
//
// Evaluation runs through the staged candidate generator
// (src/exec/candidate_generator.h): each rule's equality conjuncts bound
// its candidate pairs through the session world's posting indexes, and
// candidates are swept in parallel. The resulting table, certificates
// and ordering equal eid::reference's nested-loop sweep for any thread
// count.

#ifndef EID_EID_NEGATIVE_H_
#define EID_EID_NEGATIVE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eid/match_tables.h"
#include "exec/candidate_generator.h"
#include "exec/columnar_world.h"
#include "exec/stage_stats.h"
#include "exec/thread_pool.h"
#include "ilfd/ilfd_set.h"
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

/// The negative matching table NMT (paper §3.2): row-index pairs with no
/// uniqueness constraint, row-major, built once and never changed. Its
/// rows are an exec::FiredRows, whose module writes the row format and
/// alone reads it (DESIGN.md §4d): a row that holds most of S is stored by
/// its complement, so pairs() and certificates() are built on each call
/// and a caller that reads one twice keeps one copy.
class NegativeTable {
 public:
  /// Takes a sweep's rows (or the reference's explicit ones) by move,
  /// after one pass of checks (exec::FiredRows::InOrder). Internal error
  /// when a row list is out of order or range: an engine defect, which
  /// folding the rows through a pair list would hide.
  static Result<NegativeTable> FromRows(exec::FiredRows rows);

  /// The table of `pairs` (snapshot load, baselines), sorted and
  /// deduplicated; a strictly increasing list, what snapshots store, is
  /// taken by move. Every row is explicit and carries no certificate.
  static NegativeTable FromPairs(std::vector<TuplePair> pairs);

  size_t size() const { return rows_.size(); }
  bool empty() const { return size() == 0; }
  bool Contains(const TuplePair& pair) const { return rows_.Contains(pair); }
  /// Row-major.
  std::vector<TuplePair> pairs() const;

  /// The certificate column, aligned with pairs(): per pair the first
  /// (rule, orientation) whose antecedent is true on it (see
  /// NegativePairEvidence). A complement row is replayed from the rules
  /// that fired on it. Empty for a table built from a pair list.
  std::vector<uint32_t> certificates() const;

  /// The certificate of `pair`, from its row alone; nullopt when the
  /// table does not hold the pair or was built from a pair list.
  std::optional<NegativePairEvidence> EvidenceFor(const TuplePair& pair) const;

  /// PairsToRelation over pairs().
  Result<Relation> ToRelation(const Relation& r, const Relation& s,
                              const std::string& name = "NMT") const {
    return PairsToRelation(pairs(), r, s, name);
  }

 private:
  exec::FiredRows rows_;
};

/// Result of negative-table construction.
struct NegativeResult {
  NegativeTable table;
  /// Counters of the sweep ("distinctness_rules" stage).
  exec::StageStats stats;
};

/// Evaluates every rule over every pair of rows of the two (extended,
/// world-named) relations, in a columnar world of its own. Rules must be
/// well-formed (Validate() is called; the first invalid rule fails the
/// build).
Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules);

/// The engine's form: the explicit `rules`, then the Proposition 1
/// rules `induced` of `ilfds`, registered straight from the set's atoms
/// (compile::SweepRules); rule_index counts `rules` and then `induced`.
/// Rules are validated in that order and the first invalid one fails
/// the build: an induced rule fails only when its ILFD has no
/// antecedent, with the text its spelled-out DistinctnessRule gives.
/// Null pool = serial sweep. `world` is the session's columnar world
/// with the extended relations under the kRExtended / kSExtended slots
/// (or without those slots yet): the sweep blocks through its posting
/// indexes and the compiled residuals (compile::StagedConjunction) read
/// its id columns, so no column an earlier stage encoded or indexed is
/// rebuilt.
Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules, const IlfdSet& ilfds,
    const std::vector<InducedRule>& induced, exec::ThreadPool* pool,
    exec::ColumnarWorld& world);

}  // namespace eid

#endif  // EID_EID_NEGATIVE_H_
