// EntityIdentifier — the library's central public API.
//
// Combines everything the paper proposes into one three-valued
// identification process (§3.2):
//
//   * extended-key equivalence with ILFD derivation fills the matching
//     table MT_RS;
//   * additional identity rules (validated per §3.2) may add matches;
//   * distinctness rules — user-supplied and/or induced from ILFDs by
//     Proposition 1 — fill the negative matching table NMT_RS;
//   * the uniqueness and consistency constraints are verified, yielding
//     the prototype's soundness verdict;
//   * every remaining pair is *undetermined* (Fig. 3's third region).
//
// The identification function is monotonic by construction: it only
// derives pairs certified by a rule, so supplying more rules/ILFDs can
// only grow the matched and non-matched sets (eid/monotonic.h audits this
// property across configuration updates).

#ifndef EID_EID_IDENTIFIER_H_
#define EID_EID_IDENTIFIER_H_

#include <optional>
#include <vector>

#include "eid/matcher.h"
#include "eid/negative.h"
#include "rules/distinctness_rule.h"
#include "rules/identity_rule.h"

namespace eid {

/// The three-valued outcome for one tuple pair (paper §3.2).
enum class MatchDecision { kMatch, kNonMatch, kUndetermined };

const char* MatchDecisionName(MatchDecision decision);

/// Sizes of the three regions of Fig. 3.
struct PairPartition {
  size_t matched = 0;
  size_t non_matched = 0;
  size_t undetermined = 0;
  size_t total = 0;
};

/// Full configuration of an identification run.
struct IdentifierConfig {
  AttributeCorrespondence correspondence;
  /// The extended key; when absent, only explicit identity rules match.
  std::optional<ExtendedKey> extended_key;
  IlfdSet ilfds;
  /// Additional identity rules, evaluated pairwise over extended tuples.
  std::vector<IdentityRule> identity_rules;
  /// Distinctness rules, evaluated pairwise over extended tuples.
  std::vector<DistinctnessRule> distinctness_rules;
  /// Also apply the Proposition 1 rule induced by every ILFD.
  bool distinctness_from_ilfds = true;
  MatcherOptions matcher_options;
};

/// The distinctness rules of an identification run, by position: rule
/// k < explicit_count is explicit rule k, and rule explicit_count + i is
/// the Proposition 1 rule induced[i]. An NMT certificate's rule_index
/// indexes this list (certificate = rule_index * 2 + flipped).
struct DistinctnessRuleList {
  size_t explicit_count = 0;
  std::vector<InducedRule> induced;

  size_t size() const { return explicit_count + induced.size(); }
};

/// The one definition of the distinctness rules' priority order: the
/// explicit rules, then — with `from_ilfds` — the Proposition 1 rule of
/// every consequent atom of every ILFD, ILFDs in order and each ILFD's
/// consequent atoms in order. The engine's sweep, the spelled-out list
/// below, k-way identification and ExplainDecision all number rules
/// through it.
DistinctnessRuleList ListDistinctnessRules(
    const std::vector<DistinctnessRule>& explicit_rules, const IlfdSet& ilfds,
    bool from_ilfds);

/// ListDistinctnessRules for `config`, spelled out as rules: the
/// Proposition 1 ones built by DistinctnessRuleFromIlfd. What
/// eid::reference and IncrementalIdentifier evaluate; Identify registers
/// the induced rules from the ILFD set's atoms instead.
Result<std::vector<DistinctnessRule>> EffectiveDistinctnessRules(
    const IdentifierConfig& config);

/// Outcome of one identification run.
struct IdentificationResult {
  Relation r_extended;  // R' in world naming
  Relation s_extended;  // S'
  /// Derivation provenance per R' / S' row, over config.ilfds' atoms
  /// (ExtensionResult::traces).
  Provenance r_traces;
  Provenance s_traces;
  MatchTable matching;
  NegativeResult negative;
  /// Soundness verdicts: uniqueness over MT, consistency across MT/NMT.
  Status uniqueness;
  Status consistency;
  PairPartition partition;
  /// Per-stage execution counters (extend_r, extend_s, key_join,
  /// identity_rules, distinctness_rules): wall time, thread count,
  /// candidate pairs vs. cross product, rule evaluations. All counts are
  /// deterministic across thread counts; wall_ms is not.
  exec::StageStatsSet stats;

  /// True when both constraints held — the prototype's "extended key is
  /// verified" outcome.
  bool Sound() const { return uniqueness.ok() && consistency.ok(); }

  /// Decision for one pair (indices into the source relations).
  MatchDecision Decide(size_t r_index, size_t s_index) const;

  /// Printable MT / NMT (paper Tables 7 / 4 layout).
  Result<Relation> MatchingRelation(const std::string& name = "MT") const;
  Result<Relation> NegativeRelation(const std::string& name = "NMT") const;
};

/// The identification engine. Construct once per configuration; Identify
/// may be called for any relation pair consistent with the correspondence.
class EntityIdentifier {
 public:
  explicit EntityIdentifier(IdentifierConfig config)
      : config_(std::move(config)) {}

  const IdentifierConfig& config() const { return config_; }
  IdentifierConfig& mutable_config() { return config_; }

  /// Runs the full identification process on (r, s).
  Result<IdentificationResult> Identify(const Relation& r,
                                        const Relation& s) const;

 private:
  IdentifierConfig config_;
};

}  // namespace eid

#endif  // EID_EID_IDENTIFIER_H_
