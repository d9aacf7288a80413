#include "eid/identifier.h"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "compile/pair_program.h"

namespace eid {

const char* MatchDecisionName(MatchDecision decision) {
  switch (decision) {
    case MatchDecision::kMatch: return "match";
    case MatchDecision::kNonMatch: return "non-match";
    case MatchDecision::kUndetermined: return "undetermined";
  }
  return "?";
}

MatchDecision IdentificationResult::Decide(size_t r_index,
                                           size_t s_index) const {
  // Neither table holds a row beyond the relations, and such a row may
  // not fit in a TuplePair.
  if (r_index >= r_extended.size() || s_index >= s_extended.size()) {
    return MatchDecision::kUndetermined;
  }
  const TuplePair pair{r_index, s_index};
  if (matching.Contains(pair)) return MatchDecision::kMatch;
  if (negative.table.Contains(pair)) return MatchDecision::kNonMatch;
  return MatchDecision::kUndetermined;
}

Result<Relation> IdentificationResult::MatchingRelation(
    const std::string& name) const {
  return matching.ToRelation(r_extended, s_extended, name);
}

Result<Relation> IdentificationResult::NegativeRelation(
    const std::string& name) const {
  return negative.table.ToRelation(r_extended, s_extended, name);
}

DistinctnessRuleList ListDistinctnessRules(
    const std::vector<DistinctnessRule>& explicit_rules, const IlfdSet& ilfds,
    bool from_ilfds) {
  DistinctnessRuleList list;
  list.explicit_count = explicit_rules.size();
  if (!from_ilfds) return list;
  for (uint32_t f = 0; f < ilfds.size(); ++f) {
    const size_t heads = ilfds.ilfd(f).consequent().size();
    for (uint32_t atom = 0; atom < heads; ++atom) {
      list.induced.push_back(InducedRule{f, atom});
    }
  }
  // A certificate holds rule_index * 2 + flipped in 32 bits.
  EID_CHECK(list.size() <= UINT32_MAX / 2);
  return list;
}

Result<std::vector<DistinctnessRule>> EffectiveDistinctnessRules(
    const IdentifierConfig& config) {
  const DistinctnessRuleList list =
      ListDistinctnessRules(config.distinctness_rules, config.ilfds,
                            config.distinctness_from_ilfds);
  std::vector<DistinctnessRule> rules = config.distinctness_rules;
  rules.reserve(list.size());
  for (const InducedRule& induced : list.induced) {
    const Ilfd& f = config.ilfds.ilfd(induced.ilfd);
    EID_ASSIGN_OR_RETURN(DistinctnessRule rule,
                         DistinctnessRuleFromIlfd(Ilfd::Implies(
                             f.antecedent(), f.consequent()[induced.atom])));
    rules.push_back(std::move(rule));
  }
  return rules;
}

Result<IdentificationResult> EntityIdentifier::Identify(
    const Relation& r, const Relation& s) const {
  IdentificationResult out;
  EID_RETURN_IF_ERROR(config_.correspondence.ValidateAgainst(r, s));

  const int threads = exec::ResolveThreads(config_.matcher_options.threads);
  exec::ThreadPool pool(threads);
  exec::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;

  // Session columnar world (exec/columnar_world.h): one dictionary, one
  // set of id columns and their posting indexes shared by the extension,
  // join and rule stages below. Seeded from the snapshot when available,
  // so a loaded world starts with zero re-interning.
  exec::ColumnarWorld world;
  if (config_.matcher_options.columnar_seeds != nullptr) {
    world.Seed(*config_.matcher_options.columnar_seeds);
  }

  // --- Extension + extended-key matching -------------------------------
  out.uniqueness = Status::Ok();
  if (config_.extended_key.has_value()) {
    EID_ASSIGN_OR_RETURN(
        MatcherResult matcher,
        BuildMatchingTable(r, s, config_.correspondence,
                           *config_.extended_key, config_.ilfds,
                           config_.matcher_options, pool_ptr, world));
    out.r_extended = std::move(matcher.r_extension.extended);
    out.s_extended = std::move(matcher.s_extension.extended);
    out.r_traces = std::move(matcher.r_extension.traces);
    out.s_traces = std::move(matcher.s_extension.traces);
    out.matching = std::move(matcher.matching);
    out.uniqueness = std::move(matcher.uniqueness);
    out.stats.Merge(matcher.stats);
  } else {
    // No extended key: extend with every derivable attribute so the
    // explicit rules see the richest tuples.
    ExtensionOptions ext = config_.matcher_options.extension;
    ext.derive_all = true;
    exec::StageStats extend_r, extend_s;
    EID_ASSIGN_OR_RETURN(ExtensionResult rx,
                         ExtendRelation(r, Side::kR, config_.correspondence,
                                        ExtendedKey(std::vector<std::string>{}),
                                        config_.ilfds, ext, pool_ptr,
                                        &extend_r, world));
    EID_ASSIGN_OR_RETURN(ExtensionResult sx,
                         ExtendRelation(s, Side::kS, config_.correspondence,
                                        ExtendedKey(std::vector<std::string>{}),
                                        config_.ilfds, ext, pool_ptr,
                                        &extend_s, world));
    out.r_extended = std::move(rx.extended);
    out.s_extended = std::move(sx.extended);
    out.r_traces = std::move(rx.traces);
    out.s_traces = std::move(sx.traces);
    out.stats.Add(std::move(extend_r));
    out.stats.Add(std::move(extend_s));
  }

  // --- Additional identity rules ----------------------------------------
  for (const IdentityRule& rule : config_.identity_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  if (!config_.identity_rules.empty()) {
    exec::StageTimer timer;
    exec::StageStats identity;
    identity.stage = "identity_rules";
    identity.threads = threads;
    identity.cross_product = out.r_extended.size() * out.s_extended.size();
    // Pair (i, j) is added iff *some* rule matches, visiting pairs
    // row-major after the key-join pairs — the insertion sequence the
    // order-sensitive uniqueness verdict depends on. One staged sweep
    // covers every rule, in the direct orientation only (a valid rule
    // fires on the same pairs flipped); its stamped emission already
    // yields the deduplicated union in row-major order.
    const std::vector<TuplePair> fired =
        compile::SweepRules(config_.identity_rules, out.r_extended,
                            out.s_extended, world, pool_ptr, &identity)
            .pairs;
    AddMatches(fired, &out.matching, &out.uniqueness);
    identity.items = fired.size();
    identity.wall_ms = timer.ElapsedMs();
    out.stats.Add(std::move(identity));
  }

  // --- Distinctness rules (explicit + Proposition 1 from ILFDs) ---------
  // The induced rules go to the sweep as (ILFD, consequent atom)
  // positions; it registers them from the ILFD set's atoms.
  EID_ASSIGN_OR_RETURN(
      out.negative,
      BuildNegativeMatchingTable(
          out.r_extended, out.s_extended, config_.distinctness_rules,
          config_.ilfds,
          ListDistinctnessRules(config_.distinctness_rules, config_.ilfds,
                                config_.distinctness_from_ilfds)
              .induced,
          pool_ptr, world));
  out.stats.Add(out.negative.stats);

  // --- Constraint verification ------------------------------------------
  out.consistency =
      MatchTable::CheckConsistency(out.matching, out.negative.table);

  // --- Partition (Fig. 3) ------------------------------------------------
  out.partition.total = out.r_extended.size() * out.s_extended.size();
  out.partition.matched = out.matching.size();
  out.partition.non_matched = out.negative.table.size();
  // A pair in both tables (consistency violation) would be double-counted;
  // consistency status already reports that case.
  out.partition.undetermined =
      out.partition.total -
      std::min(out.partition.total,
               out.partition.matched + out.partition.non_matched);
  return out;
}

}  // namespace eid
