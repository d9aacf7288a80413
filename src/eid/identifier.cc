#include "eid/identifier.h"

#include <algorithm>
#include <memory>

#include "analysis/analyzer.h"
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
  TuplePair pair{r_index, s_index};
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

Result<std::vector<DistinctnessRule>> EffectiveDistinctnessRules(
    const IdentifierConfig& config) {
  std::vector<DistinctnessRule> rules = config.distinctness_rules;
  if (config.distinctness_from_ilfds) {
    for (const Ilfd& f : config.ilfds.ilfds()) {
      for (const Atom& c : f.consequent()) {
        EID_ASSIGN_OR_RETURN(
            DistinctnessRule rule,
            DistinctnessRuleFromIlfd(Ilfd::Implies(f.antecedent(), c)));
        rules.push_back(std::move(rule));
      }
    }
  }
  return rules;
}

Result<IdentificationResult> EntityIdentifier::Identify(
    const Relation& r, const Relation& s) const {
  IdentificationResult out;
  EID_RETURN_IF_ERROR(config_.correspondence.ValidateAgainst(r, s));
  if (config_.matcher_options.analyze) {
    EID_RETURN_IF_ERROR(
        analysis::PreflightCheck(r.schema(), s.schema(), config_));
  }

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
    // BuildMatchingTable would create a second pool; inline its stages
    // on the shared one.
    MatcherOptions options = config_.matcher_options;
    options.threads = threads;
    options.analyze = false;  // the pre-flight above already ran
    EID_ASSIGN_OR_RETURN(
        MatcherResult matcher,
        BuildMatchingTable(r, s, config_.correspondence,
                           *config_.extended_key, config_.ilfds, options,
                           world));
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
    // Pair (i, j) is added iff *some* rule matches in some orientation,
    // visiting pairs row-major after the key-join pairs — the insertion
    // sequence the order-sensitive uniqueness verdict depends on. One
    // staged sweep covers every rule orientation; its stamped emission
    // already yields the deduplicated union in row-major order.
    std::vector<const std::vector<Predicate>*> antecedents;
    for (const IdentityRule& rule : config_.identity_rules) {
      antecedents.push_back(&rule.predicates());
    }
    const std::vector<TuplePair> fired =
        compile::SweepRules(antecedents, out.r_extended, out.s_extended,
                            world, pool_ptr, &identity)
            .pairs;
    for (const TuplePair& pair : fired) {
      Status st = out.matching.Add(pair);
      if (!st.ok()) {
        if (config_.matcher_options.fail_on_uniqueness_violation) {
          return st;
        }
        if (out.uniqueness.ok()) out.uniqueness = st;
      }
    }
    identity.items = fired.size();
    identity.wall_ms = timer.ElapsedMs();
    out.stats.Add(std::move(identity));
  }

  // --- Distinctness rules (explicit + Proposition 1 from ILFDs) ---------
  EID_ASSIGN_OR_RETURN(std::vector<DistinctnessRule> rules,
                       EffectiveDistinctnessRules(config_));
  EID_ASSIGN_OR_RETURN(
      out.negative,
      BuildNegativeMatchingTable(out.r_extended, out.s_extended, rules,
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
