#include "eid/identifier.h"

#include <algorithm>
#include <memory>

#include "analysis/analyzer.h"
#include "compile/pair_program.h"
#include "exec/blocking_index.h"
#include "exec/candidate_generator.h"

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
  // so a loaded world starts with zero re-interning. The interpreter
  // path (compile = false) uses it for blocking only: its extension,
  // key join and residuals stay a world-free differential oracle.
  exec::ColumnarWorld columnar_world;
  exec::ColumnarWorld* world_ptr =
      config_.matcher_options.compile ? &columnar_world : nullptr;
  if (world_ptr != nullptr &&
      config_.matcher_options.columnar_seeds != nullptr) {
    columnar_world.Seed(*config_.matcher_options.columnar_seeds);
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
                           world_ptr));
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
    ext.compile = config_.matcher_options.compile;
    exec::StageStats extend_r, extend_s;
    EID_ASSIGN_OR_RETURN(ExtensionResult rx,
                         ExtendRelation(r, Side::kR, config_.correspondence,
                                        ExtendedKey(std::vector<std::string>{}),
                                        config_.ilfds, ext, pool_ptr,
                                        &extend_r, world_ptr));
    EID_ASSIGN_OR_RETURN(ExtensionResult sx,
                         ExtendRelation(s, Side::kS, config_.correspondence,
                                        ExtendedKey(std::vector<std::string>{}),
                                        config_.ilfds, ext, pool_ptr,
                                        &extend_s, world_ptr));
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
    // The serial sweep adds pair (i, j) iff *some* rule matches in some
    // orientation, visiting pairs row-major. The rule → pair-set union is
    // orientation- and rule-order-independent, so collect per rule with
    // index-bounded parallel scans, then insert the deduplicated union in
    // row-major order — the exact serial insertion sequence, which the
    // order-sensitive uniqueness verdict depends on.
    const bool compile = config_.matcher_options.compile;
    std::vector<TuplePair> fired;
    if (config_.matcher_options.staged) {
      // Staged sweep: one pass over all rule orientations; the stamped
      // emission already yields the deduplicated union in row-major
      // order, so no sort/unique pass is needed.
      std::vector<exec::BlockingPlan> plans;
      plans.reserve(config_.identity_rules.size() * 2);
      for (const IdentityRule& rule : config_.identity_rules) {
        for (bool flipped : {false, true}) {
          plans.push_back(exec::PlanBlocking(rule.predicates(),
                                             out.r_extended.schema(),
                                             out.s_extended.schema(),
                                             flipped));
        }
      }
      std::vector<std::unique_ptr<exec::StagedEvaluator>> evaluators(
          plans.size());
      EID_SHARED_IMMUTABLE std::unique_ptr<compile::PairFeatureCache> features;
      const double encode_ms_before =
          world_ptr != nullptr ? world_ptr->encode_ms() : 0.0;
      const size_t reuse_before =
          world_ptr != nullptr ? world_ptr->reuse_hits() : 0;
      if (compile) {
        exec::StageTimer compile_timer;
        features = std::make_unique<compile::PairFeatureCache>(
            &out.r_extended, &out.s_extended, &columnar_world,
            exec::WorldRel::kRExtended, exec::WorldRel::kSExtended);
        for (size_t k = 0; k < config_.identity_rules.size(); ++k) {
          for (bool flipped : {false, true}) {
            const size_t i = k * 2 + (flipped ? 1 : 0);
            if (plans[i].impossible) continue;
            evaluators[i] = std::make_unique<compile::StagedConjunction>(
                compile::StagedConjunction::Compile(
                    config_.identity_rules[k].predicates(),
                    plans[i].coverage, out.r_extended, out.s_extended,
                    flipped, features.get()));
          }
        }
        identity.compile_ms = compile_timer.ElapsedMs();
      } else {
        for (size_t k = 0; k < config_.identity_rules.size(); ++k) {
          for (bool flipped : {false, true}) {
            const size_t i = k * 2 + (flipped ? 1 : 0);
            if (plans[i].impossible) continue;
            evaluators[i] = std::make_unique<exec::InterpretedResidual>(
                config_.identity_rules[k].predicates(), plans[i].coverage,
                &out.r_extended, &out.s_extended, flipped);
          }
        }
      }
      exec::CandidateGenerator gen(&out.r_extended, &out.s_extended,
                                   &columnar_world,
                                   config_.matcher_options.block_eval);
      for (size_t i = 0; i < plans.size(); ++i) {
        gen.AddRule(plans[i], evaluators[i].get());
      }
      exec::StagedScanStats scan;
      exec::FiredColumns staged_fired = gen.Run(pool_ptr, &scan);
      identity.candidate_pairs = scan.candidate_pairs;
      identity.rule_evals = scan.rule_evals;
      identity.feature_cache_hits = scan.feature_cache_hits;
      identity.pair_blocks = scan.pair_blocks;
      identity.block_early_exits = scan.block_early_exits;
      identity.block_scalar_fallbacks = scan.block_scalar_fallbacks;
      if (world_ptr != nullptr) {
        identity.columnar_encode_ms =
            world_ptr->encode_ms() - encode_ms_before;
        identity.interner_reuse_hits =
            world_ptr->reuse_hits() - reuse_before;
      }
      fired = std::move(staged_fired.pairs);
    } else {
      std::vector<compile::CompiledConjunction> programs;
      if (compile) {
        exec::StageTimer compile_timer;
        programs.reserve(config_.identity_rules.size() * 2);
        for (const IdentityRule& rule : config_.identity_rules) {
          for (bool flipped : {false, true}) {
            programs.push_back(compile::CompiledConjunction::Compile(
                rule.predicates(), out.r_extended.schema(),
                out.s_extended.schema(), flipped));
          }
        }
        identity.compile_ms = compile_timer.ElapsedMs();
      }
      for (size_t k = 0; k < config_.identity_rules.size(); ++k) {
        const IdentityRule& rule = config_.identity_rules[k];
        for (bool flipped : {false, true}) {
          exec::PairScanStats scan;
          const exec::PairEvaluator* evaluator =
              compile ? &programs[k * 2 + (flipped ? 1 : 0)] : nullptr;
          std::vector<TuplePair> pairs = exec::CollectTruePairs(
              out.r_extended, out.s_extended, rule.predicates(), flipped,
              &columnar_world, pool_ptr, &scan, evaluator);
          identity.candidate_pairs += scan.candidate_pairs;
          identity.rule_evals += scan.rule_evals;
          fired.insert(fired.end(), pairs.begin(), pairs.end());
        }
      }
      std::sort(fired.begin(), fired.end());
      fired.erase(std::unique(fired.begin(), fired.end()), fired.end());
    }
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
                                 pool_ptr, config_.matcher_options.compile,
                                 config_.matcher_options.staged,
                                 &columnar_world,
                                 config_.matcher_options.block_eval));
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
