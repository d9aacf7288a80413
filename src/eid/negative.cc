#include "eid/negative.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "compile/pair_program.h"
#include "exec/blocking_index.h"
#include "exec/candidate_generator.h"

namespace eid {

namespace {

/// Moves a sweep's pair and certificate columns into `out`. Both sweeps
/// emit strictly increasing row-major pairs. Anything else is an engine
/// defect, and folding it through the table's checked path would drop
/// duplicates and misalign the certificates, so it fails instead.
Status AdoptColumns(std::vector<TuplePair> pairs,
                    std::vector<uint32_t> certificates, NegativeResult* out) {
  EID_CHECK(pairs.size() == certificates.size());
  if (!out->table.AdoptSorted(&pairs)) {
    return Status::Internal(
        "distinctness sweep emitted pairs out of row-major order");
  }
  out->evidence = std::move(certificates);
  return Status::Ok();
}

}  // namespace

std::optional<NegativePairEvidence> NegativeResult::EvidenceFor(
    const TuplePair& pair) const {
  const std::vector<TuplePair>& pairs = table.pairs();
  if (evidence.size() != pairs.size()) return std::nullopt;
  auto it = std::lower_bound(pairs.begin(), pairs.end(), pair);
  if (it == pairs.end() || !(*it == pair)) return std::nullopt;
  return NegativePairEvidence::FromCertificate(
      evidence[static_cast<size_t>(it - pairs.begin())]);
}

Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules) {
  return BuildNegativeMatchingTable(r_extended, s_extended, rules,
                                    /*pool=*/nullptr);
}

Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules, exec::ThreadPool* pool,
    bool compile, bool staged, exec::ColumnarWorld* world, bool block_eval) {
  exec::StageTimer timer;
  for (const DistinctnessRule& rule : rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  NegativeResult out;
  out.stats.stage = "distinctness_rules";
  out.stats.threads = pool != nullptr ? pool->threads() : 1;
  out.stats.cross_product = r_extended.size() * s_extended.size();
  exec::ColumnarWorld private_world;
  exec::ColumnarWorld& columnar = world != nullptr ? *world : private_world;

  // The serial sweep visits pairs row-major and keeps, per pair, the
  // first rule that fires — direct orientation tried before flipped.
  // Reproduce that exactly: collect each rule/orientation's true pairs
  // (index-bounded, parallel), then fold them in (rule, orientation)
  // priority order with first-insert-wins, and emit sorted row-major.

  if (staged) {
    // Staged candidate generation: one r-major sweep over all rule
    // orientations, registered in the same (rule, flipped) priority
    // order the oracle folds in — the generator's min-priority-wins
    // emission then reproduces the fold bit-identically.
    std::vector<exec::BlockingPlan> plans;
    plans.reserve(rules.size() * 2);
    for (const DistinctnessRule& rule : rules) {
      for (bool flipped : {false, true}) {
        plans.push_back(exec::PlanBlocking(rule.predicates(),
                                           r_extended.schema(),
                                           s_extended.schema(), flipped));
      }
    }
    std::vector<std::unique_ptr<exec::StagedEvaluator>> evaluators(
        plans.size());
    EID_SHARED_IMMUTABLE std::unique_ptr<compile::PairFeatureCache> features;
    const double encode_ms_before = columnar.encode_ms();
    const size_t reuse_before = columnar.reuse_hits();
    if (compile) {
      exec::StageTimer compile_timer;
      features = std::make_unique<compile::PairFeatureCache>(
          &r_extended, &s_extended, &columnar, exec::WorldRel::kRExtended,
          exec::WorldRel::kSExtended);
      for (size_t k = 0; k < rules.size(); ++k) {
        for (bool flipped : {false, true}) {
          const size_t i = k * 2 + (flipped ? 1 : 0);
          if (plans[i].impossible) continue;
          evaluators[i] = std::make_unique<compile::StagedConjunction>(
              compile::StagedConjunction::Compile(
                  rules[k].predicates(), plans[i].coverage, r_extended,
                  s_extended, flipped, features.get()));
        }
      }
      out.stats.compile_ms = compile_timer.ElapsedMs();
    } else {
      for (size_t k = 0; k < rules.size(); ++k) {
        for (bool flipped : {false, true}) {
          const size_t i = k * 2 + (flipped ? 1 : 0);
          if (plans[i].impossible) continue;
          evaluators[i] = std::make_unique<exec::InterpretedResidual>(
              rules[k].predicates(), plans[i].coverage, &r_extended,
              &s_extended, flipped);
        }
      }
    }

    exec::CandidateGenerator gen(&r_extended, &s_extended, &columnar,
                                 block_eval);
    for (size_t i = 0; i < plans.size(); ++i) {
      gen.AddRule(plans[i], evaluators[i].get());
    }
    exec::StagedScanStats scan;
    exec::FiredColumns fired = gen.Run(pool, &scan);
    out.stats.candidate_pairs = scan.candidate_pairs;
    out.stats.rule_evals = scan.rule_evals;
    out.stats.feature_cache_hits = scan.feature_cache_hits;
    out.stats.pair_blocks = scan.pair_blocks;
    out.stats.block_early_exits = scan.block_early_exits;
    out.stats.block_scalar_fallbacks = scan.block_scalar_fallbacks;
    if (compile) {
      out.stats.columnar_encode_ms = columnar.encode_ms() - encode_ms_before;
      out.stats.interner_reuse_hits = columnar.reuse_hits() - reuse_before;
    }
    // The generator emits unique pairs in strictly increasing row-major
    // order and registered (rule, flipped) at priority rule * 2 + flipped,
    // so its pair column becomes the table's storage and its priority
    // column the certificates, both by move: each fired pair is written
    // once, by the sweep.
    EID_RETURN_IF_ERROR(AdoptColumns(std::move(fired.pairs),
                                     std::move(fired.priorities), &out));
    out.stats.items = out.table.size();
    out.stats.wall_ms = timer.ElapsedMs();
    return out;
  }

  // Bind every rule antecedent to the two schemas once per orientation;
  // the sweep then evaluates candidates without name lookups.
  std::vector<compile::CompiledConjunction> programs;
  if (compile) {
    exec::StageTimer compile_timer;
    programs.reserve(rules.size() * 2);
    for (const DistinctnessRule& rule : rules) {
      for (bool flipped : {false, true}) {
        programs.push_back(compile::CompiledConjunction::Compile(
            rule.predicates(), r_extended.schema(), s_extended.schema(),
            flipped));
      }
    }
    out.stats.compile_ms = compile_timer.ElapsedMs();
  }

  std::map<TuplePair, uint32_t> best;  // pair -> certificate
  for (size_t k = 0; k < rules.size(); ++k) {
    const std::vector<Predicate>& preds = rules[k].predicates();
    for (bool flipped : {false, true}) {
      exec::PairScanStats scan;
      const exec::PairEvaluator* evaluator =
          compile ? &programs[k * 2 + (flipped ? 1 : 0)] : nullptr;
      std::vector<TuplePair> fired =
          exec::CollectTruePairs(r_extended, s_extended, preds, flipped,
                                 &columnar, pool, &scan, evaluator);
      out.stats.candidate_pairs += scan.candidate_pairs;
      out.stats.rule_evals += scan.rule_evals;
      const uint32_t certificate =
          static_cast<uint32_t>(k * 2 + (flipped ? 1 : 0));
      for (const TuplePair& p : fired) {
        best.emplace(p, certificate);  // first wins
      }
    }
  }
  std::vector<TuplePair> pairs;
  std::vector<uint32_t> certificates;
  pairs.reserve(best.size());
  certificates.reserve(best.size());
  for (const auto& [pair, certificate] : best) {
    pairs.push_back(pair);
    certificates.push_back(certificate);
  }
  EID_RETURN_IF_ERROR(
      AdoptColumns(std::move(pairs), std::move(certificates), &out));
  out.stats.items = out.table.size();
  out.stats.wall_ms = timer.ElapsedMs();
  return out;
}

}  // namespace eid
