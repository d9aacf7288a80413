#include "eid/negative.h"

#include <algorithm>
#include <utility>

#include "compile/pair_program.h"

namespace eid {

namespace {

/// Moves the sweep's pair and certificate columns into `out`. The sweep
/// emits strictly increasing row-major pairs. Anything else is an engine
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
  exec::ColumnarWorld world;
  return BuildNegativeMatchingTable(r_extended, s_extended, rules, IlfdSet(),
                                    {}, /*pool=*/nullptr, world);
}

Result<NegativeResult> BuildNegativeMatchingTable(
    const Relation& r_extended, const Relation& s_extended,
    const std::vector<DistinctnessRule>& rules, const IlfdSet& ilfds,
    const std::vector<InducedRule>& induced, exec::ThreadPool* pool,
    exec::ColumnarWorld& world) {
  exec::StageTimer timer;
  for (const DistinctnessRule& rule : rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  // A Proposition 1 rule reads e1 through its ILFD's antecedent and e2
  // through the consequent atom, so only an empty antecedent (which
  // Ilfd::Implies builds and the text parser rejects) makes it invalid.
  for (const InducedRule& rule : induced) {
    const Ilfd& ilfd = ilfds.ilfd(rule.ilfd);
    if (!ilfd.antecedent().empty()) continue;
    EID_ASSIGN_OR_RETURN(DistinctnessRule spelled_out,
                         DistinctnessRuleFromIlfd(Ilfd::Implies(
                             {}, ilfd.consequent()[rule.atom])));
    EID_RETURN_IF_ERROR(spelled_out.Validate());
  }
  NegativeResult out;
  out.stats.stage = "distinctness_rules";
  out.stats.threads = pool != nullptr ? pool->threads() : 1;
  out.stats.cross_product = r_extended.size() * s_extended.size();

  // One r-major sweep over all rule orientations; per pair, the first
  // (rule, orientation) that fires is its certificate.
  exec::FiredColumns fired =
      compile::SweepRules(rules, ilfds, induced, r_extended, s_extended,
                          world, pool, &out.stats);
  // The sweep emits unique pairs in strictly increasing row-major order
  // with priority rule * 2 + flipped, so its pair column becomes the
  // table's storage and its priority column the certificates, both by
  // move: each fired pair is written once, by the sweep.
  EID_RETURN_IF_ERROR(AdoptColumns(std::move(fired.pairs),
                                   std::move(fired.priorities), &out));
  out.stats.items = out.table.size();
  out.stats.wall_ms = timer.ElapsedMs();
  return out;
}

}  // namespace eid
