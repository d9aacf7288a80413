#include "eid/negative.h"

#include <algorithm>
#include <utility>

#include "compile/pair_program.h"

namespace eid {

Result<NegativeTable> NegativeTable::FromRows(exec::FiredRows rows) {
  if (!rows.InOrder()) {
    return Status::Internal(
        "distinctness sweep emitted pairs out of row-major order");
  }
  NegativeTable table;
  table.rows_ = std::move(rows);
  return table;
}

NegativeTable NegativeTable::FromPairs(std::vector<TuplePair> pairs) {
  if (!std::is_sorted(pairs.begin(), pairs.end())) {
    std::sort(pairs.begin(), pairs.end());
  }
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  NegativeTable table;
  table.rows_.pairs = std::move(pairs);
  return table;
}

std::vector<TuplePair> NegativeTable::pairs() const {
  std::vector<TuplePair> out;
  rows_.AppendRowMajor(&out, /*out_priorities=*/nullptr);
  return out;
}

std::vector<uint32_t> NegativeTable::certificates() const {
  std::vector<uint32_t> out;
  if (rows_.priorities.size() != rows_.pairs.size()) return out;
  rows_.AppendRowMajor(/*out_pairs=*/nullptr, &out);
  return out;
}

std::optional<NegativePairEvidence> NegativeTable::EvidenceFor(
    const TuplePair& pair) const {
  const std::optional<uint32_t> certificate = rows_.CertificateOf(pair);
  if (!certificate.has_value()) return std::nullopt;
  return NegativePairEvidence::FromCertificate(*certificate);
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
  // (rule, orientation) that fires is its certificate. Its rows, with
  // their certificates, become the table by move: an explicit pair is
  // written once, by the sweep, and a complement row's pairs not at all.
  EID_ASSIGN_OR_RETURN(
      out.table,
      NegativeTable::FromRows(compile::SweepRules(
          rules, ilfds, induced, r_extended, s_extended, world, pool,
          &out.stats)));
  out.stats.items = out.table.size();
  out.stats.wall_ms = timer.ElapsedMs();
  return out;
}

}  // namespace eid
