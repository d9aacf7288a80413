#include "eid/negative.h"

#include <algorithm>
#include <utility>

#include "compile/pair_program.h"

namespace eid {

Status NegativeResult::Adopt(exec::FiredRows rows) {
  EID_CHECK(rows.pairs.size() == rows.priorities.size());
  const size_t complement_rows = rows.complement.rows.size();
  EID_CHECK(rows.certificates.fired_end.size() == complement_rows &&
            rows.certificates.exceptions_end.size() == complement_rows);
  if (!table.AdoptRows(&rows.pairs, &rows.complement)) {
    return Status::Internal(
        "distinctness sweep emitted pairs out of row-major order");
  }
  certificates_ = std::move(rows.priorities);
  complement_ = std::move(rows.certificates);
  return Status::Ok();
}

std::vector<uint32_t> NegativeResult::evidence() const {
  std::vector<uint32_t> out;
  // A table changed after adoption has no certificates for its pairs.
  if (certificates_.size() != table.explicit_pairs().size()) return out;
  exec::AppendRowMajor(table.explicit_pairs(), certificates_,
                       table.complement_rows(), complement_,
                       /*out_pairs=*/nullptr, &out);
  return out;
}

std::optional<NegativePairEvidence> NegativeResult::EvidenceFor(
    const TuplePair& pair) const {
  if (!table.Contains(pair)) return std::nullopt;
  if (std::optional<size_t> k = table.complement_rows().Find(pair.r_index)) {
    return NegativePairEvidence::FromCertificate(
        complement_.CertificateOf(*k, pair.r_index, pair.s_index));
  }
  const std::vector<TuplePair>& pairs = table.explicit_pairs();
  if (certificates_.size() != pairs.size()) return std::nullopt;
  auto it = std::lower_bound(pairs.begin(), pairs.end(), pair);
  return NegativePairEvidence::FromCertificate(
      certificates_[static_cast<size_t>(it - pairs.begin())]);
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
  // (rule, orientation) that fires is its certificate. Its rows become
  // the table and the certificates by move: an explicit pair is written
  // once, by the sweep, and a complement row's pairs not at all.
  EID_RETURN_IF_ERROR(out.Adopt(
      compile::SweepRules(rules, ilfds, induced, r_extended, s_extended,
                          world, pool, &out.stats)));
  out.stats.items = out.table.size();
  out.stats.wall_ms = timer.ElapsedMs();
  return out;
}

}  // namespace eid
