#include "eid/match_tables.h"

#include "eid/negative.h"

namespace eid {

namespace {

/// Points `row`'s entry of a flat side index at `pair_idx`, growing the
/// vector on demand (row indices are bounded by the relation size).
void Record(std::vector<uint32_t>* side, size_t row, uint32_t pair_idx,
            uint32_t no_pair) {
  if (row >= side->size()) side->resize(row + 1, no_pair);
  (*side)[row] = pair_idx;
}

}  // namespace

Status MatchTable::Add(TuplePair pair) {
  if (HasR(pair.r_index)) {
    const size_t matched = pairs_[by_r_[pair.r_index]].s_index;
    if (matched == pair.s_index) return Status::Ok();  // idempotent re-add
    return Status::ConstraintViolation(
        "uniqueness constraint: R tuple " + std::to_string(pair.r_index) +
        " already matched to S tuple " + std::to_string(matched) +
        ", cannot also match S tuple " + std::to_string(pair.s_index));
  }
  if (HasS(pair.s_index)) {
    return Status::ConstraintViolation(
        "uniqueness constraint: S tuple " + std::to_string(pair.s_index) +
        " already matched to R tuple " +
        std::to_string(pairs_[by_s_[pair.s_index]].r_index) +
        ", cannot also match R tuple " + std::to_string(pair.r_index));
  }
  EID_CHECK(pairs_.size() < kNoPair);
  const uint32_t pair_idx = static_cast<uint32_t>(pairs_.size());
  Record(&by_r_, pair.r_index, pair_idx, kNoPair);
  Record(&by_s_, pair.s_index, pair_idx, kNoPair);
  pairs_.push_back(pair);
  return Status::Ok();
}

Result<MatchTable> MatchTable::FromPairs(
    const std::vector<TuplePair>& pairs) {
  MatchTable table;
  table.pairs_.reserve(pairs.size());
  for (const TuplePair& pair : pairs) {
    EID_RETURN_IF_ERROR(table.Add(pair));
  }
  return table;
}

std::optional<size_t> MatchTable::MatchOfR(size_t r_index) const {
  if (!HasR(r_index)) return std::nullopt;
  return pairs_[by_r_[r_index]].s_index;
}

std::optional<size_t> MatchTable::MatchOfS(size_t s_index) const {
  if (!HasS(s_index)) return std::nullopt;
  return pairs_[by_s_[s_index]].r_index;
}

Result<Relation> PairsToRelation(const std::vector<TuplePair>& pairs,
                                 const Relation& r, const Relation& s,
                                 const std::string& name) {
  std::vector<size_t> r_key = r.PrimaryKeyIndices();
  std::vector<size_t> s_key = s.PrimaryKeyIndices();
  std::vector<Attribute> attrs;
  for (size_t i : r_key) {
    Attribute a = r.schema().attribute(i);
    a.name = "R." + a.name;
    attrs.push_back(std::move(a));
  }
  for (size_t i : s_key) {
    Attribute a = s.schema().attribute(i);
    a.name = "S." + a.name;
    attrs.push_back(std::move(a));
  }
  Relation out(name, Schema(std::move(attrs)));
  for (const TuplePair& p : pairs) {
    if (p.r_index >= r.size() || p.s_index >= s.size()) {
      return Status::InvalidArgument(
          "match table indices out of range for the supplied relations");
    }
    Row row;
    for (size_t i : r_key) row.push_back(r.row(p.r_index)[i]);
    for (size_t i : s_key) row.push_back(s.row(p.s_index)[i]);
    EID_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

Status MatchTable::CheckConsistency(const MatchTable& mt,
                                    const NegativeTable& nmt) {
  // MT is bounded by min(|R|, |S|) and a dense NMT holds millions of
  // pairs, so probe the NMT with MT's pairs unless the NMT is smaller:
  // walking it on every identification would dominate a dense run.
  auto violation = [](const TuplePair& p) {
    return Status::ConstraintViolation(
        "consistency constraint: pair (R" + std::to_string(p.r_index) +
        ", S" + std::to_string(p.s_index) +
        ") appears in both the matching and negative matching tables");
  };
  if (mt.size() <= nmt.size()) {
    for (const TuplePair& p : mt.pairs()) {
      if (nmt.Contains(p)) return violation(p);
    }
  } else {
    for (const TuplePair& p : nmt.pairs()) {
      if (mt.Contains(p)) return violation(p);
    }
  }
  return Status::Ok();
}

}  // namespace eid
