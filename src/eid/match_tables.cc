#include "eid/match_tables.h"

#include <algorithm>

namespace eid {

namespace {

/// Points `row`'s entry of a flat side index at `pair_idx`, growing the
/// vector on demand (row indices are bounded by the relation size).
void Record(std::vector<size_t>* side, size_t row, size_t pair_idx,
            size_t no_pair) {
  if (row >= side->size()) side->resize(row + 1, no_pair);
  (*side)[row] = pair_idx;
}

}  // namespace

Status MatchTable::Add(TuplePair pair) {
  if (negative_) {
    if (pairs_.empty() || pairs_.back() < pair) {
      pairs_.push_back(pair);  // the sweep's and the reference's order
      return Status::Ok();
    }
    auto it = std::lower_bound(pairs_.begin(), pairs_.end(), pair);
    if (!(*it == pair)) pairs_.insert(it, pair);
    return Status::Ok();
  }
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
  Record(&by_r_, pair.r_index, pairs_.size(), kNoPair);
  Record(&by_s_, pair.s_index, pairs_.size(), kNoPair);
  pairs_.push_back(pair);
  return Status::Ok();
}

bool MatchTable::AdoptSorted(std::vector<TuplePair>* pairs) {
  EID_CHECK(negative_ && pairs_.empty());
  auto not_increasing = [](const TuplePair& a, const TuplePair& b) {
    return !(a < b);
  };
  if (std::adjacent_find(pairs->begin(), pairs->end(), not_increasing) !=
      pairs->end()) {
    return false;
  }
  pairs_ = std::move(*pairs);
  pairs->clear();
  return true;
}

Result<MatchTable> MatchTable::FromPairs(bool negative,
                                         std::vector<TuplePair> pairs) {
  MatchTable table(negative);
  if (negative) {
    // Negative tables have no constraint to report; snapshots store a
    // strictly increasing list, which is adopted without a copy.
    if (!std::is_sorted(pairs.begin(), pairs.end())) {
      std::sort(pairs.begin(), pairs.end());
    }
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    table.pairs_ = std::move(pairs);
    return table;
  }
  table.pairs_.reserve(pairs.size());
  for (const TuplePair& pair : pairs) {
    EID_RETURN_IF_ERROR(table.Add(pair));
  }
  return table;
}

bool MatchTable::Contains(const TuplePair& pair) const {
  if (negative_) {
    return std::binary_search(pairs_.begin(), pairs_.end(), pair);
  }
  return HasR(pair.r_index) &&
         pairs_[by_r_[pair.r_index]].s_index == pair.s_index;
}

std::optional<size_t> MatchTable::MatchOfR(size_t r_index) const {
  if (!HasR(r_index)) return std::nullopt;
  return pairs_[by_r_[r_index]].s_index;
}

std::optional<size_t> MatchTable::MatchOfS(size_t s_index) const {
  if (!HasS(s_index)) return std::nullopt;
  return pairs_[by_s_[s_index]].r_index;
}

Result<Relation> MatchTable::ToRelation(const Relation& r, const Relation& s,
                                        const std::string& name) const {
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
  for (const TuplePair& p : pairs_) {
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
                                    const MatchTable& nmt) {
  EID_CHECK(!mt.negative() && nmt.negative());
  // Iterate the smaller table and probe the larger one: the intersection
  // is symmetric, and a dense NMT holds millions of pairs against an MT
  // bounded by min(|R|, |S|), so walking the NMT on every identification
  // would dominate a dense run's teardown.
  const MatchTable& outer = mt.size() <= nmt.size() ? mt : nmt;
  const MatchTable& inner = mt.size() <= nmt.size() ? nmt : mt;
  for (const TuplePair& p : outer.pairs()) {
    if (inner.Contains(p)) {
      return Status::ConstraintViolation(
          "consistency constraint: pair (R" + std::to_string(p.r_index) +
          ", S" + std::to_string(p.s_index) +
          ") appears in both the matching and negative matching tables");
    }
  }
  return Status::Ok();
}

}  // namespace eid
