#include "eid/match_tables.h"

#include <algorithm>
#include <functional>

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

std::optional<size_t> ComplementRows::Find(size_t r) const {
  auto it = std::lower_bound(rows.begin(), rows.end(), r);
  if (it == rows.end() || *it != r) return std::nullopt;
  return static_cast<size_t>(it - rows.begin());
}

std::vector<TuplePair> MatchTable::pairs() const {
  if (complement_.empty()) return pairs_;
  // Merge the explicit pairs and the complement rows by row: no row is
  // in both, and each complement row expands to [0, s_count) minus its
  // missing list.
  std::vector<TuplePair> out;
  out.reserve(size());
  auto explicit_it = pairs_.begin();
  for (size_t k = 0; k < complement_.rows.size(); ++k) {
    const uint32_t r = complement_.rows[k];
    for (; explicit_it != pairs_.end() && explicit_it->r_index < r;
         ++explicit_it) {
      out.push_back(*explicit_it);
    }
    size_t s = 0;
    for (uint32_t skip : complement_.Missing(k)) {
      for (; s < skip; ++s) out.push_back(TuplePair{r, s});
      s = size_t{skip} + 1;
    }
    for (; s < complement_.s_count; ++s) out.push_back(TuplePair{r, s});
  }
  out.insert(out.end(), explicit_it, pairs_.end());
  return out;
}

Status MatchTable::Add(TuplePair pair) {
  if (negative_) {
    EID_CHECK(complement_.empty());
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
  EID_CHECK(pairs_.size() < kNoPair);
  const uint32_t pair_idx = static_cast<uint32_t>(pairs_.size());
  Record(&by_r_, pair.r_index, pair_idx, kNoPair);
  Record(&by_s_, pair.s_index, pair_idx, kNoPair);
  pairs_.push_back(pair);
  return Status::Ok();
}

bool MatchTable::AdoptRows(std::vector<TuplePair>* explicit_pairs,
                           ComplementRows* complement) {
  EID_CHECK(negative_ && pairs_.empty() && complement_.empty());
  const size_t s_count = complement->s_count;
  auto not_increasing = [](const TuplePair& a, const TuplePair& b) {
    return !(a < b);
  };
  if (std::adjacent_find(explicit_pairs->begin(), explicit_pairs->end(),
                         not_increasing) != explicit_pairs->end()) {
    return false;
  }
  const std::vector<uint32_t>& rows = complement->rows;
  const std::vector<uint32_t>& end = complement->end;
  // Ends first: each missing list must lie inside `missing`.
  if (end.size() != rows.size() ||
      (end.empty() ? 0 : end.back()) != complement->missing.size() ||
      !std::is_sorted(end.begin(), end.end())) {
    return false;
  }
  auto explicit_it = explicit_pairs->begin();
  for (size_t k = 0; k < rows.size(); ++k) {
    if (k > 0 && rows[k] <= rows[k - 1]) return false;
    // The explicit pairs are row-major, so one forward walk finds the
    // first explicit pair at or beyond each complement row.
    for (; explicit_it != explicit_pairs->end() &&
           explicit_it->r_index < rows[k];
         ++explicit_it) {
      if (explicit_it->s_index >= s_count) return false;
    }
    if (explicit_it != explicit_pairs->end() &&
        explicit_it->r_index == rows[k]) {
      return false;
    }
    const std::span<const uint32_t> missing = complement->Missing(k);
    if (std::adjacent_find(missing.begin(), missing.end(),
                           std::greater_equal<uint32_t>()) != missing.end() ||
        (!missing.empty() && missing.back() >= s_count)) {
      return false;
    }
  }
  for (; explicit_it != explicit_pairs->end(); ++explicit_it) {
    if (explicit_it->s_index >= s_count) return false;
  }
  pairs_ = std::move(*explicit_pairs);
  explicit_pairs->clear();
  complement_ = std::move(*complement);
  *complement = ComplementRows();
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
    if (std::optional<size_t> k = complement_.Find(pair.r_index)) {
      const std::span<const uint32_t> missing = complement_.Missing(*k);
      return pair.s_index < complement_.s_count &&
             !std::binary_search(missing.begin(), missing.end(),
                                 pair.s_index);
    }
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
  for (const TuplePair& p : pairs()) {
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
