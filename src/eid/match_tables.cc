#include "eid/match_tables.h"

#include <algorithm>

namespace eid {

namespace {

/// First pair index recorded for `row` in a flat side index, growing the
/// vector on demand (row indices are bounded by the relation size).
void RecordFirst(std::vector<size_t>* side, size_t row, size_t pair_idx,
                 size_t no_pair) {
  if (row >= side->size()) side->resize(row + 1, no_pair);
  if ((*side)[row] == no_pair) (*side)[row] = pair_idx;
}

}  // namespace

uint64_t PackedPairSet::Pack(const TuplePair& p) {
  EID_CHECK(p.r_index < (size_t{1} << 32) && p.s_index < (size_t{1} << 32));
  return (static_cast<uint64_t>(p.r_index) << 32) |
         static_cast<uint64_t>(p.s_index);
}

void PackedPairSet::Reserve(size_t n) {
  // Slots stay at most half full, so probes terminate quickly.
  size_t want = 16;
  while (want < n * 2) want *= 2;
  if (want > slots_.size()) Grow(want);
}

void PackedPairSet::Grow(size_t min_slots) {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(min_slots, kEmpty);
  mask_ = min_slots - 1;
  for (uint64_t key : old) {
    if (key == kEmpty) continue;
    uint64_t i = MixKey(key) & mask_;
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = key;
  }
}

bool PackedPairSet::Insert(uint64_t key) {
  if (slots_.empty() || size_ * 2 >= slots_.size()) {
    Grow(slots_.empty() ? 16 : slots_.size() * 2);
  }
  uint64_t i = MixKey(key) & mask_;
  while (slots_[i] != kEmpty) {
    if (slots_[i] == key) return false;
    i = (i + 1) & mask_;
  }
  slots_[i] = key;
  ++size_;
  return true;
}

bool PackedPairSet::Contains(uint64_t key) const {
  if (slots_.empty()) return false;
  uint64_t i = MixKey(key) & mask_;
  while (slots_[i] != kEmpty) {
    if (slots_[i] == key) return true;
    i = (i + 1) & mask_;
  }
  return false;
}

void MatchTable::MigrateToHash() {
  members_.Reserve(pairs_.size());
  constexpr size_t kPrefetchAhead = 16;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i + kPrefetchAhead < pairs_.size()) {
      members_.PrefetchSlot(PackedPairSet::Pack(pairs_[i + kPrefetchAhead]));
    }
    members_.Insert(PackedPairSet::Pack(pairs_[i]));
  }
  sorted_ = false;
}

Status MatchTable::Add(TuplePair pair) {
  // An out-of-order add ends the sorted-order membership regime: build
  // the hash set once from what is stored, then stay on it. A re-add of
  // the current last pair is the only duplicate a sorted stream can
  // carry, handled below without leaving the regime.
  if (sorted_ && !pairs_.empty() && pair < pairs_.back()) MigrateToHash();
  if (!negative_) {
    if (Contains(pair)) return Status::Ok();
    if (HasR(pair.r_index)) {
      return Status::ConstraintViolation(
          "uniqueness constraint: R tuple " + std::to_string(pair.r_index) +
          " already matched to S tuple " +
          std::to_string(pairs_[by_r_[pair.r_index]].s_index) +
          ", cannot also match S tuple " + std::to_string(pair.s_index));
    }
    if (HasS(pair.s_index)) {
      return Status::ConstraintViolation(
          "uniqueness constraint: S tuple " + std::to_string(pair.s_index) +
          " already matched to R tuple " +
          std::to_string(pairs_[by_s_[pair.s_index]].r_index) +
          ", cannot also match R tuple " + std::to_string(pair.r_index));
    }
  } else if (sorted_) {
    if (!pairs_.empty() && pair == pairs_.back()) {
      return Status::Ok();  // idempotent re-add
    }
  } else if (!members_.Insert(PackedPairSet::Pack(pair))) {
    return Status::Ok();  // idempotent re-add
  }
  size_t idx = pairs_.size();
  pairs_.push_back(pair);
  if (!negative_ && !sorted_) members_.Insert(PackedPairSet::Pack(pair));
  RecordFirst(&by_r_, pair.r_index, idx, kNoPair);
  RecordFirst(&by_s_, pair.s_index, idx, kNoPair);
  return Status::Ok();
}

void MatchTable::AddNegativeBatch(std::span<const TuplePair> pairs) {
  EID_CHECK(negative_);
  pairs_.reserve(pairs_.size() + pairs.size());
  // Far enough ahead to cover DRAM latency, close enough that the lines
  // are still resident when the insert reaches them. Only the hash
  // regime touches DRAM-resident slots; the sorted fast path is a pure
  // append and needs no warming.
  constexpr size_t kPrefetchAhead = 16;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const TuplePair pair = pairs[i];
    if (sorted_) {
      if (!pairs_.empty()) {
        if (pair == pairs_.back()) continue;  // idempotent
        if (pair < pairs_.back()) MigrateToHash();
      }
    }
    if (!sorted_) {
      if (i + kPrefetchAhead < pairs.size()) {
        members_.PrefetchSlot(PackedPairSet::Pack(pairs[i + kPrefetchAhead]));
      }
      if (!members_.Insert(PackedPairSet::Pack(pair))) continue;
    }
    const size_t idx = pairs_.size();
    pairs_.push_back(pair);
    RecordFirst(&by_r_, pair.r_index, idx, kNoPair);
    RecordFirst(&by_s_, pair.s_index, idx, kNoPair);
  }
}

bool MatchTable::AdoptSorted(std::vector<TuplePair>* pairs) {
  EID_CHECK(negative_ && pairs_.empty());
  const std::vector<TuplePair>& in = *pairs;
  for (size_t i = 0; i < in.size(); ++i) {
    if (i > 0 && !(in[i - 1] < in[i])) {
      by_r_.clear();
      by_s_.clear();
      return false;
    }
    RecordFirst(&by_r_, in[i].r_index, i, kNoPair);
    RecordFirst(&by_s_, in[i].s_index, i, kNoPair);
  }
  pairs_ = std::move(*pairs);
  pairs->clear();
  return true;
}

Result<MatchTable> MatchTable::FromPairs(bool negative,
                                         std::vector<TuplePair> pairs) {
  MatchTable table(negative);
  if (negative) {
    // Negative tables have no constraint for the Add loop to report.
    // Snapshots serialize pairs in sorted row-major order, so the list
    // is normally adopted as is; anything else is folded pair by pair.
    if (!table.AdoptSorted(&pairs)) table.AddNegativeBatch(pairs);
    return table;
  }
  table.Reserve(pairs.size());
  for (const TuplePair& pair : pairs) {
    EID_RETURN_IF_ERROR(table.Add(pair));
  }
  return table;
}

void MatchTable::Reserve(size_t n) {
  pairs_.reserve(n);
  // The hash set is sized when (and only if) MigrateToHash builds it: a
  // sorted-order table never allocates probe slots at all.
}

bool MatchTable::Contains(const TuplePair& pair) const {
  if (sorted_) {
    return std::binary_search(pairs_.begin(), pairs_.end(), pair);
  }
  return members_.Contains(PackedPairSet::Pack(pair));
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
  // Iterate the smaller table and probe the larger one's flat set: the
  // intersection is symmetric, and a dense NMT holds tens of millions of
  // pairs against an MT bounded by min(|R|, |S|) — walking the NMT on
  // every identification dominated dense `identify` teardown.
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
