#include "exec/candidate_generator.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <new>
#include <numeric>
#include <tuple>

namespace eid {
namespace exec {

namespace {

/// Appends the s rows whose bits are set, ascending, as pairs of r row
/// `row` with their `best` priority (pairs only when `pairs` is non-null),
/// and clears the bits: how a dense explicit row is emitted, by the sweep
/// and by the replay of a complement row alike.
void EmitBits(uint32_t row, std::vector<uint64_t>* bits,
              const std::vector<uint32_t>& best,
              std::vector<TuplePair>* pairs,
              std::vector<uint32_t>* priorities) {
  for (size_t w = 0; w < bits->size(); ++w) {
    uint64_t set = (*bits)[w];
    if (set == 0) continue;
    (*bits)[w] = 0;
    for (; set != 0; set &= set - 1) {
      const uint32_t s = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(std::countr_zero(set)));
      if (pairs != nullptr) pairs->push_back(TuplePair{row, s});
      priorities->push_back(best[s]);
    }
  }
}

}  // namespace

uint32_t RowRules::AddAll(uint32_t priority) {
  RowRule rule;
  rule.kind = RowRule::Kind::kAll;
  rule.priority = priority;
  rules_.push_back(rule);
  return static_cast<uint32_t>(rules_.size() - 1);
}

std::pair<uint32_t, uint32_t> RowRules::Pool(PostingRange rows) {
  const size_t begin = pool_.size();
  pool_.insert(pool_.end(), rows.begin(), rows.end());
  EID_CHECK(pool_.size() < UINT32_MAX);
  return {static_cast<uint32_t>(begin), static_cast<uint32_t>(pool_.size())};
}

uint32_t RowRules::AddList(uint32_t priority,
                           const std::vector<uint32_t>& s_rows) {
  RowRule rule;
  rule.kind = RowRule::Kind::kList;
  rule.priority = priority;
  std::tie(rule.begin, rule.end) =
      Pool(PostingRange{s_rows.data(), s_rows.data() + s_rows.size()});
  rules_.push_back(rule);
  return static_cast<uint32_t>(rules_.size() - 1);
}

uint32_t RowRules::AddDrain(uint32_t priority, uint32_t s_column,
                            std::pair<uint32_t, uint32_t> excluded) {
  RowRule rule;
  rule.kind = RowRule::Kind::kDrain;
  rule.priority = priority;
  rule.s_column = s_column;
  std::tie(rule.begin, rule.end) = excluded;
  rules_.push_back(rule);
  return static_cast<uint32_t>(rules_.size() - 1);
}

uint32_t RowRules::AddColumnNotEqual(uint32_t priority, uint32_t s_column,
                                     uint32_t r_column) {
  EID_CHECK(s_columns_[s_column].index != nullptr);
  RowRule rule;
  rule.kind = RowRule::Kind::kColumnNotEqual;
  rule.priority = priority;
  rule.s_column = s_column;
  rule.r_column = r_column;
  rules_.push_back(rule);
  return static_cast<uint32_t>(rules_.size() - 1);
}

uint32_t RowRules::AddSColumn(const std::vector<uint32_t>& ids,
                              const ColumnIndex* index) {
  EID_CHECK(ids.size() == s_count_);
  SColumn column;
  column.non_null.assign((s_count_ + 63) / 64, 0);
  for (size_t s = 0; s < s_count_; ++s) {
    column.non_null[s / 64] |= uint64_t{ids[s] != ColumnarWorld::kNullId}
                               << (s % 64);
  }
  if (index != nullptr) column.index = std::make_unique<ColumnIndex>(*index);
  s_columns_.push_back(std::move(column));
  return static_cast<uint32_t>(s_columns_.size() - 1);
}

uint32_t RowRules::AddRColumn(const std::vector<uint32_t>& ids) {
  r_columns_.push_back(ids);
  return static_cast<uint32_t>(r_columns_.size() - 1);
}

bool RowRules::Holds(uint32_t i, uint32_t r, uint32_t s) const {
  const RowRule& rule = rules_[i];
  if (s >= s_count_) return false;
  auto in_pool = [&](uint32_t begin, uint32_t end) {
    return std::binary_search(pool_.begin() + begin, pool_.begin() + end, s);
  };
  auto non_null = [&]() {
    return (s_columns_[rule.s_column].non_null[s / 64] >> (s % 64) & 1) != 0;
  };
  switch (rule.kind) {
    case RowRule::Kind::kAll:
      return true;
    case RowRule::Kind::kList:
      return in_pool(rule.begin, rule.end);
    case RowRule::Kind::kDrain:
      return non_null() && !in_pool(rule.begin, rule.end);
    case RowRule::Kind::kColumnNotEqual: {
      const uint32_t id = r_columns_[rule.r_column][r];
      if (id == ColumnarWorld::kNullId || !non_null()) return false;
      const PostingRange same = s_columns_[rule.s_column].index->Find(id);
      return !std::binary_search(same.begin(), same.end(), s);
    }
  }
  return false;
}

std::optional<size_t> ComplementRows::Find(size_t r) const {
  auto it = std::lower_bound(rows.begin(), rows.end(), r);
  if (it == rows.end() || *it != r) return std::nullopt;
  return static_cast<size_t>(it - rows.begin());
}

bool FiredRows::Contains(const TuplePair& pair) const {
  if (std::optional<size_t> k = complement.Find(pair.r_index)) {
    const std::span<const uint32_t> skipped = complement.Missing(*k);
    return pair.s_index < complement.s_count &&
           !std::binary_search(skipped.begin(), skipped.end(), pair.s_index);
  }
  return std::binary_search(pairs.begin(), pairs.end(), pair);
}

bool FiredRows::InOrder() const {
  const size_t complement_rows = complement.rows.size();
  EID_CHECK(pairs.size() == priorities.size());
  EID_CHECK(certificates.fired_end.size() == complement_rows &&
            certificates.exceptions_end.size() == complement_rows);
  const size_t s_count = complement.s_count;
  auto not_increasing = [](const TuplePair& a, const TuplePair& b) {
    return !(a < b);
  };
  if (std::adjacent_find(pairs.begin(), pairs.end(), not_increasing) !=
      pairs.end()) {
    return false;
  }
  const std::vector<uint32_t>& rows = complement.rows;
  const std::vector<uint32_t>& end = complement.end;
  // Ends first: each missing list must lie inside `missing`.
  if (end.size() != rows.size() ||
      (end.empty() ? 0 : end.back()) != complement.missing.size() ||
      !std::is_sorted(end.begin(), end.end())) {
    return false;
  }
  auto explicit_it = pairs.begin();
  for (size_t k = 0; k < rows.size(); ++k) {
    if (k > 0 && rows[k] <= rows[k - 1]) return false;
    // The explicit pairs are row-major, so one forward walk finds the
    // first explicit pair at or beyond each complement row.
    for (; explicit_it != pairs.end() && explicit_it->r_index < rows[k];
         ++explicit_it) {
      if (explicit_it->s_index >= s_count) return false;
    }
    if (explicit_it != pairs.end() && explicit_it->r_index == rows[k]) {
      return false;
    }
    const std::span<const uint32_t> skipped = complement.Missing(k);
    if (std::adjacent_find(skipped.begin(), skipped.end(),
                           std::greater_equal<uint32_t>()) != skipped.end() ||
        (!skipped.empty() && skipped.back() >= s_count)) {
      return false;
    }
  }
  for (; explicit_it != pairs.end(); ++explicit_it) {
    if (explicit_it->s_index >= s_count) return false;
  }
  return true;
}

std::optional<uint32_t> FiredRows::CertificateOf(
    const TuplePair& pair) const {
  if (!Contains(pair)) return std::nullopt;
  const std::optional<size_t> row = complement.Find(pair.r_index);
  if (!row.has_value()) {
    if (priorities.empty()) return std::nullopt;  // a pair list's rows
    auto it = std::lower_bound(pairs.begin(), pairs.end(), pair);
    return priorities[static_cast<size_t>(it - pairs.begin())];
  }
  const size_t k = *row;
  const ComplementCertificates& c = certificates;
  uint32_t best = UINT32_MAX;
  const uint32_t* first =
      c.exception_s.data() + (k == 0 ? 0 : c.exceptions_end[k - 1]);
  const uint32_t* last = c.exception_s.data() + c.exceptions_end[k];
  const uint32_t* at = std::lower_bound(first, last, pair.s_index);
  if (at != last && *at == pair.s_index) {
    best = c.exception_priority[static_cast<size_t>(at -
                                                    c.exception_s.data())];
  }
  // The row's rules ascend by priority: the first that holds s is theirs.
  for (uint32_t j = k == 0 ? 0 : c.fired_end[k - 1]; j < c.fired_end[k];
       ++j) {
    if (c.rules->rule(c.fired[j]).priority >= best) break;
    if (c.rules->Holds(c.fired[j], pair.r_index, pair.s_index)) {
      return c.rules->rule(c.fired[j]).priority;
    }
  }
  return best;
}

void FiredRows::AppendRowMajor(std::vector<TuplePair>* out_pairs,
                               std::vector<uint32_t>* out_priorities) const {
  if (out_priorities != nullptr) EID_CHECK(pairs.size() == priorities.size());
  if (complement.empty()) {
    if (out_pairs != nullptr) {
      out_pairs->insert(out_pairs->end(), pairs.begin(), pairs.end());
    }
    if (out_priorities != nullptr) {
      out_priorities->insert(out_priorities->end(), priorities.begin(),
                             priorities.end());
    }
    return;
  }
  if (out_pairs != nullptr) out_pairs->reserve(out_pairs->size() + size());
  if (out_priorities != nullptr) {
    out_priorities->reserve(out_priorities->size() + size());
  }
  size_t e = 0;  // next explicit pair
  auto explicit_before = [&](size_t row) {
    for (; e < pairs.size() && pairs[e].r_index < row; ++e) {
      if (out_pairs != nullptr) out_pairs->push_back(pairs[e]);
      if (out_priorities != nullptr) out_priorities->push_back(priorities[e]);
    }
  };
  const ComplementCertificates& c = certificates;
  std::optional<RowScratch> sc;
  if (out_priorities != nullptr) sc.emplace(complement.s_count);
  for (size_t k = 0; k < complement.rows.size(); ++k) {
    const uint32_t r = complement.rows[k];
    explicit_before(r);
    if (!sc.has_value()) {
      // Pairs only: [0, s_count) minus the missing list, in place.
      if (out_pairs == nullptr) continue;
      const std::span<const uint32_t> skipped = complement.Missing(k);
      const size_t at = out_pairs->size();
      out_pairs->resize(at + complement.s_count - skipped.size());
      TuplePair* to = out_pairs->data() + at;
      size_t s = 0;
      for (uint32_t skip : skipped) {
        for (; s < skip; ++s) *to++ = TuplePair{r, s};
        s = size_t{skip} + 1;
      }
      for (; s < complement.s_count; ++s) *to++ = TuplePair{r, s};
      continue;
    }
    // Replay: the row's rules in priority order give each s row its
    // lowest rule priority; an exception's priority wins where lower.
    for (uint32_t j = k == 0 ? 0 : c.fired_end[k - 1]; j < c.fired_end[k];
         ++j) {
      c.rules->Fire<RowRules::Out::kBest>(c.fired[j], r, sc->bits.data(),
                                          &*sc);
    }
    for (uint32_t x = k == 0 ? 0 : c.exceptions_end[k - 1];
         x < c.exceptions_end[k]; ++x) {
      const uint32_t s = c.exception_s[x];
      const uint64_t bit = uint64_t{1} << (s % 64);
      const uint32_t priority = c.exception_priority[x];
      if ((sc->bits[s / 64] & bit) == 0 || priority < sc->best[s]) {
        sc->best[s] = priority;
      }
      sc->bits[s / 64] |= bit;
    }
    EmitBits(r, &sc->bits, sc->best, out_pairs, out_priorities);
  }
  explicit_before(SIZE_MAX);
}

FiredColumns FiredRows::Materialize() && {
  FiredColumns out;
  if (complement.empty()) {
    out.pairs = std::move(pairs);
    out.priorities = std::move(priorities);
    return out;
  }
  AppendRowMajor(&out.pairs, &out.priorities);
  return out;
}

CandidateGenerator::CandidateGenerator(const Relation* r_ext,
                                       const Relation* s_ext,
                                       ColumnarWorld& world)
    : r_(r_ext), s_(s_ext), world_(&world),
      r_encoded_(r_ext->schema().size(), nullptr),
      s_encoded_(s_ext->schema().size(), nullptr),
      rules_(std::make_shared<RowRules>(s_ext->size())),
      s_column_rule_(2 * s_ext->schema().size(), kNotDescribable),
      r_column_rule_(r_ext->schema().size(), kNotDescribable) {}

const uint32_t* CandidateGenerator::Encoded(bool r_side, size_t column) {
  std::vector<const uint32_t*>& cache = r_side ? r_encoded_ : s_encoded_;
  if (cache[column] == nullptr) {
    cache[column] =
        world_
            ->Column(r_side ? WorldRel::kRExtended : WorldRel::kSExtended,
                     r_side ? *r_ : *s_, column)
            .data();
  }
  return cache[column];
}

uint32_t CandidateGenerator::SColumnOf(size_t column, bool with_index) {
  uint32_t& slot = s_column_rule_[column * 2 + (with_index ? 1 : 0)];
  if (slot == kNotDescribable) {
    // Read without a reuse hit: the residual's compile encoded it.
    const std::vector<uint32_t>* ids =
        world_->FindColumn(WorldRel::kSExtended, column);
    EID_CHECK(ids != nullptr);
    slot = rules_->AddSColumn(
        *ids, with_index ? &world_->Index(WorldRel::kSExtended, *s_, column)
                         : nullptr);
  }
  return slot;
}

void CandidateGenerator::AddRule(const BlockingPlan& plan,
                                 const StagedEvaluator* residual) {
  ColumnPlan resolved;
  resolved.impossible = plan.impossible;
  auto resolve = [&](bool r_side,
                     const std::vector<std::pair<std::string, Value>>& filters,
                     std::vector<ColumnFilter>* out) {
    const Relation& rel = r_side ? *r_ : *s_;
    for (const auto& [attribute, constant] : filters) {
      std::optional<size_t> column = rel.schema().IndexOf(attribute);
      if (!column.has_value()) return false;  // absent: nothing passes
      out->push_back(ResolveFilter(
          *world_, r_side ? WorldRel::kRExtended : WorldRel::kSExtended, rel,
          *column, constant, constant.Hash()));
    }
    return true;
  };
  if (!resolved.impossible) {
    resolved.impossible =
        !resolve(/*r_side=*/true, plan.r_const_eq, &resolved.r_const_eq) ||
        !resolve(/*r_side=*/false, plan.s_const_eq, &resolved.s_const_eq);
  }
  // The sweep's caller picks the probe among the joins (ChooseProbe)
  // before compiling the residual, which skips the probed conjunct.
  if (!resolved.impossible) {
    EID_CHECK(plan.joins.empty() != plan.probe.has_value());
    if (plan.probe.has_value()) {
      const BlockingPlan::Join& join = plan.joins[*plan.probe];
      std::optional<size_t> r_col = r_->schema().IndexOf(join.r_attr);
      std::optional<size_t> s_col = s_->schema().IndexOf(join.s_attr);
      EID_CHECK(r_col.has_value() && s_col.has_value());
      resolved.probe = std::pair{*r_col, *s_col};
    }
  }
  AddRule(resolved, residual);
}

void CandidateGenerator::AddRule(const ColumnPlan& plan,
                                 const StagedEvaluator* residual) {
  // Every call consumes one priority slot, dead rules included, so
  // priority / 2 and priority & 1 always recover (rule, orientation).
  const uint32_t priority = next_priority_++;
  if (plan.impossible || r_->empty() || s_->empty()) return;
  EID_CHECK(residual != nullptr);

  Entry entry;
  entry.priority = priority;
  entry.residual = residual;

  // r side: const filters prune the rows this entry is consulted for
  // (exact: kEq is storage equality on non-NULL, which is id equality).
  // A filter constant its column does not hold leaves no row: the whole
  // orientation dies here.
  const bool r_all = plan.r_const_eq.empty();
  std::vector<uint32_t> r_rows;
  if (!r_all) {
    r_rows = FilteredRows(*world_, WorldRel::kRExtended, *r_, plan.r_const_eq);
    if (r_rows.empty()) return;
  }

  if (plan.probe.has_value()) {
    const auto [r_col, s_col] = *plan.probe;
    // s-side consts are pair residuals under a join, but a value absent
    // from the whole column still kills every pair.
    for (const ColumnFilter& f : plan.s_const_eq) {
      if (world_->Index(WorldRel::kSExtended, *s_, f.column)
              .Find(f.id)
              .empty()) {
        return;
      }
    }
    entry.has_join = true;
    entry.r_ids = Encoded(/*r_side=*/true, r_col);  // Run reads it per row
    Encoded(/*r_side=*/false, s_col);  // the index is built from it
    entry.s_join = &world_->Index(WorldRel::kSExtended, *s_, s_col);
  } else if (plan.s_const_eq.empty()) {
    entry.s_all = true;
  } else {
    entry.s_rows_storage =
        FilteredRows(*world_, WorldRel::kSExtended, *s_, plan.s_const_eq);
    if (entry.s_rows_storage.empty()) return;
  }

  // Describable entries (RowRule): pair parts decided for a whole set of
  // s rows at once (PairShape), over all of S or a fixed list. A join
  // range keeps the per-candidate path, as does a `!=` over a filtered
  // list.
  const PairShape shape = residual->pair_shape();
  if (shape.kind == PairShape::Kind::kEmpty) {
    if (entry.has_join) {
      entry.fires_all = true;
    } else if (entry.s_all) {
      entry.rule = rules_->AddAll(priority);
    } else {
      entry.rule = rules_->AddList(priority, entry.s_rows_storage);
      std::vector<uint32_t>().swap(entry.s_rows_storage);
    }
  } else if (shape.kind == PairShape::Kind::kSNotEqual && entry.s_all) {
    const PostingRange excluded =
        world_->Index(WorldRel::kSExtended, *s_, shape.s_column)
            .Find(shape.const_id);
    const uint32_t column = SColumnOf(shape.s_column, /*with_index=*/false);
    auto [pooled, fresh] = excluded_pool_.try_emplace(
        uint64_t{column} << 32 | shape.const_id);
    if (fresh) pooled->second = rules_->Pool(excluded);
    entry.rule = rules_->AddDrain(priority, column, pooled->second);
  } else if (shape.kind == PairShape::Kind::kColumnNotEqual && entry.s_all) {
    uint32_t& r_column = r_column_rule_[shape.r_column];
    if (r_column == kNotDescribable) {
      // Read without a reuse hit: the residual's compile encoded it.
      const std::vector<uint32_t>* ids =
          world_->FindColumn(WorldRel::kRExtended, shape.r_column);
      EID_CHECK(ids != nullptr);
      r_column = rules_->AddRColumn(*ids);
    }
    entry.rule = rules_->AddColumnNotEqual(
        priority, SColumnOf(shape.s_column, /*with_index=*/true), r_column);
  }

  const uint32_t index = static_cast<uint32_t>(entries_.size());
  entries_.push_back(std::move(entry));
  if (r_all) {
    global_.push_back(index);
  } else {
    if (per_row_.empty()) per_row_.resize(r_->size());
    for (uint32_t row : r_rows) per_row_[row].push_back(index);
  }
}

FiredRows CandidateGenerator::Run(ThreadPool* pool, StagedScanStats* stats) {
  EID_CHECK(!ran_);
  ran_ = true;
  StagedScanStats local;
  FiredRows out;
  const size_t n = r_->size();
  const size_t s_n = s_->size();
  // Rows are swept, listed and emitted as 32-bit numbers.
  EID_CHECK(n < ColumnarWorld::kNullId && s_n < ColumnarWorld::kNullId);
  out.complement.s_count = s_n;
  out.certificates.rules = rules_;
  if (entries_.empty() || n == 0 || s_n == 0) {
    if (stats != nullptr) *stats = local;
    return out;
  }
  const RowRules& rules = *rules_;

  bool need_all_s = false;
  for (const Entry& e : entries_) {
    if (e.has_join) local.indexed = true;
    if (e.s_all && e.rule == kNotDescribable) need_all_s = true;
  }
  if (need_all_s) {
    all_s_rows_.resize(s_n);
    std::iota(all_s_rows_.begin(), all_s_rows_.end(), uint32_t{0});
  }

  // Stage 2a vectorized: global entries are consulted for every r row,
  // so their row parts evaluate once here, op-major over the cached id
  // slices, instead of per (row, entry) inside the sweep. Per-row
  // entries keep the lazy path — they are consulted for few rows, and a
  // full-length pass would evaluate rows the entry never sees.
  std::vector<std::vector<Truth>> global_row_truth(entries_.size());
  for (uint32_t ei : global_) {
    const Entry& e = entries_[ei];
    if (e.residual->has_row_part()) {
      global_row_truth[ei] = e.residual->RowTruthAll(n);
    }
  }

  const int threads = pool != nullptr ? pool->threads() : 1;
  const size_t grain =
      std::max<size_t>(1, n / (static_cast<size_t>(threads) * 4));
  const size_t num_chunks = (n + grain - 1) / grain;
  // Per-chunk output and counters, merged in chunk order: deterministic
  // row-major output and thread-count-invariant counts. Counters and the
  // per-worker scratch below are written on every candidate, so each
  // entry owns a cache line: concurrent workers never share one.
  std::vector<FiredRows> found(num_chunks);
  struct alignas(64) ChunkCounts {
    size_t candidate_pairs = 0;
    size_t rule_evals = 0;
    size_t feature_cache_hits = 0;
  };
  std::vector<ChunkCounts> counts(num_chunks);

  // Per-worker row state: `bits` has bit s set once (r, s) has fired on
  // the row being swept, so "fired at a lower priority" is one bit test;
  // `best` holds the priority of each s fired one candidate at a time,
  // and `rules` the describable entries that fired on the row. A worker
  // sweeps its rows one at a time and leaves its bitsets clear after
  // emitting each.
  const size_t words = (s_n + 63) / 64;
  const uint64_t tail = rules.tail();
  std::vector<RowScratch> scratch(static_cast<size_t>(std::max(threads, 1)),
                                  RowScratch(s_n));

  static const std::vector<uint32_t> kNoEntries;
  ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int worker) {
    const size_t chunk = begin / grain;
    ChunkCounts& cc = counts[chunk];
    RowScratch& sc = scratch[static_cast<size_t>(worker)];
    FiredRows& f = found[chunk];
    // The chunk's columns are sized once, after its first rows: their
    // fired count scaled to the chunk, so a dense chunk is not written
    // through a chain of doubling copies (a Prop-1 NMT is tens of MB).
    const size_t sample = std::max<size_t>(1, (end - begin) / 32);
    for (size_t r = begin; r < end; ++r) {
      // Rows are 32-bit here (checked above), so TuplePair's range check
      // folds away.
      const uint32_t row = static_cast<uint32_t>(r);
      const std::vector<uint32_t>& row_list =
          per_row_.empty() ? kNoEntries : per_row_[r];
      size_t row_fired = 0;  // bits set in sc.bits
      // Two-pointer merge of the row-filtered and global entry lists —
      // both ascending by entry index, which is ascending priority.
      size_t a = 0, b = 0;
      while (a < row_list.size() || b < global_.size()) {
        uint32_t ei;
        if (b >= global_.size() ||
            (a < row_list.size() && row_list[a] < global_[b])) {
          ei = row_list[a++];
        } else {
          ei = global_[b++];
        }
        const Entry& e = entries_[ei];
        // Stage 2a: hoist the row-only conjuncts out of the pair loop
        // (already precomputed op-major for global entries).
        if (e.residual->has_row_part()) {
          ++cc.rule_evals;
          const std::vector<Truth>& pre = global_row_truth[ei];
          const Truth t = pre.empty() ? e.residual->RowTruth(r) : pre[r];
          if (t != Truth::kTrue) continue;
        }
        // Candidates not fired at a lower priority: each is one pair
        // evaluation, whether PairTruth runs on it or a describable entry
        // decides it.
        size_t evals = 0;
        if (e.rule != kNotDescribable) {
          // Bits only: no priority is written, and the row records the
          // entry if it fired anything. A list's candidates are its rows
          // not fired yet, all of which fire; the other kinds consider
          // every s row not fired yet.
          const size_t fresh = rules.Fire<RowRules::Out::kBits>(
              e.rule, row, sc.bits.data(), &sc);
          evals = rules.rule(e.rule).kind == RowRule::Kind::kList
                      ? fresh
                      : s_n - row_fired;
          row_fired += fresh;
          if (fresh != 0) sc.rules.push_back(e.rule);
        } else {
          auto probe = [&](const auto& candidates) {
            for (uint32_t s : candidates) {
              // Already fired at a lower priority: the first-wins fold
              // could not change, so skip the evaluation entirely.
              const uint64_t bit = uint64_t{1} << (s % 64);
              if ((sc.bits[s / 64] & bit) != 0) continue;
              ++evals;
              if (e.fires_all ||
                  e.residual->PairTruth(r, s) == Truth::kTrue) {
                sc.bits[s / 64] |= bit;
                sc.best[s] = e.priority;
                sc.touched.push_back(s);
                ++row_fired;
              }
            }
          };
          if (e.has_join) {
            // A NULL cell (kNullId) or a value the s column does not
            // hold is an empty range: non_null_eq, no Value touched.
            probe(e.s_join->Find(e.r_ids[r]));
          } else {
            probe(e.s_all ? all_s_rows_ : e.s_rows_storage);
          }
        }
        cc.candidate_pairs += evals;
        cc.rule_evals += evals;
        if (e.residual->has_row_part()) cc.feature_cache_hits += evals;
      }

      if (!sc.rules.empty() && 2 * row_fired > s_n) {
        // Complement row: the s rows that did not fire, the describable
        // entries that fired, and the pairs fired one at a time (in
        // `touched`, with their priorities) as exceptions.
        f.complement.rows.push_back(row);
        for (size_t w = 0; w < words; ++w) {
          uint64_t missing =
              ~sc.bits[w] & (w + 1 == words ? tail : ~uint64_t{0});
          sc.bits[w] = 0;
          for (; missing != 0; missing &= missing - 1) {
            f.complement.missing.push_back(static_cast<uint32_t>(
                w * 64 + static_cast<size_t>(std::countr_zero(missing))));
          }
        }
        f.complement.end.push_back(
            static_cast<uint32_t>(f.complement.missing.size()));
        f.certificates.fired.insert(f.certificates.fired.end(),
                                    sc.rules.begin(), sc.rules.end());
        f.certificates.fired_end.push_back(
            static_cast<uint32_t>(f.certificates.fired.size()));
        std::sort(sc.touched.begin(), sc.touched.end());
        for (uint32_t s : sc.touched) {
          f.certificates.exception_s.push_back(s);
          f.certificates.exception_priority.push_back(sc.best[s]);
        }
        f.certificates.exceptions_end.push_back(
            static_cast<uint32_t>(f.certificates.exception_s.size()));
      } else {
        if (!sc.rules.empty()) {
          // A row that stays sparse after describable entries fired on
          // it re-walks them, lowest priority first, to certify their
          // pairs: the pairs fired one at a time already carry theirs,
          // and no lower-priority rule holds those (it would have fired
          // them first).
          for (uint32_t s : sc.touched) {
            sc.certified[s / 64] |= uint64_t{1} << (s % 64);
          }
          for (uint32_t i : sc.rules) {
            rules.Fire<RowRules::Out::kBestAndTouched>(
                i, row, sc.certified.data(), &sc);
          }
          for (uint32_t s : sc.touched) sc.certified[s / 64] = 0;
        }
        // Explicit row: every fired s is in `touched` with its priority.
        // A dense row is emitted by scanning the set bits; a sparse one
        // sorts `touched` and clears only its words.
        if (row_fired * 8 >= s_n) {
          EmitBits(row, &sc.bits, sc.best, &f.pairs, &f.priorities);
        } else {
          std::sort(sc.touched.begin(), sc.touched.end());
          for (uint32_t s : sc.touched) {
            f.pairs.push_back(TuplePair{row, s});
            f.priorities.push_back(sc.best[s]);
            sc.bits[s / 64] = 0;
          }
        }
      }
      sc.touched.clear();
      sc.rules.clear();
      if (r + 1 - begin == sample && r + 1 < end) {
        // Capacity only, never content: a chunk that fires more than
        // its first rows foretold grows as usual, and one that fires
        // less leaves address space it never touches. Rows sorted by a
        // column can make the first rows far denser than the rest, so a
        // reservation the allocator refuses is skipped, not fatal.
        const size_t scale = (end - begin) / sample + 1;
        try {
          f.pairs.reserve(f.pairs.size() * scale);
          f.priorities.reserve(f.pairs.size() * scale);
          f.certificates.fired.reserve(f.certificates.fired.size() * scale);
        } catch (const std::bad_alloc&) {
        }
      }
    }
  });

  // Chunks hold ascending row ranges, so their concatenation is the
  // row-major order. A lone non-empty chunk — the whole output of an
  // inline sweep — is moved out: a dense explicit NMT is tens of MB.
  size_t total = 0;
  size_t non_empty = 0;
  for (const FiredRows& f : found) {
    total += f.pairs.size();
    if (!f.pairs.empty() || !f.complement.empty()) ++non_empty;
  }
  if (non_empty == 1) {
    for (FiredRows& f : found) {
      if (!f.pairs.empty() || !f.complement.empty()) {
        out = std::move(f);
        break;
      }
    }
  } else if (non_empty > 1) {
    out.pairs.reserve(total);
    out.priorities.reserve(total);
    // Appends a chunk's cumulative ends, shifted past what is merged.
    auto append_ends = [](std::vector<uint32_t>* ends,
                          const std::vector<uint32_t>& chunk_ends,
                          size_t base) {
      for (uint32_t e : chunk_ends) {
        ends->push_back(static_cast<uint32_t>(base + e));
      }
    };
    auto append = [](std::vector<uint32_t>* to,
                     const std::vector<uint32_t>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    for (const FiredRows& f : found) {
      out.pairs.insert(out.pairs.end(), f.pairs.begin(), f.pairs.end());
      append(&out.priorities, f.priorities);
      append(&out.complement.rows, f.complement.rows);
      append_ends(&out.complement.end, f.complement.end,
                  out.complement.missing.size());
      append(&out.complement.missing, f.complement.missing);
      ComplementCertificates& c = out.certificates;
      append_ends(&c.fired_end, f.certificates.fired_end, c.fired.size());
      append(&c.fired, f.certificates.fired);
      append_ends(&c.exceptions_end, f.certificates.exceptions_end,
                  c.exception_s.size());
      append(&c.exception_s, f.certificates.exception_s);
      append(&c.exception_priority, f.certificates.exception_priority);
    }
  }
  out.complement.s_count = s_n;
  out.certificates.rules = rules_;
  for (const ChunkCounts& cc : counts) {
    local.candidate_pairs += cc.candidate_pairs;
    local.rule_evals += cc.rule_evals;
    local.feature_cache_hits += cc.feature_cache_hits;
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace exec
}  // namespace eid
