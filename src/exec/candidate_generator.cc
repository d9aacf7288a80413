#include "exec/candidate_generator.h"

#include <algorithm>
#include <numeric>

namespace eid {
namespace exec {

CandidateGenerator::CandidateGenerator(const Relation* r_ext,
                                       const Relation* s_ext,
                                       ColumnarWorld& world)
    : r_(r_ext), s_(s_ext), world_(&world),
      r_encoded_(r_ext->schema().size(), nullptr),
      s_encoded_(s_ext->schema().size(), nullptr) {}

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

void CandidateGenerator::AddRule(const BlockingPlan& plan,
                                 const StagedEvaluator* residual) {
  // Every call consumes one priority slot, dead rules included, so
  // priority / 2 and priority & 1 always recover (rule, orientation).
  const uint32_t priority = next_priority_++;
  if (plan.impossible || r_->empty() || s_->empty()) return;
  EID_CHECK(residual != nullptr);

  // A const-eq conjunct whose constant its column does not hold — never
  // interned, or an empty posting range — can never be kTrue on any row:
  // the whole orientation dies here. This covers s-side consts under a
  // join too (they are pair residuals there, but a value absent from the
  // whole column still kills every pair). The column is encoded before
  // the constant is looked up: a value the column holds may enter the
  // dictionary only with that encode.
  auto dead = [&](bool r_side,
                  const std::vector<std::pair<std::string, Value>>& filters) {
    const Relation& rel = r_side ? *r_ : *s_;
    const WorldRel slot = r_side ? WorldRel::kRExtended : WorldRel::kSExtended;
    for (const auto& [attribute, constant] : filters) {
      std::optional<size_t> col = rel.schema().IndexOf(attribute);
      if (!col.has_value()) return true;  // absent: nothing passes
      Encoded(r_side, *col);
      const uint32_t id = world_->dict().Find(constant);
      if (world_->Index(slot, rel, *col).Find(id).empty()) return true;
    }
    return false;
  };
  if (dead(/*r_side=*/true, plan.r_const_eq)) return;
  if (dead(/*r_side=*/false, plan.s_const_eq)) return;

  Entry entry;
  entry.priority = priority;
  entry.residual = residual;

  // r side: const filters prune the rows this entry is consulted for
  // (exact: kEq is storage equality on non-NULL, which is id equality).
  const bool r_all = plan.r_const_eq.empty();
  std::vector<size_t> r_rows;
  if (!r_all) {
    r_rows = FilteredRows(*world_, WorldRel::kRExtended, *r_, plan.r_const_eq);
    if (r_rows.empty()) return;
  }

  if (plan.has_join) {
    std::optional<size_t> r_col = r_->schema().IndexOf(plan.r_attr);
    std::optional<size_t> s_col = s_->schema().IndexOf(plan.s_attr);
    EID_CHECK(r_col.has_value() && s_col.has_value());
    entry.has_join = true;
    entry.r_ids = Encoded(/*r_side=*/true, *r_col);  // Run reads it per row
    Encoded(/*r_side=*/false, *s_col);  // the index is built from it
    entry.s_join = &world_->Index(WorldRel::kSExtended, *s_, *s_col);
  } else if (plan.s_const_eq.empty()) {
    entry.s_all = true;
  } else {
    entry.s_rows_storage =
        FilteredRows(*world_, WorldRel::kSExtended, *s_, plan.s_const_eq);
    if (entry.s_rows_storage.empty()) return;
  }

  const uint32_t index = static_cast<uint32_t>(entries_.size());
  entries_.push_back(std::move(entry));
  if (r_all) {
    global_.push_back(index);
  } else {
    if (per_row_.empty()) per_row_.resize(r_->size());
    for (size_t row : r_rows) per_row_[row].push_back(index);
  }
}

FiredColumns CandidateGenerator::Run(ThreadPool* pool,
                                     StagedScanStats* stats) {
  EID_CHECK(!ran_);
  ran_ = true;
  StagedScanStats local;
  FiredColumns out;
  const size_t n = r_->size();
  const size_t s_n = s_->size();
  if (entries_.empty() || n == 0 || s_n == 0) {
    if (stats != nullptr) *stats = local;
    return out;
  }

  bool need_all_s = false;
  for (const Entry& e : entries_) {
    if (e.has_join) local.indexed = true;
    if (!e.has_join && e.s_all) need_all_s = true;
  }
  if (need_all_s) {
    all_s_rows_.resize(s_n);
    std::iota(all_s_rows_.begin(), all_s_rows_.end(), size_t{0});
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
  std::vector<FiredColumns> found(num_chunks);
  struct alignas(64) ChunkCounts {
    size_t candidate_pairs = 0;
    size_t rule_evals = 0;
    size_t feature_cache_hits = 0;
  };
  std::vector<ChunkCounts> counts(num_chunks);

  // Per-worker scratch: a worker processes chunks sequentially, and the
  // stamp is keyed on the r row, so stale entries from earlier rows never
  // alias (each r is swept exactly once).
  struct alignas(64) Scratch {
    std::vector<size_t> stamp;   // s -> last r row that fired (r, s)
    std::vector<uint32_t> best;  // s -> lowest firing priority for that r
    std::vector<size_t> touched;
  };
  std::vector<Scratch> scratch(static_cast<size_t>(std::max(threads, 1)));
  for (Scratch& sc : scratch) {
    sc.stamp.assign(s_n, SIZE_MAX);
    sc.best.resize(s_n);
  }

  static const std::vector<uint32_t> kNoEntries;
  ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int worker) {
    const size_t chunk = begin / grain;
    ChunkCounts& cc = counts[chunk];
    Scratch& sc = scratch[static_cast<size_t>(worker)];
    for (size_t r = begin; r < end; ++r) {
      const std::vector<uint32_t>& row_list =
          per_row_.empty() ? kNoEntries : per_row_[r];
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
        size_t pair_evals_here = 0;
        if (e.residual->has_row_part()) {
          ++cc.rule_evals;
          const std::vector<Truth>& pre = global_row_truth[ei];
          const Truth t = pre.empty() ? e.residual->RowTruth(r) : pre[r];
          if (t != Truth::kTrue) continue;
        }
        auto probe = [&](const auto& candidates) {
          for (size_t s : candidates) {
            // Already fired at a lower priority: the first-wins fold
            // could not change, so skip the evaluation entirely.
            if (sc.stamp[s] == r) continue;
            ++cc.candidate_pairs;
            ++cc.rule_evals;
            ++pair_evals_here;
            if (e.residual->PairTruth(r, s) == Truth::kTrue) {
              sc.stamp[s] = r;
              sc.best[s] = e.priority;
              sc.touched.push_back(s);
            }
          }
        };
        if (e.has_join) {
          // A NULL cell (kNullId) or a value the s column does not hold
          // is an empty range: non_null_eq, no Value touched.
          probe(e.s_join->Find(e.r_ids[r]));
        } else {
          probe(e.s_all ? all_s_rows_ : e.s_rows_storage);
        }
        if (e.residual->has_row_part()) {
          cc.feature_cache_hits += pair_evals_here;
        }
      }
      // Emit this row's firings in ascending s order. `touched` is
      // duplicate-free (the stamp gates every push) but unsorted across
      // entries. Dense rows — a Prop-1 NMT touches nearly every s — are
      // emitted by scanning the stamp array in order, which is linear and
      // branch-predictable; sorting ~|S| indices per row was the second
      // hottest site in dense `identify` profiles. Sparse rows keep the
      // sort: a full stamp scan would dwarf their few touches.
      FiredColumns& f = found[chunk];
      if (sc.touched.size() * 8 >= s_n) {
        for (size_t s = 0; s < s_n; ++s) {
          if (sc.stamp[s] == r) {
            f.pairs.push_back(TuplePair{r, s});
            f.priorities.push_back(sc.best[s]);
          }
        }
      } else {
        std::sort(sc.touched.begin(), sc.touched.end());
        for (size_t s : sc.touched) {
          f.pairs.push_back(TuplePair{r, s});
          f.priorities.push_back(sc.best[s]);
        }
      }
      sc.touched.clear();
    }
  });

  // Chunks hold ascending row ranges, so their concatenation is the
  // row-major order. A lone non-empty chunk — the whole output of an
  // inline sweep — is moved out: a dense NMT is tens of MB of pairs.
  size_t total = 0;
  size_t non_empty = 0;
  for (const FiredColumns& f : found) {
    total += f.pairs.size();
    if (!f.pairs.empty()) ++non_empty;
  }
  if (non_empty == 1) {
    for (FiredColumns& f : found) {
      if (!f.pairs.empty()) {
        out = std::move(f);
        break;
      }
    }
  } else if (non_empty > 1) {
    out.pairs.reserve(total);
    out.priorities.reserve(total);
    for (const FiredColumns& f : found) {
      out.pairs.insert(out.pairs.end(), f.pairs.begin(), f.pairs.end());
      out.priorities.insert(out.priorities.end(), f.priorities.begin(),
                            f.priorities.end());
    }
  }
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
