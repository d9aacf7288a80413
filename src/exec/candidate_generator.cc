#include "exec/candidate_generator.h"

#include <algorithm>
#include <bit>
#include <new>
#include <numeric>

namespace eid {
namespace exec {

CandidateGenerator::CandidateGenerator(const Relation* r_ext,
                                       const Relation* s_ext,
                                       ColumnarWorld& world)
    : r_(r_ext), s_(s_ext), world_(&world),
      r_encoded_(r_ext->schema().size(), nullptr),
      s_encoded_(s_ext->schema().size(), nullptr),
      s_non_null_(s_ext->schema().size()) {}

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

const uint64_t* CandidateGenerator::NonNullBits(size_t column) {
  std::vector<uint64_t>& bits = s_non_null_[column];
  if (bits.empty()) {
    // Read without a reuse hit: the caller's Index request encoded it.
    const uint32_t* ids =
        world_->FindColumn(WorldRel::kSExtended, column)->data();
    bits.assign((s_->size() + 63) / 64, 0);
    for (size_t s = 0; s < s_->size(); ++s) {
      bits[s / 64] |= uint64_t{ids[s] != ColumnarWorld::kNullId} << (s % 64);
    }
  }
  return bits.data();
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

  // The sweep's caller picks the probe among the joins (ChooseProbe)
  // before compiling the residual, which skips the probed conjunct.
  EID_CHECK(plan.joins.empty() != plan.probe.has_value());
  if (plan.probe.has_value()) {
    const BlockingPlan::Join& join = plan.joins[*plan.probe];
    std::optional<size_t> r_col = r_->schema().IndexOf(join.r_attr);
    std::optional<size_t> s_col = s_->schema().IndexOf(join.s_attr);
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

  // Pair parts decided for a whole set of s rows at once (PairShape). The
  // `!=` drain needs every s row as candidates: a filtered list or a join
  // range keeps the per-candidate path.
  const PairShape shape = residual->pair_shape();
  if (shape.kind == PairShape::Kind::kEmpty) {
    entry.fires_all = true;
  } else if (shape.kind == PairShape::Kind::kSNotEqual && entry.s_all) {
    entry.s_excluded =
        world_->Index(WorldRel::kSExtended, *s_, shape.s_column)
            .Find(shape.const_id);
    entry.s_non_null = NonNullBits(shape.s_column);
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
    if (e.s_all && !e.drains_row()) need_all_s = true;
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

  // Per-worker row state, a bitset over S: bit s is set once (r, s) has
  // fired on the row being swept, so "fired at a lower priority" is one
  // bit test. A worker sweeps its rows one at a time and leaves the
  // bitset clear after emitting each.
  const size_t words = (s_n + 63) / 64;
  // The last word's bits that stand for s rows; the others never fire.
  const uint64_t tail =
      s_n % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (s_n % 64)) - 1;
  struct alignas(64) Scratch {
    std::vector<uint64_t> fired;
    std::vector<uint32_t> best;      // s -> lowest firing priority on the row
    std::vector<size_t> touched;     // s fired one candidate at a time
    std::vector<uint32_t> excluded;  // bits a `!=` drain masks, then clears
  };
  std::vector<Scratch> scratch(static_cast<size_t>(std::max(threads, 1)));
  for (Scratch& sc : scratch) {
    sc.fired.assign(words, 0);
    sc.best.resize(s_n);
  }

  static const std::vector<uint32_t> kNoEntries;
  ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int worker) {
    const size_t chunk = begin / grain;
    ChunkCounts& cc = counts[chunk];
    Scratch& sc = scratch[static_cast<size_t>(worker)];
    FiredColumns& f = found[chunk];
    // The chunk's columns are sized once, after its first rows: their
    // fired count scaled to the chunk, so a dense chunk is not written
    // through a chain of doubling copies (a Prop-1 NMT is tens of MB).
    const size_t sample = std::max<size_t>(1, (end - begin) / 32);
    for (size_t r = begin; r < end; ++r) {
      const std::vector<uint32_t>& row_list =
          per_row_.empty() ? kNoEntries : per_row_[r];
      size_t row_fired = 0;  // bits set in sc.fired
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
        // evaluation, whether PairTruth runs on it or a drain decides it.
        size_t evals = 0;
        if (e.drains_row()) {
          // Whole-row drain: every s row not fired yet is a candidate.
          // `s.col != c` fires the non-NULL ones outside c's posting
          // range, which is masked as if fired for the word pass and
          // cleared after it; an empty pair part fires all of them.
          evals = s_n - row_fired;
          for (uint32_t s : e.s_excluded) {
            const uint64_t bit = uint64_t{1} << (s % 64);
            if ((sc.fired[s / 64] & bit) != 0) continue;
            sc.fired[s / 64] |= bit;
            sc.excluded.push_back(s);
          }
          for (size_t w = 0; w < words; ++w) {
            const uint64_t allowed =
                e.s_non_null != nullptr ? e.s_non_null[w]
                : w + 1 == words        ? tail
                                        : ~uint64_t{0};
            uint64_t fresh = allowed & ~sc.fired[w];
            if (fresh == 0) continue;
            sc.fired[w] |= fresh;
            row_fired += static_cast<size_t>(std::popcount(fresh));
            for (; fresh != 0; fresh &= fresh - 1) {
              const size_t s =
                  w * 64 + static_cast<size_t>(std::countr_zero(fresh));
              sc.best[s] = e.priority;
            }
          }
          for (uint32_t s : sc.excluded) {
            sc.fired[s / 64] &= ~(uint64_t{1} << (s % 64));
          }
          sc.excluded.clear();
        } else {
          auto probe = [&](const auto& candidates) {
            for (size_t s : candidates) {
              // Already fired at a lower priority: the first-wins fold
              // could not change, so skip the evaluation entirely.
              const uint64_t bit = uint64_t{1} << (s % 64);
              if ((sc.fired[s / 64] & bit) != 0) continue;
              ++evals;
              if (e.fires_all ||
                  e.residual->PairTruth(r, s) == Truth::kTrue) {
                sc.fired[s / 64] |= bit;
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
      // Emit this row's firings in ascending s order and clear its bits.
      // `touched` lists only the firings made one candidate at a time. A
      // row a drain fired on, or a dense one, is emitted by scanning the
      // set bits; a sparse row sorts `touched` and clears only its words.
      if (sc.touched.size() != row_fired || row_fired * 8 >= s_n) {
        for (size_t w = 0; w < words; ++w) {
          uint64_t bits = sc.fired[w];
          if (bits == 0) continue;
          sc.fired[w] = 0;
          for (; bits != 0; bits &= bits - 1) {
            const size_t s =
                w * 64 + static_cast<size_t>(std::countr_zero(bits));
            f.pairs.push_back(TuplePair{r, s});
            f.priorities.push_back(sc.best[s]);
          }
        }
      } else {
        std::sort(sc.touched.begin(), sc.touched.end());
        for (size_t s : sc.touched) {
          f.pairs.push_back(TuplePair{r, s});
          f.priorities.push_back(sc.best[s]);
          sc.fired[s / 64] = 0;
        }
      }
      sc.touched.clear();
      if (r + 1 - begin == sample && r + 1 < end) {
        // Capacity only, never content: a chunk that fires more than
        // its first rows foretold grows as usual, and one that fires
        // less leaves address space it never touches. Rows sorted by a
        // column can make the first rows far denser than the rest, so a
        // reservation the allocator refuses is skipped, not fatal.
        const size_t expected =
            f.pairs.size() * ((end - begin) / sample + 1);
        try {
          f.pairs.reserve(expected);
          f.priorities.reserve(expected);
        } catch (const std::bad_alloc&) {
        }
      }
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
