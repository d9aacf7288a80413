#include "compile/pair_program.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace eid {
namespace compile {

CompiledConjunction CompiledConjunction::Compile(
    const std::vector<Predicate>& predicates, const Schema& r_schema,
    const Schema& s_schema, bool flipped) {
  CompiledConjunction out;
  out.ops_.reserve(predicates.size());
  auto bind = [&](const Operand& o) {
    Slot slot;
    if (o.kind == Operand::Kind::kConstant) {
      slot.src = Src::kConstant;
      slot.constant = o.constant;
      return slot;
    }
    const bool r_side = (o.entity == 1) != flipped;
    const Schema& schema = r_side ? r_schema : s_schema;
    std::optional<size_t> column = schema.IndexOf(o.attribute);
    if (!column.has_value()) return slot;  // kAbsent: resolves to NULL
    slot.src = r_side ? Src::kRColumn : Src::kSColumn;
    slot.column = *column;
    return slot;
  };
  for (const Predicate& p : predicates) {
    out.ops_.push_back(Op{bind(p.lhs), p.op, bind(p.rhs)});
  }
  return out;
}

Truth CompiledConjunction::Evaluate(const Row& r_row,
                                    const Row& s_row) const {
  static const Value kNullValue;
  auto resolve = [&](const Slot& slot) -> const Value& {
    switch (slot.src) {
      case Src::kRColumn: return r_row[slot.column];
      case Src::kSColumn: return s_row[slot.column];
      case Src::kConstant: return slot.constant;
      case Src::kAbsent: return kNullValue;
    }
    return kNullValue;
  };
  // Mirrors EvaluateConjunction: Kleene And with an early kFalse exit.
  Truth result = Truth::kTrue;
  for (const Op& op : ops_) {
    result = And(result, CompareValues(resolve(op.lhs), op.op,
                                       resolve(op.rhs)));
    if (result == Truth::kFalse) return result;
  }
  return result;
}

const std::vector<uint32_t>& PairFeatureCache::RColumn(size_t column) {
  if (world_ != nullptr) return world_->Column(r_slot_, *r_, column);
  auto it = r_columns_.find(column);
  if (it != r_columns_.end()) return it->second;
  return r_columns_.emplace(column, BuildColumn(*r_, column)).first->second;
}

const std::vector<uint32_t>& PairFeatureCache::SColumn(size_t column) {
  if (world_ != nullptr) return world_->Column(s_slot_, *s_, column);
  auto it = s_columns_.find(column);
  if (it != s_columns_.end()) return it->second;
  return s_columns_.emplace(column, BuildColumn(*s_, column)).first->second;
}

uint32_t PairFeatureCache::InternConstant(const Value& v) {
  if (v.is_null()) return kNullId;
  if (world_ != nullptr) return world_->dict().GetOrIntern(v);
  return interner_.GetOrIntern(v);
}

bool PairFeatureCache::RColumnMayNull(size_t column) {
  auto it = r_may_null_.find(column);
  if (it != r_may_null_.end()) return it->second;
  const std::vector<uint32_t>& ids = RColumn(column);
  const bool may =
      std::find(ids.begin(), ids.end(), kNullId) != ids.end();
  return r_may_null_.emplace(column, may).first->second;
}

bool PairFeatureCache::SColumnMayNull(size_t column) {
  auto it = s_may_null_.find(column);
  if (it != s_may_null_.end()) return it->second;
  const std::vector<uint32_t>& ids = SColumn(column);
  const bool may =
      std::find(ids.begin(), ids.end(), kNullId) != ids.end();
  return s_may_null_.emplace(column, may).first->second;
}

std::vector<uint32_t> PairFeatureCache::BuildColumn(const Relation& rel,
                                                    size_t column) {
  std::vector<uint32_t> ids(rel.size(), kNullId);
  for (size_t i = 0; i < rel.size(); ++i) {
    const Value& v = rel.row(i)[column];
    if (!v.is_null()) ids[i] = interner_.GetOrIntern(v);
  }
  return ids;
}

StagedConjunction StagedConjunction::Compile(
    const std::vector<Predicate>& predicates,
    const std::vector<exec::PredicateCoverage>& coverage,
    const Relation& r_ext, const Relation& s_ext, bool flipped,
    PairFeatureCache* features) {
  StagedConjunction out;
  out.r_ = &r_ext;
  out.s_ = &s_ext;
  EID_CHECK(coverage.size() == predicates.size());
  EID_CHECK(features != nullptr);
  auto bind = [&](const Operand& o) {
    Slot slot;
    if (o.kind == Operand::Kind::kConstant) {
      slot.src = Src::kConstant;
      slot.constant = o.constant;
      slot.const_id = features->InternConstant(o.constant);
      return slot;
    }
    const bool r_side = (o.entity == 1) != flipped;
    const Schema& schema = r_side ? r_ext.schema() : s_ext.schema();
    std::optional<size_t> column = schema.IndexOf(o.attribute);
    if (!column.has_value()) return slot;  // kAbsent: resolves to NULL
    slot.src = r_side ? Src::kRColumn : Src::kSColumn;
    slot.column = *column;
    return slot;
  };
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (coverage[i] == exec::PredicateCoverage::kCovered) continue;
    const Predicate& p = predicates[i];
    Op op;
    op.lhs = bind(p.lhs);
    op.op = p.op;
    op.rhs = bind(p.rhs);
    // kEq/kNe are exactly storage (in)equality on non-NULL operands, so
    // they run on the cached id slices; ordering ops need the Values.
    op.id_fast = p.op == CompareOp::kEq || p.op == CompareOp::kNe;
    if (op.id_fast) {
      op.may_null = false;
      for (Slot* slot : {&op.lhs, &op.rhs}) {
        if (slot->src == Src::kRColumn) {
          slot->ids = &features->RColumn(slot->column);
          slot->view = features->RColumnView(slot->column);
          op.may_null |= features->RColumnMayNull(slot->column);
        } else if (slot->src == Src::kSColumn) {
          slot->ids = &features->SColumn(slot->column);
          slot->view = features->SColumnView(slot->column);
          op.may_null |= features->SColumnMayNull(slot->column);
        } else if (slot->src == Src::kConstant) {
          op.may_null |= slot->const_id == PairFeatureCache::kNullId;
        } else {
          op.may_null = true;  // kAbsent resolves to NULL on every lane
        }
      }
    }
    const bool row_only =
        coverage[i] == exec::PredicateCoverage::kResidualRow;
    (row_only ? out.row_ops_ : out.pair_ops_).push_back(std::move(op));
  }
  return out;
}

Truth StagedConjunction::EvaluateOps(const std::vector<Op>& ops,
                                     size_t r_row, size_t s_row) const {
  static const Value kNullValue;
  Truth result = Truth::kTrue;
  for (const Op& op : ops) {
    Truth t;
    if (op.id_fast) {
      auto id_of = [&](const Slot& slot) -> uint32_t {
        switch (slot.src) {
          case Src::kRColumn: return (*slot.ids)[r_row];
          case Src::kSColumn: return (*slot.ids)[s_row];
          case Src::kConstant: return slot.const_id;
          case Src::kAbsent: return PairFeatureCache::kNullId;
        }
        return PairFeatureCache::kNullId;
      };
      const uint32_t lhs = id_of(op.lhs);
      const uint32_t rhs = id_of(op.rhs);
      if (lhs == PairFeatureCache::kNullId ||
          rhs == PairFeatureCache::kNullId) {
        t = Truth::kUnknown;  // NULL operand
      } else if (op.op == CompareOp::kEq) {
        t = lhs == rhs ? Truth::kTrue : Truth::kFalse;
      } else {
        t = lhs == rhs ? Truth::kFalse : Truth::kTrue;
      }
    } else {
      auto resolve = [&](const Slot& slot) -> const Value& {
        switch (slot.src) {
          case Src::kRColumn: return r_->row(r_row)[slot.column];
          case Src::kSColumn: return s_->row(s_row)[slot.column];
          case Src::kConstant: return slot.constant;
          case Src::kAbsent: return kNullValue;
        }
        return kNullValue;
      };
      t = CompareValues(resolve(op.lhs), op.op, resolve(op.rhs));
    }
    result = And(result, t);
    if (result == Truth::kFalse) return result;
  }
  return result;
}

Truth StagedConjunction::RowTruth(size_t r_row) const {
  // Row ops never carry an s-side slot (PredicateCoverage::kResidualRow
  // requires every entity operand to bind the r side), so the s row
  // index is irrelevant.
  return EvaluateOps(row_ops_, r_row, r_row);
}

std::vector<Truth> StagedConjunction::RowTruthAll(size_t n) const {
  std::vector<Truth> out(n, Truth::kTrue);
  // Op-major over the id slices: each id_fast opcode streams two
  // contiguous uint32_t lanes (or a lane against a constant id) instead
  // of chasing Slot pointers per row. Skipping rows already kFalse
  // reproduces EvaluateOps' early exit, so out[r] == RowTruth(r).
  for (const Op& op : row_ops_) {
    if (op.id_fast) {
      // Row ops bind the r side only, so a slot is a kRColumn slice, a
      // constant id, or the NULL sentinel (kAbsent).
      const uint32_t* lhs_ids =
          op.lhs.src == Src::kRColumn ? op.lhs.ids->data() : nullptr;
      const uint32_t* rhs_ids =
          op.rhs.src == Src::kRColumn ? op.rhs.ids->data() : nullptr;
      const uint32_t lhs_const = op.lhs.src == Src::kConstant
                                     ? op.lhs.const_id
                                     : PairFeatureCache::kNullId;
      const uint32_t rhs_const = op.rhs.src == Src::kConstant
                                     ? op.rhs.const_id
                                     : PairFeatureCache::kNullId;
      const bool is_eq = op.op == CompareOp::kEq;
      for (size_t r = 0; r < n; ++r) {
        if (out[r] == Truth::kFalse) continue;
        const uint32_t lhs = lhs_ids != nullptr ? lhs_ids[r] : lhs_const;
        const uint32_t rhs = rhs_ids != nullptr ? rhs_ids[r] : rhs_const;
        Truth t;
        if (lhs == PairFeatureCache::kNullId ||
            rhs == PairFeatureCache::kNullId) {
          t = Truth::kUnknown;
        } else {
          t = ((lhs == rhs) == is_eq) ? Truth::kTrue : Truth::kFalse;
        }
        out[r] = And(out[r], t);
      }
    } else {
      static const Value kNullValue;
      for (size_t r = 0; r < n; ++r) {
        if (out[r] == Truth::kFalse) continue;
        auto resolve = [&](const Slot& slot) -> const Value& {
          switch (slot.src) {
            case Src::kRColumn: return r_->row(r)[slot.column];
            case Src::kSColumn: return s_->row(r)[slot.column];
            case Src::kConstant: return slot.constant;
            case Src::kAbsent: return kNullValue;
          }
          return kNullValue;
        };
        out[r] = And(out[r],
                     CompareValues(resolve(op.lhs), op.op, resolve(op.rhs)));
      }
    }
  }
  return out;
}

Truth StagedConjunction::PairTruth(size_t r_row, size_t s_row) const {
  return EvaluateOps(pair_ops_, r_row, s_row);
}

void StagedConjunction::PairTruthBlock(const size_t* r_rows,
                                       const size_t* s_rows, size_t lanes,
                                       Truth* out,
                                       exec::PairBlockStats* stats) const {
  EID_CHECK(lanes <= exec::kPairBlockLanes);
  // Small drains lose to the scalar loop's zero setup cost: below the
  // shared kMinVectorLanes threshold the per-block fixed work (survivor
  // list init, op lowering, final writeback) dominates the per-lane win.
  // The dense generator's per-probe drains average ~34 lanes, so this
  // keeps the partial-drain regime at scalar speed while full
  // accumulator blocks vectorize.
  if (lanes < exec::kMinVectorLanes) {
    for (size_t i = 0; i < lanes; ++i) {
      out[i] = PairTruth(r_rows[i], s_rows[i]);
    }
    return;
  }
  constexpr uint32_t kNull = PairFeatureCache::kNullId;
  // Op-major with lane compaction: each id_fast op gathers and masks
  // only the lanes still alive after the previous ops, so the total
  // work is proportional to what the scalar early-exit loop does — a
  // block where every lane dies on the first op touches each lane once.
  // Conjunction truth is order-independent (And is commutative and ops
  // have no side effects), so running the id_fast ops first and the
  // value-fallback ops after on the survivors is bit-identical to the
  // scalar loop: final = alive ? (unknown ? kUnknown : kTrue) : kFalse
  // either way.
  uint16_t idx[exec::kPairBlockLanes];      // still-alive lane indices
  uint8_t unknown[exec::kPairBlockLanes];   // lane saw a NULL operand
  for (size_t i = 0; i < lanes; ++i) idx[i] = static_cast<uint16_t>(i);
  std::memset(unknown, 0, lanes);

  size_t value_ops = 0;
  size_t id_ops = 0;
  for (const Op& op : pair_ops_) (op.id_fast ? id_ops : value_ops) += 1;

  // One slot of an id op, lowered for lane fetches: a gather through
  // the candidate row array (column slices) or a broadcast id
  // (constants; kAbsent broadcasts the NULL sentinel).
  struct LaneSrc {
    const uint32_t* view = nullptr;  // nullptr => broadcast cval
    const size_t* rows = nullptr;
    uint32_t cval = kNull;
  };
  auto lower = [&](const Slot& slot) {
    LaneSrc f;
    switch (slot.src) {
      case Src::kRColumn: f.view = slot.view.data; f.rows = r_rows; break;
      case Src::kSColumn: f.view = slot.view.data; f.rows = s_rows; break;
      case Src::kConstant: f.cval = slot.const_id; break;
      case Src::kAbsent: break;
    }
    return f;
  };

  size_t live = lanes;
  size_t id_done = 0;
  for (const Op& op : pair_ops_) {
    if (!op.id_fast) continue;
    const LaneSrc lf = lower(op.lhs);
    const LaneSrc rf = lower(op.rhs);
    const uint8_t want_eq = op.op == CompareOp::kEq ? 1 : 0;
    size_t w = 0;
    if (!op.may_null) {
      // Compile proved no operand can be NULL (column slices scanned,
      // constants checked), so no lane can go kUnknown here: fused
      // gather + mask + compact with the Kleene NULL plumbing stripped.
      // may_null == false implies both slots are column slices or
      // non-NULL constants; broadcast constants keep view == nullptr
      // and fall through to the general loop below, so both views are
      // non-null in practice — but guard anyway for the constant case.
      const uint32_t* lv = lf.view;
      const uint32_t* rv = rf.view;
      if (lv != nullptr && rv != nullptr) {
        const size_t* lr = lf.rows;
        const size_t* rr = rf.rows;
        for (size_t j = 0; j < live; ++j) {
          const uint16_t i = idx[j];
          idx[w] = i;
          w += static_cast<size_t>(
              static_cast<uint8_t>(lv[lr[i]] == rv[rr[i]]) ^ want_eq ^ 1u);
        }
        live = w;
        ++id_done;
        if (live == 0) break;
        continue;
      }
    }
    // General form: broadcast slots and NULL ids feed the branch-free
    // Kleene mask. A lane survives unless the op is definitively
    // kFalse on it (non-NULL operands disagreeing with the op's
    // polarity); NULL operands mark kUnknown and keep the lane.
    for (size_t j = 0; j < live; ++j) {
      const uint16_t i = idx[j];
      const uint32_t l = lf.view != nullptr ? lf.view[lf.rows[i]] : lf.cval;
      const uint32_t r = rf.view != nullptr ? rf.view[rf.rows[i]] : rf.cval;
      const uint8_t is_null =
          static_cast<uint8_t>(l == kNull) | static_cast<uint8_t>(r == kNull);
      const uint8_t is_false = static_cast<uint8_t>(1 - is_null) &
                               (static_cast<uint8_t>(l == r) ^ want_eq);
      unknown[i] |= is_null;
      idx[w] = i;
      w += static_cast<size_t>(1 - is_false);
    }
    live = w;
    ++id_done;
    if (live == 0) break;
  }

  if (live == 0 && stats != nullptr && (id_done < id_ops || value_ops > 0)) {
    // Every lane is already kFalse; the remaining ops cannot change
    // that (And(kFalse, t) == kFalse) — the block-level analogue of the
    // scalar early exit. Counted only when ops were actually skipped.
    ++stats->early_exits;
  }
  if (live > 0 && value_ops > 0) {
    // Ordering / cross-type conjuncts need the Values (the raw rows the
    // derivation closure filled): scalar per surviving lane, with the
    // same per-lane early kFalse exit as EvaluateOps.
    static const Value kNullValue;
    if (stats != nullptr) stats->scalar_fallbacks += live;
    size_t w = 0;
    for (size_t j = 0; j < live; ++j) {
      const uint16_t i = idx[j];
      const size_t r_row = r_rows[i];
      const size_t s_row = s_rows[i];
      auto resolve = [&](const Slot& slot) -> const Value& {
        switch (slot.src) {
          case Src::kRColumn: return r_->row(r_row)[slot.column];
          case Src::kSColumn: return s_->row(s_row)[slot.column];
          case Src::kConstant: return slot.constant;
          case Src::kAbsent: return kNullValue;
        }
        return kNullValue;
      };
      bool lane_alive = true;
      for (const Op& op : pair_ops_) {
        if (op.id_fast) continue;
        const Truth t =
            CompareValues(resolve(op.lhs), op.op, resolve(op.rhs));
        if (t == Truth::kFalse) {
          lane_alive = false;
          break;
        }
        if (t == Truth::kUnknown) unknown[i] = 1;
      }
      if (lane_alive) idx[w++] = i;
    }
    live = w;
  }

  // Lanes dropped from idx are kFalse; survivors split on the
  // accumulated NULL flag.
  for (size_t i = 0; i < lanes; ++i) out[i] = Truth::kFalse;
  for (size_t j = 0; j < live; ++j) {
    const uint16_t i = idx[j];
    out[i] = unknown[i] != 0 ? Truth::kUnknown : Truth::kTrue;
  }
}

namespace {

// Rows per probe block: the NULL-mask pass streams this many contiguous
// lanes per key column before any posting range is read.
constexpr size_t kProbeBatch = 256;

}  // namespace

std::vector<TuplePair> InternedKeyJoin(const Relation& r_ext,
                                       const Relation& s_ext,
                                       const std::vector<size_t>& r_idx,
                                       const std::vector<size_t>& s_idx,
                                       exec::ThreadPool* pool,
                                       exec::ColumnarWorld* world,
                                       KeyJoinStats* stats) {
  const size_t k = r_idx.size();
  EID_CHECK(s_idx.size() == k);
  exec::ColumnarWorld private_world;
  exec::ColumnarWorld& w = world != nullptr ? *world : private_world;
  const double encode_ms_before = w.encode_ms();
  const size_t reuse_before = w.reuse_hits();
  // Id columns, encoded serially — at most once per session, and not at
  // all when the extension stage already handed them over.
  std::vector<const uint32_t*> r_cols, s_cols;
  r_cols.reserve(k);
  s_cols.reserve(k);
  for (size_t i : r_idx) {
    r_cols.push_back(w.Column(exec::WorldRel::kRExtended, r_ext, i).data());
  }
  for (size_t i : s_idx) {
    s_cols.push_back(w.Column(exec::WorldRel::kSExtended, s_ext, i).data());
  }
  // Probe through the S key column with the most distinct non-NULL ids
  // (the first on ties): its posting ranges are the shortest, so a
  // leading attribute with few values (a 32-city column) never turns
  // each probe into a city-sized scan. The other key columns are
  // verified by id on each candidate.
  size_t probe = 0;
  const exec::ColumnIndex* index = nullptr;
  for (size_t c = 0; c < k; ++c) {
    const exec::ColumnIndex& candidate =
        w.Index(exec::WorldRel::kSExtended, s_ext, s_idx[c]);
    if (index == nullptr || candidate.distinct() > index->distinct()) {
      probe = c;
      index = &candidate;
    }
  }

  const size_t n = r_ext.size();
  const int threads = pool != nullptr ? pool->threads() : 1;
  // Adaptive serial cutoff (same rationale as ParallelFor's): a chunk
  // below a few probe batches fragments the 256-lane mask pass into
  // partial blocks and pays per-chunk buffer overhead that exceeds the
  // probes themselves. Clamping the grain makes small joins run as a
  // handful of full-batch chunks — n <= 4·kProbeBatch is one serial
  // chunk — while large joins keep threads·4 chunks for stealing.
  const size_t grain = std::max<size_t>(
      kProbeBatch * 4, n / (static_cast<size_t>(threads) * 4));
  const size_t num_chunks = n == 0 ? 0 : (n + grain - 1) / grain;
  std::vector<std::vector<TuplePair>> found(num_chunks);
  std::vector<size_t> batches(num_chunks, 0);

  // Pairs come out r-major and, within an r row, in the posting range's
  // ascending s order — the order the uniqueness verdict depends on.
  exec::ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int) {
    const size_t chunk = begin / grain;
    uint8_t valid[kProbeBatch];
    for (size_t b = begin; b < end; b += kProbeBatch) {
      const size_t m = std::min(kProbeBatch, end - b);
      ++batches[chunk];
      // Pass 1: a row with any NULL key cell never joins (non_null_eq);
      // accumulate that mask branch-free over each contiguous id lane.
      for (size_t i = 0; i < m; ++i) valid[i] = 1;
      for (size_t c = 0; c < k; ++c) {
        const uint32_t* ids = r_cols[c];
        for (size_t i = 0; i < m; ++i) {
          valid[i] &= static_cast<uint8_t>(ids[b + i] !=
                                           PairFeatureCache::kNullId);
        }
      }
      // Pass 2: probe the valid lanes, row-major. A key with no column
      // pairs every valid row with every s row, as the empty tuple
      // agrees with itself.
      for (size_t i = 0; i < m; ++i) {
        if (valid[i] == 0) continue;
        const size_t r = b + i;
        auto verify = [&](size_t s) {
          for (size_t c = 0; c < k; ++c) {
            if (c != probe && r_cols[c][r] != s_cols[c][s]) return;
          }
          found[chunk].push_back(TuplePair{r, s});
        };
        if (k == 0) {
          for (size_t s = 0; s < s_ext.size(); ++s) verify(s);
        } else {
          for (uint32_t s : index->Find(r_cols[probe][r])) verify(s);
        }
      }
    }
  });

  std::vector<TuplePair> pairs;
  size_t total = 0;
  for (const std::vector<TuplePair>& f : found) total += f.size();
  pairs.reserve(total);
  for (std::vector<TuplePair>& f : found) {
    pairs.insert(pairs.end(), f.begin(), f.end());
  }
  if (stats != nullptr) {
    for (size_t b : batches) stats->probe_batches += b;
    if (world != nullptr) {
      stats->encode_ms = w.encode_ms() - encode_ms_before;
      stats->reuse_hits = w.reuse_hits() - reuse_before;
    } else {
      stats->interner_values = w.dict().size();
    }
  }
  return pairs;
}

}  // namespace compile
}  // namespace eid
