#include "compile/pair_program.h"

#include <algorithm>
#include <memory>
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

StagedConjunction StagedConjunction::Compile(
    const std::vector<Predicate>& predicates,
    const std::vector<exec::PredicateCoverage>& coverage,
    const Relation& r_ext, const Relation& s_ext, bool flipped,
    exec::ColumnarWorld& world) {
  StagedConjunction out;
  out.r_ = &r_ext;
  out.s_ = &s_ext;
  EID_CHECK(coverage.size() == predicates.size());
  auto bind = [&](const Operand& o) {
    Slot slot;
    if (o.kind == Operand::Kind::kConstant) {
      slot.src = Src::kConstant;
      slot.constant = o.constant;
      if (!o.constant.is_null()) {
        slot.const_id = world.dict().GetOrIntern(o.constant);
      }
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
    // they run on the world's id columns; ordering ops need the Values.
    op.id_fast = p.op == CompareOp::kEq || p.op == CompareOp::kNe;
    if (op.id_fast) {
      for (Slot* slot : {&op.lhs, &op.rhs}) {
        if (slot->src == Src::kRColumn) {
          slot->ids =
              &world.Column(exec::WorldRel::kRExtended, r_ext, slot->column);
        } else if (slot->src == Src::kSColumn) {
          slot->ids =
              &world.Column(exec::WorldRel::kSExtended, s_ext, slot->column);
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
          case Src::kAbsent: return exec::ColumnarWorld::kNullId;
        }
        return exec::ColumnarWorld::kNullId;
      };
      const uint32_t lhs = id_of(op.lhs);
      const uint32_t rhs = id_of(op.rhs);
      if (lhs == exec::ColumnarWorld::kNullId ||
          rhs == exec::ColumnarWorld::kNullId) {
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
  // Op-major over the id columns: each id_fast opcode streams two
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
                                     : exec::ColumnarWorld::kNullId;
      const uint32_t rhs_const = op.rhs.src == Src::kConstant
                                     ? op.rhs.const_id
                                     : exec::ColumnarWorld::kNullId;
      const bool is_eq = op.op == CompareOp::kEq;
      for (size_t r = 0; r < n; ++r) {
        if (out[r] == Truth::kFalse) continue;
        const uint32_t lhs = lhs_ids != nullptr ? lhs_ids[r] : lhs_const;
        const uint32_t rhs = rhs_ids != nullptr ? rhs_ids[r] : rhs_const;
        Truth t;
        if (lhs == exec::ColumnarWorld::kNullId ||
            rhs == exec::ColumnarWorld::kNullId) {
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

exec::FiredColumns SweepRules(
    const std::vector<const std::vector<Predicate>*>& antecedents,
    const Relation& r_ext, const Relation& s_ext, exec::ColumnarWorld& world,
    exec::ThreadPool* pool, exec::StageStats* stats) {
  std::vector<exec::BlockingPlan> plans;
  plans.reserve(antecedents.size() * 2);
  for (const std::vector<Predicate>* predicates : antecedents) {
    for (bool flipped : {false, true}) {
      plans.push_back(exec::PlanBlocking(*predicates, r_ext.schema(),
                                         s_ext.schema(), flipped));
    }
  }
  const double encode_ms_before = world.encode_ms();
  const size_t reuse_before = world.reuse_hits();
  exec::StageTimer compile_timer;
  std::vector<std::unique_ptr<exec::StagedEvaluator>> evaluators(
      plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].impossible) continue;
    evaluators[i] = std::make_unique<StagedConjunction>(
        StagedConjunction::Compile(*antecedents[i / 2], plans[i].coverage,
                                   r_ext, s_ext, (i & 1) != 0, world));
  }
  stats->compile_ms = compile_timer.ElapsedMs();
  // Registered in (rule, flipped) priority order, so the generator's
  // min-priority-wins emission keeps, per pair, the first rule that
  // fires — direct orientation tried before flipped.
  exec::CandidateGenerator gen(&r_ext, &s_ext, world);
  for (size_t i = 0; i < plans.size(); ++i) {
    gen.AddRule(plans[i], evaluators[i].get());
  }
  exec::StagedScanStats scan;
  exec::FiredColumns fired = gen.Run(pool, &scan);
  stats->candidate_pairs = scan.candidate_pairs;
  stats->rule_evals = scan.rule_evals;
  stats->feature_cache_hits = scan.feature_cache_hits;
  stats->columnar_encode_ms = world.encode_ms() - encode_ms_before;
  stats->interner_reuse_hits = world.reuse_hits() - reuse_before;
  return fired;
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
                                       exec::ColumnarWorld& w,
                                       KeyJoinStats* stats) {
  const size_t k = r_idx.size();
  EID_CHECK(s_idx.size() == k);
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
                                           exec::ColumnarWorld::kNullId);
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
    stats->encode_ms = w.encode_ms() - encode_ms_before;
    stats->reuse_hits = w.reuse_hits() - reuse_before;
  }
  return pairs;
}

}  // namespace compile
}  // namespace eid
