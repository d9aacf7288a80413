#include "compile/pair_program.h"

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

exec::PairShape StagedConjunction::pair_shape() const {
  exec::PairShape shape;
  if (pair_ops_.empty()) {
    shape.kind = exec::PairShape::Kind::kEmpty;
    return shape;
  }
  if (pair_ops_.size() != 1) return shape;
  const Op& op = pair_ops_.front();
  if (!op.id_fast || op.op != CompareOp::kNe) return shape;
  for (const auto& [column, constant] :
       {std::pair{&op.lhs, &op.rhs}, std::pair{&op.rhs, &op.lhs}}) {
    if (column->src == Src::kSColumn && constant->src == Src::kConstant &&
        constant->const_id != exec::ColumnarWorld::kNullId) {
      shape.kind = exec::PairShape::Kind::kSNotEqual;
      shape.s_column = column->column;
      shape.const_id = constant->const_id;
    }
  }
  return shape;
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

namespace {

/// One staged sweep over `antecedents`, in priority order: per rule the
/// direct orientation, then, with `both_orientations`, the flipped one.
exec::FiredColumns Sweep(
    const std::vector<const std::vector<Predicate>*>& antecedents,
    bool both_orientations, const Relation& r_ext, const Relation& s_ext,
    exec::ColumnarWorld& world, exec::ThreadPool* pool,
    exec::StageStats* stats) {
  const size_t per_rule = both_orientations ? 2 : 1;
  const double encode_ms_before = world.encode_ms();
  const size_t reuse_before = world.reuse_hits();
  std::vector<exec::BlockingPlan> plans;
  plans.reserve(antecedents.size() * per_rule);
  for (const std::vector<Predicate>* predicates : antecedents) {
    for (size_t o = 0; o < per_rule; ++o) {
      plans.push_back(exec::PlanBlocking(*predicates, r_ext.schema(),
                                         s_ext.schema(), /*flipped=*/o == 1));
      // The probe is chosen before the residual is compiled: the
      // residual skips exactly the conjunct the probe enforces.
      exec::ChooseProbe(&plans.back(), world, s_ext);
    }
  }
  exec::StageTimer compile_timer;
  std::vector<std::unique_ptr<exec::StagedEvaluator>> evaluators(
      plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].impossible) continue;
    evaluators[i] = std::make_unique<StagedConjunction>(
        StagedConjunction::Compile(*antecedents[i / per_rule],
                                   plans[i].coverage, r_ext, s_ext,
                                   /*flipped=*/i % per_rule == 1, world));
  }
  stats->compile_ms = compile_timer.ElapsedMs();
  // Registered in priority order, so the generator's min-priority-wins
  // emission keeps, per pair, the first (rule, orientation) that fires.
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

template <typename Rule>
std::vector<const std::vector<Predicate>*> Antecedents(
    const std::vector<Rule>& rules) {
  std::vector<const std::vector<Predicate>*> out;
  out.reserve(rules.size());
  for (const Rule& rule : rules) out.push_back(&rule.predicates());
  return out;
}

}  // namespace

exec::FiredColumns SweepRules(const std::vector<IdentityRule>& rules,
                              const Relation& r_ext, const Relation& s_ext,
                              exec::ColumnarWorld& world,
                              exec::ThreadPool* pool,
                              exec::StageStats* stats) {
  return Sweep(Antecedents(rules), /*both_orientations=*/false, r_ext, s_ext,
               world, pool, stats);
}

exec::FiredColumns SweepRules(const std::vector<DistinctnessRule>& rules,
                              const Relation& r_ext, const Relation& s_ext,
                              exec::ColumnarWorld& world,
                              exec::ThreadPool* pool,
                              exec::StageStats* stats) {
  return Sweep(Antecedents(rules), /*both_orientations=*/true, r_ext, s_ext,
               world, pool, stats);
}

}  // namespace compile
}  // namespace eid
