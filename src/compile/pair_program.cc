#include "compile/pair_program.h"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
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
  // An id pair conjunct is kUnknown wherever its R' cell is NULL, so the
  // conjunction cannot be kTrue on such a row. `e1.A = e1.A` (kTrue
  // exactly when the cell is non-NULL) in the row part drops the row
  // before any of its pairs is evaluated, and leaves the set of kTrue
  // pairs as it is; on a column with no NULL cell it would drop nothing.
  std::vector<size_t> r_columns;
  for (const Op& op : out.pair_ops_) {
    if (!op.id_fast) continue;
    for (const Slot* slot : {&op.lhs, &op.rhs}) {
      if (slot->src == Src::kRColumn &&
          std::find(r_columns.begin(), r_columns.end(), slot->column) ==
              r_columns.end() &&
          world.HasNull(exec::WorldRel::kRExtended, slot->column)) {
        r_columns.push_back(slot->column);
        Op non_null;
        non_null.lhs = *slot;
        non_null.op = CompareOp::kEq;
        non_null.rhs = *slot;
        non_null.id_fast = true;
        out.row_ops_.push_back(std::move(non_null));
      }
    }
  }
  return out;
}

StagedConjunction StagedConjunction::NotEqual(exec::WorldRel side,
                                              size_t column,
                                              uint32_t const_id,
                                              const Relation& r_ext,
                                              const Relation& s_ext,
                                              exec::ColumnarWorld& world) {
  const bool r_side = side == exec::WorldRel::kRExtended;
  EID_CHECK(r_side || side == exec::WorldRel::kSExtended);
  EID_CHECK(const_id != exec::ColumnarWorld::kNullId);
  StagedConjunction out;
  out.r_ = &r_ext;
  out.s_ = &s_ext;
  Op op;
  op.lhs.src = r_side ? Src::kRColumn : Src::kSColumn;
  op.lhs.column = column;
  op.lhs.ids = &world.Column(side, r_side ? r_ext : s_ext, column);
  op.op = CompareOp::kNe;
  op.rhs.src = Src::kConstant;
  op.rhs.const_id = const_id;
  op.id_fast = true;
  (r_side ? out.row_ops_ : out.pair_ops_).push_back(std::move(op));
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
  for (const auto& [column, other] :
       {std::pair{&op.lhs, &op.rhs}, std::pair{&op.rhs, &op.lhs}}) {
    if (column->src != Src::kSColumn) continue;
    if (other->src == Src::kConstant &&
        other->const_id != exec::ColumnarWorld::kNullId) {
      shape.kind = exec::PairShape::Kind::kSNotEqual;
      shape.s_column = column->column;
      shape.const_id = other->const_id;
    } else if (other->src == Src::kRColumn) {
      shape.kind = exec::PairShape::Kind::kColumnNotEqual;
      shape.s_column = column->column;
      shape.r_column = other->column;
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

/// Registers both orientations of each Proposition 1 rule in `induced`
/// with `gen`, in order, straight from the atoms of `ilfds` (see
/// SweepRules). Their residuals are appended to `residuals`, which must
/// outlive the sweep and not reallocate while it runs.
void RegisterInduced(const IlfdSet& ilfds,
                     const std::vector<InducedRule>& induced,
                     const Relation& r_ext, const Relation& s_ext,
                     exec::ColumnarWorld& world, exec::CandidateGenerator& gen,
                     std::vector<StagedConjunction>* residuals) {
  const AtomTable& atoms = ilfds.atoms();
  // Attribute ordinal -> column of R' (index 0) or S' (index 1), looked
  // up on first use.
  constexpr uint32_t kUnresolved = exec::ColumnarWorld::kNullId;
  constexpr uint32_t kAbsent = kUnresolved - 1;
  std::array<std::vector<uint32_t>, 2> columns;
  columns.fill(std::vector<uint32_t>(atoms.attribute_count(), kUnresolved));
  // The column `atom` reads on one side, or nullopt when its attribute
  // is absent there or its constant is NULL: either makes the
  // orientation impossible.
  auto column_of = [&](bool r_side, AtomId atom) -> std::optional<size_t> {
    if (atoms.atom(atom).value.is_null()) return std::nullopt;
    uint32_t& column = columns[r_side ? 0 : 1][atoms.attribute_ordinal(atom)];
    if (column == kUnresolved) {
      const Schema& schema = r_side ? r_ext.schema() : s_ext.schema();
      std::optional<size_t> found = schema.IndexOf(atoms.atom(atom).attribute);
      column = found.has_value() ? static_cast<uint32_t>(*found) : kAbsent;
    }
    if (column == kAbsent) return std::nullopt;
    return column;
  };

  residuals->reserve(residuals->size() + 2 * induced.size());
  exec::ColumnPlan plan;
  for (const InducedRule& rule : induced) {
    const std::vector<AtomId>& antecedent = ilfds.AntecedentAtoms(rule.ilfd);
    const AtomId head = ilfds.ConsequentAtom(rule.ilfd, rule.atom);
    // Direct: e1 := r row, so the antecedent filters R' and the
    // consequent reads S'. Flipped: the other way round.
    for (const bool filter_r : {true, false}) {
      const exec::WorldRel filter_slot =
          filter_r ? exec::WorldRel::kRExtended : exec::WorldRel::kSExtended;
      const exec::WorldRel head_slot =
          filter_r ? exec::WorldRel::kSExtended : exec::WorldRel::kRExtended;
      plan.r_const_eq.clear();
      plan.s_const_eq.clear();
      std::vector<exec::ColumnFilter>& filters =
          filter_r ? plan.r_const_eq : plan.s_const_eq;
      const std::optional<size_t> head_column = column_of(!filter_r, head);
      plan.impossible = !head_column.has_value();
      for (size_t i = 0; i < antecedent.size() && !plan.impossible; ++i) {
        const std::optional<size_t> column = column_of(filter_r, antecedent[i]);
        plan.impossible = !column.has_value();
        if (column.has_value()) filters.push_back(exec::ColumnFilter{*column});
      }
      if (plan.impossible) {
        gen.AddRule(plan, nullptr);
        continue;
      }
      // Only a possible orientation encodes and indexes its columns.
      for (size_t i = 0; i < filters.size(); ++i) {
        const Value& constant = atoms.atom(antecedent[i]).value;
        filters[i] = exec::ResolveFilter(world, filter_slot,
                                         filter_r ? r_ext : s_ext,
                                         filters[i].column, constant,
                                         constant.Hash());
      }
      const uint32_t head_id = world.dict().GetOrIntern(atoms.atom(head).value);
      residuals->push_back(StagedConjunction::NotEqual(
          head_slot, *head_column, head_id, r_ext, s_ext, world));
      gen.AddRule(plan, &residuals->back());
    }
  }
}

/// One staged sweep, in priority order: per rule of `antecedents` the
/// direct orientation, then, with `both_orientations`, the flipped one;
/// then both orientations of each Proposition 1 rule in `induced` of
/// `ilfds` (null when `induced` is empty).
exec::FiredRows Sweep(
    const std::vector<const std::vector<Predicate>*>& antecedents,
    bool both_orientations, const IlfdSet* ilfds,
    const std::vector<InducedRule>& induced, const Relation& r_ext,
    const Relation& s_ext, exec::ColumnarWorld& world,
    exec::ThreadPool* pool, exec::StageStats* stats) {
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
  // compile_ms: lowering every rule to its residual and registering it.
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
  // Registered in priority order, so the generator's min-priority-wins
  // emission keeps, per pair, the first (rule, orientation) that fires.
  exec::CandidateGenerator gen(&r_ext, &s_ext, world);
  for (size_t i = 0; i < plans.size(); ++i) {
    gen.AddRule(plans[i], evaluators[i].get());
  }
  std::vector<StagedConjunction> induced_residuals;
  if (!induced.empty()) {
    RegisterInduced(*ilfds, induced, r_ext, s_ext, world, gen,
                    &induced_residuals);
  }
  stats->compile_ms = compile_timer.ElapsedMs();
  exec::StagedScanStats scan;
  exec::FiredRows fired = gen.Run(pool, &scan);
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
  // A rule Validate accepts probes a join, so no entry is describable
  // and every row is explicit; a rule it rejects may fire on most of S.
  return Sweep(Antecedents(rules), /*both_orientations=*/false,
               /*ilfds=*/nullptr, {}, r_ext, s_ext, world, pool, stats)
      .Materialize();
}

exec::FiredRows SweepRules(const std::vector<DistinctnessRule>& rules,
                           const IlfdSet& ilfds,
                           const std::vector<InducedRule>& induced,
                           const Relation& r_ext, const Relation& s_ext,
                           exec::ColumnarWorld& world,
                           exec::ThreadPool* pool,
                           exec::StageStats* stats) {
  return Sweep(Antecedents(rules), /*both_orientations=*/true, &ilfds,
               induced, r_ext, s_ext, world, pool, stats);
}

}  // namespace compile
}  // namespace eid
