#include "exec/blocking_index.h"

namespace eid {
namespace exec {

BlockingPlan PlanBlocking(const std::vector<Predicate>& predicates,
                          const Schema& r_schema, const Schema& s_schema,
                          bool flipped) {
  BlockingPlan plan;
  // Which relation an entity's attributes live in under this orientation.
  auto schema_of = [&](int entity) -> const Schema& {
    bool r_side = (entity == 1) != flipped;
    return r_side ? r_schema : s_schema;
  };
  auto is_r_side = [&](int entity) { return (entity == 1) != flipped; };
  // Coverage of a conjunct the enumeration does not enforce: hoistable to
  // the r-side row loop when every entity operand binds the r side.
  auto residual_of = [&](const Predicate& p) {
    for (const Operand* o : {&p.lhs, &p.rhs}) {
      if (o->kind == Operand::Kind::kEntityAttribute &&
          !is_r_side(o->entity)) {
        return PredicateCoverage::kResidualPair;
      }
    }
    return PredicateCoverage::kResidualRow;
  };
  // Indices (into `coverage`) of s-side const filters, provisionally
  // covered; demoted below when a join ends up driving the enumeration.
  std::vector<size_t> s_covered;

  for (const Predicate& p : predicates) {
    // Any conjunct referencing an attribute absent from its bound schema
    // evaluates on a NULL operand — kUnknown for every op — so the
    // conjunction can never reach kTrue.
    for (const Operand* o : {&p.lhs, &p.rhs}) {
      if (o->kind == Operand::Kind::kEntityAttribute &&
          !schema_of(o->entity).Contains(o->attribute)) {
        plan.impossible = true;
        plan.coverage.clear();
        return plan;
      }
      if (o->kind == Operand::Kind::kConstant && o->constant.is_null()) {
        plan.impossible = true;  // NULL operand: kUnknown forever
        plan.coverage.clear();
        return plan;
      }
    }
    // Row-independent conjunct (constant vs constant): evaluate now.
    if (p.lhs.kind == Operand::Kind::kConstant &&
        p.rhs.kind == Operand::Kind::kConstant) {
      if (CompareValues(p.lhs.constant, p.op, p.rhs.constant) !=
          Truth::kTrue) {
        plan.impossible = true;
        plan.coverage.clear();
        return plan;
      }
      plan.coverage.push_back(PredicateCoverage::kCovered);
      continue;
    }
    if (p.op != CompareOp::kEq) {
      plan.coverage.push_back(residual_of(p));
      continue;
    }
    const bool lhs_attr = p.lhs.kind == Operand::Kind::kEntityAttribute;
    const bool rhs_attr = p.rhs.kind == Operand::Kind::kEntityAttribute;
    if (lhs_attr && rhs_attr) {
      if (p.lhs.entity == p.rhs.entity) {  // same-side: not a join
        plan.coverage.push_back(residual_of(p));
        continue;
      }
      // A probe candidate; ChooseProbe covers the one probed through.
      const bool lhs_r = is_r_side(p.lhs.entity);
      plan.joins.push_back(BlockingPlan::Join{
          lhs_r ? p.lhs.attribute : p.rhs.attribute,
          lhs_r ? p.rhs.attribute : p.lhs.attribute, plan.coverage.size()});
      plan.coverage.push_back(PredicateCoverage::kResidualPair);
      continue;
    }
    if (lhs_attr != rhs_attr) {
      const Operand& attr_op = lhs_attr ? p.lhs : p.rhs;
      const Operand& const_op = lhs_attr ? p.rhs : p.lhs;
      const bool r_side = is_r_side(attr_op.entity);
      auto& filters = r_side ? plan.r_const_eq : plan.s_const_eq;
      filters.emplace_back(attr_op.attribute, const_op.constant);
      if (!r_side) s_covered.push_back(plan.coverage.size());
      plan.coverage.push_back(PredicateCoverage::kCovered);
      continue;
    }
    plan.coverage.push_back(residual_of(p));
  }
  if (!plan.joins.empty()) {
    // The join path probes s-side buckets directly; s const filters are
    // not applied to bucket rows, so they stay part of the residual.
    for (size_t i : s_covered) {
      plan.coverage[i] = PredicateCoverage::kResidualPair;
    }
  }
  return plan;
}

void ChooseProbe(BlockingPlan* plan, ColumnarWorld& world,
                 const Relation& s_ext) {
  if (plan->impossible || plan->joins.empty()) return;
  size_t best = 0;
  size_t best_distinct = 0;
  for (size_t j = 0; j < plan->joins.size(); ++j) {
    // A non-impossible plan only names attributes of its schemas.
    const size_t column = *s_ext.schema().IndexOf(plan->joins[j].s_attr);
    const size_t distinct =
        world.Index(WorldRel::kSExtended, s_ext, column).distinct();
    if (j == 0 || distinct > best_distinct) {
      best = j;
      best_distinct = distinct;
    }
  }
  plan->probe = best;
  plan->coverage[plan->joins[best].conjunct] = PredicateCoverage::kCovered;
}

ColumnFilter ResolveFilter(ColumnarWorld& world, WorldRel slot,
                           const Relation& rel, size_t column,
                           const Value& constant, uint64_t hash) {
  world.Index(slot, rel, column);
  return ColumnFilter{column, world.dict().Find(constant, hash)};
}

ColumnPlan ResolvePlan(const BlockingPlan& plan, const Relation& r_ext,
                       const Relation& s_ext, ColumnarWorld& world) {
  ColumnPlan resolved;
  resolved.impossible = plan.impossible;
  auto resolve = [&](bool r_side,
                     const std::vector<std::pair<std::string, Value>>& filters,
                     std::vector<ColumnFilter>* out) {
    const Relation& rel = r_side ? r_ext : s_ext;
    for (const auto& [attribute, constant] : filters) {
      std::optional<size_t> column = rel.schema().IndexOf(attribute);
      if (!column.has_value()) return false;  // absent: nothing passes
      out->push_back(ResolveFilter(
          world, r_side ? WorldRel::kRExtended : WorldRel::kSExtended, rel,
          *column, constant, constant.Hash()));
    }
    return true;
  };
  if (!resolved.impossible) {
    resolved.impossible =
        !resolve(/*r_side=*/true, plan.r_const_eq, &resolved.r_const_eq) ||
        !resolve(/*r_side=*/false, plan.s_const_eq, &resolved.s_const_eq);
  }
  // The caller picks the probe among the joins (ChooseProbe) before
  // compiling the residual, which skips the probed conjunct.
  if (!resolved.impossible) {
    EID_CHECK(plan.joins.empty() != plan.probe.has_value());
    if (plan.probe.has_value()) {
      const BlockingPlan::Join& join = plan.joins[*plan.probe];
      std::optional<size_t> r_col = r_ext.schema().IndexOf(join.r_attr);
      std::optional<size_t> s_col = s_ext.schema().IndexOf(join.s_attr);
      EID_CHECK(r_col.has_value() && s_col.has_value());
      resolved.probe = std::pair{*r_col, *s_col};
    }
  }
  return resolved;
}

std::vector<uint32_t> FilteredRows(ColumnarWorld& world, WorldRel slot,
                                   const Relation& rel,
                                   const std::vector<ColumnFilter>& filters) {
  EID_CHECK(!filters.empty());
  PostingRange seed;
  for (size_t f = 0; f < filters.size(); ++f) {
    const PostingRange range =
        world.Index(slot, rel, filters[f].column).Find(filters[f].id);
    if (range.empty()) return {};  // never interned, or not in the column
    if (f == 0) seed = range;
  }
  std::vector<uint32_t> rows(seed.begin(), seed.end());
  for (size_t f = 1; f < filters.size(); ++f) {
    const uint32_t* ids = world.FindColumn(slot, filters[f].column)->data();
    const uint32_t id = filters[f].id;
    std::erase_if(rows, [&](uint32_t row) { return ids[row] != id; });
  }
  return rows;
}

}  // namespace exec
}  // namespace eid
