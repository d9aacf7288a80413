#include "exec/blocking_index.h"

#include <numeric>

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
      if (!plan.has_join) {
        plan.has_join = true;
        if (is_r_side(p.lhs.entity)) {
          plan.r_attr = p.lhs.attribute;
          plan.s_attr = p.rhs.attribute;
        } else {
          plan.r_attr = p.rhs.attribute;
          plan.s_attr = p.lhs.attribute;
        }
        plan.coverage.push_back(PredicateCoverage::kCovered);
      } else {
        // Only the first cross-entity equality drives the probe.
        plan.coverage.push_back(PredicateCoverage::kResidualPair);
      }
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
  if (plan.has_join) {
    // The join path probes s-side buckets directly; s const filters are
    // not applied to bucket rows, so they stay part of the residual.
    for (size_t i : s_covered) {
      plan.coverage[i] = PredicateCoverage::kResidualPair;
    }
  }
  return plan;
}

std::vector<size_t> FilteredRows(
    ColumnarWorld& world, WorldRel slot, const Relation& rel,
    const std::vector<std::pair<std::string, Value>>& filters) {
  std::vector<size_t> rows;
  if (filters.empty()) {
    rows.resize(rel.size());
    std::iota(rows.begin(), rows.end(), size_t{0});
    return rows;
  }
  PostingRange seed;
  std::vector<const uint32_t*> cols;  // filters 1.. : id column
  std::vector<uint32_t> ids;          // filters 1.. : constant id
  for (size_t f = 0; f < filters.size(); ++f) {
    std::optional<size_t> c = rel.schema().IndexOf(filters[f].first);
    if (!c.has_value()) return rows;  // attribute absent: nothing passes
    // Index encodes the column first, so the lookup below sees every
    // value the column holds.
    const ColumnIndex& index = world.Index(slot, rel, *c);
    const uint32_t id = world.dict().Find(filters[f].second);
    const PostingRange range = index.Find(id);
    if (range.empty()) return rows;  // never interned, or not in the column
    if (f == 0) {
      seed = range;
    } else {
      cols.push_back(world.FindColumn(slot, *c)->data());
      ids.push_back(id);
    }
  }
  for (uint32_t i : seed) {
    bool pass = true;
    for (size_t f = 0; f < cols.size(); ++f) {
      if (cols[f][i] != ids[f]) {
        pass = false;
        break;
      }
    }
    if (pass) rows.push_back(i);
  }
  return rows;
}

}  // namespace exec
}  // namespace eid
