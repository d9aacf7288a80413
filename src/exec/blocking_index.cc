#include "exec/blocking_index.h"

#include <algorithm>
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

std::vector<TuplePair> CollectTruePairs(
    const Relation& r_ext, const Relation& s_ext,
    const std::vector<Predicate>& predicates, bool flipped,
    ColumnarWorld* world, ThreadPool* pool, PairScanStats* stats,
    const PairEvaluator* compiled) {
  PairScanStats local;
  std::vector<TuplePair> out;
  BlockingPlan plan =
      PlanBlocking(predicates, r_ext.schema(), s_ext.schema(), flipped);
  if (plan.impossible || r_ext.empty() || s_ext.empty()) {
    if (stats != nullptr) *stats = local;
    return out;
  }
  local.indexed = plan.has_join;

  ColumnarWorld private_world;
  ColumnarWorld& blocking = world != nullptr ? *world : private_world;
  std::vector<size_t> r_rows = FilteredRows(blocking, WorldRel::kRExtended,
                                            r_ext, plan.r_const_eq);

  // Evaluate the *full* conjunction on a candidate — blocking only
  // bounds the candidate set, it never decides a pair. The compiled
  // evaluator takes rows in relation space; orientation is baked in.
  auto evaluate = [&](size_t i, size_t j) {
    if (compiled != nullptr) {
      return compiled->Evaluate(r_ext.row(i), s_ext.row(j));
    }
    TupleView rv = r_ext.tuple(i);
    TupleView sv = s_ext.tuple(j);
    return flipped ? EvaluateConjunction(predicates, sv, rv)
                   : EvaluateConjunction(predicates, rv, sv);
  };

  const int threads = pool != nullptr ? pool->threads() : 1;
  const size_t n = r_rows.size();
  if (n == 0) {
    if (stats != nullptr) *stats = local;
    return out;
  }
  const size_t grain =
      std::max<size_t>(1, n / (static_cast<size_t>(threads) * 4));
  const size_t num_chunks = (n + grain - 1) / grain;
  // Per-chunk buffers merged in chunk order: the output is row-major for
  // any thread count because chunks cover ascending r ranges.
  std::vector<std::vector<TuplePair>> found(num_chunks);
  std::vector<size_t> evals(num_chunks, 0);

  if (plan.has_join) {
    std::optional<size_t> r_col = r_ext.schema().IndexOf(plan.r_attr);
    std::optional<size_t> s_col = s_ext.schema().IndexOf(plan.s_attr);
    EID_CHECK(r_col.has_value() && s_col.has_value());  // PlanBlocking
    const uint32_t* r_ids =
        blocking.Column(WorldRel::kRExtended, r_ext, *r_col).data();
    const ColumnIndex& s_idx =
        blocking.Index(WorldRel::kSExtended, s_ext, *s_col);
    ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int) {
      const size_t chunk = begin / grain;
      for (size_t k = begin; k < end; ++k) {
        size_t i = r_rows[k];
        // A NULL cell (kNullId) is an empty range: non_null_eq.
        for (size_t j : s_idx.Find(r_ids[i])) {
          ++evals[chunk];
          if (evaluate(i, j) == Truth::kTrue) {
            found[chunk].push_back(TuplePair{i, j});
          }
        }
      }
    });
  } else {
    std::vector<size_t> s_rows = FilteredRows(blocking, WorldRel::kSExtended,
                                              s_ext, plan.s_const_eq);
    if (!s_rows.empty()) {
      ParallelFor(pool, n, grain, [&](size_t begin, size_t end, int) {
        const size_t chunk = begin / grain;
        for (size_t k = begin; k < end; ++k) {
          size_t i = r_rows[k];
          for (size_t j : s_rows) {
            ++evals[chunk];
            if (evaluate(i, j) == Truth::kTrue) {
              found[chunk].push_back(TuplePair{i, j});
            }
          }
        }
      });
    }
  }

  size_t total = 0;
  for (const auto& f : found) total += f.size();
  out.reserve(total);
  for (auto& f : found) {
    out.insert(out.end(), f.begin(), f.end());
  }
  for (size_t e : evals) {
    local.candidate_pairs += e;
    local.rule_evals += e;
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace exec
}  // namespace eid
