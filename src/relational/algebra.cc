#include "relational/algebra.h"

#include <unordered_map>
#include <unordered_set>

namespace eid {
namespace {

std::string FingerprintAll(const Row& row) {
  std::vector<size_t> idx(row.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return RowFingerprint(row, idx);
}

/// Output schema of a join: left attributes verbatim; right attributes,
/// minus `drop_right` positions, with collision-avoiding prefix.
Schema JoinedSchema(const Relation& left, const Relation& right,
                    const std::vector<bool>& drop_right) {
  std::vector<Attribute> attrs = left.schema().attributes();
  for (size_t j = 0; j < right.schema().size(); ++j) {
    if (drop_right[j]) continue;
    Attribute a = right.schema().attribute(j);
    bool collides = false;
    for (const Attribute& l : attrs) {
      if (l.name == a.name) {
        collides = true;
        break;
      }
    }
    if (collides) {
      std::string base = right.name().empty() ? "right" : right.name();
      a.name = base + "." + a.name;
    }
    attrs.push_back(std::move(a));
  }
  return Schema(std::move(attrs));
}

struct JoinPlan {
  std::vector<size_t> left_idx;
  std::vector<size_t> right_idx;
  std::vector<bool> drop_right;  // right positions merged into left columns
};

Result<JoinPlan> PlanEquiJoin(const Relation& left, const Relation& right,
                              const std::vector<JoinCondition>& conditions,
                              bool natural) {
  JoinPlan plan;
  plan.drop_right.assign(right.schema().size(), false);
  for (const JoinCondition& c : conditions) {
    EID_ASSIGN_OR_RETURN(size_t li,
                         left.schema().RequireIndex(c.left_attribute));
    EID_ASSIGN_OR_RETURN(size_t ri,
                         right.schema().RequireIndex(c.right_attribute));
    plan.left_idx.push_back(li);
    plan.right_idx.push_back(ri);
    if (natural) plan.drop_right[ri] = true;
  }
  return plan;
}

/// Core hash join; optionally emits unmatched-left / unmatched-right rows
/// padded with NULLs (outer joins). In natural mode, a NULL-padded right
/// row still carries the left row's values in the shared columns; a
/// NULL-padded *left* row carries the right row's join values in the shared
/// columns (standard outer natural join semantics).
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::vector<JoinCondition>& conditions,
                          NullPolicy nulls, bool natural, bool keep_left,
                          bool keep_right, const std::string& out_name) {
  EID_ASSIGN_OR_RETURN(JoinPlan plan,
                       PlanEquiJoin(left, right, conditions, natural));
  Schema out_schema = JoinedSchema(left, right, plan.drop_right);
  Relation out(out_name, out_schema);

  // Build side: right rows keyed by join fingerprint.
  std::unordered_map<std::string, std::vector<size_t>> build;
  build.reserve(right.size() * 2);
  for (size_t r = 0; r < right.size(); ++r) {
    if (nulls == NullPolicy::kNullNeverMatches &&
        AnyNull(right.row(r), plan.right_idx)) {
      continue;  // unmatched; may still be emitted by keep_right below
    }
    build[RowFingerprint(right.row(r), plan.right_idx)].push_back(r);
  }

  std::vector<bool> right_matched(right.size(), false);
  auto emit = [&](const Row& lrow, const Row* rrow) -> Status {
    Row out_row = lrow;
    if (rrow == nullptr && natural) {
      // keep left: shared columns already hold left values; nothing to fix.
    }
    for (size_t j = 0; j < right.schema().size(); ++j) {
      if (plan.drop_right[j]) continue;
      out_row.push_back(rrow ? (*rrow)[j] : Value::Null());
    }
    return out.Insert(std::move(out_row));
  };

  for (size_t l = 0; l < left.size(); ++l) {
    const Row& lrow = left.row(l);
    bool matched = false;
    if (!(nulls == NullPolicy::kNullNeverMatches &&
          AnyNull(lrow, plan.left_idx))) {
      auto it = build.find(RowFingerprint(lrow, plan.left_idx));
      if (it != build.end()) {
        for (size_t r : it->second) {
          matched = true;
          right_matched[r] = true;
          EID_RETURN_IF_ERROR(emit(lrow, &right.row(r)));
        }
      }
    }
    if (!matched && keep_left) {
      EID_RETURN_IF_ERROR(emit(lrow, nullptr));
    }
  }

  if (keep_right) {
    for (size_t r = 0; r < right.size(); ++r) {
      if (right_matched[r]) continue;
      // Left part all NULL, except natural-join shared columns which take
      // the right row's values.
      Row out_row(left.schema().size(), Value::Null());
      if (natural) {
        for (size_t c = 0; c < plan.left_idx.size(); ++c) {
          out_row[plan.left_idx[c]] = right.row(r)[plan.right_idx[c]];
        }
      }
      for (size_t j = 0; j < right.schema().size(); ++j) {
        if (plan.drop_right[j]) continue;
        out_row.push_back(right.row(r)[j]);
      }
      EID_RETURN_IF_ERROR(out.Insert(std::move(out_row)));
    }
  }
  return out;
}

std::vector<JoinCondition> NaturalConditions(const Relation& left,
                                             const Relation& right) {
  std::vector<JoinCondition> conditions;
  for (const std::string& name :
       left.schema().CommonAttributeNames(right.schema())) {
    conditions.push_back(JoinCondition{name, name});
  }
  return conditions;
}

}  // namespace

Relation Select(const Relation& input, const RowPredicate& predicate) {
  Relation out(input.name(), input.schema());
  for (size_t i = 0; i < input.size(); ++i) {
    if (predicate(input.tuple(i))) {
      Status st = out.Insert(input.row(i));
      EID_CHECK(st.ok());
    }
  }
  return out;
}

Result<Relation> ProjectBag(const Relation& input,
                            const std::vector<std::string>& attributes) {
  EID_ASSIGN_OR_RETURN(Schema schema, input.schema().Project(attributes));
  std::vector<size_t> idx;
  idx.reserve(attributes.size());
  for (const std::string& a : attributes) {
    EID_ASSIGN_OR_RETURN(size_t i, input.schema().RequireIndex(a));
    idx.push_back(i);
  }
  Relation out(input.name(), schema);
  out.Reserve(input.size());
  for (const Row& row : input.rows()) {
    EID_RETURN_IF_ERROR(out.Insert(ProjectRow(row, idx)));
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& attributes) {
  EID_ASSIGN_OR_RETURN(Relation bag, ProjectBag(input, attributes));
  return Distinct(bag);
}

namespace {

/// Builds the renamed relation, re-declaring the input's candidate keys
/// (key positions are unaffected by renaming).
Result<Relation> RebuildRenamed(const Relation& input,
                                std::vector<Attribute> attrs) {
  Schema schema(std::move(attrs));
  Relation out(input.name(), schema);
  for (const KeyDef& key : input.keys()) {
    std::vector<std::string> names;
    for (size_t i : key.attribute_indices) {
      names.push_back(schema.attribute(i).name);
    }
    EID_RETURN_IF_ERROR(out.DeclareKey(names));
  }
  for (const Row& row : input.rows()) {
    EID_RETURN_IF_ERROR(out.Insert(row));
  }
  return out;
}

}  // namespace

Result<Relation> Rename(const Relation& input, const std::string& from,
                        const std::string& to) {
  EID_ASSIGN_OR_RETURN(size_t i, input.schema().RequireIndex(from));
  std::vector<Attribute> attrs = input.schema().attributes();
  if (from != to && input.schema().Contains(to)) {
    return Status::AlreadyExists("attribute '" + to + "' already exists");
  }
  attrs[i].name = to;
  return RebuildRenamed(input, std::move(attrs));
}

Result<Relation> RenameAll(const Relation& input,
                           const std::vector<std::string>& names) {
  if (names.size() != input.schema().size()) {
    return Status::InvalidArgument("RenameAll: arity mismatch");
  }
  std::vector<Attribute> attrs = input.schema().attributes();
  for (size_t i = 0; i < attrs.size(); ++i) attrs[i].name = names[i];
  return RebuildRenamed(input, std::move(attrs));
}

Result<Relation> EquiJoin(const Relation& left, const Relation& right,
                          const std::vector<JoinCondition>& conditions,
                          NullPolicy nulls) {
  return HashJoin(left, right, conditions, nulls, /*natural=*/false,
                  /*keep_left=*/false, /*keep_right=*/false,
                  left.name() + "_join_" + right.name());
}

Result<Relation> NaturalJoin(const Relation& left, const Relation& right,
                             NullPolicy nulls) {
  return HashJoin(left, right, NaturalConditions(left, right), nulls,
                  /*natural=*/true, /*keep_left=*/false,
                  /*keep_right=*/false, left.name() + "_join_" + right.name());
}

Result<Relation> LeftOuterJoin(const Relation& left, const Relation& right,
                               NullPolicy nulls) {
  return HashJoin(left, right, NaturalConditions(left, right), nulls,
                  /*natural=*/true, /*keep_left=*/true,
                  /*keep_right=*/false,
                  left.name() + "_lojoin_" + right.name());
}

Result<Relation> FullOuterJoin(const Relation& left, const Relation& right,
                               NullPolicy nulls) {
  return HashJoin(left, right, NaturalConditions(left, right), nulls,
                  /*natural=*/true, /*keep_left=*/true, /*keep_right=*/true,
                  left.name() + "_fojoin_" + right.name());
}

Result<Relation> Union(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema())) {
    return Status::InvalidArgument("Union: schema mismatch: [" +
                                   a.schema().ToString() + "] vs [" +
                                   b.schema().ToString() + "]");
  }
  Relation out(a.name(), a.schema());
  std::unordered_set<std::string> seen;
  auto add = [&](const Row& row) -> Status {
    if (seen.insert(FingerprintAll(row)).second) {
      return out.Insert(row);
    }
    return Status::Ok();
  };
  for (const Row& row : a.rows()) EID_RETURN_IF_ERROR(add(row));
  for (const Row& row : b.rows()) EID_RETURN_IF_ERROR(add(row));
  return out;
}

Result<Relation> Difference(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema())) {
    return Status::InvalidArgument("Difference: schema mismatch");
  }
  std::unordered_set<std::string> exclude;
  for (const Row& row : b.rows()) exclude.insert(FingerprintAll(row));
  Relation out(a.name(), a.schema());
  std::unordered_set<std::string> seen;
  for (const Row& row : a.rows()) {
    std::string fp = FingerprintAll(row);
    if (exclude.count(fp) == 0 && seen.insert(fp).second) {
      EID_RETURN_IF_ERROR(out.Insert(row));
    }
  }
  return out;
}

Result<Relation> CartesianProduct(const Relation& left,
                                  const Relation& right) {
  std::vector<bool> drop(right.schema().size(), false);
  Schema schema = JoinedSchema(left, right, drop);
  Relation out(left.name() + "_x_" + right.name(), schema);
  for (const Row& l : left.rows()) {
    for (const Row& r : right.rows()) {
      Row row = l;
      row.insert(row.end(), r.begin(), r.end());
      EID_RETURN_IF_ERROR(out.Insert(std::move(row)));
    }
  }
  return out;
}

Relation Distinct(const Relation& input) {
  Relation out(input.name(), input.schema());
  std::unordered_set<std::string> seen;
  for (const Row& row : input.rows()) {
    if (seen.insert(FingerprintAll(row)).second) {
      Status st = out.Insert(row);
      EID_CHECK(st.ok());
    }
  }
  return out;
}

}  // namespace eid
