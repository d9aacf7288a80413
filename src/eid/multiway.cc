#include "eid/multiway.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "eid/extension.h"
#include "eid/matcher.h"
#include "eid/negative.h"

namespace eid {
namespace {

/// Plain union–find over dense node ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

std::vector<const EntityCluster*> MultiwayResult::MergedClusters() const {
  std::vector<const EntityCluster*> merged;
  for (const EntityCluster& c : clusters) {
    if (c.members.size() > 1) merged.push_back(&c);
  }
  return merged;
}

Result<MultiwayResult> IdentifyAll(const std::vector<Relation>& sources,
                                   const MultiwayConfig& config) {
  if (sources.size() < 2) {
    return Status::InvalidArgument("k-way identification requires k >= 2");
  }
  if (config.extended_key.empty() && config.identity_rules.empty()) {
    return Status::InvalidArgument(
        "neither an extended key nor identity rules were supplied");
  }
  for (const IdentityRule& rule : config.identity_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }

  MultiwayResult out;

  // Extend every source once. Sources are already world-named, so an
  // identity correspondence against an empty reference works: build a
  // correspondence from the source itself on the R side.
  for (const Relation& source : sources) {
    Relation empty_other("empty", Schema());
    AttributeCorrespondence corr;
    for (const Attribute& a : source.schema().attributes()) {
      EID_RETURN_IF_ERROR(
          corr.Add(AttributeMapping{a.name, a.name, std::nullopt}));
    }
    EID_ASSIGN_OR_RETURN(
        ExtensionResult ext,
        ExtendRelation(source, Side::kR, corr, config.extended_key,
                       config.ilfds, config.extension));
    out.extended.push_back(std::move(ext.extended));
  }

  // Distinctness rules: explicit + Proposition 1.
  std::vector<DistinctnessRule> rules = config.distinctness_rules;
  if (config.distinctness_from_ilfds) {
    for (const Ilfd& f : config.ilfds.ilfds()) {
      for (const Atom& c : f.consequent()) {
        EID_ASSIGN_OR_RETURN(
            DistinctnessRule rule,
            DistinctnessRuleFromIlfd(Ilfd::Implies(f.antecedent(), c)));
        rules.push_back(std::move(rule));
      }
    }
  }

  // Dense node ids.
  std::vector<size_t> offset(sources.size() + 1, 0);
  for (size_t i = 0; i < sources.size(); ++i) {
    offset[i + 1] = offset[i] + sources[i].size();
  }
  UnionFind uf(offset.back());

  // Pairwise identification.
  for (size_t i = 0; i < out.extended.size(); ++i) {
    for (size_t j = i + 1; j < out.extended.size(); ++j) {
      const Relation& a = out.extended[i];
      const Relation& b = out.extended[j];
      if (!config.extended_key.empty()) {
        EID_ASSIGN_OR_RETURN(std::vector<TuplePair> pairs,
                             JoinOnExtendedKey(a, b, config.extended_key));
        for (const TuplePair& p : pairs) {
          uf.Merge(offset[i] + p.r_index, offset[j] + p.s_index);
        }
      }
      // Direct orientation only: a valid identity rule fires on the
      // same pairs flipped.
      for (const IdentityRule& rule : config.identity_rules) {
        for (size_t x = 0; x < a.size(); ++x) {
          for (size_t y = 0; y < b.size(); ++y) {
            if (rule.Matches(a.tuple(x), b.tuple(y)) == Truth::kTrue) {
              uf.Merge(offset[i] + x, offset[j] + y);
            }
          }
        }
      }
      if (!rules.empty()) {
        EID_ASSIGN_OR_RETURN(NegativeResult negative,
                             BuildNegativeMatchingTable(a, b, rules));
        for (const TuplePair& p : negative.table.pairs()) {
          out.distinct_pairs.push_back(
              {MemberRef{i, p.r_index}, MemberRef{j, p.s_index}});
        }
      }
    }
  }

  // Clusters from the union-find.
  std::map<size_t, EntityCluster> by_root;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t r = 0; r < sources[i].size(); ++r) {
      by_root[uf.Find(offset[i] + r)].members.push_back(MemberRef{i, r});
    }
  }
  for (auto& [root, cluster] : by_root) {
    std::sort(cluster.members.begin(), cluster.members.end());
    out.clusters.push_back(std::move(cluster));
  }
  std::sort(out.clusters.begin(), out.clusters.end(),
            [](const EntityCluster& a, const EntityCluster& b) {
              return a.members.front() < b.members.front();
            });

  // Transitivity audit: one tuple per relation per cluster.
  out.transitivity = Status::Ok();
  for (const EntityCluster& cluster : out.clusters) {
    std::set<size_t> seen;
    for (const MemberRef& m : cluster.members) {
      if (!seen.insert(m.relation_index).second) {
        out.transitivity = Status::Unsound(
            "cluster holds two tuples of relation " +
            std::to_string(m.relation_index) +
            " — pairwise matches chain onto one relation (unsound "
            "extended key or rules)");
        break;
      }
    }
    if (!out.transitivity.ok()) break;
  }

  // Consistency audit: certified-distinct pairs must span clusters.
  out.consistency = Status::Ok();
  for (const auto& [x, y] : out.distinct_pairs) {
    size_t rx = uf.Find(offset[x.relation_index] + x.row_index);
    size_t ry = uf.Find(offset[y.relation_index] + y.row_index);
    if (rx == ry) {
      out.consistency = Status::ConstraintViolation(
          "a certified-distinct pair was merged into one cluster "
          "(consistency constraint, §3.2)");
      break;
    }
  }
  return out;
}

Result<Relation> BuildMultiwayIntegratedTable(
    const std::vector<Relation>& sources, const MultiwayResult& result,
    const std::string& name) {
  if (result.extended.size() != sources.size()) {
    return Status::InvalidArgument("result does not match sources");
  }
  // Column union over the *extended* relations, in first-seen order.
  std::vector<Attribute> attrs;
  for (const Relation& rel : result.extended) {
    for (const Attribute& a : rel.schema().attributes()) {
      bool present = false;
      for (const Attribute& existing : attrs) {
        if (existing.name == a.name) {
          present = true;
          break;
        }
      }
      if (!present) attrs.push_back(a);
    }
  }
  Schema schema(attrs);
  Relation out(name, schema);

  for (const EntityCluster& cluster : result.clusters) {
    Row row(schema.size(), Value::Null());
    for (const MemberRef& m : cluster.members) {
      const Relation& rel = result.extended[m.relation_index];
      for (size_t c = 0; c < rel.schema().size(); ++c) {
        const std::string& attr = rel.schema().attribute(c).name;
        size_t out_idx = *schema.IndexOf(attr);
        const Value& v = rel.row(m.row_index)[c];
        if (v.is_null()) continue;
        if (row[out_idx].is_null()) {
          row[out_idx] = v;
        } else if (!(row[out_idx] == v)) {
          return Status::FailedPrecondition(
              "attribute-value conflict on '" + attr +
              "' inside a cluster (" + row[out_idx].ToString() + " vs " +
              v.ToString() + "); resolve value conflicts after entity "
              "identification");
        }
      }
    }
    EID_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

}  // namespace eid
