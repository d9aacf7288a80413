#include "eid/reference.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

namespace eid {
namespace reference {

namespace {

/// The pairs of R' x S' agreeing non-NULL on every extended-key
/// attribute: r-major, s ascending.
Result<std::vector<TuplePair>> KeyJoin(const Relation& r_extended,
                                       const Relation& s_extended,
                                       const ExtendedKey& ext_key) {
  std::vector<size_t> r_idx, s_idx;
  for (const std::string& a : ext_key.attributes()) {
    EID_ASSIGN_OR_RETURN(size_t ri, r_extended.schema().RequireIndex(a));
    EID_ASSIGN_OR_RETURN(size_t si, s_extended.schema().RequireIndex(a));
    r_idx.push_back(ri);
    s_idx.push_back(si);
  }
  std::unordered_map<std::string, std::vector<size_t>> build;
  // A key with a NULL cell never joins (non_null_eq).
  for (size_t s = 0; s < s_extended.size(); ++s) {
    const Row& row = s_extended.row(s);
    if (!AnyNull(row, s_idx)) build[RowFingerprint(row, s_idx)].push_back(s);
  }
  std::vector<TuplePair> pairs;
  for (size_t r = 0; r < r_extended.size(); ++r) {
    const Row& row = r_extended.row(r);
    if (AnyNull(row, r_idx)) continue;
    auto it = build.find(RowFingerprint(row, r_idx));
    if (it == build.end()) continue;
    for (size_t s : it->second) pairs.push_back(TuplePair{r, s});
  }
  return pairs;
}

/// Appends `d` to `out` as one provenance row: each step as its head
/// atom and ILFD, the derived bit on the step whose value `d.derived`
/// keeps — its attribute's last step — and the conflicts as they are.
void PackRow(const Derivation& d, const AtomTable& atoms, Provenance* out) {
  std::map<std::string, size_t> last_step;
  for (const DerivationStep& step : d.steps) {
    const std::optional<AtomId> atom = atoms.Find(step.attribute, step.value);
    EID_CHECK(atom.has_value());
    last_step[step.attribute] =
        out->AddStep(*atom, static_cast<uint32_t>(step.ilfd_index));
  }
  for (const auto& [attribute, value] : d.derived) {
    auto it = last_step.find(attribute);
    EID_CHECK(it != last_step.end() &&
              atoms.atom(out->step(it->second).atom).value == value);
    out->MarkDerived(it->second);
  }
  for (const DerivationConflict& conflict : d.conflicts) {
    out->AddConflict(conflict);
  }
  out->EndRow();
}

/// Adds `pair` to MT under the uniqueness constraint: a violation is
/// recorded (first one wins) and the pair skipped.
void AddMatch(const TuplePair& pair, MatchTable* matching,
              Status* uniqueness) {
  Status st = matching->Add(pair);
  if (!st.ok() && uniqueness->ok()) *uniqueness = st;
}

}  // namespace

Result<ExtensionResult> ExtendRelation(const Relation& relation, Side side,
                                       const AttributeCorrespondence& corr,
                                       const ExtendedKey& ext_key,
                                       const IlfdSet& ilfds,
                                       const ExtensionOptions& options) {
  // Renaming into world naming never moves a column, so only the schema
  // is renamed and the source rows are read by position.
  EID_ASSIGN_OR_RETURN(Relation world, corr.ToWorldSchema(relation, side));

  // K_Ext - R, then (derive_all) every other derivable world attribute.
  std::vector<std::string> added;
  for (const std::string& a : ext_key.attributes()) {
    if (!world.schema().Contains(a)) added.push_back(a);
  }
  if (options.derive_all) {
    for (const std::string& a : ilfds.ConsequentAttributes()) {
      if (!world.schema().Contains(a) &&
          std::find(added.begin(), added.end(), a) == added.end()) {
        added.push_back(a);
      }
    }
  }
  std::vector<Attribute> attrs = world.schema().attributes();
  for (const std::string& name : added) {
    attrs.push_back(Attribute{name, ilfds.ConsequentType(name)});
  }
  Relation extended(world.name() + "'", Schema(std::move(attrs)));
  for (const KeyDef& key : world.keys()) {
    std::vector<std::string> names;
    for (size_t i : key.attribute_indices) {
      names.push_back(world.schema().attribute(i).name);
    }
    EID_RETURN_IF_ERROR(extended.DeclareKey(names));
  }

  DerivationOptions derivation = options.derivation;
  if (options.derive_all) {
    derivation.target_attributes.clear();  // everything derivable
  } else if (derivation.target_attributes.empty()) {
    derivation.target_attributes = ext_key.attributes();
  }

  ExtensionResult out;
  out.added_attributes = added;
  const Schema& schema = extended.schema();
  ClosureEvaluator evaluator(&ilfds.kb());
  for (const Row& source : relation.rows()) {
    Row row = source;
    row.resize(row.size() + added.size(), Value::Null());
    EID_ASSIGN_OR_RETURN(
        Derivation derived,
        DeriveTuple(TupleView(&schema, &row), ilfds, derivation, &evaluator));
    for (const auto& [attr, value] : derived.derived) {
      std::optional<size_t> idx = schema.IndexOf(attr);
      if (idx.has_value() && row[*idx].is_null()) row[*idx] = value;
    }
    EID_RETURN_IF_ERROR(extended.Insert(std::move(row)));
    PackRow(derived, ilfds.atoms(), &out.traces);
  }
  out.extended = std::move(extended);
  return out;
}

Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options) {
  if (ext_key.empty()) {
    return Status::InvalidArgument("extended key must be non-empty");
  }
  EID_RETURN_IF_ERROR(corr.ValidateAgainst(r, s));
  for (const std::string& a : ext_key.attributes()) {
    if (corr.Find(a) == nullptr) {
      return Status::NotFound("extended-key attribute '" + a +
                              "' unknown to the attribute correspondence");
    }
  }
  MatcherResult result;
  EID_ASSIGN_OR_RETURN(result.r_extension,
                       reference::ExtendRelation(r, Side::kR, corr, ext_key,
                                                 ilfds, options.extension));
  EID_ASSIGN_OR_RETURN(result.s_extension,
                       reference::ExtendRelation(s, Side::kS, corr, ext_key,
                                                 ilfds, options.extension));
  EID_ASSIGN_OR_RETURN(std::vector<TuplePair> pairs,
                       KeyJoin(result.r_extension.extended,
                               result.s_extension.extended, ext_key));
  result.uniqueness = Status::Ok();
  for (const TuplePair& p : pairs) {
    AddMatch(p, &result.matching, &result.uniqueness);
  }
  return result;
}

Result<IdentificationResult> Identify(const IdentifierConfig& config,
                                      const Relation& r, const Relation& s) {
  const MatcherOptions& options = config.matcher_options;
  IdentificationResult out;
  EID_RETURN_IF_ERROR(config.correspondence.ValidateAgainst(r, s));

  // Extension and extended-key matching; without an extended key every
  // derivable attribute is derived, so the rules see the richest tuples.
  out.uniqueness = Status::Ok();
  if (config.extended_key.has_value()) {
    EID_ASSIGN_OR_RETURN(
        MatcherResult m,
        reference::BuildMatchingTable(r, s, config.correspondence,
                                      *config.extended_key, config.ilfds,
                                      options));
    out.r_extended = std::move(m.r_extension.extended);
    out.s_extended = std::move(m.s_extension.extended);
    out.r_traces = std::move(m.r_extension.traces);
    out.s_traces = std::move(m.s_extension.traces);
    out.matching = std::move(m.matching);
    out.uniqueness = std::move(m.uniqueness);
  } else {
    ExtensionOptions ext = options.extension;
    ext.derive_all = true;
    const ExtendedKey none(std::vector<std::string>{});
    EID_ASSIGN_OR_RETURN(
        ExtensionResult rx,
        reference::ExtendRelation(r, Side::kR, config.correspondence, none,
                                  config.ilfds, ext));
    EID_ASSIGN_OR_RETURN(
        ExtensionResult sx,
        reference::ExtendRelation(s, Side::kS, config.correspondence, none,
                                  config.ilfds, ext));
    out.r_extended = std::move(rx.extended);
    out.s_extended = std::move(sx.extended);
    out.r_traces = std::move(rx.traces);
    out.s_traces = std::move(sx.traces);
  }
  const size_t n_r = out.r_extended.size();
  const size_t n_s = out.s_extended.size();

  // Identity rules: a pair is added, row-major after the key pairs, when
  // some rule holds in either orientation (rules quantify over all
  // entity pairs).
  for (const IdentityRule& rule : config.identity_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  if (!config.identity_rules.empty()) {
    for (size_t i = 0; i < n_r; ++i) {
      const TupleView rv = out.r_extended.tuple(i);
      for (size_t j = 0; j < n_s; ++j) {
        const TupleView sv = out.s_extended.tuple(j);
        const bool fires = std::any_of(
            config.identity_rules.begin(), config.identity_rules.end(),
            [&](const IdentityRule& rule) {
              return rule.Matches(rv, sv) == Truth::kTrue ||
                     rule.Matches(sv, rv) == Truth::kTrue;
            });
        if (fires) {
          AddMatch(TuplePair{i, j}, &out.matching, &out.uniqueness);
        }
      }
    }
  }

  // Distinctness rules: the first (rule, orientation) in priority order
  // whose antecedent holds certifies the pair.
  EID_ASSIGN_OR_RETURN(std::vector<DistinctnessRule> rules,
                       EffectiveDistinctnessRules(config));
  for (const DistinctnessRule& rule : rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  // Every row explicit: the pairs in row-major order, each with its
  // certificate.
  exec::FiredRows certified;
  certified.complement.s_count = n_s;
  for (size_t i = 0; i < n_r; ++i) {
    const TupleView rv = out.r_extended.tuple(i);
    for (size_t j = 0; j < n_s; ++j) {
      const TupleView sv = out.s_extended.tuple(j);
      for (uint32_t p = 0; p < rules.size() * 2; ++p) {
        const DistinctnessRule& rule = rules[p / 2];
        const bool flipped = (p & 1) != 0;
        if ((flipped ? rule.Applies(sv, rv) : rule.Applies(rv, sv)) ==
            Truth::kTrue) {
          certified.pairs.push_back(TuplePair{i, j});
          certified.priorities.push_back(p);
          break;
        }
      }
    }
  }
  EID_ASSIGN_OR_RETURN(out.negative.table,
                       NegativeTable::FromRows(std::move(certified)));

  out.consistency =
      MatchTable::CheckConsistency(out.matching, out.negative.table);
  out.partition.total = n_r * n_s;
  out.partition.matched = out.matching.size();
  out.partition.non_matched = out.negative.table.size();
  out.partition.undetermined =
      out.partition.total -
      std::min(out.partition.total,
               out.partition.matched + out.partition.non_matched);
  return out;
}

}  // namespace reference
}  // namespace eid
