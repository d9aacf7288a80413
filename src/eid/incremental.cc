#include "eid/incremental.h"

#include <algorithm>
#include <iterator>

#include "eid/extension.h"
#include "exec/blocking_index.h"

namespace eid {
namespace {

constexpr size_t kNoMatch = SIZE_MAX;

/// Removes `id` from an ascending id list that holds it.
void EraseSorted(std::vector<size_t>* ids, size_t id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
}

/// Removes `id` from the ascending id list `(*index)[key]`, dropping the
/// list once it is empty.
template <typename Index, typename Key>
void EraseFromBucket(Index* index, const Key& key, size_t id) {
  auto it = index->find(key);
  if (it == index->end()) return;
  EraseSorted(&it->second, id);
  if (it->second.empty()) index->erase(it);
}

}  // namespace

Result<IncrementalIdentifier> IncrementalIdentifier::Create(
    IdentifierConfig config, Relation empty_r, Relation empty_s) {
  if (!empty_r.empty() || !empty_s.empty()) {
    return Status::InvalidArgument(
        "IncrementalIdentifier starts from empty relations");
  }
  EID_RETURN_IF_ERROR(config.correspondence.ValidateAgainst(empty_r, empty_s));
  for (const IdentityRule& rule : config.identity_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }

  IncrementalIdentifier out;

  // Extended schemas via the batch extension on empty inputs.
  ExtendedKey key = config.extended_key.has_value()
                        ? *config.extended_key
                        : ExtendedKey(std::vector<std::string>{});
  ExtensionOptions ext = config.matcher_options.extension;
  if (!config.extended_key.has_value()) ext.derive_all = true;
  EID_ASSIGN_OR_RETURN(
      ExtensionResult rx,
      ExtendRelation(empty_r, Side::kR, config.correspondence, key,
                     config.ilfds, ext));
  EID_ASSIGN_OR_RETURN(
      ExtensionResult sx,
      ExtendRelation(empty_s, Side::kS, config.correspondence, key,
                     config.ilfds, ext));
  out.sides_[0].ext_schema = rx.extended.schema();
  out.sides_[1].ext_schema = sx.extended.schema();

  // Distinctness rules: explicit + Proposition 1 induced.
  for (const DistinctnessRule& rule : config.distinctness_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  EID_ASSIGN_OR_RETURN(out.all_distinctness_,
                       EffectiveDistinctnessRules(config));

  out.sides_[0].proto = std::move(empty_r);
  out.sides_[1].proto = std::move(empty_s);
  out.config_ = std::make_unique<const IdentifierConfig>(std::move(config));
  out.derivation_ = out.config_->matcher_options.extension.derivation;
  if (out.config_->extended_key.has_value() &&
      out.derivation_.target_attributes.empty()) {
    out.derivation_.target_attributes = out.config_->extended_key->attributes();
  }
  for (SideState& side : out.sides_) {
    side.live_keys.resize(side.proto.keys().size());
    if (out.config_->extended_key.has_value()) {
      for (const std::string& a : out.config_->extended_key->attributes()) {
        EID_ASSIGN_OR_RETURN(size_t i, side.ext_schema.RequireIndex(a));
        side.ext_key_cols.push_back(i);
      }
    }
  }

  // Per-insert acceleration: blocking plans per (rule, orientation)
  // against the extended schemas, resolved to columns, and the union of
  // columns those plans bucket on (maintained by the dynamic value
  // indexes on every insert/delete).
  auto resolve = [&out](const std::vector<Predicate>& predicates,
                        bool flipped) {
    const exec::BlockingPlan plan =
        exec::PlanBlocking(predicates, out.sides_[0].ext_schema,
                           out.sides_[1].ext_schema, flipped);
    StagedPlan resolved;
    resolved.impossible = plan.impossible;
    if (plan.impossible) return resolved;
    // A non-impossible plan only names attributes of its schemas.
    auto column = [&](int side, const std::string& attr) {
      SideState& s = out.sides_[side];
      const size_t col = *s.ext_schema.IndexOf(attr);
      if (std::find(s.tracked_cols.begin(), s.tracked_cols.end(), col) ==
          s.tracked_cols.end()) {
        s.tracked_cols.push_back(col);
      }
      return col;
    };
    resolved.has_join = plan.has_join;
    if (plan.has_join) {
      resolved.join_col = {column(0, plan.r_attr), column(1, plan.s_attr)};
    }
    for (const auto& [attr, v] : plan.r_const_eq) {
      resolved.const_eq[0].emplace_back(column(0, attr), v);
    }
    for (const auto& [attr, v] : plan.s_const_eq) {
      resolved.const_eq[1].emplace_back(column(1, attr), v);
    }
    return resolved;
  };
  // Lower the session's programs once: derivation per side and every
  // rule antecedent per orientation, next to its plan.
  for (SideState& side : out.sides_) {
    side.value_index.resize(side.ext_schema.size());
    side.derive = std::make_unique<compile::DerivationProgram>(
        compile::DerivationProgram::Compile(side.ext_schema,
                                            out.config_->ilfds,
                                            out.derivation_));
    side.eval = std::make_unique<ClosureEvaluator>(&side.derive->kb());
  }
  auto lower = [&](const std::vector<Predicate>& predicates,
                   std::vector<RuleOrientation>* into) {
    for (bool flipped : {false, true}) {
      into->push_back(RuleOrientation{
          resolve(predicates, flipped),
          compile::CompiledConjunction::Compile(
              predicates, out.sides_[0].ext_schema, out.sides_[1].ext_schema,
              flipped)});
    }
  };
  for (const IdentityRule& rule : out.config_->identity_rules) {
    lower(rule.predicates(), &out.identity_rules_);
  }
  for (const DistinctnessRule& rule : out.all_distinctness_) {
    lower(rule.predicates(), &out.distinct_rules_);
  }
  return out;
}

Result<size_t> IncrementalIdentifier::Insert(Side side, Row row) {
  const bool is_r = side == Side::kR;
  const int own_side = is_r ? 0 : 1;
  const int other_side = 1 - own_side;
  SideState& own = sides_[own_side];
  SideState& other = sides_[other_side];
  const Relation& proto = own.proto;

  // Arity, type and NULL-in-key checks, then candidate-key uniqueness
  // against the live rows' fingerprints, with Relation::Insert's error
  // text. Nothing is registered until the derivation below succeeds, so
  // the error paths have nothing to roll back.
  EID_RETURN_IF_ERROR(proto.CheckRow(row));
  std::vector<std::string> key_fingerprints;
  key_fingerprints.reserve(proto.keys().size());
  for (size_t k = 0; k < proto.keys().size(); ++k) {
    std::string fp = RowFingerprint(row, proto.keys()[k].attribute_indices);
    if (own.live_keys[k].count(fp) > 0) {
      return Status::ConstraintViolation(
          "candidate-key violation in relation '" + proto.name() +
          "': duplicate key " + TupleView(&proto.schema(), &row).ToString());
    }
    key_fingerprints.push_back(std::move(fp));
  }

  // Extend: base values (already world-positioned: renaming preserves
  // column order) + NULLs for the added K_ext columns, then derive.
  Entry entry;
  entry.extended = std::move(row);
  entry.extended.resize(own.ext_schema.size(), Value::Null());
  std::vector<compile::DerivationWrite> writes;
  EID_RETURN_IF_ERROR(
      own.derive->Derive(entry.extended, *own.eval, &writes).status());
  for (const compile::DerivationWrite& w : writes) {
    if (entry.extended[w.column].is_null()) {
      entry.extended[w.column] = w.value;
    }
  }
  entry.alive = true;
  // Empty when any K_ext value is NULL: such a key never joins.
  if (!AnyNull(entry.extended, own.ext_key_cols)) {
    entry.ext_key_fingerprint = RowFingerprint(entry.extended,
                                               own.ext_key_cols);
  }

  // Register the tuple: id, key fingerprints, ext-key and value indexes.
  const size_t id = own.entries.size();
  own.entries.push_back(std::move(entry));
  const Entry& stored = own.entries.back();
  ++own.live;
  for (size_t k = 0; k < key_fingerprints.size(); ++k) {
    own.live_keys[k].insert(std::move(key_fingerprints[k]));
  }
  if (!stored.ext_key_fingerprint.empty()) {
    own.ext_index[stored.ext_key_fingerprint].push_back(id);
  }
  for (size_t col : own.tracked_cols) {
    const Value& v = stored.extended[col];
    if (!v.is_null()) own.value_index[col][v].push_back(id);
  }

  // Appends to `fired` the other side's live ids for which some (rule,
  // orientation) of a family fires, then sorts and deduplicates it. Per
  // orientation: kill it via the inserted row's own-side const
  // conjuncts, then evaluate only the other side's join/const bucket —
  // or, with no indexable conjunct, every live id. The *full* compiled
  // antecedent is evaluated on every candidate (pair in relation space,
  // r-row first), so over-approximate buckets stay harmless.
  auto sweep = [&](const std::vector<RuleOrientation>& rules,
                   std::vector<size_t>* fired) {
    auto fires = [&](const RuleOrientation& rule, size_t other_id) {
      const Row& other_row = other.entries[other_id].extended;
      return rule.program.Evaluate(is_r ? stored.extended : other_row,
                                   is_r ? other_row : stored.extended) ==
             Truth::kTrue;
    };
    for (const RuleOrientation& rule : rules) {
      const StagedPlan& plan = rule.plan;
      if (plan.impossible) continue;
      // Exact kill: an own-side const conjunct failing on the inserted
      // row (NULL or not storage-equal) can never be kTrue.
      bool dead = false;
      for (const auto& [col, constant] : plan.const_eq[own_side]) {
        const Value& v = stored.extended[col];
        if (v.is_null() || !(v == constant)) {
          dead = true;
          break;
        }
      }
      if (dead) continue;
      const Value* probe = nullptr;
      size_t probe_col = 0;
      if (plan.has_join) {
        probe = &stored.extended[plan.join_col[own_side]];
        probe_col = plan.join_col[other_side];
        if (probe->is_null()) continue;  // non_null_eq: never joins
      } else if (!plan.const_eq[other_side].empty()) {
        // Seed candidates from the first const filter's bucket; the full
        // evaluation re-checks every conjunct.
        probe = &plan.const_eq[other_side].front().second;
        probe_col = plan.const_eq[other_side].front().first;
      } else {
        // No indexable conjunct: scan the live side.
        for (size_t other_id = 0; other_id < other.entries.size();
             ++other_id) {
          if (other.entries[other_id].alive && fires(rule, other_id)) {
            fired->push_back(other_id);
          }
        }
        continue;
      }
      const auto& buckets = other.value_index[probe_col];
      auto bucket = buckets.find(*probe);
      if (bucket == buckets.end()) continue;
      for (size_t other_id : bucket->second) {  // live ids only
        if (fires(rule, other_id)) fired->push_back(other_id);
      }
    }
    std::sort(fired->begin(), fired->end());
    fired->erase(std::unique(fired->begin(), fired->end()), fired->end());
  };

  // Candidate matches: the extended-key hash probe, then identity rules.
  // Batch Identify adds every key-join pair before any identity-rule
  // pair, so the two kinds go to separate lists for RebuildMatching; a
  // pair both certify is a key-join pair.
  std::vector<size_t> key_ids;
  if (!stored.ext_key_fingerprint.empty()) {
    auto it = other.ext_index.find(stored.ext_key_fingerprint);
    if (it != other.ext_index.end()) key_ids = it->second;  // ascending
  }
  std::vector<size_t> rule_ids;
  if (!config_->identity_rules.empty()) {
    std::vector<size_t> fired;
    sweep(identity_rules_, &fired);
    std::set_difference(fired.begin(), fired.end(), key_ids.begin(),
                        key_ids.end(), std::back_inserter(rule_ids));
  }
  auto link = [&](const std::vector<size_t>& ids,
                  std::vector<CandidatePair>* list) {
    for (size_t other_id : ids) {
      const CandidatePair c{is_r ? id : other_id, is_r ? other_id : id};
      list->insert(std::lower_bound(list->begin(), list->end(), c), c);
      other.entries[other_id].candidates.push_back(id);
    }
  };
  link(key_ids, &key_candidates_);
  link(rule_ids, &rule_candidates_);
  std::vector<size_t>& candidates = own.entries[id].candidates;
  std::merge(key_ids.begin(), key_ids.end(), rule_ids.begin(), rule_ids.end(),
             std::back_inserter(candidates));

  // Negative pairs via distinctness rules (both orientations).
  std::vector<size_t> negatives;
  sweep(distinct_rules_, &negatives);
  for (size_t other_id : negatives) {
    other.entries[other_id].negatives.push_back(id);
  }
  negative_count_ += negatives.size();
  own.entries[id].negatives = std::move(negatives);

  matching_dirty_ = true;
  return id;
}

Result<size_t> IncrementalIdentifier::InsertR(Row row) {
  return Insert(Side::kR, std::move(row));
}

Result<size_t> IncrementalIdentifier::InsertS(Row row) {
  return Insert(Side::kS, std::move(row));
}

Status IncrementalIdentifier::Delete(Side side, size_t id) {
  const bool is_r = side == Side::kR;
  SideState& own = sides_[is_r ? 0 : 1];
  SideState& other = sides_[is_r ? 1 : 0];
  if (id >= own.entries.size() || !own.entries[id].alive) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  Entry& entry = own.entries[id];
  --own.live;

  // Free its candidate-key slots: key columns are never NULL and never
  // derived, so the extended row still holds the inserted key values.
  for (size_t k = 0; k < own.proto.keys().size(); ++k) {
    own.live_keys[k].erase(RowFingerprint(
        entry.extended, own.proto.keys()[k].attribute_indices));
  }
  if (!entry.ext_key_fingerprint.empty()) {
    EraseFromBucket(&own.ext_index, entry.ext_key_fingerprint, id);
  }
  for (size_t col : own.tracked_cols) {
    const Value& v = entry.extended[col];
    if (!v.is_null()) EraseFromBucket(&own.value_index[col], v, id);
  }

  // Retract the pairs it is part of.
  for (size_t other_id : entry.candidates) {
    EraseSorted(&other.entries[other_id].candidates, id);
    const CandidatePair c{is_r ? id : other_id, is_r ? other_id : id};
    auto it = std::lower_bound(key_candidates_.begin(),
                               key_candidates_.end(), c);
    if (it != key_candidates_.end() && !(c < *it)) {
      key_candidates_.erase(it);
    } else {
      rule_candidates_.erase(std::lower_bound(rule_candidates_.begin(),
                                              rule_candidates_.end(), c));
    }
  }
  for (size_t other_id : entry.negatives) {
    EraseSorted(&other.entries[other_id].negatives, id);
  }
  negative_count_ -= entry.negatives.size();

  entry = Entry();  // releases the row and pair lists; alive = false
  matching_dirty_ = true;
  return Status::Ok();
}

Status IncrementalIdentifier::DeleteR(size_t id) {
  return Delete(Side::kR, id);
}

Status IncrementalIdentifier::DeleteS(size_t id) {
  return Delete(Side::kS, id);
}

void IncrementalIdentifier::RebuildMatching() const {
  if (!matching_dirty_) return;
  matching_dirty_ = false;
  std::vector<size_t>& r_match = sides_[0].match;
  std::vector<size_t>& s_match = sides_[1].match;
  for (const CandidatePair& c : matching_) {
    r_match[c.r_id] = kNoMatch;
    s_match[c.s_id] = kNoMatch;
  }
  r_match.resize(sides_[0].entries.size(), kNoMatch);
  s_match.resize(sides_[1].entries.size(), kNoMatch);
  matching_.clear();
  uniqueness_ = Status::Ok();
  for (const std::vector<CandidatePair>* list :
       {&key_candidates_, &rule_candidates_}) {
    for (const CandidatePair& c : *list) {
      if (r_match[c.r_id] != kNoMatch || s_match[c.s_id] != kNoMatch) {
        if (uniqueness_.ok()) {
          uniqueness_ = Status::ConstraintViolation(
              "uniqueness constraint: tuple matched more than once "
              "(candidate R" + std::to_string(c.r_id) + "/S" +
              std::to_string(c.s_id) + " shadowed)");
        }
        continue;
      }
      r_match[c.r_id] = c.s_id;
      s_match[c.s_id] = c.r_id;
      matching_.push_back(c);
    }
  }
}

Result<Relation> IncrementalIdentifier::MatchingRelation() const {
  RebuildMatching();
  const std::vector<size_t> r_key = sides_[0].proto.PrimaryKeyIndices();
  const std::vector<size_t> s_key = sides_[1].proto.PrimaryKeyIndices();
  std::vector<Attribute> attrs;
  for (size_t i : r_key) {
    Attribute a = sides_[0].ext_schema.attribute(i);
    a.name = "R." + a.name;
    attrs.push_back(std::move(a));
  }
  for (size_t i : s_key) {
    Attribute a = sides_[1].ext_schema.attribute(i);
    a.name = "S." + a.name;
    attrs.push_back(std::move(a));
  }
  Relation out("MT", Schema(std::move(attrs)));
  for (const CandidatePair& c : matching_) {
    Row row;
    for (size_t i : r_key) {
      row.push_back(sides_[0].entries[c.r_id].extended[i]);
    }
    for (size_t i : s_key) {
      row.push_back(sides_[1].entries[c.s_id].extended[i]);
    }
    EID_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

PairPartition IncrementalIdentifier::Partition() const {
  RebuildMatching();
  PairPartition p;
  p.total = sides_[0].live * sides_[1].live;
  p.matched = matching_.size();
  p.non_matched = negative_count_;
  p.undetermined =
      p.total - std::min(p.total, p.matched + p.non_matched);
  return p;
}

MatchDecision IncrementalIdentifier::Decide(size_t r_id, size_t s_id) const {
  RebuildMatching();
  if (r_id >= sides_[0].entries.size() || s_id >= sides_[1].entries.size()) {
    return MatchDecision::kUndetermined;
  }
  if (sides_[0].match[r_id] == s_id) return MatchDecision::kMatch;
  const std::vector<size_t>& negatives = sides_[0].entries[r_id].negatives;
  if (std::binary_search(negatives.begin(), negatives.end(), s_id)) {
    return MatchDecision::kNonMatch;
  }
  return MatchDecision::kUndetermined;
}

Status IncrementalIdentifier::Uniqueness() const {
  RebuildMatching();
  return uniqueness_;
}

std::optional<size_t> IncrementalIdentifier::SideState::MatchOf(
    size_t id) const {
  if (id >= match.size() || match[id] == kNoMatch) return std::nullopt;
  return match[id];
}

std::optional<size_t> IncrementalIdentifier::MatchOfR(size_t r_id) const {
  RebuildMatching();
  return sides_[0].MatchOf(r_id);
}

std::optional<size_t> IncrementalIdentifier::MatchOfS(size_t s_id) const {
  RebuildMatching();
  return sides_[1].MatchOf(s_id);
}

Relation IncrementalIdentifier::SideState::Live() const {
  Relation out(proto.name() + "'", ext_schema);
  for (const Entry& e : entries) {
    if (e.alive) {
      Status st = out.Insert(e.extended);
      EID_CHECK(st.ok());
    }
  }
  return out;
}

Relation IncrementalIdentifier::LiveR() const { return sides_[0].Live(); }

Relation IncrementalIdentifier::LiveS() const { return sides_[1].Live(); }

}  // namespace eid
