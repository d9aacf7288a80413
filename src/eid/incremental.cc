#include "eid/incremental.h"

#include <algorithm>
#include <iterator>

#include "eid/extension.h"
#include "exec/blocking_index.h"

namespace eid {
namespace {

constexpr size_t kNoMatch = SIZE_MAX;

// The world slot of each side's extended rows, by side (0 = R, 1 = S).
constexpr exec::WorldRel kSlots[2] = {exec::WorldRel::kRExtended,
                                      exec::WorldRel::kSExtended};

/// Removes `id` from an ascending id list that holds it.
void EraseSorted(std::vector<size_t>* ids, size_t id) {
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) ids->erase(it);
}

/// Removes `id` from the ascending id list `(*buckets)[value]`, dropping
/// the list once it is empty.
void EraseFromBucket(
    std::unordered_map<uint32_t, std::vector<size_t>>* buckets,
    uint32_t value, size_t id) {
  auto it = buckets->find(value);
  if (it == buckets->end()) return;
  EraseSorted(&it->second, id);
  if (it->second.empty()) buckets->erase(it);
}

/// The column of side `k` (0 = R, 1 = S) whose bucket an insert on the
/// other side draws its candidates from under `plan`: the probed join's,
/// else the first filter's; nullopt when the plan has neither.
std::optional<size_t> SeedColumn(const exec::ColumnPlan& plan, size_t k) {
  if (plan.probe.has_value()) {
    return k == 0 ? plan.probe->first : plan.probe->second;
  }
  const std::vector<exec::ColumnFilter>& filters =
      k == 0 ? plan.r_const_eq : plan.s_const_eq;
  if (filters.empty()) return std::nullopt;
  return filters.front().column;
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
  // Derivation targets default to the extended key.
  DerivationOptions derivation = ext.derivation;
  if (config.extended_key.has_value() &&
      derivation.target_attributes.empty()) {
    derivation.target_attributes = config.extended_key->attributes();
  }
  EID_ASSIGN_OR_RETURN(
      ExtensionResult rx,
      ExtendRelation(empty_r, Side::kR, config.correspondence, key,
                     config.ilfds, ext));
  EID_ASSIGN_OR_RETURN(
      ExtensionResult sx,
      ExtendRelation(empty_s, Side::kS, config.correspondence, key,
                     config.ilfds, ext));

  // Distinctness rules: explicit + Proposition 1 induced.
  for (const DistinctnessRule& rule : config.distinctness_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  EID_ASSIGN_OR_RETURN(std::vector<DistinctnessRule> distinctness,
                       EffectiveDistinctnessRules(config));

  out.sides_[0].proto = std::move(empty_r);
  out.sides_[1].proto = std::move(empty_s);
  out.sides_[0].extended = std::move(rx.extended);
  out.sides_[1].extended = std::move(sx.extended);
  out.config_ = std::make_unique<const IdentifierConfig>(std::move(config));

  // The world holds every column of R' and S', empty so far; Insert
  // appends each row's ids. The derivation is lowered once per side.
  out.world_ = std::make_unique<exec::ColumnarWorld>();
  exec::ColumnarWorld& world = *out.world_;
  for (size_t k = 0; k < 2; ++k) {
    SideState& side = out.sides_[k];
    const Schema& schema = side.extended.schema();
    side.live_keys.resize(side.proto.keys().size());
    side.buckets.resize(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
      side.columns.push_back(&world.Column(kSlots[k], side.extended, c));
    }
    side.derive = std::make_unique<compile::DerivationProgram>(
        compile::DerivationProgram::Compile(schema, out.config_->ilfds,
                                            derivation));
    side.eval = std::make_unique<ClosureEvaluator>(&side.derive->kb());
  }

  // Every rule orientation is lowered as compile::SweepRules lowers it.
  // On the empty world ChooseProbe takes the first listed join. The
  // plan's constants are interned first: ResolveFilter only looks a
  // constant up, and it must keep its id when rows holding it arrive.
  const Relation& r_ext = out.sides_[0].extended;
  const Relation& s_ext = out.sides_[1].extended;
  auto lower = [&](const std::vector<Predicate>& predicates, bool flipped,
                   std::vector<RuleOrientation>* into) {
    exec::BlockingPlan plan =
        exec::PlanBlocking(predicates, r_ext.schema(), s_ext.schema(), flipped);
    exec::ChooseProbe(&plan, world, s_ext);
    for (const auto* filters : {&plan.r_const_eq, &plan.s_const_eq}) {
      for (const auto& [attribute, constant] : *filters) {
        world.dict().GetOrIntern(constant);
      }
    }
    RuleOrientation& rule = into->emplace_back();
    rule.plan = exec::ResolvePlan(plan, r_ext, s_ext, world);
    if (rule.plan.impossible) return;
    rule.residual = compile::StagedConjunction::Compile(
        predicates, plan.coverage, r_ext, s_ext, flipped, world);
    for (size_t k = 0; k < 2; ++k) {
      const std::optional<size_t> column = SeedColumn(rule.plan, k);
      std::vector<size_t>& tracked = out.sides_[k].tracked_cols;
      if (column.has_value() &&
          std::find(tracked.begin(), tracked.end(), *column) == tracked.end()) {
        tracked.push_back(*column);
      }
    }
  };
  // Identity rules, the key's included, run in the direct orientation
  // only (a valid rule fires on the same pairs flipped, as in the batch
  // sweep); distinctness rules in both.
  if (out.config_->extended_key.has_value() &&
      !out.config_->extended_key->empty()) {
    lower(out.config_->extended_key->EquivalenceRule().predicates(),
          /*flipped=*/false, &out.key_rule_);
  }
  for (const IdentityRule& rule : out.config_->identity_rules) {
    lower(rule.predicates(), /*flipped=*/false, &out.identity_rules_);
  }
  for (const DistinctnessRule& rule : distinctness) {
    for (bool flipped : {false, true}) {
      lower(rule.predicates(), flipped, &out.distinct_rules_);
    }
  }
  return out;
}

Result<size_t> IncrementalIdentifier::Insert(Side side, Row row) {
  const bool is_r = side == Side::kR;
  const size_t own_side = is_r ? 0 : 1;
  SideState& own = sides_[own_side];
  SideState& other = sides_[1 - own_side];
  const Relation& proto = own.proto;

  // Arity, type and NULL-in-key checks, then candidate-key uniqueness
  // against the live rows' fingerprints, with Relation::Insert's error
  // text. Nothing is registered until the extended row passes R''s (S''s)
  // type check, so the error paths have nothing to roll back.
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
  // column order) + NULLs for the added K_ext columns, then derive. A
  // derived value must have its column's type, as in batch extension.
  row.resize(own.extended.schema().size(), Value::Null());
  std::vector<compile::DerivationWrite> writes;
  own.provenance_sink.Clear();
  EID_RETURN_IF_ERROR(
      own.derive->Derive(row, *own.eval, &own.provenance_sink, &writes));
  for (const compile::DerivationWrite& w : writes) {
    if (row[w.column].is_null()) row[w.column] = own.derive->value(w.atom);
  }
  EID_RETURN_IF_ERROR(own.extended.CheckRow(row));

  // Register the tuple: id, world row, key fingerprints, buckets.
  const size_t id = own.entries.size();
  world_->Append(kSlots[own_side], row);
  own.entries.emplace_back().alive = true;
  ++own.live;
  for (size_t k = 0; k < key_fingerprints.size(); ++k) {
    own.live_keys[k].insert(std::move(key_fingerprints[k]));
  }
  for (size_t col : own.tracked_cols) {
    const uint32_t v = own.Id(col, id);
    if (v != exec::ColumnarWorld::kNullId) own.buckets[col][v].push_back(id);
  }

  // Appends to `fired` the other side's live ids on which some (rule,
  // orientation) of a family fires with the new row, then sorts and
  // deduplicates it. Per orientation, the pair fires when both rows pass
  // the plan's filters (the residual skips them) and the residual is
  // kTrue. The new row's filters and, on R, its row part are checked
  // once; the candidates are the other side's ids that share its id in
  // the probed join column (NULL shares none), or else those holding the
  // other side's first filter, or else every live id.
  auto sweep = [&](const std::vector<RuleOrientation>& rules,
                   std::vector<size_t>* fired) {
    for (const RuleOrientation& rule : rules) {
      const exec::ColumnPlan& plan = rule.plan;
      if (plan.impossible) continue;
      const std::vector<exec::ColumnFilter>& own_filters =
          is_r ? plan.r_const_eq : plan.s_const_eq;
      const std::vector<exec::ColumnFilter>& other_filters =
          is_r ? plan.s_const_eq : plan.r_const_eq;
      const compile::StagedConjunction& residual = rule.residual;
      const bool row_part = residual.has_row_part();
      if (!own.Passes(own_filters, id)) continue;
      if (is_r && row_part && residual.RowTruth(id) != Truth::kTrue) continue;
      auto fires = [&](size_t other_id) {
        return other.Passes(other_filters, other_id) &&
               (is_r || !row_part ||
                residual.RowTruth(other_id) == Truth::kTrue) &&
               residual.PairTruth(is_r ? id : other_id,
                                  is_r ? other_id : id) == Truth::kTrue;
      };
      if (const std::optional<size_t> seed = SeedColumn(plan, 1 - own_side)) {
        const uint32_t value = plan.probe.has_value()
                                   ? own.Id(*SeedColumn(plan, own_side), id)
                                   : other_filters.front().id;
        for (size_t other_id : other.Bucket(*seed, value)) {  // live ids
          if (fires(other_id)) fired->push_back(other_id);
        }
      } else {
        for (size_t other_id = 0; other_id < other.entries.size();
             ++other_id) {
          if (other.entries[other_id].alive && fires(other_id)) {
            fired->push_back(other_id);
          }
        }
      }
    }
    std::sort(fired->begin(), fired->end());
    fired->erase(std::unique(fired->begin(), fired->end()), fired->end());
  };

  // Candidate matches: the extended key's rule, then identity rules.
  // Batch Identify adds every key-join pair before any identity-rule
  // pair, so the two kinds go to separate lists for RebuildMatching; a
  // pair both certify is a key-join pair.
  std::vector<size_t> key_ids;
  sweep(key_rule_, &key_ids);
  std::vector<size_t> rule_ids;
  if (!identity_rules_.empty()) {
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
  // derived, so the world still holds the inserted key values.
  if (!own.proto.keys().empty()) {
    const Row row = Decode(own, id);
    for (size_t k = 0; k < own.proto.keys().size(); ++k) {
      own.live_keys[k].erase(
          RowFingerprint(row, own.proto.keys()[k].attribute_indices));
    }
  }
  for (size_t col : own.tracked_cols) {
    const uint32_t v = own.Id(col, id);
    if (v != exec::ColumnarWorld::kNullId) {
      EraseFromBucket(&own.buckets[col], v, id);
    }
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

  entry = Entry();  // releases the pair lists; alive = false
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
    Attribute a = sides_[0].extended.schema().attribute(i);
    a.name = "R." + a.name;
    attrs.push_back(std::move(a));
  }
  for (size_t i : s_key) {
    Attribute a = sides_[1].extended.schema().attribute(i);
    a.name = "S." + a.name;
    attrs.push_back(std::move(a));
  }
  Relation out("MT", Schema(std::move(attrs)));
  for (const CandidatePair& c : matching_) {
    const Row r_row = Decode(sides_[0], c.r_id);
    const Row s_row = Decode(sides_[1], c.s_id);
    Row row;
    for (size_t i : r_key) row.push_back(r_row[i]);
    for (size_t i : s_key) row.push_back(s_row[i]);
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

bool IncrementalIdentifier::SideState::Passes(
    const std::vector<exec::ColumnFilter>& filters, size_t id) const {
  // A filter's constant is interned in Create, so its id is never kNullId.
  for (const exec::ColumnFilter& f : filters) {
    if (Id(f.column, id) != f.id) return false;
  }
  return true;
}

const std::vector<size_t>& IncrementalIdentifier::SideState::Bucket(
    size_t column, uint32_t value) const {
  static const std::vector<size_t> kNone;
  auto it = buckets[column].find(value);
  return it == buckets[column].end() ? kNone : it->second;
}

Row IncrementalIdentifier::Decode(const SideState& side, size_t id) const {
  Row row;
  row.reserve(side.columns.size());
  for (size_t c = 0; c < side.columns.size(); ++c) {
    const uint32_t v = side.Id(c, id);
    row.push_back(v == exec::ColumnarWorld::kNullId ? Value::Null()
                                                    : world_->dict().value(v));
  }
  return row;
}

Relation IncrementalIdentifier::Live(const SideState& side) const {
  Relation out(side.extended.name(), side.extended.schema());
  for (size_t id = 0; id < side.entries.size(); ++id) {
    if (side.entries[id].alive) {
      Status st = out.Insert(Decode(side, id));
      EID_CHECK(st.ok());
    }
  }
  return out;
}

}  // namespace eid
