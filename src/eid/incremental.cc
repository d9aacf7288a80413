#include "eid/incremental.h"

#include <algorithm>

#include "eid/extension.h"

namespace eid {
namespace {

std::string Fingerprint(const Row& row, const std::vector<size_t>& idx,
                        bool* has_null) {
  std::string fp;
  std::string v;
  *has_null = false;
  for (size_t i : idx) {
    if (row[i].is_null()) {
      *has_null = true;
      return std::string();
    }
    v.clear();
    row[i].AppendTo(&v);
    fp += std::to_string(v.size());
    fp += ':';
    fp += v;
    fp += '|';
    fp += static_cast<char>('0' + static_cast<int>(row[i].type()));
  }
  return fp;
}

std::vector<size_t> KeyIndicesOf(const Relation& proto) {
  return proto.PrimaryKeyIndices();
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

  // Extended schemas via the batch extension machinery on empty inputs.
  ExtendedKey key = config.extended_key.has_value()
                        ? *config.extended_key
                        : ExtendedKey(std::vector<std::string>{});
  ExtensionOptions ext = config.matcher_options.extension;
  if (!config.extended_key.has_value()) ext.derive_all = true;
  ext.compile = false;  // schema-only run over empty relations
  EID_ASSIGN_OR_RETURN(
      ExtensionResult rx,
      ExtendRelation(empty_r, Side::kR, config.correspondence, key,
                     config.ilfds, ext));
  EID_ASSIGN_OR_RETURN(
      ExtensionResult sx,
      ExtendRelation(empty_s, Side::kS, config.correspondence, key,
                     config.ilfds, ext));
  out.r_ext_schema_ = rx.extended.schema();
  out.s_ext_schema_ = sx.extended.schema();
  out.r_added_ = rx.added_attributes;
  out.s_added_ = sx.added_attributes;

  // Distinctness rules: explicit + Proposition 1 induced.
  for (const DistinctnessRule& rule : config.distinctness_rules) {
    EID_RETURN_IF_ERROR(rule.Validate());
  }
  EID_ASSIGN_OR_RETURN(out.all_distinctness_,
                       EffectiveDistinctnessRules(config));

  out.r_proto_ = std::move(empty_r);
  out.s_proto_ = std::move(empty_s);
  out.config_ = std::move(config);

  // Staged per-insert acceleration: blocking plans per (rule,
  // orientation) against the extended schemas, and the union of columns
  // those plans bucket on (maintained by the dynamic value indexes on
  // every insert/delete).
  if (out.config_.matcher_options.staged) {
    out.identity_plans_.reserve(out.config_.identity_rules.size() * 2);
    for (const IdentityRule& rule : out.config_.identity_rules) {
      for (bool flipped : {false, true}) {
        out.identity_plans_.push_back(
            exec::PlanBlocking(rule.predicates(), out.r_ext_schema_,
                               out.s_ext_schema_, flipped));
      }
    }
    out.distinct_plans_.reserve(out.all_distinctness_.size() * 2);
    for (const DistinctnessRule& rule : out.all_distinctness_) {
      for (bool flipped : {false, true}) {
        out.distinct_plans_.push_back(
            exec::PlanBlocking(rule.predicates(), out.r_ext_schema_,
                               out.s_ext_schema_, flipped));
      }
    }
    auto track = [](const Schema& schema, const std::string& attr,
                    std::vector<size_t>* cols) {
      std::optional<size_t> c = schema.IndexOf(attr);
      if (c.has_value() &&
          std::find(cols->begin(), cols->end(), *c) == cols->end()) {
        cols->push_back(*c);
      }
    };
    for (const std::vector<exec::BlockingPlan>* plans :
         {&out.identity_plans_, &out.distinct_plans_}) {
      for (const exec::BlockingPlan& p : *plans) {
        if (p.impossible) continue;
        if (p.has_join) {
          track(out.r_ext_schema_, p.r_attr, &out.r_tracked_cols_);
          track(out.s_ext_schema_, p.s_attr, &out.s_tracked_cols_);
        }
        for (const auto& [attr, v] : p.r_const_eq) {
          track(out.r_ext_schema_, attr, &out.r_tracked_cols_);
        }
        for (const auto& [attr, v] : p.s_const_eq) {
          track(out.s_ext_schema_, attr, &out.s_tracked_cols_);
        }
      }
    }
  }

  // Lower the session's programs once: derivation per side (the memo
  // caches persist across inserts, so repeated projections derive once
  // per session) and every rule antecedent per orientation.
  if (out.config_.matcher_options.compile) {
    DerivationOptions derivation =
        out.config_.matcher_options.extension.derivation;
    if (out.config_.extended_key.has_value() &&
        derivation.target_attributes.empty()) {
      derivation.target_attributes = out.config_.extended_key->attributes();
    }
    out.r_derive_ = std::make_unique<compile::DerivationProgram>(
        compile::DerivationProgram::Compile(out.r_ext_schema_,
                                            out.config_.ilfds, derivation));
    out.s_derive_ = std::make_unique<compile::DerivationProgram>(
        compile::DerivationProgram::Compile(out.s_ext_schema_,
                                            out.config_.ilfds, derivation));
    out.r_eval_ = std::make_unique<ClosureEvaluator>(&out.r_derive_->kb());
    out.s_eval_ = std::make_unique<ClosureEvaluator>(&out.s_derive_->kb());
    out.identity_programs_.reserve(out.config_.identity_rules.size() * 2);
    for (const IdentityRule& rule : out.config_.identity_rules) {
      for (bool flipped : {false, true}) {
        out.identity_programs_.push_back(compile::CompiledConjunction::Compile(
            rule.predicates(), out.r_ext_schema_, out.s_ext_schema_,
            flipped));
      }
    }
    out.distinct_programs_.reserve(out.all_distinctness_.size() * 2);
    for (const DistinctnessRule& rule : out.all_distinctness_) {
      for (bool flipped : {false, true}) {
        out.distinct_programs_.push_back(compile::CompiledConjunction::Compile(
            rule.predicates(), out.r_ext_schema_, out.s_ext_schema_,
            flipped));
      }
    }
  }
  return out;
}

Result<size_t> IncrementalIdentifier::Insert(Side side, Row row) {
  const bool is_r = side == Side::kR;
  Relation& proto = is_r ? r_proto_ : s_proto_;
  const Schema& ext_schema = is_r ? r_ext_schema_ : s_ext_schema_;
  std::vector<Entry>& entries = is_r ? r_entries_ : s_entries_;
  auto& index = is_r ? r_index_ : s_index_;
  std::vector<Entry>& others = is_r ? s_entries_ : r_entries_;
  auto& other_index = is_r ? s_index_ : r_index_;
  const Schema& other_schema = is_r ? s_ext_schema_ : r_ext_schema_;

  // Schema/type/key validation via the prototype relation. The proto
  // accumulates live rows so candidate-key uniqueness is enforced; deleted
  // rows are compacted out below.
  EID_RETURN_IF_ERROR(proto.Insert(row));

  // Extend: base values (already world-positioned: renaming preserves
  // column order) + NULLs for the added K_ext columns, then derive.
  Entry entry;
  entry.base = row;
  entry.extended = std::move(row);
  entry.extended.resize(ext_schema.size(), Value::Null());
  {
    const bool compiled = (is_r ? r_derive_ : s_derive_) != nullptr;
    std::vector<compile::DerivationWrite> writes;
    Result<Derivation> derived = [&]() -> Result<Derivation> {
      if (compiled) {
        compile::DerivationProgram* program =
            (is_r ? r_derive_ : s_derive_).get();
        ClosureEvaluator* evaluator = (is_r ? r_eval_ : s_eval_).get();
        return program->Derive(entry.extended, evaluator,
                               is_r ? &r_memo_ : &s_memo_, &writes);
      }
      DerivationOptions derivation =
          config_.matcher_options.extension.derivation;
      if (config_.extended_key.has_value() &&
          derivation.target_attributes.empty()) {
        derivation.target_attributes = config_.extended_key->attributes();
      }
      TupleView view(&ext_schema, &entry.extended);
      return DeriveTuple(view, config_.ilfds, derivation);
    }();
    if (!derived.ok()) {
      // Roll the proto insertion back by rebuilding it without the row.
      Relation rebuilt(proto.name(), proto.schema());
      for (const KeyDef& k : proto.keys()) {
        std::vector<std::string> names;
        for (size_t i : k.attribute_indices) {
          names.push_back(proto.schema().attribute(i).name);
        }
        EID_RETURN_IF_ERROR(rebuilt.DeclareKey(names));
      }
      for (size_t i = 0; i + 1 < proto.size(); ++i) {
        EID_RETURN_IF_ERROR(rebuilt.Insert(proto.row(i)));
      }
      proto = std::move(rebuilt);
      return derived.status();
    }
    if (compiled) {
      for (const compile::DerivationWrite& w : writes) {
        if (entry.extended[w.column].is_null()) {
          entry.extended[w.column] = w.value;
        }
      }
    } else {
      for (const auto& [attr, value] : derived->derived) {
        std::optional<size_t> idx = ext_schema.IndexOf(attr);
        if (idx.has_value() && entry.extended[*idx].is_null()) {
          entry.extended[*idx] = value;
        }
      }
    }
  }
  entry.alive = true;

  // Extended-key fingerprint + index.
  std::vector<size_t> ext_idx;
  if (config_.extended_key.has_value()) {
    for (const std::string& a : config_.extended_key->attributes()) {
      EID_ASSIGN_OR_RETURN(size_t i, ext_schema.RequireIndex(a));
      ext_idx.push_back(i);
    }
    bool has_null = false;
    entry.ext_key_fingerprint = Fingerprint(entry.extended, ext_idx,
                                            &has_null);
    if (has_null) entry.ext_key_fingerprint.clear();
  }

  size_t id = entries.size();
  entries.push_back(std::move(entry));
  Entry& stored = entries.back();
  if (is_r) ++r_live_; else ++s_live_;
  if (!stored.ext_key_fingerprint.empty()) {
    index[stored.ext_key_fingerprint].push_back(id);
  }

  // Dynamic value indexes over the columns the blocking plans bucket on.
  const std::vector<size_t>& tracked =
      is_r ? r_tracked_cols_ : s_tracked_cols_;
  {
    auto& value_index = is_r ? r_value_index_ : s_value_index_;
    for (size_t col : tracked) {
      const Value& v = stored.extended[col];
      if (v.is_null()) continue;
      value_index[col][v].push_back(id);
    }
  }

  // Candidate matches: extended-key hash probe + identity rules.
  TupleView self(&ext_schema, &stored.extended);
  auto add_candidate = [&](size_t other_id) {
    size_t r_id = is_r ? id : other_id;
    size_t s_id = is_r ? other_id : id;
    for (const CandidatePair& c : candidates_) {
      if (c.r_id == r_id && c.s_id == s_id) return;
    }
    candidates_.push_back(CandidatePair{r_id, s_id});
  };
  if (!stored.ext_key_fingerprint.empty()) {
    auto it = other_index.find(stored.ext_key_fingerprint);
    if (it != other_index.end()) {
      for (size_t other_id : it->second) {
        if (others[other_id].alive) add_candidate(other_id);
      }
    }
  }
  // Compiled programs take the pair in relation space (r-row, s-row) with
  // both orientations pre-bound; program 2k is rule k direct, 2k+1 flipped.
  const bool compiled_rules = (is_r ? r_derive_ : s_derive_) != nullptr;
  const bool staged = config_.matcher_options.staged;

  // Staged sweep over one rule family: per (rule, orientation), kill the
  // orientation via the inserted row's own-side const conjuncts, then
  // pull candidates from the other side's join/const bucket instead of
  // every live tuple. `fires` evaluates the *full* antecedent for that
  // orientation, so over-approximate buckets stay harmless; the fired
  // bitmap, appended ascending, reproduces the exhaustive other-major
  // break loop's content and order (each other id contributes at most
  // one entry per family).
  auto staged_sweep = [&](const std::vector<exec::BlockingPlan>& plans,
                          size_t rule_count, const auto& fires,
                          std::vector<char>* fired_bitmap) {
    fired_bitmap->assign(others.size(), 0);
    auto& other_value_index = is_r ? s_value_index_ : r_value_index_;
    for (size_t k = 0; k < rule_count; ++k) {
      for (bool flipped : {false, true}) {
        const exec::BlockingPlan& plan = plans[k * 2 + (flipped ? 1 : 0)];
        if (plan.impossible) continue;
        const auto& own_consts = is_r ? plan.r_const_eq : plan.s_const_eq;
        const auto& other_consts = is_r ? plan.s_const_eq : plan.r_const_eq;
        // Exact kill: an own-side const conjunct failing on the inserted
        // row (NULL or not storage-equal) can never be kTrue.
        bool dead = false;
        for (const auto& [attr, constant] : own_consts) {
          std::optional<size_t> col = ext_schema.IndexOf(attr);
          if (!col.has_value()) {
            dead = true;
            break;
          }
          const Value& v = stored.extended[*col];
          if (v.is_null() || !(v == constant)) {
            dead = true;
            break;
          }
        }
        if (dead) continue;
        const std::vector<size_t>* bucket = nullptr;
        bool use_all = false;
        if (plan.has_join) {
          const std::string& own_attr = is_r ? plan.r_attr : plan.s_attr;
          const std::string& other_attr = is_r ? plan.s_attr : plan.r_attr;
          std::optional<size_t> own_col = ext_schema.IndexOf(own_attr);
          std::optional<size_t> other_col = other_schema.IndexOf(other_attr);
          if (!own_col.has_value() || !other_col.has_value()) continue;
          const Value& v = stored.extended[*own_col];
          if (v.is_null()) continue;  // non_null_eq: never joins
          auto ci = other_value_index.find(*other_col);
          if (ci == other_value_index.end()) continue;
          auto bi = ci->second.find(v);
          if (bi == ci->second.end()) continue;
          bucket = &bi->second;
        } else if (!other_consts.empty()) {
          // Seed candidates from the first const filter's bucket; the
          // full evaluation re-checks every conjunct.
          const auto& [attr, constant] = other_consts.front();
          std::optional<size_t> col = other_schema.IndexOf(attr);
          if (!col.has_value()) continue;
          auto ci = other_value_index.find(*col);
          if (ci == other_value_index.end()) continue;
          auto bi = ci->second.find(constant);
          if (bi == ci->second.end()) continue;
          bucket = &bi->second;
        } else {
          use_all = true;  // no indexable conjunct: scan the live side
        }
        auto probe = [&](size_t other_id) {
          if ((*fired_bitmap)[other_id] || !others[other_id].alive) return;
          if (fires(k, flipped, other_id)) (*fired_bitmap)[other_id] = 1;
        };
        if (use_all) {
          for (size_t other_id = 0; other_id < others.size(); ++other_id) {
            probe(other_id);
          }
        } else {
          for (size_t other_id : *bucket) probe(other_id);
        }
      }
    }
  };
  auto identity_fires = [&](size_t k, bool flipped, size_t other_id) {
    if (compiled_rules) {
      const Row& r_row = is_r ? stored.extended : others[other_id].extended;
      const Row& s_row = is_r ? others[other_id].extended : stored.extended;
      return identity_programs_[k * 2 + (flipped ? 1 : 0)].Evaluate(
                 r_row, s_row) == Truth::kTrue;
    }
    TupleView other_view(&other_schema, &others[other_id].extended);
    const TupleView& e1 = is_r ? self : other_view;
    const TupleView& e2 = is_r ? other_view : self;
    return (flipped ? config_.identity_rules[k].Matches(e2, e1)
                    : config_.identity_rules[k].Matches(e1, e2)) ==
           Truth::kTrue;
  };
  auto distinct_fires = [&](size_t k, bool flipped, size_t other_id) {
    if (compiled_rules) {
      const Row& r_row = is_r ? stored.extended : others[other_id].extended;
      const Row& s_row = is_r ? others[other_id].extended : stored.extended;
      return distinct_programs_[k * 2 + (flipped ? 1 : 0)].Evaluate(
                 r_row, s_row) == Truth::kTrue;
    }
    TupleView other_view(&other_schema, &others[other_id].extended);
    const TupleView& e1 = is_r ? self : other_view;
    const TupleView& e2 = is_r ? other_view : self;
    return (flipped ? all_distinctness_[k].Applies(e2, e1)
                    : all_distinctness_[k].Applies(e1, e2)) == Truth::kTrue;
  };

  if (!config_.identity_rules.empty()) {
    if (staged) {
      std::vector<char> fired;
      staged_sweep(identity_plans_, config_.identity_rules.size(),
                   identity_fires, &fired);
      for (size_t other_id = 0; other_id < others.size(); ++other_id) {
        if (fired[other_id]) add_candidate(other_id);
      }
    } else {
      for (size_t other_id = 0; other_id < others.size(); ++other_id) {
        if (!others[other_id].alive) continue;
        for (size_t k = 0; k < config_.identity_rules.size(); ++k) {
          if (identity_fires(k, false, other_id) ||
              identity_fires(k, true, other_id)) {
            add_candidate(other_id);
            break;
          }
        }
      }
    }
  }

  // Negative pairs via distinctness rules (both orientations).
  if (staged) {
    std::vector<char> fired;
    staged_sweep(distinct_plans_, all_distinctness_.size(), distinct_fires,
                 &fired);
    for (size_t other_id = 0; other_id < others.size(); ++other_id) {
      if (fired[other_id]) {
        negative_pairs_.push_back(
            CandidatePair{is_r ? id : other_id, is_r ? other_id : id});
      }
    }
  } else {
    for (size_t other_id = 0; other_id < others.size(); ++other_id) {
      if (!others[other_id].alive) continue;
      for (size_t k = 0; k < all_distinctness_.size(); ++k) {
        if (distinct_fires(k, false, other_id) ||
            distinct_fires(k, true, other_id)) {
          negative_pairs_.push_back(CandidatePair{is_r ? id : other_id,
                                                  is_r ? other_id : id});
          break;
        }
      }
    }
  }

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
  std::vector<Entry>& entries = is_r ? r_entries_ : s_entries_;
  auto& index = is_r ? r_index_ : s_index_;
  Relation& proto = is_r ? r_proto_ : s_proto_;

  if (id >= entries.size() || !entries[id].alive) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  entries[id].alive = false;
  if (is_r) --r_live_; else --s_live_;

  if (!entries[id].ext_key_fingerprint.empty()) {
    auto it = index.find(entries[id].ext_key_fingerprint);
    if (it != index.end()) {
      auto& ids = it->second;
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      if (ids.empty()) index.erase(it);
    }
  }

  // Retract this row's value-index entries.
  {
    const std::vector<size_t>& tracked =
        is_r ? r_tracked_cols_ : s_tracked_cols_;
    auto& value_index = is_r ? r_value_index_ : s_value_index_;
    for (size_t col : tracked) {
      const Value& v = entries[id].extended[col];
      if (v.is_null()) continue;
      auto ci = value_index.find(col);
      if (ci != value_index.end()) {
        auto bi = ci->second.find(v);
        if (bi != ci->second.end()) {
          auto& ids = bi->second;
          ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
          if (ids.empty()) ci->second.erase(bi);
        }
      }
    }
  }

  auto drop = [&](std::vector<CandidatePair>* pairs) {
    pairs->erase(std::remove_if(pairs->begin(), pairs->end(),
                                [&](const CandidatePair& c) {
                                  return (is_r ? c.r_id : c.s_id) == id;
                                }),
                 pairs->end());
  };
  drop(&candidates_);
  drop(&negative_pairs_);

  // Rebuild the proto relation without the dead tuple so its candidate-key
  // slot is freed.
  Relation rebuilt(proto.name(), proto.schema());
  for (const KeyDef& k : proto.keys()) {
    std::vector<std::string> names;
    for (size_t i : k.attribute_indices) {
      names.push_back(proto.schema().attribute(i).name);
    }
    EID_RETURN_IF_ERROR(rebuilt.DeclareKey(names));
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].alive) {
      EID_RETURN_IF_ERROR(rebuilt.Insert(entries[i].base));
    }
  }
  proto = std::move(rebuilt);

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
  matching_.clear();
  uniqueness_ = Status::Ok();
  std::vector<CandidatePair> sorted = candidates_;
  std::sort(sorted.begin(), sorted.end(),
            [](const CandidatePair& a, const CandidatePair& b) {
              if (a.r_id != b.r_id) return a.r_id < b.r_id;
              return a.s_id < b.s_id;
            });
  std::unordered_map<size_t, size_t> r_used, s_used;
  for (const CandidatePair& c : sorted) {
    if (r_used.count(c.r_id) > 0 || s_used.count(c.s_id) > 0) {
      if (uniqueness_.ok()) {
        uniqueness_ = Status::ConstraintViolation(
            "uniqueness constraint: tuple matched more than once "
            "(candidate R" + std::to_string(c.r_id) + "/S" +
            std::to_string(c.s_id) + " shadowed)");
      }
      continue;
    }
    r_used.emplace(c.r_id, c.s_id);
    s_used.emplace(c.s_id, c.r_id);
    matching_.push_back(c);
  }
}

Result<Relation> IncrementalIdentifier::MatchingRelation() const {
  RebuildMatching();
  std::vector<size_t> r_key = KeyIndicesOf(r_proto_);
  std::vector<size_t> s_key = KeyIndicesOf(s_proto_);
  std::vector<Attribute> attrs;
  for (size_t i : r_key) {
    Attribute a = r_ext_schema_.attribute(i);
    a.name = "R." + a.name;
    attrs.push_back(std::move(a));
  }
  for (size_t i : s_key) {
    Attribute a = s_ext_schema_.attribute(i);
    a.name = "S." + a.name;
    attrs.push_back(std::move(a));
  }
  Relation out("MT", Schema(std::move(attrs)));
  for (const CandidatePair& c : matching_) {
    Row row;
    for (size_t i : r_key) row.push_back(r_entries_[c.r_id].extended[i]);
    for (size_t i : s_key) row.push_back(s_entries_[c.s_id].extended[i]);
    EID_RETURN_IF_ERROR(out.Insert(std::move(row)));
  }
  return out;
}

PairPartition IncrementalIdentifier::Partition() const {
  RebuildMatching();
  PairPartition p;
  p.total = r_live_ * s_live_;
  p.matched = matching_.size();
  p.non_matched = negative_pairs_.size();
  p.undetermined =
      p.total - std::min(p.total, p.matched + p.non_matched);
  return p;
}

MatchDecision IncrementalIdentifier::Decide(size_t r_id, size_t s_id) const {
  RebuildMatching();
  for (const CandidatePair& c : matching_) {
    if (c.r_id == r_id && c.s_id == s_id) return MatchDecision::kMatch;
  }
  for (const CandidatePair& c : negative_pairs_) {
    if (c.r_id == r_id && c.s_id == s_id) return MatchDecision::kNonMatch;
  }
  return MatchDecision::kUndetermined;
}

Status IncrementalIdentifier::Uniqueness() const {
  RebuildMatching();
  return uniqueness_;
}

std::optional<size_t> IncrementalIdentifier::MatchOfR(size_t r_id) const {
  RebuildMatching();
  for (const CandidatePair& c : matching_) {
    if (c.r_id == r_id) return c.s_id;
  }
  return std::nullopt;
}

std::optional<size_t> IncrementalIdentifier::MatchOfS(size_t s_id) const {
  RebuildMatching();
  for (const CandidatePair& c : matching_) {
    if (c.s_id == s_id) return c.r_id;
  }
  return std::nullopt;
}

Relation IncrementalIdentifier::LiveR() const {
  Relation out(r_proto_.name() + "'", r_ext_schema_);
  for (const Entry& e : r_entries_) {
    if (e.alive) {
      Status st = out.Insert(e.extended);
      EID_CHECK(st.ok());
    }
  }
  return out;
}

Relation IncrementalIdentifier::LiveS() const {
  Relation out(s_proto_.name() + "'", s_ext_schema_);
  for (const Entry& e : s_entries_) {
    if (e.alive) {
      Status st = out.Insert(e.extended);
      EID_CHECK(st.ok());
    }
  }
  return out;
}

}  // namespace eid
