#include "compile/derivation_program.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace eid {
namespace compile {

DerivationProgram DerivationProgram::Compile(const Schema& schema,
                                             const IlfdSet& ilfds,
                                             const DerivationOptions& options) {
  DerivationProgram p;
  p.schema_ = schema;
  p.mode_ = options.mode;
  p.conflict_policy_ = options.conflict_policy;
  p.kb_ = &ilfds.kb();
  p.atoms_ = &ilfds.atoms();

  if (options.mode == DerivationMode::kExhaustive) {
    const AtomTable& atoms = ilfds.atoms();
    p.slot_of_atom_.assign(atoms.size(), kNoSlot);
    // Seed columns in ascending schema order — the interpreter's seed
    // scan order.
    for (size_t c = 0; c < schema.size(); ++c) {
      const AtomTable::AttributeAtoms* attr =
          atoms.AttributeIndex(schema.attribute(c).name);
      if (attr == nullptr || attr->ids.empty()) continue;
      p.seed_columns_.push_back(SeedColumn{c, attr});
    }
    // One slot per clause-head attribute, first-appearance order over the
    // clause-major head array. Attributes are keyed by their atom-table
    // ordinal, so only a new slot ever touches an attribute string.
    std::vector<uint32_t> slot_of_ordinal(atoms.attribute_count(), kNoSlot);
    for (AtomId h : p.kb().head_atoms()) {
      uint32_t& slot_index = slot_of_ordinal[atoms.attribute_ordinal(h)];
      if (slot_index == kNoSlot) {
        const std::string& attribute = atoms.atom(h).attribute;
        slot_index = static_cast<uint32_t>(p.cons_slots_.size());
        ConsSlot slot;
        slot.attribute = attribute;
        slot.column = schema.IndexOf(attribute);
        slot.wanted =
            options.target_attributes.empty() ||
            std::find(options.target_attributes.begin(),
                      options.target_attributes.end(),
                      attribute) != options.target_attributes.end();
        p.cons_slots_.push_back(std::move(slot));
      }
      p.slot_of_atom_[h] = slot_index;
    }
    return p;
  }

  // kFirstMatch. The attribute universe is every antecedent, consequent
  // and target attribute; slots are assigned on first appearance.
  std::unordered_map<std::string, uint32_t> slot_index;
  auto intern_attr = [&](const std::string& name) {
    auto [it, inserted] =
        slot_index.emplace(name, static_cast<uint32_t>(p.fm_attrs_.size()));
    if (inserted) {
      FmAttr attr;
      attr.name = name;
      attr.column = p.schema_.IndexOf(name);
      p.fm_attrs_.push_back(std::move(attr));
    }
    return it->second;
  };
  // Every ILFD atom is interned in the set's atom table (IlfdSet::Add).
  auto cond = [&](const Atom& a) {
    const std::optional<AtomId> atom =
        ilfds.atoms().Find(a.attribute, a.value);
    EID_CHECK(atom.has_value());
    return FmCond{intern_attr(a.attribute), a.value, *atom};
  };
  p.fm_rules_.reserve(ilfds.size());
  for (size_t fi = 0; fi < ilfds.size(); ++fi) {
    const Ilfd& f = ilfds.ilfd(fi);
    FmRule rule;
    rule.antecedent.reserve(f.antecedent().size());
    for (const Atom& a : f.antecedent()) rule.antecedent.push_back(cond(a));
    rule.consequent.reserve(f.consequent().size());
    for (const Atom& c : f.consequent()) rule.consequent.push_back(cond(c));
    p.fm_rules_.push_back(std::move(rule));
  }
  // Per-attribute rule lists in declaration order; the head value is the
  // first consequent atom for the attribute (the interpreter's scan).
  for (size_t fi = 0; fi < p.fm_rules_.size(); ++fi) {
    const std::vector<FmCond>& consequent = p.fm_rules_[fi].consequent;
    for (size_t i = 0; i < consequent.size(); ++i) {
      bool first = true;
      for (size_t j = 0; j < i; ++j) {
        if (consequent[j].slot == consequent[i].slot) {
          first = false;
          break;
        }
      }
      if (!first) continue;
      p.fm_attrs_[consequent[i].slot].rules.push_back(
          FmAttrRule{static_cast<uint32_t>(fi), static_cast<uint32_t>(i)});
    }
  }
  std::vector<std::string> targets = options.target_attributes;
  if (targets.empty()) {
    std::set<std::string> all;
    for (const Ilfd& f : ilfds.ilfds()) {
      for (const std::string& a : f.ConsequentAttributes()) all.insert(a);
    }
    targets.assign(all.begin(), all.end());
  }
  p.fm_targets_.reserve(targets.size());
  for (const std::string& t : targets) p.fm_targets_.push_back(intern_attr(t));
  return p;
}

Status DerivationProgram::Derive(const Row& row, ClosureEvaluator& evaluator,
                                 Provenance* provenance,
                                 std::vector<DerivationWrite>* writes) const {
  EID_CHECK(row.size() == schema_.size());
  writes->clear();
  if (mode_ != DerivationMode::kExhaustive) {
    return RunFirstMatch(row, provenance, writes);
  }
  std::vector<AtomId> seed;
  seed.reserve(seed_columns_.size());
  for (const SeedColumn& sc : seed_columns_) {
    const Value& v = row[sc.column];
    if (v.is_null()) continue;
    std::optional<AtomId> atom = sc.atoms->Find(v);
    if (atom.has_value()) seed.push_back(*atom);
  }
  // AtomSet's sorted-unique invariant, which RunDerived requires.
  const AtomSet seed_set(std::move(seed));
  return RunExhaustive(row, seed_set.ids().data(), seed_set.ids().size(),
                       evaluator, provenance, writes);
}

ColumnarBinding DerivationProgram::BindColumns(exec::ColumnarWorld& world,
                                               exec::WorldRel slot,
                                               const Relation& rel) const {
  ColumnarBinding binding;
  binding.rows = rel.rows().size();
  const size_t arity = rel.schema().size();
  if (mode_ != DerivationMode::kExhaustive) return binding;
  binding.seed_ids.reserve(seed_columns_.size());
  binding.atom_of_id.resize(seed_columns_.size());
  // Encode every seed column first: the dictionary stops growing for this
  // binding once the atom tables are sized below.
  for (const SeedColumn& sc : seed_columns_) {
    binding.seed_ids.push_back(
        sc.column < arity ? world.Column(slot, rel, sc.column).data()
                          : nullptr);
  }
  // A "not looked up yet" marker distinct from kNoAtom: table cells left
  // at it belong to ids that never occur in this column, which the sweep
  // never reads (it only indexes by the column's own ids).
  constexpr AtomId kUnprobed = ColumnarBinding::kNoAtom - 1;
  const ValueDictionary& dict = world.dict();
  for (size_t i = 0; i < seed_columns_.size(); ++i) {
    const uint32_t* ids = binding.seed_ids[i];
    if (ids == nullptr) continue;
    std::vector<AtomId>& table = binding.atom_of_id[i];
    table.assign(dict.size(), kUnprobed);
    // Probe the attribute's atoms once per distinct id occurring in the
    // column, with the session dictionary's cached hash — no seed value
    // is hashed twice. Atom pools are a superset of a column's values, so
    // walking the atoms instead would probe more than the column holds.
    const AtomTable::AttributeAtoms& atoms = *seed_columns_[i].atoms;
    for (size_t r = 0; r < binding.rows; ++r) {
      const uint32_t id = ids[r];
      if (id == exec::ColumnarWorld::kNullId || table[id] != kUnprobed) {
        continue;
      }
      const uint32_t k = atoms.values.Find(dict.value(id), dict.hash(id));
      table[id] = k == ValueDictionary::kNotInterned ? ColumnarBinding::kNoAtom
                                                      : atoms.ids[k];
    }
  }
  return binding;
}

Status DerivationProgram::Derive(const Row& row, size_t row_index,
                                 const ColumnarBinding& binding,
                                 ClosureEvaluator& evaluator,
                                 Provenance* provenance,
                                 std::vector<DerivationWrite>* writes) const {
  EID_CHECK(row.size() == schema_.size());
  writes->clear();
  if (mode_ != DerivationMode::kExhaustive) {
    return RunFirstMatch(row, provenance, writes);
  }
  // The columnar seed: two array loads per seed column instead of a
  // Value hash probe. Gathered into a stack buffer, then normalised to
  // AtomSet's sorted-unique invariant so the closure queue seeds in
  // exactly the order the row path's AtomSet would.
  constexpr size_t kInlineSeed = 32;
  AtomId inline_seed[kInlineSeed];
  std::vector<AtomId> heap_seed;
  AtomId* seed = inline_seed;
  if (seed_columns_.size() > kInlineSeed) {
    heap_seed.resize(seed_columns_.size());
    seed = heap_seed.data();
  }
  size_t count = 0;
  for (size_t i = 0; i < seed_columns_.size(); ++i) {
    const uint32_t* ids = binding.seed_ids[i];
    if (ids == nullptr) continue;
    const uint32_t id = ids[row_index];
    if (id == exec::ColumnarWorld::kNullId) continue;
    const AtomId atom = binding.atom_of_id[i][id];
    if (atom != ColumnarBinding::kNoAtom) seed[count++] = atom;
  }
  std::sort(seed, seed + count);
  count = static_cast<size_t>(std::unique(seed, seed + count) - seed);
  return RunExhaustive(row, seed, count, evaluator, provenance, writes);
}

Status DerivationProgram::RunExhaustive(
    const Row& row, const AtomId* seed, size_t count,
    ClosureEvaluator& evaluator, Provenance* provenance,
    std::vector<DerivationWrite>* writes) const {
  // Lean closure: the evaluator hands back exactly the events consumed
  // below, skipping the AtomSet/provenance-map/firing-order
  // materialisation of ForwardClosure.
  const std::vector<DerivedAtom>& events = evaluator.RunDerived(seed, count);

  // Dense mirror of the interpreter's bound/conflicted maps: a slot is
  // bound while `value` is non-null, by the step its index names. Slot
  // counts are small (one per consequent attribute), so the per-row state
  // lives on the stack.
  struct SlotState {
    const Value* value = nullptr;
    size_t source = kDerivationBaseProvenance;
    bool conflicted = false;
    size_t step = 0;  // the binding step's index in `provenance`
  };
  constexpr size_t kInlineSlots = 32;
  SlotState inline_state[kInlineSlots];
  std::vector<SlotState> heap_state;
  SlotState* state = inline_state;
  if (cons_slots_.size() > kInlineSlots) {
    heap_state.resize(cons_slots_.size());
    state = heap_state.data();
  } else {
    for (size_t i = 0; i < cons_slots_.size(); ++i) state[i] = SlotState{};
  }

  // Events arrive in the interpreter's order: clauses in firing order,
  // newly derived head atoms in id order within a clause.
  for (const DerivedAtom& e : events) {
    const AtomId h = e.atom;
    const uint32_t slot = slot_of_atom_[h];
    const ConsSlot& cs = cons_slots_[slot];
    const Value& atom_value = atoms_->atom(h).value;
    const size_t fi = e.clause;  // clause index == ILFD index

    const Value* first_value = nullptr;
    size_t first_source = kDerivationBaseProvenance;
    if (cs.column.has_value() && !row[*cs.column].is_null()) {
      first_value = &row[*cs.column];
    } else if (state[slot].value != nullptr) {
      first_value = state[slot].value;
      first_source = state[slot].source;
    }
    if (first_value == nullptr) {
      if (state[slot].conflicted) continue;
      state[slot].value = &atom_value;
      state[slot].source = fi;
      state[slot].step = provenance->AddStep(h, static_cast<uint32_t>(fi));
      continue;
    }
    if (*first_value == atom_value) continue;
    DerivationConflict conflict{cs.attribute, *first_value, atom_value,
                                first_source, fi};
    if (conflict_policy_ == ConflictPolicy::kError) {
      return DerivationConflictError(conflict,
                                     TupleView(&schema_, &row).ToString());
    }
    provenance->AddConflict(std::move(conflict));
    if (conflict_policy_ == ConflictPolicy::kNullOut &&
        first_source != kDerivationBaseProvenance) {
      state[slot].value = nullptr;
      state[slot].conflicted = true;
    }
    // kKeepFirst (and conflicts against base values): first value stands.
  }

  for (size_t slot = 0; slot < cons_slots_.size(); ++slot) {
    if (state[slot].value == nullptr || !cons_slots_[slot].wanted) continue;
    const ConsSlot& cs = cons_slots_[slot];
    provenance->MarkDerived(state[slot].step);
    if (cs.column.has_value()) {
      writes->push_back(
          DerivationWrite{*cs.column, provenance->step(state[slot].step).atom});
    }
  }
  return Status::Ok();
}

struct DerivationProgram::FmState {
  std::vector<Value> memo;
  std::vector<uint8_t> memo_set;
  std::vector<uint8_t> in_progress;
  // The slot's latest step in the sink. A derived value is always its
  // attribute's latest step: a non-NULL memo is never rewritten.
  std::vector<size_t> last_step;
};

Value DerivationProgram::ResolveFirstMatch(uint32_t slot, const Row& row,
                                           FmState* state,
                                           Provenance* out) const {
  const FmAttr& attr = fm_attrs_[slot];
  if (attr.column.has_value()) {
    const Value& base = row[*attr.column];
    if (!base.is_null()) return base;
  }
  if (state->memo_set[slot] != 0) return state->memo[slot];
  if (state->in_progress[slot] != 0) {
    return Value::Null();  // cycle: fail the subgoal, as the interpreter does
  }
  state->in_progress[slot] = 1;
  Value result = Value::Null();
  for (const FmAttrRule& candidate : attr.rules) {
    if (!result.is_null()) break;
    const FmRule& rule = fm_rules_[candidate.rule];
    bool holds = true;
    for (const FmCond& a : rule.antecedent) {
      if (!NonNullEq(ResolveFirstMatch(a.slot, row, state, out), a.value)) {
        holds = false;
        break;
      }
    }
    if (!holds) continue;
    // Cut: commit this rule's conclusions.
    const FmCond& head = rule.consequent[candidate.head];
    result = head.value;
    state->last_step[slot] = out->AddStep(head.atom, candidate.rule);
    for (const FmCond& c : rule.consequent) {
      if (c.slot == slot) continue;
      const FmAttr& cattr = fm_attrs_[c.slot];
      if (cattr.column.has_value() && !row[*cattr.column].is_null()) continue;
      if (state->memo_set[c.slot] != 0 && !state->memo[c.slot].is_null()) {
        continue;
      }
      state->memo[c.slot] = c.value;
      state->memo_set[c.slot] = 1;
      state->last_step[c.slot] = out->AddStep(c.atom, candidate.rule);
    }
  }
  state->memo[slot] = result;
  state->memo_set[slot] = 1;
  state->in_progress[slot] = 0;
  return result;
}

Status DerivationProgram::RunFirstMatch(
    const Row& row, Provenance* provenance,
    std::vector<DerivationWrite>* writes) const {
  FmState state;
  state.memo.resize(fm_attrs_.size());
  state.memo_set.assign(fm_attrs_.size(), 0);
  state.in_progress.assign(fm_attrs_.size(), 0);
  state.last_step.resize(fm_attrs_.size());
  for (uint32_t t : fm_targets_) {
    const FmAttr& attr = fm_attrs_[t];
    if (attr.column.has_value() && !row[*attr.column].is_null()) {
      continue;  // base value stands
    }
    if (ResolveFirstMatch(t, row, &state, provenance).is_null()) continue;
    const size_t step = state.last_step[t];
    provenance->MarkDerived(step);
    if (attr.column.has_value()) {
      writes->push_back(
          DerivationWrite{*attr.column, provenance->step(step).atom});
    }
  }
  return Status::Ok();
}

}  // namespace compile
}  // namespace eid
