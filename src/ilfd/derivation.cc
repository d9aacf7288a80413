#include "ilfd/derivation.h"

#include <algorithm>
#include <bit>
#include <set>
#include <unordered_set>

namespace eid {

Status DerivationConflictError(const DerivationConflict& conflict,
                               const std::string& tuple_display) {
  return Status::ConstraintViolation(
      "ILFD derivation conflict on attribute '" + conflict.attribute +
      "': '" + conflict.first_value.ToString() + "' (from " +
      (conflict.first_ilfd == kDerivationBaseProvenance
           ? std::string("base tuple")
           : "ILFD " + std::to_string(conflict.first_ilfd)) +
      ") vs '" + conflict.second_value.ToString() + "' (from ILFD " +
      std::to_string(conflict.second_ilfd) + ") for tuple " + tuple_display);
}

size_t Provenance::derived_count() const {
  size_t count = 0;
  for (uint64_t word : derived_) {
    count += static_cast<size_t>(std::popcount(word));
  }
  return count;
}

Derivation Provenance::DerivationOf(size_t row, const IlfdSet& ilfds) const {
  Derivation out;
  const AtomTable& atoms = ilfds.atoms();
  const size_t end = row_end(row);
  out.steps.reserve(end - row_begin(row));
  for (size_t i = row_begin(row); i < end; ++i) {
    const Atom& atom = atoms.atom(steps_[i].atom);
    out.steps.push_back(DerivationStep{atom.attribute, atom.value,
                                       static_cast<size_t>(steps_[i].ilfd)});
    if (derived(i)) out.derived[atom.attribute] = atom.value;
  }
  auto first = std::lower_bound(
      conflicts_.begin(), conflicts_.end(), row,
      [](const RowConflict& c, size_t r) { return c.row < r; });
  for (auto it = first; it != conflicts_.end() && it->row == row; ++it) {
    out.conflicts.push_back(it->conflict);
  }
  return out;
}

void Provenance::EndRow() {
  EID_CHECK(steps_.size() <= UINT32_MAX);
  ends_.push_back(static_cast<uint32_t>(steps_.size()));
}

void Provenance::Append(const Provenance& other) {
  EID_CHECK(steps_.size() == (ends_.empty() ? 0 : ends_.back()));
  EID_CHECK(other.steps_.size() ==
            (other.ends_.empty() ? 0 : other.ends_.back()));
  const size_t row_base = rows();
  const size_t step_base = steps_.size();
  EID_CHECK(step_base + other.steps_.size() <= UINT32_MAX);
  for (uint32_t end : other.ends_) {
    ends_.push_back(static_cast<uint32_t>(step_base + end));
  }
  steps_.insert(steps_.end(), other.steps_.begin(), other.steps_.end());
  derived_.resize((steps_.size() + 63) / 64, 0);
  for (size_t w = 0; w < other.derived_.size(); ++w) {
    for (uint64_t bits = other.derived_[w]; bits != 0; bits &= bits - 1) {
      MarkDerived(step_base + w * 64 +
                  static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  for (const RowConflict& c : other.conflicts_) {
    conflicts_.push_back(RowConflict{row_base + c.row, c.conflict});
  }
}

void Provenance::Clear() {
  ends_.clear();
  steps_.clear();
  derived_.clear();
  conflicts_.clear();
}

namespace {

/// Provenance sentinel for values present in the base tuple.
constexpr size_t kBaseProvenance = kDerivationBaseProvenance;

struct Binding {
  Value value;
  size_t source = kBaseProvenance;
};

/// Exhaustive derivation via the ILFD set's knowledge base: one
/// forward-closure call per tuple (the linear-time counting algorithm)
/// instead of repeated sweeps over every ILFD. Tuple values that were
/// never interned by any ILFD cannot fire a rule and are skipped.
Result<Derivation> DeriveExhaustive(const TupleView& tuple,
                                    const IlfdSet& ilfds,
                                    const DerivationOptions& options,
                                    ClosureEvaluator* evaluator) {
  Derivation out;
  const AtomTable& atoms = ilfds.atoms();

  // Base bindings (non-NULL tuple values) and the closure seed.
  std::map<std::string, Value> base;
  std::vector<AtomId> seed;
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple.at(i).is_null()) continue;
    const std::string& attr = tuple.schema().attribute(i).name;
    base.emplace(attr, tuple.at(i));
    std::optional<AtomId> id = atoms.Find(attr, tuple.at(i));
    if (id.has_value()) seed.push_back(*id);
  }
  AtomSet seed_set(std::move(seed));
  ClosureResult closure = evaluator != nullptr
                              ? evaluator->Run(seed_set)
                              : ilfds.kb().ForwardClosure(seed_set);

  // Visit derived atoms in derivation order (clause firing order, heads in
  // clause order), binding each attribute to its first-derived value and
  // reporting later disagreements as conflicts.
  std::map<std::string, Binding> bound;
  std::set<std::string> conflicted;  // attributes nulled out (kNullOut)
  for (size_t clause_index : closure.firing_order) {
    const Implication& clause = ilfds.kb().clause(clause_index);
    for (AtomId h : clause.head.ids()) {
      auto prov = closure.provenance.find(h);
      if (prov == closure.provenance.end() ||
          prov->second != clause_index) {
        continue;  // atom was in the seed or derived by an earlier clause
      }
      const Atom& atom = atoms.atom(h);
      size_t fi = clause_index;  // IlfdSet mirrors ILFDs 1:1 into the KB

      // Conflict against the base tuple?
      auto base_it = base.find(atom.attribute);
      const Value* first_value = nullptr;
      size_t first_source = kBaseProvenance;
      if (base_it != base.end()) {
        first_value = &base_it->second;
      } else {
        auto bound_it = bound.find(atom.attribute);
        if (bound_it != bound.end()) {
          first_value = &bound_it->second.value;
          first_source = bound_it->second.source;
        }
      }
      if (first_value == nullptr) {
        if (conflicted.count(atom.attribute) > 0) continue;
        bound[atom.attribute] = Binding{atom.value, fi};
        out.steps.push_back(DerivationStep{atom.attribute, atom.value, fi});
        continue;
      }
      if (*first_value == atom.value) continue;
      DerivationConflict conflict{atom.attribute, *first_value, atom.value,
                                  first_source, fi};
      if (options.conflict_policy == ConflictPolicy::kError) {
        return DerivationConflictError(conflict, tuple.ToString());
      }
      out.conflicts.push_back(conflict);
      if (options.conflict_policy == ConflictPolicy::kNullOut &&
          first_source != kBaseProvenance) {
        bound.erase(atom.attribute);
        conflicted.insert(atom.attribute);
      }
      // kKeepFirst (and conflicts against base values): first value stands.
    }
  }

  for (const auto& [attr, binding] : bound) {
    if (!options.target_attributes.empty()) {
      bool wanted = false;
      for (const std::string& t : options.target_attributes) {
        if (t == attr) {
          wanted = true;
          break;
        }
      }
      if (!wanted) continue;
    }
    out.derived[attr] = binding.value;
  }
  return out;
}

/// Backward chaining with the prototype's cut semantics.
class FirstMatchResolver {
 public:
  FirstMatchResolver(const TupleView& tuple, const IlfdSet& ilfds,
                     Derivation* out)
      : tuple_(tuple), ilfds_(ilfds), out_(out) {}

  /// Resolved value of `attribute` (base, memoized, or derived); NULL when
  /// underivable.
  Value Resolve(const std::string& attribute) {
    Value base = tuple_.GetOrNull(attribute);
    if (!base.is_null()) return base;
    auto memo_it = memo_.find(attribute);
    if (memo_it != memo_.end()) return memo_it->second;
    if (in_progress_.count(attribute) > 0) {
      return Value::Null();  // cycle: the Prolog query would not terminate;
                             // we fail the subgoal instead.
    }
    in_progress_.insert(attribute);
    Value result = Value::Null();
    for (size_t fi = 0; fi < ilfds_.size() && result.is_null(); ++fi) {
      const Ilfd& f = ilfds_.ilfd(fi);
      const Atom* head = nullptr;
      for (const Atom& c : f.consequent()) {
        if (c.attribute == attribute) {
          head = &c;
          break;
        }
      }
      if (head == nullptr) continue;
      bool holds = true;
      for (const Atom& a : f.antecedent()) {
        if (!NonNullEq(Resolve(a.attribute), a.value)) {
          holds = false;
          break;
        }
      }
      if (!holds) continue;
      // Cut: commit this rule's conclusions.
      result = head->value;
      out_->steps.push_back(DerivationStep{attribute, head->value, fi});
      for (const Atom& c : f.consequent()) {
        if (c.attribute == attribute) continue;
        if (!tuple_.GetOrNull(c.attribute).is_null()) continue;
        if (memo_.count(c.attribute) > 0 && !memo_[c.attribute].is_null()) {
          continue;
        }
        memo_[c.attribute] = c.value;
        out_->steps.push_back(DerivationStep{c.attribute, c.value, fi});
      }
    }
    memo_[attribute] = result;
    in_progress_.erase(attribute);
    return result;
  }

 private:
  const TupleView& tuple_;
  const IlfdSet& ilfds_;
  Derivation* out_;
  std::map<std::string, Value> memo_;
  std::unordered_set<std::string> in_progress_;
};

Result<Derivation> DeriveFirstMatch(const TupleView& tuple,
                                    const IlfdSet& ilfds,
                                    const DerivationOptions& options) {
  Derivation out;
  std::vector<std::string> targets = options.target_attributes;
  if (targets.empty()) {
    std::set<std::string> all;
    for (const Ilfd& f : ilfds.ilfds()) {
      for (const std::string& a : f.ConsequentAttributes()) all.insert(a);
    }
    targets.assign(all.begin(), all.end());
  }
  FirstMatchResolver resolver(tuple, ilfds, &out);
  for (const std::string& attr : targets) {
    if (!tuple.GetOrNull(attr).is_null()) continue;  // base value stands
    Value v = resolver.Resolve(attr);
    if (!v.is_null()) out.derived[attr] = v;
  }
  return out;
}

}  // namespace

Result<Derivation> DeriveTuple(const TupleView& tuple, const IlfdSet& ilfds,
                               const DerivationOptions& options) {
  return DeriveTuple(tuple, ilfds, options, /*evaluator=*/nullptr);
}

Result<Derivation> DeriveTuple(const TupleView& tuple, const IlfdSet& ilfds,
                               const DerivationOptions& options,
                               ClosureEvaluator* evaluator) {
  switch (options.mode) {
    case DerivationMode::kExhaustive:
      return DeriveExhaustive(tuple, ilfds, options, evaluator);
    case DerivationMode::kFirstMatch:
      return DeriveFirstMatch(tuple, ilfds, options);
  }
  return Status::Internal("unknown derivation mode");
}

}  // namespace eid
