#include "ilfd/ilfd_set.h"

#include <algorithm>

namespace eid {
namespace {

/// Enumeration budget for DerivedIlfds (candidate antecedents examined).
constexpr size_t kDerivedEnumerationCap = 200000;

}  // namespace

IlfdSet::IlfdSet(std::vector<Ilfd> ilfds) {
  for (Ilfd& f : ilfds) Add(std::move(f));
}

size_t IlfdSet::Add(Ilfd ilfd) {
  std::vector<AtomId> body, head;
  for (const Atom& a : ilfd.antecedent()) body.push_back(atoms_.Intern(a));
  for (const Atom& a : ilfd.consequent()) head.push_back(atoms_.Intern(a));
  // An ILFD binds each consequent attribute once, so a later ILFD's
  // non-NULL value overrides the type an earlier one recorded.
  for (size_t i = 0; i < head.size(); ++i) {
    const uint32_t ordinal = atoms_.attribute_ordinal(head[i]);
    if (ordinal >= consequents_.size()) consequents_.resize(ordinal + 1);
    Consequent& consequent = consequents_[ordinal];
    consequent.concluded = true;
    const Value& v = ilfd.consequent()[i].value;
    if (!v.is_null()) consequent.type = v.type();
  }
  kb_.Add(Implication{AtomSet(std::move(body)), AtomSet(std::move(head))});
  ilfds_.push_back(std::move(ilfd));
  return ilfds_.size() - 1;
}

AtomId IlfdSet::ConsequentAtom(size_t i, size_t j) const {
  // The clause's head holds the consequent's atoms ordered by id, and a
  // consequent binds each attribute once, so the attribute finds it.
  const std::vector<AtomId>& head = kb_.clause(i).head.ids();
  EID_CHECK(j < head.size());
  if (head.size() == 1) return head.front();
  const std::string& attribute = ilfds_[i].consequent()[j].attribute;
  auto it = std::find_if(head.begin(), head.end(), [&](AtomId id) {
    return atoms_.atom(id).attribute == attribute;
  });
  EID_CHECK(it != head.end());
  return *it;
}

std::vector<std::string> IlfdSet::ConsequentAttributes() const {
  std::vector<std::string> out;
  for (uint32_t ordinal = 0; ordinal < consequents_.size(); ++ordinal) {
    if (consequents_[ordinal].concluded) {
      out.push_back(atoms_.attribute_name(ordinal));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

ValueType IlfdSet::ConsequentType(const std::string& attribute) const {
  std::optional<uint32_t> ordinal = atoms_.FindAttribute(attribute);
  if (!ordinal.has_value() || *ordinal >= consequents_.size()) {
    return ValueType::kString;
  }
  return consequents_[*ordinal].type.value_or(ValueType::kString);
}

Result<size_t> IlfdSet::AddText(const std::string& text) {
  EID_ASSIGN_OR_RETURN(Ilfd f, ParseIlfd(text));
  return Add(std::move(f));
}

Implication IlfdSet::ToImplication(const Ilfd& f, AtomTable* table) const {
  std::vector<AtomId> body, head;
  for (const Atom& a : f.antecedent()) body.push_back(table->Intern(a));
  for (const Atom& a : f.consequent()) head.push_back(table->Intern(a));
  return Implication{AtomSet(std::move(body)), AtomSet(std::move(head))};
}

std::vector<Atom> IlfdSet::ConditionClosure(
    const std::vector<Atom>& conditions) const {
  // Scratch copy: ids of already-interned atoms are stable (append-only),
  // so kb_'s clauses remain valid against the extended table.
  AtomTable scratch = atoms_;
  std::vector<AtomId> seed;
  seed.reserve(conditions.size());
  for (const Atom& c : conditions) seed.push_back(scratch.Intern(c));
  ClosureResult closure = kb_.ForwardClosure(AtomSet(std::move(seed)));
  std::vector<Atom> out;
  out.reserve(closure.atoms.size());
  for (AtomId id : closure.atoms.ids()) out.push_back(scratch.atom(id));
  return out;
}

bool IlfdSet::Implies(const Ilfd& f) const {
  AtomTable scratch = atoms_;
  Implication target = ToImplication(f, &scratch);
  return kb_.Implies(target);
}

Result<Proof> IlfdSet::Prove(const Ilfd& f, AtomTable* table_out) const {
  AtomTable scratch = atoms_;
  Implication target = ToImplication(f, &scratch);
  if (table_out != nullptr) *table_out = scratch;
  return BuildProof(kb_, target);
}

bool IlfdSet::EquivalentTo(const IlfdSet& other) const {
  for (const Ilfd& f : other.ilfds_) {
    if (!Implies(f)) return false;
  }
  for (const Ilfd& f : ilfds_) {
    if (!other.Implies(f)) return false;
  }
  return true;
}

bool IlfdSet::IsRedundant(size_t index) const {
  EID_CHECK(index < ilfds_.size());
  IlfdSet rest;
  for (size_t i = 0; i < ilfds_.size(); ++i) {
    if (i != index) rest.Add(ilfds_[i]);
  }
  return rest.Implies(ilfds_[index]);
}

IlfdSet IlfdSet::MinimalCover() const {
  // 1. Decompose to single-consequent form.
  std::vector<Ilfd> work;
  for (const Ilfd& f : ilfds_) {
    for (const Atom& c : f.consequent()) {
      work.push_back(Ilfd::Implies(f.antecedent(), c));
    }
  }
  // 2. Remove extraneous antecedent conditions (tested against the full
  //    original set, per the standard FD minimal-cover algorithm).
  for (Ilfd& f : work) {
    bool changed = true;
    while (changed && f.antecedent().size() > 1) {
      changed = false;
      const std::vector<Atom>& ante = f.antecedent();
      for (size_t i = 0; i < ante.size(); ++i) {
        std::vector<Atom> reduced;
        for (size_t j = 0; j < ante.size(); ++j) {
          if (j != i) reduced.push_back(ante[j]);
        }
        Ilfd candidate(reduced, f.consequent());
        if (Implies(candidate)) {
          f = std::move(candidate);
          changed = true;
          break;
        }
      }
    }
  }
  // 3. Drop ILFDs implied by the remainder, and exact duplicates/trivial.
  std::vector<Ilfd> kept;
  std::vector<bool> alive(work.size(), true);
  for (size_t i = 0; i < work.size(); ++i) {
    if (work[i].IsTrivial()) {
      alive[i] = false;
      continue;
    }
    IlfdSet rest;
    for (size_t j = 0; j < work.size(); ++j) {
      if (j != i && alive[j]) rest.Add(work[j]);
    }
    if (rest.Implies(work[i])) alive[i] = false;
  }
  IlfdSet cover;
  for (size_t i = 0; i < work.size(); ++i) {
    if (alive[i]) cover.Add(work[i]);
  }
  return cover;
}

std::vector<Ilfd> IlfdSet::DerivedIlfds(size_t max_antecedent) const {
  // Universe: distinct antecedent atoms across the set.
  std::vector<AtomId> universe;
  {
    AtomSet seen;
    for (const Ilfd& f : ilfds_) {
      for (const Atom& a : f.antecedent()) {
        std::optional<AtomId> id = atoms_.Find(a.attribute, a.value);
        EID_CHECK(id.has_value());
        if (!seen.Contains(*id)) {
          seen.Insert(*id);
          universe.push_back(*id);
        }
      }
    }
  }
  std::sort(universe.begin(), universe.end());

  std::vector<Ilfd> derived;
  size_t examined = 0;

  // Enumerate subsets of the universe of size 1..max_antecedent.
  std::vector<size_t> pick;
  auto consider = [&](const std::vector<size_t>& indices) {
    std::vector<AtomId> body_ids;
    for (size_t i : indices) body_ids.push_back(universe[i]);
    AtomSet body(body_ids);
    ClosureResult closure = kb_.ForwardClosure(body);
    for (AtomId b : closure.atoms.ids()) {
      if (body.Contains(b)) continue;
      // Minimality: no proper subset of body derives b.
      bool minimal = true;
      for (size_t skip = 0; skip < body_ids.size() && minimal; ++skip) {
        std::vector<AtomId> sub;
        for (size_t j = 0; j < body_ids.size(); ++j) {
          if (j != skip) sub.push_back(body_ids[j]);
        }
        if (kb_.ForwardClosure(AtomSet(sub)).atoms.Contains(b)) {
          minimal = false;
        }
      }
      if (!minimal) continue;
      std::vector<Atom> ante;
      for (AtomId id : body.ids()) ante.push_back(atoms_.atom(id));
      Ilfd candidate = Ilfd::Implies(ante, atoms_.atom(b));
      // Skip ILFDs already given syntactically.
      if (std::find(ilfds_.begin(), ilfds_.end(), candidate) != ilfds_.end()) {
        continue;
      }
      derived.push_back(std::move(candidate));
    }
  };

  // Iterative subset enumeration by size.
  for (size_t k = 1; k <= max_antecedent && k <= universe.size(); ++k) {
    std::vector<size_t> idx(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    while (true) {
      if (++examined > kDerivedEnumerationCap) return derived;
      consider(idx);
      // Next combination.
      size_t i = k;
      while (i > 0) {
        --i;
        if (idx[i] != i + universe.size() - k) {
          ++idx[i];
          for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
          break;
        }
        if (i == 0) {
          i = k + 1;  // signal done
          break;
        }
      }
      if (i == k + 1) break;
    }
  }
  return derived;
}

std::string IlfdSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < ilfds_.size(); ++i) {
    out += "I";
    out += std::to_string(i + 1);
    out += ": ";
    out += ilfds_[i].ToString();
    out += "\n";
  }
  return out;
}

}  // namespace eid
