#include "logic/kb.h"

#include <algorithm>
#include <deque>

namespace eid {

size_t KnowledgeBase::Add(Implication implication) {
  size_t index = clauses_.size();
  if (implication.body.empty()) {
    facts_.push_back(index);
  }
  for (AtomId id : implication.body.ids()) {
    body_index_[id].push_back(index);
  }
  body_size_.push_back(static_cast<uint32_t>(implication.body.size()));
  body_atoms_.insert(body_atoms_.end(), implication.body.ids().begin(),
                     implication.body.ids().end());
  head_atoms_.insert(head_atoms_.end(), implication.head.ids().begin(),
                     implication.head.ids().end());
  head_begin_.push_back(static_cast<uint32_t>(head_atoms_.size()));
  clauses_.push_back(std::move(implication));
  index_.Drop();
  return index;
}

std::shared_ptr<const ClosureIndex> KnowledgeBase::closure_index() const {
  return index_.GetOrBuild(*this);
}

std::shared_ptr<const ClosureIndex> KnowledgeBase::BuildClosureIndex() const {
  // A counting sort over the flat body array. It lists (clause, atom) in
  // ascending clause order, which is body_index_'s per-atom insertion
  // order, so the probe order (and with it every firing order) is
  // identical to the map's.
  auto index = std::make_shared<ClosureIndex>();
  index->num_clauses = clauses_.size();
  if (body_atoms_.empty()) return index;
  const AtomId max_atom =
      *std::max_element(body_atoms_.begin(), body_atoms_.end());
  std::vector<uint32_t>& begin = index->begin;
  begin.assign(size_t{max_atom} + 2, 0);
  for (AtomId a : body_atoms_) ++begin[a + 1];
  for (size_t i = 1; i < begin.size(); ++i) begin[i] += begin[i - 1];
  index->clauses.resize(body_atoms_.size());
  std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
  size_t next = 0;
  for (uint32_t c = 0; c < body_size_.size(); ++c) {
    for (uint32_t k = 0; k < body_size_[c]; ++k) {
      index->clauses[fill[body_atoms_[next++]]++] = c;
    }
  }
  return index;
}

KnowledgeBase::SharedIndex& KnowledgeBase::SharedIndex::operator=(
    const SharedIndex& other) {
  if (this == &other) return *this;
  std::shared_ptr<const ClosureIndex> index = other.Get();
  base::MutexLock lock(&mu_);
  index_ = std::move(index);
  return *this;
}

std::shared_ptr<const ClosureIndex> KnowledgeBase::SharedIndex::Get() const {
  base::MutexLock lock(&mu_);
  return index_;
}

std::shared_ptr<const ClosureIndex> KnowledgeBase::SharedIndex::GetOrBuild(
    const KnowledgeBase& kb) const {
  // Built under the lock: concurrent first users wait for the one build
  // instead of each building their own.
  base::MutexLock lock(&mu_);
  if (index_ == nullptr) index_ = kb.BuildClosureIndex();
  return index_;
}

void KnowledgeBase::SharedIndex::Drop() {
  base::MutexLock lock(&mu_);
  index_ = nullptr;
}

ClosureResult KnowledgeBase::ForwardClosure(const AtomSet& seed) const {
  ClosureResult result;
  result.atoms = seed;

  // Remaining unsatisfied body atoms per clause.
  std::vector<size_t> missing(clauses_.size());
  for (size_t i = 0; i < clauses_.size(); ++i) {
    missing[i] = clauses_[i].body.size();
  }

  std::vector<bool> fired(clauses_.size(), false);
  // Work queue of newly derived atoms, FIFO so earlier clauses fire first.
  std::deque<AtomId> queue(seed.ids().begin(), seed.ids().end());

  auto fire = [&](size_t clause_index) {
    if (fired[clause_index]) return;
    fired[clause_index] = true;
    result.firing_order.push_back(clause_index);
    for (AtomId h : clauses_[clause_index].head.ids()) {
      if (!result.atoms.Contains(h)) {
        result.atoms.Insert(h);
        result.provenance.emplace(h, clause_index);
        queue.push_back(h);
      }
    }
  };

  for (size_t f : facts_) fire(f);

  // Count down satisfied body atoms. Each atom enters the queue at most
  // once and clause bodies are sets, so each decrement is counted once.
  while (!queue.empty()) {
    AtomId a = queue.front();
    queue.pop_front();
    auto it = body_index_.find(a);
    if (it == body_index_.end()) continue;
    for (size_t clause_index : it->second) {
      if (missing[clause_index] == 0) continue;
      if (--missing[clause_index] == 0) fire(clause_index);
    }
  }
  return result;
}

bool KnowledgeBase::Entails(const AtomSet& seed, const AtomSet& goal) const {
  return ForwardClosure(seed).atoms.ContainsAll(goal);
}

void ClosureEvaluator::BeginRun() {
  const size_t num_clauses = kb_->size();
  ++epoch_;
  if (missing_.size() < num_clauses) {
    missing_.resize(num_clauses, 0);
    missing_epoch_.resize(num_clauses, 0);
    fired_epoch_.resize(num_clauses, 0);
  }
}

ClosureResult ClosureEvaluator::Run(const AtomSet& seed) {
  const KnowledgeBase& kb = *kb_;
  BeginRun();

  ClosureResult result;
  result.atoms = seed;
  std::deque<AtomId> queue(seed.ids().begin(), seed.ids().end());

  auto fire = [&](size_t clause_index) {
    if (fired_epoch_[clause_index] == epoch_) return;
    fired_epoch_[clause_index] = epoch_;
    result.firing_order.push_back(clause_index);
    for (AtomId h : kb.clauses_[clause_index].head.ids()) {
      if (!result.atoms.Contains(h)) {
        result.atoms.Insert(h);
        result.provenance.emplace(h, clause_index);
        queue.push_back(h);
      }
    }
  };

  for (size_t f : kb.facts_) fire(f);

  while (!queue.empty()) {
    AtomId a = queue.front();
    queue.pop_front();
    auto it = kb.body_index_.find(a);
    if (it == kb.body_index_.end()) continue;
    for (size_t clause_index : it->second) {
      size_t remaining = (missing_epoch_[clause_index] == epoch_)
                             ? missing_[clause_index]
                             : kb.clauses_[clause_index].body.size();
      if (remaining == 0) continue;
      --remaining;
      missing_[clause_index] = remaining;
      missing_epoch_[clause_index] = epoch_;
      if (remaining == 0) fire(clause_index);
    }
  }
  return result;
}

const std::vector<DerivedAtom>& ClosureEvaluator::RunDerived(
    const AtomId* seed, size_t count) {
  const KnowledgeBase& kb = *kb_;
  BeginRun();
  if (index_ == nullptr || index_->num_clauses != kb.size()) {
    index_ = kb.closure_index();
  }
  const ClosureIndex& index = *index_;
  const uint32_t* body_size = kb.body_size_.data();
  const uint32_t* head_begin = kb.head_begin_.data();
  const AtomId* head_atoms = kb.head_atoms_.data();
  derived_.clear();
  queue_.clear();

  // Dense atom membership in place of Run's AtomSet: stamped = present.
  auto present = [&](AtomId a) {
    return a < atom_epoch_.size() && atom_epoch_[a] == epoch_;
  };
  auto mark = [&](AtomId a) {
    if (a >= atom_epoch_.size()) atom_epoch_.resize(a + 1, 0);
    atom_epoch_[a] = epoch_;
  };
  for (size_t i = 0; i < count; ++i) {
    mark(seed[i]);
    queue_.push_back(seed[i]);
  }

  auto fire = [&](size_t clause_index) {
    if (fired_epoch_[clause_index] == epoch_) return;
    fired_epoch_[clause_index] = epoch_;
    const uint32_t head_end = head_begin[clause_index + 1];
    for (uint32_t i = head_begin[clause_index]; i < head_end; ++i) {
      const AtomId h = head_atoms[i];
      if (!present(h)) {
        mark(h);
        derived_.push_back(DerivedAtom{clause_index, h});
        queue_.push_back(h);
      }
    }
  };

  for (size_t f : kb.facts_) fire(f);

  // Identical traversal to Run: the vector-backed FIFO pops in the same
  // order the deque would, and the CSR rows preserve body_index_'s
  // per-atom clause order, so firing order — and thus derived_ order —
  // matches ForwardClosure exactly.
  const size_t atom_limit = index.begin.empty() ? 0 : index.begin.size() - 1;
  for (size_t head = 0; head < queue_.size(); ++head) {
    AtomId a = queue_[head];
    if (a >= atom_limit) continue;
    const uint32_t end = index.begin[a + 1];
    for (uint32_t i = index.begin[a]; i < end; ++i) {
      const size_t clause_index = index.clauses[i];
      size_t remaining = (missing_epoch_[clause_index] == epoch_)
                             ? missing_[clause_index]
                             : body_size[clause_index];
      if (remaining == 0) continue;
      --remaining;
      missing_[clause_index] = remaining;
      missing_epoch_[clause_index] = epoch_;
      if (remaining == 0) fire(clause_index);
    }
  }
  return derived_;
}

}  // namespace eid
