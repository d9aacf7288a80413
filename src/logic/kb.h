// Definite-clause knowledge base with forward-chaining closure.
//
// This engine plays the role SB-Prolog played in the paper's prototype: it
// saturates a seed set of facts under a set of implications. The closure
// algorithm is the linear-time counting algorithm (Beeri–Bernstein / the
// standard attribute-closure algorithm the paper refers to in §5.2:
// "the algorithm for computing X⁺_F is the same as that for computing the
// closure of a set of attributes with respect to a set of FDs").
//
// Provenance is recorded: for every derived atom, which implication fired
// first. This supports proof extraction (logic/armstrong.h) and the
// explainable derivation traces used by the matching engine.

#ifndef EID_LOGIC_KB_H_
#define EID_LOGIC_KB_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "logic/implication.h"

namespace eid {

/// Result of a forward-chaining run.
struct ClosureResult {
  /// All atoms derivable from the seed (including the seed itself).
  AtomSet atoms;
  /// For each derived (non-seed) atom: index of the implication (in the
  /// knowledge base's clause list) whose firing first produced it.
  std::unordered_map<AtomId, size_t> provenance;
  /// Implication indices in firing order (each listed once).
  std::vector<size_t> firing_order;
};

/// The atom -> clause index of a knowledge base in CSR form: the clauses
/// whose body contains atom a are clauses[begin[a] .. begin[a+1]), in
/// ascending clause order. Immutable once built; indexes the first
/// `num_clauses` clauses of the knowledge base it came from.
struct EID_SHARED_IMMUTABLE ClosureIndex {
  size_t num_clauses = 0;
  std::vector<uint32_t> begin;    // atom -> row start; size max_atom + 2
  std::vector<uint32_t> clauses;  // clause indices, row by row
};

/// An indexed set of implications supporting saturation queries.
///
/// Besides the clause list, Add maintains flat per-clause arrays — body
/// sizes, body atoms and a head CSR — so the amortised closure
/// (ClosureEvaluator) never chases an Implication's heap vectors. The
/// atom -> clause CSR it probes is built lazily, at most once per version
/// (clause count) of the knowledge base, and handed out as a shared
/// immutable snapshot: every evaluator, worker and copy of the knowledge
/// base reads the same one until Add drops it.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  /// Adds an implication; returns its index.
  size_t Add(Implication implication);

  size_t size() const { return clauses_.size(); }
  const Implication& clause(size_t i) const { return clauses_[i]; }
  const std::vector<Implication>& clauses() const { return clauses_; }

  /// Every clause's head atoms, clause-major, each clause's in AtomSet
  /// (ascending id) order.
  const std::vector<AtomId>& head_atoms() const { return head_atoms_; }

  /// The atom -> clause CSR of the current version, built on first
  /// request. Thread-safe: concurrent first requests build it once and
  /// share it. Must not race with Add.
  std::shared_ptr<const ClosureIndex> closure_index() const;

  /// Computes the closure of `seed` under all implications, O(total clause
  /// size). Firing order follows clause insertion order among enabled
  /// clauses (matching the prototype's top-down rule order). For many
  /// closures over one knowledge base (per-tuple derivation) use
  /// ClosureEvaluator, which avoids the per-call O(|clauses|) counter
  /// initialisation.
  ClosureResult ForwardClosure(const AtomSet& seed) const;

  /// True iff every atom of `goal` is derivable from `seed`.
  bool Entails(const AtomSet& seed, const AtomSet& goal) const;

  /// True iff the implication is a logical consequence of the knowledge
  /// base (F ⊨ body→head), decided via closure (sound & complete by
  /// Theorem 1 of the paper).
  bool Implies(const Implication& implication) const {
    return Entails(implication.body, implication.head);
  }

 private:
  friend class ClosureEvaluator;

  /// The lazily built closure index. Copying shares the snapshot — a
  /// copied knowledge base has the same clauses, so the same index.
  class SharedIndex {
   public:
    SharedIndex() = default;
    SharedIndex(const SharedIndex& other) : index_(other.Get()) {}
    SharedIndex& operator=(const SharedIndex& other);

    std::shared_ptr<const ClosureIndex> Get() const EID_EXCLUDES(mu_);
    std::shared_ptr<const ClosureIndex> GetOrBuild(const KnowledgeBase& kb)
        const EID_EXCLUDES(mu_);
    void Drop() EID_EXCLUDES(mu_);

   private:
    mutable base::Mutex mu_;
    mutable std::shared_ptr<const ClosureIndex> index_ EID_GUARDED_BY(mu_);
  };

  std::shared_ptr<const ClosureIndex> BuildClosureIndex() const;

  std::vector<Implication> clauses_;
  // body-atom -> indices of clauses containing it (ForwardClosure / Run,
  // the reference closures).
  std::unordered_map<AtomId, std::vector<size_t>> body_index_;
  // clauses with empty bodies (unconditional facts).
  std::vector<size_t> facts_;
  // Flat clause arrays, appended by Add: clause c's body atoms follow
  // those of clauses 0..c-1 in body_atoms_ (body_size_[c] of them), and
  // its head atoms are head_atoms_[head_begin_[c] .. head_begin_[c+1]).
  std::vector<uint32_t> body_size_;
  std::vector<AtomId> body_atoms_;
  std::vector<uint32_t> head_begin_ = {0};
  std::vector<AtomId> head_atoms_;
  SharedIndex index_;
};

/// One newly derived atom of a closure run: the clause that fired and the
/// head atom it produced. A run's derivations, in order, fully determine
/// the firing order and the provenance map restricted to derived atoms.
struct DerivedAtom {
  size_t clause = 0;
  AtomId atom = 0;
};

/// Amortised forward closure: reusable epoch-stamped workspace so each Run
/// touches only the clauses the seed actually reaches, not the whole
/// knowledge base. EID_PER_WORKER: one evaluator per ParallelFor worker
/// (the engine builds a vector indexed by worker id); never shared. The
/// referenced KnowledgeBase must outlive the evaluator and may grow
/// between runs.
class EID_PER_WORKER ClosureEvaluator {
 public:
  explicit ClosureEvaluator(const KnowledgeBase* kb) : kb_(kb) {
    EID_CHECK(kb != nullptr);
  }

  /// Semantics identical to KnowledgeBase::ForwardClosure.
  ClosureResult Run(const AtomSet& seed);

  /// Lean form for per-tuple derivation hot loops: runs the same closure
  /// as Run(AtomSet(seed)) but materialises only what compiled derivation
  /// consumes — every (clause, newly derived atom) pair, in Run's order
  /// (clauses in firing order; within a clause, head atoms in id order).
  /// `seed` must be sorted and duplicate-free, exactly AtomSet's invariant,
  /// so the work queue seeds in the same order Run's would. The returned
  /// span lives in evaluator scratch: valid until the next run, and a warm
  /// evaluator allocates nothing on this path.
  const std::vector<DerivedAtom>& RunDerived(const AtomId* seed, size_t count);
  const std::vector<DerivedAtom>& RunDerived(const std::vector<AtomId>& seed) {
    return RunDerived(seed.data(), seed.size());
  }

 private:
  /// Sizes the per-clause workspace to the knowledge base and starts a
  /// new epoch.
  void BeginRun();

  const KnowledgeBase* kb_;
  std::vector<size_t> missing_;
  std::vector<uint64_t> missing_epoch_;
  std::vector<uint64_t> fired_epoch_;
  // RunDerived scratch: dense atom membership (epoch-stamped, grown on
  // first sight of an id), a vector-backed FIFO, and the result buffer.
  std::vector<uint64_t> atom_epoch_;
  std::vector<AtomId> queue_;
  std::vector<DerivedAtom> derived_;
  // The knowledge base's atom -> clause CSR, taken once per knowledge-base
  // version. Per-tuple sweeps probe an atom's clause list once per
  // derived atom, and a hash find there was the hottest instruction
  // stream of the whole matcher — an array load is not.
  std::shared_ptr<const ClosureIndex> index_;
  uint64_t epoch_ = 0;
};

}  // namespace eid

#endif  // EID_LOGIC_KB_H_
