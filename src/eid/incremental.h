// Incremental entity identification under updates (paper §2):
//
// "In the case of federated databases, participating database systems can
// continue to operate autonomously. Instance integration may have to be
// performed whenever updating is done on the participating databases."
//
// IncrementalIdentifier keeps the identification state live across
// insertions and deletions on either source relation:
//
//  * inserting a tuple extends just that tuple (one ILFD derivation),
//    probes the other side's extended-key hash index for match candidates,
//    and evaluates the distinctness rules against the other side only —
//    O(|other side|) worst case instead of the full O(|R|·|S|) recompute;
//  * deleting a tuple retracts its pairs; a candidate match that was
//    previously shadowed by the uniqueness constraint can surface again,
//    because all *candidate* pairs are retained and the matching table is
//    re-derived from them (greedy in deterministic key order, matching
//    batch semantics);
//  * the state is always equivalent to a from-scratch
//    EntityIdentifier::Identify over the live tuples (tested property).
//
// Identity rules beyond extended-key equivalence are supported the same
// way distinctness rules are: evaluated pairwise against the other side on
// insert.

#ifndef EID_EID_INCREMENTAL_H_
#define EID_EID_INCREMENTAL_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "compile/derivation_program.h"
#include "compile/pair_program.h"
#include "eid/identifier.h"
#include "exec/blocking_index.h"

namespace eid {

/// Live identification over mutating source relations.
class IncrementalIdentifier {
 public:
  /// `config` as for EntityIdentifier; both relations start empty with the
  /// given schemas/keys (copy empty Relations carrying DeclareKey state).
  /// Error when the config is invalid (bad rules, missing ext-key
  /// attributes in the correspondence).
  static Result<IncrementalIdentifier> Create(IdentifierConfig config,
                                              Relation empty_r,
                                              Relation empty_s);

  /// Inserts a tuple into R (S). Returns the tuple's stable id. Errors on
  /// schema/key violations or derivation conflicts; the state is unchanged
  /// on error.
  Result<size_t> InsertR(Row row);
  Result<size_t> InsertS(Row row);

  /// Deletes a previously inserted tuple by its stable id. Idempotent
  /// error (NotFound) for unknown/already-deleted ids.
  Status DeleteR(size_t id);
  Status DeleteS(size_t id);

  /// Live tuple counts.
  size_t r_size() const { return r_live_; }
  size_t s_size() const { return s_live_; }

  /// Current matching table as a printable relation (R-key columns then
  /// S-key columns, like MatchTable::ToRelation).
  Result<Relation> MatchingRelation() const;

  /// Current decided-pair partition over live tuples.
  PairPartition Partition() const;

  /// Decision for a pair of live tuple ids.
  MatchDecision Decide(size_t r_id, size_t s_id) const;

  /// OK while no uniqueness violation exists among live candidates.
  Status Uniqueness() const;

  /// The matched S id for a live R id, if any (and vice versa).
  std::optional<size_t> MatchOfR(size_t r_id) const;
  std::optional<size_t> MatchOfS(size_t s_id) const;

  /// Extended live relations (compacted; row order = id order). For
  /// equivalence checks against batch identification.
  Relation LiveR() const;
  Relation LiveS() const;

 private:
  IncrementalIdentifier() = default;

  struct Entry {
    Row base;      // original tuple
    Row extended;  // world naming + K_ext columns
    bool alive = false;
    std::string ext_key_fingerprint;  // empty when any K_ext value is NULL
  };

  /// Candidate matched pair by stable ids (certified by ext-key equality
  /// or an identity rule).
  struct CandidatePair {
    size_t r_id;
    size_t s_id;
  };

  Result<size_t> Insert(Side side, Row row);
  Status Delete(Side side, size_t id);
  /// Recomputes matching_ from candidates_ (greedy in (r_id, s_id) order).
  void RebuildMatching() const;

  IdentifierConfig config_;
  Relation r_proto_, s_proto_;        // empty schema/key carriers
  Schema r_ext_schema_, s_ext_schema_;
  std::vector<std::string> r_added_, s_added_;  // K_ext−R / K_ext−S
  std::vector<DistinctnessRule> all_distinctness_;

  // Compiled execution state, built once in Create when
  // matcher_options.compile (null/empty otherwise). The derivation
  // programs live on the heap so the evaluators' knowledge-base pointers
  // survive moves of the identifier. Rule programs are rule-major, direct
  // orientation before flipped — the interpreter's evaluation order.
  std::unique_ptr<compile::DerivationProgram> r_derive_, s_derive_;
  // The session is single-threaded, so its one "worker" owns the
  // evaluator/memo pair per side (EID_PER_WORKER by construction).
  EID_PER_WORKER std::unique_ptr<ClosureEvaluator> r_eval_, s_eval_;
  EID_PER_WORKER compile::DerivationMemo r_memo_, s_memo_;
  std::vector<compile::CompiledConjunction> identity_programs_;
  std::vector<compile::CompiledConjunction> distinct_programs_;

  // Staged per-insert acceleration (matcher_options.staged), built in
  // Create: one BlockingPlan per (rule, orientation) against the
  // extended schemas, the union of columns those plans bucket on, and —
  // maintained per live tuple — dynamic per-column value indexes. An
  // insert then consults only the other side's join/const bucket per
  // orientation instead of every live tuple; the full antecedent is
  // still evaluated on every candidate, so the fired sets are identical
  // to the exhaustive sweep. There is no AMQ pre-filter here: every
  // probe it could guard is one exact hash lookup anyway.
  std::vector<exec::BlockingPlan> identity_plans_, distinct_plans_;
  std::vector<size_t> r_tracked_cols_, s_tracked_cols_;
  std::unordered_map<size_t,
                     std::unordered_map<Value, std::vector<size_t>, ValueHash>>
      r_value_index_, s_value_index_;

  std::vector<Entry> r_entries_, s_entries_;
  size_t r_live_ = 0, s_live_ = 0;
  // ext-key fingerprint -> live ids, per side.
  std::unordered_map<std::string, std::vector<size_t>> r_index_, s_index_;

  std::vector<CandidatePair> candidates_;           // live certified pairs
  std::vector<CandidatePair> negative_pairs_;       // live distinct pairs
  // Lazily rebuilt matching (uniqueness-filtered candidates).
  mutable bool matching_dirty_ = true;
  mutable std::vector<CandidatePair> matching_;
  mutable Status uniqueness_ = Status::Ok();
};

}  // namespace eid

#endif  // EID_EID_INCREMENTAL_H_
