// Incremental entity identification under updates (paper §2):
//
// "In the case of federated databases, participating database systems can
// continue to operate autonomously. Instance integration may have to be
// performed whenever updating is done on the participating databases."
//
// IncrementalIdentifier keeps the identification state live across
// insertions and deletions on either source relation. Each write and read
// costs what it touches — the tuple, the buckets it probes and the pairs
// it is part of — not the session size:
//
//  * inserting a tuple checks its candidate keys against per-key sets of
//    live key fingerprints, extends just that tuple (one compiled ILFD
//    derivation), probes the other side's extended-key hash index for
//    match candidates, and evaluates the identity and distinctness rules
//    (compiled antecedents) against the other side's value-index bucket
//    for each rule's equality conjunct; a rule orientation with no
//    indexable conjunct scans the other side's live tuples;
//  * deleting a tuple erases its key fingerprints and index entries and
//    retracts only the pairs it is part of; a candidate match that was
//    previously shadowed by the uniqueness constraint can surface again,
//    because all *candidate* pairs are retained;
//  * the first read after a write re-derives the matching table with one
//    greedy pass over the candidates — the key-join candidates first,
//    then the identity-rule-only ones, each in (r_id, s_id) order, as
//    batch Identify inserts them — in O(|candidates|); every other read
//    is O(1) per id, or a binary search per pair;
//  * the state is equivalent to a from-scratch EntityIdentifier::Identify
//    (and eid::reference::Identify) over the live tuples in id order
//    (tested property).
//
// Identity rules beyond extended-key equivalence are supported the same
// way distinctness rules are: evaluated pairwise against the other side on
// insert.

#ifndef EID_EID_INCREMENTAL_H_
#define EID_EID_INCREMENTAL_H_

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "compile/derivation_program.h"
#include "compile/pair_program.h"
#include "eid/identifier.h"

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
  size_t r_size() const { return sides_[0].live; }
  size_t s_size() const { return sides_[1].live; }

  /// Current matching table as a printable relation (R-key columns then
  /// S-key columns, like MatchTable::ToRelation).
  Result<Relation> MatchingRelation() const;

  /// Current decided-pair partition over live tuples.
  PairPartition Partition() const;

  /// Decision for a pair of live tuple ids; kUndetermined for dead or
  /// unknown ids.
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

  /// One tuple by stable id. A deleted entry keeps only `alive = false`.
  struct Entry {
    Row extended;  // world naming + K_ext columns
    bool alive = false;
    std::string ext_key_fingerprint;  // empty when any K_ext value is NULL
    // The other side's ids this tuple forms a candidate (certified by
    // ext-key equality or an identity rule) / negative (distinctness rule)
    // pair with, ascending: a pair is linked when its later tuple is
    // inserted, and that tuple's id is the largest on its side.
    std::vector<size_t> candidates;
    std::vector<size_t> negatives;
  };

  /// Candidate matched pair by stable ids.
  struct CandidatePair {
    size_t r_id;
    size_t s_id;

    bool operator<(const CandidatePair& other) const {
      return r_id != other.r_id ? r_id < other.r_id : s_id < other.s_id;
    }
  };

  /// A blocking plan (one rule orientation) with its attributes resolved
  /// to extended-row columns once, in Create. Arrays are indexed by side
  /// (0 = R, 1 = S).
  struct StagedPlan {
    bool impossible = false;  // can never evaluate kTrue
    bool has_join = false;
    std::array<size_t, 2> join_col{};
    std::array<std::vector<std::pair<size_t, Value>>, 2> const_eq;
  };

  /// One (rule, orientation): the plan that picks an insert's candidates
  /// and the compiled antecedent evaluated on each of them.
  struct RuleOrientation {
    StagedPlan plan;
    compile::CompiledConjunction program;
  };

  /// One source relation's session state; sides_[0] is R, sides_[1] S.
  struct SideState {
    Relation proto;  // empty schema/key carrier
    Schema ext_schema;
    std::vector<size_t> ext_key_cols;  // K_ext positions in ext_schema
    // Compiled derivation over config_->ilfds, which sits at a stable
    // heap address, so the program's borrowed knowledge base and the
    // evaluator's pointer to it survive moves of the identifier. The
    // session is single-threaded, so its one "worker" owns the evaluator
    // (EID_PER_WORKER by construction).
    std::unique_ptr<compile::DerivationProgram> derive;
    EID_PER_WORKER std::unique_ptr<ClosureEvaluator> eval;

    std::vector<Entry> entries;
    size_t live = 0;
    // Fingerprints of the live rows under each declared key, parallel to
    // proto.keys().
    std::vector<std::unordered_set<std::string>> live_keys;
    // ext-key fingerprint -> live ids, ascending.
    std::unordered_map<std::string, std::vector<size_t>> ext_index;
    // Live ids by value, per extended column; only the columns the plans
    // bucket on (tracked_cols) are maintained.
    std::vector<size_t> tracked_cols;
    std::vector<std::unordered_map<Value, std::vector<size_t>, ValueHash>>
        value_index;
    // Matched partner per id (kNoMatch when unmatched), refreshed by
    // RebuildMatching.
    mutable std::vector<size_t> match;

    /// The matched partner of `id`; nullopt for unmatched, dead and
    /// unknown ids.
    std::optional<size_t> MatchOf(size_t id) const;
    /// The live extended rows in id order.
    Relation Live() const;
  };

  Result<size_t> Insert(Side side, Row row);
  Status Delete(Side side, size_t id);
  /// Recomputes matching_ and the per-id match arrays from the candidate
  /// lists: greedy over the key-join candidates, then over the
  /// identity-only ones, each in (r_id, s_id) order — batch Identify's
  /// insertion order.
  void RebuildMatching() const;

  // On the heap so the derivation programs can borrow its ILFD set
  // across moves of the identifier.
  std::unique_ptr<const IdentifierConfig> config_;
  DerivationOptions derivation_;  // targets default to the extended key
  std::vector<DistinctnessRule> all_distinctness_;
  std::array<SideState, 2> sides_;

  // Rule orientations, rule-major, direct orientation before flipped:
  // entry 2k is rule k direct, 2k+1 flipped. An insert consults only the
  // other side's join/const bucket per orientation instead of every live
  // tuple.
  std::vector<RuleOrientation> identity_rules_, distinct_rules_;

  // Live candidates, sorted: pairs the extended-key join certifies, and
  // pairs only an identity rule certifies.
  std::vector<CandidatePair> key_candidates_;
  std::vector<CandidatePair> rule_candidates_;
  size_t negative_count_ = 0;              // live negative pairs
  // Lazily rebuilt matching (uniqueness-filtered candidates).
  mutable bool matching_dirty_ = true;
  mutable std::vector<CandidatePair> matching_;
  mutable Status uniqueness_ = Status::Ok();
};

}  // namespace eid

#endif  // EID_EID_INCREMENTAL_H_
