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
//  * the session is the batch engine's pieces over one columnar world
//    (exec/columnar_world.h) that holds every inserted tuple as ids: in
//    Create, every rule orientation — the extended key's equivalence
//    rule, each identity rule direct, each distinctness rule both ways —
//    is lowered as compile::SweepRules lowers it (exec::PlanBlocking,
//    exec::ChooseProbe, exec::ResolvePlan, a compile::StagedConjunction
//    residual);
//  * inserting a tuple checks its candidate keys against per-key sets of
//    live key fingerprints, extends just that tuple (one compiled ILFD
//    derivation), type-checks the extended tuple as batch extension does,
//    appends its ids to the world, and evaluates each rule orientation
//    on the other side's live ids that share the tuple's id in the
//    probed join column — or hold the first constant filter's id, or,
//    with neither, every live id;
//  * deleting a tuple erases its key fingerprints (decoded from the
//    world) and bucket entries and retracts only the pairs it is part
//    of; a candidate match that was previously shadowed by the
//    uniqueness constraint can surface again, because all *candidate*
//    pairs are retained. Its ids stay in the world;
//  * the first read after a write re-derives the matching table with one
//    greedy pass over the candidates — the key-join candidates first,
//    then the identity-rule-only ones, each in (r_id, s_id) order, as
//    batch Identify inserts them — in O(|candidates|); every other read
//    is O(1) per id, or a binary search per pair;
//  * the state is equivalent to a from-scratch EntityIdentifier::Identify
//    (and eid::reference::Identify) over the live tuples in id order
//    (tested property).

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
#include "exec/columnar_world.h"

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
  /// schema/key violations, derivation conflicts and derived values of
  /// the wrong type, with batch Identify's status; the state is unchanged
  /// on error: no id, no key and no interned value.
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

  /// Extended live relations (compacted; row order = id order), decoded
  /// from the session world. For equivalence checks against batch
  /// identification.
  Relation LiveR() const { return Live(sides_[0]); }
  Relation LiveS() const { return Live(sides_[1]); }

 private:
  IncrementalIdentifier() = default;

  /// One tuple by stable id, which is also its row in the session world.
  /// A deleted entry keeps only `alive = false`; its ids stay in the world.
  struct Entry {
    bool alive = false;
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

  /// One (rule, orientation), lowered as the batch sweep lowers it: the
  /// plan resolved to world columns and session ids, and the residual of
  /// the conjuncts the plan does not enforce (unset when impossible).
  struct RuleOrientation {
    exec::ColumnPlan plan;
    compile::StagedConjunction residual;
  };

  /// One source relation's session state; sides_[0] is R, sides_[1] S.
  struct SideState {
    Relation proto;     // empty base relation: schema, keys, CheckRow
    Relation extended;  // empty R' (S'): extended schema, CheckRow
    // The world's id column per extended column, one id per stable id.
    std::vector<const std::vector<uint32_t>*> columns;
    // Compiled derivation over config_->ilfds, which sits at a stable
    // heap address, so the program's borrowed knowledge base and the
    // evaluator's pointer to it survive moves of the identifier. The
    // session is single-threaded, so its one "worker" owns the evaluator
    // (EID_PER_WORKER by construction).
    std::unique_ptr<compile::DerivationProgram> derive;
    EID_PER_WORKER std::unique_ptr<ClosureEvaluator> eval;
    // Derive's provenance sink, cleared on every insert: a session keeps
    // no provenance.
    Provenance provenance_sink;

    std::vector<Entry> entries;
    size_t live = 0;
    // Fingerprints of the live rows under each declared key, parallel to
    // proto.keys().
    std::vector<std::unordered_set<std::string>> live_keys;
    // Per extended column, the live ids holding each value id, ascending;
    // only the columns the plans probe or seed candidates from
    // (tracked_cols) are maintained.
    std::vector<size_t> tracked_cols;
    std::vector<std::unordered_map<uint32_t, std::vector<size_t>>> buckets;
    // Matched partner per id (kNoMatch when unmatched), refreshed by
    // RebuildMatching.
    mutable std::vector<size_t> match;

    /// The id of `column` on row `id`.
    uint32_t Id(size_t column, size_t id) const {
      return (*columns[column])[id];
    }
    /// Whether row `id` holds every filter's id.
    bool Passes(const std::vector<exec::ColumnFilter>& filters,
                size_t id) const;
    /// The live ids holding `value` in tracked column `column`.
    const std::vector<size_t>& Bucket(size_t column, uint32_t value) const;
    /// The matched partner of `id`; nullopt for unmatched, dead and
    /// unknown ids.
    std::optional<size_t> MatchOf(size_t id) const;
  };

  Result<size_t> Insert(Side side, Row row);
  Status Delete(Side side, size_t id);
  /// Recomputes matching_ and the per-id match arrays from the candidate
  /// lists: greedy over the key-join candidates, then over the
  /// identity-only ones, each in (r_id, s_id) order — batch Identify's
  /// insertion order.
  void RebuildMatching() const;
  /// Extended row `id` of `side`, decoded from the world.
  Row Decode(const SideState& side, size_t id) const;
  /// The live extended rows of `side` in id order.
  Relation Live(const SideState& side) const;

  // On the heap so the derivation programs can borrow its ILFD set
  // across moves of the identifier.
  std::unique_ptr<const IdentifierConfig> config_;
  // Every inserted row as ids, R' under kRExtended and S' under
  // kSExtended. On the heap: the residuals and SideState::columns point
  // into it across moves of the identifier.
  std::unique_ptr<exec::ColumnarWorld> world_;
  std::array<SideState, 2> sides_;

  // Rule orientations: the extended key's equivalence rule (none without
  // a key), the identity rules (direct only) and the distinctness rules,
  // explicit then Proposition 1, each direct then flipped.
  std::vector<RuleOrientation> key_rule_, identity_rules_, distinct_rules_;

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
