// Relation extension: R → R' (paper §4.2, step 1–2).
//
// "Extend relation R, to R', with attributes K_Ext−R and set the missing
// attribute values of each tuple to be NULL. … Apply the available ILFDs
// to derive the values for K_Ext−R for each R' tuple."
//
// The relation is first renamed into world attribute naming (so ILFDs,
// which are constraints on real-world entities, apply directly), then the
// missing extended-key columns are appended as NULL, then each tuple's
// missing values are derived. Derivations may also *overwrite nothing*:
// existing non-NULL values always win (the sources are assumed accurate,
// §3.1).

#ifndef EID_EID_EXTENSION_H_
#define EID_EID_EXTENSION_H_

#include <vector>

#include "eid/correspondence.h"
#include "eid/extended_key.h"
#include "exec/columnar_world.h"
#include "exec/stage_stats.h"
#include "exec/thread_pool.h"
#include "ilfd/derivation.h"

namespace eid {

/// Result of extending one relation.
struct ExtensionResult {
  /// R' — world naming, original attributes plus the added K_Ext−R
  /// columns, missing values derived where ILFDs allow.
  Relation extended;
  /// Per-row derivation provenance (rows parallel to extended.rows()),
  /// over the atoms of the IlfdSet extension ran with;
  /// traces.DerivationOf(i, ilfds) is row i's Derivation.
  Provenance traces;
  /// Names of columns that were added (K_Ext−R).
  std::vector<std::string> added_attributes;
};

/// Options for ExtendRelation.
struct ExtensionOptions {
  DerivationOptions derivation;
  /// Derive values for *every* missing world attribute any ILFD can
  /// produce, not only extended-key columns; the integrated table then
  /// carries the richer tuples. Default mirrors the paper: only K_Ext
  /// columns are added.
  bool derive_all = false;
  /// Parallelism for the per-tuple derivation loop. 0 resolves via
  /// EID_THREADS, then hardware concurrency (exec::ResolveThreads); 1 is
  /// the serial engine. Results are identical for every value.
  int threads = 0;
};

/// Builds R' from `relation` (one side of the match), in a columnar world
/// of its own.
Result<ExtensionResult> ExtendRelation(const Relation& relation, Side side,
                                       const AttributeCorrespondence& corr,
                                       const ExtendedKey& ext_key,
                                       const IlfdSet& ilfds,
                                       const ExtensionOptions& options = {});

/// Pool-sharing form used by the engine: the ILFD program is lowered
/// once (compile::DerivationProgram), per-tuple derivation is sharded
/// over `pool` (one ClosureEvaluator per worker; may be null for the
/// serial path), and stage counters are recorded into `stats` when
/// non-null. `options.threads` is ignored — the pool decides.
///
/// The session's columnar world drives the sweep (DESIGN.md §4g): source
/// cells are encoded once into the shared dictionary under the side's
/// base slot, closure seeds gather pre-encoded ids, renaming into world
/// naming is schema-only (no row copy), and on the clean path the
/// extended relation is assembled by AdoptRows after an id-level
/// re-validation (write types, key NULLs, key uniqueness over sorted id
/// keys) — falling back to the exact per-row
/// Insert replay the moment anything looks off, so diagnostics and error
/// precedence equal eid::reference::ExtendRelation's. The extended
/// relation's id columns are adopted into the side's extended slot for
/// the join and rule stages to reuse.
Result<ExtensionResult> ExtendRelation(const Relation& relation, Side side,
                                       const AttributeCorrespondence& corr,
                                       const ExtendedKey& ext_key,
                                       const IlfdSet& ilfds,
                                       const ExtensionOptions& options,
                                       exec::ThreadPool* pool,
                                       exec::StageStats* stats,
                                       exec::ColumnarWorld& columnar);

}  // namespace eid

#endif  // EID_EID_EXTENSION_H_
