// Paper-literal reference implementation of R', S', MT_RS and NMT_RS.
//
// The production engine (eid/extension.h, eid/matcher.h, eid/negative.h,
// eid/identifier.h) computes these tables through compiled derivation
// programs, the session's columnar world, posting-index blocking, staged
// candidate generation and a thread pool. This module computes them the
// way paper §3.2 and §4.2 define them, and shares none of that machinery:
//
//   * extension renames the schema into world naming, appends the K_Ext
//     columns as NULL and runs DeriveTuple and Relation::Insert per row,
//     packing each row's Derivation into the result's Provenance;
//   * MT_RS is a hash join on string fingerprints of the extended key,
//     non-NULL-equal on every key attribute, pairs r-major and s
//     ascending, followed by the identity rules over every pair of
//     R' x S' in row-major order;
//   * NMT_RS evaluates every distinctness rule, both orientations, over
//     every pair of R' x S'; the first (rule, orientation) whose
//     antecedent is kTrue certifies the pair.
//
// It uses no columnar world, no blocking plan, no compiled code and no
// threads, so it costs O(|R|·|S|·rules). It honours every option that can
// change a result or an error: derivation mode and conflict policy,
// derive_all, distinctness_from_ilfds, fail_on_uniqueness_violation and
// the analyze pre-flight. Options that only change speed (threads,
// columnar_seeds) are ignored. Production must equal it bit for bit —
// rows, derivation traces, pair order, certificates, verdicts and error
// statuses; tests and the engine-comparison benches call it directly, and
// no option selects it.

#ifndef EID_EID_REFERENCE_H_
#define EID_EID_REFERENCE_H_

#include "eid/identifier.h"

namespace eid {
namespace reference {

/// R -> R' (paper §4.2 steps 1-2), one row at a time.
Result<ExtensionResult> ExtendRelation(const Relation& relation, Side side,
                                       const AttributeCorrespondence& corr,
                                       const ExtendedKey& ext_key,
                                       const IlfdSet& ilfds,
                                       const ExtensionOptions& options = {});

/// Both extensions, then the string-fingerprint extended-key join. The
/// result's `stats` is empty.
Result<MatcherResult> BuildMatchingTable(const Relation& r, const Relation& s,
                                         const AttributeCorrespondence& corr,
                                         const ExtendedKey& ext_key,
                                         const IlfdSet& ilfds,
                                         const MatcherOptions& options = {});

/// The full identification process of EntityIdentifier::Identify, by
/// nested loops over R' x S'. The result's `stats` are empty.
Result<IdentificationResult> Identify(const IdentifierConfig& config,
                                      const Relation& r, const Relation& s);

}  // namespace reference
}  // namespace eid

#endif  // EID_EID_REFERENCE_H_
