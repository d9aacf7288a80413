// PrototypeSession — a facade reproducing the paper's §6 Prolog prototype
// workflow:
//
//   1. list the candidate extended-key attributes (attributes common to
//      both source relations and asserted semantically equivalent);
//   2. `setup_extkey`: the user picks a subset; the session builds the
//      matching-table definition and *verifies* it — "The extended key is
//      verified." when no tuple matches more than one counterpart,
//      "The extended key causes unsound matching result." otherwise;
//   3. `print_matchtable` / `print_integ_table` / extended-table printers
//      in the prototype's column layout (r_*, s_* prefixes, `null` for
//      missing values).
//
// Derivation runs in kFirstMatch mode — the prototype's Prolog rules end
// with a cut, so the first applicable ILFD wins.

#ifndef EID_EID_SESSION_H_
#define EID_EID_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "eid/identifier.h"
#include "eid/integrate.h"

namespace eid {

/// Interactive-style driver over one (R, S) pair.
class PrototypeSession {
 public:
  PrototypeSession(Relation r, Relation s, AttributeCorrespondence corr,
                   IlfdSet ilfds);

  /// Candidate extended-key attributes (world names), in listing order.
  const std::vector<std::string>& candidates() const { return candidates_; }

  /// The prototype's candidate listing, e.g.
  ///   [0] name: (r_name,s_name)
  ///   [1] speciality: (r_speciality,s_speciality)
  std::string ListCandidates() const;

  /// `setup_extkey`: selects candidates by listing index, runs
  /// identification, and returns the prototype's verification message.
  Result<std::string> SetupExtendedKey(const std::vector<size_t>& picks);

  /// Whether the last SetupExtendedKey produced a sound (verified) result.
  /// Error status when no extended key has been set up yet.
  Result<bool> Verified() const;

  /// Table printers (prototype layout). Error before SetupExtendedKey.
  Result<std::string> PrintMatchingTable() const;
  Result<std::string> PrintIntegratedTable() const;
  Result<std::string> PrintExtendedR() const;
  Result<std::string> PrintExtendedS() const;

  /// The full identification result backing the printers.
  Result<const IdentificationResult*> result() const;

  /// Engine options forwarded into every SetupExtendedKey run (e.g.
  /// `threads`).
  /// The session always forces kFirstMatch derivation on top of these.
  MatcherOptions& matcher_options() { return matcher_options_; }
  const MatcherOptions& matcher_options() const { return matcher_options_; }

 private:
  Relation r_;
  Relation s_;
  AttributeCorrespondence corr_;
  IlfdSet ilfds_;
  std::vector<std::string> candidates_;
  MatcherOptions matcher_options_;
  std::optional<IdentificationResult> result_;
  std::optional<ExtendedKey> ext_key_;
};

}  // namespace eid

#endif  // EID_EID_SESSION_H_
