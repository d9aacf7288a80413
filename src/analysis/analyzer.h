// Static verification of ILFD rule programs — eid-lint's engine.
//
// The paper's correctness story rests on properties of the rule set that
// are checkable *before* any tuple is touched: Armstrong-style closure of
// the ILFDs (Propositions 1–2, Theorem 1) and the prototype's "first
// applicable ILFD wins" derivation order. RuleProgramAnalyzer takes the
// schema pair plus a full identification configuration (correspondence,
// extended key, ILFDs, identity and distinctness rules) and, without
// executing, reports diagnostics in four families:
//
//   (a) schema checks   — conditions referencing attributes absent from
//       R/S/the extended relations; type-incompatible or NULL-comparing
//       equality conjuncts; correspondence names missing from a schema.
//   (b) closure checks  — the FD-style closure under Armstrong's axioms
//       flags ILFD sets that are contradictory (some rule's antecedent
//       derives A=a and A=a' with a ≠ a'), redundant (a rule derivable
//       from the rest) or trivial.
//   (c) order checks    — rules unreachable or shadowed under the Prolog
//       prototype's first-applicable-wins derivation (a later rule whose
//       antecedent is subsumed by an earlier rule's), and unconditional
//       rules after which the §6.2 NULL default can never fire.
//   (d) blocking checks — identity/distinctness rules with no equality
//       conjunct, which force the exec layer's O(|R'|·|S'|) tiled-scan
//       fallback instead of an index probe (see exec/blocking_index.h).
//
// Consumers: the `eid-lint` CLI (examples/eid_lint.cpp), a caller's
// pre-flight before identifying (PreflightCheck below), the bench harness
// (bench_util.h validates generated workloads at startup) and tests.

#ifndef EID_ANALYSIS_ANALYZER_H_
#define EID_ANALYSIS_ANALYZER_H_

#include "analysis/diagnostic.h"
#include "eid/identifier.h"
#include "relational/schema.h"

namespace eid {
namespace analysis {

/// Which check families to run, plus cost bounds.
struct AnalyzerOptions {
  bool schema_checks = true;
  bool closure_checks = true;
  bool order_checks = true;
  bool blocking_checks = true;
  /// Closure-based checks (contradiction, redundancy) cost one closure
  /// computation per ILFD — quadratic in the rule-set size overall. Above
  /// this many ILFDs they are skipped and an EID-N001 note records the
  /// skip, so huge generated rule sets still lint in linear time.
  size_t closure_rule_limit = 2048;
};

/// Analyzes one rule program against a schema pair. The config is
/// borrowed for the analyzer's lifetime; Analyze() does not mutate it.
class RuleProgramAnalyzer {
 public:
  RuleProgramAnalyzer(Schema r_schema, Schema s_schema,
                      const IdentifierConfig* config,
                      AnalyzerOptions options = {});

  /// Runs every enabled check family; diagnostics appear in family order
  /// (schema, closure, order, blocking) and rule order within a family.
  [[nodiscard]] AnalysisReport Analyze() const;

 private:
  Schema r_schema_;
  Schema s_schema_;
  const IdentifierConfig* config_;
  AnalyzerOptions options_;
};

/// Convenience wrapper over schemas. [[nodiscard]]: an unread report is
/// a lint run that verified nothing.
[[nodiscard]] AnalysisReport AnalyzeRuleProgram(
    const Schema& r_schema, const Schema& s_schema,
    const IdentifierConfig& config, const AnalyzerOptions& options = {});

/// Convenience wrapper over relations (analyzes their schemas only —
/// tuple data never participates).
[[nodiscard]] AnalysisReport AnalyzeRuleProgram(
    const Relation& r, const Relation& s, const IdentifierConfig& config,
    const AnalyzerOptions& options = {});

/// The pre-flight a caller runs before identifying: OK when the program
/// has no error-severity diagnostics, FailedPrecondition carrying the
/// full report text otherwise. Warnings never fail the pre-flight.
Status PreflightCheck(const Schema& r_schema, const Schema& s_schema,
                      const IdentifierConfig& config);

}  // namespace analysis
}  // namespace eid

#endif  // EID_ANALYSIS_ANALYZER_H_
