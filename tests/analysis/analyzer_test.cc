// The deliberately-defective-rule-program table: every diagnostic code the
// analyzer can emit has a minimal program that triggers exactly it, plus
// zero-diagnostics assertions over every shipped fixture and a generated
// workload, and the pre-flight a caller runs before identifying.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "eid.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace {

using analysis::AnalysisReport;
using analysis::AnalyzerOptions;
using analysis::AnalyzeRuleProgram;
using analysis::Diagnostic;
using analysis::RuleKind;
using analysis::Severity;

IlfdSet ParseIlfds(const std::string& text) {
  IlfdSet set;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    auto added = set.AddText(line);
    EID_CHECK(added.ok());
  }
  return set;
}

/// The Example 1 schema pair — R(name, street, cuisine), S(name, city,
/// manager) — with an identity correspondence; the playground most
/// defective programs below are built on.
struct Playground {
  Relation r = fixtures::Table1R();
  Relation s = fixtures::Table1S();
  IdentifierConfig config;

  Playground() {
    config.correspondence = AttributeCorrespondence::Identity(r, s);
  }

  AnalysisReport Analyze(const AnalyzerOptions& options = {}) const {
    return AnalyzeRuleProgram(r, s, config, options);
  }
};

Predicate Pred(Operand lhs, CompareOp op, Operand rhs) {
  Predicate p;
  p.lhs = std::move(lhs);
  p.op = op;
  p.rhs = std::move(rhs);
  return p;
}

// ---------------------------------------------------------------------
// Zero diagnostics on everything the repo ships.
// ---------------------------------------------------------------------

TEST(AnalyzerCleanTest, Example1ProgramIsClean) {
  Playground pg;
  pg.config.extended_key = fixtures::Example1ExtendedKey();
  pg.config.ilfds = fixtures::Example1Ilfds();
  AnalysisReport report = pg.Analyze();
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(AnalyzerCleanTest, Example2ProgramIsClean) {
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example2ExtendedKey();
  config.ilfds = fixtures::Example2Ilfds();
  AnalysisReport report = AnalyzeRuleProgram(r, s, config);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(AnalyzerCleanTest, Example3ProgramIsClean) {
  Relation r = fixtures::Example3R();
  Relation s = fixtures::Example3S();
  IdentifierConfig config;
  config.correspondence = AttributeCorrespondence::Identity(r, s);
  config.extended_key = fixtures::Example3ExtendedKey();
  config.ilfds = fixtures::Example3Ilfds();
  AnalysisReport report = AnalyzeRuleProgram(r, s, config);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(AnalyzerCleanTest, GeneratedWorkloadIsClean) {
  GeneratorConfig gen;
  gen.overlap_entities = 24;
  gen.r_only_entities = 8;
  gen.s_only_entities = 8;
  gen.street_pool = 32;
  gen.speciality_pool = 16;
  EID_ASSERT_OK_AND_ASSIGN(GeneratedWorld world, GenerateWorld(gen));
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  AnalysisReport report = AnalyzeRuleProgram(world.r, world.s, config);
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

// ---------------------------------------------------------------------
// (a) Schema checks.
// ---------------------------------------------------------------------

TEST(AnalyzerSchemaTest, DanglingIlfdAttributeIsE001) {
  Playground pg;
  pg.config.ilfds = ParseIlfds("streeet=Wash.Ave. -> city=Mpls");
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E001")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-E001")[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rule.kind, RuleKind::kIlfd);
  EXPECT_EQ(d->rule.index, 0u);
  EXPECT_NE(d->message.find("streeet"), std::string::npos);
  EXPECT_FALSE(d->hint.empty());
}

TEST(AnalyzerSchemaTest, DanglingCorrespondenceColumnIsE001) {
  Playground pg;
  AttributeMapping bogus;
  bogus.world = "phone";
  bogus.in_r = "phone_number";  // not a column of Table1R
  EID_ASSERT_OK(pg.config.correspondence.Add(bogus));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E001")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-E001")[0]->rule.kind,
            RuleKind::kCorrespondence);
}

TEST(AnalyzerSchemaTest, UnderivableExtendedKeyAttributeIsE001) {
  Playground pg;
  pg.config.extended_key = ExtendedKey({"name", "phone"});
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E001")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-E001")[0]->rule.kind,
            RuleKind::kExtendedKey);
}

TEST(AnalyzerSchemaTest, TypeMismatchedIlfdConditionIsE002) {
  Playground pg;
  // `name` is a string column; an integer condition can never hold.
  pg.config.ilfds.Add(
      Ilfd::Implies({Atom{"name", Value::Int(7)}},
                    Atom{"city", Value::Str("Mpls")}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E002")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-E002")[0]->rule.kind, RuleKind::kIlfd);
}

TEST(AnalyzerSchemaTest, TypeMismatchedPredicateIsE002) {
  Playground pg;
  pg.config.identity_rules.push_back(IdentityRule(
      "bad-type",
      {Pred(Operand::Attr(1, "name"), CompareOp::kEq,
            Operand::Attr(2, "name")),
       Pred(Operand::Attr(1, "name"), CompareOp::kEq,
            Operand::Const(Value::Int(7))),
       Pred(Operand::Attr(2, "name"), CompareOp::kEq,
            Operand::Const(Value::Int(7)))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E002")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-E002")[0]->rule.kind,
            RuleKind::kIdentityRule);
}

TEST(AnalyzerSchemaTest, NullComparingPredicateIsE002) {
  Playground pg;
  pg.config.distinctness_rules.push_back(DistinctnessRule(
      "null-compare",
      {Pred(Operand::Attr(1, "name"), CompareOp::kEq,
            Operand::Attr(2, "name")),
       Pred(Operand::Attr(1, "cuisine"), CompareOp::kNe,
            Operand::Const(Value::Null()))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E002")) << report.ToString();
}

TEST(AnalyzerSchemaTest, MalformedIdentityRuleIsE004) {
  Playground pg;
  // References `cuisine` on both entities without forcing them equal.
  pg.config.identity_rules.push_back(IdentityRule(
      "not-identity",
      {Pred(Operand::Attr(1, "name"), CompareOp::kEq,
            Operand::Attr(2, "name")),
       Pred(Operand::Attr(1, "cuisine"), CompareOp::kLt,
            Operand::Attr(2, "cuisine"))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E004")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-E004")[0];
  EXPECT_EQ(d->rule.kind, RuleKind::kIdentityRule);
  EXPECT_EQ(d->rule.display, "not-identity");
}

TEST(AnalyzerSchemaTest, MalformedDistinctnessRuleIsE005) {
  Playground pg;
  // Only entity 1 is referenced.
  pg.config.distinctness_rules.push_back(DistinctnessRule(
      "one-sided", {Pred(Operand::Attr(1, "cuisine"), CompareOp::kEq,
                         Operand::Const(Value::Str("Chinese")))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E005")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-E005")[0]->rule.kind,
            RuleKind::kDistinctnessRule);
}

// ---------------------------------------------------------------------
// (b) Closure checks.
// ---------------------------------------------------------------------

TEST(AnalyzerClosureTest, ContradictoryIlfdPairIsE003) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. -> city=Mpls\n"
      "manager=Hwang -> street=Wash.Ave.\n"
      "manager=Hwang -> city=St.Paul\n");
  AnalysisReport report = pg.Analyze();
  // Rule 2's antecedent closure holds city=Mpls (via rules 1+0) and
  // city=St.Paul (via itself).
  ASSERT_TRUE(report.HasCode("EID-E003")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-E003")[0];
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rule.kind, RuleKind::kIlfd);
  EXPECT_NE(d->message.find("city"), std::string::npos);
}

TEST(AnalyzerClosureTest, RedundantIlfdIsW002) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "manager=Hwang -> street=Wash.Ave.\n"
      "street=Wash.Ave. -> city=Mpls\n"
      "manager=Hwang -> city=Mpls\n");
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W002")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-W002")[0];
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->rule.index, 2u);  // the transitively-derivable rule
  EXPECT_FALSE(report.HasErrors());
}

TEST(AnalyzerClosureTest, TrivialIlfdIsW003) {
  Playground pg;
  pg.config.ilfds = ParseIlfds("street=Wash.Ave. -> street=Wash.Ave.");
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W003")) << report.ToString();
  // Trivial rules are excluded from the redundancy sweep.
  EXPECT_FALSE(report.HasCode("EID-W002"));
}

TEST(AnalyzerClosureTest, RuleLimitSkipsClosureWithN001) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. -> city=Mpls\n"
      "street=Wash.Ave. -> city=St.Paul\n");
  AnalyzerOptions options;
  options.closure_rule_limit = 1;
  AnalysisReport report = pg.Analyze(options);
  EXPECT_FALSE(report.HasCode("EID-E003")) << report.ToString();
  ASSERT_TRUE(report.HasCode("EID-N001"));
  EXPECT_EQ(report.WithCode("EID-N001")[0]->severity, Severity::kNote);
  // Raising the limit restores the contradiction report.
  options.closure_rule_limit = 2048;
  EXPECT_TRUE(pg.Analyze(options).HasCode("EID-E003"));
}

// ---------------------------------------------------------------------
// (c) Order checks (first-applicable-wins).
// ---------------------------------------------------------------------

TEST(AnalyzerOrderTest, ShadowedIlfdIsW001) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. -> city=Mpls\n"
      "cuisine=Chinese & street=Wash.Ave. -> city=Mpls\n");
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W001")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-W001")[0];
  EXPECT_EQ(d->rule.kind, RuleKind::kIlfd);
  EXPECT_EQ(d->rule.index, 1u);  // the later, more specific rule loses
  EXPECT_NE(d->message.find("ilfd#0"), std::string::npos);
}

TEST(AnalyzerOrderTest, UnconditionalIlfdIsW004) {
  Playground pg;
  pg.config.ilfds.Add(Ilfd({}, {Atom{"city", Value::Str("Mpls")}}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W004")) << report.ToString();
  // An unconditional rule also shadows every later rule for the same
  // attribute.
  IlfdSet with_default;
  with_default.Add(Ilfd({}, {Atom{"city", Value::Str("Mpls")}}));
  with_default.Add(Ilfd::Implies({Atom{"street", Value::Str("Wash.Ave.")}},
                                 Atom{"city", Value::Str("St.Paul")}));
  pg.config.ilfds = with_default;
  AnalyzerOptions order_only;
  order_only.closure_checks = false;  // the pair is also contradictory
  report = pg.Analyze(order_only);
  EXPECT_TRUE(report.HasCode("EID-W004")) << report.ToString();
  EXPECT_TRUE(report.HasCode("EID-W001")) << report.ToString();
}

// ---------------------------------------------------------------------
// (d) Blocking checks.
// ---------------------------------------------------------------------

TEST(AnalyzerBlockingTest, NoEqualityConjunctIsW005) {
  Playground pg;
  pg.config.distinctness_rules.push_back(DistinctnessRule(
      "scan-everything", {Pred(Operand::Attr(1, "name"), CompareOp::kNe,
                               Operand::Attr(2, "name"))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W005")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-W005")[0];
  EXPECT_EQ(d->rule.kind, RuleKind::kDistinctnessRule);
  EXPECT_NE(d->message.find("tiled"), std::string::npos);
}

TEST(AnalyzerBlockingTest, EqualityJoinRuleHasNoW005) {
  Playground pg;
  pg.config.identity_rules.push_back(IdentityRule(
      "join-on-name", {Pred(Operand::Attr(1, "name"), CompareOp::kEq,
                            Operand::Attr(2, "name"))}));
  AnalysisReport report = pg.Analyze();
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(AnalyzerBlockingTest, VacuousIdentityRuleIsW006) {
  Playground pg;
  pg.config.identity_rules.push_back(IdentityRule(
      "vacuous",
      {Pred(Operand::Attr(1, "name"), CompareOp::kEq,
            Operand::Attr(2, "name")),
       Pred(Operand::Attr(1, "name"), CompareOp::kEq,
            Operand::Const(Value::Str("VillageWok"))),
       Pred(Operand::Attr(2, "name"), CompareOp::kEq,
            Operand::Const(Value::Str("OldCountry")))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W006")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-W006")[0]->rule.kind,
            RuleKind::kIdentityRule);
}

TEST(AnalyzerBlockingTest, RuleDeadInBothOrientationsIsW006) {
  Playground pg;
  // cuisine exists only in R', manager only in S'; binding both to
  // entity 1 is impossible in either orientation.
  pg.config.distinctness_rules.push_back(DistinctnessRule(
      "never-fires",
      {Pred(Operand::Attr(1, "cuisine"), CompareOp::kEq,
            Operand::Const(Value::Str("Chinese"))),
       Pred(Operand::Attr(1, "manager"), CompareOp::kEq,
            Operand::Const(Value::Str("Hwang"))),
       Pred(Operand::Attr(1, "name"), CompareOp::kNe,
            Operand::Attr(2, "name"))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W006")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-W006")[0]->rule.kind,
            RuleKind::kDistinctnessRule);
}

TEST(AnalyzerBlockingTest, UnindexableRuleIsW009) {
  Playground pg;
  // No join and no constant filter in any orientation: the staged
  // generator has an empty blocking plan and degenerates to quadratic.
  pg.config.distinctness_rules.push_back(DistinctnessRule(
      "scan-everything", {Pred(Operand::Attr(1, "name"), CompareOp::kNe,
                               Operand::Attr(2, "name"))}));
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W009")) << report.ToString();
  const Diagnostic* d = report.WithCode("EID-W009")[0];
  EXPECT_EQ(d->rule.kind, RuleKind::kProgram);
  EXPECT_NE(d->message.find("distinctness-rule#0"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("quadratic"), std::string::npos) << d->message;
  EXPECT_NE(d->hint.find("equality conjunct"), std::string::npos) << d->hint;
}

TEST(AnalyzerBlockingTest, ConstFilteredRuleHasNoW009) {
  Playground pg;
  // No cross-entity join (W005 still applies) but a constant-equality
  // conjunct seeds a bucket — the plan is not empty, so no W009.
  pg.config.distinctness_rules.push_back(DistinctnessRule(
      "const-pruned", {Pred(Operand::Attr(1, "name"), CompareOp::kNe,
                            Operand::Attr(2, "name")),
                       Pred(Operand::Attr(1, "cuisine"), CompareOp::kEq,
                            Operand::Const(Value::Str("Chinese")))}));
  AnalysisReport report = pg.Analyze();
  EXPECT_TRUE(report.HasCode("EID-W005")) << report.ToString();
  EXPECT_FALSE(report.HasCode("EID-W009")) << report.ToString();
}

TEST(AnalyzerBlockingTest, JoinRuleHasNoW009) {
  Playground pg;
  pg.config.identity_rules.push_back(IdentityRule(
      "join-on-name", {Pred(Operand::Attr(1, "name"), CompareOp::kEq,
                            Operand::Attr(2, "name"))}));
  AnalysisReport report = pg.Analyze();
  EXPECT_FALSE(report.HasCode("EID-W009")) << report.ToString();
}

TEST(AnalyzerBlockingTest, IlfdDeadOnBothSidesIsW007) {
  Playground pg;
  // street lives only in R, manager only in S; no side has both.
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. & manager=Hwang -> city=Mpls");
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W007")) << report.ToString();
  EXPECT_FALSE(report.HasCode("EID-E001"));
}

TEST(AnalyzerBlockingTest, KeyAttributeMissingOnOneSideIsW008) {
  Playground pg;
  // manager is modeled only by S and no ILFD derives it: every R' tuple
  // has a NULL key column.
  pg.config.extended_key = ExtendedKey({"name", "manager"});
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-W008")) << report.ToString();
  EXPECT_EQ(report.WithCode("EID-W008")[0]->rule.kind,
            RuleKind::kExtendedKey);
  EXPECT_FALSE(report.HasErrors());
}

// ---------------------------------------------------------------------
// Report plumbing and the pre-flight.
// ---------------------------------------------------------------------

TEST(AnalyzerReportTest, ToStringCarriesCodeProvenanceAndSummary) {
  Playground pg;
  pg.config.ilfds = ParseIlfds("streeet=Wash.Ave. -> city=Mpls");
  AnalysisReport report = pg.Analyze();
  std::string text = report.ToString();
  EXPECT_NE(text.find("EID-E001"), std::string::npos) << text;
  EXPECT_NE(text.find("ilfd#0"), std::string::npos) << text;
  EXPECT_NE(text.find("error(s)"), std::string::npos) << text;
  EXPECT_EQ(report.ErrorCount(), 1u);
  EXPECT_EQ(report.WarningCount(), 0u);
}

// ---------------------------------------------------------------------
// SARIF export (the eid-lint --sarif surface).
// ---------------------------------------------------------------------

TEST(AnalyzerSarifTest, CleanReportIsAnEmptyValidRun) {
  Playground pg;
  pg.config.extended_key = fixtures::Example1ExtendedKey();
  pg.config.ilfds = fixtures::Example1Ilfds();
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.Clean()) << report.ToString();
  std::string sarif = analysis::ToSarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("\"name\": \"eid-lint\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("\"rules\": []"), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos) << sarif;
}

TEST(AnalyzerSarifTest, ErrorBecomesResultWithRuleAndProvenance) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. -> city=Mpls\n"
      "street=Wash.Ave. -> city=St.Paul\n");
  AnalysisReport report = pg.Analyze();
  ASSERT_TRUE(report.HasCode("EID-E003")) << report.ToString();
  std::string sarif = analysis::ToSarif(report, "9.9.9");
  // The code is declared once as a reportingDescriptor...
  EXPECT_NE(sarif.find("{\"id\": \"EID-E003\""), std::string::npos) << sarif;
  // ...and referenced by every result, with severity mapped to level.
  EXPECT_NE(sarif.find("\"ruleId\": \"EID-E003\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  // Rule provenance (ilfd#N plus display text) rides in logicalLocations.
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"ilfd#"), std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"kind\": \"ilfd\""), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"9.9.9\""), std::string::npos);
}

TEST(AnalyzerSarifTest, RepeatedCodesShareOneReportingDescriptor) {
  AnalysisReport report;
  for (int i = 0; i < 2; ++i) {
    Diagnostic d;
    d.code = "EID-W001";
    d.severity = Severity::kWarning;
    d.rule.kind = RuleKind::kIlfd;
    d.rule.index = static_cast<size_t>(i);
    d.message = "shadowed";
    report.diagnostics.push_back(d);
  }
  Diagnostic other;
  other.code = "EID-W005";
  other.severity = Severity::kWarning;
  other.rule.kind = RuleKind::kIdentityRule;
  other.message = "no equality conjunct";
  report.diagnostics.push_back(other);
  std::string sarif = analysis::ToSarif(report);
  // Two distinct codes -> exactly two rule declarations.
  size_t first = sarif.find("{\"id\": \"EID-W001\"");
  ASSERT_NE(first, std::string::npos) << sarif;
  EXPECT_EQ(sarif.find("{\"id\": \"EID-W001\"", first + 1), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"EID-W005\""), std::string::npos);
  // Both W001 results reference descriptor 0; W005 references 1.
  EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
}

TEST(AnalyzerSarifTest, HintLandsInPropertiesAndStringsAreEscaped) {
  AnalysisReport report;
  Diagnostic d;
  d.code = "EID-E001";
  d.severity = Severity::kError;
  d.rule.kind = RuleKind::kIlfd;
  d.rule.display = "say \"hi\"";
  d.message = "line one\nline two";
  d.hint = "drop the \\ backslash";
  report.diagnostics.push_back(d);
  std::string sarif = analysis::ToSarif(report);
  EXPECT_NE(sarif.find("say \\\"hi\\\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("line one\\nline two"), std::string::npos);
  EXPECT_NE(sarif.find("\"properties\": {\"hint\": \"drop the \\\\ backslash\"}"),
            std::string::npos)
      << sarif;
}

TEST(AnalyzerPreflightTest, PreflightCheckFailsOnErrors) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. -> city=Mpls\n"
      "street=Wash.Ave. -> city=St.Paul\n");
  const Status status =
      analysis::PreflightCheck(pg.r.schema(), pg.s.schema(), pg.config);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("EID-E003"), std::string::npos)
      << status.message();
}

TEST(AnalyzerPreflightTest, PreflightCheckPassesWithWarningsOnly) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "street=Wash.Ave. -> city=Mpls\n"
      "cuisine=Chinese & street=Wash.Ave. -> city=Mpls\n");  // W001+W002 only
  pg.config.extended_key = fixtures::Example1ExtendedKey();
  const AnalysisReport report = pg.Analyze();
  EXPECT_FALSE(report.diagnostics.empty());
  EXPECT_FALSE(report.HasErrors());
  EID_EXPECT_OK(
      analysis::PreflightCheck(pg.r.schema(), pg.s.schema(), pg.config));
}

TEST(AnalyzerOptionsTest, FamiliesCanBeDisabledIndependently) {
  Playground pg;
  pg.config.ilfds = ParseIlfds(
      "streeet=Wash.Ave. -> city=Mpls\n"      // E001 (schema)
      "street=Wash.Ave. -> city=Mpls\n"
      "street=Wash.Ave. -> city=St.Paul\n");  // E003 (closure), W001 (order)
  AnalyzerOptions only_schema;
  only_schema.closure_checks = false;
  only_schema.order_checks = false;
  only_schema.blocking_checks = false;
  AnalysisReport report = pg.Analyze(only_schema);
  EXPECT_TRUE(report.HasCode("EID-E001"));
  EXPECT_FALSE(report.HasCode("EID-E003"));
  EXPECT_FALSE(report.HasCode("EID-W001"));

  AnalyzerOptions no_schema;
  no_schema.schema_checks = false;
  report = pg.Analyze(no_schema);
  EXPECT_FALSE(report.HasCode("EID-E001"));
  EXPECT_TRUE(report.HasCode("EID-E003"));
  EXPECT_TRUE(report.HasCode("EID-W001"));
}

}  // namespace
}  // namespace eid
