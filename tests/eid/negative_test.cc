#include "eid/negative.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "../test_util.h"
#include "eid/identifier.h"
#include "workload/fixtures.h"
#include "workload/generator.h"

namespace eid {
namespace {

using ::eid::testing::MakeRelation;

TEST(NegativeTest, PaperTable4FromProposition1Rule) {
  // Example 2 + Proposition 1: the Mughalai ILFD's induced rule certifies
  // that S's (TwinCities, Mughalai) is distinct from R's
  // (TwinCities, Chinese) — the NMT of Table 4.
  EID_ASSERT_OK_AND_ASSIGN(Ilfd ilfd,
                           ParseIlfd("speciality=Mughalai -> cuisine=Indian"));
  EID_ASSERT_OK_AND_ASSIGN(DistinctnessRule induced,
                           DistinctnessRuleFromIlfd(ilfd));
  // The induced rule reads e1.speciality; for the R,S pair it fires in the
  // flipped orientation (e1 := S tuple), which the builder tries too.
  Relation r = fixtures::Example2R();
  Relation s = fixtures::Example2S();
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {induced}));
  ASSERT_EQ(out.table.size(), 1u);
  EXPECT_EQ(out.table.pairs()[0], (TuplePair{0, 0}));
  std::optional<NegativePairEvidence> evidence =
      out.table.EvidenceFor(TuplePair{0, 0});
  ASSERT_TRUE(evidence.has_value());
  EXPECT_EQ(evidence->rule_index, 0u);
  EXPECT_TRUE(evidence->flipped);
  // Rule 0, flipped.
  EXPECT_EQ(out.table.certificates(), std::vector<uint32_t>{1u});
  EXPECT_FALSE(out.table.EvidenceFor(TuplePair{0, 1}).has_value());
}

TEST(NegativeTest, InvalidRuleFailsBuild) {
  Relation r = MakeRelation("R", {"a"}, {}, {{"1"}});
  Relation s = MakeRelation("S", {"a"}, {}, {{"1"}});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule one_sided,
      ParseDistinctnessRule("bad", "e1.a = \"1\""));
  EXPECT_FALSE(BuildNegativeMatchingTable(r, s, {one_sided}).ok());
}

TEST(NegativeTest, MultiplePairsAndNoUniquenessConstraint) {
  // One R tuple may be distinct from many S tuples.
  Relation r = MakeRelation("R", {"cuisine"}, {}, {{"Greek"}});
  Relation s = MakeRelation("S", {"speciality"}, {},
                            {{"Mughalai"}, {"Mughalai2"}});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule,
      ParseDistinctnessRule(
          "r", "e2.speciality != \"nothing\" & e1.cuisine = \"Greek\""));
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {rule}));
  EXPECT_EQ(out.table.size(), 2u);
}

TEST(NegativeTest, FirstRuleGetsCredit) {
  Relation r = MakeRelation("R", {"a"}, {}, {{"1"}});
  Relation s = MakeRelation("S", {"b"}, {}, {{"2"}});
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule1,
      ParseDistinctnessRule("r1", "e1.a = \"1\" & e2.b = \"2\""));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule2,
      ParseDistinctnessRule("r2", "e1.a != \"9\" & e2.b != \"9\""));
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {rule1, rule2}));
  ASSERT_EQ(out.table.size(), 1u);
  const std::vector<uint32_t> certificates = out.table.certificates();
  ASSERT_EQ(certificates.size(), 1u);
  EXPECT_EQ(NegativePairEvidence::FromCertificate(certificates[0]).rule_index,
            0u);
}

TEST(NegativeTest, UnknownPredicatesDoNotCertify) {
  Relation r = MakeRelation("R", {"a"}, {}, {{"1"}});
  Relation s("S", Schema::OfStrings({"b"}));
  EID_EXPECT_OK(s.Insert(Row{Value::Null()}));
  EID_ASSERT_OK_AND_ASSIGN(
      DistinctnessRule rule,
      ParseDistinctnessRule("r", "e1.a = \"1\" & e2.b != \"2\""));
  EID_ASSERT_OK_AND_ASSIGN(NegativeResult out,
                           BuildNegativeMatchingTable(r, s, {rule}));
  EXPECT_EQ(out.table.size(), 0u);  // NULL → unknown → no certificate
}

TEST(NegativeTest, AdoptRefusesRowListsOutOfOrderOrRange) {
  // The guard on the sweep's output: a stored row list out of row-major
  // order or beyond S is an engine defect, reported as Internal; well-
  // formed rows are adopted whole.
  exec::FiredRows swapped;
  swapped.pairs = {{1, 0}, {0, 2}};
  swapped.priorities = {0, 1};
  swapped.complement.s_count = 3;
  exec::FiredRows beyond;
  beyond.complement = exec::ComplementRows{3, {0}, {1}, {3}};
  beyond.certificates.fired_end = {0};
  beyond.certificates.exceptions_end = {0};
  for (exec::FiredRows* rows : {&swapped, &beyond}) {
    const Status status = NegativeTable::FromRows(std::move(*rows)).status();
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_EQ(status.message(),
              "distinctness sweep emitted pairs out of row-major order");
  }
  exec::FiredRows fine;
  fine.pairs = {{0, 2}, {1, 0}};
  fine.priorities = {3, 1};
  fine.complement.s_count = 3;
  EID_ASSERT_OK_AND_ASSIGN(NegativeTable out,
                           NegativeTable::FromRows(std::move(fine)));
  EXPECT_EQ(out.pairs(), (std::vector<TuplePair>{{0, 2}, {1, 0}}));
  EXPECT_EQ(out.certificates(), (std::vector<uint32_t>{3, 1}));
}

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
/// The child's side of ColumnNotEqualRuleIdentifiesUnderAnAddressLimit:
/// caps its address space at its current size plus 1.5 GB, identifies,
/// and exits 0 when the NMT has the size the name histograms give.
[[noreturn]] void IdentifyNameInequalityUnderLimit(
    const GeneratedWorld& world) {
  long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t limit = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                       (rlim_t{3} << 29);
  const rlimit cap{limit, limit};
  if (pages <= 0 || setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(3);
  IdentifierConfig config;
  config.correspondence = world.correspondence;
  config.extended_key = world.extended_key;
  config.ilfds = world.ilfds;
  config.distinctness_from_ilfds = false;
  config.matcher_options.threads = 1;
  Result<DistinctnessRule> rule =
      ParseDistinctnessRule("other_name", "e1.name != e2.name");
  if (!rule.ok()) std::_Exit(4);
  config.distinctness_rules.push_back(*rule);
  Result<IdentificationResult> result =
      EntityIdentifier(config).Identify(world.r, world.s);
  if (!result.ok()) std::_Exit(1);
  // Pairs with both names non-NULL and different: per R' row, the S'
  // rows with a non-NULL name minus those with its own.
  const Relation& r = result->r_extended;
  const Relation& s = result->s_extended;
  const size_t r_name = *r.schema().IndexOf("name");
  const size_t s_name = *s.schema().IndexOf("name");
  std::unordered_map<std::string, size_t> s_names;
  size_t s_non_null = 0;
  for (const Row& row : s.rows()) {
    if (row[s_name].is_null()) continue;
    ++s_non_null;
    ++s_names[row[s_name].ToString()];
  }
  size_t want = 0;
  for (const Row& row : r.rows()) {
    if (row[r_name].is_null()) continue;
    auto it = s_names.find(row[r_name].ToString());
    want += s_non_null - (it == s_names.end() ? 0 : it->second);
  }
  std::_Exit(result->negative.table.size() == want ? 0 : 2);
}
#endif

TEST(NegativeTest, ColumnNotEqualRuleIdentifiesUnderAnAddressLimit) {
  // `e1.name != e2.name` over 16,384 rows per side certifies about 268M
  // pairs, 3.2 GB at 12 B a pair if each were written. Each row stores
  // its complement instead, so Identify returns OK within 1.5 GB more
  // address space than the process already has. Exit codes: 1 Identify
  // failed, 2 wrong NMT size, 3 no limit set; a signal means it aborted.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizers reserve shadow address space";
#else
  GeneratorConfig gen;
  gen.seed = 5;
  gen.overlap_entities = 8192;
  gen.r_only_entities = 8192;
  gen.s_only_entities = 8192;
  gen.name_pool = 32768;
  gen.street_pool = 49152;
  gen.cities = 32;
  gen.speciality_pool = 128;
  gen.cuisines = 16;
  EID_ASSERT_OK_AND_ASSIGN(GeneratedWorld world, GenerateWorld(gen));
  ASSERT_EQ(world.r.size(), 16384u);
  ASSERT_EQ(world.s.size(), 16384u);
  ::testing::FLAGS_gtest_death_test_style = "fast";
  EXPECT_EXIT(IdentifyNameInequalityUnderLimit(world),
              ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace eid
