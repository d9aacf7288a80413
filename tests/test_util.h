// Shared helpers for the eid test suites.

#ifndef EID_TESTS_TEST_UTIL_H_
#define EID_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ilfd/derivation.h"
#include "relational/relation.h"

namespace eid {
namespace testing {

/// Builds an all-string relation with an optional candidate key, failing
/// the test on any error.
inline Relation MakeRelation(
    const std::string& name, const std::vector<std::string>& attributes,
    const std::vector<std::string>& key,
    const std::vector<std::vector<std::string>>& rows) {
  Relation rel(name, Schema::OfStrings(attributes));
  if (!key.empty()) {
    Status st = rel.DeclareKey(key);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  for (const std::vector<std::string>& row : rows) {
    Status st = rel.InsertText(row);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return rel;
}

/// Expects two provenance CSRs over one atom table equal: per row the
/// steps (atom, ILFD) and their derived bits, then the conflicts. Names
/// the first row that differs.
inline void ExpectProvenanceEqual(const Provenance& a, const Provenance& b) {
  ASSERT_EQ(a.rows(), b.rows());
  for (size_t row = 0; row < a.rows(); ++row) {
    const size_t steps = a.row_end(row) - a.row_begin(row);
    ASSERT_EQ(steps, b.row_end(row) - b.row_begin(row)) << "row " << row;
    for (size_t k = 0; k < steps; ++k) {
      const size_t i = a.row_begin(row) + k;
      const size_t j = b.row_begin(row) + k;
      EXPECT_EQ(a.step(i).atom, b.step(j).atom) << "row " << row;
      EXPECT_EQ(a.step(i).ilfd, b.step(j).ilfd) << "row " << row;
      EXPECT_EQ(a.derived(i), b.derived(j)) << "row " << row;
    }
  }
  ASSERT_EQ(a.conflicts().size(), b.conflicts().size());
  for (size_t k = 0; k < a.conflicts().size(); ++k) {
    const Provenance::RowConflict& x = a.conflicts()[k];
    const Provenance::RowConflict& y = b.conflicts()[k];
    EXPECT_EQ(x.row, y.row);
    EXPECT_EQ(x.conflict.attribute, y.conflict.attribute) << "row " << x.row;
    EXPECT_EQ(x.conflict.first_value, y.conflict.first_value);
    EXPECT_EQ(x.conflict.second_value, y.conflict.second_value);
    EXPECT_EQ(x.conflict.first_ilfd, y.conflict.first_ilfd);
    EXPECT_EQ(x.conflict.second_ilfd, y.conflict.second_ilfd);
  }
  EXPECT_TRUE(a == b);
}

/// gtest-friendly OK assertion for Status.
#define EID_EXPECT_OK(expr)                              \
  do {                                                   \
    ::eid::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << _st.ToString();             \
  } while (0)

#define EID_ASSERT_OK(expr)                              \
  do {                                                   \
    ::eid::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << _st.ToString();             \
  } while (0)

/// Unwraps a Result<T>, failing the test on error. Usage:
///   EID_ASSERT_OK_AND_ASSIGN(auto rel, ReadCsv(...));
#define EID_ASSERT_OK_AND_ASSIGN(lhs, rexpr)                         \
  auto EID_CONCAT_(_res_, __LINE__) = (rexpr);                       \
  ASSERT_TRUE(EID_CONCAT_(_res_, __LINE__).ok())                     \
      << EID_CONCAT_(_res_, __LINE__).status().ToString();           \
  lhs = std::move(EID_CONCAT_(_res_, __LINE__)).value()

}  // namespace testing
}  // namespace eid

#endif  // EID_TESTS_TEST_UTIL_H_
