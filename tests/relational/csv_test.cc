#include "relational/csv.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace eid {
namespace {

TEST(CsvTest, ParsesSimpleRecords) {
  EID_ASSERT_OK_AND_ASSIGN(auto records, ParseCsv("a,b\n1,2\n"));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(records[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, HandlesMissingTrailingNewline) {
  EID_ASSERT_OK_AND_ASSIGN(auto records, ParseCsv("a,b\n1,2"));
  ASSERT_EQ(records.size(), 2u);
}

TEST(CsvTest, QuotedFieldsWithSeparatorsAndQuotes) {
  EID_ASSERT_OK_AND_ASSIGN(auto records,
                           ParseCsv("name,notes\n\"Wok, The\",\"said \"\"hi\"\"\"\n"));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1][0], "Wok, The");
  EXPECT_EQ(records[1][1], "said \"hi\"");
}

TEST(CsvTest, QuotedNewlines) {
  EID_ASSERT_OK_AND_ASSIGN(auto records, ParseCsv("a\n\"x\ny\"\n"));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1][0], "x\ny");
}

TEST(CsvTest, CrlfEndings) {
  EID_ASSERT_OK_AND_ASSIGN(auto records, ParseCsv("a,b\r\n1,2\r\n"));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1][1], "2");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(CsvTest, QuoteInsideUnquotedFieldFails) {
  EXPECT_FALSE(ParseCsv("a\nval\"ue\n").ok());
}

TEST(CsvTest, ReadCsvBuildsStringRelation) {
  EID_ASSERT_OK_AND_ASSIGN(Relation rel,
                           ReadCsv("name,city\nWok,Mpls\n", "R"));
  EXPECT_EQ(rel.name(), "R");
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.tuple(0).GetOrNull("city").AsString(), "Mpls");
}

TEST(CsvTest, EmptyAndNullFieldsBecomeNull) {
  EID_ASSERT_OK_AND_ASSIGN(Relation rel, ReadCsv("a,b\n,null\n", "R"));
  EXPECT_TRUE(rel.row(0)[0].is_null());
  EXPECT_TRUE(rel.row(0)[1].is_null());
}

TEST(CsvTest, ReadCsvTypedParsesAndValidatesHeader) {
  Schema schema({Attribute{"id", ValueType::kInt},
                 Attribute{"name", ValueType::kString}});
  EID_ASSERT_OK_AND_ASSIGN(Relation rel,
                           ReadCsvTyped("id,name\n7,Wok\n", "R", schema));
  EXPECT_EQ(rel.row(0)[0].AsInt(), 7);
  EXPECT_FALSE(ReadCsvTyped("name,id\nWok,7\n", "R", schema).ok());
}

TEST(CsvTest, FieldCountMismatchFails) {
  EXPECT_FALSE(ReadCsv("a,b\n1\n", "R").ok());
}

TEST(CsvTest, DuplicateHeaderNameFails) {
  Result<Relation> rel = ReadCsv("name,city,name\nA,B,C\n", "R");
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rel.status().message().find("column 3 repeats the name 'name'"),
            std::string::npos)
      << rel.status().ToString();
}

TEST(CsvTest, EmptyHeaderNameFails) {
  Result<Relation> rel = ReadCsv("name,,city\nA,B,C\n", "R");
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rel.status().message().find("column 2 has an empty name"),
            std::string::npos)
      << rel.status().ToString();
}

TEST(CsvTest, RoundTripsThroughWriteCsv) {
  EID_ASSERT_OK_AND_ASSIGN(
      Relation rel,
      ReadCsv("name,notes\n\"Wok, The\",plain\nnull,\"multi\nline\"\n", "R"));
  std::string text = WriteCsv(rel);
  EID_ASSERT_OK_AND_ASSIGN(Relation back, ReadCsv(text, "R"));
  EXPECT_TRUE(rel.RowsEqualUnordered(back));
}

TEST(CsvTest, CustomSeparator) {
  EID_ASSERT_OK_AND_ASSIGN(Relation rel, ReadCsv("a;b\n1;2\n", "R", ';'));
  EXPECT_EQ(rel.row(0)[1].AsString(), "2");
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/x.csv", "R").status().code(),
            StatusCode::kNotFound);
}

TEST(CsvTest, FileRoundTrip) {
  EID_ASSERT_OK_AND_ASSIGN(Relation rel, ReadCsv("a,b\n1,2\n", "R"));
  std::string path = ::testing::TempDir() + "/eid_csv_test.csv";
  EID_EXPECT_OK(WriteCsvFile(rel, path));
  EID_ASSERT_OK_AND_ASSIGN(Relation back, ReadCsvFile(path, "R"));
  EXPECT_TRUE(rel.RowsEqualUnordered(back));
}

}  // namespace
}  // namespace eid
