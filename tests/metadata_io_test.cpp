// Tests for the metadata file format: a complete cash-budget metadata file
// parses into a working pipeline, Serialize∘Parse is a fixed point, and
// malformed files produce named parse errors.

#include <gtest/gtest.h>

#include "core/metadata_io.h"
#include "core/pipeline.h"
#include "ocr/cash_budget.h"

namespace dart::core {
namespace {

const char* kCashBudgetMetadata = R"(
# DART acquisition metadata for cash-budget documents (Fig. 1).
domain Section: 'Receipts', 'Disbursements', 'Balance';
domain Subsection: 'beginning cash', 'cash sales', 'receivables',
  'total cash receipts', 'payment of accounts', 'capital expenditure',
  'long-term financing', 'total disbursements', 'net cash inflow',
  'ending cash balance';

specialize 'beginning cash' -> 'Receipts';
specialize 'cash sales' -> 'Receipts';
specialize 'receivables' -> 'Receipts';
specialize 'total cash receipts' -> 'Receipts';
specialize 'payment of accounts' -> 'Disbursements';
specialize 'capital expenditure' -> 'Disbursements';
specialize 'long-term financing' -> 'Disbursements';
specialize 'total disbursements' -> 'Disbursements';
specialize 'net cash inflow' -> 'Balance';
specialize 'ending cash balance' -> 'Balance';

pattern cash-budget-row:
  integer Year,
  domain Section as Section,
  domain Subsection as Subsection specializes Section,
  integer Value;

relation CashBudget(Year: int, Section: string, Subsection: string,
                    Type: string, Value: measure int):
  Year from Year,
  Section from Section,
  Subsection from Subsection,
  Type classify Subsection (
    'beginning cash' -> 'drv', 'cash sales' -> 'det',
    'receivables' -> 'det', 'total cash receipts' -> 'aggr',
    'payment of accounts' -> 'det', 'capital expenditure' -> 'det',
    'long-term financing' -> 'det', 'total disbursements' -> 'aggr',
    'net cash inflow' -> 'drv', 'ending cash balance' -> 'drv'),
  Value from Value
  for patterns cash-budget-row;

constraints:
agg chi1(x, y, z) := sum(Value) from CashBudget
    where Section = x and Year = y and Type = z;
agg chi2(x, y) := sum(Value) from CashBudget
    where Year = x and Subsection = y;
constraint c1: CashBudget(y, x, _, _, _)
    => chi1(x, y, 'det') - chi1(x, y, 'aggr') = 0;
constraint c2: CashBudget(x, _, _, _, _)
    => chi2(x, 'net cash inflow') - chi2(x, 'total cash receipts')
       + chi2(x, 'total disbursements') = 0;
constraint c3: CashBudget(x, _, _, _, _)
    => chi2(x, 'ending cash balance') - chi2(x, 'beginning cash')
       - chi2(x, 'net cash inflow') = 0;
end constraints
)";

TEST(MetadataIoTest, ParsesCompleteFile) {
  auto metadata = ParseMetadata(kCashBudgetMetadata);
  ASSERT_TRUE(metadata.ok()) << metadata.status().ToString();
  EXPECT_TRUE(metadata->catalog.HasDomain("Section"));
  EXPECT_TRUE(metadata->catalog.HasDomain("Subsection"));
  EXPECT_EQ(metadata->catalog.ItemsOf("Subsection")->size(), 10u);
  EXPECT_TRUE(
      metadata->catalog.IsSpecializationOf("cash sales", "Receipts"));
  ASSERT_EQ(metadata->patterns.size(), 1u);
  ASSERT_EQ(metadata->patterns[0].cells.size(), 4u);
  EXPECT_EQ(metadata->patterns[0].cells[2].specialization_of, 1u);
  ASSERT_EQ(metadata->mappings.size(), 1u);
  EXPECT_EQ(metadata->mappings[0].schema.ToString(),
            "CashBudget(Year:Int, Section:String, Subsection:String, "
            "Type:String, Value:Int*)");
  EXPECT_EQ(metadata->mappings[0].pattern_names.count("cash-budget-row"), 1u);
  EXPECT_NE(metadata->constraint_program.find("chi1"), std::string::npos);
}

TEST(MetadataIoTest, ParsedMetadataDrivesTheFullPipeline) {
  auto metadata = ParseMetadata(kCashBudgetMetadata);
  ASSERT_TRUE(metadata.ok());
  auto pipeline = DartPipeline::Create(std::move(metadata).value());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  auto acquired = ocr::CashBudgetFixture::PaperExample(true);
  ASSERT_TRUE(acquired.ok());
  auto outcome =
      pipeline->Submit(core::ProcessRequest::FromHtml(
          ocr::CashBudgetFixture::RenderHtml(*acquired)));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->repair.repair.cardinality(), 1u);
  EXPECT_EQ(outcome->repair.repair.updates()[0].new_value, rel::Value(220));
}

TEST(MetadataIoTest, SerializeParseIsAFixedPoint) {
  auto metadata = ParseMetadata(kCashBudgetMetadata);
  ASSERT_TRUE(metadata.ok());
  const std::string first = SerializeMetadata(*metadata);
  auto reparsed = ParseMetadata(first);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const std::string second = SerializeMetadata(*reparsed);
  EXPECT_EQ(first, second);
  // And the re-parsed bundle still builds a valid pipeline.
  EXPECT_TRUE(DartPipeline::Create(std::move(reparsed).value()).ok());
}

TEST(MetadataIoTest, ConstantSourcesRoundTrip) {
  const char* text = R"(
domain D: 'x';
pattern p: domain D as It, integer N;
relation R(Tag: string, N: measure int):
  Tag constant 'fixed',
  N from N;
constraints:
end constraints
)";
  auto metadata = ParseMetadata(text);
  ASSERT_TRUE(metadata.ok()) << metadata.status().ToString();
  ASSERT_EQ(metadata->mappings[0].sources[0].kind,
            dbgen::AttributeSource::Kind::kConstant);
  EXPECT_EQ(metadata->mappings[0].sources[0].constant_text, "fixed");
  auto reparsed = ParseMetadata(SerializeMetadata(*metadata));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

// A constraint section nesting 50,000 parentheses reaches the constraint
// parser through the metadata file and fails there with a ParseError.
TEST(MetadataIoTest, DeeplyNestedConstraintExpressionIsAParseError) {
  std::string text = kCashBudgetMetadata;
  const std::string nested =
      "agg deep(x) := sum(" + std::string(50000, '(') + "Value" +
      std::string(50000, ')') + ") from CashBudget where Year = x;\n";
  text.insert(text.find("end constraints"), nested);
  auto metadata = ParseMetadata(text);
  ASSERT_TRUE(metadata.ok()) << metadata.status().ToString();
  auto pipeline = DartPipeline::Create(std::move(metadata).value());
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kParseError);
  EXPECT_NE(pipeline.status().message().find("line"), std::string::npos);
}

TEST(MetadataIoTest, ErrorsAreNamed) {
  EXPECT_FALSE(ParseMetadata("domain ;").ok());
  EXPECT_FALSE(ParseMetadata("domain D: 'a'").ok());  // missing ';'
  EXPECT_FALSE(ParseMetadata("specialize 'a' -> 'b';").ok());  // unknown items
  EXPECT_FALSE(ParseMetadata("pattern p: integer;").ok());     // no headline
  EXPECT_FALSE(
      ParseMetadata("pattern p: domain D as H specializes Z, integer N;")
          .ok());  // forward specializes
  EXPECT_FALSE(ParseMetadata("constraints:\n").ok());  // unterminated block
  EXPECT_FALSE(
      ParseMetadata("relation R(A: int): B from H;\nconstraints:\nend "
                    "constraints")
          .ok());  // source names unknown attribute
  // Missing source for an attribute.
  Status status = ParseMetadata(
      "relation R(A: int, B: int): A from H;\nconstraints:\nend constraints")
                      .status();
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(MetadataIoTest, TablePositionsRoundTrip) {
  const char* text = R"(
domain D: 'x';
tables 0, 2;
pattern p: domain D as It, integer N;
relation R(Tag: string, N: measure int):
  Tag constant 'fixed',
  N from N;
constraints:
end constraints
)";
  auto metadata = ParseMetadata(text);
  ASSERT_TRUE(metadata.ok()) << metadata.status().ToString();
  EXPECT_EQ(metadata->table_positions, (std::set<size_t>{0, 2}));
  auto reparsed = ParseMetadata(SerializeMetadata(*metadata));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->table_positions, (std::set<size_t>{0, 2}));
  EXPECT_FALSE(ParseMetadata("tables -1;").ok());
  EXPECT_FALSE(ParseMetadata("tables x;").ok());
}

TEST(MetadataIoTest, DuplicateDomainRejected) {
  EXPECT_FALSE(ParseMetadata("domain D: 'a';\ndomain D: 'b';").ok());
}

}  // namespace
}  // namespace dart::core
