#pragma once

// Seeded input generation for the benchmark: documents of the three DART
// domains (cash budgets, product catalogs, expense reports) with their
// ground truth, and the serialized acquisition metadata of each domain.
// The program under test only ever sees what these functions render.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "acquire/positional.h"
#include "core/metadata_io.h"
#include "core/pipeline.h"
#include "ocr/cash_budget.h"
#include "ocr/catalog.h"
#include "ocr/expense.h"
#include "ocr/noise.h"
#include "relational/database.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using dart::Result;
using dart::Status;
namespace rel = dart::rel;
namespace ocr = dart::ocr;

enum class Domain { kBudget, kCatalog, kExpense };

/// One generated document and everything the output checks need.
struct Doc {
  Domain domain = Domain::kBudget;
  /// The consistent source the document was drawn from.
  rel::Database truth;
  /// The values as rendered into the document: `truth` with the injected
  /// digit errors (or OCR number noise) applied.
  rel::Database rendered;
  /// Measure values whose rendered value differs from the truth.
  size_t injected = 0;
  std::string html;
  std::optional<dart::acquire::PositionalDocument> scan;
  /// Per rendered row (relation order): true when no text noise touched the
  /// row's Section or Subsection, so its acquired cells are fully checkable.
  std::vector<char> text_clean;
};

/// splitmix64: decorrelates (seed, stream, index) into one generator seed, so
/// document i of a workload is the same whatever else the run did.
inline uint64_t DocSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               index * 0x94D049BB133111EBULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

template <typename T>
T Must(Result<T> result, const char* what) {
  DART_CHECK_MSG(result.ok(), std::string(what) + ": " +
                                  result.status().ToString());
  return std::move(result).value();
}

inline rel::Database RandomTruth(Domain domain, int size, dart::Rng* rng) {
  switch (domain) {
    case Domain::kBudget: {
      ocr::CashBudgetOptions options;
      options.num_years = size;
      return Must(ocr::CashBudgetFixture::Random(options, rng), "budget");
    }
    case Domain::kCatalog:
      return Must(ocr::CatalogFixture::Random({}, rng), "catalog");
    case Domain::kExpense:
      return Must(ocr::ExpenseFixture::Random({}, rng), "expense");
  }
  return {};
}

inline std::string RenderHtml(Domain domain, const rel::Database& db) {
  switch (domain) {
    case Domain::kBudget: return ocr::CashBudgetFixture::RenderHtml(db);
    case Domain::kCatalog: return ocr::CatalogFixture::RenderHtml(db);
    case Domain::kExpense: return ocr::ExpenseFixture::RenderHtml(db);
  }
  return {};
}

/// An HTML document with exactly `errors` digit errors injected into its
/// measure cells (`size` = years for cash budgets, ignored otherwise).
inline Doc MakeHtmlDoc(Domain domain, int size, size_t errors, uint64_t seed) {
  dart::Rng rng(seed);
  Doc doc;
  doc.domain = domain;
  doc.truth = RandomTruth(domain, size, &rng);
  doc.rendered = doc.truth.Clone();
  doc.injected =
      Must(ocr::InjectMeasureErrors(&doc.rendered, errors, &rng), "inject")
          .size();
  doc.html = RenderHtml(domain, doc.rendered);
  doc.text_clean.assign(doc.rendered.relations().front().size(), 1);
  return doc;
}

/// A scanned cash budget: positional scanner output with OCR noise on
/// numbers and on Section/Subsection text. The rendered values and the
/// per-row text flags are recovered by comparing the noisy scan with a clean
/// render of the same truth box by box (the renderer emits boxes in the same
/// order either way).
inline Doc MakeScannedBudget(int years, uint64_t seed) {
  namespace acq = dart::acquire;
  dart::Rng rng(seed);
  Doc doc;
  doc.domain = Domain::kBudget;
  doc.truth = RandomTruth(Domain::kBudget, years, &rng);
  ocr::NoiseModel noise({/*number_error_prob=*/0.10,
                         /*string_error_prob=*/0.10, /*max_digit_errors=*/1,
                         /*max_char_errors=*/1},
                        &rng);
  acq::PositionalDocument scan =
      ocr::CashBudgetFixture::RenderPositional(doc.truth, &noise);
  const acq::PositionalDocument clean =
      ocr::CashBudgetFixture::RenderPositional(doc.truth);
  const std::vector<acq::TextBox>& noisy_boxes = scan.pages.at(0).boxes;
  const std::vector<acq::TextBox>& clean_boxes = clean.pages.at(0).boxes;
  DART_CHECK(noisy_boxes.size() == clean_boxes.size());

  // Rows in render order: grouped by year ascending, relation order inside.
  const rel::Relation& relation = doc.truth.relations().front();
  std::vector<size_t> render_order;
  std::vector<int64_t> years_seen;
  for (size_t i = 0; i < relation.size(); ++i) {
    years_seen.push_back(relation.At(i, 0).AsInt());
  }
  std::sort(years_seen.begin(), years_seen.end());
  years_seen.erase(std::unique(years_seen.begin(), years_seen.end()),
                   years_seen.end());
  for (int64_t year : years_seen) {
    for (size_t i = 0; i < relation.size(); ++i) {
      if (relation.At(i, 0).AsInt() == year) render_order.push_back(i);
    }
  }

  // Section boxes (dirty or not) by vertical extent; subsection and value
  // boxes come one per row, in render order.
  struct Band {
    double top, bottom;
    bool dirty;
  };
  std::vector<Band> sections;
  std::vector<size_t> subsection_boxes, value_boxes;
  const double section_x = clean_boxes.at(1).x;  // box 0 is the first Year
  for (size_t b = 0; b < clean_boxes.size(); ++b) {
    const acq::TextBox& box = clean_boxes[b];
    if (box.x == section_x) {
      sections.push_back({box.y, box.bottom(),
                          noisy_boxes[b].text != box.text});
    } else if (box.x > section_x) {
      // Subsection and value boxes alternate along each row.
      (subsection_boxes.size() == value_boxes.size() ? subsection_boxes
                                                     : value_boxes)
          .push_back(b);
    }
  }
  DART_CHECK(value_boxes.size() == render_order.size());

  doc.rendered = doc.truth.Clone();
  doc.text_clean.assign(relation.size(), 1);
  for (size_t r = 0; r < render_order.size(); ++r) {
    const size_t row = render_order[r];
    const acq::TextBox& sub_clean = clean_boxes[subsection_boxes[r]];
    bool dirty = noisy_boxes[subsection_boxes[r]].text != sub_clean.text;
    for (const Band& band : sections) {
      if (band.top <= sub_clean.y && sub_clean.y <= band.bottom) {
        dirty = dirty || band.dirty;
      }
    }
    doc.text_clean[row] = dirty ? 0 : 1;
    const std::string& value_text = noisy_boxes[value_boxes[r]].text;
    if (value_text != clean_boxes[value_boxes[r]].text) {
      ++doc.injected;
      DART_CHECK(doc.rendered
                     .UpdateCell({relation.name(), row, 4},
                                 rel::Value(static_cast<int64_t>(
                                     std::stoll(value_text))))
                     .ok());
    }
  }
  doc.scan = std::move(scan);
  return doc;
}

/// The acquisition metadata of a domain, built from a reference instance of
/// the shape the workloads generate (item names depend on shape only), then
/// serialized: a deployment parses this text at set-up.
inline std::string SerializedMetadata(Domain domain) {
  namespace core = dart::core;
  dart::Rng rng(1);
  const rel::Database reference = RandomTruth(domain, 2, &rng);
  core::AcquisitionMetadata metadata;
  switch (domain) {
    case Domain::kBudget:
      metadata.catalog =
          Must(ocr::CashBudgetFixture::BuildCatalog(reference), "catalog");
      metadata.patterns = ocr::CashBudgetFixture::BuildPatterns();
      metadata.mappings = {
          Must(ocr::CashBudgetFixture::BuildMapping(reference), "mapping")};
      metadata.constraint_program =
          ocr::CashBudgetFixture::ConstraintProgram();
      break;
    case Domain::kCatalog:
      metadata.catalog =
          Must(ocr::CatalogFixture::BuildCatalog(reference), "catalog");
      metadata.patterns = ocr::CatalogFixture::BuildPatterns();
      metadata.mappings = {
          Must(ocr::CatalogFixture::BuildMapping(reference), "mapping")};
      metadata.constraint_program = ocr::CatalogFixture::ConstraintProgram();
      break;
    case Domain::kExpense:
      metadata.catalog =
          Must(ocr::ExpenseFixture::BuildCatalog(reference), "catalog");
      metadata.patterns = ocr::ExpenseFixture::BuildPatterns();
      metadata.mappings = {
          Must(ocr::ExpenseFixture::BuildMapping(reference), "mapping")};
      metadata.constraint_program = ocr::ExpenseFixture::ConstraintProgram();
      break;
  }
  return core::SerializeMetadata(metadata);
}

}  // namespace perfbench
