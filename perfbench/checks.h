#pragma once

// Output checks that share no code with the program's constraint checker:
// the sum constraints of each domain are recomputed here by group-by
// arithmetic over the rows, and acquired cells are compared with the cells
// the benchmark rendered into the document.

#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "inputs.h"

namespace perfbench {

namespace checks_internal {

inline double Num(const rel::Value& value) {
  return value.is_int() ? static_cast<double>(value.AsInt()) : value.AsReal();
}

/// Equal within half a unit for integer domains and within a hundredth of a
/// cent for the real-valued expense amounts.
inline bool Balanced(double lhs, double rhs, bool integral) {
  return std::fabs(lhs - rhs) <= (integral ? 0.5 : 1e-4);
}

}  // namespace checks_internal

/// Empty when every sum constraint of the document's domain holds on `db`;
/// otherwise a description of the first one that does not.
inline std::string SumViolation(Domain domain, const rel::Database& db) {
  using checks_internal::Balanced;
  using checks_internal::Num;
  if (db.relations().size() != 1) return "expected exactly one relation";
  const rel::Relation& r = db.relations().front();
  std::string why;
  auto require = [&why](bool holds, const std::string& what) {
    if (!holds && why.empty()) why = what;
  };
  switch (domain) {
    case Domain::kBudget: {
      // CashBudget(Year, Section, Subsection, Type, Value).
      std::map<std::pair<int64_t, std::string>, double> det, aggr, by_sub;
      std::map<int64_t, int> years;
      for (size_t i = 0; i < r.size(); ++i) {
        const int64_t year = r.At(i, 0).AsInt();
        const std::string& section = r.At(i, 1).AsString();
        const std::string& type = r.At(i, 3).AsString();
        const double value = Num(r.At(i, 4));
        years[year] = 1;
        if (type == "det") det[{year, section}] += value;
        if (type == "aggr") aggr[{year, section}] += value;
        by_sub[{year, r.At(i, 2).AsString()}] += value;
      }
      for (const auto& [key, value] : det) {
        require(Balanced(value, aggr[key], true),
                "c1 " + std::to_string(key.first) + " " + key.second);
      }
      for (const auto& [key, value] : aggr) {
        require(Balanced(det[key], value, true),
                "c1 " + std::to_string(key.first) + " " + key.second);
      }
      for (const auto& [year, unused] : years) {
        auto v = [&](const char* sub) { return by_sub[{year, sub}]; };
        require(Balanced(v("net cash inflow"),
                         v("total cash receipts") - v("total disbursements"),
                         true),
                "c2 " + std::to_string(year));
        require(Balanced(v("ending cash balance"),
                         v("beginning cash") + v("net cash inflow"), true),
                "c3 " + std::to_string(year));
      }
      break;
    }
    case Domain::kCatalog: {
      // Catalog(Category, Item, Level, Amount).
      std::map<std::string, double> item, cat;
      double cats = 0, grand = 0;
      for (size_t i = 0; i < r.size(); ++i) {
        const std::string& category = r.At(i, 0).AsString();
        const std::string& level = r.At(i, 2).AsString();
        const double amount = Num(r.At(i, 3));
        if (level == "item") item[category] += amount;
        if (level == "cat") {
          cat[category] += amount;
          cats += amount;
        }
        if (level == "grand") grand += amount;
      }
      for (const auto& [category, total] : cat) {
        require(Balanced(item[category], total, true), "category " + category);
      }
      for (const auto& [category, total] : item) {
        require(Balanced(total, cat[category], true), "category " + category);
      }
      require(Balanced(cats, grand, true), "grand total");
      break;
    }
    case Domain::kExpense: {
      // Expense(Month, Category, Item, Level, Amount).
      std::map<std::pair<std::string, std::string>, double> line, cat;
      std::map<std::string, double> cat_by_month, month;
      double months = 0, grand = 0;
      for (size_t i = 0; i < r.size(); ++i) {
        const std::string& m = r.At(i, 0).AsString();
        const std::string& c = r.At(i, 1).AsString();
        const std::string& level = r.At(i, 3).AsString();
        const double amount = Num(r.At(i, 4));
        if (level == "line") line[{m, c}] += amount;
        if (level == "cat") {
          cat[{m, c}] += amount;
          cat_by_month[m] += amount;
        }
        if (level == "month") {
          month[m] += amount;
          months += amount;
        }
        if (level == "grand") grand += amount;
      }
      for (const auto& [key, total] : cat) {
        require(Balanced(line[key], total, false),
                "category " + key.first + "/" + key.second);
      }
      for (const auto& [key, total] : line) {
        require(Balanced(total, cat[key], false),
                "category " + key.first + "/" + key.second);
      }
      for (const auto& [m, total] : month) {
        require(Balanced(cat_by_month[m], total, false), "month " + m);
      }
      for (const auto& [m, total] : cat_by_month) {
        require(Balanced(total, month[m], false), "month " + m);
      }
      require(Balanced(months, grand, false), "grand total");
      break;
    }
  }
  return why;
}

/// The key of a row: every non-measure attribute except the derived Type /
/// Level classification.
inline std::string RowKey(Domain domain, const rel::Relation& r, size_t i) {
  switch (domain) {
    case Domain::kBudget:
      return r.At(i, 0).ToString() + "|" + r.At(i, 1).AsString() + "|" +
             r.At(i, 2).AsString();
    case Domain::kCatalog:
      return r.At(i, 0).AsString() + "|" + r.At(i, 1).AsString();
    case Domain::kExpense:
      return r.At(i, 0).AsString() + "|" + r.At(i, 1).AsString() + "|" +
             r.At(i, 2).AsString();
  }
  return {};
}

/// Empty when `acquired` holds, for every text-clean row of the document,
/// a row with the same key and the value the document showed.
inline std::string AcquisitionMismatch(const Doc& doc,
                                       const rel::Database& acquired) {
  using checks_internal::Num;
  if (acquired.relations().size() != 1) return "expected one relation";
  const rel::Relation& got = acquired.relations().front();
  const rel::Relation& shown = doc.rendered.relations().front();
  const size_t measure = shown.schema().attributes().size() - 1;
  std::map<std::string, double> values;
  for (size_t i = 0; i < got.size(); ++i) {
    values.emplace(RowKey(doc.domain, got, i), Num(got.At(i, measure)));
  }
  for (size_t i = 0; i < shown.size(); ++i) {
    if (!doc.text_clean[i]) continue;
    const std::string key = RowKey(doc.domain, shown, i);
    auto it = values.find(key);
    if (it == values.end()) return "row not acquired: " + key;
    if (std::fabs(it->second - Num(shown.At(i, measure))) > 1e-9) {
      return "value differs from the document: " + key;
    }
  }
  return {};
}

/// Empty when `repaired` has the same rows as the document's ground truth.
inline std::string TruthMismatch(const Doc& doc,
                                 const rel::Database& repaired) {
  Doc truth_view;
  truth_view.domain = doc.domain;
  truth_view.rendered = doc.truth.Clone();
  truth_view.text_clean.assign(doc.truth.relations().front().size(), 1);
  if (repaired.relations().front().size() != doc.truth.relations().front().size()) {
    return "row count differs from the ground truth";
  }
  const std::string mismatch = AcquisitionMismatch(truth_view, repaired);
  return mismatch.empty() ? "" : "not the ground truth: " + mismatch;
}

}  // namespace perfbench
