// Statement templates of the serving workloads and their independent
// references: every read's answer is recomputed here with plain loops over
// the loaded columns and the foreign keys, never through the engine's
// expression evaluator or executor; writes are mirrored in a plain shadow
// model of the `customer` and `orders` rows.

#ifndef ROBUSTQO_E2EBENCH_REFERENCE_H_
#define ROBUSTQO_E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"

namespace e2ebench {

enum class Template {
  // serve_hot (prepared)
  kExp1,          // paper Experiment 1: two date ranges on lineitem
  kExp2,          // paper Experiment 2: lineitem-orders-part, correlated part
  kGroupedAgg,    // lineitem by line number
  kScanCount,     // scan-filter count on lineitem
  // adhoc_rw reads (one-shot, fresh literals). The joins read only tables
  // the workload never writes (see README.md: index nested-loop joins
  // return deleted row versions); the written tables are read by scans.
  kLinePart,            // lineitem-part
  kLineSuppPart,        // lineitem-supplier-part
  kLineSuppNationPart,  // lineitem-supplier-nation-part
  kOrdersScan,          // orders
  kCustomerScan,        // customer
  // adhoc_rw writes
  kUpdateCustomer,
  kInsertOrder,
  kDeleteOrder,
};

/// One generated statement: its SQL text plus the literal values, parsed
/// back from that text, that the reference evaluates with.
struct Statement {
  Template tpl = Template::kExp1;
  std::string sql;
  int64_t i[4] = {0, 0, 0, 0};
  double d[2] = {0, 0};
  std::string s;  // INSERT: o_orderpriority

  bool is_write() const { return tpl >= Template::kUpdateCustomer; }
};

/// The serve_hot statement `index` (0..kHotStatements-1) for `seed`.
inline constexpr size_t kHotStatements = 12;
Statement MakeHotStatement(uint64_t seed, size_t index);
/// A fresh ad hoc read of one of the read templates.
Statement MakeAdhocRead(Template tpl, robustqo::Rng* rng);
Statement MakeUpdateCustomer(robustqo::Rng* rng);
Statement MakeInsertOrder(int64_t orderkey, robustqo::Rng* rng);
Statement MakeDeleteOrder(int64_t orderkey);

/// One answer cell: a value plus the sum of absolute values of the terms
/// that built it (0 for counts), which scales the SUM tolerance.
struct Cell {
  double value = 0.0;
  double abs_terms = 0.0;
  bool is_count = false;
};
/// An answer: cells keyed by "<group>|<column index>".
using Answer = std::map<std::string, Cell>;

/// Relative tolerance of a double SUM, against the sum of |terms|: both
/// sides sum at most ~1.2e5 positive-or-mixed terms in different orders,
/// each order within (n-1)·2^-53·Σ|x| ≈ 1.3e-11·Σ|x| of the exact sum.
inline constexpr double kSumTolerance = 1e-9;

/// Plain-loop views of the TPC-H-lite tables. Read-only tables are
/// indexed once; `customer` and `orders` are re-read after writes.
class Reference {
 public:
  explicit Reference(const robustqo::storage::Catalog* catalog);
  /// Re-reads the visible rows of the written tables.
  void Refresh();
  /// The answer of a read at the latest visible state.
  Answer Evaluate(const Statement& st) const;

 private:
  const robustqo::storage::Catalog* catalog_;
  // Dense by key (keys are 1..N in TPC-H-lite).
  std::vector<double> part_c1_, part_c2_, part_price_;
  std::vector<int64_t> part_size_, supp_nation_, nation_region_;
  std::vector<int64_t> cust_nation_;
  std::vector<double> cust_acctbal_;
  std::vector<char> cust_present_;
  struct OrderRow {
    int64_t key = 0, cust = 0, date = 0;
    double price = 0.0;
    std::string priority;
  };
  std::vector<OrderRow> orders_;          // every visible order
  std::vector<int64_t> order_date_by_key_;  // loaded keys only, -1 = gone
  uint64_t loaded_orders_ = 0;
};

/// Compares an engine result table against a reference answer. Returns
/// "" when they agree, else a description of the first difference.
std::string CompareAnswer(const Answer& expected,
                          const robustqo::storage::Table& rows);
/// The engine's answer in the reference's shape (values from `rows`,
/// tolerances from `reference`), to compare engine answers with each other.
Answer EngineAnswer(const Answer& reference,
                    const robustqo::storage::Table& rows);

/// Plain model of the rows the writes touch. Built from the loaded
/// tables; writes are applied to it in the order the service commits them.
class ShadowModel {
 public:
  explicit ShadowModel(const robustqo::storage::Catalog& catalog);
  /// Applies a write to the model; returns the rows it must affect.
  uint64_t Apply(const Statement& st);
  /// Compares the visible contents of `customer` and `orders` with the
  /// model. Returns "" when they agree.
  std::string Compare(const robustqo::storage::Catalog& catalog) const;
  /// Corrupts one modelled value (to see the final-contents check fail).
  void Corrupt();

 private:
  struct Customer {
    std::string name;
    int64_t nation = 0;
    double acctbal = 0.0;
    std::string segment;
    bool operator==(const Customer&) const = default;
  };
  struct Order {
    int64_t cust = 0, date = 0;
    double price = 0.0;
    std::string priority;
    bool operator==(const Order&) const = default;
  };
  static std::map<int64_t, Customer> ReadCustomers(
      const robustqo::storage::Catalog& catalog);
  static std::map<int64_t, Order> ReadOrders(
      const robustqo::storage::Catalog& catalog);
  std::map<int64_t, Customer> customers_;
  std::map<int64_t, Order> orders_;
};

}  // namespace e2ebench

#endif  // ROBUSTQO_E2EBENCH_REFERENCE_H_
