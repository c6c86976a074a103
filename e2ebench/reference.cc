#include "reference.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "storage/date.h"
#include "util/string_util.h"

namespace e2ebench {

using robustqo::Rng;
using robustqo::StrPrintf;
using robustqo::storage::Catalog;
using robustqo::storage::DateToDays;
using robustqo::storage::FormatDate;
using robustqo::storage::Table;

namespace {

// TPC-H-lite at the figures' scale factor 0.02.
constexpr int64_t kCustomers = 3000;
/// Rows one UPDATE rewrites: enough that online maintenance rebuilds
/// `customer` statistics a few times in a run.
constexpr int64_t kUpdateRows = 8;
const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

std::string Date(int64_t days) { return "DATE '" + FormatDate(days) + "'"; }

/// Prints `v` with `digits` decimals and returns the double the SQL text
/// denotes, so the reference compares against exactly what the engine
/// parses.
double Lit(double v, int digits, std::string* text) {
  *text = StrPrintf("%.*f", digits, v);
  return std::strtod(text->c_str(), nullptr);
}

const Table& Get(const Catalog& catalog, const char* name) {
  const Table* t = catalog.GetTable(name);
  if (t == nullptr) std::abort();
  return *t;
}

}  // namespace

Statement MakeHotStatement(uint64_t seed, size_t index) {
  Rng rng(seed * 1000003 + index);
  Statement st;
  std::string a;
  // Each template's statements draw their main parameter from disjoint
  // strata, so every seed covers its range alike.
  const int64_t stratum = static_cast<int64_t>(index / 4);
  switch (index % 4) {
    case 0: {  // paper Experiment 1
      st.tpl = Template::kExp1;
      st.i[0] = DateToDays(1993, 1, 1) + rng.NextInRange(0, 1500);
      st.i[1] = 55 + 12 * stratum + rng.NextInRange(0, 11);  // receipt offset
      const int64_t s = st.i[0], o = st.i[0] + st.i[1];
      st.sql = "SELECT SUM(l_extendedprice) AS s FROM lineitem WHERE "
               "l_shipdate BETWEEN " + Date(s) + " AND " + Date(s + 59) +
               " AND l_receiptdate BETWEEN " + Date(o) + " AND " +
               Date(o + 59);
      break;
    }
    case 1: {  // paper Experiment 2
      st.tpl = Template::kExp2;
      st.i[0] = rng.NextInRange(5, 80);
      st.i[1] = 3 * stratum + rng.NextInRange(0, 2);
      const int64_t lo = st.i[0], lo2 = st.i[0] + st.i[1];
      st.sql = StrPrintf(
          "SELECT SUM(l_extendedprice) AS s FROM lineitem, orders, part "
          "WHERE p_c1 BETWEEN %lld AND %lld AND p_c2 BETWEEN %lld AND %lld",
          static_cast<long long>(lo), static_cast<long long>(lo + 10),
          static_cast<long long>(lo2), static_cast<long long>(lo2 + 10));
      break;
    }
    case 2: {
      st.tpl = Template::kGroupedAgg;
      st.i[0] = DateToDays(1992, 1, 1) + rng.NextInRange(0, 2000);
      st.i[1] = st.i[0] + 30 + 50 * stratum + rng.NextInRange(0, 49);
      st.sql = "SELECT l_linenumber, COUNT(*) AS n, SUM(l_extendedprice) AS "
               "s FROM lineitem WHERE l_shipdate BETWEEN " + Date(st.i[0]) +
               " AND " + Date(st.i[1]) + " GROUP BY l_linenumber";
      break;
    }
    default: {
      st.tpl = Template::kScanCount;
      st.i[0] = 2 + 6 * stratum + rng.NextInRange(0, 5);
      st.d[0] = Lit(0.01 * static_cast<double>(rng.NextInRange(1, 9)), 2, &a);
      st.sql = StrPrintf("SELECT COUNT(*) AS n FROM lineitem WHERE "
                         "l_quantity < %lld AND l_discount > %s",
                         static_cast<long long>(st.i[0]), a.c_str());
      break;
    }
  }
  return st;
}

Statement MakeAdhocRead(Template tpl, Rng* rng) {
  Statement st;
  st.tpl = tpl;
  std::string a, b;
  const int64_t d = DateToDays(1992, 1, 1) + rng->NextInRange(0, 2300);
  switch (tpl) {
    case Template::kLineSuppPart:
      st.i[0] = rng->NextInRange(0, 24);
      st.i[1] = rng->NextInRange(1, 46);
      st.i[2] = d;
      st.i[3] = d + rng->NextInRange(5, 20);
      st.sql = StrPrintf(
          "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem, "
          "supplier, part WHERE s_nationkey = %lld AND p_size BETWEEN %lld "
          "AND %lld AND l_shipdate BETWEEN %s AND %s",
          static_cast<long long>(st.i[0]), static_cast<long long>(st.i[1]),
          static_cast<long long>(st.i[1] + 4), Date(st.i[2]).c_str(),
          Date(st.i[3]).c_str());
      break;
    case Template::kLineSuppNationPart:
      st.i[0] = rng->NextInRange(0, 4);
      st.d[0] = Lit(rng->NextDoubleInRange(0.0, 95.0), 1, &a);
      st.d[1] = Lit(st.d[0] + static_cast<double>(rng->NextInRange(2, 5)), 1,
                    &b);
      st.i[1] = d;
      st.i[2] = d + rng->NextInRange(3, 15);
      st.sql = StrPrintf(
          "SELECT COUNT(*) AS n FROM lineitem, supplier, nation, part WHERE "
          "n_regionkey = %lld AND p_c1 BETWEEN %s AND %s AND l_receiptdate "
          "BETWEEN %s AND %s",
          static_cast<long long>(st.i[0]), a.c_str(), b.c_str(),
          Date(st.i[1]).c_str(), Date(st.i[2]).c_str());
      break;
    case Template::kOrdersScan:
      st.i[0] = d;
      st.i[1] = d + rng->NextInRange(30, 180);
      st.i[2] = rng->NextInRange(1, kCustomers - 30);
      st.sql = StrPrintf(
          "SELECT COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders WHERE "
          "o_orderdate BETWEEN %s AND %s AND o_custkey BETWEEN %lld AND %lld",
          Date(st.i[0]).c_str(), Date(st.i[1]).c_str(),
          static_cast<long long>(st.i[2]),
          static_cast<long long>(st.i[2] + 30));
      break;
    case Template::kCustomerScan:
      st.i[0] = rng->NextInRange(0, 24);
      st.i[1] = rng->NextInRange(1, kCustomers - 150);
      st.d[0] = Lit(rng->NextDoubleInRange(-999.0, 9000.0), 2, &a);
      st.sql = StrPrintf(
          "SELECT COUNT(*) AS n, SUM(c_acctbal) AS s FROM customer WHERE "
          "c_nationkey = %lld AND c_acctbal > %s AND c_custkey BETWEEN %lld "
          "AND %lld",
          static_cast<long long>(st.i[0]), a.c_str(),
          static_cast<long long>(st.i[1]), static_cast<long long>(st.i[1] + 150));
      break;
    case Template::kLinePart:
      st.i[0] = rng->NextInRange(1, 41);
      st.i[1] = rng->NextInRange(1000, 2000);
      st.i[2] = d;
      st.i[3] = d + rng->NextInRange(2, 10);
      st.sql = StrPrintf(
          "SELECT COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem, part "
          "WHERE p_size BETWEEN %lld AND %lld AND p_retailprice < %lld AND "
          "l_shipdate BETWEEN %s AND %s",
          static_cast<long long>(st.i[0]), static_cast<long long>(st.i[0] + 9),
          static_cast<long long>(st.i[1]), Date(st.i[2]).c_str(),
          Date(st.i[3]).c_str());
      break;
    default:
      std::abort();
  }
  return st;
}

Statement MakeUpdateCustomer(Rng* rng) {
  Statement st;
  st.tpl = Template::kUpdateCustomer;
  std::string a;
  st.i[0] = rng->NextInRange(1, kCustomers - kUpdateRows + 1);
  // Quarter units are exact in binary, so model and engine add alike.
  st.d[0] = Lit(0.25 * static_cast<double>(rng->NextInRange(1, 40)), 2, &a);
  st.sql = StrPrintf(
      "UPDATE customer SET c_acctbal = c_acctbal + %s WHERE c_custkey "
      "BETWEEN %lld AND %lld",
      a.c_str(), static_cast<long long>(st.i[0]),
      static_cast<long long>(st.i[0] + kUpdateRows - 1));
  return st;
}

Statement MakeInsertOrder(int64_t orderkey, Rng* rng) {
  Statement st;
  st.tpl = Template::kInsertOrder;
  std::string a;
  st.i[0] = orderkey;
  st.i[1] = rng->NextInRange(1, kCustomers);
  st.i[2] = DateToDays(1995, 1, 1) + rng->NextInRange(0, 1000);
  st.d[0] = Lit(static_cast<double>(rng->NextInRange(1000, 400000)) + 0.5, 1,
                &a);
  st.s = kPriorities[rng->NextBounded(5)];
  st.sql = StrPrintf("INSERT INTO orders VALUES (%lld, %lld, %s, %s, '%s')",
                     static_cast<long long>(st.i[0]),
                     static_cast<long long>(st.i[1]), Date(st.i[2]).c_str(),
                     a.c_str(), st.s.c_str());
  return st;
}

Statement MakeDeleteOrder(int64_t orderkey) {
  Statement st;
  st.tpl = Template::kDeleteOrder;
  st.i[0] = orderkey;
  st.sql = StrPrintf("DELETE FROM orders WHERE o_orderkey = %lld",
                     static_cast<long long>(orderkey));
  return st;
}

// ---- Reference -----------------------------------------------------------

Reference::Reference(const Catalog* catalog) : catalog_(catalog) {
  const Table& part = Get(*catalog, "part");
  const size_t np = part.num_rows() + 1;
  part_c1_.assign(np, 0.0);
  part_c2_.assign(np, 0.0);
  part_price_.assign(np, 0.0);
  part_size_.assign(np, 0);
  const auto& pk = part.column("p_partkey");
  for (uint64_t r = 0; r < part.num_rows(); ++r) {
    const int64_t k = pk.Int64At(r);
    part_c1_[k] = part.column("p_c1").DoubleAt(r);
    part_c2_[k] = part.column("p_c2").DoubleAt(r);
    part_price_[k] = part.column("p_retailprice").DoubleAt(r);
    part_size_[k] = part.column("p_size").Int64At(r);
  }
  const Table& nation = Get(*catalog, "nation");
  nation_region_.assign(nation.num_rows(), -1);
  for (uint64_t r = 0; r < nation.num_rows(); ++r) {
    nation_region_[nation.column("n_nationkey").Int64At(r)] =
        nation.column("n_regionkey").Int64At(r);
  }
  const Table& supp = Get(*catalog, "supplier");
  supp_nation_.assign(supp.num_rows() + 1, -1);
  for (uint64_t r = 0; r < supp.num_rows(); ++r) {
    supp_nation_[supp.column("s_suppkey").Int64At(r)] =
        supp.column("s_nationkey").Int64At(r);
  }
  Refresh();
}

void Reference::Refresh() {
  const Table& cust = Get(*catalog_, "customer");
  cust_nation_.assign(kCustomers + 1, -1);
  cust_acctbal_.assign(kCustomers + 1, 0.0);
  cust_present_.assign(kCustomers + 1, 0);
  for (uint64_t r = 0; r < cust.num_rows(); ++r) {
    if (!cust.VisibleAt(r)) continue;
    const int64_t k = cust.column("c_custkey").Int64At(r);
    cust_nation_[k] = cust.column("c_nationkey").Int64At(r);
    cust_acctbal_[k] = cust.column("c_acctbal").DoubleAt(r);
    cust_present_[k] = 1;
  }
  const Table& orders = Get(*catalog_, "orders");
  orders_.clear();
  // Sized once, by the loaded keys; inserted orders live in orders_ only.
  if (loaded_orders_ == 0) loaded_orders_ = orders.num_rows();
  order_date_by_key_.assign(loaded_orders_ + 1, -1);
  for (uint64_t r = 0; r < orders.num_rows(); ++r) {
    if (!orders.VisibleAt(r)) continue;
    OrderRow o;
    o.key = orders.column("o_orderkey").Int64At(r);
    o.cust = orders.column("o_custkey").Int64At(r);
    o.date = orders.column("o_orderdate").Int64At(r);
    o.price = orders.column("o_totalprice").DoubleAt(r);
    o.priority = orders.column("o_orderpriority").StringAt(r);
    if (o.key < static_cast<int64_t>(order_date_by_key_.size())) {
      order_date_by_key_[o.key] = o.date;
    }
    orders_.push_back(std::move(o));
  }
}

Answer Reference::Evaluate(const Statement& st) const {
  Answer out;
  auto count = [&](const std::string& key, double n) {
    out[key] = Cell{n, 0.0, true};
  };
  auto sum = [&](const std::string& key, double s, double abs_terms) {
    out[key] = Cell{s, abs_terms, false};
  };
  const Table& li = Get(*catalog_, "lineitem");
  const uint64_t n = li.num_rows();
  const auto& l_order = li.column("l_orderkey");
  const auto& l_part = li.column("l_partkey");
  const auto& l_supp = li.column("l_suppkey");
  const auto& l_qty = li.column("l_quantity");
  const auto& l_price = li.column("l_extendedprice");
  const auto& l_disc = li.column("l_discount");
  const auto& l_ship = li.column("l_shipdate");
  const auto& l_receipt = li.column("l_receiptdate");
  auto order_of = [&](uint64_t r) { return l_order.Int64At(r); };
  double s = 0.0, abs_s = 0.0, c = 0.0;
  switch (st.tpl) {
    case Template::kExp1: {
      const int64_t s0 = st.i[0], r0 = st.i[0] + st.i[1];
      for (uint64_t r = 0; r < n; ++r) {
        const int64_t ship = l_ship.Int64At(r), rec = l_receipt.Int64At(r);
        if (ship >= s0 && ship <= s0 + 59 && rec >= r0 && rec <= r0 + 59) {
          s += l_price.DoubleAt(r);
          abs_s += std::fabs(l_price.DoubleAt(r));
        }
      }
      sum("|0", s, abs_s);
      break;
    }
    case Template::kExp2: {
      const double lo = static_cast<double>(st.i[0]);
      const double lo2 = static_cast<double>(st.i[0] + st.i[1]);
      for (uint64_t r = 0; r < n; ++r) {
        const int64_t p = l_part.Int64At(r);
        if (order_date_by_key_[order_of(r)] < 0) continue;
        if (part_c1_[p] >= lo && part_c1_[p] <= lo + 10 &&
            part_c2_[p] >= lo2 && part_c2_[p] <= lo2 + 10) {
          s += l_price.DoubleAt(r);
          abs_s += std::fabs(l_price.DoubleAt(r));
        }
      }
      sum("|0", s, abs_s);
      break;
    }
    case Template::kGroupedAgg: {
      const auto& line = li.column("l_linenumber");
      std::map<int64_t, std::pair<double, double>> groups;
      for (uint64_t r = 0; r < n; ++r) {
        const int64_t ship = l_ship.Int64At(r);
        if (ship < st.i[0] || ship > st.i[1]) continue;
        auto& g = groups[line.Int64At(r)];
        g.first += 1.0;
        g.second += l_price.DoubleAt(r);
      }
      for (const auto& [group, g] : groups) {
        const std::string key = std::to_string(group);
        count(key + "|1", g.first);
        // l_extendedprice is positive: Σ|x| equals the sum.
        sum(key + "|2", g.second, g.second);
      }
      break;
    }
    case Template::kScanCount:
      for (uint64_t r = 0; r < n; ++r) {
        if (l_qty.DoubleAt(r) < static_cast<double>(st.i[0]) &&
            l_disc.DoubleAt(r) > st.d[0]) {
          c += 1.0;
        }
      }
      count("|0", c);
      break;
    case Template::kLineSuppPart:
      for (uint64_t r = 0; r < n; ++r) {
        const int64_t ship = l_ship.Int64At(r);
        if (ship < st.i[2] || ship > st.i[3]) continue;
        if (supp_nation_[l_supp.Int64At(r)] != st.i[0]) continue;
        const int64_t size = part_size_[l_part.Int64At(r)];
        if (size < st.i[1] || size > st.i[1] + 4) continue;
        c += 1.0;
        s += l_price.DoubleAt(r);
        abs_s += std::fabs(l_price.DoubleAt(r));
      }
      count("|0", c);
      sum("|1", s, abs_s);
      break;
    case Template::kLineSuppNationPart:
      for (uint64_t r = 0; r < n; ++r) {
        const int64_t rec = l_receipt.Int64At(r);
        if (rec < st.i[1] || rec > st.i[2]) continue;
        const int64_t p = l_part.Int64At(r);
        if (part_c1_[p] < st.d[0] || part_c1_[p] > st.d[1]) continue;
        if (nation_region_[supp_nation_[l_supp.Int64At(r)]] == st.i[0]) {
          c += 1.0;
        }
      }
      count("|0", c);
      break;
    case Template::kOrdersScan:
      for (const OrderRow& o : orders_) {
        if (o.date < st.i[0] || o.date > st.i[1]) continue;
        if (o.cust < st.i[2] || o.cust > st.i[2] + 30) continue;
        c += 1.0;
        s += o.price;
        abs_s += std::fabs(o.price);
      }
      count("|0", c);
      sum("|1", s, abs_s);
      break;
    case Template::kCustomerScan:
      for (int64_t k = st.i[1]; k <= st.i[1] + 150; ++k) {
        if (!cust_present_[k] || cust_nation_[k] != st.i[0]) continue;
        if (!(cust_acctbal_[k] > st.d[0])) continue;
        c += 1.0;
        s += cust_acctbal_[k];
        abs_s += std::fabs(cust_acctbal_[k]);
      }
      count("|0", c);
      sum("|1", s, abs_s);
      break;
    case Template::kLinePart:
      for (uint64_t r = 0; r < n; ++r) {
        const int64_t ship = l_ship.Int64At(r);
        if (ship < st.i[2] || ship > st.i[3]) continue;
        const int64_t p = l_part.Int64At(r);
        if (part_size_[p] >= st.i[0] && part_size_[p] <= st.i[0] + 9 &&
            part_price_[p] < static_cast<double>(st.i[1])) {
          c += 1.0;
          s += l_qty.DoubleAt(r);
          abs_s += std::fabs(l_qty.DoubleAt(r));
        }
      }
      count("|0", c);
      sum("|1", s, abs_s);
      break;
    default:
      std::abort();
  }
  return out;
}

namespace {

/// The engine's result cells, keyed like the reference's answers: scalar
/// aggregates by column, grouped ones by group value and column.
std::map<std::string, double> ReadCells(const Answer& expected,
                                        const Table& rows) {
  bool grouped = false;
  for (const auto& [key, cell] : expected) grouped |= key[0] != '|';
  std::map<std::string, double> actual;
  const size_t cols = rows.schema().num_columns();
  if (grouped || expected.empty()) {
    for (uint64_t r = 0; r < rows.num_rows(); ++r) {
      const std::string group = rows.ValueAt(r, 0).ToString();
      for (size_t col = 1; col < cols; ++col) {
        actual[group + "|" + std::to_string(col)] =
            rows.ValueAt(r, col).NumericValue();
      }
    }
  } else {
    for (size_t col = 0; col < cols; ++col) {
      actual["|" + std::to_string(col)] =
          rows.num_rows() == 0 ? 0.0 : rows.ValueAt(0, col).NumericValue();
    }
  }
  return actual;
}

}  // namespace

Answer EngineAnswer(const Answer& reference, const Table& rows) {
  Answer out = reference;
  const auto actual = ReadCells(reference, rows);
  for (auto& [key, cell] : out) {
    auto it = actual.find(key);
    if (it != actual.end()) cell.value = it->second;
  }
  return out;
}

std::string CompareAnswer(const Answer& expected, const Table& rows) {
  const auto actual = ReadCells(expected, rows);
  if (actual.size() != expected.size()) {
    return StrPrintf("%zu answer cells, expected %zu", actual.size(),
                     expected.size());
  }
  for (const auto& [key, cell] : expected) {
    auto it = actual.find(key);
    if (it == actual.end()) return "missing answer cell " + key;
    const double diff = std::fabs(it->second - cell.value);
    const bool ok = cell.is_count
                        ? diff == 0.0
                        : diff <= kSumTolerance * std::max(1.0, cell.abs_terms);
    if (!ok) {
      return StrPrintf("cell %s: engine %.17g, expected %.17g", key.c_str(),
                       it->second, cell.value);
    }
  }
  return "";
}

// ---- ShadowModel ---------------------------------------------------------

std::map<int64_t, ShadowModel::Customer> ShadowModel::ReadCustomers(
    const Catalog& catalog) {
  std::map<int64_t, Customer> out;
  const Table& t = Get(catalog, "customer");
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (!t.VisibleAt(r)) continue;
    out[t.column("c_custkey").Int64At(r)] =
        Customer{t.column("c_name").StringAt(r),
                 t.column("c_nationkey").Int64At(r),
                 t.column("c_acctbal").DoubleAt(r),
                 t.column("c_mktsegment").StringAt(r)};
  }
  return out;
}

std::map<int64_t, ShadowModel::Order> ShadowModel::ReadOrders(
    const Catalog& catalog) {
  std::map<int64_t, Order> out;
  const Table& t = Get(catalog, "orders");
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    if (!t.VisibleAt(r)) continue;
    out[t.column("o_orderkey").Int64At(r)] =
        Order{t.column("o_custkey").Int64At(r),
              t.column("o_orderdate").Int64At(r),
              t.column("o_totalprice").DoubleAt(r),
              t.column("o_orderpriority").StringAt(r)};
  }
  return out;
}

ShadowModel::ShadowModel(const Catalog& catalog)
    : customers_(ReadCustomers(catalog)), orders_(ReadOrders(catalog)) {}

uint64_t ShadowModel::Apply(const Statement& st) {
  switch (st.tpl) {
    case Template::kUpdateCustomer: {
      uint64_t rows = 0;
      for (int64_t k = st.i[0]; k < st.i[0] + kUpdateRows; ++k) {
        auto it = customers_.find(k);
        if (it == customers_.end()) continue;
        it->second.acctbal = it->second.acctbal + st.d[0];
        ++rows;
      }
      return rows;
    }
    case Template::kInsertOrder:
      orders_[st.i[0]] = Order{st.i[1], st.i[2], st.d[0], st.s};
      return 1;
    case Template::kDeleteOrder:
      return orders_.erase(st.i[0]);
    default:
      std::abort();
  }
}

void ShadowModel::Corrupt() {
  if (!customers_.empty()) customers_.begin()->second.acctbal += 1.0;
}

std::string ShadowModel::Compare(const Catalog& catalog) const {
  const auto customers = ReadCustomers(catalog);
  const auto orders = ReadOrders(catalog);
  if (customers.size() != customers_.size()) {
    return StrPrintf("customer has %zu visible rows, model %zu",
                     customers.size(), customers_.size());
  }
  if (orders.size() != orders_.size()) {
    return StrPrintf("orders has %zu visible rows, model %zu", orders.size(),
                     orders_.size());
  }
  for (const auto& [key, row] : customers_) {
    auto it = customers.find(key);
    if (it == customers.end() || !(it->second == row)) {
      return StrPrintf("customer %lld differs from the model",
                       static_cast<long long>(key));
    }
  }
  for (const auto& [key, row] : orders_) {
    auto it = orders.find(key);
    if (it == orders.end() || !(it->second == row)) {
      return StrPrintf("orders %lld differs from the model",
                       static_cast<long long>(key));
    }
  }
  return "";
}

}  // namespace e2ebench
