/// \file sql_workloads.cc
/// \brief The `olap` and `htap` workloads: SQL through a 4-DN
/// DistributedSqlSession over a star schema, every answer checked against
/// an oracle the benchmark keeps from the rows it generated.
///
/// `olap` runs a fixed, seeded list of SELECTs drawn from six shapes, each
/// chosen to land on a different layer (columnar grouped kernel, broadcast
/// join, repartition join, index probe, row-path filter, single-node
/// fallback). The list repeats until the run time is used up; the cluster
/// is read-only, so every repeat must give the same answers and the same
/// simulated latencies. `htap` interleaves 16-row INSERT batches into the
/// same mix (one write per four reads) with background delta merges on; it
/// runs a fixed number of statements, so the data it writes and the merges
/// that follow do not depend on how fast the program is.
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/distributed_sql.h"
#include "common/rng.h"
#include "optimizer/stats.h"
#include "report.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

using ofi::Rng;
using ofi::cluster::DistributedSqlSession;
using ofi::cluster::JoinStrategy;

constexpr int kDns = 4;
constexpr int64_t kOrders = 16384;
/// With 160-character comments these rows are wide enough that ANALYZE's
/// byte estimates pick a repartition join for orders x customers (it needs
/// customers > 1/3 of the orders bytes) until orders passes ~36k rows.
constexpr int64_t kCustomers = 2048;
constexpr int64_t kRegions = 16;
/// Customers live in regions [0, 12), so the LEFT JOIN from regions 12-15
/// yields NULL-extended rows.
constexpr int64_t kCustomerRegions = 12;
constexpr int64_t kInsertBatch = 512;
constexpr int kSetups = 5;
/// CPU time of untraced statements per ops_per_ref_s chunk.
constexpr double kRefChunkCpuS = 1.0;
/// Lowered SELECTs per run (olap: per pass of its statement list) so that
/// the nearest-rank p99 of their simulated latency has at least ten samples
/// beyond it.
constexpr size_t kMinSimSamples = 1000;
/// htap: one INSERT of kWriteRows rows after every kReadsPerWrite SELECTs.
constexpr int kReadsPerWrite = 4;
constexpr int kWriteRows = 16;
/// INSERT statements an htap run makes at least (nearest-rank p95 with ten
/// samples beyond it).
constexpr size_t kMinWrites = 200;
/// Tail size that triggers a background merge of a shard in htap: low
/// enough that every shard merges several times in a run.
constexpr size_t kHtapMergeThreshold = 128;
/// Statements whose answers (and, for olap, simulated latencies) feed the
/// run digest that the self-check compares across runs.
constexpr size_t kDigestStatements = 400;

// --- Generated data and the oracle -------------------------------------------

struct Order {
  int64_t id, cust, region, amount, qty;
};
struct Customer {
  int64_t id, region, tier;
  std::string name, address, phone, comment;
};

struct Dataset {
  std::vector<Order> orders;
  std::vector<Customer> customers;
  std::vector<int64_t> region_zone;  // r_zone by r_id
  int64_t next_slot = 0;             // order ids are slot * 4 + [0, 3]
};

Order NewOrder(Dataset* d, Rng* rng) {
  Order o;
  o.id = d->next_slot++ * 4 + rng->Uniform(0, 3);
  o.cust = rng->Uniform(0, kCustomers - 1);
  o.region = rng->Uniform(0, kRegions - 1);
  o.amount = rng->Uniform(1, 1000);
  o.qty = rng->Uniform(1, 50);
  return o;
}

Dataset Generate(Rng* rng) {
  Dataset d;
  for (int64_t r = 0; r < kRegions; ++r) d.region_zone.push_back(rng->Uniform(0, 3));
  for (int64_t c = 0; c < kCustomers; ++c) {
    char name[32], phone[32];
    snprintf(name, sizeof(name), "Customer#%06lld", static_cast<long long>(c));
    snprintf(phone, sizeof(phone), "%02lld-%03lld-%04lld",
             static_cast<long long>(rng->Uniform(10, 34)),
             static_cast<long long>(rng->Uniform(100, 999)),
             static_cast<long long>(rng->Uniform(1000, 9999)));
    d.customers.push_back(Customer{c, rng->Uniform(0, kCustomerRegions - 1),
                                   rng->Uniform(0, 4), name,
                                   rng->AlphaString(24), phone,
                                   rng->AlphaString(160)});
  }
  for (int64_t i = 0; i < kOrders; ++i) d.orders.push_back(NewOrder(&d, rng));
  return d;
}

using Cell = std::optional<int64_t>;  // nullopt = SQL NULL
using Rows = std::vector<std::vector<Cell>>;

enum Shape { kAgg, kBroadcast, kRepartition, kIndexPoint, kRowFilter, kFallback };
constexpr int kNumShapes = 6;
const char* const kShapeNames[kNumShapes] = {
    "agg_kernel", "join_broadcast", "join_repartition",
    "index_point", "row_filter", "fallback"};
/// What EXPLAIN must show for each shape: the path it was chosen for.
const char* const kShapeExplain[kNumShapes] = {
    "columnar(grouped-kernel)", "strategy=broadcast", "strategy=repartition",
    "access=index(o_cust)", "row(filter not recognized)",
    "SINGLE-NODE PLAN (fallback: only inner joins run distributed)"};

/// Draw weights of the mix. The other shapes' simulated costs are fixed by
/// the dataset, while a repartition join's cost varies continuously with its
/// filters; it carries most draws so that the median (and the p99) of
/// simulated latency fall inside it instead of on a value that reads the
/// same for every seed.
const int kShapeWeights[kNumShapes] = {1, 1, 6, 1, 1, 1};

Shape DrawShape(Rng* rng) {
  int total = 0;
  for (int w : kShapeWeights) total += w;
  int64_t pick = rng->Uniform(0, total - 1);
  int sh = 0;
  while (pick >= kShapeWeights[sh]) pick -= kShapeWeights[sh++];
  return static_cast<Shape>(sh);
}

struct Query {
  Shape shape;
  int64_t a, b;
  std::string sql;
};

Query MakeQuery(Shape shape, Rng* rng) {
  Query q{shape, 0, 0, ""};
  switch (shape) {
    case kAgg:
      q.a = rng->Uniform(1, 600);
      q.b = q.a + rng->Uniform(50, 400);
      q.sql = "SELECT o_region, COUNT(*), SUM(o_amount) FROM orders WHERE o_amount >= " +
              std::to_string(q.a) + " AND o_amount <= " + std::to_string(q.b) +
              " GROUP BY o_region";
      break;
    case kBroadcast:
      q.a = rng->Uniform(2, 50);
      q.sql = "SELECT r_zone, COUNT(*), SUM(o_amount) FROM orders JOIN regions "
              "ON o_region = r_id WHERE o_qty < " + std::to_string(q.a) +
              " GROUP BY r_zone";
      break;
    case kRepartition:
      q.a = rng->Uniform(0, kCustomerRegions - 1);
      q.b = rng->Uniform(20, 200);
      q.sql = "SELECT c_tier, COUNT(*), SUM(o_amount) FROM orders JOIN customers "
              "ON o_cust = c_id WHERE c_region = " + std::to_string(q.a) +
              " AND o_amount < " + std::to_string(q.b) + " GROUP BY c_tier";
      break;
    case kIndexPoint:
      q.a = rng->Uniform(0, kCustomers - 1);
      q.sql = "SELECT o_id, o_amount FROM orders WHERE o_cust = " + std::to_string(q.a);
      break;
    case kRowFilter:
      q.a = rng->Uniform(2, 40);
      q.sql = "SELECT COUNT(*), SUM(o_amount) FROM orders WHERE o_amount < o_qty * " +
              std::to_string(q.a);
      break;
    case kFallback:
      q.a = rng->Uniform(0, kRegions - 1);
      q.sql = "SELECT r_id, c_id FROM regions LEFT JOIN customers ON r_id = c_region "
              "WHERE r_id = " + std::to_string(q.a);
      break;
  }
  return q;
}

/// Grouped COUNT(*) / SUM rows: groups with no rows are absent.
Rows GroupRows(const std::map<int64_t, std::pair<int64_t, int64_t>>& groups) {
  Rows out;
  for (const auto& [k, cs] : groups) out.push_back({k, cs.first, cs.second});
  return out;
}

/// The answer the SQL engine must return, computed directly from the
/// generated rows. Rows are sorted, so order is not part of the contract.
Rows Expected(const Dataset& d, const Query& q) {
  Rows out;
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  auto add = [&groups](int64_t key, int64_t amount) {
    auto& g = groups[key];
    ++g.first;
    g.second += amount;
  };
  switch (q.shape) {
    case kAgg:
      for (const Order& o : d.orders) {
        if (o.amount >= q.a && o.amount <= q.b) add(o.region, o.amount);
      }
      out = GroupRows(groups);
      break;
    case kBroadcast:
      for (const Order& o : d.orders) {
        if (o.qty < q.a) add(d.region_zone[o.region], o.amount);
      }
      out = GroupRows(groups);
      break;
    case kRepartition:
      for (const Order& o : d.orders) {
        const Customer& c = d.customers[o.cust];
        if (c.region == q.a && o.amount < q.b) add(c.tier, o.amount);
      }
      out = GroupRows(groups);
      break;
    case kIndexPoint:
      for (const Order& o : d.orders) {
        if (o.cust == q.a) out.push_back({o.id, o.amount});
      }
      break;
    case kRowFilter: {
      int64_t n = 0, sum = 0;
      for (const Order& o : d.orders) {
        if (o.amount < o.qty * q.a) {
          ++n;
          sum += o.amount;
        }
      }
      out.push_back({n, n > 0 ? Cell(sum) : std::nullopt});
      break;
    }
    case kFallback:
      for (const Customer& c : d.customers) {
        if (c.region == q.a) out.push_back({q.a, c.id});
      }
      if (out.empty()) out.push_back({q.a, std::nullopt});
      break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<Rows> Canonical(const ofi::sql::Table& t) {
  Rows out;
  for (const auto& row : t.rows()) {
    std::vector<Cell> r;
    for (const auto& v : row) {
      if (v.is_null()) {
        r.push_back(std::nullopt);
      } else if (v.type() == ofi::sql::TypeId::kInt64) {
        r.push_back(v.AsInt());
      } else {
        return std::nullopt;  // every benchmark column is BIGINT
      }
    }
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Does the realized execution of the last SELECT match the path its shape
/// was chosen for?
bool ShapeHeld(Shape s, const DistributedSqlSession::QueryInfo& info) {
  auto all_paths = [&info](auto pred) {
    if (info.stats.per_dn.empty()) return false;
    for (const auto& dn : info.stats.per_dn) {
      if (!pred(dn.path)) return false;
    }
    return true;
  };
  const auto& st = info.stats;
  switch (s) {
    case kAgg:
      return info.distributed && !st.joined &&
             all_paths([](const std::string& p) { return p == "columnar(grouped-kernel)"; });
    case kBroadcast:
      return info.distributed && st.joined && st.strategy == JoinStrategy::kBroadcast;
    case kRepartition:
      return info.distributed && st.joined && st.strategy == JoinStrategy::kRepartition;
    case kIndexPoint:
      return info.distributed &&
             all_paths([](const std::string& p) { return p.rfind("index", 0) == 0; });
    case kRowFilter:
      return info.distributed && !st.joined &&
             all_paths([](const std::string& p) { return p == "row"; });
    case kFallback:
      return !info.distributed &&
             info.fallback_reason == "only inner joins run distributed";
  }
  return false;
}

// --- Setup ------------------------------------------------------------------

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// "(f1,f2,...)": one row of a multi-row INSERT.
std::string Tuple(std::initializer_list<std::string> fields) {
  std::string out = "(";
  for (const std::string& f : fields) {
    if (out.size() > 1) out += ",";
    out += f;
  }
  return out + ")";
}

std::string OrderTuple(const Order& o) {
  return Tuple({std::to_string(o.id), std::to_string(o.cust), std::to_string(o.region),
                std::to_string(o.amount), std::to_string(o.qty)});
}

bool Exec(DistributedSqlSession* s, const std::string& stmt, Report* report) {
  auto r = s->Execute(stmt);
  report->Check(r.ok(), "setup statement failed: " + r.status().ToString());
  return r.ok();
}

/// Loads `tuples` into `table` through multi-row INSERT statements.
bool InsertAll(DistributedSqlSession* s, const std::string& table,
               const std::vector<std::string>& tuples, Report* report) {
  for (size_t base = 0; base < tuples.size(); base += kInsertBatch) {
    std::string stmt = "INSERT INTO " + table + " VALUES ";
    for (size_t i = base; i < std::min(tuples.size(), base + kInsertBatch); ++i) {
      if (i != base) stmt += ",";
      stmt += tuples[i];
    }
    if (!Exec(s, stmt, report)) return false;
  }
  return true;
}

std::unique_ptr<DistributedSqlSession> Load(const Dataset& d, Report* report) {
  auto s = std::make_unique<DistributedSqlSession>(kDns);
  bool ok =
      Exec(s.get(),
           "CREATE TABLE orders (o_id BIGINT, o_cust BIGINT, o_region BIGINT, "
           "o_amount BIGINT, o_qty BIGINT)", report) &&
      Exec(s.get(),
           "CREATE TABLE customers (c_id BIGINT, c_region BIGINT, c_tier BIGINT, "
           "c_name VARCHAR, c_address VARCHAR, c_phone VARCHAR, c_comment VARCHAR)",
           report) &&
      Exec(s.get(), "CREATE TABLE regions (r_id BIGINT, r_zone BIGINT)", report);
  std::vector<std::string> regions, customers, orders;
  for (int64_t r = 0; r < kRegions; ++r) {
    regions.push_back(Tuple({std::to_string(r), std::to_string(d.region_zone[r])}));
  }
  for (const Customer& c : d.customers) {
    customers.push_back(Tuple({std::to_string(c.id), std::to_string(c.region),
                               std::to_string(c.tier), Quote(c.name), Quote(c.address),
                               Quote(c.phone), Quote(c.comment)}));
  }
  for (const Order& o : d.orders) orders.push_back(OrderTuple(o));
  ok = ok && InsertAll(s.get(), "regions", regions, report) &&
       InsertAll(s.get(), "customers", customers, report) &&
       InsertAll(s.get(), "orders", orders, report) &&
       Exec(s.get(), "CREATE INDEX orders_cust ON orders (o_cust)", report);
  if (!ok) return nullptr;
  auto st = s->RegisterColumnar("orders");
  report->Check(st.ok(), "RegisterColumnar: " + st.ToString());
  s->Analyze();
  return s;
}

/// Builds the dataset (several times when measuring setup_s; the last
/// session is kept) and checks that each shape's EXPLAIN shows its path.
std::unique_ptr<DistributedSqlSession> Setup(const Args& args, const Dataset& d,
                                             RefClock* clock, Report* report) {
  std::vector<double> setups, setups_cpu, setups_wall;
  std::unique_ptr<DistributedSqlSession> s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    s.reset();
    const double t0 = NowSeconds();
    const double c0 = CpuSeconds();
    s = Load(d, report);
    setups_cpu.push_back(CpuSeconds() - c0);
    setups_wall.push_back(NowSeconds() - t0);
    setups.push_back(clock->ToRef(setups_cpu.back()));
    if (s == nullptr) return nullptr;
  }
  if (!args.trace) {
    report->Set("setup_s", Median(setups), setups.size(), Label::kRef);
    report->Set("setup_cpu_s", Median(setups_cpu), setups.size(), Label::kCpu, "s");
    report->Set("setup_wall_s", Median(setups_wall), setups.size(), Label::kWall, "s");
  }
  Rng rng(args.seed ^ 0x5eed);
  for (int sh = 0; sh < kNumShapes; ++sh) {
    auto e = s->Explain(MakeQuery(static_cast<Shape>(sh), &rng).sql);
    report->Check(e.ok() && e->find(kShapeExplain[sh]) != std::string::npos,
                  std::string("EXPLAIN of ") + kShapeNames[sh] + " lacks '" +
                      kShapeExplain[sh] + "'");
  }
  return s;
}

// --- Measurement ---------------------------------------------------------------

/// FNV-1a over the answers (and simulated latencies) of a run's first
/// statements: equal at equal seeds, the self-check's determinism probe.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  void Add(const Rows& rows) {
    for (const auto& r : rows) {
      for (const Cell& c : r) Add(c.value_or(INT64_MIN));
    }
    Add(-1);
  }
};

struct Samples {
  explicit Samples(RefClock* clock) : ops_per_ref(clock, kRefChunkCpuS) {}
  RefRate ops_per_ref;  // untraced statements only
  std::vector<double> read_wall_us, write_wall_us, read_sim_us;
  std::vector<double> exec_us[kNumShapes], sim_us[kNumShapes];
  std::vector<double> parse_us, plan_us;
  double untraced_wall_s = 0, traced_wall_s = 0;
  double untraced_cpu_s = 0;  // process CPU time of untraced statements
  size_t untraced_ops = 0, traced_ops = 0;
  // Counted from each statement's first run only (see RunSelect).
  size_t selects = 0, fallbacks = 0, joins = 0, columnar_scans = 0;
  double join_bytes = 0, join_batches = 0;
  ofi::storage::ScanStats scan;
  int64_t index_lookups = 0, index_rows = 0;
  Digest inputs, answers;
  size_t statements = 0;
};

void CountOp(bool traced, double wall_s, double cpu_s, Samples* s) {
  (traced ? s->traced_wall_s : s->untraced_wall_s) += wall_s;
  if (!traced) {
    s->untraced_cpu_s += cpu_s;
    s->ops_per_ref.Add(1, cpu_s);
  }
  ++(traced ? s->traced_ops : s->untraced_ops);
  ++s->statements;
}

/// Runs one SELECT on an idle cluster, checks its answer and path, and
/// returns its simulated latency (-1 when it ran single-node or failed).
/// Its simulated latency and counters enter `out` only on the statement's
/// `first_run`, so the exact metrics do not depend on how many times the
/// run time let olap repeat its statement list.
double RunSelect(DistributedSqlSession* s, const Query& q, const Rows& expected,
                 bool traced, bool first_run, Samples* out, Report* report) {
  s->cluster().ResetSimTime();
  double t0 = NowSeconds();
  double plan_s = 0;
  if (traced) {
    auto parsed = ofi::sql::Parse(q.sql);
    const double t1 = NowSeconds();
    out->parse_us.push_back((t1 - t0) * 1e6);
    auto e = s->Explain(q.sql);
    plan_s = NowSeconds() - t1;
    out->plan_us.push_back(plan_s * 1e6);
    report->Check(parsed.ok() && e.ok(), "traced parse/EXPLAIN failed: " + q.sql);
  }
  const double e0 = NowSeconds();
  const double c0 = CpuSeconds();
  auto r = s->Execute(q.sql);
  const double exec_s = NowSeconds() - e0;
  CountOp(traced, NowSeconds() - t0, CpuSeconds() - c0, out);
  out->read_wall_us.push_back(exec_s * 1e6);
  // Execute wall minus Explain wall: execution without the parse, plan and
  // lowering that optimizer.plan_us already counts.
  if (traced) out->exec_us[q.shape].push_back((exec_s - plan_s) * 1e6);

  const auto& info = s->last();
  std::optional<Rows> got;
  if (r.ok()) got = Canonical(*r);
  const bool answer_ok = got.has_value() && *got == expected;
  const bool shape_ok = r.ok() && ShapeHeld(q.shape, info);
  report->Attempt(r.ok() && answer_ok && shape_ok,
                  std::string(kShapeNames[q.shape]) + ": " +
                      (!r.ok() ? r.status().ToString()
                       : !answer_ok ? "wrong answer"
                                    : "left its path") + " for " + q.sql);
  if (out->statements <= kDigestStatements) {
    out->inputs.Add(q.sql);
    out->answers.Add(got.value_or(Rows{}));
  }
  const bool lowered = r.ok() && info.distributed;
  const auto& st = info.stats;
  const double sim = lowered ? static_cast<double>(st.sim_latency_us) : -1;
  if (!first_run) return sim;
  ++out->selects;
  if (!lowered) {
    ++out->fallbacks;
    return sim;
  }
  out->read_sim_us.push_back(sim);
  out->sim_us[q.shape].push_back(sim);
  out->scan.MergeFrom(st.scan_stats);
  if (st.joined) {
    ++out->joins;
    out->join_bytes += static_cast<double>(st.shuffle_bytes + st.broadcast_bytes);
    out->join_batches += static_cast<double>(st.exchange_batches);
  }
  for (const auto& dn : st.per_dn) {
    if (dn.path.rfind("columnar", 0) == 0) {
      ++out->columnar_scans;
      break;
    }
  }
  return sim;
}

/// Index probes, and the rows they returned, since the cluster metrics were
/// last reset.
void CountIndexProbes(DistributedSqlSession* sess, Samples* s) {
  const auto& m = sess->cluster().metrics();
  s->index_lookups = m.Get("index.lookups");
  s->index_rows = m.Get("index.rows_returned");
}

void TimeAnalyze(DistributedSqlSession* s, Report* report) {
  auto mirror = s->catalog().Get("orders");
  if (!mirror.ok()) return;
  std::vector<double> us;
  for (int i = 0; i < 5; ++i) {
    double t0 = NowSeconds();
    auto stats = ofi::optimizer::AnalyzeTable(**mirror);
    us.push_back((NowSeconds() - t0) * 1e6);
    report->Check(stats.num_rows > 0, "AnalyzeTable saw no rows");
  }
  report->Set("optimizer.analyze_us", Median(us), us.size(), Label::kWall);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Reports what both SQL workloads share. `sim_label` is kExact for olap
/// (read-only, one client) and kTiming for htap (background merges).
void ReportSql(const Args& args, const Samples& s, Label sim_label,
               DistributedSqlSession* sess, Report* report) {
  report->Note("inputs_digest=" + std::to_string(s.inputs.h));
  report->Note("answers_digest=" + std::to_string(s.answers.h));
  report->Set("read_p50_us", Percentile(s.read_wall_us, 50), s.read_wall_us.size(),
              Label::kWall, "us");
  report->Set("read_p99_us", Percentile(s.read_wall_us, 99), s.read_wall_us.size(),
              Label::kWall, "us");
  if (!args.trace) {
    const size_t ops = s.untraced_ops;
    report->Set("ops_per_ref_s", s.ops_per_ref.Median(), ops, Label::kRef);
    report->Note("ops_per_ref_s per chunk: " + s.ops_per_ref.Chunks());
    report->Set("ops_per_cpu_s", static_cast<double>(ops) / s.untraced_cpu_s, ops,
                Label::kCpu, "1/s");
    report->Set("ops_per_s", static_cast<double>(ops) / s.untraced_wall_s, ops,
                Label::kWall, "1/s");
    // sim_p50_us / sim_p99_us are the read_sim_* of the SQL workloads.
    for (int p : {50, 99}) {
      const double v = Percentile(s.read_sim_us, p);
      report->Set("sim_p" + std::to_string(p) + "_us", v, s.read_sim_us.size(), sim_label);
      report->Set("read_sim_p" + std::to_string(p) + "_us", v, s.read_sim_us.size(),
                  sim_label, "us");
    }
    report->Set("sim_ops_per_s",
                static_cast<double>(s.read_sim_us.size()) / (Sum(s.read_sim_us) / 1e6),
                s.read_sim_us.size(), sim_label);
    report->Set("peak_rss_mb", PeakRssMb(), 1, Label::kWall);
    report->Check(SamplesBeyond(s.read_sim_us.size(), 99) >= 10,
                  "too few lowered SELECTs for a p99");
    return;
  }
  report->Set("sql.parse_us", Median(s.parse_us), s.parse_us.size(), Label::kWall);
  report->Set("optimizer.plan_us", Median(s.plan_us), s.plan_us.size(), Label::kWall);
  for (int sh = 0; sh < kNumShapes; ++sh) {
    const std::string name = kShapeNames[sh];
    report->Set("cluster.exec_us." + name, Median(s.exec_us[sh]), s.exec_us[sh].size(),
                Label::kWall);
    // A fallback runs single-node: it has no simulated latency.
    if (sh != kFallback) {
      report->Set("cluster.sim_us." + name, Median(s.sim_us[sh]), s.sim_us[sh].size(),
                  sim_label);
    }
  }
  report->Set("cluster.fallback_frac",
              static_cast<double>(s.fallbacks) / static_cast<double>(s.selects),
              s.selects, Label::kExact);
  const double joins = static_cast<double>(std::max<size_t>(1, s.joins));
  report->Set("exchange.bytes_per_join", s.join_bytes / joins, s.joins, sim_label);
  report->Set("exchange.batches_per_join", s.join_batches / joins, s.joins, sim_label);
  report->Set("storage.rows_decoded_per_row_returned",
              static_cast<double>(s.scan.rows_decoded) /
                  static_cast<double>(std::max<size_t>(1, s.scan.rows_matched)),
              s.scan.rows_matched, sim_label);
  report->Set("storage.chunks_pruned_frac",
              static_cast<double>(s.scan.chunks_pruned) /
                  static_cast<double>(std::max<size_t>(1, s.scan.chunks_total)),
              s.scan.chunks_total, sim_label);
  report->Set("storage.index_rows_per_probe",
              static_cast<double>(s.index_rows) /
                  static_cast<double>(std::max<int64_t>(1, s.index_lookups)),
              static_cast<size_t>(s.index_lookups), Label::kExact);
  const double traced = static_cast<double>(s.traced_ops) / s.traced_wall_s;
  const double untraced = static_cast<double>(s.untraced_ops) / s.untraced_wall_s;
  report->Set("trace.overhead_frac", 1.0 - traced / untraced, s.traced_ops, Label::kWall);
  report->Note("trace: untraced_ops_per_s=" + std::to_string(untraced) +
               " traced_ops_per_s=" + std::to_string(traced));
  TimeAnalyze(sess, report);
}

}  // namespace

void RunOlapWorkload(const Args& args, Report* report) {
  Rng rng(args.seed);
  const Dataset d = Generate(&rng);
  RefClock clock;
  auto sess = Setup(args, d, &clock, report);
  if (sess == nullptr) return;
  if (args.trace) TimeChargeProbe(sess->cluster(), report);
  // Index probes counted from here on: the measured phase only.
  sess->cluster().metrics().Reset();

  // The fixed statement list: shapes drawn from the mix until enough of them
  // lower onto the cluster for a p99 of simulated latency.
  std::vector<Query> queries;
  size_t lowered = 0;
  while (lowered < kMinSimSamples) {
    queries.push_back(MakeQuery(DrawShape(&rng), &rng));
    if (queries.back().shape != kFallback) ++lowered;
  }
  std::vector<Rows> expected;
  for (const Query& q : queries) expected.push_back(Expected(d, q));

  Samples s(&clock);
  std::vector<double> first_sim(queries.size());
  const double start = NowSeconds();
  auto time_up = [&] { return NowSeconds() - start >= args.seconds; };
  // The first pass always completes; repeats run until the time is used.
  for (int pass = 0; pass == 0 || !time_up(); ++pass) {
    for (size_t i = 0; i < queries.size() && (pass == 0 || !time_up()); ++i) {
      const bool traced = args.trace && s.statements % 2 == 1;
      const double sim = RunSelect(sess.get(), queries[i], expected[i], traced,
                                   pass == 0, &s, report);
      if (pass == 0) {
        first_sim[i] = sim;
      } else {
        report->Check(sim == first_sim[i],
                      "simulated latency changed on repeat: " + queries[i].sql);
      }
    }
    if (pass == 0) CountIndexProbes(sess.get(), &s);
  }
  s.ops_per_ref.Finish();
  report->Note("olap: orders=16384 customers=2048 regions=16 statements_per_pass=" +
               std::to_string(queries.size()) + " statements=" +
               std::to_string(s.statements));
  ReportSql(args, s, Label::kExact, sess.get(), report);
}

void RunHtapWorkload(const Args& args, Report* report) {
  Rng rng(args.seed);
  Dataset d = Generate(&rng);
  RefClock clock;
  auto sess = Setup(args, d, &clock, report);
  if (sess == nullptr) return;
  if (args.trace) TimeChargeProbe(sess->cluster(), report);
  sess->cluster().set_delta_merge_threshold(kHtapMergeThreshold);
  sess->cluster().metrics().Reset();

  Samples s(&clock);
  size_t writes = 0, rows_written = 0;
  // A fixed statement count, not --seconds: a faster program must not write
  // more rows or trigger more merges than a slower one.
  while (s.read_sim_us.size() < kMinSimSamples || writes < kMinWrites) {
    const bool traced = args.trace && s.statements % 2 == 1;
    if (s.statements % (kReadsPerWrite + 1) == kReadsPerWrite) {
      std::vector<Order> batch;
      std::string stmt = "INSERT INTO orders VALUES ";
      for (int i = 0; i < kWriteRows; ++i) {
        batch.push_back(NewOrder(&d, &rng));
        if (i > 0) stmt += ",";
        stmt += OrderTuple(batch.back());
      }
      sess->cluster().ResetSimTime();
      const double t0 = NowSeconds();
      if (traced) {
        auto parsed = ofi::sql::Parse(stmt);
        s.parse_us.push_back((NowSeconds() - t0) * 1e6);
        report->Check(parsed.ok(), "traced parse of INSERT failed");
      }
      const double e0 = NowSeconds();
      const double c0 = CpuSeconds();
      auto r = sess->Execute(stmt);
      s.write_wall_us.push_back((NowSeconds() - e0) * 1e6);
      CountOp(traced, NowSeconds() - t0, CpuSeconds() - c0, &s);
      report->Attempt(r.ok(), "INSERT failed: " + r.status().ToString());
      ++writes;
      if (r.ok()) {
        rows_written += batch.size();
        d.orders.insert(d.orders.end(), batch.begin(), batch.end());
      }
      if (s.statements <= kDigestStatements) s.inputs.Add(stmt);
      continue;
    }
    const Query q = MakeQuery(DrawShape(&rng), &rng);
    RunSelect(sess.get(), q, Expected(d, q), traced, true, &s, report);
  }
  s.ops_per_ref.Finish();
  sess->cluster().WaitForMerges();
  CountIndexProbes(sess.get(), &s);
  auto& m = sess->cluster().metrics();
  const int64_t merges = m.Get("columnar.merges");
  report->Note("htap: merge_threshold=" + std::to_string(kHtapMergeThreshold) +
               " rows_written=" + std::to_string(rows_written) +
               " merges=" + std::to_string(merges) +
               " statements=" + std::to_string(s.statements));
  report->Set("write_p50_us", Percentile(s.write_wall_us, 50), s.write_wall_us.size(),
              Label::kWall, "us");
  report->Set("write_p95_us", Percentile(s.write_wall_us, 95), s.write_wall_us.size(),
              Label::kWall, "us");
  if (args.trace) {
    const double written = static_cast<double>(std::max<size_t>(1, rows_written));
    report->Set("storage.index_maintenance_per_write",
                static_cast<double>(m.Get("index.maintenance_ops")) / written,
                rows_written, Label::kExact);
    report->Set("storage.delta_rows_per_scan",
                static_cast<double>(s.scan.delta_rows) /
                    static_cast<double>(std::max<size_t>(1, s.columnar_scans)),
                s.columnar_scans, Label::kTiming);
    report->Set("storage.merges", static_cast<double>(merges), 1, Label::kTiming);
    report->Set("storage.merge_rows", static_cast<double>(m.Get("columnar.merge_rows")),
                1, Label::kTiming);
  }
  ReportSql(args, s, Label::kTiming, sess.get(), report);
}

}  // namespace perfbench
