/// Golden values for every leaf-fragment flavour and both join strategies:
/// each case runs one distributed plan on a fixed 4-DN data set and pins
/// its simulated latency, the realized per-DN scan path, the scan counters,
/// the byte accounting and the answer rows. Join cases also pin the
/// per-channel exchange traffic; they run under the barrier and the
/// pipelined schedule, and one with a capped (spilling) channel window.
/// The executor's per-DN charge order decides the simulated numbers, so
/// any refactor of the fragment drivers that reorders or drops a charge
/// shows up here as a changed figure, not just as a changed ratio between
/// two runs.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/distributed_plan.h"

namespace ofi::cluster {
namespace {

using sql::AggFunc;
using sql::Column;
using sql::Expr;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

constexpr int64_t kSalesRows = 18000;  // ~4.5k per DN: two sealed chunks
constexpr int64_t kDeltaRows = 40;     // unmerged tail after registration
constexpr int64_t kPtsRows = 4000;

/// sales(id, region, k, amount): amount = id / 10 (so an amount range maps
/// to an id range and zone maps prune), NULL every 97th row; 40 rows land
/// in the columnar delta tail. dims(d_k, d_name, d_w): 16 join partners for
/// sales.k. pts(pk, grp, val): hash index on the shard key pk, ordered index
/// on grp.
class LeafFragmentGoldenTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new Cluster(4, Protocol::kGtmLite);
    Cluster& c = *cluster_;
    ASSERT_TRUE(c.CreateTable("sales",
                              Schema({Column{"id", TypeId::kInt64, ""},
                                      Column{"region", TypeId::kString, ""},
                                      Column{"k", TypeId::kInt64, ""},
                                      Column{"amount", TypeId::kInt64, ""}}))
                    .ok());
    ASSERT_TRUE(c.CreateTable("dims",
                              Schema({Column{"d_k", TypeId::kInt64, ""},
                                      Column{"d_name", TypeId::kString, ""},
                                      Column{"d_w", TypeId::kInt64, ""}}))
                    .ok());
    ASSERT_TRUE(c.CreateTable("pts",
                              Schema({Column{"pk", TypeId::kInt64, ""},
                                      Column{"grp", TypeId::kInt64, ""},
                                      Column{"val", TypeId::kInt64, ""}}))
                    .ok());
    const char* regions[] = {"east", "west", "north", "south"};
    auto insert = [&c](const std::string& table, Row row) {
      Txn txn = c.Begin(TxnScope::kSingleShard);
      Value key = row[0];
      ASSERT_TRUE(txn.Insert(table, key, std::move(row)).ok());
      ASSERT_TRUE(txn.Commit().ok());
    };
    auto sales_row = [&regions](int64_t i) {
      return Row{Value(i), Value(regions[i % 4]), Value(i % 16),
                 i % 97 == 0 ? Value::Null() : Value(i / 10)};
    };
    for (int64_t i = 0; i < kSalesRows; ++i) insert("sales", sales_row(i));
    for (int64_t d = 0; d < 16; ++d) {
      insert("dims", {Value(d), Value("n" + std::to_string(d % 3)),
                      Value(d * 7)});
    }
    for (int64_t i = 0; i < kPtsRows; ++i) {
      insert("pts", {Value(i), Value(i % 50), Value(i * 3)});
    }
    ASSERT_TRUE(c.CreateIndex("pts", "pk").ok());
    ASSERT_TRUE(c.CreateIndex("pts", "grp", /*ordered=*/true).ok());
    c.set_auto_merge(false);
    ASSERT_TRUE(c.RegisterColumnar("sales").ok());
    for (int64_t i = kSalesRows; i < kSalesRows + kDeltaRows; ++i) {
      insert("sales", sales_row(i));
    }
  }

  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  static Cluster* cluster_;
};

Cluster* LeafFragmentGoldenTest::cluster_ = nullptr;

DistOpPtr Fused(DistOpPtr core, std::vector<std::string> group_by,
                std::vector<DistributedAgg> aggs) {
  return MakeDistFinalAgg(
      MakeGather(MakeDistPartialAgg(std::move(core), group_by, aggs),
                 /*gather_rows=*/false),
      group_by, aggs);
}

DistOpPtr Rows(DistOpPtr core) {
  return MakeGather(std::move(core), /*gather_rows=*/true);
}

DistOpPtr IndexEq(const std::string& column, size_t col, Value key,
                  sql::ExprPtr residual, int probe_shard = -1) {
  DistOpPtr op = MakeDistIndexScan("pts", std::move(residual), column, col);
  op->probe_eq = std::move(key);
  op->probe_shard = probe_shard;
  return op;
}

DistOpPtr SalesDimsJoin(JoinStrategy strategy, sql::ExprPtr sales_filter,
                        ScanPath sales_path = ScanPath::kRow) {
  return MakeDistHashJoin(
      MakeDistScan("sales", std::move(sales_filter), sales_path),
      MakeDistScan("dims", nullptr), "k", "d_k", nullptr, strategy);
}

std::string StatsString(const storage::ScanStats& s) {
  return "c" + std::to_string(s.chunks_total) + "/" +
         std::to_string(s.chunks_scanned) + "/" +
         std::to_string(s.chunks_pruned) + " d" +
         std::to_string(s.rows_decoded) + " m" +
         std::to_string(s.rows_matched) + " mo" + std::to_string(s.morsels) +
         " dt" + std::to_string(s.delta_rows) + " ix" +
         std::to_string(s.index_rows);
}

/// Everything the case pins, in one comparable line.
std::string Fingerprint(const DistPlanResult& r) {
  const DistExecStats& st = r.stats;
  std::string s = "sim=" + std::to_string(st.sim_latency_us) +
                  " dns=" + std::to_string(st.num_serving) +
                  " bytes=" + std::to_string(st.partial_bytes) + "/" +
                  std::to_string(st.naive_bytes) + "/" +
                  std::to_string(st.result_bytes) +
                  " col=" + std::to_string(st.columnar_shards) +
                  " scan=[" + StatsString(st.scan_stats) + "]";
  for (const auto& info : st.per_dn) {
    s += " dn" + std::to_string(info.dn) + ":" + info.table + ":" + info.path +
         "[" + StatsString(info.stats) + "]";
  }
  if (st.joined) {
    s += std::string(" join=") + ToString(st.strategy) +
         (st.broadcast_left ? "/left" : "/right") +
         " x=" + std::to_string(st.shuffle_bytes) + "/" +
         std::to_string(st.broadcast_bytes) + "/" +
         std::to_string(st.exchange_batches) + " ch=[";
    for (size_t i = 0; i < st.channels.size(); ++i) {
      const exchange::ChannelStats& ch = st.channels[i];
      s += (i > 0 ? " " : "") + std::to_string(ch.src) + ">" +
           std::to_string(ch.dst) + ":" + std::to_string(ch.bytes) + "/" +
           std::to_string(ch.batches);
    }
    s += "]";
    if (st.pipelined) {
      // Real spill counters are not pinned here: with consumers draining
      // concurrently they depend on thread timing.
      s += " pipe overlap=" + std::to_string(st.pipeline_overlap_us) +
           " streamed=" + std::to_string(st.batches_streamed);
    } else {
      s += " spill=" + std::to_string(st.spill_bytes) + "/" +
           std::to_string(st.spill_segments);
    }
  }
  std::vector<std::string> rows;
  for (const Row& row : r.table.rows()) {
    std::string line;
    for (const Value& v : row) {
      if (!line.empty()) line += ",";
      line += v.is_null() ? "NULL" : v.ToString();
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  s += " rows=" + std::to_string(rows.size()) + ":";
  for (const auto& line : rows) s += " (" + line + ")";
  return s;
}

struct GoldenCase {
  const char* name;
  std::function<DistOpPtr(Cluster*)> plan;
  bool force_materialize;
  const char* golden;
  bool pipeline = false;
  size_t max_channel_bytes = 0;
};

const std::vector<GoldenCase>& Cases() {
  static const std::vector<GoldenCase> cases = {
      {"RowScanFiltered",
       [](Cluster*) {
         return Rows(MakeDistScan("sales", Expr::Lt("amount", Value(1)),
                                  ScanPath::kRow));
       },
       false,
       "sim=418 dns=4 bytes=0/584998/380 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] rows=9: (1,'west',1,0) "
       "(2,'north',2,0) (3,'south',3,0) (4,'east',4,0) (5,'west',5,0) "
       "(6,'north',6,0) (7,'south',7,0) (8,'east',8,0) (9,'west',9,0)"},
      {"RowScanFused",
       [](Cluster*) {
         return Fused(MakeDistScan("sales", Expr::Lt("amount", Value(500)),
                                   ScanPath::kRow),
                      {"region"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"},
                       {AggFunc::kAvg, "amount", "a"}});
       },
       false,
       "sim=416 dns=4 bytes=162/584998/0 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] rows=4: "
       "('east',1237,308729,249.578820) ('north',1237,308726,249.576395) "
       "('south',1237,308602,249.476152) ('west',1237,308604,249.477769)"},
      {"RowFilterNotRecognized",
       [](Cluster*) {
         return Fused(
             MakeDistScan("sales",
                          Expr::Or(Expr::Lt("amount", Value(3)),
                                   Expr::Gt("amount", Value(1799))),
                          ScanPath::kColumnar),
             {}, {{AggFunc::kCount, "", "n"}, {AggFunc::kMax, "id", "m"}});
       },
       false,
       "sim=416 dns=4 bytes=64/584998/0 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row(filter)[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn1:sales:row(filter)[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:sales:row(filter)[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row(filter)[c0/0/0 d0 m0 mo0 dt0 ix0] rows=1: "
       "(69,18039)"},
      {"ColumnarKernel",
       [](Cluster*) {
         return Fused(MakeDistScan("sales", Expr::Lt("amount", Value(100)),
                                   ScanPath::kColumnar),
                      {},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"},
                       {AggFunc::kMin, "amount", "lo"},
                       {AggFunc::kMax, "amount", "hi"}});
       },
       false,
       "sim=184 dns=4 bytes=128/586300/0 col=4 scan=[c32/16/4 d55910 m989 "
       "mo4 dt40 ix0] dn0:sales:columnar(kernel)[c8/4/1 d13977 m247 mo1 "
       "dt10 ix0] dn1:sales:columnar(kernel)[c8/4/1 d13978 m247 mo1 dt10 "
       "ix0] dn2:sales:columnar(kernel)[c8/4/1 d13978 m247 mo1 dt10 ix0] "
       "dn3:sales:columnar(kernel)[c8/4/1 d13977 m248 mo1 dt10 ix0] "
       "rows=1: (989,48971,0,99)"},
      {"ColumnarGroupedKernel",
       [](Cluster*) {
         return Fused(MakeDistScan("sales", Expr::Ge("amount", Value(1700)),
                                   ScanPath::kColumnar),
                      {"region"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"}});
       },
       false,
       "sim=181 dns=4 bytes=98/586300/0 col=4 scan=[c24/12/12 d2649 m994 "
       "mo8 dt40 ix0] dn0:sales:columnar(grouped-kernel)[c6/3/3 d661 m248 "
       "mo2 dt10 ix0] dn1:sales:columnar(grouped-kernel)[c6/3/3 d662 m248 "
       "mo2 dt10 ix0] dn2:sales:columnar(grouped-kernel)[c6/3/3 d663 m249 "
       "mo2 dt10 ix0] dn3:sales:columnar(grouped-kernel)[c6/3/3 d663 m249 "
       "mo2 dt10 ix0] rows=4: ('east',257,450127) ('north',258,451925) "
       "('south',258,451905) ('west',257,450099)"},
      {"ColumnarForcedMaterialize",
       [](Cluster*) {
         return Fused(MakeDistScan("sales", Expr::Ge("amount", Value(1700)),
                                   ScanPath::kColumnar),
                      {"region"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"}});
       },
       true,
       "sim=187 dns=4 bytes=98/586300/0 col=4 scan=[c40/20/20 d4629 m990 "
       "mo4 dt40 ix0] dn0:sales:columnar(materialize:forced)[c10/5/5 "
       "d1155 m247 mo1 dt10 ix0] "
       "dn1:sales:columnar(materialize:forced)[c10/5/5 d1156 m247 mo1 "
       "dt10 ix0] dn2:sales:columnar(materialize:forced)[c10/5/5 d1159 "
       "m248 mo1 dt10 ix0] dn3:sales:columnar(materialize:forced)[c10/5/5 "
       "d1159 m248 mo1 dt10 ix0] rows=4: ('east',257,450127) "
       "('north',258,451925) ('south',258,451905) ('west',257,450099)"},
      {"ColumnarPlainScan",
       [](Cluster*) {
         return Rows(MakeDistScan("sales", Expr::Eq("amount", Value(1802)),
                                  ScanPath::kColumnar));
       },
       false,
       "sim=174 dns=4 bytes=0/586300/420 col=4 scan=[c40/0/40 d0 m0 mo4 "
       "dt40 ix0] dn0:sales:columnar(materialize)[c10/0/10 d0 m0 mo1 dt10 "
       "ix0] dn1:sales:columnar(materialize)[c10/0/10 d0 m0 mo1 dt10 ix0] "
       "dn2:sales:columnar(materialize)[c10/0/10 d0 m0 mo1 dt10 ix0] "
       "dn3:sales:columnar(materialize)[c10/0/10 d0 m0 mo1 dt10 ix0] "
       "rows=10: (18020,'east',4,1802) (18021,'west',5,1802) "
       "(18022,'north',6,1802) (18023,'south',7,1802) "
       "(18024,'east',8,1802) (18025,'west',9,1802) "
       "(18026,'north',10,1802) (18027,'south',11,1802) "
       "(18028,'east',12,1802) (18029,'west',13,1802)"},
      {"IndexPointProbe",
       [](Cluster*) {
         return Rows(IndexEq("grp", 1, Value(7),
                             Expr::And(Expr::Eq("grp", Value(7)),
                                       Expr::Lt("val", Value(600)))));
       },
       false,
       "sim=208 dns=4 bytes=0/1920/140 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix80] dn0:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn1:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix40] "
       "dn2:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix40] rows=4: (107,7,321) "
       "(157,7,471) (57,7,171) (7,7,21)"},
      {"IndexShardKeyProbe",
       [](Cluster* c) {
         return Rows(IndexEq("pk", 0, Value(1234), Expr::Eq("pk", Value(1234)),
                             c->ShardFor(Value(1234))));
       },
       false,
       "sim=64 dns=1 bytes=0/24/35 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 ix1] "
       "dn2:pts:index(pk)[c0/0/0 d0 m0 mo0 dt0 ix1] rows=1: "
       "(1234,34,3702)"},
      {"IndexRangeProbeFused",
       [](Cluster*) {
         DistOpPtr op = MakeDistIndexScan(
             "pts",
             Expr::And(Expr::Ge("grp", Value(3)), Expr::Le("grp", Value(4))),
             "grp", 1);
         op->probe_is_range = true;
         op->probe_lo = Value(3);
         op->probe_hi = Value(4);
         return Fused(op, {"grp"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "val", "s"},
                       {AggFunc::kAvg, "val", "a"}});
       },
       false,
       "sim=206 dns=4 bytes=160/3840/0 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix160] dn0:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix40] "
       "dn1:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix40] "
       "dn2:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix40] "
       "dn3:pts:index(grp)[c0/0/0 d0 m0 mo0 dt0 ix40] rows=2: "
       "(3,80,474720,5934.000000) (4,80,474960,5937.000000)"},
      {"BroadcastJoin",
       [](Cluster*) {
         return Rows(SalesDimsJoin(JoinStrategy::kBroadcast,
                                   Expr::Lt("amount", Value(1))));
       },
       false,
       "sim=663 dns=4 bytes=0/860/605 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=broadcast/left x=0/1140/12 ch=[0>0:84/1 0>1:84/1 "
       "0>2:84/1 0>3:84/1 1>0:124/1 1>1:124/1 1>2:124/1 1>3:124/1 2>0:86/1 "
       "2>1:86/1 2>2:86/1 2>3:86/1 3>0:86/1 3>1:86/1 3>2:86/1 3>3:86/1] "
       "spill=0/0 rows=9: (1,'west',1,0,1,'n1',7) "
       "(2,'north',2,0,2,'n2',14) (3,'south',3,0,3,'n0',21) "
       "(4,'east',4,0,4,'n1',28) (5,'west',5,0,5,'n2',35) "
       "(6,'north',6,0,6,'n0',42) (7,'south',7,0,7,'n1',49) "
       "(8,'east',8,0,8,'n2',56) (9,'west',9,0,9,'n0',63)"},
      {"BroadcastJoinFusedColumnarInput",
       [](Cluster*) {
         return Fused(SalesDimsJoin(JoinStrategy::kBroadcast,
                                    Expr::Lt("amount", Value(900)),
                                    ScanPath::kColumnar),
                      {"d_name"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"}});
       },
       false,
       "sim=432 dns=4 bytes=264/361774/0 col=4 "
       "scan=[c40/20/20 d42386 m8907 mo4 dt40 "
       "ix0] dn0:sales:columnar(materialize)[c10/5/5 d10593 m2226 mo1 dt10 "
       "ix0] dn1:sales:columnar(materialize)[c10/5/5 d10598 m2227 mo1 dt10 "
       "ix0] dn2:sales:columnar(materialize)[c10/5/5 d10598 m2227 mo1 dt10 "
       "ix0] dn3:sales:columnar(materialize)[c10/5/5 d10597 m2227 mo1 dt10 "
       "ix0] dn0:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 "
       "m0 mo0 dt0 ix0] dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] join=broadcast/right "
       "x=0/1440/12 ch=[0>0:120/1 0>1:120/1 0>2:120/1 0>3:120/1 1>0:120/1 "
       "1>1:120/1 1>2:120/1 1>3:120/1 2>0:120/1 2>1:120/1 2>2:120/1 "
       "2>3:120/1 3>0:120/1 3>1:120/1 3>2:120/1 3>3:120/1] spill=0/0 "
       "rows=3: ('n0',3340,1501411) ('n1',2784,1251739) "
       "('n2',2783,1250895)"},
      {"RepartitionJoin",
       [](Cluster*) {
         return Rows(SalesDimsJoin(JoinStrategy::kRepartition,
                                   Expr::Lt("amount", Value(1))));
       },
       false,
       "sim=655 dns=4 bytes=0/860/605 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=repartition/left x=860/0/8 ch=[0>1:204/2 "
       "1>0:244/2 2>3:206/2 3>2:206/2] spill=0/0 rows=9: "
       "(1,'west',1,0,1,'n1',7) (2,'north',2,0,2,'n2',14) "
       "(3,'south',3,0,3,'n0',21) (4,'east',4,0,4,'n1',28) "
       "(5,'west',5,0,5,'n2',35) (6,'north',6,0,6,'n0',42) "
       "(7,'south',7,0,7,'n1',49) (8,'east',8,0,8,'n2',56) "
       "(9,'west',9,0,9,'n0',63)"},
      {"RepartitionJoinFused",
       [](Cluster*) {
         return Fused(SalesDimsJoin(JoinStrategy::kRepartition, nullptr),
                      {"d_name"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kMin, "amount", "lo"},
                       {AggFunc::kMax, "d_w", "w"}});
       },
       false,
       "sim=1933 dns=4 bytes=360/730748/0 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=repartition/right x=730748/0/288 "
       "ch=[0>1:180428/72 1>0:180428/72 2>3:184946/72 3>2:184946/72] "
       "spill=0/0 rows=3: ('n0',6765,0,105) ('n1',5638,0,91) "
       "('n2',5637,0,98)"},
      {"CappedRepartitionJoinFused",
       [](Cluster*) {
         return Fused(SalesDimsJoin(JoinStrategy::kRepartition, nullptr),
                      {"d_name"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kMin, "amount", "lo"},
                       {AggFunc::kMax, "d_w", "w"}});
       },
       false,
       "sim=3663 dns=4 bytes=360/730748/0 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=repartition/right x=730748/0/288 "
       "ch=[0>1:180428/72 1>0:180428/72 2>3:184946/72 3>2:184946/72] "
       "spill=699172/272 rows=3: ('n0',6765,0,105) ('n1',5638,0,91) "
       "('n2',5637,0,98)",
       false, /*max_channel_bytes=*/8192},
      {"PipelinedBroadcastJoin",
       [](Cluster*) {
         return Rows(SalesDimsJoin(JoinStrategy::kBroadcast,
                                   Expr::Lt("amount", Value(1))));
       },
       false,
       "sim=655 dns=4 bytes=0/860/605 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=broadcast/left x=0/1140/12 ch=[0>0:84/1 0>1:84/1 "
       "0>2:84/1 0>3:84/1 1>0:124/1 1>1:124/1 1>2:124/1 1>3:124/1 2>0:86/1 "
       "2>1:86/1 2>2:86/1 2>3:86/1 3>0:86/1 3>1:86/1 3>2:86/1 3>3:86/1] "
       "pipe overlap=8 streamed=16 rows=9: (1,'west',1,0,1,'n1',7) "
       "(2,'north',2,0,2,'n2',14) (3,'south',3,0,3,'n0',21) "
       "(4,'east',4,0,4,'n1',28) (5,'west',5,0,5,'n2',35) "
       "(6,'north',6,0,6,'n0',42) (7,'south',7,0,7,'n1',49) "
       "(8,'east',8,0,8,'n2',56) (9,'west',9,0,9,'n0',63)",
       /*pipeline=*/true},
      {"PipelinedBroadcastJoinFusedColumnarInput",
       [](Cluster*) {
         return Fused(SalesDimsJoin(JoinStrategy::kBroadcast,
                                    Expr::Lt("amount", Value(900)),
                                    ScanPath::kColumnar),
                      {"d_name"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kSum, "amount", "s"}});
       },
       false,
       "sim=424 dns=4 bytes=264/361774/0 col=4 "
       "scan=[c40/20/20 d42386 m8907 mo4 dt40 "
       "ix0] dn0:sales:columnar(materialize)[c10/5/5 d10593 m2226 mo1 dt10 "
       "ix0] dn1:sales:columnar(materialize)[c10/5/5 d10598 m2227 mo1 dt10 "
       "ix0] dn2:sales:columnar(materialize)[c10/5/5 d10598 m2227 mo1 dt10 "
       "ix0] dn3:sales:columnar(materialize)[c10/5/5 d10597 m2227 mo1 dt10 "
       "ix0] dn0:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 "
       "m0 mo0 dt0 ix0] dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] join=broadcast/right "
       "x=0/1440/12 ch=[0>0:120/1 0>1:120/1 0>2:120/1 0>3:120/1 1>0:120/1 "
       "1>1:120/1 1>2:120/1 1>3:120/1 2>0:120/1 2>1:120/1 2>2:120/1 "
       "2>3:120/1 3>0:120/1 3>1:120/1 3>2:120/1 3>3:120/1] pipe overlap=8 "
       "streamed=16 rows=3: ('n0',3340,1501411) ('n1',2784,1251739) "
       "('n2',2783,1250895)",
       /*pipeline=*/true},
      {"PipelinedRepartitionJoin",
       [](Cluster*) {
         return Rows(SalesDimsJoin(JoinStrategy::kRepartition,
                                   Expr::Lt("amount", Value(1))));
       },
       false,
       "sim=651 dns=4 bytes=0/860/605 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=repartition/left x=860/0/8 ch=[0>1:204/2 "
       "1>0:244/2 2>3:206/2 3>2:206/2] pipe overlap=0 streamed=8 rows=9: "
       "(1,'west',1,0,1,'n1',7) (2,'north',2,0,2,'n2',14) "
       "(3,'south',3,0,3,'n0',21) (4,'east',4,0,4,'n1',28) "
       "(5,'west',5,0,5,'n2',35) (6,'north',6,0,6,'n0',42) "
       "(7,'south',7,0,7,'n1',49) (8,'east',8,0,8,'n2',56) "
       "(9,'west',9,0,9,'n0',63)",
       /*pipeline=*/true},
      {"PipelinedRepartitionJoinFused",
       [](Cluster*) {
         return Fused(SalesDimsJoin(JoinStrategy::kRepartition, nullptr),
                      {"d_name"},
                      {{AggFunc::kCount, "", "n"},
                       {AggFunc::kMin, "amount", "lo"},
                       {AggFunc::kMax, "d_w", "w"}});
       },
       false,
       "sim=1898 dns=4 bytes=360/730748/0 col=0 scan=[c0/0/0 d0 m0 mo0 dt0 "
       "ix0] dn0:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn1:sales:row[c0/0/0 "
       "d0 m0 mo0 dt0 ix0] dn2:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn3:sales:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn0:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] dn1:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] "
       "dn2:dims:row[c0/0/0 d0 m0 mo0 dt0 ix0] dn3:dims:row[c0/0/0 d0 m0 "
       "mo0 dt0 ix0] join=repartition/right x=730748/0/288 "
       "ch=[0>1:180428/72 1>0:180428/72 2>3:184946/72 3>2:184946/72] pipe "
       "overlap=32 streamed=288 rows=3: ('n0',6765,0,105) ('n1',5638,0,91) "
       "('n2',5637,0,98)",
       /*pipeline=*/true},
  };
  return cases;
}

TEST_P(LeafFragmentGoldenTest, MatchesGolden) {
  const GoldenCase& gc = Cases()[static_cast<size_t>(GetParam())];
  DistExecOptions opts;
  opts.columnar_force_materialize = gc.force_materialize;
  opts.pipeline = gc.pipeline;
  opts.max_channel_bytes = gc.max_channel_bytes;
  // Each case starts on an idle cluster, so its figures do not depend on
  // which cases ran before it.
  cluster_->ResetSimTime();
  auto res = ExecuteDistPlan(cluster_, gc.plan(cluster_), opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(Fingerprint(*res), gc.golden);
  // The run's scan totals are the sum of its per-DN records.
  storage::ScanStats per_dn_sum;
  for (const auto& info : res->stats.per_dn) per_dn_sum.MergeFrom(info.stats);
  EXPECT_EQ(StatsString(res->stats.scan_stats), StatsString(per_dn_sum));

  // Scatter mode is execution detail: the inline scatter pins the same line.
  cluster_->ResetSimTime();
  opts.parallel = false;
  auto inline_res = ExecuteDistPlan(cluster_, gc.plan(cluster_), opts);
  ASSERT_TRUE(inline_res.ok()) << inline_res.status().ToString();
  EXPECT_EQ(Fingerprint(*inline_res), gc.golden);
}

INSTANTIATE_TEST_SUITE_P(
    AllLeafKinds, LeafFragmentGoldenTest,
    ::testing::Range(0, static_cast<int>(Cases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(Cases()[static_cast<size_t>(info.param)].name);
    });

}  // namespace
}  // namespace ofi::cluster
