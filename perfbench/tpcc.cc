/// \file tpcc.cc
/// \brief The `tpcc` workload: the paper's Fig. 3 path. LoadTpcc on a 4-DN
/// GTM-lite cluster, then one traffic::RunTraffic run of 256 closed-loop
/// sessions (no think time, 10% multi-shard, group commit at its
/// defaults). It exercises txn, cluster/traffic, storage heap and index
/// probes and the SimScheduler; it bypasses sql, optimizer and exchange.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/tpcc_workload.h"
#include "cluster/traffic/traffic.h"
#include "common/rng.h"
#include "report.h"

namespace perfbench {
namespace {

using ofi::Rng;
using ofi::SimTime;
using ofi::Status;
using ofi::cluster::Cluster;
using ofi::cluster::Protocol;
using ofi::cluster::TpccConfig;
using ofi::cluster::Txn;
using ofi::cluster::TxnScope;
using ofi::sql::Row;
using ofi::sql::Value;
namespace tpcc = ofi::cluster::tpcc;

constexpr int kDns = 4;
constexpr int kWarehousesPerDn = 64;
constexpr int kSessions = 256;
constexpr double kMultiShard = 0.10;
/// Simulated length of one segment's RunTraffic call. It is fixed, so every
/// simulated output is a function of the seed alone; --seconds sets only
/// how many segments a run measures.
constexpr SimTime kSegmentSimUs = 1'200'000;
/// Transactions in the traced run's txn-layer sample.
constexpr int kProbeTxns = 2000;
constexpr int kProbeBatches = 64;
constexpr int kProbeBatchSize = 8;
/// Order sequence numbers RunTraffic never uses (its sessions stay below
/// 400'000), so sample NewOrders cannot collide with traffic orders.
constexpr int64_t kProbeOrderSeq = 400'000;

TpccConfig Config(const Args& args) {
  TpccConfig cfg;
  cfg.warehouses_per_dn = kWarehousesPerDn;
  cfg.multi_shard_fraction = kMultiShard;
  cfg.duration_us = kSegmentSimUs;
  cfg.seed = args.seed;
  return cfg;
}

/// Every visible row of `table`, read under one multi-shard snapshot.
std::vector<Row> ScanAll(Cluster* cluster, const std::string& table, bool* ok) {
  Txn t = cluster->Begin(TxnScope::kMultiShard);
  std::vector<Row> out;
  for (int dn = 0; dn < cluster->num_dns(); ++dn) {
    auto rows = t.ScanShard(table, dn);
    if (!rows.ok()) {
      *ok = false;
      break;
    }
    out.insert(out.end(), rows->begin(), rows->end());
  }
  (void)t.Commit();
  return out;
}

int64_t SumColumn(const std::vector<Row>& rows, size_t col) {
  int64_t sum = 0;
  for (const Row& r : rows) sum += r[col].AsInt();
  return sum;
}

/// End-state invariants of the TPC-C mix. Payment moves 10 from a customer
/// balance to the warehouse ytd, adds 10 to a district ytd and 1 to the
/// customer's payment count; NewOrder adds 1 to a district ytd and inserts
/// one order; Delivery moves 1 per order from the warehouse ytd back to a
/// customer. So money is conserved, and the district ytd total equals
/// 10 x payments + orders.
void CheckInvariants(Cluster* cluster, const TpccConfig& cfg, Report* report) {
  bool ok = true;
  const std::vector<Row> customers = ScanAll(cluster, "customer", &ok);
  const int64_t warehouse_ytd = SumColumn(ScanAll(cluster, "warehouse", &ok), 1);
  const int64_t district_ytd = SumColumn(ScanAll(cluster, "district", &ok), 1);
  const int64_t orders = static_cast<int64_t>(ScanAll(cluster, "orders", &ok).size());
  const int64_t balance = SumColumn(customers, 1);
  const int64_t payments = SumColumn(customers, 2);
  report->Check(ok, "tpcc: shard scan failed");
  const int64_t expected_customers = static_cast<int64_t>(cfg.warehouses_per_dn) *
                                     kDns * cfg.customers_per_warehouse;
  report->Check(static_cast<int64_t>(customers.size()) == expected_customers,
                "tpcc: customer rows lost or duplicated");
  report->Check(warehouse_ytd + balance == 1000 * expected_customers,
                "tpcc: money not conserved (warehouse ytd " +
                    std::to_string(warehouse_ytd) + " + balances " +
                    std::to_string(balance) + ")");
  report->Check(district_ytd == 10 * payments + orders,
                "tpcc: district ytd " + std::to_string(district_ytd) +
                    " != 10 x payments " + std::to_string(payments) + " + orders " +
                    std::to_string(orders));
  report->Check(payments > 0 && orders > 0, "tpcc: no payment or order committed");
}

/// A NewOrder- or Payment-shaped transaction issued directly through the
/// Txn API with every call timed: the txn-layer sample of the traced run.
struct TxnTimes {
  std::vector<double> begin_us, read_us, commit_1shard_us, commit_2pc_us,
      commit_batch_us;
};

double Us(double since) { return (NowSeconds() - since) * 1e6; }

constexpr int64_t kWarehouses = kWarehousesPerDn * kDns;

/// Issues one transaction's statements on home warehouse `w`.
Status IssueSampleTxn(int64_t w, Rng* rng, int64_t seq, Txn* txn,
                      TxnTimes* times) {
  const bool ms = txn->scope() == TxnScope::kMultiShard;
  // Warehouse w lives on DN w % kDns, so this one is on the next DN.
  const int64_t other =
      (w + 1 + kDns * rng->Uniform(0, kWarehousesPerDn - 1)) % kWarehouses;
  auto read = [&](const char* table, int64_t key) {
    double t0 = NowSeconds();
    auto r = txn->Read(table, Value(key));
    times->read_us.push_back(Us(t0));
    return r;
  };
  auto add = [&](const char* table, int64_t key, size_t col,
                 int64_t delta) -> Status {
    auto row = read(table, key);
    if (!row.ok()) return row.status();
    Row r = *row;
    r[col] = Value(r[col].AsInt() + delta);
    return txn->Update(table, Value(key), std::move(r));
  };
  const int64_t cust = rng->Uniform(0, 299);
  if (rng->Chance(0.5)) {
    // NewOrder: customer read, district bump, order insert, stock lines.
    OFI_RETURN_NOT_OK(read("customer", tpcc::CustomerKey(w, cust)).status());
    OFI_RETURN_NOT_OK(add("district", tpcc::DistrictKey(w, rng->Uniform(0, 9)), 1, 1));
    Value ok(tpcc::OrderKey(w, kProbeOrderSeq + seq));
    OFI_RETURN_NOT_OK(txn->Insert("orders", ok, {ok, Value(cust), Value(3), Value(0)}));
    for (int line = 0; line < 3; ++line) {
      const int64_t item_w = ms && line == 0 ? other : w;
      const int64_t key = tpcc::StockKey(item_w, rng->Uniform(0, 199));
      auto row = read("stock", key);
      if (!row.ok()) return row.status();
      Row r = *row;
      r[1] = Value(r[1].AsInt() <= 10 ? 91 : r[1].AsInt() - 1);
      OFI_RETURN_NOT_OK(txn->Update("stock", Value(key), std::move(r)));
    }
    return Status::OK();
  }
  // Payment: the same money moves as the traffic mix, so the end-state
  // invariants keep holding.
  OFI_RETURN_NOT_OK(add("district", tpcc::DistrictKey(w, rng->Uniform(0, 9)), 1, 10));
  const int64_t cust_w = ms ? other : w;
  auto crow = read("customer", tpcc::CustomerKey(cust_w, cust));
  if (!crow.ok()) return crow.status();
  Row c = *crow;
  c[1] = Value(c[1].AsInt() - 10);
  c[2] = Value(c[2].AsInt() + 1);
  OFI_RETURN_NOT_OK(txn->Update("customer", Value(tpcc::CustomerKey(cust_w, cust)),
                                std::move(c)));
  return add("warehouse", tpcc::WarehouseKey(w), 1, 10);
}

Txn BeginTimed(Cluster* cluster, TxnScope scope, TxnTimes* times) {
  double t0 = NowSeconds();
  Txn txn = cluster->Begin(scope);
  times->begin_us.push_back(Us(t0));
  return txn;
}

/// Times Begin / Read / Commit / CommitBatch on the loaded cluster after
/// the traffic run.
void RunTxnSample(Cluster* cluster, uint64_t seed, Report* report) {
  Rng rng(seed * 31 + 7);
  TxnTimes times;
  int64_t seq = 0;
  for (int i = 0; i < kProbeTxns; ++i) {
    cluster->ResetSimTime();  // idle cluster: time the call, not a backlog
    const TxnScope scope =
        rng.Chance(kMultiShard) ? TxnScope::kMultiShard : TxnScope::kSingleShard;
    Txn txn = BeginTimed(cluster, scope, &times);
    Status st =
        IssueSampleTxn(rng.Uniform(0, kWarehouses - 1), &rng, seq++, &txn, &times);
    if (st.ok()) {
      double t0 = NowSeconds();
      st = txn.Commit();
      (scope == TxnScope::kMultiShard ? times.commit_2pc_us
                                      : times.commit_1shard_us)
          .push_back(Us(t0));
    } else {
      (void)txn.Abort();
    }
    report->Attempt(st.ok(), "tpcc sample txn: " + st.ToString());
  }
  for (int b = 0; b < kProbeBatches; ++b) {
    cluster->ResetSimTime();
    std::vector<Txn> txns;
    txns.reserve(kProbeBatchSize);
    std::vector<Txn*> ptrs;
    SimTime flush = 0;
    // One window of single-shard transactions on distinct warehouses: open
    // together, they must not conflict.
    const int64_t base = rng.Uniform(0, kWarehouses - 1);
    for (int i = 0; i < kProbeBatchSize; ++i) {
      txns.push_back(BeginTimed(cluster, TxnScope::kSingleShard, &times));
      Status st = IssueSampleTxn((base + i * (kWarehouses / kProbeBatchSize)) %
                                     kWarehouses,
                                 &rng, seq++, &txns.back(), &times);
      if (!st.ok()) {
        (void)txns.back().Abort();
        report->Attempt(false, "tpcc sample txn: " + st.ToString());
        continue;
      }
      ptrs.push_back(&txns.back());
      flush = std::max(flush, txns.back().now());
    }
    double t0 = NowSeconds();
    auto outcomes = cluster->CommitBatch(ptrs, flush);
    times.commit_batch_us.push_back(Us(t0));
    for (const auto& o : outcomes) {
      report->Attempt(o.status.ok(), "tpcc batch commit: " + o.status.ToString());
    }
  }
  report->Set("txn.begin_us", Median(times.begin_us), times.begin_us.size(), Label::kWall);
  report->Set("storage.txn_read_us", Median(times.read_us), times.read_us.size(),
              Label::kWall);
  report->Set("txn.commit_1shard_us", Median(times.commit_1shard_us),
              times.commit_1shard_us.size(), Label::kWall);
  report->Set("txn.commit_2pc_us", Median(times.commit_2pc_us),
              times.commit_2pc_us.size(), Label::kWall);
  report->Set("txn.commit_batch_us", Median(times.commit_batch_us),
              times.commit_batch_us.size(), Label::kWall);
}

}  // namespace

void RunTpccWorkload(const Args& args, Report* report) {
  const TpccConfig cfg = Config(args);
  ofi::cluster::traffic::TrafficOptions opts;
  opts.sessions = kSessions;
  opts.think_time_us = 0;
  opts.group_commit.enabled = true;
  report->Note("tpcc: dns=4 warehouses_per_dn=64 sessions=256 multi_shard=0.10 "
               "group_commit=default segment_sim_us=" +
               std::to_string(cfg.duration_us));

  // Each segment loads a fresh cluster and runs the same seeded traffic on
  // it, so the simulated outputs of every segment must be identical, and
  // setup_s and ops_per_ref_s are medians over the segments.
  const int segments = args.trace ? 1 : std::max(3, args.seconds / 2);
  RefClock clock;
  RefRate ops_per_ref(&clock, 0);
  std::vector<double> setups, setups_cpu, setups_wall, ops_cpu, ops_wall;
  std::unique_ptr<Cluster> cluster;
  ofi::cluster::traffic::TrafficResult r;
  int64_t ms_txns = 0;
  for (int seg = 0; seg < segments; ++seg) {
    cluster.reset();
    double t0 = NowSeconds();
    double c0 = CpuSeconds();
    cluster = std::make_unique<Cluster>(kDns, Protocol::kGtmLite);
    Status st = ofi::cluster::LoadTpcc(cluster.get(), cfg);
    setups_cpu.push_back(CpuSeconds() - c0);
    setups_wall.push_back(NowSeconds() - t0);
    setups.push_back(clock.ToRef(setups_cpu.back()));
    report->Check(st.ok(), "LoadTpcc: " + st.ToString());
    if (!st.ok()) return;

    const int64_t ms_begins_before = cluster->metrics().Get("gtm.begin");
    t0 = NowSeconds();
    c0 = CpuSeconds();
    auto run = ofi::cluster::traffic::RunTraffic(cluster.get(), cfg, opts);
    const double cpu = CpuSeconds() - c0;
    const double wall = NowSeconds() - t0;
    report->Check(run.ok(), "RunTraffic: " + run.status().ToString());
    if (!run.ok()) return;
    ops_cpu.push_back(static_cast<double>(run->committed) / cpu);
    ops_wall.push_back(static_cast<double>(run->committed) / wall);
    ops_per_ref.Add(run->committed, cpu);
    if (seg == 0) {
      r = *run;
      ms_txns = cluster->metrics().Get("gtm.begin") - ms_begins_before;
    } else {
      report->Check(run->committed == r.committed && run->aborted == r.aborted &&
                        run->shed == r.shed && run->latency_p50_us == r.latency_p50_us &&
                        run->latency_p99_us == r.latency_p99_us &&
                        run->log_writes == r.log_writes,
                    "tpcc: segment " + std::to_string(seg) +
                        " did not reproduce the simulated outputs of segment 0");
    }
    CheckInvariants(cluster.get(), cfg, report);
  }

  // Aborted transactions are retried by their session (a fresh
  // transaction after back-off), so they count as attempts that the txn
  // layer wasted (txn.abort_frac), not as failed operations; refusals by
  // admission control (sheds) do count as failed.
  for (int seg = 0; seg < segments; ++seg) {
    report->AddAttempted(static_cast<int64_t>(r.committed + r.aborted));
    for (uint64_t i = 0; i < r.shed; ++i) report->Attempt(false, "tpcc: shed");
  }
  const double attempts = static_cast<double>(r.committed + r.aborted + r.shed);
  const size_t committed_all = r.committed * segments;

  if (!args.trace) {
    report->Set("setup_s", Median(setups), setups.size(), Label::kRef);
    report->Set("setup_cpu_s", Median(setups_cpu), setups.size(), Label::kCpu, "s");
    report->Set("setup_wall_s", Median(setups_wall), setups.size(), Label::kWall, "s");
    report->Set("ops_per_ref_s", ops_per_ref.Median(), committed_all, Label::kRef);
    report->Set("ops_per_cpu_s", Median(ops_cpu), committed_all, Label::kCpu, "1/s");
    report->Set("ops_per_s", Median(ops_wall), committed_all, Label::kWall, "1/s");
    report->Set("sim_ops_per_s", r.throughput_tps, r.committed, Label::kExact);
    // sim_p50_us / sim_p99_us are the commit_sim_* of this workload.
    report->Set("sim_p50_us", static_cast<double>(r.latency_p50_us), r.committed,
                Label::kExact);
    report->Set("sim_p99_us", static_cast<double>(r.latency_p99_us), r.committed,
                Label::kExact);
    report->Set("commit_sim_p50_us", static_cast<double>(r.latency_p50_us), r.committed,
                Label::kExact, "us");
    report->Set("commit_sim_p95_us", static_cast<double>(r.latency_p95_us), r.committed,
                Label::kExact, "us");
    report->Set("commit_sim_p99_us", static_cast<double>(r.latency_p99_us), r.committed,
                Label::kExact, "us");
    report->Set("sim_tps", r.throughput_tps, r.committed, Label::kExact, "1/s");
    report->Set("aborted", static_cast<double>(r.aborted), r.committed + r.aborted,
                Label::kExact, "txns");
  } else {
    auto busy = [&](int resource) {
      return static_cast<double>(cluster->scheduler().BusyTime(resource)) /
             static_cast<double>(cfg.duration_us);
    };
    double dn_busy = 0;
    for (int dn = 0; dn < kDns; ++dn) dn_busy += busy(cluster->dn_resource(dn)) / kDns;
    report->Set("sim.dn_busy_frac", dn_busy, kDns, Label::kExact);
    report->Set("sim.gtm_busy_frac", busy(cluster->gtm_resource()), 1, Label::kExact);
    const double committed = static_cast<double>(std::max<uint64_t>(1, r.committed));
    report->Set("txn.gtm_requests_per_commit", static_cast<double>(r.gtm_requests) / committed,
                r.committed, Label::kExact);
    report->Set("txn.log_writes_per_commit", static_cast<double>(r.log_writes) / committed,
                r.committed, Label::kExact);
    const double ms = static_cast<double>(std::max<int64_t>(1, ms_txns));
    report->Set("txn.upgrades_per_ms_txn", static_cast<double>(r.upgrades) / ms, ms_txns,
                Label::kExact);
    report->Set("txn.downgrades_per_ms_txn", static_cast<double>(r.downgrades) / ms,
                ms_txns, Label::kExact);
    report->Set("txn.abort_frac", static_cast<double>(r.aborted) / attempts,
                static_cast<size_t>(attempts), Label::kExact);
    report->Set("traffic.batch_size",
                static_cast<double>(r.group_txns) /
                    static_cast<double>(std::max<int64_t>(1, r.group_batches)),
                r.group_batches, Label::kExact);
    TimeChargeProbe(*cluster, report);
    // The traffic run is not instrumented, so tracing costs it nothing.
    report->Set("trace.overhead_frac", 0.0, 1, Label::kWall);
    RunTxnSample(cluster.get(), args.seed, report);
    CheckInvariants(cluster.get(), cfg, report);
  }
  report->Set("peak_rss_mb", PeakRssMb(), 1, Label::kWall);
  if (args.trace) return;
  report->Note("tpcc: segments=" + std::to_string(segments) + " committed=" +
               std::to_string(r.committed) + " aborted=" + std::to_string(r.aborted) +
               " shed=" + std::to_string(r.shed));
  report->Note("tpcc: ops_per_ref_s per segment: " + ops_per_ref.Chunks());
}

}  // namespace perfbench
