/// The OLTP traffic subsystem end to end: the pipelined session engine,
/// group commit through Cluster::CommitBatch (bit-identical applied state
/// vs per-commit, aborted prepares excluded), CN admission control (queue
/// wait charged, overflow shed), input validation, latency percentiles,
/// and the headline scaling claim — at 2048 sessions, group commit +
/// batched 2PC must at least double throughput at no worse p99.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "cluster/tpcc_workload.h"
#include "cluster/traffic/traffic.h"

namespace ofi::cluster {
namespace {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;
using traffic::RunTraffic;
using traffic::TrafficOptions;
using traffic::TrafficResult;

Schema KvSchema() {
  return Schema({Column{"k", TypeId::kInt64, ""}, Column{"v", TypeId::kInt64, ""}});
}

/// Every visible row of every DN, keyed for exact comparison.
std::map<std::pair<int, int64_t>, int64_t> SnapshotTable(Cluster* cluster,
                                                         const std::string& table) {
  std::map<std::pair<int, int64_t>, int64_t> out;
  for (int dn = 0; dn < cluster->num_dns(); ++dn) {
    Txn t = cluster->Begin(TxnScope::kMultiShard);
    auto rows = t.ScanShard(table, dn);
    EXPECT_TRUE(rows.ok());
    for (const Row& row : *rows) out[{dn, row[0].AsInt()}] = row[1].AsInt();
    EXPECT_TRUE(t.Commit().ok());
  }
  return out;
}

constexpr int64_t kKvKeys = 128;

/// Applies `n` deterministic single- and multi-shard increments over
/// per-transaction-disjoint keys (open transactions in one window must not
/// conflict under first-updater-wins). Per-commit mode commits each
/// transaction individually; grouped mode holds windows of 8 open and
/// commits each window through one CommitBatch.
void RunDeterministicWrites(Cluster* cluster, int n, bool grouped) {
  ASSERT_LE(n, 48);  // keeps key sets i and (i + 67) % kKvKeys disjoint
  std::deque<Txn> open;
  std::vector<Txn*> window;
  auto flush = [&](SimTime at) {
    if (window.empty()) return;
    for (const GroupCommitOutcome& out : cluster->CommitBatch(window, at)) {
      EXPECT_TRUE(out.status.ok());
    }
    window.clear();
    open.clear();
  };
  for (int i = 0; i < n; ++i) {
    TxnScope scope = (i % 3 == 0) ? TxnScope::kMultiShard : TxnScope::kSingleShard;
    Txn t = cluster->Begin(scope, /*start_time=*/i * 10);
    auto bump = [&](int64_t k) {
      auto row = t.Read("kv", Value(k));
      ASSERT_TRUE(row.ok());
      (*row)[1] = Value((*row)[1].AsInt() + i + 1);
      ASSERT_TRUE(t.Update("kv", Value(k), std::move(*row)).ok());
    };
    bump(i);
    if (scope == TxnScope::kMultiShard) bump((i + 67) % kKvKeys);
    if (!grouped) {
      ASSERT_TRUE(t.Commit().ok());
      continue;
    }
    open.push_back(std::move(t));
    window.push_back(&open.back());
    if (window.size() == 8) flush(i * 10 + 100);
  }
  if (grouped) flush(n * 10 + 100);
}

TEST(CommitBatchTest, AppliedStateBitIdenticalToPerCommit) {
  Cluster per_commit(2, Protocol::kGtmLite);
  Cluster grouped(2, Protocol::kGtmLite);
  for (Cluster* c : {&per_commit, &grouped}) {
    ASSERT_TRUE(c->CreateTable("kv", KvSchema()).ok());
    for (int64_t k = 0; k < kKvKeys; ++k) {
      Txn t = c->Begin(TxnScope::kSingleShard);
      ASSERT_TRUE(t.Insert("kv", Value(k), {Value(k), Value(0)}).ok());
      ASSERT_TRUE(t.Commit().ok());
    }
  }

  RunDeterministicWrites(&per_commit, 48, /*grouped=*/false);
  RunDeterministicWrites(&grouped, 48, /*grouped=*/true);

  EXPECT_EQ(SnapshotTable(&per_commit, "kv"), SnapshotTable(&grouped, "kv"));
}

TEST(CommitBatchTest, BatchAmortizesLogWrites) {
  Cluster cluster(2, Protocol::kGtmLite);
  ASSERT_TRUE(cluster.CreateTable("kv", KvSchema()).ok());
  for (int64_t k = 0; k < kKvKeys; ++k) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("kv", Value(k), {Value(k), Value(0)}).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  int64_t before = cluster.metrics().Get("commitlog.log_writes");

  RunDeterministicWrites(&cluster, 48, /*grouped=*/true);

  // 48 transactions in windows of 8 on 2 DNs: each window costs at most one
  // prepare force plus one apply force per DN (4 total) — far fewer than
  // one per transaction.
  int64_t writes = cluster.metrics().Get("commitlog.log_writes") - before;
  EXPECT_GT(writes, 0);
  EXPECT_LE(writes, 4 * (48 / 8));
  EXPECT_EQ(cluster.metrics().Get("group_commit.txns"), 48);
}

TEST(CommitBatchTest, FinishedTxnRejectedOthersProceed) {
  Cluster cluster(2, Protocol::kGtmLite);
  ASSERT_TRUE(cluster.CreateTable("kv", KvSchema()).ok());
  for (int64_t k = 0; k < 4; ++k) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("kv", Value(k), {Value(k), Value(0)}).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  Txn good = cluster.Begin(TxnScope::kSingleShard, 0);
  auto row = good.Read("kv", Value(1));
  ASSERT_TRUE(row.ok());
  (*row)[1] = Value(7);
  ASSERT_TRUE(good.Update("kv", Value(1), std::move(*row)).ok());

  Txn dead = cluster.Begin(TxnScope::kSingleShard, 0);
  ASSERT_TRUE(dead.Abort().ok());  // already finished before the flush

  std::vector<GroupCommitOutcome> out =
      cluster.CommitBatch({&good, &dead}, /*flush_time=*/100);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].status.ok());
  EXPECT_TRUE(out[1].status.IsInvalidArgument());
  std::pair<int, int64_t> key1{cluster.ShardFor(Value(1)), 1};
  EXPECT_EQ(SnapshotTable(&cluster, "kv")[key1], 7);
}

TEST(TrafficValidationTest, RejectsNonsense) {
  Cluster cluster(2, Protocol::kGtmLite);
  TpccConfig cfg;
  ASSERT_TRUE(LoadTpcc(&cluster, cfg).ok());

  TrafficOptions opts;
  opts.sessions = 0;
  EXPECT_TRUE(RunTraffic(&cluster, cfg, opts).status().IsInvalidArgument());

  TpccConfig bad = cfg;
  bad.duration_us = 0;
  opts.sessions = 4;
  EXPECT_TRUE(RunTraffic(&cluster, bad, opts).status().IsInvalidArgument());
  EXPECT_TRUE(RunTraffic(nullptr, cfg, opts).status().IsInvalidArgument());
}

TEST(TrafficValidationTest, LoadTpccRejectsNonsense) {
  TpccConfig bad;
  bad.warehouses_per_dn = 0;
  Cluster c1(2, Protocol::kGtmLite);
  EXPECT_TRUE(LoadTpcc(&c1, bad).IsInvalidArgument());

  bad = TpccConfig{};
  bad.clients_per_dn = -1;
  Cluster c2(2, Protocol::kGtmLite);
  EXPECT_TRUE(LoadTpcc(&c2, bad).IsInvalidArgument());

  bad = TpccConfig{};
  bad.duration_us = 0;
  Cluster c3(2, Protocol::kGtmLite);
  EXPECT_TRUE(LoadTpcc(&c3, bad).IsInvalidArgument());

  bad = TpccConfig{};
  bad.multi_shard_fraction = 1.5;
  Cluster c4(2, Protocol::kGtmLite);
  EXPECT_TRUE(LoadTpcc(&c4, bad).IsInvalidArgument());
}

TpccConfig SmallTraffic() {
  TpccConfig cfg;
  cfg.warehouses_per_dn = 8;
  cfg.duration_us = 300'000;
  cfg.customers_per_warehouse = 40;
  cfg.stock_per_warehouse = 40;
  return cfg;
}

TEST(TrafficEngineTest, ReportsOrderedPercentiles) {
  Cluster cluster(2, Protocol::kGtmLite);
  TpccConfig cfg = SmallTraffic();
  ASSERT_TRUE(LoadTpcc(&cluster, cfg).ok());

  TrafficOptions opts;
  opts.sessions = 32;
  auto run = RunTraffic(&cluster, cfg, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->committed, 100u);
  EXPECT_GT(run->latency_p50_us, 0);
  EXPECT_LE(run->latency_p50_us, run->latency_p95_us);
  EXPECT_LE(run->latency_p95_us, run->latency_p99_us);
  EXPECT_GT(run->throughput_tps, 0.0);
}

TEST(TrafficEngineTest, RunTpccReportsPercentiles) {
  Cluster cluster(2, Protocol::kGtmLite);
  TpccConfig cfg = SmallTraffic();
  ASSERT_TRUE(LoadTpcc(&cluster, cfg).ok());
  TpccResult r = RunTpcc(&cluster, cfg);
  EXPECT_GT(r.committed, 100u);
  EXPECT_GT(r.latency_p50_us, 0);
  EXPECT_LE(r.latency_p50_us, r.latency_p99_us);
}

TEST(TrafficAdmissionTest, QueueWaitChargedAndBounded) {
  Cluster cluster(2, Protocol::kGtmLite);
  TpccConfig cfg = SmallTraffic();
  ASSERT_TRUE(LoadTpcc(&cluster, cfg).ok());

  TrafficOptions gated;
  gated.sessions = 64;
  gated.admission.max_in_flight = 8;
  gated.admission.max_queue = 1024;
  auto run = RunTraffic(&cluster, cfg, gated);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->committed, 0u);
  EXPECT_LE(run->max_in_flight_seen, 8);
  EXPECT_GT(run->admission_queued, 0);
  EXPECT_GT(run->admission_wait_us, 0);
  EXPECT_EQ(run->admission_shed, 0);
  EXPECT_EQ(cluster.metrics().Get("admission.queued"), run->admission_queued);
  EXPECT_EQ(cluster.metrics().Get("admission.wait_us"), run->admission_wait_us);
}

TEST(TrafficAdmissionTest, FullQueueSheds) {
  Cluster cluster(2, Protocol::kGtmLite);
  TpccConfig cfg = SmallTraffic();
  ASSERT_TRUE(LoadTpcc(&cluster, cfg).ok());

  TrafficOptions tight;
  tight.sessions = 64;
  tight.abort_backoff_us = 2000;
  tight.admission.max_in_flight = 4;
  tight.admission.max_queue = 4;
  auto run = RunTraffic(&cluster, cfg, tight);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->shed, 0u);
  EXPECT_EQ(run->shed, static_cast<uint64_t>(run->admission_shed));
  EXPECT_GT(run->committed, 0u);  // degraded, not collapsed
}

/// A commit-heavy latency model (Fig3Latency precedent): statements are
/// cheap, the durable log force is expensive — the regime where group
/// commit pays. Used by the headline scaling assertion below.
LatencyModel CommitBoundLatency() {
  LatencyModel m;
  m.network_hop_us = 5;
  m.gtm_service_us = 1;
  m.dn_stmt_service_us = 5;
  m.dn_commit_service_us = 15;
  m.log_write_service_us = 250;
  m.dn_batch_record_service_us = 3;
  return m;
}

TEST(TrafficScaleTest, GroupCommitDoublesThroughputAt2048Sessions) {
  TpccConfig cfg;
  cfg.warehouses_per_dn = 256;  // 1024 warehouses: 2 sessions per warehouse
  cfg.duration_us = 250'000;
  cfg.customers_per_warehouse = 30;
  cfg.stock_per_warehouse = 30;
  cfg.multi_shard_fraction = 0.1;

  auto run_mode = [&](bool grouped) {
    Cluster cluster(4, Protocol::kGtmLite, CommitBoundLatency());
    EXPECT_TRUE(LoadTpcc(&cluster, cfg).ok());
    TrafficOptions opts;
    opts.sessions = 2048;
    opts.group_commit.enabled = grouped;
    opts.group_commit.window_us = 2000;
    opts.group_commit.max_batch = 64;
    auto run = RunTraffic(&cluster, cfg, opts);
    EXPECT_TRUE(run.ok());
    // The engine trims as simulated time advances; nothing may arrive below.
    EXPECT_EQ(cluster.scheduler().LateCharges(), 0u);
    return *run;
  };

  TrafficResult per_commit = run_mode(false);
  TrafficResult grouped = run_mode(true);

  ASSERT_GT(per_commit.committed, 1000u);
  ASSERT_GT(grouped.committed, 1000u);
  EXPECT_GT(grouped.group_batches, 0);
  EXPECT_GT(grouped.group_txns, 0);
  // Far fewer log forces than transactions.
  EXPECT_LT(grouped.log_writes, static_cast<int64_t>(grouped.committed));

  // The acceptance bar: >= 2x throughput at equal-or-better tail latency.
  EXPECT_GE(grouped.throughput_tps, 2.0 * per_commit.throughput_tps);
  EXPECT_LE(grouped.latency_p99_us, per_commit.latency_p99_us);
}

}  // namespace
}  // namespace ofi::cluster
