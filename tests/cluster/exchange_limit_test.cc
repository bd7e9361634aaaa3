/// Per-channel byte limits on the exchange. The cap now bounds the
/// in-memory window: an over-cap Send transparently spills to a temp file
/// (spill path covered in exchange_spill_test.cc); this suite pins the
/// *limit* semantics — strict mode restores the historical deny with
/// ResourceExhausted, denial is accounted in denied_bytes / the
/// exchange.bytes_denied metric, and a capped distributed join either
/// completes via spill (default) or fails loudly (strict) instead of
/// silently dropping rows.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan_shapes.h"

namespace ofi::cluster {
namespace {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::TypeId;
using sql::Value;

// Pops here read channels that already hold a batch or are closed, so they
// never wait; the deadline only bounds a broken test.
constexpr int64_t kPopTimeoutMs = 1000;

Row MakeRow(int64_t k, const std::string& pad) {
  return Row{Value(k), Value(pad)};
}

exchange::ExchangeChannel::SendLimits Strict(size_t cap,
                                             exchange::ExchangeSpillConfig* c) {
  c->strict = true;
  return exchange::ExchangeChannel::SendLimits{cap, c};
}

TEST(ExchangeLimitTest, StrictChannelDeniesOverLimitSend) {
  exchange::ExchangeChannel ch;
  exchange::ExchangeSpillConfig cfg;
  auto limits = Strict(64, &cfg);
  std::string small(10, 'x');
  std::string mid(60, 'y');
  ASSERT_TRUE(ch.Send(small, limits).ok());
  EXPECT_EQ(ch.queued_bytes(), 10u);

  Status denied = ch.Send(mid, limits);  // 10 + 60 > 64
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  // The denied batch was not queued and the lifetime totals exclude it.
  EXPECT_EQ(ch.queued_bytes(), 10u);
  EXPECT_EQ(ch.bytes(), 10u);
  EXPECT_EQ(ch.batches(), 1u);
  EXPECT_EQ(ch.denied_bytes(), 60u);
  EXPECT_EQ(ch.spilled_bytes(), 0u);

  // Draining frees the budget: the same batch fits afterwards.
  auto popped = ch.PopBatchWait(kPopTimeoutMs);
  ASSERT_TRUE(popped.ok());
  EXPECT_TRUE(popped->has_value());
  EXPECT_EQ(ch.queued_bytes(), 0u);
  ASSERT_TRUE(ch.Send(std::move(mid), limits).ok());
  EXPECT_EQ(ch.queued_bytes(), 60u);

  // Closed, the channel delivers the re-sent batch and then ends: exactly
  // one batch was queued at each step.
  ch.Close();
  auto resent = ch.PopBatchWait(kPopTimeoutMs);
  ASSERT_TRUE(resent.ok());
  EXPECT_TRUE(resent->has_value());
  auto end = ch.PopBatchWait(kPopTimeoutMs);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(ExchangeLimitTest, CapWithNoSpillConfigDenies) {
  // A raw SendLimits cap with spill == nullptr has nowhere to overflow to:
  // the channel must deny, not crash or silently drop.
  exchange::ExchangeChannel ch;
  exchange::ExchangeChannel::SendLimits limits{16, nullptr};
  ASSERT_TRUE(ch.Send(std::string(10, 'a'), limits).ok());
  Status st = ch.Send(std::string(10, 'b'), limits);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ch.denied_bytes(), 10u);
}

TEST(ExchangeLimitTest, ZeroLimitMeansUnbounded) {
  exchange::ExchangeChannel ch;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ch.Send(std::string(1000, 'z')).ok());
  }
  EXPECT_EQ(ch.denied_bytes(), 0u);
  EXPECT_EQ(ch.spilled_bytes(), 0u);
  EXPECT_EQ(ch.queued_bytes(), 100000u);
}

TEST(ExchangeLimitTest, StrictScatterRowsHonorsTheCap) {
  // A cap smaller than one encoded batch under strict mode: every scatter
  // with data fails, DeniedBytes aggregates across channels, and the failed
  // scatter's rollback leaves no queued payload behind.
  exchange::ExchangeSpillConfig strict;
  strict.strict = true;
  exchange::ExchangeNetwork net(2, /*batch_rows=*/8, /*max_channel_bytes=*/4,
                                strict);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20; ++i) rows.push_back(MakeRow(i, "padpadpad"));

  auto failed = exchange::ScatterRows(&net, 0, rows, std::nullopt);
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  const size_t denied = net.DeniedBytes();
  EXPECT_GT(denied, 0u);
  for (int dst = 0; dst < 2; ++dst) {
    EXPECT_EQ(net.channel(0, dst).queued_bytes(), 0u);
  }
  EXPECT_EQ(net.CrossNodeBytes(), 0u);
  // Nothing to send, nothing denied.
  EXPECT_TRUE(exchange::ScatterRows(&net, 1, {}, std::nullopt).ok());
  EXPECT_EQ(net.DeniedBytes(), denied);

  exchange::ExchangeNetwork roomy(2, /*batch_rows=*/8);
  ASSERT_TRUE(exchange::ScatterRows(&roomy, 0, rows, std::nullopt).ok());
  EXPECT_EQ(roomy.DeniedBytes(), 0u);
}

TEST(ExchangeLimitTest, CappedJoinSpillsByDefaultAndDeniesUnderStrict) {
  Cluster cluster(4, Protocol::kGtmLite);
  Schema orders({Column{"o_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  Schema lookup({Column{"l_id", TypeId::kInt64, ""},
                 Column{"pad", TypeId::kString, ""}});
  ASSERT_TRUE(cluster.CreateTable("orders", orders).ok());
  ASSERT_TRUE(cluster.CreateTable("lookup", lookup).ok());
  std::string pad(64, 'p');
  for (int64_t i = 0; i < 64; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("orders", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (int64_t i = 0; i < 8; ++i) {
    Txn t = cluster.Begin(TxnScope::kSingleShard);
    ASSERT_TRUE(t.Insert("lookup", Value(i), MakeRow(i, pad)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }

  DistOpPtr plan =
      JoinPlan("orders", "lookup", "o_id", "l_id", JoinStrategy::kRepartition);

  // Unbounded run first: the join works, nothing spilled or denied.
  DistExecOptions opts;
  auto ok = ExecuteDistPlan(&cluster, plan, opts);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->table.num_rows(), 8u);
  EXPECT_EQ(ok->stats.spill_bytes, 0u);
  EXPECT_EQ(cluster.metrics().Get("exchange.bytes_spilled"), 0);
  EXPECT_EQ(cluster.metrics().Get("exchange.bytes_denied"), 0);

  // A cap below one encoded batch: the retired failure mode. The shuffle
  // now spills on every channel and the join completes with the same rows,
  // only slower in simulated time.
  opts.max_channel_bytes = 16;
  auto capped = ExecuteDistPlan(&cluster, plan, opts);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->table.num_rows(), 8u);
  EXPECT_GT(capped->stats.spill_bytes, 0u);
  EXPECT_GT(cluster.metrics().Get("exchange.bytes_spilled"), 0);
  EXPECT_GT(capped->stats.sim_latency_us, ok->stats.sim_latency_us);

  // Strict mode restores the hard limit: the query fails loudly instead of
  // silently dropping rows, counted in exchange.bytes_denied.
  opts.strict_channel_limit = true;
  auto denied = ExecuteDistPlan(&cluster, plan, opts);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(cluster.metrics().Get("exchange.bytes_denied"), 0);

  // Roomy cap: behaves exactly like unbounded in either mode.
  opts.max_channel_bytes = 1 << 20;
  auto roomy = ExecuteDistPlan(&cluster, plan, opts);
  ASSERT_TRUE(roomy.ok());
  EXPECT_EQ(roomy->table.num_rows(), 8u);
  EXPECT_EQ(roomy->stats.spill_bytes, 0u);
}

}  // namespace
}  // namespace ofi::cluster
