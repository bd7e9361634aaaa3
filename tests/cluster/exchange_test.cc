/// Exchange subsystem units: the wire codec must round-trip every value
/// type and reject corrupt input; the partition hash must be consistent
/// with Value equality; ScatterRows (repartition and broadcast) must deliver
/// deterministically with exact byte/batch accounting; the barrier schedule
/// of the latency replay must keep the max-over-senders (not chained) shape.
#include "cluster/exchange/exchange.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace ofi::cluster::exchange {
namespace {

using sql::Row;
using sql::Value;

// Every channel a test reads is closed by its producer, so receives never
// wait; the deadline only bounds a broken test.
constexpr int64_t kTimeoutMs = 1000;

Row MixedRow(int64_t i) {
  return {Value(i), Value(static_cast<double>(i) + 0.5),
          Value("s" + std::to_string(i)), Value(i % 2 == 0),
          Value::Timestamp(1000 + i), Value::Null()};
}

TEST(ExchangeCodecTest, RoundTripsEveryValueType) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(MixedRow(i));
  rows.push_back({});  // empty row
  std::string batch = EncodeBatch(rows, 0, rows.size());
  auto decoded = DecodeBatch(batch);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ((*decoded)[r].size(), rows[r].size()) << "row " << r;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_EQ((*decoded)[r][c].type(), rows[r][c].type());
      EXPECT_TRUE((*decoded)[r][c].Equals(rows[r][c])) << r << "," << c;
    }
  }
}

TEST(ExchangeCodecTest, EncodedSizeMatchesActualEncoding) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 7; ++i) rows.push_back(MixedRow(i));
  std::string batch = EncodeBatch(rows, 0, rows.size());
  size_t per_row = 0;
  for (const auto& r : rows) per_row += EncodedRowSize(r);
  EXPECT_EQ(batch.size(), per_row + 4);  // + batch header
  EXPECT_EQ(EncodedBytes(rows, rows.size()), batch.size());
  // Framed into batches of 2: ceil(7/2)=4 headers.
  EXPECT_EQ(EncodedBytes(rows, 2), per_row + 4 * 4);
}

TEST(ExchangeCodecTest, RejectsCorruptInput) {
  std::vector<Row> rows = {MixedRow(1)};
  std::string batch = EncodeBatch(rows, 0, rows.size());
  // Truncations at every prefix length must fail, never crash.
  for (size_t cut = 0; cut < batch.size(); ++cut) {
    EXPECT_FALSE(DecodeBatch(batch.substr(0, cut)).ok()) << "cut " << cut;
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeBatch(batch + "x").ok());
  // Unknown type tag.
  std::string bad = batch;
  bad[8] = '\x77';  // first value's tag byte (4 count + 4 value-count)
  EXPECT_FALSE(DecodeBatch(bad).ok());
}

TEST(ExchangePartitionHashTest, ConsistentWithValueEquality) {
  // 1, 1.0 and TIMESTAMP(1) compare equal, so a repartitioned join must
  // route them to one node: equal values -> equal hashes.
  EXPECT_EQ(HashForPartition(Value(int64_t{1})), HashForPartition(Value(1.0)));
  EXPECT_EQ(HashForPartition(Value(int64_t{1})),
            HashForPartition(Value::Timestamp(1)));
  EXPECT_EQ(HashForPartition(Value::Null()), HashForPartition(Value::Null()));
  EXPECT_NE(HashForPartition(Value(int64_t{1})), HashForPartition(Value(1.5)));
  EXPECT_NE(HashForPartition(Value("a")), HashForPartition(Value("b")));
  // Distinct int keys spread over more than one partition residue.
  std::set<uint64_t> residues;
  for (int64_t i = 0; i < 64; ++i) {
    residues.insert(HashForPartition(Value(i)) % 4);
  }
  EXPECT_GT(residues.size(), 1u);
}

TEST(ExchangeNetworkTest, ShuffleDeliversEveryRowExactlyOnceCoPartitioned) {
  const int n = 4;
  ExchangeNetwork net(n, /*batch_rows=*/3);
  Rng rng(11);
  size_t total = 0;
  for (int src = 0; src < n; ++src) {
    std::vector<Row> rows;
    for (int i = 0; i < 20; ++i) {
      rows.push_back({Value(rng.Uniform(0, 50)), Value(int64_t{src})});
    }
    total += rows.size();
    ASSERT_TRUE(ScatterRows(&net, src, rows, /*key_idx=*/0).ok());
  }
  size_t received = 0;
  std::set<int64_t> seen_keys;
  for (int dst = 0; dst < n; ++dst) {
    auto rows = net.ReceiveRows(dst, kTimeoutMs);
    ASSERT_TRUE(rows.ok());
    received += rows->size();
    for (const auto& r : *rows) {
      // Co-partitioning: every row with this key landed HERE.
      EXPECT_EQ(HashForPartition(r[0]) % n, static_cast<uint64_t>(dst));
      seen_keys.insert(r[0].AsInt());
    }
  }
  EXPECT_EQ(received, total);
}

TEST(ExchangeNetworkTest, ReceiveOrderIsSourceOrderThenSendOrder) {
  const int n = 3;
  ExchangeNetwork net(n, /*batch_rows=*/2);
  // Sources broadcast out of source order; node 0 must still see src-0
  // rows, then src-1, then src-2, each in send order.
  const std::optional<size_t> broadcast;
  ASSERT_TRUE(
      ScatterRows(&net, 2, {{Value(int64_t{20})}, {Value(int64_t{21})}},
                  broadcast)
          .ok());
  ASSERT_TRUE(ScatterRows(&net, 0,
                          {{Value(int64_t{0})}, {Value(int64_t{1})},
                           {Value(int64_t{2})}},
                          broadcast)
                  .ok());
  ASSERT_TRUE(ScatterRows(&net, 1, {{Value(int64_t{10})}}, broadcast).ok());
  auto rows = net.ReceiveRows(0, kTimeoutMs);
  ASSERT_TRUE(rows.ok());
  std::vector<int64_t> got;
  for (const auto& r : *rows) got.push_back(r[0].AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 10, 20, 21}));
}

TEST(ExchangeNetworkTest, BroadcastReachesEveryNodeAndCountsCrossTraffic) {
  const int n = 4;
  ExchangeNetwork net(n, /*batch_rows=*/8);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value(i)});
  ASSERT_TRUE(ScatterRows(&net, 1, rows, /*key_idx=*/std::nullopt).ok());
  for (int src : {0, 2, 3}) net.CloseAllFrom(src);  // idle producers
  const size_t encoded = EncodedBytes(rows, 8);
  for (int dst = 0; dst < n; ++dst) {
    auto got = net.ReceiveRows(dst, kTimeoutMs);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), rows.size()) << "dst " << dst;
  }
  // Loopback excluded from cross-node accounting: (n-1) copies move.
  EXPECT_EQ(net.CrossNodeBytes(), encoded * (n - 1));
  // Per-node cross traffic, summed from the per-channel stats.
  auto cross_bytes = [&](int src, int dst) {
    size_t b = 0;
    for (const auto& st : net.Stats()) {
      if (st.src != st.dst && (src < 0 || st.src == src) &&
          (dst < 0 || st.dst == dst)) {
        b += st.bytes;
      }
    }
    return b;
  };
  EXPECT_EQ(cross_bytes(1, -1), encoded * (n - 1));  // out of node 1
  EXPECT_EQ(cross_bytes(0, -1), 0u);
  EXPECT_EQ(cross_bytes(-1, 1), 0u);                 // into node 1
  EXPECT_EQ(cross_bytes(-1, 2), encoded);
  // ceil(10/8) = 2 batches per destination.
  EXPECT_EQ(net.CrossNodeBatches(), 2u * (n - 1));
  // Stats cover every non-empty channel, loopback included.
  size_t stat_bytes = 0;
  for (const auto& s : net.Stats()) stat_bytes += s.bytes;
  EXPECT_EQ(stat_bytes, encoded * n);
}

// The barrier schedule of the one latency replay.
std::vector<SimTime> BarrierReady(
    SimScheduler* sched, const std::vector<int>& res,
    const ExchangeNetwork& net,
    const std::vector<std::vector<ExchangeSendRec>>& logs,
    const std::vector<SimTime>& start, const ExchangeLatencyParams& p) {
  return SimulateExchange(sched, res, {&net}, logs, start, p,
                          ExchangeSchedule::kBarrier)
      .ready;
}

std::vector<ExchangeSendRec> AsSendRecs(
    const std::vector<StreamingScatter::SendRec>& log) {
  std::vector<ExchangeSendRec> out;
  for (const auto& rec : log) out.push_back(ExchangeSendRec{0, rec.dst, rec.bytes});
  return out;
}

TEST(ExchangeSimTest, ParallelExchangeIsMaxOverSendersNotSum) {
  ExchangeLatencyParams p;  // hop 25, batch 4, kb 2
  auto run = [&](int n) {
    SimScheduler sched;
    std::vector<int> res;
    for (int i = 0; i < n; ++i) res.push_back(sched.AddResource());
    ExchangeNetwork net(n, 64);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 200; ++i) rows.push_back({Value(i), Value(i * 7)});
    std::vector<std::vector<ExchangeSendRec>> logs;
    for (int src = 0; src < n; ++src) {
      auto log = ScatterRows(&net, src, rows, 0);
      EXPECT_TRUE(log.ok());
      logs.push_back(log.ok() ? AsSendRecs(*log) : std::vector<ExchangeSendRec>{});
    }
    std::vector<SimTime> start(static_cast<size_t>(n), 100);
    auto done = BarrierReady(&sched, res, net, logs, start, p);
    SimTime max_done = 0;
    for (SimTime d : done) max_done = std::max(max_done, d);
    return max_done - 100;
  };
  SimTime two = run(2);
  SimTime eight = run(8);
  // Each node's send/receive work SHRINKS with n (same rows split n ways) —
  // the parallel exchange must not grow linearly in node count.
  EXPECT_LT(eight, 3 * two);
}

TEST(ExchangeSimTest, NoTrafficChargesNothing) {
  SimScheduler sched;
  std::vector<int> res = {sched.AddResource(), sched.AddResource()};
  ExchangeNetwork net(2, 64);
  std::vector<SimTime> start = {40, 60};
  auto done = BarrierReady(&sched, res, net, {{}, {}}, start,
                           ExchangeLatencyParams{});
  EXPECT_EQ(done[0], 40);
  EXPECT_EQ(done[1], 60);
}

TEST(ExchangeSimTest, ReceiverWaitsForSlowestSenderPlusHop) {
  ExchangeLatencyParams p;
  SimScheduler sched;
  std::vector<int> res = {sched.AddResource(), sched.AddResource(),
                          sched.AddResource()};
  ExchangeNetwork net(3, 64);
  // Nodes 1 and 2 ship one small batch each to node 0; node 2 starts late.
  const std::vector<Row> one = {{Value(int64_t{1})}};
  const std::vector<Row> two = {{Value(int64_t{2})}};
  ASSERT_TRUE(net.channel(1, 0).Send(EncodeBatch(one, 0, 1)).ok());
  ASSERT_TRUE(net.channel(2, 0).Send(EncodeBatch(two, 0, 1)).ok());
  size_t batch_bytes = net.channel(1, 0).bytes();
  std::vector<std::vector<ExchangeSendRec>> logs = {
      {}, {{0, 0, batch_bytes}}, {{0, 0, batch_bytes}}};
  std::vector<SimTime> start = {0, 0, 500};
  auto done = BarrierReady(&sched, res, net, logs, start, p);
  auto service = [&](size_t bytes, size_t batches) {
    return static_cast<SimTime>(batches) * p.batch_service_us +
           KibServiceTime(0, bytes, p.kb_service_us);
  };
  SimTime send_service = service(batch_bytes, 1);
  // Node 2 sends at 500..500+s; node 0 decodes after that + one hop.
  SimTime slowest_arrival = 500 + send_service + p.network_hop_us;
  EXPECT_EQ(done[0], slowest_arrival + service(2 * batch_bytes, 2));
}

}  // namespace
}  // namespace ofi::cluster::exchange
