/// Pipelined exchange primitives: blocking PopBatchWait (condition-variable
/// wakeup, fail-fast on producer error, TimedOut on deadline),
/// Close(status) propagation, sequence-tagged rollback that stays correct
/// when a consumer drained batches between the mark and the rollback (the
/// producer-fails-mid-stream path), ScatterRows' framing against the
/// EncodeBatch spec and ReceiveRows' drain order, and the deterministic
/// latency replay: pipelined, the consumer frontier starts before the
/// skewed producer's frontier ends; under the barrier schedule it equals
/// the one-lump-per-node formula it replaced, on randomized traffic. The
/// concurrent stress cases run under tsan in CI via the sanitizer focus
/// list (scripts/check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "cluster/exchange/exchange.h"
#include "common/rng.h"

namespace ofi::cluster {
namespace {

namespace fs = std::filesystem;

using exchange::ExchangeChannel;
using exchange::ExchangeNetwork;
constexpr auto kBarrier = exchange::ExchangeSchedule::kBarrier;
constexpr auto kPipelined = exchange::ExchangeSchedule::kPipelined;
using sql::Row;
using sql::Value;

Row MakeRow(int64_t k, const std::string& pad) {
  return Row{Value(k), Value(pad)};
}

std::vector<Row> MakeRows(int count, int64_t key_mod, size_t pad = 40) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    rows.push_back(MakeRow(i % key_mod,
                           std::string(pad, static_cast<char>('a' + i % 26))));
  }
  return rows;
}

// --- PopBatchWait / Close(status) -------------------------------------------

TEST(ExchangePipelineTest, PopBatchWaitDrainsThenSignalsEndOfStream) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("one").ok());
  ASSERT_TRUE(ch.Send("two").ok());
  ch.Close();

  auto a = ch.PopBatchWait(1000);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(**a, "one");
  auto b = ch.PopBatchWait(1000);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(**b, "two");
  // Clean close: drained channel reports end-of-stream, not an error.
  auto end = ch.PopBatchWait(1000);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
  // Sending after close is a producer bug, surfaced loudly.
  EXPECT_FALSE(ch.Send("late").ok());
}

TEST(ExchangePipelineTest, ErrorCloseFailsFastEvenWithQueuedBatches) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("queued").ok());
  ch.Close(Status::Internal("producer died"));

  // Fail fast outranks the queued payload: a consumer must never assemble
  // a partial stream from a failed producer.
  auto waited = ch.PopBatchWait(1000);
  ASSERT_FALSE(waited.ok());
  EXPECT_NE(waited.status().ToString().find("producer died"),
            std::string::npos);
  auto again = ch.PopBatchWait(1000);
  ASSERT_FALSE(again.ok());

  // First non-OK close wins; a later OK close never masks it.
  ch.Close();
  EXPECT_FALSE(ch.close_status().ok());
}

TEST(ExchangePipelineTest, PopBatchWaitTimesOutOnSilentProducer) {
  ExchangeChannel ch;
  auto r = ch.PopBatchWait(10);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimedOut()) << r.status().ToString();
}

TEST(ExchangePipelineTest, PopBatchWaitWakesOnSendAndOnClose) {
  ExchangeChannel ch;
  std::atomic<int> got{0};
  std::thread consumer([&] {
    auto r = ch.PopBatchWait(30'000);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "payload");
    got.fetch_add(1);
    auto end = ch.PopBatchWait(30'000);
    ASSERT_TRUE(end.ok());
    EXPECT_FALSE(end->has_value());
    got.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(ch.Send("payload").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.Close();
  consumer.join();
  EXPECT_EQ(got.load(), 2);
}

// --- Sequence-tagged rollback under interleaved consumption -----------------

TEST(ExchangePipelineTest, RollbackDropsOnlyPostMarkBatches) {
  ExchangeChannel ch;
  ASSERT_TRUE(ch.Send("aaaa").ok());
  ExchangeChannel::Checkpoint cp = ch.Mark();
  ASSERT_TRUE(ch.Send("bbbb").ok());
  ASSERT_TRUE(ch.Send("cccc").ok());

  // A consumer drains the pre-mark batch AND one post-mark batch before the
  // rollback lands — the count-based scheme this replaces would then have
  // dropped the wrong items.
  ASSERT_EQ(**ch.PopBatchWait(1000), "aaaa");
  ASSERT_EQ(**ch.PopBatchWait(1000), "bbbb");

  ch.RollbackTo(cp);
  // Only the undelivered post-mark batch is dropped; lifetime accounting
  // rewinds to the mark and the whole post-mark payload (drained or not)
  // lands in aborted_bytes.
  EXPECT_EQ(ch.queued_bytes(), 0u);
  EXPECT_EQ(ch.bytes(), 4u);
  EXPECT_EQ(ch.batches(), 1u);
  EXPECT_EQ(ch.aborted_bytes(), 8u);

  // The channel stays usable: a retry's sends flow normally, and once
  // closed it ends right after them (the dropped batch never resurfaces).
  ASSERT_TRUE(ch.Send("dddd").ok());
  ch.Close();
  EXPECT_EQ(**ch.PopBatchWait(1000), "dddd");
  EXPECT_FALSE(ch.PopBatchWait(1000)->has_value());
  EXPECT_EQ(ch.bytes(), 8u);
}

TEST(ExchangePipelineTest, RollbackWithSpilledSegmentsAndInterleavedPops) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-rollback";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), /*strict=*/false, &budget};
    ExchangeChannel::SendLimits limits{32, &cfg};
    ExchangeChannel ch;

    // Two pre-mark batches (second spills past the 32B window).
    ASSERT_TRUE(ch.Send(std::string(20, 'a'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 'b'), limits).ok());
    ExchangeChannel::Checkpoint cp = ch.Mark();
    // Post-mark: all spill (the window is still full).
    ASSERT_TRUE(ch.Send(std::string(20, 'c'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 'd'), limits).ok());
    EXPECT_EQ(ch.spill_segments(), 3u);

    // Consumer drains one pre-mark batch concurrently with the "failure".
    ASSERT_EQ(**ch.PopBatchWait(1000), std::string(20, 'a'));

    ch.RollbackTo(cp);
    EXPECT_EQ(ch.bytes(), 40u);
    EXPECT_EQ(ch.aborted_bytes(), 40u);
    EXPECT_EQ(budget.used.load(), 20u);  // only the pre-mark segment remains
    // The surviving pre-mark payload is still deliverable, in order.
    ch.Close();
    ASSERT_EQ(**ch.PopBatchWait(1000), std::string(20, 'b'));
    EXPECT_FALSE(ch.PopBatchWait(1000)->has_value());
    EXPECT_EQ(budget.used.load(), 0u);
  }
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(ExchangePipelineTest, RollbackToEmptyMarkRemovesSpillFile) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-rollback-empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), /*strict=*/false, &budget};
    ExchangeChannel::SendLimits limits{16, &cfg};
    ExchangeChannel ch;
    ExchangeChannel::Checkpoint cp = ch.Mark();
    ASSERT_TRUE(ch.Send(std::string(20, 'x'), limits).ok());
    ASSERT_TRUE(ch.Send(std::string(20, 'y'), limits).ok());
    EXPECT_FALSE(ch.spill_path().empty());
    ch.RollbackTo(cp);
    // No pre-mark segments survive: the spill file itself is deleted and
    // the budget fully released, not merely truncated.
    EXPECT_TRUE(ch.spill_path().empty());
    EXPECT_EQ(budget.used.load(), 0u);
    EXPECT_TRUE(fs::is_empty(dir));
  }
  fs::remove_all(dir);
}

// Producer fails mid-stream while a consumer is draining with the blocking
// pop: the ScatterGuard rollback races the consumer's PopBatchWait on the
// same channels. Run under tsan in CI; single-threaded invariants (no file
// leak, budget drained, abort accounting) are asserted every iteration.
TEST(ExchangePipelineTest, ProducerFailsMidStreamWhileConsumerDrains) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-stress";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<Row> rows = MakeRows(160, 7);
  for (int iter = 0; iter < 20; ++iter) {
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), /*strict=*/false, &budget};
    {
      ExchangeNetwork net(2, /*batch_rows=*/8, /*max_channel_bytes=*/256, cfg);
      std::thread consumer([&] {
        auto r = net.ReceiveRows(1, /*timeout_ms=*/30'000);
        // Depending on how far the drain got before the rollback + error
        // close, the consumer either fails fast with the producer's status
        // or (when it drained everything first) sees a clean close from
        // node 1 and the error from node 0.
        if (!r.ok()) {
          EXPECT_NE(r.status().ToString().find("injected"), std::string::npos)
              << r.status().ToString();
        }
      });
      {
        exchange::ScatterGuard guard(&net, 0);
        exchange::StreamingScatter scatter(&net, 0, /*key_idx=*/0);
        size_t pushed = 0;
        for (const Row& row : rows) {
          ASSERT_TRUE(scatter.Push(row).ok());
          // Fail partway through, at a different point each iteration.
          if (++pushed > static_cast<size_t>(16 + iter * 5)) break;
        }
        // No Commit: the guard rolls back node 0's partial scatter while
        // the consumer may still be popping.
      }
      net.CloseAllFrom(0, Status::Internal("injected producer failure"));
      net.CloseAllFrom(1);  // node 1 produced nothing and closed cleanly
      consumer.join();
      EXPECT_GT(net.AbortedBytes(), 0u);
    }
    // Channels destroyed: every spill byte must be returned and no temp
    // file may survive the failed query.
    EXPECT_EQ(budget.used.load(), 0u) << "iteration " << iter;
    EXPECT_TRUE(fs::is_empty(dir)) << "iteration " << iter;
  }
  fs::remove_all(dir);
}

// --- ScatterRows framing ----------------------------------------------------

/// Closes the src->dst channel and pops every batch it holds.
std::vector<std::string> DrainAll(ExchangeNetwork* net, int src, int dst) {
  std::vector<std::string> batches;
  net->channel(src, dst).Close();
  while (true) {
    auto b = net->channel(src, dst).PopBatchWait(1000);
    EXPECT_TRUE(b.ok());
    if (!b->has_value()) break;
    batches.push_back(std::move(**b));
  }
  return batches;
}

/// The framing spec: EncodeBatch over `rows` in row order, cut into
/// `batch_rows` chunks.
std::vector<std::string> SpecBatches(const std::vector<Row>& rows,
                                     size_t batch_rows) {
  std::vector<std::string> batches;
  for (size_t b = 0; b < rows.size(); b += batch_rows) {
    batches.push_back(
        exchange::EncodeBatch(rows, b, std::min(b + batch_rows, rows.size())));
  }
  return batches;
}

/// The rows of `rows` that hash-partition to `dst` of `n`, in row order.
std::vector<Row> Partition(const std::vector<Row>& rows, int dst, int n) {
  std::vector<Row> part;
  for (const Row& row : rows) {
    if (exchange::HashForPartition(row[0]) % static_cast<uint64_t>(n) ==
        static_cast<uint64_t>(dst)) {
      part.push_back(row);
    }
  }
  return part;
}

TEST(ExchangePipelineTest, ScatterRowsRepartitionMatchesFramingSpec) {
  const std::vector<Row> rows = MakeRows(100, 11);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  auto log = exchange::ScatterRows(&net, 0, rows, /*key_idx=*/0);
  ASSERT_TRUE(log.ok());

  size_t flushed_bytes = 0;
  for (const auto& rec : *log) flushed_bytes += rec.bytes;
  EXPECT_EQ(flushed_bytes, net.channel(0, 0).bytes() +
                               net.channel(0, 1).bytes() +
                               net.channel(0, 2).bytes());
  for (int dst = 0; dst < 3; ++dst) {
    // Same batch boundaries, same payload, same order as the spec, so no
    // schedule can leak into downstream results.
    EXPECT_EQ(DrainAll(&net, 0, dst), SpecBatches(Partition(rows, dst, 3), 8))
        << "dst " << dst;
  }
}

TEST(ExchangePipelineTest, ScatterRowsBroadcastMatchesFramingSpec) {
  const std::vector<Row> rows = MakeRows(37, 5);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  ASSERT_TRUE(
      exchange::ScatterRows(&net, 1, rows, /*key_idx=*/std::nullopt).ok());

  for (int dst = 0; dst < 3; ++dst) {
    EXPECT_EQ(DrainAll(&net, 1, dst), SpecBatches(rows, 8)) << "dst " << dst;
  }
}

TEST(ExchangePipelineTest, ReceiveRowsDrainsInSourceThenSendOrder) {
  const std::vector<Row> rows = MakeRows(90, 13);
  ExchangeNetwork net(3, /*batch_rows=*/8);
  for (int src = 0; src < 3; ++src) {
    ASSERT_TRUE(exchange::ScatterRows(&net, src, rows, 0).ok());
  }
  for (int dst = 0; dst < 3; ++dst) {
    // Every source sent the same partition: the receive is that partition
    // once per source, in source order.
    const std::vector<Row> part = Partition(rows, dst, 3);
    std::vector<Row> want;
    for (int src = 0; src < 3; ++src) {
      want.insert(want.end(), part.begin(), part.end());
    }
    size_t streamed_batches = 0;
    auto got = net.ReceiveRows(dst, /*timeout_ms=*/1000, &streamed_batches);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want.size(), got->size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].size(), (*got)[i].size());
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_EQ(want[i][c].ToString(), (*got)[i][c].ToString());
      }
    }
    EXPECT_GT(streamed_batches, 0u);
    EXPECT_EQ(streamed_batches, 3 * SpecBatches(part, 8).size());
  }
}

// --- Deterministic pipelined latency replay ---------------------------------

/// Builds the skewed two-node traffic (node 0 ships `heavy` rows to node 1,
/// node 1 ships a single light batch back) on a fresh network and returns
/// the producer send logs (hash keys: even -> node 0, odd -> node 1).
std::vector<std::vector<exchange::ExchangeSendRec>> SkewedTraffic(
    ExchangeNetwork* net, int heavy) {
  std::vector<std::vector<exchange::ExchangeSendRec>> logs(2);
  for (int src = 0; src < 2; ++src) {
    const int count = src == 0 ? heavy : 4;
    std::vector<Row> rows;
    for (int i = 0; i < count; ++i) {
      // Everything node 0 produces is odd-keyed (routes to node 1) and
      // vice versa: maximal cross-traffic with one dominant producer.
      rows.push_back(
          MakeRow(2 * i + (src == 0 ? 1 : 0), std::string(64, 'p')));
    }
    auto log = exchange::ScatterRows(net, src, rows, /*key_idx=*/0);
    EXPECT_TRUE(log.ok());
    if (!log.ok()) continue;
    for (const auto& rec : *log) {
      logs[static_cast<size_t>(src)].push_back(
          exchange::ExchangeSendRec{0, rec.dst, rec.bytes});
    }
  }
  return logs;
}

TEST(ExchangePipelineTest, PipelinedReplayOverlapsSkewedProducer) {
  exchange::ExchangeLatencyParams p;
  const std::vector<SimTime> start = {0, 0};
  const std::vector<int> resources = {0, 1};

  ExchangeNetwork barrier_net(2, /*batch_rows=*/8);
  auto barrier_logs = SkewedTraffic(&barrier_net, /*heavy=*/400);
  SimScheduler barrier_sched;
  barrier_sched.AddResource();
  barrier_sched.AddResource();
  std::vector<SimTime> barrier_done =
      exchange::SimulateExchange(&barrier_sched, resources, {&barrier_net},
                                 barrier_logs, start, p, kBarrier)
          .ready;

  ExchangeNetwork piped_net(2, /*batch_rows=*/8);
  auto logs = SkewedTraffic(&piped_net, /*heavy=*/400);
  SimScheduler sched;
  sched.AddResource();
  sched.AddResource();
  exchange::ExchangeSimResult sim = exchange::SimulateExchange(
      &sched, resources, {&piped_net}, logs, start, p, kPipelined);

  // The consumer frontier starts strictly before the slow producer's
  // frontier ends — the overlap the barrier schedule forbids by construction.
  EXPECT_LT(sim.first_consume[1], sim.producer_done[0]);
  EXPECT_GT(sim.overlap_us, 0);
  // And the overlap translates into lower end-to-end readiness than the
  // barrier schedule of the identical traffic.
  EXPECT_LT(*std::max_element(sim.ready.begin(), sim.ready.end()),
            *std::max_element(barrier_done.begin(), barrier_done.end()));

  // Deterministic: a second replay of the same logs on a fresh scheduler
  // lands on identical times.
  SimScheduler sched2;
  sched2.AddResource();
  sched2.AddResource();
  exchange::ExchangeSimResult again = exchange::SimulateExchange(
      &sched2, resources, {&piped_net}, logs, start, p, kPipelined);
  EXPECT_EQ(again.ready, sim.ready);
  EXPECT_EQ(again.producer_done, sim.producer_done);
  EXPECT_EQ(again.first_consume, sim.first_consume);
  EXPECT_EQ(again.overlap_us, sim.overlap_us);
}

TEST(ExchangePipelineTest, PipelinedReplayChargesModeledSpill) {
  exchange::ExchangeLatencyParams p;
  const std::vector<SimTime> start = {0, 0};
  const std::vector<int> resources = {0, 1};

  // A tiny channel cap: the replay must account spill deterministically
  // from the send/drain schedule (the real counters race the consumer).
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-pipe-sim-spill";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exchange::SpillBudget budget;
  exchange::ExchangeSpillConfig cfg{dir.string(), /*strict=*/false, &budget};
  ExchangeNetwork capped(2, /*batch_rows=*/8, /*max_channel_bytes=*/128, cfg);
  auto logs = SkewedTraffic(&capped, /*heavy=*/400);

  SimScheduler sched;
  sched.AddResource();
  sched.AddResource();
  exchange::ExchangeSimResult sim = exchange::SimulateExchange(
      &sched, resources, {&capped}, logs, start, p, kPipelined);
  EXPECT_GT(sim.modeled_spill_bytes, 0u);

  // Uncapped replay of the same traffic finishes no later than the capped
  // one (spill only ever adds service).
  ExchangeNetwork uncapped(2, /*batch_rows=*/8);
  auto free_logs = SkewedTraffic(&uncapped, /*heavy=*/400);
  SimScheduler sched2;
  sched2.AddResource();
  sched2.AddResource();
  exchange::ExchangeSimResult free_sim = exchange::SimulateExchange(
      &sched2, resources, {&uncapped}, free_logs, start, p, kPipelined);
  EXPECT_EQ(free_sim.modeled_spill_bytes, 0u);
  EXPECT_LE(*std::max_element(free_sim.ready.begin(), free_sim.ready.end()),
            *std::max_element(sim.ready.begin(), sim.ready.end()));

  // Drain so the channels are clean before teardown (keeps the temp dir
  // empty for the leak check).
  for (int dst = 0; dst < 2; ++dst) {
    ASSERT_TRUE(capped.ReceiveRows(dst, /*timeout_ms=*/1000).ok());
    ASSERT_TRUE(uncapped.ReceiveRows(dst, /*timeout_ms=*/1000).ok());
  }
  EXPECT_EQ(budget.used.load(), 0u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

// --- Barrier schedule vs the lump formula -----------------------------------

/// Reference copy of the barrier latency model the replay's barrier
/// schedule replaced: one lump charge per node for all of its cross-node
/// sends, then, per receiver, one lump for all of its decodes plus its
/// spill I/O, starting once the slowest sender that shipped it a batch has
/// finished plus one hop. Reads the networks' real channel counters.
std::vector<SimTime> LumpBarrierReference(
    SimScheduler* scheduler, const std::vector<int>& resources,
    const std::vector<const ExchangeNetwork*>& nets,
    const std::vector<SimTime>& start, const exchange::ExchangeLatencyParams& p) {
  const int n = static_cast<int>(resources.size());
  auto kib = [](size_t b) { return static_cast<SimTime>((b + 1023) / 1024); };
  auto lump = [&](size_t bytes, size_t batches) {
    return static_cast<SimTime>(batches) * p.batch_service_us +
           kib(bytes) * p.kb_service_us;
  };
  std::vector<SimTime> send_done(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    size_t bytes = 0, batches = 0;
    for (const auto* net : nets) {
      for (int dst = 0; dst < n; ++dst) {
        if (dst == i) continue;
        bytes += net->channel(i, dst).bytes();
        batches += net->channel(i, dst).batches();
      }
    }
    send_done[static_cast<size_t>(i)] = scheduler->Charge(
        resources[static_cast<size_t>(i)], start[static_cast<size_t>(i)],
        lump(bytes, batches));
  }
  std::vector<SimTime> done(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    SimTime arrival = std::max(start[static_cast<size_t>(j)],
                               send_done[static_cast<size_t>(j)]);
    size_t bytes = 0, batches = 0, spilled = 0;
    for (const auto* net : nets) {
      for (int i = 0; i < n; ++i) {
        const ExchangeChannel& ch = net->channel(i, j);
        spilled += ch.spilled_bytes();
        if (i == j || ch.batches() == 0) continue;
        bytes += ch.bytes();
        batches += ch.batches();
        arrival = std::max(arrival, send_done[static_cast<size_t>(i)] +
                                        p.network_hop_us);
      }
    }
    SimTime service = lump(bytes, batches);
    if (spilled > 0) {
      service += kib(spilled) * (p.spill_write_kb_us + p.spill_read_kb_us);
    }
    done[static_cast<size_t>(j)] = scheduler->Charge(
        resources[static_cast<size_t>(j)], arrival, service);
  }
  return done;
}

TEST(ExchangePipelineTest, BarrierScheduleMatchesLumpFormula) {
  fs::path dir = fs::path(::testing::TempDir()) / "ofi-barrier-replay";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Rng rng(20261019);
  const exchange::ExchangeLatencyParams p;
  size_t spilling_sets = 0;
  for (int set = 0; set < 400; ++set) {
    SCOPED_TRACE("traffic set " + std::to_string(set));
    const int n = static_cast<int>(rng.Uniform(1, 6));
    const bool repartition = rng.Uniform(0, 1) == 1;
    const size_t batch_rows = static_cast<size_t>(rng.Uniform(1, 16));
    // Half the sets cap the channels low enough that most of them spill.
    const size_t cap =
        rng.Uniform(0, 1) == 1 ? static_cast<size_t>(rng.Uniform(64, 2048)) : 0;
    exchange::SpillBudget budget;
    exchange::ExchangeSpillConfig cfg{dir.string(), /*strict=*/false, &budget};
    ExchangeNetwork left(n, batch_rows, cap, cfg);
    ExchangeNetwork right(n, batch_rows, cap, cfg);
    // Repartition moves both relations; broadcast moves one of them.
    const bool broadcast_left = rng.Uniform(0, 1) == 1;
    std::vector<std::vector<exchange::ExchangeSendRec>> logs(
        static_cast<size_t>(n));
    std::vector<SimTime> start(static_cast<size_t>(n));
    for (int src = 0; src < n; ++src) {
      start[static_cast<size_t>(src)] = rng.Uniform(0, 400);
      for (int net_idx = 0; net_idx < 2; ++net_idx) {
        if (!repartition && broadcast_left != (net_idx == 0)) continue;
        // About one producer in four has no rows at all.
        const int count =
            rng.Uniform(0, 3) == 0 ? 0 : static_cast<int>(rng.Uniform(1, 90));
        std::vector<Row> rows;
        for (int r = 0; r < count; ++r) {
          rows.push_back(MakeRow(
              rng.Uniform(0, 1000),
              std::string(static_cast<size_t>(rng.Uniform(0, 120)), 'x')));
        }
        auto log = exchange::ScatterRows(
            net_idx == 0 ? &left : &right, src, rows,
            repartition ? std::optional<size_t>(0) : std::nullopt);
        ASSERT_TRUE(log.ok()) << log.status().ToString();
        for (const auto& rec : *log) {
          logs[static_cast<size_t>(src)].push_back(
              exchange::ExchangeSendRec{net_idx, rec.dst, rec.bytes});
        }
      }
    }
    std::vector<int> resources(static_cast<size_t>(n));
    SimScheduler ref_sched, sched;
    for (int i = 0; i < n; ++i) {
      resources[static_cast<size_t>(i)] = ref_sched.AddResource();
      sched.AddResource();
    }
    const std::vector<SimTime> want =
        LumpBarrierReference(&ref_sched, resources, {&left, &right}, start, p);
    exchange::ExchangeSimResult got = exchange::SimulateExchange(
        &sched, resources, {&left, &right}, logs, start, p, kBarrier);
    EXPECT_EQ(got.ready, want);
    EXPECT_EQ(got.overlap_us, 0);
    // Rule 2: with no consumer running, the modeled spill is the real one.
    EXPECT_EQ(got.modeled_spill_bytes, left.SpilledBytes() + right.SpilledBytes());
    if (left.SpilledBytes() + right.SpilledBytes() > 0) ++spilling_sets;
  }
  // The capped half of the sets must really exercise the spill rule.
  EXPECT_GT(spilling_sets, 100u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ofi::cluster
