#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/sim_clock.h"

namespace ofi {
namespace {

TEST(SimSchedulerTest, SerializedResourceQueues) {
  SimScheduler sched;
  int r = sched.AddResource();
  EXPECT_EQ(sched.Charge(r, 0, 100), 100);
  EXPECT_EQ(sched.Charge(r, 0, 100), 200);   // queues behind the first
  EXPECT_EQ(sched.Charge(r, 500, 100), 600); // idle gap, starts at arrival
}

TEST(SimSchedulerTest, GapFittingBackfillsIdleTime) {
  SimScheduler sched;
  int r = sched.AddResource();
  // A future charge first (out-of-order issue)...
  EXPECT_EQ(sched.Charge(r, 10'000, 100), 10'100);
  // ...must not starve an earlier arrival: it backfills the idle prefix.
  EXPECT_EQ(sched.Charge(r, 0, 100), 100);
  // A long job that doesn't fit before the reserved interval slides past it.
  EXPECT_EQ(sched.Charge(r, 200, 9'900), 20'000);
}

TEST(SimSchedulerTest, ExactGapFits) {
  SimScheduler sched;
  int r = sched.AddResource();
  sched.Charge(r, 0, 100);     // [0,100)
  sched.Charge(r, 300, 100);   // [300,400)
  EXPECT_EQ(sched.Charge(r, 100, 200), 300);  // exactly fills [100,300)
}

TEST(SimSchedulerTest, BusyTimeAndTrim) {
  SimScheduler sched;
  int r = sched.AddResource();
  sched.Charge(r, 0, 50);
  sched.Charge(r, 100, 50);
  EXPECT_EQ(sched.BusyTime(r), 100);
  sched.Trim(75);
  EXPECT_EQ(sched.BusyTime(r), 100);  // trimmed work still counted
  sched.Reset();
  EXPECT_EQ(sched.BusyTime(r), 0);
}

TEST(SimSchedulerTest, IndependentResources) {
  SimScheduler sched;
  int a = sched.AddResource();
  int b = sched.AddResource();
  EXPECT_EQ(sched.Charge(a, 0, 100), 100);
  EXPECT_EQ(sched.Charge(b, 0, 100), 100);  // no cross-resource queueing
}

TEST(SimSchedulerTest, ZeroServiceBooksNothing) {
  SimScheduler sched;
  int r = sched.AddResource();
  EXPECT_EQ(sched.Charge(r, 100, 0), 100);
  EXPECT_EQ(sched.IntervalCount(r), 0u);
  EXPECT_EQ(sched.BusyTime(r), 0);
  // A zero-width booking at 100 would have pushed this request to 100.
  EXPECT_EQ(sched.Charge(r, 90, 20), 110);
}

TEST(SimSchedulerTest, AdjacentIntervalsMerge) {
  SimScheduler sched;
  int r = sched.AddResource();
  for (int i = 0; i < 100; ++i) sched.Charge(r, 0, 10);  // back to back
  EXPECT_EQ(sched.IntervalCount(r), 1u);
  sched.Charge(r, 2'000, 10);  // [2000,2010): a real gap stays
  EXPECT_EQ(sched.IntervalCount(r), 2u);
  // Exactly filling the gap joins all three into one.
  EXPECT_EQ(sched.Charge(r, 1'000, 1'000), 2'000);
  EXPECT_EQ(sched.IntervalCount(r), 1u);
  EXPECT_EQ(sched.BusyTime(r), 2'010);
}

TEST(SimSchedulerTest, CountsChargesBelowTheTrimFloor) {
  SimScheduler sched;
  int r = sched.AddResource();
  sched.Charge(r, 0, 50);
  sched.Trim(100);
  sched.Charge(r, 100, 10);
  EXPECT_EQ(sched.LateCharges(), 0u);
  sched.Charge(r, 20, 10);  // breaks Trim's contract
  EXPECT_EQ(sched.LateCharges(), 1u);
  sched.Reset();
  EXPECT_EQ(sched.LateCharges(), 0u);
  sched.Charge(r, 20, 10);  // Reset drops the floor
  EXPECT_EQ(sched.LateCharges(), 0u);
}

/// The gap-fitting scheduler as it was before intervals merged: every
/// charge books its own interval, zero-width ones included. Kept as the
/// reference that merging must agree with.
class UnmergedScheduler {
 public:
  explicit UnmergedScheduler(int resources) : busy_(resources) {}

  SimTime Charge(int resource, SimTime arrival, SimTime service_us) {
    auto& busy = busy_[resource];
    SimTime t = arrival;
    auto it = busy.upper_bound(t);
    if (it != busy.begin()) {
      auto prev = std::prev(it);
      if (prev->second > t) t = prev->second;
    }
    while (it != busy.end() && it->first < t + service_us) {
      t = it->second;
      ++it;
    }
    busy.emplace(t, t + service_us);
    return t + service_us;
  }

  SimTime BusyTime(int resource) const {
    SimTime total = trimmed_[resource];
    for (const auto& [start, end] : busy_[resource]) total += end - start;
    return total;
  }

  void Trim(SimTime floor) {
    for (size_t r = 0; r < busy_.size(); ++r) {
      auto it = busy_[r].begin();
      while (it != busy_[r].end() && it->second < floor) {
        trimmed_[r] += it->second - it->first;
        it = busy_[r].erase(it);
      }
    }
  }

  /// Start and length of one idle gap between intervals starting at or
  /// after `from` on `resource` ({from, 0} if there is none), so a test can
  /// aim a request at an exact fit.
  std::pair<SimTime, SimTime> Gap(int resource, SimTime from,
                                  uint64_t pick) const {
    std::vector<std::pair<SimTime, SimTime>> gaps;
    SimTime prev_end = -1;
    for (const auto& [start, end] : busy_[resource]) {
      if (prev_end >= from && start > prev_end) {
        gaps.emplace_back(prev_end, start - prev_end);
      }
      prev_end = end;
    }
    if (gaps.empty()) return {from, 0};
    return gaps[pick % gaps.size()];
  }

 private:
  std::vector<std::map<SimTime, SimTime>> busy_;
  std::vector<SimTime> trimmed_ = std::vector<SimTime>(busy_.size(), 0);
};

TEST(SimSchedulerTest, MergingMatchesUnmergedReference) {
  constexpr int kResources = 3;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SimScheduler sched;
    UnmergedScheduler ref(kResources);
    for (int i = 0; i < kResources; ++i) sched.AddResource();
    SimTime floor = 0;
    for (int step = 0; step < 2'000; ++step) {
      const int r = static_cast<int>(rng.Uniform(0, kResources - 1));
      SimTime arrival = floor + rng.Uniform(0, 400);  // out of order
      SimTime service = rng.Uniform(1, 30);
      const int64_t kind = rng.Uniform(0, 9);
      if (kind == 0) {
        // Aim at an existing gap and fill it exactly.
        auto [start, length] = ref.Gap(r, floor, rng.Next());
        if (length > 0) {
          arrival = start;
          service = length;
        }
      } else if (kind == 1) {
        floor += rng.Uniform(0, 60);  // arrivals never go below a Trim
        sched.Trim(floor);
        ref.Trim(floor);
        continue;
      }
      ASSERT_EQ(sched.Charge(r, arrival, service),
                ref.Charge(r, arrival, service))
          << "seed " << seed << " step " << step;
    }
    for (int r = 0; r < kResources; ++r) {
      EXPECT_EQ(sched.BusyTime(r), ref.BusyTime(r)) << "seed " << seed;
    }
    EXPECT_EQ(sched.LateCharges(), 0u);
  }
}

TEST(RngTest, DeterministicAndUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng r(7);
  int64_t lo = 100, hi = 0;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = r.Uniform(0, 99);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 99);
}

TEST(RngTest, NURandStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NURand(1023, 0, 2999);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 2999);
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.Chance(0.1);
  EXPECT_NEAR(hits / 100'000.0, 0.1, 0.01);
}

TEST(ZipfianTest, SkewsTowardLowRanks) {
  Zipfian z(1000, 0.99, 3);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100'000; ++i) {
    uint64_t v = z.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 must dominate the tail decisively.
  EXPECT_GT(counts[0], counts[500] * 10);
  EXPECT_GT(counts[0] + counts[1] + counts[2], 100'000 / 10);
}

TEST(LatencyHistogramTest, PercentilesAndMerge) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_NEAR(h.Mean(), 500.5, 0.1);
  // Bucketed percentiles are approximate: within a bucket width.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500, 150);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 990, 300);

  LatencyHistogram other;
  other.Record(5000);
  h.Merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_EQ(h.max(), 5000);
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.Percentile(99), 0);
  h.Record(10);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistryTest, Counters) {
  MetricsRegistry m;
  m.Add("txn.commit");
  m.Add("txn.commit", 4);
  EXPECT_EQ(m.Get("txn.commit"), 5);
  EXPECT_EQ(m.Get("unknown"), 0);
  m.Reset();
  EXPECT_EQ(m.Get("txn.commit"), 0);
}

}  // namespace
}  // namespace ofi
