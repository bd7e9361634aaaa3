/// \file metrics.h
/// \brief Counters and latency histograms. Used by benchmarks to report the
/// paper-shaped series and by the autonomous-DB information store (§IV-A)
/// as its raw monitoring feed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ofi {

/// \brief A latency histogram with power-of-two-ish buckets plus exact
/// tracking of count/sum/min/max. Percentiles are approximate (bucket
/// upper bounds), which is fine for SLA checks and bench reporting.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kNumBuckets, 0) {}

  void Record(int64_t value_us) {
    if (value_us < 0) value_us = 0;
    ++count_;
    sum_ += value_us;
    min_ = count_ == 1 ? value_us : std::min(min_, value_us);
    max_ = std::max(max_, value_us);
    buckets_[BucketFor(value_us)]++;
  }

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ ? min_ : 0; }
  int64_t max() const { return max_; }
  double Mean() const { return count_ ? static_cast<double>(sum_) / count_ : 0.0; }

  /// Approximate percentile (0 < p <= 100) as a bucket upper bound.
  int64_t Percentile(double p) const {
    if (count_ == 0) return 0;
    uint64_t target = static_cast<uint64_t>(p / 100.0 * count_);
    if (target >= count_) target = count_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target) return UpperBound(i);
    }
    return max_;
  }

  void Merge(const LatencyHistogram& other) {
    if (other.count_ == 0) return;
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  }

  void Reset() {
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    std::fill(buckets_.begin(), buckets_.end(), 0);
  }

 private:
  // 4 sub-buckets per power of two up to ~2^40 us.
  static constexpr size_t kNumBuckets = 41 * 4;

  static size_t BucketFor(int64_t v) {
    if (v <= 0) return 0;
    int log2 = 63 - __builtin_clzll(static_cast<uint64_t>(v));
    int64_t base = int64_t{1} << log2;
    int sub = static_cast<int>((v - base) * 4 / (base > 0 ? base : 1));
    size_t idx = static_cast<size_t>(log2 * 4 + std::min(sub, 3));
    return std::min(idx, kNumBuckets - 1);
  }

  static int64_t UpperBound(size_t idx) {
    int log2 = static_cast<int>(idx / 4);
    int sub = static_cast<int>(idx % 4);
    int64_t base = int64_t{1} << log2;
    return base + base * (sub + 1) / 4;
  }

  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  std::vector<uint64_t> buckets_;
};

/// \brief A named bag of counters; the unit every component reports into
/// and the autonomous DB reads out of.
///
/// Thread-safe: background maintenance like vacuum reports concurrently
/// with the MPP coordinator.
class MetricsRegistry {
 public:
  void Add(const std::string& counter, int64_t delta = 1) {
    std::lock_guard lock(mu_);
    counters_[counter] += delta;
  }
  int64_t Get(const std::string& counter) const {
    std::lock_guard lock(mu_);
    auto it = counters_.find(counter);
    return it == counters_.end() ? 0 : it->second;
  }
  /// Snapshot of every counter (copy: safe to iterate while writers run).
  std::map<std::string, int64_t> counters() const {
    std::lock_guard lock(mu_);
    return counters_;
  }
  void Reset() {
    std::lock_guard lock(mu_);
    counters_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
};

}  // namespace ofi
