/// \file sim_clock.h
/// \brief Simulated time. The paper's experiments ran on clusters of
/// physical machines; we reproduce their *queueing behaviour* (e.g. the GTM
/// becoming a serialized bottleneck, Fig. 3) deterministically by charging
/// simulated microseconds for network hops and critical sections instead of
/// relying on wall-clock contention.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <vector>

namespace ofi {

/// Simulated microseconds since simulation start.
using SimTime = int64_t;

/// \brief A discrete-event scheduler with per-actor serialization.
///
/// Actors (clients, data nodes, the GTM) are modeled as serialized
/// resources. Each resource keeps its set of busy intervals; charging work
/// packs the request into the earliest idle gap at or after its arrival
/// (gap-fitting). This makes the result independent of the order in which
/// charges are issued — closed-loop clients execute whole transactions in
/// code order while their requests interleave correctly in simulated time —
/// and a shared resource still saturates at 1/service-time requests per
/// second, the bottleneck behaviour GTM-lite removes from the GTM.
///
/// Thread safety: all methods take an internal mutex. Because gap-fitting
/// makes completion times independent of charge issue order, charging from
/// background threads (e.g. delta-merge tasks) stays deterministic as long
/// as the *set* of (resource, arrival, service) charges is deterministic.
class SimScheduler {
 public:
  /// Registers a serialized resource; returns its id.
  int AddResource() {
    std::lock_guard lock(mu_);
    resources_.emplace_back();
    return static_cast<int>(resources_.size()) - 1;
  }

  /// Charges `service_us` of serialized work on `resource` for a request
  /// arriving at `arrival`. Returns the completion time (the request waits
  /// for the first idle gap big enough to hold it). A request with no
  /// service books nothing and completes on arrival.
  ///
  /// The new interval merges with a neighbour that ends exactly at its
  /// start or begins exactly at its end. A zero-width gap never fits a
  /// request, so merging changes no completion time and no BusyTime; it
  /// only keeps back-to-back work from growing the map, so the gap walk
  /// visits real gaps instead of every interval ever charged.
  SimTime Charge(int resource, SimTime arrival, SimTime service_us) {
    if (service_us <= 0) return arrival;
    std::lock_guard lock(mu_);
    if (arrival < floor_) ++late_charges_;
    auto& busy = resources_[resource].busy;
    SimTime t = arrival;
    auto it = busy.upper_bound(t);
    if (it != busy.begin()) {
      auto prev = std::prev(it);
      if (prev->second > t) t = prev->second;
    }
    // Slide over occupied intervals until a gap of `service_us` fits.
    while (it != busy.end() && it->first < t + service_us) {
      t = it->second;
      ++it;
    }
    const SimTime done = t + service_us;
    // Every interval before `it` ends at or before `t`; `it` starts at or
    // after `done`.
    SimTime end = done;
    if (it != busy.end() && it->first == done) {
      end = it->second;
      it = busy.erase(it);
    }
    if (it != busy.begin()) {
      auto prev = std::prev(it);
      if (prev->second == t) {
        prev->second = end;
        return done;
      }
    }
    busy.emplace_hint(it, t, end);
    return done;
  }

  /// Live (untrimmed, merged) busy intervals on `resource` — the length of
  /// the map a Charge may walk.
  size_t IntervalCount(int resource) const {
    std::lock_guard lock(mu_);
    return resources_[resource].busy.size();
  }

  /// Total busy time charged to `resource` in [0, horizon) — utilization
  /// reporting for benches.
  SimTime BusyTime(int resource) const {
    std::lock_guard lock(mu_);
    SimTime total = 0;
    for (const auto& [start, end] : resources_[resource].busy) total += end - start;
    return total + resources_[resource].trimmed_busy;
  }

  /// Charges that arrived below the highest Trim floor since the last
  /// Reset. Each broke Trim's contract: gap-fitting may have placed it in
  /// time that was busy before the trim.
  size_t LateCharges() const {
    std::lock_guard lock(mu_);
    return late_charges_;
  }

  /// Drops interval bookkeeping that ended before `floor` (no future arrival
  /// will be earlier). Call periodically from closed-loop drivers.
  void Trim(SimTime floor) {
    std::lock_guard lock(mu_);
    floor_ = std::max(floor_, floor);
    for (auto& r : resources_) {
      auto it = r.busy.begin();
      while (it != r.busy.end() && it->second < floor) {
        r.trimmed_busy += it->second - it->first;
        it = r.busy.erase(it);
      }
    }
  }

  void Reset() {
    std::lock_guard lock(mu_);
    for (auto& r : resources_) {
      r.busy.clear();
      r.trimmed_busy = 0;
    }
    floor_ = 0;
    late_charges_ = 0;
  }

 private:
  struct Resource {
    std::map<SimTime, SimTime> busy;  // start -> end, non-overlapping
    SimTime trimmed_busy = 0;
  };
  mutable std::mutex mu_;
  std::vector<Resource> resources_;
  SimTime floor_ = 0;  // highest Trim floor since Reset
  size_t late_charges_ = 0;
};

/// \brief A monotonically advancing simulated clock usable where only
/// "now" is needed (GMDB checkpointing, metrics windows, edge sync).
class SimClock {
 public:
  SimTime Now() const { return now_; }
  void Advance(SimTime delta_us) { now_ += delta_us; }
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }
  void Reset() { now_ = 0; }

 private:
  SimTime now_ = 0;
};

}  // namespace ofi
