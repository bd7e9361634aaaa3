/// \file report.h
/// \brief Metric catalogue and result reporting for the repository
/// benchmark (see README.md in this directory).
///
/// Every run prints each metric of its mode as one human-readable line
/// (name, value, unit, sample count, clock label) and ends with one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. The untraced run
/// reports every end-to-end metric; the traced run every per-layer metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ofi::cluster {
class Cluster;
}  // namespace ofi::cluster

namespace perfbench {

/// How far a value can be trusted to repeat.
///   kWall   — a wall-clock measurement; varies run to run.
///   kCpu    — a process CPU-time measurement (all threads); varies run to
///             run, but far less than wall time on a shared host.
///   kRef    — process CPU time in reference seconds (RefClock): a host
///             slowdown that slows the reference pass as much cancels out.
///   kExact  — derived from simulated time or deterministic counters only;
///             bit-identical across runs at one seed.
///   kTiming — simulated or counted, but depends on thread timing
///             (background delta merges), so it varies run to run.
enum class Label { kWall, kCpu, kRef, kExact, kTiming };

/// A metric of the catalogue. Whether lower or higher is better is stated
/// once, in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* layer;   // "" for end-to-end metrics
  /// The end-to-end metric and workload a change in this layer metric
  /// should move (per-layer metrics only).
  const char* moves;
};

/// End-to-end metrics: every workload reports every one of them.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics: every traced run reports every one of them; a layer
/// the workload bypasses reports 0 and is labelled "bypassed".
const std::vector<MetricSpec>& PerLayerMetrics();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Collects one run's metrics and correctness verdicts.
class Report {
 public:
  /// Records a metric. Catalogue metrics take their unit from the
  /// catalogue; `unit` is for workload-specific (info) metrics.
  void Set(const std::string& name, double value, size_t samples, Label label,
           const std::string& unit = "");

  /// Records one attempted operation; `ok` false counts it as failed and
  /// prints `what` to stderr (a statement error, a wrong answer, a plan
  /// that left its layer, or an invariant violation).
  void Attempt(bool ok, const std::string& what = "");
  /// Adds operations that completed without an individual check (e.g. the
  /// transactions of a traffic run, judged by end-state invariants).
  void AddAttempted(int64_t n) { attempted_ += n; }
  /// A correctness check over a whole run (not one operation).
  void Check(bool ok, const std::string& what);
  /// A free-form line printed before the metrics (configuration, digests).
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

  /// Prints the human-readable lines, then the JSON result line for the
  /// catalogue of the run's mode (per-layer when `trace`, else end-to-end).
  void Print(const Args& args) const;

 private:
  struct Value {
    double value;
    size_t samples;
    Label label;
    std::string unit;
  };
  std::map<std::string, Value> values_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_failed_ = 0;
};

// --- Measurement helpers ------------------------------------------------------

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in seconds. The gated
/// throughput and setup metrics use it: on a shared 4-vCPU VM, the wall
/// throughput of ten olap runs swung 2.3x from run to run, while their
/// CPU-time throughput varied by about 8% (interquartile range over median).
double CpuSeconds();

/// Nearest-rank percentile (the convention RunTraffic uses), or 0 when
/// `v` is empty. Takes a copy: callers keep their sample order.
double Percentile(std::vector<double> v, int p);
/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
size_t SamplesBeyond(size_t n, int p);
double Median(std::vector<double> v);
double PeakRssMb();

/// Reference seconds: process CPU seconds rescaled by a fixed pass of work
/// written in the benchmark, not in the program (seeded ordered-map and
/// vector updates with small allocations over about 12 MB of data, the
/// shape of the program's own hot paths). On a shared host a busy SMT
/// sibling or a thrashed L3 cache slows that pass as it slows the program,
/// so the ratio stays put while raw CPU time swings (up to 2x within two
/// minutes on a shared 4-vCPU VM); no change to the program changes the
/// pass. One pass counts as kRefPassSeconds; on that VM, when quiet, a
/// pass took about that much CPU time.
class RefClock {
 public:
  static constexpr double kRefPassSeconds = 0.1;
  /// Builds the pass's data and times a first pass.
  RefClock();
  /// Converts `cpu_s`, the CPU time of work that ended just now, into
  /// reference seconds: it times a fresh pass and scales by the mean of that
  /// pass and the one before the work.
  double ToRef(double cpu_s);

 private:
  double Pass();
  uint64_t Next();
  std::map<int64_t, std::string> ordered_;
  std::vector<std::vector<int64_t>> rows_;
  uint64_t state_ = 88172645463325252ULL;
  uint64_t sink_ = 0;
  double last_pass_s_ = 0;
};

/// ops_per_ref_s: operations per reference second, the median over chunks
/// of the measured phase. A chunk closes once it holds `chunk_cpu_s` of CPU
/// time (0 closes one per Add) and is converted on its own, so a host
/// slowdown part way through a run is matched by the passes around it.
class RefRate {
 public:
  RefRate(RefClock* clock, double chunk_cpu_s)
      : clock_(clock), chunk_cpu_s_(chunk_cpu_s) {}
  void Add(size_t ops, double cpu_s);
  /// Closes a partly filled chunk.
  void Finish();
  double Median() const { return perfbench::Median(rates_); }
  /// The per-chunk rates, for a note line.
  std::string Chunks() const;

 private:
  void Close();
  RefClock* clock_;
  double chunk_cpu_s_;
  size_t ops_ = 0;
  double cpu_s_ = 0;
  std::vector<double> rates_;
};

/// Sets sim.charge_probe_us: the median wall time of five statement-sized
/// SimScheduler::Charge calls on DN 0, each arriving one network hop after
/// simulated time 0. After a SQL setup (no reset, every load transaction
/// began at 0) such a charge walks the whole busy history before it finds a
/// gap; after RunTraffic, which trims the scheduler, it finds one at once.
void TimeChargeProbe(ofi::cluster::Cluster& cluster, Report* report);

/// Workload entry points (tpcc.cc, sql_workloads.cc).
void RunTpccWorkload(const Args& args, Report* report);
void RunOlapWorkload(const Args& args, Report* report);
void RunHtapWorkload(const Args& args, Report* report);

}  // namespace perfbench
