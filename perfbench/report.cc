#include "report.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "cluster/cluster.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "", ""},
      {"ops_per_ref_s", "1/s", "", ""},
      {"sim_ops_per_s", "1/s", "", ""},
      {"sim_p50_us", "us", "", ""},
      {"sim_p99_us", "us", "", ""},
      {"peak_rss_mb", "MB", "", ""},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"sim.charge_probe_us", "us", "common", "setup_s on olap (not tpcc)"},
      {"sim.dn_busy_frac", "frac", "common", "sim_ops_per_s on tpcc"},
      {"sim.gtm_busy_frac", "frac", "common", "sim_ops_per_s on tpcc"},
      {"sql.parse_us", "us", "sql", "read_p50_us on olap"},
      {"optimizer.plan_us", "us", "optimizer", "read_p50_us on olap"},
      {"optimizer.analyze_us", "us", "optimizer",
       "write_p50_us on htap, setup_s on olap"},
      {"cluster.exec_us.agg_kernel", "us", "cluster", "read_p50_us on olap"},
      {"cluster.exec_us.join_broadcast", "us", "cluster", "read_p50_us on olap"},
      {"cluster.exec_us.join_repartition", "us", "cluster", "read_p99_us on olap"},
      {"cluster.exec_us.index_point", "us", "cluster", "read_p50_us on olap"},
      {"cluster.exec_us.row_filter", "us", "cluster", "read_p50_us on olap"},
      {"cluster.exec_us.fallback", "us", "cluster", "read_p99_us on olap"},
      {"cluster.sim_us.agg_kernel", "us", "cluster", "sim_p50_us on olap"},
      {"cluster.sim_us.join_broadcast", "us", "cluster", "sim_p50_us on olap"},
      {"cluster.sim_us.join_repartition", "us", "cluster", "sim_p99_us on olap"},
      {"cluster.sim_us.index_point", "us", "cluster", "sim_p50_us on olap"},
      {"cluster.sim_us.row_filter", "us", "cluster", "sim_p50_us on olap"},
      {"cluster.fallback_frac", "frac", "cluster", "read_p99_us on olap"},
      {"exchange.bytes_per_join", "B", "cluster/exchange", "sim_p50_us on olap"},
      {"exchange.batches_per_join", "count", "cluster/exchange",
       "sim_p50_us on olap"},
      {"storage.rows_decoded_per_row_returned", "ratio", "storage",
       "read_p50_us on olap"},
      {"storage.chunks_pruned_frac", "frac", "storage", "read_p50_us on olap"},
      {"storage.index_rows_per_probe", "rows", "storage", "sim_p50_us on olap"},
      {"storage.index_maintenance_per_write", "count", "storage",
       "write_p50_us on htap"},
      {"storage.delta_rows_per_scan", "rows", "storage", "sim_p99_us on htap"},
      {"storage.merges", "count", "storage", "sim_p99_us on htap"},
      {"storage.merge_rows", "rows", "storage", "sim_p99_us on htap"},
      {"storage.txn_read_us", "us", "storage", "ops_per_ref_s on tpcc"},
      {"txn.begin_us", "us", "txn", "ops_per_ref_s on tpcc"},
      {"txn.commit_1shard_us", "us", "txn", "ops_per_ref_s on tpcc"},
      {"txn.commit_2pc_us", "us", "txn", "ops_per_ref_s on tpcc"},
      {"txn.commit_batch_us", "us", "txn", "ops_per_ref_s on tpcc"},
      {"txn.gtm_requests_per_commit", "ratio", "txn", "sim_ops_per_s on tpcc"},
      {"txn.log_writes_per_commit", "ratio", "txn", "sim_p50_us on tpcc"},
      {"txn.upgrades_per_ms_txn", "ratio", "txn", "sim_p99_us on tpcc"},
      {"txn.downgrades_per_ms_txn", "ratio", "txn", "sim_p99_us on tpcc"},
      {"txn.abort_frac", "frac", "txn", "sim_ops_per_s on tpcc"},
      {"traffic.batch_size", "txns", "cluster/traffic", "sim_p99_us on tpcc"},
      {"trace.overhead_frac", "frac", "benchmark",
       "nothing: traced vs untraced wall ops_per_s, as a share"},
  };
  return kMetrics;
}

void Report::Set(const std::string& name, double value, size_t samples,
                 Label label, const std::string& unit) {
  values_[name] = Value{value, samples, label, unit};
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Cap the noise: the counts carry the verdict, a few lines the cause.
  if (failed_ <= 20) fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

namespace {

const char* LabelName(Label l) {
  switch (l) {
    case Label::kWall: return "wall";
    case Label::kCpu: return "cpu";
    case Label::kRef: return "ref";
    case Label::kExact: return "exact";
    case Label::kTiming: return "timing-dependent";
  }
  return "?";
}

/// Shortest decimal that round-trips: every digit as measured.
std::string Num(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

void Report::Print(const Args& args) const {
  printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0);
  for (const std::string& n : notes_) printf("# %s\n", n.c_str());

  const std::vector<MetricSpec>& specs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json;
  for (const MetricSpec& m : specs) {
    auto it = values_.find(m.name);
    const bool bypassed = it == values_.end();
    const double v = bypassed ? 0.0 : it->second.value;
    if (args.trace) {
      printf("layer %-16s %-40s %14s %-5s n=%-7zu [%s] moves %s\n", m.layer,
             m.name, Num(v).c_str(), m.unit, bypassed ? 0 : it->second.samples,
             bypassed ? "bypassed" : LabelName(it->second.label), m.moves);
    } else {
      printf("e2e %-14s %14s %-4s n=%-7zu [%s]\n", m.name, Num(v).c_str(),
             m.unit, bypassed ? 0 : it->second.samples,
             bypassed ? "missing" : LabelName(it->second.label));
    }
    if (!json.empty()) json += ", ";
    json += "\"";
    json += m.name;
    json += "\": {\"value\": " + Num(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  // Workload-specific metrics (wall latency by statement kind, sim_tps,
  // error_rate, ...) that are not in the common catalogue.
  for (const auto& [name, v] : values_) {
    bool listed = false;
    for (const auto* cat : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const MetricSpec& m : *cat) listed = listed || name == m.name;
    }
    if (!listed) {
      printf("info %-28s %14s %-5s n=%-7zu [%s]\n", name.c_str(),
             Num(v.value).c_str(), v.unit.c_str(), v.samples, LabelName(v.label));
    }
  }
  printf("info %-28s %14s frac  n=%-7lld [exact]\n", "error_rate",
         Num(attempted_ > 0 ? static_cast<double>(failed_) /
                                  static_cast<double>(attempted_)
                            : 0.0)
             .c_str(),
         static_cast<long long>(attempted_));
  printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
         "\"metrics\": {%s}}\n",
         correct() ? "true" : "false", static_cast<long long>(attempted_),
         static_cast<long long>(failed_), json.c_str());
  fflush(stdout);
}

double Percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = (v.size() * static_cast<size_t>(p) + 99) / 100;
  if (rank < 1) rank = 1;
  return v[rank - 1];
}

size_t SamplesBeyond(size_t n, int p) {
  size_t rank = (n * static_cast<size_t>(p) + 99) / 100;
  return n > rank ? n - rank : 0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
constexpr int64_t kRefEntries = 1 << 16;
constexpr int kRefPassOps = 120'000;
}  // namespace

RefClock::RefClock() {
  rows_.reserve(kRefEntries);
  for (int64_t i = 0; i < kRefEntries; ++i) {
    ordered_.emplace(i * 7, std::string(40, static_cast<char>('a' + i % 26)));
    rows_.emplace_back(6, i);
  }
  last_pass_s_ = Pass();
}

uint64_t RefClock::Next() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

double RefClock::Pass() {
  const double c0 = CpuSeconds();
  for (int i = 0; i < kRefPassOps; ++i) {
    // Re-key one ordered entry (a node freed and allocated)...
    auto it = ordered_.lower_bound(static_cast<int64_t>(Next() % kRefEntries) * 7);
    if (it != ordered_.end()) {
      std::string v = std::move(it->second);
      const int64_t key = it->first;
      ordered_.erase(it);
      v[i % v.size()] ^= 1;
      ordered_.emplace(key, std::move(v));
    }
    // ...and copy-update one row, as a new version would.
    std::vector<int64_t>& row = rows_[Next() % kRefEntries];
    std::vector<int64_t> copy = row;
    copy[2] += 1;
    sink_ += static_cast<uint64_t>(copy[1]);
    row = std::move(copy);
  }
  return CpuSeconds() - c0;
}

double RefClock::ToRef(double cpu_s) {
  const double pass_s = Pass();
  const double ref_s = cpu_s * kRefPassSeconds / ((last_pass_s_ + pass_s) / 2);
  last_pass_s_ = pass_s;
  return ref_s;
}

void RefRate::Add(size_t ops, double cpu_s) {
  ops_ += ops;
  cpu_s_ += cpu_s;
  if (cpu_s_ >= chunk_cpu_s_) Close();
}

void RefRate::Finish() {
  if (ops_ > 0) Close();
}

void RefRate::Close() {
  rates_.push_back(static_cast<double>(ops_) / clock_->ToRef(cpu_s_));
  ops_ = 0;
  cpu_s_ = 0;
}

std::string RefRate::Chunks() const {
  std::string out;
  for (double r : rates_) {
    if (!out.empty()) out += ' ';
    out += std::to_string(r);
  }
  return out;
}

void TimeChargeProbe(ofi::cluster::Cluster& cluster, Report* report) {
  std::vector<double> us;
  for (int i = 0; i < 5; ++i) {
    const double t0 = NowSeconds();
    (void)cluster.scheduler().Charge(cluster.dn_resource(0),
                                     cluster.latency().network_hop_us,
                                     cluster.latency().dn_stmt_service_us);
    us.push_back((NowSeconds() - t0) * 1e6);
  }
  report->Set("sim.charge_probe_us", Median(us), us.size(), Label::kWall);
}

}  // namespace perfbench
