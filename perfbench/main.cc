/// \file main.cc
/// \brief The repository benchmark: runs one workload (`tpcc`, `olap` or
/// `htap`) against openfidb's public API at a given seed and prints every
/// metric of the run's mode, then one JSON result line. See README.md.
///
///   perfbench --workload olap --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"

namespace {

int Usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload tpcc|olap|htap --seed N "
          "--seconds S --trace 0|1\n",
          why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    const long long n = std::strtoll(value.c_str(), &end, 10);
    const bool numeric = !value.empty() && *end == '\0';
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && numeric && n >= 0) {
      args.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds" && numeric && n >= 1 && n <= 600) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && numeric && (n == 0 || n == 1)) {
      args.trace = n == 1;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  perfbench::Report report;
  if (args.workload == "tpcc") {
    perfbench::RunTpccWorkload(args, &report);
  } else if (args.workload == "olap") {
    perfbench::RunOlapWorkload(args, &report);
  } else if (args.workload == "htap") {
    perfbench::RunHtapWorkload(args, &report);
  } else {
    return Usage("unknown workload");
  }
  report.Print(args);
  return report.correct() ? 0 : 1;
}
