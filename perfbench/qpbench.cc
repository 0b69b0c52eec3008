// qpbench: the benchmark program. Runs one workload of the repository's
// benchmark and prints its raw measurements as one JSON line on stdout
// (run.py reduces them to the benchmark's metrics).
//
//   qpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --rates low,mid,high [--spans <file>] [--scale full|tiny]
//
// Workloads: serve_mixed, serve_churn (see README.md). Exit codes: 0 ok,
// 1 error, 2 an answer check failed.

#include <algorithm>
#include <cstdlib>
#include <string>

#include "bench_common.h"

namespace {

bool ParseRates(const std::string& text, std::vector<double>* rates) {
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    char* end = nullptr;
    const double rate = std::strtod(item.c_str(), &end);
    if (item.empty() || *end != '\0' || !(rate > 0.0)) return false;
    rates->push_back(rate);
    pos = comma + 1;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--rates") {
      if (!ParseRates(value, &args->rates)) return false;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->scale = value;
    } else if (flag == "--inject") {
      args->inject = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         (!args->trace || !args->spans_path.empty());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    perfbench::Log(
        "usage: qpbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --rates low,mid,high [--spans <file>] "
        "[--scale full|tiny] [--inject <check>]");
    return 1;
  }
  perfbench::Now();  // start the clock
  if (args.workload == "serve_mixed") return perfbench::RunServe(args, false);
  if (args.workload == "serve_churn") return perfbench::RunServe(args, true);
  perfbench::Log("error: unknown workload '%s'", args.workload.c_str());
  return 1;
}
