// End-to-end benchmark: xbench --workload <name> --seed <n>
// --seconds <s> --trace <0|1> [--work-dir <dir>]. Prints each metric by
// name and unit, then one JSON result object as the last line of stdout.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "pipeline.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_root = ".bench_build/xbench-run";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--work-dir") {
      work_root = value;
    } else {
      return Usage();
    }
  }
  const xbench::WorkloadSpec* spec = nullptr;
  for (const auto& s : xbench::Workloads()) {
    if (s.name == workload) spec = &s;
  }
  if (spec == nullptr || seconds <= 0) return Usage();

  namespace fs = std::filesystem;
  std::string work_dir =
      work_root + "/" + workload + "-" + std::to_string(getpid());
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  auto result = xbench::RunWorkload(*spec, seed, seconds, trace, work_dir);
  fs::remove_all(work_dir);
  if (!result.ok()) {
    std::fprintf(stderr, "xbench: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const xbench::Metric& m : result->metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "xbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  std::printf("workload %s seed %llu: attempted %llu, failed %llu, %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed),
              result->correct ? "correct" : "INCORRECT");
  std::string json = "{\"correct\": " +
                     std::string(result->correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result->attempted) +
                     ", \"failed\": " + std::to_string(result->failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const xbench::Metric& m : result->metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
