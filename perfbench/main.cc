// SEED benchmark program.
//
//   perfbench --workload <spec_query|spec_edit|team_checkin> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--fault <name>]
//
// Prints one line with the run environment, then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics and
// write their spans to <work-dir>/spans-<workload>-<seed>.csv. Exits 0
// only when every oracle held.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "exec/exec_policy.h"
#include "workloads.h"

namespace perfbench {

// Every workload stays within four threads: the spec_query and spec_edit
// loops use one, team_checkin two writers, plus one exec-pool helper.
constexpr int kExecThreads = 2;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <spec_query|spec_edit|"
               "team_checkin> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--fault <name>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--fault") {
      opt.fault = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.work_dir.empty() || opt.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.work_dir.c_str());
    return 2;
  }
  seed::exec::SetDefaultThreads(kExecThreads);

  RunResult r;
  if (opt.workload == "spec_query") {
    r = RunSpecQuery(opt);
  } else if (opt.workload == "spec_edit") {
    r = RunSpecEdit(opt);
  } else if (opt.workload == "team_checkin") {
    r = RunTeamCheckin(opt);
  } else {
    return Usage();
  }

  r.env["workload"] = opt.workload;
  r.env["seed"] = std::to_string(opt.seed);
  r.env["seconds"] = std::to_string(opt.seconds);
  r.env["trace"] = opt.trace ? "1" : "0";
  r.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.env["exec_threads"] = std::to_string(seed::exec::DefaultThreads());
  if (!opt.fault.empty()) r.env["fault"] = opt.fault;
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "oracle: %s\n", f.c_str());
  }

  const bool correct = r.failed == 0 && r.end_checks_ok && r.attempted > 0;
  std::string env = "{\"env\": {";
  const char* sep = "";
  for (const auto& [key, value] : r.env) {
    env += sep + JsonString(key) + ": " + JsonString(value);
    sep = ", ";
  }
  std::printf("%s}}\n", env.c_str());
  std::string metrics;
  sep = "";
  for (const Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += std::string(sep) + JsonString(m.name) + ": {\"value\": " +
               value + ", \"unit\": " + JsonString(m.unit) + "}";
    sep = ", ";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
