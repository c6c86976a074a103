// End-to-end benchmark of robustqo. Runs one workload for a fixed time and
// prints, as its last line, one JSON object: whether every output passed
// its check, how many operations were attempted and failed, and the
// metrics (end-to-end ones, or per-layer ones with --trace 1).
//
//   e2ebench --workload serve_hot|adhoc_rw|paper_figures --seed N
//            --seconds S --trace 0|1 [--trace-out FILE] [--break CHECK]
//
// --break CHECK feeds the named check a wrong expected value, so that the
// check can be seen to fail (see README.md for the names).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace e2ebench {
RunResult RunServing(const RunOptions& opt, const std::string& breaking);
RunResult RunFigures(const RunOptions& opt, const std::string& breaking);
}  // namespace e2ebench

using namespace e2ebench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload serve_hot|adhoc_rw|paper_figures "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--break CHECK]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string breaking;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--break") {
      breaking = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) return Usage();

  RunResult result;
  if (opt.workload == "serve_hot" || opt.workload == "adhoc_rw") {
    result = RunServing(opt, breaking);
  } else if (opt.workload == "paper_figures") {
    result = RunFigures(opt, breaking);
  } else {
    return Usage();
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail("metric " + name + " is not finite");
      std::printf("# CHECK FAILED: metric %s is not finite\n", name.c_str());
      continue;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
