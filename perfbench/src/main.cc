// kspin_perfbench: runs one benchmark workload and prints its metrics.
//
//   kspin_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//   kspin_perfbench --fingerprint   # recompute the pinned US fingerprint
//   kspin_perfbench --self-test     # show the answer checker rejects
//                                   # forged replies
//
// Progress goes to stderr; the last line on stdout is the result object
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 only
// when every check passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <unistd.h>

#include "bench_util.h"
#include "checker.h"
#include "dataset.h"
#include "workloads.h"

namespace {

using perfbench::RunConfig;
using perfbench::RunOutcome;

const std::map<std::string, std::function<RunOutcome(const RunConfig&)>>&
Workloads() {
  static const std::map<std::string,
                        std::function<RunOutcome(const RunConfig&)>>
      workloads = {{"engine_us", perfbench::RunEngineUs},
                   {"server_us", perfbench::RunServerUs}};
  return workloads;
}

int Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N --seconds=S --trace=0|1\n"
               "       %s --fingerprint | --self-test\n"
               "workloads:",
               argv0, argv0);
  for (const auto& [name, run] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.process_start = perfbench::Clock::now();
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--fingerprint" && arg != "--self-test" && i + 1 < argc) {
      value = argv[++i];
    }
    double number = 0.0;
    if (arg == "--fingerprint") {
      const perfbench::UsDataset data = perfbench::GenerateUsDataset();
      std::printf("%s\n", perfbench::ComputeFingerprint(data.graph, data.store)
                              .ToString()
                              .c_str());
      return 0;
    } else if (arg == "--self-test") {
      const std::string error = perfbench::SelfTestChecker();
      std::printf("checker self-test: %s\n",
                  error.empty() ? "ok" : error.c_str());
      return error.empty() ? 0 : 1;
    } else if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && ParseNumber(value, &number) && number >= 0) {
      config.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && ParseNumber(value, &number) &&
               number > 0 && number <= 600) {
      config.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      config.trace = value == "1";
      have_trace = true;
    } else {
      return Usage(argv[0], "bad argument: " + std::string(argv[i]));
    }
  }
  const auto it = Workloads().find(workload);
  if (it == Workloads().end()) {
    return Usage(argv[0], "unknown workload '" + workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0], "--seed, --seconds and --trace are required");
  }

  // Op logs of the server workloads live in the checkout, never elsewhere.
  config.scratch_dir = ".bench_runs/" + workload + "-" +
                       std::to_string(::getpid());
  std::filesystem::create_directories(config.scratch_dir);
  std::fprintf(stderr, "host: %s\n", perfbench::HostFingerprint().c_str());

  int status = 0;
  RunOutcome outcome;
  bool correct = true;
  try {
    const std::string self_test = perfbench::SelfTestChecker();
    perfbench::Require(self_test.empty(), "checker self-test: " + self_test);
    outcome = it->second(config);
  } catch (const perfbench::CheckFailure& e) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    correct = false;
    status = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ERROR: %s\n", e.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(config.scratch_dir, ignored);
  std::filesystem::remove(".bench_runs", ignored);  // Only if now empty.
  if (status == 0 || !correct) {
    std::printf("%s\n", outcome.metrics
                            .ResultLine(correct, std::max<std::uint64_t>(
                                                     outcome.attempted, 1),
                                        outcome.failed)
                            .c_str());
  }
  return status;
}
