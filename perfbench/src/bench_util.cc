#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "routing/alt_kernels.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void WindowedRate::AddPhase(const std::vector<double>& done, double span) {
  const std::size_t windows = static_cast<std::size_t>(span / window_);
  const std::size_t first = counts_.size();
  counts_.resize(first + windows, 0.0);
  for (const double t : done) {
    const std::size_t w = static_cast<std::size_t>(t / window_);
    if (w < windows) counts_[first + w] += 1.0;
  }
}

void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string HostFingerprint() {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto value = [&line] {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? std::string()
                                        : line.substr(colon + 2);
    };
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = value();
    } else if (flags.empty() && line.rfind("flags", 0) == 0) {
      flags = " " + value() + " ";
    }
  }
  std::ostringstream isa;
  for (const char* f : {"sse4_2", "avx2", "avx512f", "avx512bw"}) {
    if (flags.find(std::string(" ") + f + " ") != std::string::npos) {
      isa << (isa.tellp() > 0 ? "," : "") << f;
    }
  }
  std::ostringstream out;
  out << "cpu=\"" << model << "\" cores=" << std::thread::hardware_concurrency()
      << " isa=" << isa.str()
      << " alt_kernel=" << kspin::detail::AltBatchKernelName();
  return out.str();
}

std::string MetricSet::ResultLine(bool correct, std::uint64_t attempted,
                                  std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, entry] : values_) {
    const double v = std::isfinite(entry.value) ? entry.value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << entry.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
