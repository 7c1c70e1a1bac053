// Small helpers shared by the workloads: clocks, percentiles, the result
// line, resident-set size and the host fingerprint.
#ifndef KSPIN_PERFBENCH_BENCH_UTIL_H_
#define KSPIN_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Events per second in whole `window`-second windows, pooled over the
/// timed phases it is given. Unlike a total over the run, its median does
/// not move when the host stalls the run for a moment.
class WindowedRate {
 public:
  explicit WindowedRate(double window) : window_(window) {}
  /// One phase `span` seconds long; `done` holds each event's completion
  /// time in seconds from the phase's start. A partial last window is
  /// dropped.
  void AddPhase(const std::vector<double>& done, double span);
  double MedianRate() const { return Median(counts_) / window_; }

 private:
  double window_;
  std::vector<double> counts_;
};

/// Sleeps until shortly before `due`, then spins until it, so an open
/// loop's sends land on schedule whatever the timer slack.
void WaitUntil(Clock::time_point due);

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

/// CPU model, logical core count, ISA flags of interest and the ALT
/// batch kernel the library selected, as one line.
std::string HostFingerprint();

/// A failed benchmark check: the run prints `correct: false` and exits
/// non-zero.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `message` unless `condition` holds.
inline void Require(bool condition, const std::string& message) {
  if (!condition) throw CheckFailure(message);
}

/// Named metrics with units, printed as the benchmark's result line.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// One JSON object: {"correct": .., "attempted": .., "failed": ..,
  /// "metrics": {name: {"value": v, "unit": u}, ...}}.
  std::string ResultLine(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// Ratio helper that reads 0 instead of dividing by zero.
inline double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_BENCH_UTIL_H_
