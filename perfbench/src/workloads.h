// The benchmark's workloads. Each builds its own stack from the US
// dataset, drives it for `seconds`, checks sampled answers against the
// independent checker, and fills `metrics` with either every end-to-end
// metric (trace off) or every per-layer metric (trace on).
#ifndef KSPIN_PERFBENCH_WORKLOADS_H_
#define KSPIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Clock::time_point process_start;  ///< setup_s is measured from here.
  std::string scratch_dir;          ///< For op logs; removed afterwards.
};

struct RunOutcome {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Phase shares of --seconds (the rest of a run is set-up and checks).
// The phases take turns: a run is kSlices slices, each a closed loop,
// an open loop and writes, so every phase samples the whole run and a
// passing slowdown of the host lands on all of them alike.
inline constexpr int kSlices = 4;
// engine_us: closed loop, open loop, then kEngineWriteRoundsPerSecond *
// --seconds write rounds in all (about a quarter of --seconds on the
// reference host).
inline constexpr double kEngineClosedShare = 0.45;
inline constexpr double kEngineOpenShare = 0.25;
inline constexpr double kEngineWriteRoundsPerSecond = 15.0;
/// Open-loop arrival rate of engine_us (queries/s, one caller): about a
/// tenth of closed-loop capacity, so queueing does not amplify host noise.
inline constexpr double kEngineOpenRate = 200.0;
/// Window of the closed loops' median throughput (search_qps).
inline constexpr double kRateWindowSeconds = 0.5;
/// Queries per kind in the seeded query list.
inline constexpr std::size_t kQueriesPerKind = 1920;
/// Queries checked against the independent checker after each phase.
inline constexpr std::size_t kCheckSample = 30;

RunOutcome RunEngineUs(const RunConfig& config);
RunOutcome RunServerUs(const RunConfig& config);

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_WORKLOADS_H_
