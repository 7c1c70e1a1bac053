// Pieces shared by the workloads: running one benchmark query on a
// QueryProcessor, the traced engine pass that splits a query's time and
// work across the engine's layers, sampled answer checks, and the
// reporting of per-layer metrics.
#ifndef KSPIN_PERFBENCH_LAYERS_H_
#define KSPIN_PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "checker.h"
#include "inputs.h"
#include "kspin/kspin.h"
#include "kspin/query_processor.h"

namespace perfbench {

/// Runs `query` on `processor`; `keywords` are the query's keywords in the
/// engine's id space (the dataset's ids for a bulk-built engine, the
/// vocabulary's for a PoiService engine).
std::vector<Hit> RunEngineQuery(kspin::QueryProcessor& processor,
                                const Query& query,
                                std::span<const KeywordId> keywords,
                                kspin::QueryStats* stats = nullptr);

/// Work and time totals of one query kind (index kNumKinds = all kinds).
struct KindTotals {
  std::uint64_t queries = 0;
  kspin::QueryStats stats;          ///< Summed engine counters.
  std::uint64_t call_ns = 0;        ///< Time inside the processor call.
  std::uint64_t oracle_ns = 0;      ///< ... of which in the oracle.
  std::uint64_t lb_ns = 0;          ///< ... of which in the LB module.
};
using LayerTotals = std::array<KindTotals, kNumKinds + 1>;

struct EnginePassResult {
  LayerTotals totals;
  double seconds = 0.0;  ///< Wall time of the pass.
};

/// Runs every query once on a QueryProcessor built over `engine`'s
/// components with counting/timing decorators around its Lower Bounding
/// and Network Distance Modules, and checks the totals that independent
/// paths reach: decorator oracle calls == summed
/// network_distance_computations, and per query
/// false_positive_distances <= network_distance_computations and
/// kappa >= results returned. Throws CheckFailure on a mismatch.
EnginePassResult TracedEnginePass(
    kspin::KSpin& engine, std::span<const Query> queries,
    const std::function<std::vector<KeywordId>(const Query&)>& translate);

/// Reports the engine-layer metrics of `totals`: per kind (suffix .or,
/// .and, .topk) and aggregated.
void ReportEngineLayers(MetricSet& metrics, const LayerTotals& totals);

/// Checks each query in `sample` against the independent checker: one
/// Dijkstra from the query vertex, then CheckReply over `answer(query)`.
/// Throws CheckFailure on the first wrong answer; returns queries checked.
std::size_t CheckSample(
    const kspin::Graph& graph, const CatalogModel& model,
    std::span<const Query> sample,
    const std::function<std::vector<Hit>(const Query&)>& answer);

/// Every `stride`-th query of `queries`, starting at an offset drawn from
/// `seed`: the seeded sample the checks use.
std::vector<Query> SampleQueries(std::span<const Query> queries,
                                 std::size_t count, std::uint64_t seed);

/// Nearest-rank percentiles of per-kind latency samples (microseconds),
/// reported as {or,and,topk}_p50_us and search_p90_us.
struct KindLatencies {
  std::array<std::vector<double>, kNumKinds> us;
  void Add(QueryKind kind, double micros) {
    us[static_cast<int>(kind)].push_back(micros);
  }
  std::size_t Count() const;
  std::vector<double> All() const;
};
void ReportSearchLatencies(MetricSet& metrics, const KindLatencies& latencies);

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_LAYERS_H_
