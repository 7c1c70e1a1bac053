#include "layers.h"

#include <random>

#include "decorators.h"

namespace perfbench {

std::vector<Hit> RunEngineQuery(kspin::QueryProcessor& processor,
                                const Query& query,
                                std::span<const KeywordId> keywords,
                                kspin::QueryStats* stats) {
  std::vector<Hit> hits;
  if (query.kind == QueryKind::kTopK) {
    for (const kspin::TopKResult& r :
         processor.TopK(query.vertex, query.k, keywords, stats)) {
      hits.push_back({r.object, r.distance, r.score});
    }
  } else {
    const kspin::BooleanOp op = query.kind == QueryKind::kAnd
                                    ? kspin::BooleanOp::kConjunctive
                                    : kspin::BooleanOp::kDisjunctive;
    for (const kspin::BkNNResult& r :
         processor.BooleanKnn(query.vertex, query.k, keywords, op, stats)) {
      hits.push_back({r.object, r.distance, 0.0});
    }
  }
  return hits;
}

EnginePassResult TracedEnginePass(
    kspin::KSpin& engine, std::span<const Query> queries,
    const std::function<std::vector<KeywordId>(const Query&)>& translate) {
  CountingOracle oracle(engine.Oracle());
  CountingLowerBound lower_bounds(engine.LowerBounds());
  kspin::QueryProcessor processor(engine.Store(), engine.Inverted(),
                                  engine.Relevance(), engine.Keywords(),
                                  lower_bounds, oracle);
  std::vector<std::vector<KeywordId>> keywords;
  keywords.reserve(queries.size());
  for (const Query& q : queries) keywords.push_back(translate(q));

  EnginePassResult result;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const ModuleTotals oracle_before = oracle.Totals();
    const ModuleTotals lb_before = lower_bounds.Totals();
    kspin::QueryStats stats;
    const std::uint64_t call_start = NowNs();
    RunEngineQuery(processor, q, keywords[i], &stats);
    const std::uint64_t call_ns = NowNs() - call_start;

    Require(stats.false_positive_distances <=
                stats.network_distance_computations,
            "false_positive_distances > network_distance_computations on " +
                q.Text());
    Require(stats.candidates_extracted >= stats.results_returned,
            "kappa < results returned on " + q.Text());
    Require(oracle.Totals().calls - oracle_before.calls ==
                stats.network_distance_computations,
            "oracle calls counted by the decorator (" +
                std::to_string(oracle.Totals().calls - oracle_before.calls) +
                ") != network_distance_computations (" +
                std::to_string(stats.network_distance_computations) +
                ") on " + q.Text());
    for (const int slot : {static_cast<int>(q.kind), kNumKinds}) {
      KindTotals& t = result.totals[slot];
      ++t.queries;
      t.stats += stats;
      t.call_ns += call_ns;
      t.oracle_ns += oracle.Totals().ns - oracle_before.ns;
      t.lb_ns += lower_bounds.Totals().ns - lb_before.ns;
    }
  }
  result.seconds = SecondsSince(start);
  return result;
}

void ReportEngineLayers(MetricSet& metrics, const LayerTotals& totals) {
  for (int slot = 0; slot <= kNumKinds; ++slot) {
    const KindTotals& t = totals[slot];
    const std::string suffix =
        slot == kNumKinds ? ""
                          : std::string(".") +
                                KindName(static_cast<QueryKind>(slot));
    const double n = static_cast<double>(t.queries);
    const kspin::QueryStats& s = t.stats;
    metrics.Set("heap.pops_per_result" + suffix,
                Ratio(s.candidates_extracted, s.results_returned), "ratio");
    metrics.Set("heap.insertions_per_query" + suffix,
                Ratio(s.heap_insertions, n), "count");
    metrics.Set("heap.build_us_per_query" + suffix,
                Ratio(s.heap_build_ns / 1e3, n), "us");
    metrics.Set("alt.lb_evals_per_query" + suffix,
                Ratio(s.lower_bounds_computed, n), "count");
    metrics.Set("alt.lb_items_per_batch_call" + suffix,
                Ratio(s.lb_batch_items, s.lb_batch_calls), "count");
    metrics.Set("alt.lb_us_per_query" + suffix, Ratio(t.lb_ns / 1e3, n), "us");
    metrics.Set("routing.distance_calls_per_query" + suffix,
                Ratio(s.network_distance_computations, n), "count");
    metrics.Set("routing.distance_us_per_query" + suffix,
                Ratio(t.oracle_ns / 1e3, n), "us");
    metrics.Set("query.false_positive_per_query" + suffix,
                Ratio(s.false_positive_distances, n), "count");
    const double self_ns = static_cast<double>(t.call_ns) -
                           static_cast<double>(t.oracle_ns + t.lb_ns);
    metrics.Set("query.self_us_per_query" + suffix, Ratio(self_ns / 1e3, n),
                "us");
  }
}

std::size_t CheckSample(
    const kspin::Graph& graph, const CatalogModel& model,
    std::span<const Query> sample,
    const std::function<std::vector<Hit>(const Query&)>& answer) {
  for (const Query& q : sample) {
    const std::vector<Distance> distances = DijkstraDistances(graph, q.vertex);
    const std::vector<Hit> reply = answer(q);
    const std::string error = CheckReply(model, q, distances, reply);
    Require(error.empty(), "wrong answer: " + error);
  }
  return sample.size();
}

std::vector<Query> SampleQueries(std::span<const Query> queries,
                                 std::size_t count, std::uint64_t seed) {
  std::vector<Query> sample;
  if (queries.empty() || count == 0) return sample;
  const std::size_t stride = std::max<std::size_t>(1, queries.size() / count);
  std::mt19937_64 rng(seed ^ 0x5EED5EED5EEDULL);
  std::size_t i = rng() % stride;
  for (; i < queries.size() && sample.size() < count; i += stride) {
    sample.push_back(queries[i]);
  }
  return sample;
}

std::size_t KindLatencies::Count() const {
  std::size_t n = 0;
  for (const auto& v : us) n += v.size();
  return n;
}

std::vector<double> KindLatencies::All() const {
  std::vector<double> all;
  for (const auto& v : us) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void ReportSearchLatencies(MetricSet& metrics, const KindLatencies& latencies) {
  for (int kind = 0; kind < kNumKinds; ++kind) {
    metrics.Set(std::string(KindName(static_cast<QueryKind>(kind))) + "_p50_us",
                Median(latencies.us[kind]), "us");
  }
  metrics.Set("search_p90_us", Percentile(latencies.All(), 0.90), "us");
}

}  // namespace perfbench
