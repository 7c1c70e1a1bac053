// engine_us: one in-process caller drives a bulk-built KS-CH engine (the
// paper's own measurement). Phases, taking turns over kSlices slices: a
// closed loop over the seeded query list, an open loop at kEngineOpenRate,
// and engine-direct writes through KSpin's update API (the lazy APX-NVD
// update path, no wire or op log). Each slice writes a fixed number of
// rounds, so the index evolves the same way on every run of a seed.

#include <cstdio>

#include "dataset.h"
#include "decorators.h"
#include "layers.h"
#include "routing/contraction_hierarchy.h"
#include "server/mutation.h"
#include "server/wire.h"
#include "service/query_parser.h"
#include "text/vocabulary.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kspin::server::WireResult;

/// The wire codec's work on one search, in process: request encode and
/// decode, reply encode and decode. Returns (reply encode ns, total ns).
std::pair<std::uint64_t, std::uint64_t> CodecRoundTrip(
    const Query& query, const std::vector<Hit>& hits) {
  const std::uint64_t start = NowNs();
  kspin::server::SearchRequest request;
  request.vertex = query.vertex;
  request.k = query.k;
  request.query = query.Text();
  const std::vector<std::uint8_t> request_bytes =
      kspin::server::EncodeSearchRequest(request);
  kspin::server::SearchRequest decoded;
  Require(kspin::server::DecodeSearchRequest(request_bytes, &decoded),
          "search request codec round trip failed");
  const std::uint64_t reply_start = NowNs();
  std::vector<WireResult> results;
  results.reserve(hits.size());
  for (const Hit& h : hits) {
    results.push_back({h.object, h.distance, h.score, "poi" + std::to_string(h.object)});
  }
  const std::vector<std::uint8_t> reply_bytes =
      kspin::server::EncodeSearchResponse(results, 0,
                                          kspin::server::kProtocolVersion);
  const std::uint64_t reply_ns = NowNs() - reply_start;
  kspin::server::PayloadReader reader(reply_bytes);
  reader.U8();  // Status byte.
  std::vector<WireResult> decoded_results;
  std::uint8_t flags = 0;
  Require(kspin::server::DecodeSearchResponse(reader, &decoded_results, &flags) &&
              decoded_results.size() == hits.size(),
          "search response codec round trip failed");
  return {reply_ns, NowNs() - start};
}

/// Bytes one write would append to the op log: the record payload plus
/// the 16-byte record header.
std::size_t LoggedBytes(const WriteOp& op) {
  kspin::server::MutationRecord record;
  record.idempotency_key = op.idempotency_key;
  switch (op.kind) {
    case WriteKind::kInsert:
      record.op = kspin::server::MutationOp::kInsert;
      record.vertex = op.vertex;
      record.name = "poi";
      record.add_keywords = op.InsertKeywords();
      break;
    case WriteKind::kUpdate:
      record.op = kspin::server::MutationOp::kUpdate;
      record.object = op.object;
      record.add_keywords = {KeywordName(op.add)};
      if (op.remove != kspin::kInvalidKeyword) {
        record.remove_keywords = {KeywordName(op.remove)};
      }
      break;
    case WriteKind::kDelete:
      record.op = kspin::server::MutationOp::kDelete;
      record.object = op.object;
      break;
  }
  return kspin::server::EncodeMutationRecord(record).size() + 16;
}

/// Applies `op` through KSpin's update API; returns the affected object.
ObjectId ApplyToEngine(kspin::KSpin& engine, const WriteOp& op) {
  switch (op.kind) {
    case WriteKind::kInsert: {
      std::vector<kspin::DocEntry> doc;
      for (const auto& [t, f] : op.terms) doc.push_back({t, f});
      return engine.InsertObject(op.vertex, std::move(doc));
    }
    case WriteKind::kUpdate:
      engine.AddKeywordToObject(op.object, op.add, 1);
      if (op.remove != kspin::kInvalidKeyword) {
        engine.RemoveKeywordFromObject(op.object, op.remove);
      }
      return op.object;
    case WriteKind::kDelete:
      engine.DeleteObject(op.object);
      return op.object;
  }
  return kspin::kInvalidObject;
}

}  // namespace

RunOutcome RunEngineUs(const RunConfig& config) {
  RunOutcome out;
  MetricSet& m = out.metrics;

  // ----- Set-up: network, catalogue, CH, then the bulk-built engine. -----
  UsDataset data = LoadPinnedUsDataset();
  Clock::time_point start = Clock::now();
  kspin::ContractionHierarchy ch(data.graph);
  kspin::ChOracle oracle(ch);
  const double ch_seconds = SecondsSince(start);
  start = Clock::now();
  kspin::KSpin engine(data.graph, data.store, oracle);
  const double kspin_seconds = SecondsSince(start);
  const double setup_seconds = SecondsSince(config.process_start);

  CatalogModel model(data.store);
  const std::vector<Query> queries =
      MakeQueries(model, data.graph.NumVertices(), config.seed, kQueriesPerKind);
  const std::vector<Query> sample =
      SampleQueries(queries, kCheckSample, config.seed);
  const auto same_ids = [](const Query& q) { return q.keywords; };
  std::unique_ptr<kspin::QueryProcessor> processor = engine.MakeProcessor();
  const auto engine_answer = [&](const Query& q) {
    if (processor == nullptr) processor = engine.MakeProcessor();
    return RunEngineQuery(*processor, q, q.keywords);
  };

  // Warm-up: one untimed pass, so caches, every keyword's index pages and
  // the processor's pooled scratch are filled before timing.
  for (const Query& q : queries) engine_answer(q);
  out.attempted += queries.size();
  out.attempted += CheckSample(data.graph, model, sample, engine_answer);

  // Traced run: one untraced pass, then the same list through the
  // decorated stack; the fixed list makes every counter repeat exactly for
  // a seed. Its slices below have no closed loop.
  double untraced_pass_seconds = 0.0;
  EnginePassResult traced;
  if (config.trace) {
    const Clock::time_point phase = Clock::now();
    for (const Query& q : queries) engine_answer(q);
    untraced_pass_seconds = SecondsSince(phase);
    traced = TracedEnginePass(engine, queries, same_ids);
    out.attempted += 2 * queries.size();
  }

  // ----- Timed slices: closed loop, open loop, writes. -----
  const double closed_slice =
      config.trace ? 0.0 : kEngineClosedShare * config.seconds / kSlices;
  const std::size_t open_per_slice = static_cast<std::size_t>(
      kEngineOpenRate * kEngineOpenShare * config.seconds / kSlices);
  const std::size_t rounds_per_slice = static_cast<std::size_t>(
      kEngineWriteRoundsPerSecond * config.seconds / kSlices);
  KindLatencies closed;
  WindowedRate closed_rate(kRateWindowSeconds);
  std::vector<double> open_latency, open_queue, open_execute, reply_encode,
      codec;
  WriteGenerator writes(config.seed, data.graph.NumVertices(), model);
  std::vector<double> write_latency, round_seconds;
  std::size_t logged_bytes = 0;
  std::size_t next_closed = 0, next_open = 0;
  std::uint64_t generation = engine.StructureGeneration();
  for (int slice = 0; slice < kSlices; ++slice) {
    // Closed loop: one caller, back to back, on from where the last slice
    // stopped in the list; replies are shape-checked after the slice.
    if (closed_slice > 0.0) {
      std::vector<std::pair<std::size_t, std::vector<Hit>>> replies;
      std::vector<double> done;
      const Clock::time_point phase = Clock::now();
      do {
        const std::size_t i = next_closed++ % queries.size();
        const Clock::time_point t0 = Clock::now();
        std::vector<Hit> hits = engine_answer(queries[i]);
        const Clock::time_point t1 = Clock::now();
        closed.Add(queries[i].kind, MicrosBetween(t0, t1));
        done.push_back(MicrosBetween(phase, t1) / 1e6);
        replies.emplace_back(i, std::move(hits));
      } while (SecondsSince(phase) < closed_slice);
      closed_rate.AddPhase(done, SecondsSince(phase));
      for (const auto& [i, hits] : replies) {
        const std::string error = CheckReplyShape(model, queries[i], hits);
        Require(error.empty(), "bad reply: " + error);
      }
    }

    // Open loop: one caller, arrivals at a fixed rate.
    const Clock::time_point open_start = Clock::now();
    for (std::size_t j = 0; j < open_per_slice; ++j, ++next_open) {
      const Clock::time_point due =
          open_start + Duration(static_cast<double>(j) / kEngineOpenRate);
      WaitUntil(due);
      const Query& q = queries[(next_open * 7) % queries.size()];
      const Clock::time_point begin = Clock::now();
      const std::vector<Hit> hits = engine_answer(q);
      const Clock::time_point end = Clock::now();
      open_latency.push_back(MicrosBetween(due, end));
      open_queue.push_back(MicrosBetween(due, begin));
      open_execute.push_back(MicrosBetween(begin, end));
      if (config.trace) {
        const auto [reply_ns, codec_ns] = CodecRoundTrip(q, hits);
        reply_encode.push_back(reply_ns / 1e3);
        codec.push_back(codec_ns / 1e3);
      }
    }

    // Writes: whole insert/update/delete rounds, engine-direct.
    for (std::size_t round = 0; round < rounds_per_slice; ++round) {
      const Clock::time_point round_start = Clock::now();
      for (std::size_t r = 0; r < WriteGenerator::kRoundSize; ++r) {
        const WriteOp op = writes.Next(model);
        const Clock::time_point t0 = Clock::now();
        const ObjectId id = ApplyToEngine(engine, op);
        write_latency.push_back(MicrosBetween(t0, Clock::now()));
        const ObjectId expected = ApplyToModel(model, op);
        Require(id == expected, "engine wrote object " + std::to_string(id) +
                                    ", model expected " +
                                    std::to_string(expected));
        if (config.trace) logged_bytes += LoggedBytes(op);
      }
      round_seconds.push_back(SecondsSince(round_start));
    }
    if (engine.StructureGeneration() != generation) {
      generation = engine.StructureGeneration();
      processor.reset();
    }
  }
  out.attempted += closed.Count() + open_latency.size() + write_latency.size();
  out.attempted += CheckSample(data.graph, model,
                               SampleQueries(queries, kCheckSample / 2,
                                             config.seed + 1),
                               engine_answer);

  const kspin::KeywordIndex& keyword_index = engine.Keywords();
  if (!config.trace) {
    m.Set("setup_s", setup_seconds, "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    m.Set("index_mb",
          static_cast<double>(engine.IndexMemoryBytes() + ch.MemoryBytes()) /
              (1 << 20),
          "MB");
    m.Set("search_qps", closed_rate.MedianRate(), "queries/s");
    ReportSearchLatencies(m, closed);
    m.Set("open_p50_us", Median(open_latency), "us");
    m.Set("write_qps", WriteGenerator::kRoundSize / Median(round_seconds),
          "writes/s");
    m.Set("write_p50_us", Median(write_latency), "us");
    return out;
  }

  m.Set("graph.generate_s", data.graph_seconds, "s");
  m.Set("routing.ch_build_s", ch_seconds, "s");
  m.Set("nvd.build_s", keyword_index.BuildSeconds(), "s");
  // The constructor builds ALT, the inverted index and the relevance
  // model, then the keyword indexes; all but the last is ALT's share.
  m.Set("alt.build_s", kspin_seconds - keyword_index.BuildSeconds(), "s");
  m.Set("service.populate_s", data.documents_seconds, "s");
  ReportEngineLayers(m, traced.totals);
  m.Set("nvd.voronoi_indexes", keyword_index.NumVoronoiIndexes(), "count");
  m.Set("nvd.flat_indexes",
        keyword_index.NumIndexes() - keyword_index.NumVoronoiIndexes(), "count");

  kspin::Vocabulary vocabulary;
  for (KeywordId t = 0; t < data.num_keywords; ++t) {
    vocabulary.AddOrGet(KeywordName(t));
  }
  std::vector<std::string> texts;
  for (const Query& q : queries) texts.push_back(q.Text());
  start = Clock::now();
  for (const std::string& text : texts) {
    kspin::ParseBooleanQuery(text, vocabulary);
  }
  m.Set("service.parse_us_per_query", SecondsSince(start) * 1e6 / texts.size(),
        "us");

  m.Set("server.queue_us_p50", Median(open_queue), "us");
  m.Set("server.queue_us_p99", Percentile(open_queue, 0.99), "us");
  m.Set("server.execute_us_p50", Median(open_execute), "us");
  m.Set("server.reply_us_p50", Median(reply_encode), "us");
  m.Set("wire.overhead_us_p50", Median(codec), "us");
  m.Set("loadgen.lateness_us_p99", Percentile(open_queue, 0.99), "us");
  m.Set("mutation.execute_us_p50", Median(write_latency), "us");
  m.Set("oplog.appends_per_fsync", 0.0, "ratio");
  m.Set("oplog.bytes_per_write",
        Ratio(static_cast<double>(logged_bytes), write_latency.size()), "bytes");
  m.Set("trace.overhead", untraced_pass_seconds / traced.seconds, "ratio");
  return out;
}

}  // namespace perfbench
