// server_us: an in-process Server on loopback TCP in front of a
// PoiService whose catalogue is loaded the way kspin_server loads one
// (PoiService::AddPoi), with a durable op log in a fresh directory under
// the run's scratch directory. Phases, taking turns over kSlices slices:
// a closed loop on kClosedConnections connections, an open loop at
// kOpenRate, and a single durable writer alone. Afterwards a clean
// restart (not a crash) replays the op log, and the replayed server's
// answers are checked against the model of the acknowledged writes.
//
// The traced run joins client round trips to the server's DUMP_DIAG spans
// by a trace id the benchmark sets on every request, and brackets the
// traced traffic with STATS snapshots whose deltas must agree exactly with
// what the clients counted.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "dataset.h"
#include "layers.h"
#include "routing/contraction_hierarchy.h"
#include "server/client.h"
#include "server/server.h"
#include "service/poi_service.h"
#include "service/query_parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kspin::server::Client;
using kspin::server::Server;

/// Server worker threads (fixed, whatever the host).
constexpr unsigned kServerWorkers = 2;
/// Open loop: arrival rate (about a tenth of closed-loop capacity) and
/// connections.
constexpr double kOpenRate = 200.0;
constexpr unsigned kOpenConnections = 1;
/// Phase shares of --seconds.
constexpr double kClosedShare = 0.5;
constexpr double kOpenShare = 0.25;
constexpr double kWriteShare = 0.25;
/// Period of the traced run's DUMP_DIAG scrapes.
constexpr auto kDiagPeriod = std::chrono::milliseconds(200);

/// Closed-loop connections. With one, the client thread, a worker and
/// the I/O thread fit any host, so the loop measures the server rather
/// than the scheduler: with two on a 4-core VM the per-kind medians
/// spread about twice as widely from run to run.
constexpr unsigned kClosedConnections = 1;

// ----- The serving stack ------------------------------------------------

/// The serving stack. Built in place: the service, oracle and server hold
/// references into it, so it never moves.
struct Stack {
  explicit Stack(const RunConfig& config);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  UsDataset data;
  std::unique_ptr<kspin::ContractionHierarchy> ch;
  std::unique_ptr<kspin::ChOracle> oracle;
  std::unique_ptr<kspin::PoiService> service;
  std::unique_ptr<Server> server;
  std::string oplog_dir;
  double ch_seconds = 0, alt_seconds = 0, populate_seconds = 0,
         setup_seconds = 0;
};

/// Loads every catalogue object through PoiService::AddPoi, in id order,
/// so server object i is dataset object i. A keyword with frequency f is
/// passed f times (AddPoi merges repeats into the frequency).
void Populate(kspin::PoiService& service, const kspin::DocumentStore& store) {
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    std::vector<std::string> keywords;
    for (const kspin::DocEntry& e : store.Document(o)) {
      for (std::uint32_t i = 0; i < e.frequency; ++i) {
        keywords.push_back(KeywordName(e.keyword));
      }
    }
    const ObjectId id = service.AddPoi("poi" + std::to_string(o),
                                       store.ObjectVertex(o), keywords);
    Require(id == o, "AddPoi assigned id " + std::to_string(id) +
                         " to catalogue object " + std::to_string(o));
  }
}

std::unique_ptr<Server> StartServer(kspin::PoiService& service,
                                    const std::string& oplog_dir) {
  kspin::server::ServerOptions options;
  options.num_workers = kServerWorkers;
  options.oplog.dir = oplog_dir;
  options.flight_recorder_capacity = 4096;
  auto server = std::make_unique<Server>(service, options);
  server->Start();
  return server;
}

Stack::Stack(const RunConfig& config) : data(LoadPinnedUsDataset()) {
  Clock::time_point start = Clock::now();
  ch = std::make_unique<kspin::ContractionHierarchy>(data.graph);
  oracle = std::make_unique<kspin::ChOracle>(*ch);
  ch_seconds = SecondsSince(start);
  start = Clock::now();
  service =
      std::make_unique<kspin::PoiService>(data.graph, *oracle);
  alt_seconds = SecondsSince(start);
  start = Clock::now();
  Populate(*service, data.store);
  populate_seconds = SecondsSince(start) + data.documents_seconds;
  oplog_dir = config.scratch_dir + "/oplog";
  std::filesystem::create_directories(oplog_dir);
  server = StartServer(*service, oplog_dir);
  setup_seconds = SecondsSince(config.process_start);
}

// ----- Traffic ----------------------------------------------------------

std::vector<Hit> ToHits(const std::vector<kspin::server::WireResult>& results) {
  std::vector<Hit> hits;
  hits.reserve(results.size());
  for (const auto& r : results) hits.push_back({r.object, r.travel_time, r.score});
  return hits;
}

/// One search as the client saw it.
struct SearchRecord {
  std::size_t query = 0;      ///< Index into the query list.
  std::uint64_t trace_id = 0;  ///< 0 when untraced.
  double latency_us = 0;       ///< Open loop: from when it was due.
  double round_trip_us = 0;    ///< From send to reply.
  double lateness_us = 0;      ///< Open loop: send time minus due time.
  Clock::time_point done;      ///< When the reply arrived.
  std::vector<Hit> hits;
};

struct WriteRecord {
  std::uint64_t trace_id = 0;
  double latency_us = 0;
};

/// What one client thread did; merged by the caller after join.
struct Traffic {
  std::vector<SearchRecord> searches;
  std::vector<WriteRecord> writes;
  std::vector<double> round_seconds;  ///< Writer: each whole round.
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::string error;  ///< A transport or check error ends the thread.
  bool check_failed = false;  ///< `error` is a failed benchmark check.

  void Merge(Traffic&& other) {
    for (auto& s : other.searches) searches.push_back(std::move(s));
    for (auto& w : other.writes) writes.push_back(w);
    round_seconds.insert(round_seconds.end(), other.round_seconds.begin(),
                         other.round_seconds.end());
    ok += other.ok;
    failed += other.failed;
    if (error.empty()) {
      error = other.error;
      check_failed = other.check_failed;
    }
  }
};

/// Shared by the client threads of one run.
struct TrafficContext {
  std::uint16_t port = 0;
  const std::vector<Query>* queries = nullptr;
  const std::vector<std::string>* texts = nullptr;
  bool traced = false;
  std::atomic<std::uint64_t>* next_trace_id = nullptr;
};

void Stamp(const TrafficContext& ctx, Client& client, std::uint64_t* id) {
  *id = ctx.traced ? ctx.next_trace_id->fetch_add(1) : 0;
  client.SetTraceContext({*id, 0, ctx.traced ? kspin::server::kTraceFlagSampled
                                             : std::uint8_t{0}});
}

/// Sends query `index` and records it; `due` is the open loop's schedule.
void SendSearch(const TrafficContext& ctx, Client& client, std::size_t index,
                Clock::time_point due, Traffic* out) {
  const Query& q = (*ctx.queries)[index];
  SearchRecord record;
  record.query = index;
  Stamp(ctx, client, &record.trace_id);
  const Clock::time_point sent = Clock::now();
  const Client::SearchReply reply = client.Search(
      (*ctx.texts)[index], q.vertex, q.k, q.kind == QueryKind::kTopK);
  const Clock::time_point done = Clock::now();
  record.round_trip_us = MicrosBetween(sent, done);
  record.latency_us = MicrosBetween(due, done);
  record.lateness_us = MicrosBetween(due, sent);
  record.done = done;
  if (!reply.ok()) {
    ++out->failed;
    return;
  }
  ++out->ok;
  record.hits = ToHits(reply.results);
  out->searches.push_back(std::move(record));
}

/// Closed loop: back-to-back searches from `offset` until `deadline`.
Traffic ClosedLoop(const TrafficContext& ctx, std::size_t offset,
                   Clock::time_point deadline) {
  Traffic out;
  try {
    Client client;
    client.Connect("127.0.0.1", ctx.port);
    const std::size_t n = ctx.queries->size();
    for (std::size_t i = offset; Clock::now() < deadline; ++i) {
      SendSearch(ctx, client, i % n, Clock::now(), &out);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// Open loop, connection `lane` of `lanes`: request i (i = lane mod lanes)
/// is due at start + i / rate and sends the open-loop query numbered
/// first + i; stops after `count` requests.
Traffic OpenLoop(const TrafficContext& ctx, unsigned lane, unsigned lanes,
                 double rate, std::size_t first, std::size_t count,
                 Clock::time_point start) {
  Traffic out;
  try {
    Client client;
    client.Connect("127.0.0.1", ctx.port);
    const std::size_t n = ctx.queries->size();
    for (std::size_t i = lane; i < count; i += lanes) {
      const Clock::time_point due =
          start + Duration(static_cast<double>(i) / rate);
      WaitUntil(due);
      SendSearch(ctx, client, ((first + i) * 7 + 3) % n, due, &out);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// The writer: whole insert/update/delete rounds until `seconds` have
/// passed, each round timed. Every acknowledged write is applied to
/// `model`.
Traffic Writer(const TrafficContext& ctx, Client& client, CatalogModel& model,
               WriteGenerator& writes, double seconds) {
  Traffic out;
  try {
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      const Clock::time_point round_start = Clock::now();
      for (std::size_t r = 0; r < WriteGenerator::kRoundSize; ++r) {
        const WriteOp op = writes.Next(model);
        WriteRecord record;
        Stamp(ctx, client, &record.trace_id);
        const Clock::time_point t0 = Clock::now();
        Client::MutateReply reply;
        switch (op.kind) {
          case WriteKind::kInsert:
            reply = client.InsertDoc(op.idempotency_key, op.vertex,
                                     "poi" + std::to_string(model.NumSlots()),
                                     op.InsertKeywords());
            break;
          case WriteKind::kUpdate: {
            const std::vector<std::string> add = {KeywordName(op.add)};
            std::vector<std::string> remove;
            if (op.remove != kspin::kInvalidKeyword) {
              remove.push_back(KeywordName(op.remove));
            }
            reply = client.UpdateDoc(op.idempotency_key, op.object, add, remove);
            break;
          }
          case WriteKind::kDelete:
            reply = client.DeleteDoc(op.idempotency_key, op.object);
            break;
        }
        record.latency_us = MicrosBetween(t0, Clock::now());
        if (!reply.ok()) {
          ++out.failed;
          continue;  // Not acknowledged: the model does not change.
        }
        ++out.ok;
        const ObjectId id = ApplyToModel(model, op);
        Require(reply.id == id, "server acknowledged object " +
                                    std::to_string(reply.id) + ", expected " +
                                    std::to_string(id));
        out.writes.push_back(record);
      }
      out.round_seconds.push_back(SecondsSince(round_start));
    }
  } catch (const CheckFailure& e) {
    out.error = e.what();
    out.check_failed = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// ----- Traced-run instruments -------------------------------------------

struct Span {
  double queue_us = 0, execute_us = 0, reply_us = 0;
};

/// Extracts `"key":value` (number or hex string) from one dump line.
bool Field(const std::string& line, const char* key, std::uint64_t* out,
           int base = 10) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (line[pos] == '"') ++pos;
  *out = std::strtoull(line.c_str() + pos, nullptr, base);
  return true;
}

/// Scrapes DUMP_DIAG every kDiagPeriod on its own connection and keeps
/// the spans that carry a trace id, keyed by it.
class SpanCollector {
 public:
  explicit SpanCollector(std::uint16_t port) {
    client_.Connect("127.0.0.1", port);
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Scrape();
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait_for(lock, kDiagPeriod, [this] { return stop_.load(); });
      }
    });
  }
  ~SpanCollector() { Stop(); }

  /// Stops the scraper after one last scrape; returns the scrapes made.
  std::uint64_t Finish() {
    Stop();
    Scrape();
    if (!error_.empty()) throw std::runtime_error("DUMP_DIAG: " + error_);
    return scrapes_;
  }
  const std::unordered_map<std::uint64_t, Span>& Spans() const { return spans_; }

 private:
  void Stop() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_.store(true);
    }
    wake_.notify_all();
    thread_.join();
  }

  void Scrape() {
    try {
      const Client::MetricsReply reply = client_.DumpDiag();
      ++scrapes_;
      if (!reply.ok()) {
        error_ = reply.error;
        return;
      }
      std::size_t begin = 0;
      while (begin < reply.text.size()) {
        std::size_t end = reply.text.find('\n', begin);
        if (end == std::string::npos) end = reply.text.size();
        const std::string line = reply.text.substr(begin, end - begin);
        begin = end + 1;
        std::uint64_t trace_id = 0, queue = 0, execute = 0, reply_us = 0;
        if (line.find("\"kind\":\"span\"") == std::string::npos ||
            !Field(line, "trace_id", &trace_id, 16) || trace_id == 0 ||
            !Field(line, "queue_us", &queue) ||
            !Field(line, "execute_us", &execute) ||
            !Field(line, "reply_us", &reply_us)) {
          continue;
        }
        spans_[trace_id] = {static_cast<double>(queue),
                            static_cast<double>(execute),
                            static_cast<double>(reply_us)};
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  Client client_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::atomic<bool> stop_{false};
  std::uint64_t scrapes_ = 0;
  std::string error_;
  std::unordered_map<std::uint64_t, Span> spans_;
};

using StatsMap = std::unordered_map<std::string, std::uint64_t>;

StatsMap ReadStats(Client& probe) {
  const Client::StatsReply reply = probe.Stats();
  Require(reply.ok(), "STATS failed: " + reply.error);
  StatsMap stats;
  for (const auto& [key, value] : reply.stats) stats[key] = value;
  return stats;
}

double Delta(const StatsMap& before, const StatsMap& after,
             const std::string& key) {
  Require(after.contains(key), "STATS lacks " + key);
  return static_cast<double>(after.at(key) - before.at(key));
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ----- Shared run pieces --------------------------------------------------

/// Checks `sample` through `client` against the model and a Dijkstra.
std::size_t CheckThroughClient(const Stack& stack, const CatalogModel& model,
                               Client& client, std::span<const Query> sample) {
  return CheckSample(stack.data.graph, model, sample, [&](const Query& q) {
    const Client::SearchReply reply =
        client.Search(q.Text(), q.vertex, q.k, q.kind == QueryKind::kTopK);
    Require(reply.ok(), "sampled search failed: " + reply.error);
    return ToHits(reply.results);
  });
}

/// Shape-checks every recorded reply against `model`.
void CheckShapes(const CatalogModel& model, const std::vector<Query>& queries,
                 const std::vector<SearchRecord>& records) {
  for (const SearchRecord& r : records) {
    const std::string error =
        CheckReplyShape(model, queries[r.query], r.hits);
    Require(error.empty(), "bad reply: " + error);
  }
}

void ThrowOnError(const Traffic& traffic) {
  if (traffic.check_failed) throw CheckFailure(traffic.error);
  if (!traffic.error.empty()) throw std::runtime_error(traffic.error);
}

KindLatencies LatenciesOf(const std::vector<Query>& queries,
                          const std::vector<SearchRecord>& records) {
  KindLatencies latencies;
  for (const SearchRecord& r : records) {
    latencies.Add(queries[r.query].kind, r.latency_us);
  }
  return latencies;
}

/// Runs `lane(j)` for j < lanes on one thread each and merges the results.
Traffic RunLanes(unsigned lanes, const std::function<Traffic(unsigned)>& lane) {
  std::vector<Traffic> parts(lanes);
  std::vector<std::thread> threads;
  for (unsigned j = 0; j < lanes; ++j) {
    threads.emplace_back([&, j] { parts[j] = lane(j); });
  }
  for (std::thread& t : threads) t.join();
  Traffic merged;
  for (Traffic& p : parts) merged.Merge(std::move(p));
  ThrowOnError(merged);
  return merged;
}

/// kClosedConnections closed loops until `deadline`; lane j starts at
/// query offset + j * n / lanes of the list.
Traffic RunClosed(const TrafficContext& ctx, std::size_t offset,
                  Clock::time_point deadline) {
  const unsigned lanes = kClosedConnections;
  return RunLanes(lanes, [&](unsigned j) {
    return ClosedLoop(ctx, offset + j * ctx.queries->size() / lanes,
                      deadline);
  });
}

/// Open-loop requests first .. first + count - 1 at `rate` over `lanes`
/// connections.
Traffic RunOpen(const TrafficContext& ctx, unsigned lanes, double rate,
                std::size_t first, std::size_t count) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  return RunLanes(lanes, [&](unsigned j) {
    return OpenLoop(ctx, j, lanes, rate, first, count, start);
  });
}

/// A second of untimed closed-loop traffic (about one pass over the query
/// list), so every worker's processor and scratch exist and caches are
/// filled before timing starts.
void WarmUp(const TrafficContext& ctx, RunOutcome* out) {
  const Traffic warm =
      RunClosed(ctx, 0, Clock::now() + std::chrono::seconds(1));
  out->attempted += warm.ok + warm.failed;
  out->failed += warm.failed;
}

/// Everything a server workload measured, for the reporting step.
struct ServerRun {
  Traffic closed;          ///< Closed-loop searches (reported phase).
  WindowedRate closed_rate{kRateWindowSeconds};
  double closed_seconds = 0;
  double untraced_qps = 0;  ///< Traced run: the untraced closed loop.
  Traffic open;
  Traffic writes;
  // Traced run only.
  StatsMap before, after;
  std::unordered_map<std::uint64_t, Span> spans;
};

void ReportEndToEnd(MetricSet& m, const Stack& stack, const ServerRun& run,
                    const std::vector<Query>& queries, double index_mb,
                    double peak_rss_mb) {
  m.Set("setup_s", stack.setup_seconds, "s");
  m.Set("peak_rss_mb", peak_rss_mb, "MB");
  m.Set("index_mb", index_mb, "MB");
  m.Set("search_qps", run.closed_rate.MedianRate(), "queries/s");
  ReportSearchLatencies(m, LatenciesOf(queries, run.closed.searches));
  std::vector<double> open;
  for (const SearchRecord& r : run.open.searches) open.push_back(r.latency_us);
  m.Set("open_p50_us", Median(open), "us");
  std::vector<double> writes;
  for (const WriteRecord& w : run.writes.writes) writes.push_back(w.latency_us);
  m.Set("write_qps",
        WriteGenerator::kRoundSize / Median(run.writes.round_seconds),
        "writes/s");
  m.Set("write_p50_us", Median(writes), "us");
}

/// Per-layer metrics of a traced server run. `probes` is the number of
/// requests the benchmark itself sent inside the STATS window (the first
/// STATS and every DUMP_DIAG scrape); `logged_writes` is every write the
/// op log holds.
void ReportLayers(MetricSet& m, Stack& stack, const ServerRun& run,
                  const std::vector<Query>& queries, std::uint64_t probes,
                  std::uint64_t logged_writes) {
  const StatsMap& b = run.before;
  const StatsMap& a = run.after;
  // Independent totals must agree exactly.
  const std::uint64_t client_ok = run.closed.ok + run.open.ok + run.writes.ok;
  Require(Delta(b, a, "requests_ok") == client_ok + probes,
          "requests_ok delta " + std::to_string(Delta(b, a, "requests_ok")) +
              " != client OK replies " + std::to_string(client_ok) +
              " + probes " + std::to_string(probes));
  Require(Delta(b, a, "oplog_appends") == run.writes.ok,
          "oplog_appends delta != acknowledged writes " +
              std::to_string(run.writes.ok));
  Require(Delta(b, a, "mutations_applied") == run.writes.ok,
          "mutations_applied delta != acknowledged writes " +
              std::to_string(run.writes.ok));
  Require(Delta(b, a, "engine_false_positive_distances") <=
              Delta(b, a, "engine_distance_computations"),
          "false positives exceed distance computations");
  Require(Delta(b, a, "engine_heap_pops") >=
              Delta(b, a, "engine_results_returned"),
          "kappa below results returned");

  m.Set("graph.generate_s", stack.data.graph_seconds, "s");
  m.Set("routing.ch_build_s", stack.ch_seconds, "s");
  m.Set("alt.build_s", stack.alt_seconds, "s");
  m.Set("service.populate_s", stack.populate_seconds, "s");

  // Engine layers: per kind from a decorated pass over the served index
  // (after the server stopped), aggregated from the live STATS deltas.
  kspin::PoiService& service = *stack.service;
  const kspin::Vocabulary& vocabulary = service.Keywords();
  const EnginePassResult pass =
      TracedEnginePass(service.Engine(), queries, [&](const Query& q) {
        std::vector<KeywordId> ids;
        for (KeywordId t : q.keywords) ids.push_back(vocabulary.IdOf(KeywordName(t)));
        return ids;
      });
  ReportEngineLayers(m, pass.totals);
  const double searches = static_cast<double>(run.closed.ok + run.open.ok);
  m.Set("heap.pops_per_result",
        Ratio(Delta(b, a, "engine_heap_pops"),
              Delta(b, a, "engine_results_returned")),
        "ratio");
  m.Set("heap.insertions_per_query",
        Ratio(Delta(b, a, "engine_heap_insertions"), searches), "count");
  m.Set("heap.build_us_per_query",
        Ratio(Delta(b, a, "engine_heap_build_ns") / 1e3, searches), "us");
  m.Set("alt.lb_evals_per_query",
        Ratio(Delta(b, a, "engine_lower_bounds"), searches), "count");
  m.Set("alt.lb_items_per_batch_call",
        Ratio(Delta(b, a, "engine_lb_batch_items"),
              Delta(b, a, "engine_lb_batch_calls")),
        "count");
  m.Set("routing.distance_calls_per_query",
        Ratio(Delta(b, a, "engine_distance_computations"), searches), "count");
  m.Set("query.false_positive_per_query",
        Ratio(Delta(b, a, "engine_false_positive_distances"), searches),
        "count");

  const kspin::KeywordIndex& keyword_index = service.Engine().Keywords();
  m.Set("nvd.build_s", keyword_index.BuildSeconds(), "s");
  m.Set("nvd.voronoi_indexes", keyword_index.NumVoronoiIndexes(), "count");
  m.Set("nvd.flat_indexes",
        keyword_index.NumIndexes() - keyword_index.NumVoronoiIndexes(), "count");

  std::vector<std::string> texts;
  for (const Query& q : queries) texts.push_back(q.Text());
  kspin::ParseOptions parse;
  parse.allow_unknown_keywords = true;  // As PoiService parses.
  const Clock::time_point start = Clock::now();
  for (const std::string& text : texts) {
    kspin::ParseBooleanQuery(text, vocabulary, parse);
  }
  m.Set("service.parse_us_per_query", SecondsSince(start) * 1e6 / texts.size(),
        "us");

  // Server stages from spans joined to round trips by trace id.
  std::vector<double> queue, execute, reply, overhead, lateness, mutation;
  const auto join = [&](const std::vector<SearchRecord>& records) {
    for (const SearchRecord& r : records) {
      const auto it = run.spans.find(r.trace_id);
      if (it == run.spans.end()) continue;
      const Span& s = it->second;
      queue.push_back(s.queue_us);
      execute.push_back(s.execute_us);
      reply.push_back(s.reply_us);
      overhead.push_back(r.round_trip_us - s.queue_us - s.execute_us -
                         s.reply_us);
    }
  };
  join(run.closed.searches);
  join(run.open.searches);
  for (const SearchRecord& r : run.open.searches) lateness.push_back(r.lateness_us);
  for (const WriteRecord& w : run.writes.writes) {
    const auto it = run.spans.find(w.trace_id);
    if (it != run.spans.end()) mutation.push_back(it->second.execute_us);
  }
  Require(!queue.empty() && !mutation.empty(),
          "no spans joined to client requests");
  std::fprintf(stderr, "spans joined: %zu searches, %zu writes\n", queue.size(),
               mutation.size());
  m.Set("server.queue_us_p50", Median(queue), "us");
  m.Set("server.queue_us_p99", Percentile(queue, 0.99), "us");
  m.Set("server.execute_us_p50", Median(execute), "us");
  m.Set("server.reply_us_p50", Median(reply), "us");
  m.Set("wire.overhead_us_p50", Median(overhead), "us");
  m.Set("loadgen.lateness_us_p99", Percentile(lateness, 0.99), "us");
  m.Set("mutation.execute_us_p50", Median(mutation), "us");
  m.Set("oplog.appends_per_fsync",
        Ratio(Delta(b, a, "oplog_appends"), Delta(b, a, "oplog_fsync_batches")),
        "ratio");
  m.Set("oplog.bytes_per_write",
        Ratio(static_cast<double>(DirectoryBytes(stack.oplog_dir)), logged_writes),
        "bytes");
  m.Set("trace.overhead",
        (run.closed.ok / run.closed_seconds) / run.untraced_qps, "ratio");
}

double IndexMb(const Stack& stack) {
  return static_cast<double>(stack.service->Engine().IndexMemoryBytes() +
                             stack.ch->MemoryBytes()) /
         (1 << 20);
}

std::uint64_t Attempted(const ServerRun& run) {
  std::uint64_t n = 0;
  for (const Traffic* t : {&run.closed, &run.open, &run.writes}) {
    n += t->ok + t->failed;
  }
  return n;
}

/// What both server workloads do before their traffic: build the stack,
/// model the catalogue, generate the query list, check the fresh
/// catalogue's sampled answers through a probe connection, and warm up.
struct Session {
  Session(const RunConfig& config, RunOutcome* out)
      : stack(config),
        model(stack.data.store),
        queries(MakeQueries(model, stack.data.graph.NumVertices(),
                            config.seed, kQueriesPerKind)),
        ctx{stack.server->Port(), &queries, &texts, false, &next_trace_id} {
    for (const Query& q : queries) texts.push_back(q.Text());
    probe.Connect("127.0.0.1", stack.server->Port());
    out->attempted += CheckThroughClient(
        stack, model, probe, SampleQueries(queries, kCheckSample, config.seed));
    WarmUp(ctx, out);
  }

  Stack stack;
  CatalogModel model;
  const std::vector<Query> queries;
  std::vector<std::string> texts;
  std::atomic<std::uint64_t> next_trace_id{1};
  TrafficContext ctx;
  Client probe;
};

/// Checks `checks` sampled answers on the final state, stops the server,
/// and reports the end-to-end metrics (trace off) or the layers (on).
void Finish(Session& session, const RunConfig& config, const ServerRun& run,
            std::size_t checks, std::uint64_t probes,
            std::uint64_t logged_writes, RunOutcome* out) {
  out->attempted += CheckThroughClient(
      session.stack, session.model, session.probe,
      SampleQueries(session.queries, checks, config.seed + 1));
  session.probe.Close();
  const double peak_rss = PeakRssMb();
  session.stack.server->Stop();
  out->attempted += Attempted(run);
  out->failed += run.closed.failed + run.open.failed + run.writes.failed;
  if (!config.trace) {
    ReportEndToEnd(out->metrics, session.stack, run, session.queries,
                   IndexMb(session.stack), peak_rss);
  } else {
    ReportLayers(out->metrics, session.stack, run, session.queries, probes,
                 logged_writes);
  }
}

}  // namespace

RunOutcome RunServerUs(const RunConfig& config) {
  RunOutcome out;
  Session session(config, &out);
  TrafficContext& ctx = session.ctx;
  CatalogModel& model = session.model;
  ServerRun run;
  const double s = config.seconds;
  double closed_share = kClosedShare;
  std::unique_ptr<SpanCollector> collector;
  if (config.trace) {
    // An untraced closed loop for half the closed share, then the slices,
    // traced, inside the STATS window.
    closed_share /= 2;
    const Clock::time_point start = Clock::now();
    const Traffic untraced =
        RunClosed(ctx, 0, start + Duration(closed_share * s));
    run.untraced_qps = untraced.ok / SecondsSince(start);
    out.attempted += untraced.ok + untraced.failed;
    out.failed += untraced.failed;
    run.before = ReadStats(session.probe);
    collector = std::make_unique<SpanCollector>(session.stack.server->Port());
    ctx.traced = true;
  }

  WriteGenerator writes(config.seed, session.stack.data.graph.NumVertices(),
                        model);
  Client writer;
  writer.Connect("127.0.0.1", session.stack.server->Port());
  const std::size_t open_per_slice =
      static_cast<std::size_t>(kOpenRate * kOpenShare * s / kSlices);
  std::size_t closed_offset = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    // Reads see the catalogue as the writes so far left it; each slice's
    // replies are shape-checked against the model before the next writes.
    const Clock::time_point start = Clock::now();
    Traffic closed = RunClosed(ctx, closed_offset,
                               start + Duration(closed_share * s / kSlices));
    const double span = SecondsSince(start);
    std::vector<double> done;
    for (const SearchRecord& r : closed.searches) {
      done.push_back(MicrosBetween(start, r.done) / 1e6);
    }
    run.closed_rate.AddPhase(done, span);
    run.closed_seconds += span;
    closed_offset += closed.ok + closed.failed;
    Traffic open = RunOpen(ctx, kOpenConnections, kOpenRate,
                           slice * open_per_slice, open_per_slice);
    CheckShapes(model, session.queries, closed.searches);
    CheckShapes(model, session.queries, open.searches);
    run.closed.Merge(std::move(closed));
    run.open.Merge(std::move(open));

    Traffic written =
        Writer(ctx, writer, model, writes, kWriteShare * s / kSlices);
    ThrowOnError(written);
    run.writes.Merge(std::move(written));
  }
  writer.Close();
  std::uint64_t probes = 0;
  if (config.trace) {
    probes = collector->Finish() + 1;  // Scrapes + the first STATS.
    run.after = ReadStats(session.probe);
    run.spans = collector->Spans();
  }
  const std::uint64_t acknowledged = run.writes.ok;
  Finish(session, config, run, kCheckSample / 2, probes, acknowledged, &out);

  // Clean restart (not a crash): a fresh service on the same graph and the
  // same initial catalogue replays the op log; its answers must match the
  // model of the acknowledged writes.
  Stack& stack = session.stack;
  stack.server.reset();
  stack.service.reset();
  kspin::PoiService replayed(stack.data.graph, *stack.oracle);
  Populate(replayed, stack.data.store);
  std::unique_ptr<Server> server = StartServer(replayed, stack.oplog_dir);
  Require(server->AppliedSequence() == acknowledged,
          "replay applied " + std::to_string(server->AppliedSequence()) +
              " writes, " + std::to_string(acknowledged) +
              " were acknowledged");
  Require(replayed.NumLivePois() == model.NumLive(),
          "replayed catalogue has " + std::to_string(replayed.NumLivePois()) +
              " live objects, model " + std::to_string(model.NumLive()));
  Client after;
  after.Connect("127.0.0.1", server->Port());
  out.attempted += CheckThroughClient(
      stack, model, after,
      SampleQueries(session.queries, kCheckSample / 2, config.seed + 2));
  after.Close();
  server->Stop();
  return out;
}

}  // namespace perfbench
