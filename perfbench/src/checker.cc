#include "checker.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <unordered_set>

#include "graph/road_network_generator.h"

namespace perfbench {
namespace {

constexpr double kScoreTolerance = 1e-9;  // Relative, for ST comparisons.

bool ScoreLess(double a, double b) {
  return a < b - kScoreTolerance * std::max(std::abs(a), std::abs(b));
}

bool ScoreEqual(double a, double b) { return !ScoreLess(a, b) && !ScoreLess(b, a); }

std::string Describe(const Query& query) {
  std::ostringstream out;
  out << KindName(query.kind) << " q=" << query.vertex << " k=" << query.k
      << " \"" << query.Text() << "\"";
  return out.str();
}

// The true answer's sort keys: distances (BkNN) or scores (top-k) of every
// qualifying live object, ascending.
std::vector<double> TrueKeys(const CatalogModel& model, const Query& query,
                             const std::vector<Distance>& distances) {
  std::vector<double> keys;
  for (ObjectId o : model.LiveObjects()) {
    const CatalogModel::Doc& doc = model.At(o);
    if (!Satisfies(doc, query)) continue;
    const Distance d = distances[doc.vertex];
    if (query.kind == QueryKind::kTopK) {
      keys.push_back(static_cast<double>(d) /
                     TextualRelevance(model, query, o));
    } else {
      keys.push_back(static_cast<double>(d));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::vector<Distance> DijkstraDistances(const kspin::Graph& graph,
                                        VertexId source) {
  std::vector<Distance> dist(graph.NumVertices(), kspin::kInfDistance);
  using Entry = std::pair<Distance, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    for (const kspin::Arc& arc : graph.Neighbors(v)) {
      const Distance nd = d + arc.weight;
      if (nd < dist[arc.head]) {
        dist[arc.head] = nd;
        heap.push({nd, arc.head});
      }
    }
  }
  return dist;
}

bool Satisfies(const CatalogModel::Doc& doc, const Query& query) {
  if (!doc.live) return false;
  if (query.kind == QueryKind::kAnd) {
    return std::all_of(query.keywords.begin(), query.keywords.end(),
                       [&doc](KeywordId t) { return doc.terms.contains(t); });
  }
  return std::any_of(query.keywords.begin(), query.keywords.end(),
                     [&doc](KeywordId t) { return doc.terms.contains(t); });
}

double TextualRelevance(const CatalogModel& model, const Query& query,
                        ObjectId o) {
  std::vector<KeywordId> psi = query.keywords;
  std::sort(psi.begin(), psi.end());
  psi.erase(std::unique(psi.begin(), psi.end()), psi.end());
  const double num_objects = static_cast<double>(model.NumLive());
  std::vector<double> query_weights;
  double query_norm = 0.0;
  for (KeywordId t : psi) {
    const double list = static_cast<double>(model.ListSize(t));
    const double w = list > 0.0 ? std::log(1.0 + num_objects / list) : 0.0;
    query_weights.push_back(w);
    query_norm += w * w;
  }
  query_norm = std::sqrt(query_norm);
  const CatalogModel::Doc& doc = model.At(o);
  double doc_norm = 0.0;
  for (const auto& entry : doc.terms) {
    const double w = 1.0 + std::log(static_cast<double>(entry.second));
    doc_norm += w * w;
  }
  doc_norm = std::sqrt(doc_norm);
  if (query_norm <= 0.0 || doc_norm <= 0.0) return 0.0;
  double tr = 0.0;
  for (std::size_t i = 0; i < psi.size(); ++i) {
    const auto it = doc.terms.find(psi[i]);
    if (it == doc.terms.end()) continue;
    const double w = 1.0 + std::log(static_cast<double>(it->second));
    tr += (query_weights[i] / query_norm) * (w / doc_norm);
  }
  return tr;
}

std::string CheckReplyShape(const CatalogModel& model, const Query& query,
                            std::span<const Hit> reply) {
  if (reply.size() > query.k) {
    return Describe(query) + ": " + std::to_string(reply.size()) +
           " results for k=" + std::to_string(query.k);
  }
  std::unordered_set<ObjectId> seen;
  for (std::size_t i = 0; i < reply.size(); ++i) {
    const Hit& hit = reply[i];
    if (!seen.insert(hit.object).second) {
      return Describe(query) + ": object " + std::to_string(hit.object) +
             " returned twice";
    }
    if (i > 0) {
      const bool descends =
          query.kind == QueryKind::kTopK
              ? ScoreLess(hit.score, reply[i - 1].score)
              : hit.distance < reply[i - 1].distance;
      if (descends) {
        return Describe(query) + ": result " + std::to_string(i) +
               " is out of order";
      }
    }
    if (!model.IsLive(hit.object)) {
      return Describe(query) + ": object " + std::to_string(hit.object) +
             " is not live";
    }
    if (!Satisfies(model.At(hit.object), query)) {
      return Describe(query) + ": object " + std::to_string(hit.object) +
             " does not satisfy the predicate";
    }
  }
  return "";
}

std::string CheckReply(const CatalogModel& model, const Query& query,
                       const std::vector<Distance>& distances,
                       std::span<const Hit> reply) {
  std::string error = CheckReplyShape(model, query, reply);
  if (!error.empty()) return error;
  for (const Hit& hit : reply) {
    const Distance truth = distances[model.At(hit.object).vertex];
    if (hit.distance != truth) {
      return Describe(query) + ": object " + std::to_string(hit.object) +
             " at distance " + std::to_string(hit.distance) +
             ", Dijkstra says " + std::to_string(truth);
    }
    if (query.kind == QueryKind::kTopK) {
      const double expected = static_cast<double>(truth) /
                              TextualRelevance(model, query, hit.object);
      if (!ScoreEqual(hit.score, expected)) {
        std::ostringstream out;
        out.precision(17);
        out << Describe(query) << ": object " << hit.object << " score "
            << hit.score << ", Equation 1 says " << expected;
        return out.str();
      }
    }
  }
  const std::vector<double> truth = TrueKeys(model, query, distances);
  const std::size_t expected_size = std::min<std::size_t>(query.k, truth.size());
  if (reply.size() != expected_size) {
    return Describe(query) + ": " + std::to_string(reply.size()) +
           " results, expected " + std::to_string(expected_size);
  }
  // With the reply sorted and every key verified, "no unreturned object
  // beats the k-th" is: the i-th reported key equals the i-th true key.
  for (std::size_t i = 0; i < reply.size(); ++i) {
    const double key = query.kind == QueryKind::kTopK
                           ? reply[i].score
                           : static_cast<double>(reply[i].distance);
    const bool equal = query.kind == QueryKind::kTopK ? ScoreEqual(key, truth[i])
                                                      : key == truth[i];
    if (!equal) {
      std::ostringstream out;
      out.precision(17);
      out << Describe(query) << ": result " << i << " has key " << key
          << " but an unreturned object has " << truth[i];
      return out.str();
    }
  }
  return "";
}

std::string SelfTestChecker() {
  kspin::RoadNetworkOptions road;
  road.grid_width = 12;
  road.grid_height = 12;
  road.seed = 5;
  const kspin::Graph graph = kspin::GenerateRoadNetwork(road);
  // Twelve objects spread over the grid; keywords 0..3, with keyword 0
  // on every third object so a conjunctive query has few matches.
  kspin::DocumentStore store;
  for (ObjectId o = 0; o < 12; ++o) {
    std::vector<kspin::DocEntry> doc = {{1 + o % 3, 1 + o % 2}};
    if (o % 3 == 0) doc.push_back({0, 1});
    if (o % 4 == 0) doc.push_back({3, 2});
    store.AddObject(static_cast<VertexId>(o * 11 % graph.NumVertices()), doc);
  }
  CatalogModel model(store);
  model.Delete(6);  // Object 6 stays in a forged reply below.

  const VertexId source = 0;
  const std::vector<Distance> dist = DijkstraDistances(graph, source);
  const auto answer = [&](const Query& q) {
    std::vector<Hit> hits;
    for (ObjectId o : model.LiveObjects()) {
      if (!Satisfies(model.At(o), q)) continue;
      const Distance d = dist[model.At(o).vertex];
      const double score =
          q.kind == QueryKind::kTopK
              ? static_cast<double>(d) / TextualRelevance(model, q, o)
              : 0.0;
      hits.push_back({o, d, score});
    }
    std::sort(hits.begin(), hits.end(), [&q](const Hit& a, const Hit& b) {
      return q.kind == QueryKind::kTopK ? a.score < b.score
                                        : a.distance < b.distance;
    });
    if (hits.size() > q.k) hits.resize(q.k);
    return hits;
  };

  Query disjunctive{QueryKind::kOr, source, {0, 1}, 3};
  Query conjunctive{QueryKind::kAnd, source, {0, 1}, 3};
  Query ranked{QueryKind::kTopK, source, {0, 3}, 3};
  for (const Query& q : {disjunctive, conjunctive, ranked}) {
    const std::vector<Hit> truth = answer(q);
    if (truth.empty()) return "self-test query has no answer";
    if (std::string e = CheckReply(model, q, dist, truth); !e.empty()) {
      return "true answer rejected: " + e;
    }
    std::vector<Hit> off_by_one = truth;
    off_by_one.back().distance += 1;
    if (CheckReply(model, q, dist, off_by_one).empty()) {
      return std::string("distance off by one accepted for ") + KindName(q.kind);
    }
    std::vector<Hit> dropped = truth;
    dropped.pop_back();
    if (CheckReply(model, q, dist, dropped).empty()) {
      return std::string("dropped result accepted for ") + KindName(q.kind);
    }
  }
  // An object that lacks a query keyword: object 1 carries keyword 2 only.
  {
    std::vector<Hit> forged = answer(conjunctive);
    forged.back() = {1, dist[model.At(1).vertex], 0.0};
    std::sort(forged.begin(), forged.end(),
              [](const Hit& a, const Hit& b) { return a.distance < b.distance; });
    if (CheckReply(model, conjunctive, dist, forged).empty()) {
      return "object missing a query keyword accepted";
    }
  }
  // A deleted object (6 carried keywords 0 and 1 before its deletion).
  {
    std::vector<Hit> forged = answer(disjunctive);
    forged.back() = {6, dist[model.At(6).vertex], 0.0};
    std::sort(forged.begin(), forged.end(),
              [](const Hit& a, const Hit& b) { return a.distance < b.distance; });
    if (CheckReply(model, disjunctive, dist, forged).empty()) {
      return "deleted object accepted";
    }
  }
  return "";
}

}  // namespace perfbench
