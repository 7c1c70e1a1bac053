// Independent answer checker. Expected answers come from the benchmark's
// own Dijkstra over the graph's CSR arrays and from Equations 1-3 of the
// paper evaluated over the benchmark's own catalogue model:
//   w_{t,o} = 1 + ln f_{t,o},  w_{t,psi} = ln(1 + |O| / |inv(t)|),
//   TR(psi, o) = sum_t (w_{t,psi}/||w_psi||) * (w_{t,o}/||w_o||),
//   ST(q, o) = d(q, o) / TR(psi, o).
// Nothing here calls the program's query, scoring or routing code.
#ifndef KSPIN_PERFBENCH_CHECKER_H_
#define KSPIN_PERFBENCH_CHECKER_H_

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "inputs.h"

namespace perfbench {

using kspin::Distance;

/// One result of a reply, whatever surface it came through.
struct Hit {
  ObjectId object = kspin::kInvalidObject;
  Distance distance = kspin::kInfDistance;
  double score = 0.0;  ///< Top-k only.
};

/// Single-source shortest-path distances over `graph`'s adjacency arrays
/// (binary-heap Dijkstra).
std::vector<Distance> DijkstraDistances(const kspin::Graph& graph,
                                        VertexId source);

/// True when the live document satisfies the query's Boolean predicate
/// (top-k: contains at least one query keyword).
bool Satisfies(const CatalogModel::Doc& doc, const Query& query);

/// TR(psi, o) per Equations 2-3 over the model's live documents.
double TextualRelevance(const CatalogModel& model, const Query& query,
                        ObjectId o);

/// Checks a reply without distances: at most k results, no duplicates,
/// BkNN distances / top-k scores ascending, every object live in `model`
/// and satisfying the predicate. Returns "" or the first violation.
std::string CheckReplyShape(const CatalogModel& model, const Query& query,
                            std::span<const Hit> reply);

/// Full check against the model and `distances` (from DijkstraDistances
/// at query.vertex): the shape checks, every reported distance equal to
/// Dijkstra, top-k scores equal to Equation 1, the reply as long as the
/// true answer, and no unreturned object beating the k-th result (ties at
/// the boundary allowed). Returns "" or the first violation.
std::string CheckReply(const CatalogModel& model, const Query& query,
                       const std::vector<Distance>& distances,
                       std::span<const Hit> reply);

/// Shows the checker rejects a distance off by one, a dropped result, an
/// object missing a query keyword and a deleted object, and accepts the
/// true answer, on a small generated network. Returns "" or what failed.
std::string SelfTestChecker();

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_CHECKER_H_
