#include "dataset.h"

#include <sstream>

#include "bench_util.h"
#include "graph/road_network_generator.h"
#include "text/zipf_generator.h"

namespace perfbench {
namespace {

class Fnv1a {
 public:
  void Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t Value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string Fingerprint::ToString() const {
  std::ostringstream out;
  out << "|V|=" << vertices << " |E|=" << edges << " |O|=" << objects
      << " checksum=0x" << std::hex << checksum;
  return out.str();
}

Fingerprint ExpectedUsFingerprint() {
  return {159856, 272145, 4635, 0x9658c8fe2b22c32aULL};
}

UsDataset GenerateUsDataset() {
  const kspin::DatasetSpec spec = kspin::DatasetSpecByName("US");
  UsDataset dataset;
  dataset.num_keywords = spec.num_keywords;

  Clock::time_point start = Clock::now();
  kspin::RoadNetworkOptions road;
  road.grid_width = spec.grid_width;
  road.grid_height = spec.grid_height;
  road.seed = spec.seed;
  dataset.graph = kspin::GenerateRoadNetwork(road);
  dataset.graph_seconds = SecondsSince(start);

  start = Clock::now();
  kspin::KeywordDatasetOptions keywords;
  keywords.num_keywords = spec.num_keywords;
  keywords.object_fraction = spec.object_fraction;
  keywords.seed = spec.seed + 1000;  // As the ladder's bench harnesses do.
  dataset.store = kspin::GenerateKeywordDataset(dataset.graph, keywords);
  dataset.documents_seconds = SecondsSince(start);
  return dataset;
}

UsDataset LoadPinnedUsDataset() {
  UsDataset dataset = GenerateUsDataset();
  const Fingerprint fingerprint =
      ComputeFingerprint(dataset.graph, dataset.store);
  Require(fingerprint == ExpectedUsFingerprint(),
          "US dataset fingerprint changed: got " + fingerprint.ToString() +
              ", pinned " + ExpectedUsFingerprint().ToString());
  return dataset;
}

Fingerprint ComputeFingerprint(const kspin::Graph& graph,
                               const kspin::DocumentStore& store) {
  Fnv1a hash;
  for (kspin::VertexId v = 0; v < graph.NumVertices(); ++v) {
    for (const kspin::Arc& arc : graph.Neighbors(v)) {
      hash.Add(v);
      hash.Add(arc.head);
      hash.Add(arc.weight);
    }
  }
  for (kspin::ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) continue;
    hash.Add(o);
    hash.Add(store.ObjectVertex(o));
    for (const kspin::DocEntry& e : store.Document(o)) {
      hash.Add(e.keyword);
      hash.Add(e.frequency);
    }
  }
  return {graph.NumVertices(), graph.NumEdges(), store.NumLiveObjects(),
          hash.Value()};
}

std::string KeywordName(kspin::KeywordId t) {
  return "kw" + std::to_string(t);
}

}  // namespace perfbench
