// The benchmark's input network and catalogue: the ladder's `US` entry
// (DESIGN.md §3), generated from the library's fixed ladder seed, plus a
// fingerprint that pins it. A generator change that alters the workload
// makes every run fail instead of drifting silently; `kspin_perfbench
// --fingerprint` prints the value to pin again.
#ifndef KSPIN_PERFBENCH_DATASET_H_
#define KSPIN_PERFBENCH_DATASET_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "text/document_store.h"

namespace perfbench {

struct Fingerprint {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::size_t objects = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a over every arc and document.

  std::string ToString() const;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// The pinned fingerprint of the US network and catalogue.
Fingerprint ExpectedUsFingerprint();

struct UsDataset {
  kspin::Graph graph;
  kspin::DocumentStore store;  ///< Objects 0..|O|-1, all live.
  std::uint32_t num_keywords = 0;
  double graph_seconds = 0.0;      ///< Road-network generation.
  double documents_seconds = 0.0;  ///< Keyword-catalogue generation.
};

/// Generates the US network and catalogue (deterministic; no seed input).
UsDataset GenerateUsDataset();

/// GenerateUsDataset, then throws CheckFailure unless its fingerprint is
/// the pinned one.
UsDataset LoadPinnedUsDataset();

Fingerprint ComputeFingerprint(const kspin::Graph& graph,
                               const kspin::DocumentStore& store);

/// The catalogue's name for keyword id t ("kw<t>"), used on the string
/// surfaces (PoiService, wire).
std::string KeywordName(kspin::KeywordId t);

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_DATASET_H_
