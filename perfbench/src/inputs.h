// Everything the benchmark feeds the program, generated from --seed: the
// query list (paper §7.1: correlated 2-term keyword vectors, uniform query
// vertices, k = 10), the write sequence, and the benchmark's own model of
// the live catalogue that the answer checker reads.
#ifndef KSPIN_PERFBENCH_INPUTS_H_
#define KSPIN_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "text/document_store.h"

namespace perfbench {

using kspin::KeywordId;
using kspin::ObjectId;
using kspin::VertexId;

enum class QueryKind { kOr = 0, kAnd = 1, kTopK = 2 };
inline constexpr int kNumKinds = 3;
const char* KindName(QueryKind kind);  // "or", "and", "topk"

struct Query {
  QueryKind kind = QueryKind::kOr;
  VertexId vertex = kspin::kInvalidVertex;
  std::vector<KeywordId> keywords;  ///< Two distinct keywords.
  std::uint32_t k = 10;

  /// The string form the service and the wire take: "kwA or kwB",
  /// "kwA and kwB", or ranked "kwA kwB".
  std::string Text() const;
};

/// The benchmark's copy of the live catalogue (documents keyed by the
/// dataset's keyword ids), updated with every acknowledged write.
class CatalogModel {
 public:
  struct Doc {
    VertexId vertex = kspin::kInvalidVertex;
    std::map<KeywordId, std::uint32_t> terms;  ///< keyword -> f_{t,o}.
    bool live = false;
  };

  explicit CatalogModel(const kspin::DocumentStore& store);

  std::size_t NumSlots() const { return docs_.size(); }
  std::size_t NumLive() const { return live_.size(); }
  const Doc& At(ObjectId o) const { return docs_[o]; }
  bool IsLive(ObjectId o) const { return o < docs_.size() && docs_[o].live; }
  /// |inv(t)| over live documents.
  std::size_t ListSize(KeywordId t) const;
  const std::vector<ObjectId>& LiveObjects() const { return live_; }
  bool Occupied(VertexId v) const { return occupied_.contains(v); }

  /// Returns the new object's id (the next slot, as the store assigns).
  ObjectId Insert(VertexId vertex,
                  const std::map<KeywordId, std::uint32_t>& terms);
  void Delete(ObjectId o);
  void AddKeyword(ObjectId o, KeywordId t);
  void RemoveKeyword(ObjectId o, KeywordId t);

 private:
  void Count(KeywordId t, int delta);

  std::vector<Doc> docs_;
  std::vector<ObjectId> live_;
  std::unordered_map<ObjectId, std::size_t> live_index_;
  std::unordered_map<KeywordId, std::size_t> list_sizes_;
  std::unordered_set<VertexId> occupied_;
};

/// Draws `per_kind` queries of each kind, interleaved or/and/topk, from
/// `seed`. Keyword vectors follow §7.1: a seed term from the popular
/// ranks (each rank drives an equal share of the list), extended by a
/// keyword co-occurring in one object containing it.
std::vector<Query> MakeQueries(const CatalogModel& model,
                               std::size_t num_vertices, std::uint64_t seed,
                               std::size_t per_kind);

enum class WriteKind { kInsert = 0, kUpdate = 1, kDelete = 2 };

struct WriteOp {
  WriteKind kind = WriteKind::kInsert;
  std::uint64_t idempotency_key = 0;  ///< Unique per operation.
  VertexId vertex = kspin::kInvalidVertex;            ///< Insert.
  std::map<KeywordId, std::uint32_t> terms;          ///< Insert.
  ObjectId object = kspin::kInvalidObject;           ///< Update, delete.
  KeywordId add = kspin::kInvalidKeyword;            ///< Update.
  KeywordId remove = kspin::kInvalidKeyword;         ///< Update (optional).

  /// Insert keywords as strings, each repeated f times (the store merges
  /// repeats into frequencies).
  std::vector<std::string> InsertKeywords() const;
};

/// The seeded write sequence. It runs in rounds of insert, update,
/// delete, so the live catalogue keeps its size. Each op is drawn
/// against the model's current state, so the sequence is a function of
/// the seed alone as long as every write is acknowledged.
///
/// What a write costs depends mostly on how popular its keywords are, so
/// the costly choices are stratified: inserts copy documents of the
/// initial catalogue, and updates add keywords (weighted by how many
/// documents carry them), taken along a seeded low-discrepancy walk over
/// those sorted by popularity. Any run length then covers the cost range
/// evenly; the seed picks objects, vertices and the walks' offsets.
class WriteGenerator {
 public:
  static constexpr std::size_t kRoundSize = 3;

  WriteGenerator(std::uint64_t seed, std::size_t num_vertices,
                 const CatalogModel& initial);
  WriteOp Next(const CatalogModel& model);

 private:
  std::mt19937_64 rng_;
  std::size_t num_vertices_;
  std::uint64_t key_base_;
  std::uint64_t count_ = 0;
  /// Initial documents, by ascending summed keyword popularity.
  std::vector<std::map<KeywordId, std::uint32_t>> donors_;
  /// Keyword occurrences by descending popularity.
  std::vector<KeywordId> keywords_;
  double insert_walk_ = 0.0;
  double update_walk_ = 0.0;
};

/// Applies an acknowledged write to the model; returns the affected
/// object (the new id for an insert).
ObjectId ApplyToModel(CatalogModel& model, const WriteOp& op);

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_INPUTS_H_
