#include "inputs.h"

#include <algorithm>
#include <stdexcept>

#include "dataset.h"

namespace perfbench {
namespace {

// Popular-rank window the seed terms come from (rank 0, the stop-word-like
// top keyword, is skipped as in §7.1). Every rank in it drives the same
// number of queries of each kind, so seeds differ in the co-occurring
// keywords and vertices drawn, not in which terms dominate the mix.
constexpr std::size_t kSeedRankLo = 1;
constexpr std::size_t kSeedRankHi = 97;

std::uint64_t Draw(std::mt19937_64& rng, std::uint64_t n) { return rng() % n; }

}  // namespace

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kOr:
      return "or";
    case QueryKind::kAnd:
      return "and";
    case QueryKind::kTopK:
      return "topk";
  }
  return "?";
}

std::string Query::Text() const {
  const char* op = kind == QueryKind::kOr    ? " or "
                   : kind == QueryKind::kAnd ? " and "
                                             : " ";
  std::string text;
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    if (i > 0) text += op;
    text += KeywordName(keywords[i]);
  }
  return text;
}

CatalogModel::CatalogModel(const kspin::DocumentStore& store) {
  for (ObjectId o = 0; o < store.NumSlots(); ++o) {
    if (!store.IsLive(o)) {
      throw std::invalid_argument("CatalogModel: catalogue has a dead slot");
    }
    std::map<KeywordId, std::uint32_t> terms;
    for (const kspin::DocEntry& e : store.Document(o)) {
      terms[e.keyword] = e.frequency;
    }
    Insert(store.ObjectVertex(o), terms);
  }
}

std::size_t CatalogModel::ListSize(KeywordId t) const {
  const auto it = list_sizes_.find(t);
  return it == list_sizes_.end() ? 0 : it->second;
}

void CatalogModel::Count(KeywordId t, int delta) {
  std::size_t& size = list_sizes_[t];
  size = delta > 0 ? size + 1 : size - 1;
}

ObjectId CatalogModel::Insert(VertexId vertex,
                              const std::map<KeywordId, std::uint32_t>& terms) {
  const ObjectId o = static_cast<ObjectId>(docs_.size());
  docs_.push_back({vertex, terms, true});
  live_index_[o] = live_.size();
  live_.push_back(o);
  occupied_.insert(vertex);
  for (const auto& entry : terms) Count(entry.first, +1);
  return o;
}

void CatalogModel::Delete(ObjectId o) {
  Doc& doc = docs_.at(o);
  if (!doc.live) throw std::logic_error("CatalogModel: delete of dead object");
  for (const auto& entry : doc.terms) Count(entry.first, -1);
  doc.terms.clear();
  doc.live = false;
  occupied_.erase(doc.vertex);
  const std::size_t slot = live_index_.at(o);
  live_[slot] = live_.back();
  live_index_[live_[slot]] = slot;
  live_.pop_back();
  live_index_.erase(o);
}

void CatalogModel::AddKeyword(ObjectId o, KeywordId t) {
  Doc& doc = docs_.at(o);
  if (!doc.live || doc.terms.contains(t)) {
    throw std::logic_error("CatalogModel: bad keyword add");
  }
  doc.terms[t] = 1;
  Count(t, +1);
}

void CatalogModel::RemoveKeyword(ObjectId o, KeywordId t) {
  Doc& doc = docs_.at(o);
  if (!doc.live || doc.terms.erase(t) == 0) {
    throw std::logic_error("CatalogModel: bad keyword removal");
  }
  Count(t, -1);
}

std::vector<Query> MakeQueries(const CatalogModel& model,
                               std::size_t num_vertices, std::uint64_t seed,
                               std::size_t per_kind) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  // Keywords by descending live-list size (ties by id, so the ranking is
  // a function of the catalogue alone).
  std::map<KeywordId, std::size_t> sizes;
  for (ObjectId o : model.LiveObjects()) {
    for (const auto& entry : model.At(o).terms) ++sizes[entry.first];
  }
  std::vector<std::pair<std::size_t, KeywordId>> ranked;
  for (const auto& [t, size] : sizes) ranked.push_back({size, t});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const std::size_t hi = std::min(kSeedRankHi, ranked.size());
  if (hi <= kSeedRankLo) throw std::invalid_argument("MakeQueries: tiny catalogue");
  std::vector<KeywordId> seed_terms;
  for (std::size_t r = kSeedRankLo; r < hi; ++r) seed_terms.push_back(ranked[r].second);
  // Objects carrying each seed term and at least one other keyword.
  std::map<KeywordId, std::vector<ObjectId>> carriers;
  for (ObjectId o : model.LiveObjects()) {
    const auto& terms = model.At(o).terms;
    if (terms.size() < 2) continue;
    for (KeywordId t : seed_terms) {
      if (terms.contains(t)) carriers[t].push_back(o);
    }
  }

  std::vector<Query> queries;
  queries.reserve(kNumKinds * per_kind);
  for (std::size_t i = 0; i < kNumKinds * per_kind; ++i) {
    const KeywordId t = seed_terms[(i / kNumKinds) % seed_terms.size()];
    const std::vector<ObjectId>& objects = carriers[t];
    if (objects.empty()) throw std::invalid_argument("MakeQueries: lone term");
    KeywordId other = t;
    while (other == t) {  // A second keyword from one object carrying t.
      const auto& terms = model.At(objects[Draw(rng, objects.size())]).terms;
      auto it = terms.begin();
      std::advance(it, Draw(rng, terms.size()));
      other = it->first;
    }
    Query q;
    q.kind = static_cast<QueryKind>(i % kNumKinds);
    q.vertex = static_cast<VertexId>(Draw(rng, num_vertices));
    q.keywords = {t, other};
    queries.push_back(std::move(q));
  }
  return queries;
}

std::vector<std::string> WriteOp::InsertKeywords() const {
  std::vector<std::string> out;
  for (const auto& [t, f] : terms) {
    for (std::uint32_t i = 0; i < f; ++i) out.push_back(KeywordName(t));
  }
  return out;
}

namespace {

constexpr double kGoldenFraction = 0.6180339887498949;

/// Advances a low-discrepancy walk over [0, 1) and returns an index < n.
std::size_t Step(double* walk, std::size_t n) {
  *walk += kGoldenFraction;
  if (*walk >= 1.0) *walk -= 1.0;
  return std::min(n - 1, static_cast<std::size_t>(*walk * static_cast<double>(n)));
}

}  // namespace

WriteGenerator::WriteGenerator(std::uint64_t seed, std::size_t num_vertices,
                               const CatalogModel& initial)
    : rng_(seed * 0xD1B54A32D192ED03ULL + 29),
      num_vertices_(num_vertices),
      key_base_((seed + 1) << 32) {
  std::vector<std::pair<std::size_t, ObjectId>> cost;
  std::map<KeywordId, std::size_t> popularity;
  for (ObjectId o : initial.LiveObjects()) {
    std::size_t sum = 0;
    for (const auto& entry : initial.At(o).terms) {
      sum += initial.ListSize(entry.first);
      popularity[entry.first] = initial.ListSize(entry.first);
    }
    cost.push_back({sum, o});
  }
  std::sort(cost.begin(), cost.end());
  for (const auto& [sum, o] : cost) donors_.push_back(initial.At(o).terms);
  std::vector<std::pair<std::size_t, KeywordId>> ranked;
  for (const auto& [t, size] : popularity) ranked.push_back({size, t});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  // One entry per occurrence: updates add keywords as often as documents
  // carry them.
  for (const auto& [size, t] : ranked) keywords_.insert(keywords_.end(), size, t);
  if (donors_.empty() || keywords_.empty()) {
    throw std::invalid_argument("WriteGenerator: empty catalogue");
  }
  insert_walk_ = static_cast<double>(rng_() % 1000000) / 1e6;
  update_walk_ = static_cast<double>(rng_() % 1000000) / 1e6;
}

WriteOp WriteGenerator::Next(const CatalogModel& model) {
  const std::vector<ObjectId>& live = model.LiveObjects();
  if (live.size() < 2) throw std::logic_error("WriteGenerator: empty model");
  const auto random_live = [&] { return live[Draw(rng_, live.size())]; };
  WriteOp op;
  op.kind = static_cast<WriteKind>(count_ % WriteGenerator::kRoundSize);
  op.idempotency_key = key_base_ + ++count_;
  switch (op.kind) {
    case WriteKind::kInsert:
      do {
        op.vertex = static_cast<VertexId>(Draw(rng_, num_vertices_));
      } while (model.Occupied(op.vertex));
      op.terms = donors_[Step(&insert_walk_, donors_.size())];
      break;
    case WriteKind::kUpdate:
      // The next keyword on the walk, added to a live object lacking it.
      for (;;) {
        op.add = keywords_[Step(&update_walk_, keywords_.size())];
        for (int tries = 0; tries < 16; ++tries) {
          op.object = random_live();
          if (!model.At(op.object).terms.contains(op.add)) break;
        }
        if (model.At(op.object).terms.contains(op.add)) continue;
        const auto& terms = model.At(op.object).terms;
        if (terms.size() >= 2) {
          auto drop = terms.begin();
          std::advance(drop, Draw(rng_, terms.size()));
          op.remove = drop->first;
        }
        break;
      }
      break;
    case WriteKind::kDelete:
      op.object = random_live();
      break;
  }
  return op;
}

ObjectId ApplyToModel(CatalogModel& model, const WriteOp& op) {
  switch (op.kind) {
    case WriteKind::kInsert:
      return model.Insert(op.vertex, op.terms);
    case WriteKind::kUpdate:
      model.AddKeyword(op.object, op.add);
      if (op.remove != kspin::kInvalidKeyword) {
        model.RemoveKeyword(op.object, op.remove);
      }
      return op.object;
    case WriteKind::kDelete:
      model.Delete(op.object);
      return op.object;
  }
  return kspin::kInvalidObject;
}

}  // namespace perfbench
