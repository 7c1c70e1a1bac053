// Timing and counting decorators around the engine's two pluggable
// modules. The traced engine pass hands these to a QueryProcessor it
// builds itself, so the Network Distance Module's and the Lower Bounding
// Module's share of each query is measured from outside the engine.
// Single-threaded: one decorated processor runs at a time.
#ifndef KSPIN_PERFBENCH_DECORATORS_H_
#define KSPIN_PERFBENCH_DECORATORS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "routing/distance_oracle.h"
#include "routing/lower_bound.h"

namespace perfbench {

struct ModuleTotals {
  std::uint64_t calls = 0;  ///< Calls into the wrapped module.
  std::uint64_t ns = 0;     ///< Time inside the wrapped module.
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class CountingOracle : public kspin::DistanceOracle {
 public:
  explicit CountingOracle(const kspin::DistanceOracle& inner) : inner_(inner) {}

  std::unique_ptr<kspin::OracleWorkspace> MakeWorkspace() const override {
    return inner_.MakeWorkspace();
  }
  kspin::Distance NetworkDistance(kspin::OracleWorkspace& workspace,
                                  kspin::VertexId s,
                                  kspin::VertexId t) const override {
    const std::uint64_t start = NowNs();
    const kspin::Distance d = inner_.NetworkDistance(workspace, s, t);
    totals_.ns += NowNs() - start;
    ++totals_.calls;
    return d;
  }
  void BeginSourceBatch(kspin::OracleWorkspace& workspace,
                        kspin::VertexId source) const override {
    const std::uint64_t start = NowNs();
    inner_.BeginSourceBatch(workspace, source);
    totals_.ns += NowNs() - start;
  }
  std::string Name() const override { return "counting(" + inner_.Name() + ")"; }
  std::size_t MemoryBytes() const override { return inner_.MemoryBytes(); }

  const ModuleTotals& Totals() const { return totals_; }

 private:
  const kspin::DistanceOracle& inner_;
  mutable ModuleTotals totals_;
};

class CountingLowerBound : public kspin::LowerBoundModule {
 public:
  explicit CountingLowerBound(const kspin::LowerBoundModule& inner)
      : inner_(inner) {}

  kspin::Distance LowerBound(kspin::VertexId s,
                             kspin::VertexId t) const override {
    const std::uint64_t start = NowNs();
    const kspin::Distance d = inner_.LowerBound(s, t);
    totals_.ns += NowNs() - start;
    ++totals_.calls;
    return d;
  }
  void LowerBoundBatch(kspin::VertexId s,
                       std::span<const kspin::VertexId> targets,
                       std::span<kspin::Distance> out) const override {
    const std::uint64_t start = NowNs();
    inner_.LowerBoundBatch(s, targets, out);
    totals_.ns += NowNs() - start;
    ++totals_.calls;
  }
  std::string Name() const override { return "counting(" + inner_.Name() + ")"; }
  std::size_t MemoryBytes() const override { return inner_.MemoryBytes(); }

  const ModuleTotals& Totals() const { return totals_; }

 private:
  const kspin::LowerBoundModule& inner_;
  mutable ModuleTotals totals_;
};

}  // namespace perfbench

#endif  // KSPIN_PERFBENCH_DECORATORS_H_
