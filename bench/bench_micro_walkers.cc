// Microbenchmarks (M1): per-step cost and history footprint of every
// sampler, backing the O(1) amortized time / O(K) space claims of
// sections 3.3 and 4.2. google-benchmark binary; runs all benchmarks by
// default.

#include <benchmark/benchmark.h>

#include <memory>

#include "access/graph_access.h"
#include "attr/grouping.h"
#include "core/walker_factory.h"
#include "experiment/datasets.h"

namespace {

using namespace histwalk;

// Shared fixture graph: the facebook surrogate (775 nodes, avg degree 36).
const experiment::Dataset& FixtureDataset() {
  static const experiment::Dataset* dataset = new experiment::Dataset(
      experiment::BuildDataset(experiment::DatasetId::kFacebook));
  return *dataset;
}

const attr::Grouping& FixtureGrouping() {
  static const std::unique_ptr<attr::Grouping>* grouping =
      new std::unique_ptr<attr::Grouping>(
          attr::MakeDegreeGrouping(FixtureDataset().graph, 4));
  return **grouping;
}

void BM_WalkerStep(benchmark::State& state, core::WalkerType type) {
  const experiment::Dataset& dataset = FixtureDataset();
  access::GraphAccess access(&dataset.graph, &dataset.attributes, {});
  core::WalkerSpec spec{.type = type, .grouping = &FixtureGrouping()};
  auto walker = core::MakeWalker(spec, &access, 42);
  if (!walker.ok() || !(*walker)->Reset(0).ok()) {
    state.SkipWithError("walker setup failed");
    return;
  }
  for (auto _ : state) {
    auto next = (*walker)->Step();
    if (!next.ok()) {
      state.SkipWithError("step failed");
      return;
    }
    benchmark::DoNotOptimize(*next);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["history_bytes"] =
      static_cast<double>((*walker)->HistoryBytes());
}

BENCHMARK_CAPTURE(BM_WalkerStep, SRW, core::WalkerType::kSrw);
BENCHMARK_CAPTURE(BM_WalkerStep, MHRW, core::WalkerType::kMhrw);
BENCHMARK_CAPTURE(BM_WalkerStep, NB_SRW, core::WalkerType::kNbSrw);
BENCHMARK_CAPTURE(BM_WalkerStep, CNRW, core::WalkerType::kCnrw);
BENCHMARK_CAPTURE(BM_WalkerStep, CNRW_node, core::WalkerType::kCnrwNode);
BENCHMARK_CAPTURE(BM_WalkerStep, NB_CNRW, core::WalkerType::kNbCnrw);
BENCHMARK_CAPTURE(BM_WalkerStep, GNRW, core::WalkerType::kGnrw);

// History growth: bytes of circulation state after K steps (the O(K)
// space claim). Reported as the history_bytes counter at each K.
void BM_CnrwHistoryGrowth(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  const uint64_t steps = static_cast<uint64_t>(state.range(0));
  uint64_t bytes = 0;
  for (auto _ : state) {
    access::GraphAccess access(&dataset.graph, &dataset.attributes, {});
    auto walker = core::MakeWalker({.type = core::WalkerType::kCnrw},
                                   &access, 42);
    if (!walker.ok() || !(*walker)->Reset(0).ok()) {
      state.SkipWithError("walker setup failed");
      return;
    }
    for (uint64_t i = 0; i < steps; ++i) {
      auto next = (*walker)->Step();
      benchmark::DoNotOptimize(next.ok());
    }
    bytes = (*walker)->HistoryBytes();
  }
  state.counters["history_bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_step"] =
      static_cast<double>(bytes) / static_cast<double>(steps);
}

BENCHMARK(BM_CnrwHistoryGrowth)->Arg(1000)->Arg(10000)->Arg(100000);

// A fresh walk per iteration: construct a CNRW walker, take N steps,
// destroy it. Unlike BM_WalkerStep, which reuses one walker whose history
// has long stopped growing, every step here may add a circulation state,
// and the teardown is timed too; with several threads, their allocator
// traffic contends. Diagnostic only: rates use real time.
void BM_CnrwFreshWalk(benchmark::State& state) {
  const experiment::Dataset& dataset = FixtureDataset();
  const uint64_t steps = static_cast<uint64_t>(state.range(0));
  uint64_t seed = 1000 * static_cast<uint64_t>(state.thread_index());
  for (auto _ : state) {
    access::GraphAccess access(&dataset.graph, &dataset.attributes, {});
    auto walker = core::MakeWalker({.type = core::WalkerType::kCnrw},
                                   &access, ++seed);
    if (!walker.ok() || !(*walker)->Reset(0).ok()) {
      state.SkipWithError("walker setup failed");
      return;
    }
    for (uint64_t i = 0; i < steps; ++i) {
      auto next = (*walker)->Step();
      benchmark::DoNotOptimize(next.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(steps));
}

BENCHMARK(BM_CnrwFreshWalk)
    ->Arg(10000)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
