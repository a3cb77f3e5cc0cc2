#ifndef HISTWALK_EXPERIMENT_LATENCY_CURVE_H_
#define HISTWALK_EXPERIMENT_LATENCY_CURVE_H_

#include <string>
#include <vector>

#include "core/walker_factory.h"
#include "experiment/datasets.h"
#include "experiment/error_curve.h"
#include "net/latency_model.h"
#include "net/request_pipeline.h"
#include "util/table.h"

// The wall-clock experiment: estimation error against SIMULATED CRAWL TIME
// rather than charged queries — the axis a real crawler lives on.
//
// For each (pipeline depth, ensemble size) the harness wraps the dataset in
// a net::RemoteBackend (seeded latency model, `depth` wire slots), runs an
// ensemble through a RequestPipeline of the same depth,
// and records the estimate's relative error, the simulated wall-clock the
// crawl took, the service-billed query count, and the pipeline's wire
// traffic. Because the merged traces are bit-identical across depths (the
// runner's contract), error is constant along a depth sweep while
// wall-clock falls — the curve isolates exactly what overlapping and
// batching buy, with the statistical quality held fixed.

namespace histwalk::experiment {

struct LatencyCurveConfig {
  core::WalkerSpec walker;
  std::vector<uint32_t> pipeline_depths = {1, 2, 4, 8};
  std::vector<uint32_t> ensemble_sizes = {8};
  uint64_t steps_per_walker = 500;
  uint32_t max_batch = 8;
  uint64_t cache_capacity = 0;
  uint32_t cache_shards = 8;
  uint32_t trials = 5;
  uint64_t seed = 1;
  // Per-trial latency seeds derive from `seed`; the other fields (base
  // latency, jitter, per-item cost, rate limit) are taken as-is.
  // max_in_flight is overridden by the swept pipeline depth.
  net::LatencyModelOptions latency;
  EstimandSpec estimand;
};

// One (depth, ensemble size) cell, averaged over trials.
struct LatencyCurvePoint {
  uint32_t pipeline_depth = 0;
  uint32_t ensemble_size = 0;
  double mean_relative_error = 0.0;
  double mean_sim_wall_seconds = 0.0;
  double mean_charged_queries = 0.0;
  double mean_wire_requests = 0.0;
  double mean_batch_size = 0.0;
  double mean_dedup_joins = 0.0;
  // mean_sim_wall_seconds of the FIRST swept depth's cell with the same
  // ensemble size, divided by this cell's — the overlap+batching speedup.
  // Put depth 1 first in pipeline_depths (the default) to read this as a
  // true vs-serial speedup.
  double speedup_vs_baseline = 1.0;
};

struct LatencyCurveResult {
  std::string dataset_name;
  std::string walker_name;
  std::string estimand_name;
  double ground_truth = 0.0;
  // Row-major over (ensemble_sizes x pipeline_depths), depth fastest.
  std::vector<LatencyCurvePoint> points;
};

LatencyCurveResult RunLatencyCurve(const Dataset& dataset,
                                   const LatencyCurveConfig& config);

// depth/size rows with error, sim wall-clock, speedup and wire columns.
util::TextTable LatencyCurveTable(const LatencyCurveResult& result);

}  // namespace histwalk::experiment

#endif  // HISTWALK_EXPERIMENT_LATENCY_CURVE_H_
