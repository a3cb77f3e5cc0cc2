#ifndef HISTWALK_CORE_WALKER_H_
#define HISTWALK_CORE_WALKER_H_

#include <cstdint>
#include <string>

#include "access/node_access.h"
#include "graph/graph.h"
#include "util/random.h"
#include "util/status.h"

// The random-walk sampler interface.
//
// A Walker holds a position in the network and advances one transition per
// Step(), consuming queries only through the NodeAccess it was given. All
// samplers in this library — SRW, MHRW, NB-SRW and the paper's CNRW / GNRW
// family — implement this interface, which is exactly the paper's "drop-in
// replacement" requirement: estimators and experiment harnesses are written
// once against Walker and work with any sampler.

namespace histwalk::core {

// The stationary distribution a sampler converges to; estimators use it to
// unbias samples (section 2.2).
enum class StationaryBias {
  kDegreeProportional,  // pi(v) = deg(v) / 2|E|  (SRW, NB-SRW, CNRW, GNRW)
  kUniform,             // pi(v) = 1 / |V|        (MHRW)
};

class Walker {
 public:
  // `access` must outlive the walker. `seed` fully determines the walk.
  Walker(access::NodeAccess* access, uint64_t seed);
  virtual ~Walker() = default;

  Walker(const Walker&) = delete;
  Walker& operator=(const Walker&) = delete;

  // Places the walk at `start` and discards all per-walk history (previous
  // node, circulation state). Does not touch query accounting.
  virtual util::Status Reset(graph::NodeId start);

  // Performs one transition and returns the node the walk is at afterwards.
  // MHRW may remain in place (a rejected proposal is still a sample).
  // On error (exhausted budget, unknown node) the position is unchanged.
  //
  // Parking invariant, which every implementation must keep: a step makes
  // exactly one neighbor query, Neighbors(current()), and makes it FIRST —
  // before any RNG draw or state change. When that query parks on a
  // pending fetch (util::IsParked), Step returns the parked status with
  // nothing consumed, and calling Step again once the fetch landed takes
  // the identical step. The step scheduler (estimate::StepPool) relies on
  // this to unwind parked walkers instead of blocking a thread on them;
  // tests/walker_parking_test.cc checks it for every walker type.
  virtual util::Result<graph::NodeId> Step() = 0;

  // Current node, or graph::kInvalidNode before the first Reset().
  graph::NodeId current() const { return current_; }

  virtual std::string name() const = 0;
  virtual StationaryBias bias() const {
    return StationaryBias::kDegreeProportional;
  }

  // Approximate bytes of history bookkeeping (0 for memoryless walkers);
  // lets experiments report the O(K) space cost of section 3.3.
  virtual uint64_t HistoryBytes() const { return 0; }

  access::NodeAccess* access() const { return access_; }

 protected:
  access::NodeAccess* access_;
  util::Random rng_;
  graph::NodeId current_ = graph::kInvalidNode;
};

}  // namespace histwalk::core

#endif  // HISTWALK_CORE_WALKER_H_
