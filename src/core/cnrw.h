#ifndef HISTWALK_CORE_CNRW_H_
#define HISTWALK_CORE_CNRW_H_

#include "core/circulation.h"
#include "core/walker.h"

// Circulated Neighbors Random Walk (CNRW) — the paper's first contribution
// (section 3) — plus the two design variants the paper discusses:
//
//  * CirculatedNeighborsWalk     edge-based circulation, the published
//                                algorithm. Given the incoming transition
//                                u -> v, the next node is drawn uniformly
//                                WITHOUT replacement from N(v) until every
//                                neighbor has been tried once (Algorithm 1).
//                                Same stationary distribution as SRW
//                                (Theorem 1), asymptotic variance no worse
//                                (Theorem 2).
//
//  * NodeCirculatedWalk          the node-based alternative of section 3.2:
//                                circulation keyed on v alone, ignoring the
//                                incoming edge. The paper rejects this
//                                design because node recurrences are much
//                                more frequent than edge recurrences, so the
//                                per-key path blocks are shorter and less
//                                exchangeable, weakening the stratification
//                                argument behind Theorem 2 (the long-run
//                                visit frequencies still balance to
//                                deg(v)/2|E|). Implemented for the A1
//                                ablation bench.
//
//  * NonBacktrackingCirculatedWalk  the section 5 carry-over: CNRW applied
//                                on top of NB-SRW, circulating over
//                                N(v) \ {u} per incoming edge u -> v.

namespace histwalk::core {

class CirculatedNeighborsWalk final : public Walker {
 public:
  CirculatedNeighborsWalk(access::NodeAccess* access, uint64_t seed)
      : Walker(access, seed) {}

  util::Status Reset(graph::NodeId start) override;
  util::Result<graph::NodeId> Step() override;
  std::string name() const override { return "CNRW"; }
  uint64_t HistoryBytes() const override {
    return history_.MemoryBytes();
  }

 private:
  graph::NodeId previous_ = kNoPrevious;
  CirculationTable history_;  // (u -> v) => circulation over N(v)
};

class NodeCirculatedWalk final : public Walker {
 public:
  NodeCirculatedWalk(access::NodeAccess* access, uint64_t seed)
      : Walker(access, seed) {}

  util::Status Reset(graph::NodeId start) override;
  util::Result<graph::NodeId> Step() override;
  std::string name() const override { return "CNRW-node"; }
  uint64_t HistoryBytes() const override {
    return history_.MemoryBytes();
  }

 private:
  CirculationTable history_;  // v => circulation over N(v)
};

class NonBacktrackingCirculatedWalk final : public Walker {
 public:
  NonBacktrackingCirculatedWalk(access::NodeAccess* access, uint64_t seed)
      : Walker(access, seed) {}

  util::Status Reset(graph::NodeId start) override;
  util::Result<graph::NodeId> Step() override;
  std::string name() const override { return "NB-CNRW"; }
  uint64_t HistoryBytes() const override {
    return history_.MemoryBytes();
  }

 private:
  graph::NodeId previous_ = kNoPrevious;
  CirculationTable history_;  // (u -> v) => circulation over N(v) \ {u}
};

}  // namespace histwalk::core

#endif  // HISTWALK_CORE_CNRW_H_
