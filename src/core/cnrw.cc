#include "core/cnrw.h"

namespace histwalk::core {

util::Status CirculatedNeighborsWalk::Reset(graph::NodeId start) {
  HW_RETURN_IF_ERROR(Walker::Reset(start));
  previous_ = kNoPrevious;
  history_.Reset();
  return util::Status::Ok();
}

util::Result<graph::NodeId> CirculatedNeighborsWalk::Step() {
  if (current_ == graph::kInvalidNode) {
    return util::Status::FailedPrecondition("walker not reset");
  }
  HW_ASSIGN_OR_RETURN(auto neighbors, access_->Neighbors(current_));
  if (neighbors.empty()) {
    return util::Status::FailedPrecondition("walk reached isolated node");
  }

  graph::NodeId next;
  if (previous_ == kNoPrevious) {
    // No incoming edge yet: the first transition is a plain SRW step
    // (Algorithm 1 starts from a given x0 -> x1).
    next = neighbors[rng_.UniformIndex(neighbors.size())];
  } else {
    next = history_.Draw(EdgeKey(previous_, current_), neighbors, rng_);
  }
  previous_ = current_;
  current_ = next;
  return current_;
}

util::Status NodeCirculatedWalk::Reset(graph::NodeId start) {
  HW_RETURN_IF_ERROR(Walker::Reset(start));
  history_.Reset();
  return util::Status::Ok();
}

util::Result<graph::NodeId> NodeCirculatedWalk::Step() {
  if (current_ == graph::kInvalidNode) {
    return util::Status::FailedPrecondition("walker not reset");
  }
  HW_ASSIGN_OR_RETURN(auto neighbors, access_->Neighbors(current_));
  if (neighbors.empty()) {
    return util::Status::FailedPrecondition("walk reached isolated node");
  }
  // History keyed on the node alone (section 3.2's rejected alternative).
  current_ = history_.Draw(current_, neighbors, rng_);
  return current_;
}

util::Status NonBacktrackingCirculatedWalk::Reset(graph::NodeId start) {
  HW_RETURN_IF_ERROR(Walker::Reset(start));
  previous_ = kNoPrevious;
  history_.Reset();
  return util::Status::Ok();
}

util::Result<graph::NodeId> NonBacktrackingCirculatedWalk::Step() {
  if (current_ == graph::kInvalidNode) {
    return util::Status::FailedPrecondition("walker not reset");
  }
  HW_ASSIGN_OR_RETURN(auto neighbors, access_->Neighbors(current_));
  if (neighbors.empty()) {
    return util::Status::FailedPrecondition("walk reached isolated node");
  }

  graph::NodeId next;
  if (previous_ == kNoPrevious) {
    next = neighbors[rng_.UniformIndex(neighbors.size())];
  } else if (neighbors.size() == 1) {
    next = neighbors[0];  // forced backtrack at a dead end
  } else {
    // Candidates are N(v) \ {u} — the NB-SRW support (section 5).
    next = history_.Draw(EdgeKey(previous_, current_), neighbors, rng_,
                         /*excluded=*/previous_);
  }
  previous_ = current_;
  current_ = next;
  return current_;
}

}  // namespace histwalk::core
