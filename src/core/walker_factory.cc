#include "core/walker_factory.h"

#include "util/random.h"

#include "core/cnrw.h"
#include "core/gnrw.h"
#include "core/metropolis_hastings_walk.h"
#include "core/non_backtracking_walk.h"
#include "core/simple_random_walk.h"

namespace histwalk::core {

std::string WalkerTypeName(WalkerType type) {
  switch (type) {
    case WalkerType::kSrw:
      return "SRW";
    case WalkerType::kMhrw:
      return "MHRW";
    case WalkerType::kNbSrw:
      return "NB-SRW";
    case WalkerType::kCnrw:
      return "CNRW";
    case WalkerType::kCnrwNode:
      return "CNRW-node";
    case WalkerType::kNbCnrw:
      return "NB-CNRW";
    case WalkerType::kGnrw:
      return "GNRW";
  }
  return "unknown";
}

std::string WalkerSpec::DisplayName() const {
  if (!label.empty()) return label;
  if (type == WalkerType::kGnrw && grouping != nullptr) {
    return "GNRW(" + grouping->name() + ")";
  }
  return WalkerTypeName(type);
}

util::Result<std::unique_ptr<Walker>> MakeWalker(const WalkerSpec& spec,
                                                 access::NodeAccess* access,
                                                 uint64_t seed) {
  if (access == nullptr) {
    return util::Status::InvalidArgument("access must not be null");
  }
  switch (spec.type) {
    case WalkerType::kSrw:
      return std::unique_ptr<Walker>(new SimpleRandomWalk(access, seed));
    case WalkerType::kMhrw:
      return std::unique_ptr<Walker>(
          new MetropolisHastingsWalk(access, seed));
    case WalkerType::kNbSrw:
      return std::unique_ptr<Walker>(new NonBacktrackingWalk(access, seed));
    case WalkerType::kCnrw:
      return std::unique_ptr<Walker>(
          new CirculatedNeighborsWalk(access, seed));
    case WalkerType::kCnrwNode:
      return std::unique_ptr<Walker>(new NodeCirculatedWalk(access, seed));
    case WalkerType::kNbCnrw:
      return std::unique_ptr<Walker>(
          new NonBacktrackingCirculatedWalk(access, seed));
    case WalkerType::kGnrw:
      if (spec.grouping == nullptr) {
        return util::Status::InvalidArgument("GNRW requires a grouping");
      }
      return std::unique_ptr<Walker>(
          new GroupbyNeighborsWalk(access, spec.grouping, seed));
  }
  return util::Status::InvalidArgument("unknown walker type");
}

util::Result<std::vector<EnsembleMember>> MakeEnsemble(
    const WalkerSpec& spec, access::SharedAccessGroup& group,
    access::AsyncFetcher& resolver, uint32_t count, uint64_t seed) {
  if (count == 0) {
    return util::Status::InvalidArgument("ensemble needs at least one walker");
  }
  std::vector<EnsembleMember> members;
  members.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EnsembleMember member;
    member.access = group.MakeView(resolver);
    HW_ASSIGN_OR_RETURN(member.walker,
                        MakeWalker(spec, member.access.get(),
                                   util::SubSeed(seed, i)));
    members.push_back(std::move(member));
  }
  return members;
}

}  // namespace histwalk::core
