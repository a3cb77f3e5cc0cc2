#ifndef HISTWALK_CORE_WALKER_FACTORY_H_
#define HISTWALK_CORE_WALKER_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "access/shared_access.h"
#include "attr/grouping.h"
#include "core/walker.h"

// Uniform construction of every sampler in the library; experiment configs
// hold WalkerSpecs so a single harness can sweep all algorithms.

namespace histwalk::core {

enum class WalkerType {
  kSrw,       // Simple Random Walk (baseline)
  kMhrw,      // Metropolis-Hastings Random Walk
  kNbSrw,     // Non-backtracking SRW (order-2 state of the art)
  kCnrw,      // Circulated Neighbors RW (this paper)
  kCnrwNode,  // node-based circulation (section 3.2 ablation)
  kNbCnrw,    // CNRW on top of NB-SRW (section 5)
  kGnrw,      // GroupBy Neighbors RW (this paper); requires a grouping
};

// Stable display name ("SRW", "CNRW", ...).
std::string WalkerTypeName(WalkerType type);

struct WalkerSpec {
  WalkerType type = WalkerType::kSrw;
  // Required for kGnrw, ignored otherwise; must outlive created walkers.
  const attr::Grouping* grouping = nullptr;
  // Optional display-name override for reports.
  std::string label;

  std::string DisplayName() const;
};

// Creates a walker bound to `access`; `seed` fully determines its draws.
util::Result<std::unique_ptr<Walker>> MakeWalker(const WalkerSpec& spec,
                                                 access::NodeAccess* access,
                                                 uint64_t seed);

// One member of a concurrent ensemble: a per-walker view of the shared
// history plus the walker bound to it (the view must outlive the walker,
// so they travel together).
struct EnsembleMember {
  std::unique_ptr<access::SharedAccess> access;
  std::unique_ptr<Walker> walker;
};

// Mints `count` members drawing from `group`'s shared cache, resolving
// misses through `resolver`. Member i's walker is seeded with
// SubSeed(seed, i), so the ensemble is reproducible bit-for-bit regardless
// of how members are later scheduled onto threads. `group` and `resolver`
// must outlive the members.
util::Result<std::vector<EnsembleMember>> MakeEnsemble(
    const WalkerSpec& spec, access::SharedAccessGroup& group,
    access::AsyncFetcher& resolver, uint32_t count, uint64_t seed);

}  // namespace histwalk::core

#endif  // HISTWALK_CORE_WALKER_FACTORY_H_
