#ifndef HISTWALK_ACCESS_HISTORY_TIER_H_
#define HISTWALK_ACCESS_HISTORY_TIER_H_

#include "access/history_cache.h"
#include "graph/graph.h"

// A read-through second history tier: memory cache -> tier -> wire.
//
// Warm start (store::HistoryStore::LoadInto) front-loads the ENTIRE
// durable history into the bounded memory cache; with a history larger
// than the cache that both thrashes the cache and forgets the overflow.
// Serving the store's contents as a TIER instead keeps the bounded
// cache demand-filled: a miss probes the tier before touching the wire,
// and a tier hit is promoted into the memory cache WITHOUT journaling
// (the record is already durable) and without charging the fetch budget —
// history is free, which is the paper's whole point. The obs registry
// counts these promotions as hw_access_store_hits_total, the middle term
// of the wire-attribution identity
//     misses == wire_fetches + singleflight_joins + store_hits
//             + budget_refusals + fetch_errors.

namespace histwalk::access {

class HistoryTier {
 public:
  virtual ~HistoryTier() = default;
  // Pinned handle for v's neighbor list, or null when this tier does not
  // hold it. Must be thread-safe: called from walker threads on the miss
  // path.
  virtual HistoryCache::Entry Lookup(graph::NodeId v) = 0;
};

// An unbounded in-memory tier backed by its own HistoryCache — load a
// snapshot into cache() (store::HistoryStore::LoadInto) and build the group
// with it (SharedAccessOptions::tier). SamplerBuilder::WithStoreReadTier
// wires exactly this.
class CacheTier final : public HistoryTier {
 public:
  explicit CacheTier(HistoryCacheOptions options = {}) : cache_(options) {}

  HistoryCache& cache() { return cache_; }
  const HistoryCache& cache() const { return cache_; }

  HistoryCache::Entry Lookup(graph::NodeId v) override {
    return cache_.Get(v);
  }

 private:
  HistoryCache cache_;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_HISTORY_TIER_H_
