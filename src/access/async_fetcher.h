#ifndef HISTWALK_ACCESS_ASYNC_FETCHER_H_
#define HISTWALK_ACCESS_ASYNC_FETCHER_H_

#include "access/history_cache.h"
#include "graph/graph.h"
#include "util/status.h"

// Seam between the access layer and the client that resolves cache misses.
//
// Every SharedAccess view resolves its misses through one AsyncFetcher,
// handed to it at SharedAccessGroup::MakeView. The implementation is
// net::RequestPipeline, in every execution mode: at depth 0 the caller
// that creates a fetch runs it on its own thread, at depth D worker
// threads batch and pipeline the fetches. Either way, concurrent misses on
// one node share a single fetch (singleflight) and a single charge. The
// call blocks from the walker's point of view — a walker cannot take its
// next step without the neighbor list — but while one walker waits, the
// other walkers' outstanding requests keep moving instead of each one
// paying a full round trip alone.

namespace histwalk::access {

class AsyncFetcher {
 public:
  struct Fetched {
    // The response, already resident in the shared cache. Non-null.
    HistoryCache::Entry entry;
    // True when THIS call triggered the wire fetch; false when it joined a
    // request already in flight (singleflight) or was answered by the
    // cache. Feeds SharedAccess::charged_fetches() accounting.
    bool charged_this_call = false;
  };

  virtual ~AsyncFetcher() = default;

  // Returns the neighbor response for `v`, issuing a backend fetch only if
  // none is already in flight. Blocks until the response lands. Fails with
  // kBudgetExhausted when the group's fetch budget refuses the wire
  // request. Thread-safe.
  virtual util::Result<Fetched> FetchShared(graph::NodeId v) = 0;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_ASYNC_FETCHER_H_
