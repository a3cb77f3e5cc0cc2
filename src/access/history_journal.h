#ifndef HISTWALK_ACCESS_HISTORY_JOURNAL_H_
#define HISTWALK_ACCESS_HISTORY_JOURNAL_H_

#include <span>

#include "access/history_cache.h"
#include "graph/graph.h"

// Observer seam for durable history: the access layer announces every NEW
// neighbor-list insertion into a shared HistoryCache, and a journal
// implementation (store::HistoryStore) makes it durable — append it to a
// write-ahead log, fold the cache into a snapshot when the log grows past
// its checkpoint threshold, and so on.
//
// Mirrors the AsyncFetcher seam: the interface lives in access/ so that
// SharedAccessGroup and net::RequestPipeline can notify it without the
// access layer depending on store/ (store depends on access, never the
// reverse).

namespace histwalk::access {

class HistoryJournal {
 public:
  virtual ~HistoryJournal() = default;

  // Called once per entry that was genuinely inserted into `cache` (never
  // for a Put() that found the id resident), AFTER the insert — the cache
  // is authoritative, the journal trails it. `cache` is the cache the entry
  // landed in, handed through so checkpoint-style implementations can fold
  // it into a snapshot without holding their own pointer. Must be
  // thread-safe: the threads carrying pipeline batches insert
  // concurrently. Must not call back into the access layer's miss paths.
  virtual void OnCacheInsert(graph::NodeId v,
                             std::span<const graph::NodeId> neighbors,
                             HistoryCache& cache) = 0;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_HISTORY_JOURNAL_H_
