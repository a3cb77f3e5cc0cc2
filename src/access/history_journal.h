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

  // Called once per landed batch, AFTER the whole batch is in `cache` —
  // the cache is authoritative, the journal trails it. `inserted[i]` says
  // whether `entries[i]` was genuinely inserted (false when the id was
  // already resident); only inserted entries are journaled, in batch
  // order. `cache` is the cache the entries landed in, handed through so
  // checkpoint-style implementations can fold it into a snapshot without
  // holding their own pointer. Must be thread-safe: the threads carrying
  // pipeline batches land them concurrently. Must not call back into the
  // access layer's miss paths.
  virtual void OnCacheInsertBatch(
      std::span<const HistoryCache::ImportEntry> entries,
      const bool* inserted, HistoryCache& cache) = 0;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_HISTORY_JOURNAL_H_
