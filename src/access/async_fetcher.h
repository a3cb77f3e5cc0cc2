#ifndef HISTWALK_ACCESS_ASYNC_FETCHER_H_
#define HISTWALK_ACCESS_ASYNC_FETCHER_H_

#include <optional>

#include "access/history_cache.h"
#include "graph/graph.h"
#include "util/status.h"

// Seam between the access layer and the client that resolves cache misses.
//
// Every SharedAccess view resolves its misses through one AsyncFetcher,
// handed to it at SharedAccessGroup::MakeView. The implementation is
// net::RequestPipeline, in every execution mode: at depth 0 the caller
// that creates a fetch runs it on its own thread, at depth D the fetches
// are batched and at most D batches are on the wire at once. Either way,
// concurrent misses on one node share a single fetch (singleflight) and a
// single charge.
//
// Fetches need not block the walker. Under a step scheduler
// (estimate::StepPool) a miss calls FetchOrPark: when the answer is not
// available at once, the walker PARKS on the pending fetch — its step
// unwinds and the stepper thread moves on to another walker — and the
// thread that completes the fetch hands the outcome to the walker's
// FetchWaiter, which puts the walker back on the ready queue. Idle steppers
// call RunQueuedBatch to carry the queued fetches themselves, so the
// resolver needs no threads of its own. FetchShared, the blocking form,
// remains for callers outside a scheduler.

namespace histwalk::access {

class FetchWaiter;

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
  // none is already in flight. Blocks until the response lands (running
  // queued batches while it waits). Fails with kBudgetExhausted when the
  // group's fetch budget refuses the wire request. Thread-safe.
  virtual util::Result<Fetched> FetchShared(graph::NodeId v) = 0;

  // The non-blocking form: returns the outcome when it is available at
  // once (a late cache hit, or a fetch resolved on this thread at depth 0),
  // else parks `waiter` on the pending fetch and returns nullopt; the
  // waiter's OnFetched then runs exactly once, on the thread that completes
  // the fetch — possibly before this call returns. Same outcomes and
  // accounting as FetchShared. Thread-safe.
  virtual std::optional<util::Result<Fetched>> FetchOrPark(
      graph::NodeId v, FetchWaiter* waiter) = 0;

  // Carries one queued batch to the wire on the calling thread and
  // delivers its replies. False when nothing is queued or the in-flight
  // bound is reached. The hook idle steppers drain the resolver through.
  virtual bool RunQueuedBatch() = 0;
};

// Where a parked fetch's outcome lands.
class FetchWaiter {
 public:
  // The outcome of the fetch this waiter parked on. Called exactly once
  // per FetchOrPark that returned nullopt, by the thread that completed
  // the fetch, with no resolver lock held.
  virtual void OnFetched(util::Result<AsyncFetcher::Fetched> fetched) = 0;

 protected:
  ~FetchWaiter() = default;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_ASYNC_FETCHER_H_
