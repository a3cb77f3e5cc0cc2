#ifndef HISTWALK_ACCESS_SHARED_ACCESS_H_
#define HISTWALK_ACCESS_SHARED_ACCESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "access/async_fetcher.h"
#include "access/backend.h"
#include "access/history_cache.h"
#include "access/node_access.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/trace.h"

// Shared history for concurrent walker ensembles.
//
// The paper analyses a single walk reusing its own history; running N
// walkers against the same service generalises the idea: any response one
// walker fetched is history for all of them. SharedAccessGroup owns the
// communal state — one AccessBackend, one bounded HistoryCache, one global
// fetch budget — and mints per-walker SharedAccess views. Each view is a
// full NodeAccess, so every existing walker runs unmodified on shared
// history. A group can instead run over an EXTERNAL cache owned by a
// longer-lived service (the shared-cache constructor below): that is how
// service::SamplingService shares one history across many tenant groups
// while each group keeps its own budget and billing.
//
// Accounting is split across the two levels so both stay exact:
//
//  * per view (QueryStats): unique_queries counts the distinct nodes THIS
//    walker asked for — its standalone query cost, independent of what the
//    other walkers or the eviction policy did, hence deterministic given
//    the walk itself. cache_hits counts the walker's own repeats.
//  * per group: charged_queries() counts actual backend fetches — what the
//    service would bill the whole crawl. The gap between the views' summed
//    unique_queries and the group's charged_queries is exactly the ensemble
//    saving from shared history; with a bounded cache, evicted-then-refetched
//    nodes push charges back up, making the memory/queries trade measurable.
//
// A group-level query_budget is a shared quota; refusals surface as the
// typed kBudgetExhausted status (distinct from a per-access
// kResourceExhausted budget), and WHICH view gets refused
// when it runs out depends on thread interleaving — walks under a binding
// group budget are not reproducible across schedules (see
// estimate/ensemble_runner.h for the deterministic per-walker alternative).
//
// Concurrency notes: views are NOT thread-safe individually (one view per
// walker, used by one thread at a time); the group and cache are. Every
// view resolves its cache misses through one resolver (an AsyncFetcher, in
// practice a net::RequestPipeline at depth 0 or D), which deduplicates
// concurrent misses on one node into a single fetch (singleflight): N
// walkers missing the same node at the same instant pay one charge, so
// with a cache that never evicts the group's bill is a function of the
// walks alone.
//
// Parking: a view given a FetchWaiter (set_waiter, done by the step
// scheduler) never blocks on a miss. When the resolver cannot answer at
// once, Neighbors returns util::Status::Parked() and the walker's step
// unwinds; the fetch's outcome arrives through Land(), and the re-run of
// the step takes the landed entry for the same node without probing the
// cache again. The miss is counted once, when it is first seen, and its
// outcome once, when the landed entry is taken.

namespace histwalk::access {

class HistoryJournal;
class HistoryTier;
class SharedAccess;

struct SharedAccessOptions {
  // Global backend-fetch budget across all views; 0 means unlimited.
  uint64_t query_budget = 0;
  HistoryCacheOptions cache;
  // Metrics registry the group's counters land in; null = the process
  // Global() registry. Must outlive the group.
  obs::Registry* registry = nullptr;
  // Durable-history journal (store::HistoryStore): every backend response
  // newly inserted into the cache is announced to it exactly once, from
  // whichever thread fetched it. Null = none; must outlive the group.
  HistoryJournal* journal = nullptr;
  // Second history tier probed on the miss path BEFORE the resolver:
  // memory cache -> tier -> resolver. A tier hit is promoted into the
  // cache journal-free and budget-free (see access/history_tier.h). Null =
  // none; must outlive the group.
  HistoryTier* tier = nullptr;
  // Captures every miss-path resolution (obs/flight_recorder.h). Null =
  // none; must outlive the group.
  obs::FlightRecorder* flight_recorder = nullptr;
};

// Cached instrument pointers for the group's miss-path accounting —
// resolved once at group construction so the hot path never touches the
// registry's name map. Every view-level cache miss is attributed to
// EXACTLY ONE of wire_fetches / store_hits / singleflight_joins /
// budget_refusals / fetch_errors, so
//     cache_misses == wire_fetches + store_hits + singleflight_joins
//                   + budget_refusals + fetch_errors
// holds exactly (pinned by obs_identity_test).
struct GroupObsCounters {
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* store_hits = nullptr;
  obs::Counter* singleflight_joins = nullptr;
  obs::Counter* wire_fetches = nullptr;
  obs::Counter* budget_refusals = nullptr;
  obs::Counter* fetch_errors = nullptr;
  obs::Histogram* pipeline_wait = nullptr;
};

class SharedAccessGroup {
 public:
  // `backend` must outlive the group; the group must outlive its views.
  // The group owns its HistoryCache (built from options.cache).
  SharedAccessGroup(const AccessBackend* backend,
                    SharedAccessOptions options = {});

  // The cross-tenant seam: the group runs over `shared_cache` instead of
  // owning one (options.cache is ignored). Several groups — one per tenant
  // of a service::SamplingService — can share a single cache this way:
  // each keeps its OWN fetch budget and charge counter (per-tenant
  // billing), while any response one tenant fetched is history for all of
  // them. `shared_cache` must outlive the group (taken by reference, not
  // pointer, so a braced `{}` can never silently select this overload).
  // Note that ResetAll() clears the SHARED cache — never call it while
  // other groups are using the cache.
  SharedAccessGroup(const AccessBackend* backend, HistoryCache& shared_cache,
                    SharedAccessOptions options = {});

  SharedAccessGroup(const SharedAccessGroup&) = delete;
  SharedAccessGroup& operator=(const SharedAccessGroup&) = delete;

  // Mints a per-walker view whose cache misses resolve through `resolver`
  // (which must outlive the view). Thread-safe, though views are
  // typically created up front, one per walker.
  std::unique_ptr<SharedAccess> MakeView(AsyncFetcher& resolver);

  const AccessBackend* backend() const { return backend_; }
  HistoryCache& cache() { return *cache_; }
  const HistoryCache& cache() const { return *cache_; }
  // True when the cache is externally owned (the cross-tenant seam above).
  bool uses_shared_cache() const { return owned_cache_ == nullptr; }

  // Backend fetches issued so far (the service-billed crawl cost).
  uint64_t charged_queries() const {
    return charged_.load(std::memory_order_relaxed);
  }
  // Remaining fetch budget; UINT64_MAX when unlimited, clamped at 0.
  uint64_t remaining_budget() const;

  // Clears the shared cache and the charge counter. Views keep their own
  // accounting; reset each view separately via ResetAccounting().
  void ResetAll();

  // The group's cached metrics instruments (see GroupObsCounters); always
  // non-null pointers once constructed. net::RequestPipeline pushes the
  // singleflight/wait instruments through this.
  const GroupObsCounters& obs() const { return obs_; }

  // Budget hooks for the fetch-executing resolver (net::RequestPipeline):
  // claim one unit of fetch budget before a backend fetch — false means
  // the group quota refused it — and refund it if the fetch itself fails.
  bool TryCharge();
  void RefundCharge() { charged_.fetch_sub(1, std::memory_order_relaxed); }

  // The single insert funnel for fetched responses: the whole batch lands
  // through one HistoryCache::PutBatch — a single exclusive-lock
  // acquisition per touched shard, and exactly one for the pipeline's
  // per-shard batches — and the journal sees the batch in one call, which
  // journals each genuinely new insertion exactly once, in batch order.
  // Returns the pinned handles aligned with `entries`. Thread-safe.
  std::vector<HistoryCache::Entry> StoreFetchedBatch(
      std::span<const HistoryCache::ImportEntry> entries);

  // Promotion funnel for history-tier hits: stores `neighbors` under `v`
  // in the cache WITHOUT journaling (the record is already durable) and
  // without touching budget or wire counters. Thread-safe.
  HistoryCache::Entry StoreWarm(graph::NodeId v,
                                std::span<const graph::NodeId> neighbors);

 private:
  friend class SharedAccess;

  const AccessBackend* backend_;
  SharedAccessOptions options_;
  std::unique_ptr<HistoryCache> owned_cache_;  // null when cache is shared
  HistoryCache* cache_;  // owned_cache_.get() or the external shared cache
  std::atomic<uint64_t> charged_{0};
  std::atomic<uint32_t> next_view_id_{0};
  GroupObsCounters obs_;
};

class SharedAccess final : public NodeAccess {
 public:
  // Prefer SharedAccessGroup::MakeView(). `group` and `resolver` must
  // outlive this view.
  SharedAccess(SharedAccessGroup* group, AsyncFetcher* resolver);
  ~SharedAccess() override;

  SharedAccess(const SharedAccess&) = delete;
  SharedAccess& operator=(const SharedAccess&) = delete;

  util::Result<std::span<const graph::NodeId>> Neighbors(
      graph::NodeId v) override;
  util::Result<double> Attribute(graph::NodeId v,
                                 attr::AttrId attr) const override;
  util::Result<uint32_t> SummaryDegree(graph::NodeId v) const override;

  uint64_t num_nodes() const override { return group_->backend()->num_nodes(); }
  const QueryStats& stats() const override { return stats_; }
  uint64_t remaining_budget() const override {
    return group_->remaining_budget();
  }
  // Clears this view's accounting only; the shared cache and group budget
  // are untouched (use SharedAccessGroup::ResetAll for those).
  void ResetAccounting() override;

  // Shared-cache footprint plus this view's private membership bits. Note
  // that summing HistoryBytes() across views counts the shared cache once
  // per view; ensemble-level reporting adds private_history_bytes() per
  // view to one cache footprint instead.
  uint64_t HistoryBytes() const override {
    return group_->cache().MemoryBytes() + private_history_bytes();
  }
  // History state owned by this view alone (its queried_ membership bits).
  uint64_t private_history_bytes() const { return (queried_.size() + 7) / 8; }

  // Backend fetches this view triggered (cache misses it paid for). Unlike
  // unique_queries this depends on thread interleaving under concurrency.
  uint64_t charged_fetches() const { return charged_fetches_; }

  SharedAccessGroup* group() const { return group_; }

  // Stable id of this view within its group (creation order) — the
  // `actor` field of flight-recorder events.
  uint32_t view_id() const { return view_id_; }

  // Points this view's probe instants at `tracer`'s `track` (typically
  // the per-walker track); null detaches. The view is single-threaded, so
  // this is safe between (not during) Neighbors() calls.
  void set_trace(obs::Tracer* tracer, uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // Misses the resolver cannot answer at once park on `waiter` (null: they
  // block in FetchShared). Set between, not during, Neighbors() calls.
  void set_waiter(FetchWaiter* waiter) { waiter_ = waiter; }

  // Hands the parked miss its outcome; the next Neighbors() call — the
  // re-run of the parked step, for the same node — takes it. Called from
  // the waiter's OnFetched, on the thread that completed the fetch.
  void Land(util::Result<AsyncFetcher::Fetched> fetched) {
    landed_.emplace(std::move(fetched));
  }

 private:
  // Attributes the resolver's outcome for the miss on `v` and returns its
  // entry (or the error that refused it).
  util::Result<HistoryCache::Entry> TakeFetched(
      graph::NodeId v, util::Result<AsyncFetcher::Fetched> fetched,
      uint64_t miss_start_us);
  void AccountServed(graph::NodeId v);
  // Attributes one cache miss to its outcome: bumps `counter`, emits the
  // `result` probe instant and records a `kind` flight event.
  void RecordMiss(graph::NodeId v, obs::Counter* counter, const char* result,
                  obs::FlightEventKind kind, uint64_t start_us);

  SharedAccessGroup* group_;
  AsyncFetcher* resolver_;
  obs::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
  uint32_t view_id_ = 0;
  QueryStats stats_;
  std::vector<bool> queried_;  // nodes THIS view has asked for
  uint64_t charged_fetches_ = 0;
  // The parked miss, if any: its node, its flight-recorder start stamp and,
  // once the fetch completed, its outcome.
  FetchWaiter* waiter_ = nullptr;
  graph::NodeId parked_on_ = graph::kInvalidNode;
  uint64_t parked_start_us_ = 0;
  std::optional<util::Result<AsyncFetcher::Fetched>> landed_;
  // What keeps the recently returned spans valid even if the shared cache
  // evicts their entries mid-step (one neighbor list is live per walker
  // step; two gives margin). Call k serves through slot k % 2: a hit names
  // its borrowed block in the reader's hazard slot (no refcount write), a
  // miss pins its entry in pinned_ and empties the hazard slot. A hit
  // leaves pinned_ alone, so a pin from an older miss lasts until the
  // slot's next miss or the view's end.
  HistoryCache::Reader* reader_;  // registered with group_'s cache
  HistoryCache::Entry pinned_[HistoryCache::kReaderSlots];
  size_t retain_slot_ = 0;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_SHARED_ACCESS_H_
