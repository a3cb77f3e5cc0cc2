#ifndef HISTWALK_NET_REQUEST_PIPELINE_H_
#define HISTWALK_NET_REQUEST_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "access/async_fetcher.h"
#include "access/shared_access.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "util/rw_spinlock.h"

// Batched, deduplicated, tenant-fair fetch client for a (simulated or real)
// remote backend — the one miss resolver of every execution mode: the
// per-run pipeline of inline (depth 0) and pipelined (depth D) runs, and
// the shared wire funnel of service::SamplingService.
//
// The pipeline owns no threads. A miss either parks its walker on the
// pending fetch (FetchOrPark, under estimate::StepPool) or blocks its caller
// (FetchShared); queued batches are carried to the wire by whoever calls
// RunQueuedBatch — idle stepper threads, and blocking callers while they
// wait — and the thread that completes a batch hands every parked waiter
// its reply.
//
// Four mechanisms, composable because they all live behind one submit
// queue:
//
//  * Bounded in-flight depth. At most `depth` queued batches are on the
//    wire at once, so the service never sees more than `depth` concurrent
//    requests — the client-side analogue of the LatencyModel's
//    max_in_flight slots. Depth 0 queues nothing: the caller that creates a
//    fetch resolves it on its own thread as a one-id batch (one wire
//    request), and concurrent callers join its flight.
//  * Per-shard batching. Queued node ids are bucketed by
//    HistoryCache::ShardOf, and a batch drains up to `max_batch` ids of
//    ONE shard of ONE tenant into a single FetchNeighborsBatch call: one
//    wire request (one latency, one rate-limit token) for the whole batch,
//    and all its cache inserts land under a single shard lock.
//  * Singleflight dedup. Concurrent FetchShared calls for the same node
//    share one in-flight request; N walkers missing on one node cost one
//    wire fetch and one unit of budget. With cross_tenant_dedup (tenants
//    sharing one cache), the collapse spans tenants: two tenants missing
//    the same node pay ONE wire fetch, billed to whichever tenant created
//    the in-flight entry. Exactly one caller — the creator — reports
//    charged_this_call.
//  * Fair scheduling. Each tenant owns its own queue, and the drain order
//    is weighted round-robin over tenants with queued work (TenantQueue
//    below), so a greedy tenant keeping hundreds of misses outstanding
//    cannot starve a light one: every tenant with work gets `weight`
//    batches per scheduling cycle. kFifo drains strictly in global arrival
//    order instead — the baseline the fairness experiments compare against.
//
// Budget: the pipeline claims the submitting tenant's group budget one
// unit per fetched NODE at every depth, so charged_queries stays
// comparable across depths; batching buys wall-clock, not free queries.
// Ids refused by the budget fail with kBudgetExhausted without going on
// the wire. A singleflight join charges nothing — the creator tenant paid.
//
// Tenants: the single-group constructor registers its group as tenant 0
// (one ensemble run). A service registers one tenant per session with
// AddTenant() and runs that session's walkers with the per-tenant
// AsyncFetcher adapter (tenant_fetcher()) as their resolver;
// FetchSharedFor(t, v) routes a miss through tenant t's queue, budget and
// stats.
//
// Locking: one util::RwSpinLock (its exclusive half) guards all state. It
// is taken once per miss (the submit) and three times per batch (pick,
// detach, end), by every stepper of every tenant, so its waiters spin and
// yield rather than sleep — and its critical sections must stay short:
// no I/O, no wire call, no waiter callback, and no allocation in steady
// state. What runs under it is table and queue
// bookkeeping, counters and histogram records, and one probe of the
// cache. Allocation is confined to growth: the singleflight table and the
// per-(tenant, shard) queues double when full and never shrink, and a
// flight's first joiner allocates its joiner list; opt-in tracing also
// formats its event strings there, and AddTenant allocates a new slot
// (once per session, off the miss path). Batches are reserved, replies
// built and waiters woken outside the lock.
//
// The late-hit probe (Contains, then Get) stays under the lock on purpose:
// a flight's entry leaves the singleflight table only after its reply is
// in the cache, so a submit that finds neither a flight nor a cached entry
// under the same lock knows no fetch of that node has landed — it creates
// the one flight that is billed. Probing outside the lock would let a
// fetch land in between and bill the node twice.
//
// Singleflight table: open addressing keyed by PendingKey, linear probing,
// backward-shift erase, doubling at load 1/2 — the layout of
// HistoryCache::FlatIndex. A flight's waiters move in at submit and out at
// detach, so creating and finishing a flight allocate nothing once the
// table has reached the workload's peak in-flight count.

namespace histwalk::net {

using TenantId = uint32_t;

enum class PipelineSchedulerPolicy {
  kFairWeighted,  // weighted round-robin over tenants with queued work
  kFifo,          // strict global arrival order (starvation baseline)
};

struct RequestPipelineOptions {
  // Bound on the queued batches on the wire at once (not a thread count:
  // the pipeline has no threads). 0 = nothing is queued: each fetch runs
  // on the thread that created it.
  uint32_t depth = 4;
  // Max neighbor fetches coalesced into one wire request. Clamped to >= 1.
  uint32_t max_batch = 8;
  // Drain order across tenant queues (single-tenant pipelines behave
  // identically under either policy).
  PipelineSchedulerPolicy scheduler = PipelineSchedulerPolicy::kFairWeighted;
  // Collapse concurrent misses on one node ACROSS tenants into a single
  // wire fetch. Requires all tenants to share one HistoryCache (the
  // service's shared-history mode); turn off when tenants run isolated
  // caches, so each tenant's miss fills its own cache.
  bool cross_tenant_dedup = true;
  // Optional tracer (must outlive the pipeline). The pipeline registers a
  // "pipeline" track and emits enqueue / singleflight_join / late_hit
  // instants plus one 'X' complete event per drained batch and a deliver
  // instant per delivered batch.
  obs::Tracer* tracer = nullptr;
};

// Log2-bucketed histogram of per-item queue waits, measured in "items
// drained to the wire between this id's submit and its own drain". That
// unit is what fairness bounds: under kFairWeighted a light tenant's wait
// is O(active tenants * max_batch) however deep a greedy co-tenant's
// queue grows, while under kFifo it grows with the total queue depth.
// The machinery itself lives in obs/histogram.h so every layer shares it.
using WaitHistogram = obs::Log2Histogram;

// Per-tenant accounting, exposed through RequestPipeline::tenant_stats().
struct TenantPipelineStats {
  uint64_t submitted = 0;      // fetches that created a new in-flight entry
  uint64_t dedup_joins = 0;    // fetches coalesced onto an in-flight entry
  uint64_t late_hits = 0;      // fetches answered by the cache at submit
  uint64_t wire_requests = 0;  // backend batch calls issued for this tenant
  uint64_t wire_items = 0;     // ids those calls carried
  uint64_t budget_refusals = 0;
  uint64_t queue_depth = 0;      // ids queued, not yet drained, right now
  uint64_t max_queue_depth = 0;  // high-water mark of queue_depth
  WaitHistogram wait;            // drain waits of this tenant's ids
};

// Aggregate over all tenants (the PR-2 shape, plus queue-depth fields).
struct RequestPipelineStats {
  uint64_t submitted = 0;
  uint64_t dedup_joins = 0;
  uint64_t late_hits = 0;
  uint64_t wire_requests = 0;
  uint64_t wire_items = 0;
  uint64_t budget_refusals = 0;
  uint64_t queue_depth = 0;      // ids queued across all tenants right now
  uint64_t max_queue_depth = 0;  // high-water mark of the global depth
  // Distribution of the global depth, sampled right after each enqueue —
  // max_queue_depth says how bad the worst moment was, this says how the
  // depth was typically distributed (a p50 near max means a standing
  // backlog; a p99 spike over a low p50 means bursts the batches absorb).
  WaitHistogram depth;

  double MeanBatchSize() const {
    return wire_requests == 0
               ? 0.0
               : static_cast<double>(wire_items) /
                     static_cast<double>(wire_requests);
  }
};

// The scheduler state machine, factored out of the pipeline so fairness
// properties are unit-testable without threads: Enqueue/PickBatch calls are
// plain single-threaded transitions (the pipeline serializes them under its
// own lock). Ids live in per-tenant, per-shard ring queues that keep their
// capacity, so a steady stream of ids allocates nothing; PickBatch drains
// up to max_batch ids of one (tenant, shard) pair per call.
//
//  * kFairWeighted: deficit-style weighted round-robin. Each tenant holds
//    `weight` credits; a pick costs one credit, and when every tenant with
//    queued work is out of credits they all refill to their weight. The
//    cursor advances past the picked tenant, so service is interleaved, not
//    bursty. Bound: between two picks of tenant t there are at most
//    (sum of other active tenants' weights) / weight(t) picks, regardless
//    of queue depths.
//  * kFifo: always drains the (tenant, shard) queue holding the globally
//    oldest id (batching may pull newer same-shard ids along with it).
class TenantQueue {
 public:
  TenantQueue(PipelineSchedulerPolicy policy, uint32_t num_shards);

  // Tenants are dense indices in registration order. Weight clamps to >= 1.
  TenantId AddTenant(uint32_t weight);
  // Re-arms a quiescent slot for a new tenant (fresh weight/credits/drain
  // cursor; its queues must be empty). Pairs with RequestPipeline's slot
  // free-list so a long-lived pipeline stays O(concurrent tenants).
  void ReuseTenant(TenantId tenant, uint32_t weight);
  size_t num_tenants() const { return tenants_.size(); }

  void Enqueue(TenantId tenant, graph::NodeId v);

  struct Batch {
    TenantId tenant = 0;
    std::vector<graph::NodeId> ids;
    // waits[i]: ids drained to the wire between ids[i]'s Enqueue and this
    // pick (its own batch excluded).
    std::vector<uint64_t> waits;
  };
  // Drains the next batch per the policy; false when nothing is queued.
  // Fills `out` with push_back: reserve max_batch in both vectors first to
  // keep the pick allocation-free (the pipeline does, before its lock).
  bool PickBatch(uint32_t max_batch, Batch* out);

  uint64_t queued() const { return queued_total_; }
  uint64_t queued(TenantId tenant) const;

 private:
  struct QueuedId {
    graph::NodeId v;
    uint64_t drained_at_enqueue;  // drain clock when this id arrived
    uint64_t arrival;             // global arrival sequence (kFifo order)
  };
  // A FIFO of queued ids over a power-of-two ring that doubles when full
  // and never shrinks (a std::deque would free and reallocate a chunk
  // every few dozen ids streaming through).
  class IdRing {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    const QueuedId& front() const { return slots_[head_]; }
    void push_back(const QueuedId& id);
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }

   private:
    std::vector<QueuedId> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };
  struct Tenant {
    uint32_t weight = 1;
    uint32_t credits = 1;
    std::vector<IdRing> shard_queues;
    uint32_t next_shard = 0;
    uint64_t queued = 0;
  };

  bool PickFair(uint32_t max_batch, Batch* out);
  bool PickFifo(uint32_t max_batch, Batch* out);
  void DrainShard(TenantId t, uint32_t shard, uint32_t max_batch, Batch* out);

  PipelineSchedulerPolicy policy_;
  uint32_t num_shards_;
  std::vector<Tenant> tenants_;
  uint32_t cursor_ = 0;         // fair policy: next tenant to consider
  uint64_t queued_total_ = 0;
  uint64_t drained_items_ = 0;  // the wait clock: total ids ever drained
  uint64_t next_arrival_ = 0;
};

class RequestPipeline final : public access::AsyncFetcher {
 public:
  // A tenant-less pipeline; register sessions with AddTenant(). All
  // tenants' groups must wrap the SAME backend instance (one wire, many
  // tenants) and, when options.cross_tenant_dedup is on, share one cache.
  explicit RequestPipeline(RequestPipelineOptions options);

  // Single-tenant convenience: registers `group` as tenant 0 with weight
  // 1. `group` must outlive the pipeline. Typical wiring: construct the
  // pipeline, pass it as the resolver of estimate::RunEnsemble, destroy.
  explicit RequestPipeline(access::SharedAccessGroup* group,
                           RequestPipelineOptions options = {});
  // Carries every still-queued fetch to the wire, then waits until no
  // thread is inside a batch or a FetchShared call: a stepper that drains
  // this pipeline for a run may still be delivering its last batch after
  // the run's walkers finished.
  ~RequestPipeline() override;

  RequestPipeline(const RequestPipeline&) = delete;
  RequestPipeline& operator=(const RequestPipeline&) = delete;

  // Registers a tenant: fetches submitted for it go through `group`'s
  // backend, cache, budget and journal funnel, and drain under its
  // `weight`. `group` must outlive the tenant's registration. Thread-safe;
  // tenants may be added while the pipeline is running.
  TenantId AddTenant(access::SharedAccessGroup* group, uint32_t weight = 1);

  // Severs a tenant's group pointer and returns its slot to a free list
  // (later AddTenant calls recycle it, so a long-lived pipeline stays
  // O(concurrent tenants), not O(sessions ever served)). The tenant must
  // be quiescent (no queued or in-flight fetches — a completed session
  // satisfies this). Its per-tenant counters are folded into the
  // cumulative aggregate (stats() stays monotone) and the tenant_stats
  // view resets — snapshot per-tenant stats BEFORE removing
  // (service::SamplingService copies them into the session report at
  // completion). Thread-safe.
  void RemoveTenant(TenantId tenant);

  // A per-tenant AsyncFetcher adapter routing FetchShared to
  // FetchSharedFor(tenant, v) — the resolver a service runs a tenant's
  // walkers with. Valid for the pipeline's lifetime.
  access::AsyncFetcher* tenant_fetcher(TenantId tenant);

  // AsyncFetcher, single-tenant entry points (tenant 0). FetchShared
  // blocks until the response for `v` is available, running queued batches
  // meanwhile; FetchOrPark parks `waiter` instead.
  util::Result<access::AsyncFetcher::Fetched> FetchShared(
      graph::NodeId v) override;
  std::optional<util::Result<access::AsyncFetcher::Fetched>> FetchOrPark(
      graph::NodeId v, access::FetchWaiter* waiter) override;
  // Runs the next queued batch of any tenant on the calling thread; false
  // when nothing is queued or `depth` batches are already in flight.
  bool RunQueuedBatch() override;

  // The multi-tenant entry points behind tenant_fetcher().
  util::Result<access::AsyncFetcher::Fetched> FetchSharedFor(TenantId tenant,
                                                             graph::NodeId v);
  std::optional<util::Result<access::AsyncFetcher::Fetched>> FetchOrParkFor(
      TenantId tenant, graph::NodeId v, access::FetchWaiter* waiter);

  // Stats consistency (same contract style as HistoryCache::stats()): each
  // call returns an internally consistent snapshot taken under the
  // pipeline lock — submitted == dedup-creators exactly, wire_items never
  // exceeds submitted, and cumulative counters are monotone non-decreasing
  // across successive calls from one thread. queue_depth is instantaneous
  // and may be stale by the time the caller reads it; max_queue_depth is
  // monotone. tenant_stats(t) and stats() are snapshotted independently,
  // so a tenant snapshot and an aggregate snapshot taken back-to-back may
  // straddle concurrent submits.
  RequestPipelineStats stats() const;
  TenantPipelineStats tenant_stats(TenantId tenant) const;
  size_t num_tenants() const;

  const RequestPipelineOptions& options() const { return options_; }

 private:
  // What a completed wire fetch hands every waiter.
  struct WireReply {
    access::HistoryCache::Entry entry;  // null iff status is non-OK
    util::Status status;
    TenantId creator = 0;  // whose budget the fetch was charged against
  };
  // One waiter parked on a pending fetch.
  struct Parked {
    access::FetchWaiter* waiter = nullptr;
    TenantId tenant = 0;
  };
  // A fetch in flight and the waiters its reply goes to.
  struct Pending {
    Parked creator;               // created the flight (and pays for it)
    std::vector<Parked> joiners;  // joined it (singleflight)
  };
  // The singleflight table (see the header comment): PendingKey -> flight.
  // A cell is empty iff its creator's waiter is null.
  class PendingTable {
   public:
    // The flight under `key`, or nullptr.
    Pending* Find(uint64_t key);
    // Opens a flight under `key`, which must be absent; `creator.waiter`
    // is non-null. Grows the table past load 1/2.
    void Insert(uint64_t key, const Parked& creator);
    // Moves the flight under `key` into *out and frees its cell; false if
    // there is none.
    bool Take(uint64_t key, Pending* out);
    bool empty() const { return size_ == 0; }

   private:
    struct Cell {
      uint64_t key = 0;
      Pending pending;
    };
    static constexpr size_t kInitialCells = 64;

    static size_t Home(uint64_t key, size_t mask) {
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    }
    // The first empty cell on `key`'s probe chain.
    size_t FreeCell(uint64_t key) const;
    void Grow();

    std::vector<Cell> cells_;  // power-of-two size, or empty
    size_t size_ = 0;
  };
  struct TenantFetcherAdapter final : access::AsyncFetcher {
    RequestPipeline* pipeline = nullptr;
    TenantId tenant = 0;
    util::Result<access::AsyncFetcher::Fetched> FetchShared(
        graph::NodeId v) override {
      return pipeline->FetchSharedFor(tenant, v);
    }
    std::optional<util::Result<access::AsyncFetcher::Fetched>> FetchOrPark(
        graph::NodeId v, access::FetchWaiter* waiter) override {
      return pipeline->FetchOrParkFor(tenant, v, waiter);
    }
    bool RunQueuedBatch() override { return pipeline->RunQueuedBatch(); }
  };
  struct Tenant {
    access::SharedAccessGroup* group = nullptr;  // null after RemoveTenant
    // Waiters of this tenant parked on a flight (its own or, joined,
    // another tenant's) — what RemoveTenant's quiescence check needs:
    // queue emptiness alone cannot see a join on ANOTHER tenant's flight
    // that may yet resubmit under this id.
    uint64_t active_calls = 0;
    TenantPipelineStats stats;
    TenantFetcherAdapter fetcher;
  };

  // Singleflight key: the node id alone under cross-tenant dedup, else
  // (tenant, node) so isolated tenants never share fetches.
  uint64_t PendingKey(TenantId tenant, graph::NodeId v) const {
    return options_.cross_tenant_dedup
               ? static_cast<uint64_t>(v)
               : (static_cast<uint64_t>(tenant) << 32) |
                     static_cast<uint64_t>(v);
  }

  // True when a queued batch may start now. Requires mu_.
  bool BatchRunnableLocked() const {
    return queue_ != nullptr && queue_->queued() > 0 &&
           (options_.depth == 0 || in_flight_ < options_.depth);
  }
  void ProcessBatch(const TenantQueue::Batch& batch,
                    access::SharedAccessGroup* group);
  // Hands `reply` to a parked waiter, or — for a joiner whose flight
  // another tenant's budget refused — resubmits it under its own tenant.
  void Deliver(const Parked& parked, bool creator, graph::NodeId v,
               const WireReply& reply);

  RequestPipelineOptions options_;
  uint32_t num_shards_ = 0;  // fixed by the first registered tenant's cache
  uint32_t trace_track_ = 0;  // "pipeline" track when options_.tracer set

  // Exclusive only (see "Locking" above); never held across a wire call
  // or a waiter callback.
  mutable util::RwSpinLock mu_;
  // Signaled when a blocking caller may make progress (its reply landed,
  // or a batch became runnable) and, while stopping, when a batch or call
  // ends. Only blocking callers and the destructor wait on it.
  std::condition_variable_any progress_cv_;
  bool stopping_ = false;
  uint32_t in_flight_ = 0;          // batches between pick and delivery
  uint64_t blocked_callers_ = 0;    // FetchSharedFor calls inside the pipeline
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<TenantId> free_slots_;    // removed tenants awaiting reuse
  RequestPipelineStats retired_;        // folded stats of removed tenants
  std::unique_ptr<TenantQueue> queue_;  // created with the first tenant
  uint64_t global_max_queue_depth_ = 0;
  WaitHistogram queue_depth_hist_;  // global depth at each enqueue
  PendingTable pending_;
};

}  // namespace histwalk::net

#endif  // HISTWALK_NET_REQUEST_PIPELINE_H_
