#include "net/request_pipeline.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"
#include "util/check.h"

namespace histwalk::net {

namespace {

// The one place the per-tenant -> aggregate counter mapping lives; used by
// both the RemoveTenant fold and stats().
void AccumulateTenantStats(RequestPipelineStats& aggregate,
                           const TenantPipelineStats& tenant) {
  aggregate.submitted += tenant.submitted;
  aggregate.dedup_joins += tenant.dedup_joins;
  aggregate.late_hits += tenant.late_hits;
  aggregate.wire_requests += tenant.wire_requests;
  aggregate.wire_items += tenant.wire_items;
  aggregate.budget_refusals += tenant.budget_refusals;
}

}  // namespace

// ---- TenantQueue ------------------------------------------------------------

TenantQueue::TenantQueue(PipelineSchedulerPolicy policy, uint32_t num_shards)
    : policy_(policy), num_shards_(num_shards == 0 ? 1 : num_shards) {}

TenantId TenantQueue::AddTenant(uint32_t weight) {
  Tenant tenant;
  tenant.weight = weight == 0 ? 1 : weight;
  tenant.credits = tenant.weight;
  tenant.shard_queues.resize(num_shards_);
  tenants_.push_back(std::move(tenant));
  return static_cast<TenantId>(tenants_.size() - 1);
}

void TenantQueue::ReuseTenant(TenantId tenant, uint32_t weight) {
  HW_CHECK(tenant < tenants_.size());
  Tenant& t = tenants_[tenant];
  HW_CHECK(t.queued == 0);
  t.weight = weight == 0 ? 1 : weight;
  t.credits = t.weight;
  t.next_shard = 0;
}

void TenantQueue::Enqueue(TenantId tenant, graph::NodeId v) {
  HW_CHECK(tenant < tenants_.size());
  Tenant& t = tenants_[tenant];
  uint32_t shard = access::HistoryCache::ShardOf(v, num_shards_);
  t.shard_queues[shard].push_back(
      QueuedId{v, drained_items_, next_arrival_++});
  ++t.queued;
  ++queued_total_;
}

void TenantQueue::IdRing::push_back(const QueuedId& id) {
  if (size_ == slots_.size()) {
    // Full: unroll into a ring twice the size, oldest id first.
    std::vector<QueuedId> grown(slots_.empty() ? 16 : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = id;
  ++size_;
}

uint64_t TenantQueue::queued(TenantId tenant) const {
  HW_CHECK(tenant < tenants_.size());
  return tenants_[tenant].queued;
}

bool TenantQueue::PickBatch(uint32_t max_batch, Batch* out) {
  if (max_batch == 0) max_batch = 1;
  out->ids.clear();
  out->waits.clear();
  return policy_ == PipelineSchedulerPolicy::kFairWeighted
             ? PickFair(max_batch, out)
             : PickFifo(max_batch, out);
}

bool TenantQueue::PickFair(uint32_t max_batch, Batch* out) {
  if (queued_total_ == 0) return false;
  // Two rounds: the first may find every tenant with work out of credits,
  // in which case credits refill and the second round must succeed.
  for (int round = 0; round < 2; ++round) {
    for (size_t probe = 0; probe < tenants_.size(); ++probe) {
      const uint32_t ti =
          static_cast<uint32_t>((cursor_ + probe) % tenants_.size());
      Tenant& tenant = tenants_[ti];
      if (tenant.queued == 0 || tenant.credits == 0) continue;
      --tenant.credits;
      cursor_ = static_cast<uint32_t>((ti + 1) % tenants_.size());
      for (uint32_t s = 0; s < num_shards_; ++s) {
        const uint32_t shard = (tenant.next_shard + s) % num_shards_;
        if (tenant.shard_queues[shard].empty()) continue;
        tenant.next_shard = (shard + 1) % num_shards_;
        DrainShard(ti, shard, max_batch, out);
        return true;
      }
      HW_CHECK(false);  // tenant.queued > 0 implies a non-empty shard
    }
    for (Tenant& tenant : tenants_) tenant.credits = tenant.weight;
  }
  HW_CHECK(false);  // queued_total_ > 0 implies a pick after refill
  return false;
}

bool TenantQueue::PickFifo(uint32_t max_batch, Batch* out) {
  if (queued_total_ == 0) return false;
  uint32_t best_tenant = 0;
  uint32_t best_shard = 0;
  uint64_t best_arrival = UINT64_MAX;
  for (uint32_t ti = 0; ti < tenants_.size(); ++ti) {
    const Tenant& tenant = tenants_[ti];
    if (tenant.queued == 0) continue;
    for (uint32_t shard = 0; shard < num_shards_; ++shard) {
      const IdRing& queue = tenant.shard_queues[shard];
      if (queue.empty()) continue;
      if (queue.front().arrival < best_arrival) {
        best_arrival = queue.front().arrival;
        best_tenant = ti;
        best_shard = shard;
      }
    }
  }
  DrainShard(best_tenant, best_shard, max_batch, out);
  return true;
}

void TenantQueue::DrainShard(TenantId t, uint32_t shard, uint32_t max_batch,
                             Batch* out) {
  Tenant& tenant = tenants_[t];
  IdRing& queue = tenant.shard_queues[shard];
  const size_t take = std::min<size_t>(max_batch, queue.size());
  out->tenant = t;
  for (size_t i = 0; i < take; ++i) {
    const QueuedId& id = queue.front();
    out->ids.push_back(id.v);
    out->waits.push_back(drained_items_ - id.drained_at_enqueue);
    queue.pop_front();
  }
  tenant.queued -= take;
  queued_total_ -= take;
  drained_items_ += take;
}

// ---- RequestPipeline::PendingTable ------------------------------------------

RequestPipeline::Pending* RequestPipeline::PendingTable::Find(uint64_t key) {
  if (cells_.empty()) return nullptr;
  const size_t mask = cells_.size() - 1;
  for (size_t i = Home(key, mask);; i = (i + 1) & mask) {
    Cell& cell = cells_[i];
    if (cell.pending.creator.waiter == nullptr) return nullptr;
    if (cell.key == key) return &cell.pending;
  }
}

size_t RequestPipeline::PendingTable::FreeCell(uint64_t key) const {
  const size_t mask = cells_.size() - 1;
  size_t i = Home(key, mask);
  while (cells_[i].pending.creator.waiter != nullptr) i = (i + 1) & mask;
  return i;
}

void RequestPipeline::PendingTable::Insert(uint64_t key, const Parked& creator) {
  HW_DCHECK(creator.waiter != nullptr);
  // Load at most 1/2: probe chains stay short, and every chain ends on an
  // empty cell.
  if ((size_ + 1) * 2 > cells_.size()) Grow();
  Cell& cell = cells_[FreeCell(key)];
  cell.key = key;
  cell.pending.creator = creator;
  ++size_;
}

bool RequestPipeline::PendingTable::Take(uint64_t key, Pending* out) {
  if (cells_.empty()) return false;
  const size_t mask = cells_.size() - 1;
  size_t i = Home(key, mask);
  while (true) {
    if (cells_[i].pending.creator.waiter == nullptr) return false;
    if (cells_[i].key == key) break;
    i = (i + 1) & mask;
  }
  *out = std::move(cells_[i].pending);
  // Backward-shift deletion (as in HistoryCache::FlatIndex::Erase): pull
  // back every later cell of the chain whose home does not lie in the
  // cyclic interval (i, j], which the hole would cut off from its home.
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (cells_[j].pending.creator.waiter == nullptr) break;
    const size_t h = Home(cells_[j].key, mask);
    const bool movable = (j > i) ? (h <= i || h > j) : (h <= i && h > j);
    if (movable) {
      cells_[i] = std::move(cells_[j]);
      i = j;
    }
  }
  cells_[i].pending.creator.waiter = nullptr;
  cells_[i].pending.joiners.clear();
  --size_;
  return true;
}

void RequestPipeline::PendingTable::Grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_ = std::vector<Cell>(old.empty() ? kInitialCells : old.size() * 2);
  for (Cell& cell : old) {
    if (cell.pending.creator.waiter != nullptr) {
      cells_[FreeCell(cell.key)] = std::move(cell);
    }
  }
}

// ---- RequestPipeline --------------------------------------------------------

namespace {

// Where a depth-0 creator's own reply lands: it carries the fetch on its
// own thread, so the reply is in before FetchOrParkFor returns.
struct CaptureWaiter final : access::FetchWaiter {
  std::optional<util::Result<access::AsyncFetcher::Fetched>> fetched;
  void OnFetched(util::Result<access::AsyncFetcher::Fetched> reply) override {
    fetched.emplace(std::move(reply));
  }
};

}  // namespace

RequestPipeline::RequestPipeline(RequestPipelineOptions options)
    : options_(options) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.tracer != nullptr) {
    // Registered at construction so the track id is fixed by wiring order,
    // not scheduling.
    trace_track_ = options_.tracer->RegisterTrack("pipeline");
  }
}

RequestPipeline::RequestPipeline(access::SharedAccessGroup* group,
                                 RequestPipelineOptions options)
    : RequestPipeline(options) {
  HW_CHECK(group != nullptr);
  AddTenant(group, /*weight=*/1);
}

RequestPipeline::~RequestPipeline() {
  std::unique_lock<util::RwSpinLock> lock(mu_);
  stopping_ = true;
  // Carry what is still queued ourselves, then wait out every thread still
  // inside a batch (its deliveries may have finished the last walker of a
  // run that is now destroying us) or a blocking call.
  while (true) {
    if (BatchRunnableLocked()) {
      lock.unlock();
      RunQueuedBatch();
      lock.lock();
      continue;
    }
    if ((queue_ == nullptr || queue_->queued() == 0) && in_flight_ == 0 &&
        blocked_callers_ == 0) {
      break;
    }
    progress_cv_.wait(lock);
  }
  // Every pending fetch is queued or in a batch until delivered.
  HW_CHECK(pending_.empty());
}

TenantId RequestPipeline::AddTenant(access::SharedAccessGroup* group,
                                    uint32_t weight) {
  HW_CHECK(group != nullptr);
  std::lock_guard<util::RwSpinLock> lock(mu_);
  if (queue_ == nullptr) {
    // Batching locality follows the first tenant's shard geometry; in a
    // service every tenant shares one cache, so they all agree.
    num_shards_ = group->cache().num_shards();
    queue_ = std::make_unique<TenantQueue>(options_.scheduler, num_shards_);
  }
  if (!free_slots_.empty()) {
    // Recycle a removed tenant's slot so a long-lived pipeline serving a
    // stream of sessions stays O(concurrent tenants), not O(ever seen).
    const TenantId id = free_slots_.back();
    free_slots_.pop_back();
    tenants_[id]->group = group;
    queue_->ReuseTenant(id, weight);
    return id;
  }
  auto tenant = std::make_unique<Tenant>();
  tenant->group = group;
  tenant->fetcher.pipeline = this;
  tenants_.push_back(std::move(tenant));
  const TenantId id = queue_->AddTenant(weight);
  HW_CHECK(id == tenants_.size() - 1);
  tenants_[id]->fetcher.tenant = id;
  return id;
}

void RequestPipeline::RemoveTenant(TenantId tenant) {
  std::lock_guard<util::RwSpinLock> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  HW_CHECK(tenants_[tenant]->group != nullptr);  // double remove
  // Quiescence: no waiter of this tenant is parked on any flight — a
  // session whose walkers have all returned satisfies this. Implies the
  // queue is empty and no pending flight was created by it.
  HW_CHECK(tenants_[tenant]->active_calls == 0);
  HW_CHECK(queue_->queued(tenant) == 0);
  // Fold the tenant's counters into the retired aggregate (so stats()
  // stays cumulative and monotone across slot reuse) and clear the
  // per-tenant view.
  AccumulateTenantStats(retired_, tenants_[tenant]->stats);
  tenants_[tenant]->stats = TenantPipelineStats{};
  tenants_[tenant]->group = nullptr;
  free_slots_.push_back(tenant);
}

access::AsyncFetcher* RequestPipeline::tenant_fetcher(TenantId tenant) {
  std::lock_guard<util::RwSpinLock> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  return &tenants_[tenant]->fetcher;
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchShared(
    graph::NodeId v) {
  return FetchSharedFor(/*tenant=*/0, v);
}

std::optional<util::Result<access::AsyncFetcher::Fetched>>
RequestPipeline::FetchOrPark(graph::NodeId v, access::FetchWaiter* waiter) {
  return FetchOrParkFor(/*tenant=*/0, v, waiter);
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchSharedFor(
    TenantId tenant, graph::NodeId v) {
  // The blocking caller parks like any walker; its reply is handed over
  // under mu_, the lock it waits with.
  struct BlockingWaiter final : access::FetchWaiter {
    RequestPipeline* pipeline = nullptr;
    std::optional<util::Result<access::AsyncFetcher::Fetched>> fetched;
    void OnFetched(util::Result<access::AsyncFetcher::Fetched> reply) override {
      std::lock_guard<util::RwSpinLock> lock(pipeline->mu_);
      fetched.emplace(std::move(reply));
      pipeline->progress_cv_.notify_all();
    }
  } waiter;
  waiter.pipeline = this;
  {
    std::lock_guard<util::RwSpinLock> lock(mu_);
    ++blocked_callers_;
  }
  std::optional<util::Result<access::AsyncFetcher::Fetched>> result =
      FetchOrParkFor(tenant, v, &waiter);
  std::unique_lock<util::RwSpinLock> lock(mu_);
  // Nobody else may be draining the queue: carry batches while waiting.
  while (!result.has_value()) {
    if (waiter.fetched.has_value()) {
      result = std::move(waiter.fetched);
    } else if (BatchRunnableLocked()) {
      lock.unlock();
      RunQueuedBatch();
      lock.lock();
    } else {
      progress_cv_.wait(lock);
    }
  }
  if (--blocked_callers_ == 0 && stopping_) progress_cv_.notify_all();
  return *std::move(result);
}

std::optional<util::Result<access::AsyncFetcher::Fetched>>
RequestPipeline::FetchOrParkFor(TenantId tenant, graph::NodeId v,
                                access::FetchWaiter* waiter) {
  HW_CHECK(waiter != nullptr);
  CaptureWaiter own;
  // Depth 0: the group this caller's own fetch runs against.
  access::SharedAccessGroup* resolve_here = nullptr;
  {
    HW_PROF_SCOPE("pipeline/enqueue");
    std::lock_guard<util::RwSpinLock> lock(mu_);
    HW_CHECK(tenant < tenants_.size());
    if (stopping_) {
      // Destruction in progress: nobody will serve a fresh submit (this
      // also stops budget-refusal resubmits from re-queueing).
      return util::Result<access::AsyncFetcher::Fetched>(
          util::Status::Internal("pipeline destroyed"));
    }
    Tenant& t = *tenants_[tenant];
    HW_CHECK(t.group != nullptr);
    const uint64_t key = PendingKey(tenant, v);
    if (Pending* flight = pending_.Find(key)) {
      // Singleflight: join the request already in flight (possibly
      // another tenant's — the shared cache serves every waiter).
      ++t.stats.dedup_joins;
      HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "singleflight_join",
                            "\"node\":" + std::to_string(v) +
                                ",\"tenant\":" + std::to_string(tenant));
      // The flight's first joiner allocates its list (rare: most flights
      // have none).
      flight->joiners.push_back({waiter, tenant});
      ++t.active_calls;
      return std::nullopt;
    }
    // Did a fetch complete between the caller's cache miss and this
    // submit? This probe must stay under mu_ (see "Locking" in the
    // header): it is what bills a node exactly once. Probe with Contains()
    // first because it has no stats side effects: the caller already
    // recorded this lookup's miss, and a plain Get() here would
    // double-count a miss on every ordinary submit. Get() runs only on the
    // rare hit path (and can still race an eviction, in which case we fall
    // through and fetch for real).
    if (t.group->cache().Contains(v)) {
      if (access::HistoryCache::Entry entry = t.group->cache().Get(v)) {
        ++t.stats.late_hits;
        HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "late_hit",
                              "\"node\":" + std::to_string(v) +
                                  ",\"tenant\":" + std::to_string(tenant));
        return util::Result<access::AsyncFetcher::Fetched>(
            access::AsyncFetcher::Fetched{std::move(entry),
                                          /*charged_this_call=*/false});
      }
    }
    ++t.stats.submitted;
    ++t.active_calls;
    HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "enqueue",
                          "\"node\":" + std::to_string(v) +
                              ",\"tenant\":" + std::to_string(tenant));
    if (options_.depth == 0) {
      // Depth 0: drained the instant it is submitted (wait 0), by this
      // caller, below and outside the lock.
      t.stats.wait.Record(0);
      t.group->obs().pipeline_wait->Observe(0);
      pending_.Insert(key, {&own, tenant});
      ++in_flight_;
      resolve_here = t.group;
    } else {
      pending_.Insert(key, {waiter, tenant});
      queue_->Enqueue(tenant, v);
      t.stats.max_queue_depth =
          std::max(t.stats.max_queue_depth, queue_->queued(tenant));
      global_max_queue_depth_ =
          std::max(global_max_queue_depth_, queue_->queued());
      queue_depth_hist_.Record(queue_->queued());
      if (blocked_callers_ > 0) progress_cv_.notify_all();
      return std::nullopt;
    }
  }
  TenantQueue::Batch batch;
  batch.tenant = tenant;
  batch.ids.push_back(v);
  ProcessBatch(batch, resolve_here);
  HW_CHECK(own.fetched.has_value());
  return std::move(own.fetched);
}

bool RequestPipeline::RunQueuedBatch() {
  TenantQueue::Batch batch;
  // Sized before the lock, so the pick under it allocates nothing.
  batch.ids.reserve(options_.max_batch);
  batch.waits.reserve(options_.max_batch);
  access::SharedAccessGroup* group = nullptr;
  {
    std::lock_guard<util::RwSpinLock> lock(mu_);
    if (!BatchRunnableLocked()) return false;
    HW_CHECK(queue_->PickBatch(options_.max_batch, &batch));
    Tenant& tenant = *tenants_[batch.tenant];
    HW_CHECK(tenant.group != nullptr);
    group = tenant.group;
    // Wait accounting happens at drain time, under the same lock as the
    // pick, so histograms are exact whatever thread runs the batch. The
    // same waits feed the group's scraped histogram.
    for (uint64_t wait : batch.waits) {
      tenant.stats.wait.Record(wait);
      group->obs().pipeline_wait->Observe(wait);
    }
    ++in_flight_;
  }
  ProcessBatch(batch, group);
  return true;
}

void RequestPipeline::ProcessBatch(const TenantQueue::Batch& batch,
                                   access::SharedAccessGroup* group) {
  HW_PROF_SCOPE("pipeline/batch");
  // 'X' complete events (not B/E spans) so concurrent batches can't
  // corrupt span nesting on the shared pipeline track.
  const uint64_t batch_start_us =
      options_.tracer != nullptr ? options_.tracer->NowUs() : 0;
  // Claim the tenant's budget per node before touching the wire; refused
  // ids never issue and leave the charge accounting untouched.
  std::vector<graph::NodeId> to_fetch;
  std::vector<graph::NodeId> refused;
  to_fetch.reserve(batch.ids.size());
  for (graph::NodeId v : batch.ids) {
    if (group->TryCharge()) {
      to_fetch.push_back(v);
    } else {
      refused.push_back(v);
    }
  }

  std::vector<std::pair<graph::NodeId, WireReply>> replies;
  replies.reserve(batch.ids.size());
  if (!to_fetch.empty()) {
    auto results = group->backend()->FetchNeighborsBatch(to_fetch);
    // Deliver the whole batch through the group's batch funnel: the ids
    // were drained from ONE shard's queue, so every successful response
    // lands in the cache under a single exclusive-lock acquisition
    // (HistoryCache::PutBatch) instead of one Put per id, and an attached
    // HistoryJournal (durable store) still sees each new insert once.
    std::vector<access::HistoryCache::ImportEntry> imports;
    std::vector<size_t> import_pos;  // index into to_fetch per import
    imports.reserve(to_fetch.size());
    import_pos.reserve(to_fetch.size());
    for (size_t i = 0; i < to_fetch.size(); ++i) {
      if (results[i].ok()) {
        imports.push_back({to_fetch[i], *results[i]});
        import_pos.push_back(i);
      } else {
        group->RefundCharge();
        replies.emplace_back(
            to_fetch[i],
            WireReply{nullptr, results[i].status(), batch.tenant});
      }
    }
    std::vector<access::HistoryCache::Entry> stored =
        group->StoreFetchedBatch(imports);
    for (size_t j = 0; j < imports.size(); ++j) {
      replies.emplace_back(
          to_fetch[import_pos[j]],
          WireReply{std::move(stored[j]), util::Status::Ok(), batch.tenant});
    }
  }
  for (graph::NodeId v : refused) {
    replies.emplace_back(
        v, WireReply{nullptr,
                     util::Status::BudgetExhausted(
                         "tenant query budget exhausted"),
                     batch.tenant});
  }

  // Detach the pending entries under the lock, deliver outside it (a
  // waiter's OnFetched may requeue a walker or resubmit a fetch; never
  // hold mu_ across that). to_deliver is reserved out here: the detach
  // only moves flights into it.
  std::vector<std::pair<Pending, size_t>> to_deliver;  // + index in replies
  to_deliver.reserve(replies.size());
  {
    std::lock_guard<util::RwSpinLock> lock(mu_);
    Tenant& tenant = *tenants_[batch.tenant];
    if (!to_fetch.empty()) {
      ++tenant.stats.wire_requests;
      tenant.stats.wire_items += to_fetch.size();
    }
    tenant.stats.budget_refusals += refused.size();
    for (size_t i = 0; i < replies.size(); ++i) {
      Pending pending;
      if (!pending_.Take(PendingKey(batch.tenant, replies[i].first),
                         &pending)) {
        continue;
      }
      --tenants_[pending.creator.tenant]->active_calls;
      for (const Parked& joiner : pending.joiners) {
        --tenants_[joiner.tenant]->active_calls;
      }
      to_deliver.emplace_back(std::move(pending), i);
    }
  }
  if (options_.tracer != nullptr) {
    const uint64_t now_us = options_.tracer->NowUs();
    options_.tracer->Complete(
        trace_track_, "batch", batch_start_us, now_us - batch_start_us,
        "\"tenant\":" + std::to_string(batch.tenant) +
            ",\"items\":" + std::to_string(to_fetch.size()) +
            ",\"refused\":" + std::to_string(refused.size()));
  }
  // "deliver" is emitted BEFORE the waiters wake: a woken walker may emit
  // its next enqueue immediately — tracing after the wake would race that
  // event on this track and break the serial stream's byte-determinism.
  HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "deliver",
                        "\"tenant\":" + std::to_string(batch.tenant) +
                            ",\"replies\":" +
                            std::to_string(to_deliver.size()));
  {
    HW_PROF_SCOPE("pipeline/deliver");
    for (const auto& [pending, index] : to_deliver) {
      const auto& [v, reply] = replies[index];
      Deliver(pending.creator, /*creator=*/true, v, reply);
      for (const Parked& joiner : pending.joiners) {
        Deliver(joiner, /*creator=*/false, v, reply);
      }
    }
  }
  std::lock_guard<util::RwSpinLock> lock(mu_);
  --in_flight_;
  // A batch slot freed: a blocking caller may run the next batch, and a
  // stopping destructor may be waiting for the last one. Notified under
  // the lock: once it is released, the destructor may free the pipeline.
  if (blocked_callers_ > 0 || stopping_) progress_cv_.notify_all();
}

void RequestPipeline::Deliver(const Parked& parked, bool creator,
                              graph::NodeId v, const WireReply& reply) {
  if (reply.status.ok()) {
    parked.waiter->OnFetched(access::AsyncFetcher::Fetched{reply.entry,
                                                           creator});
    return;
  }
  // A joined flight refused by ANOTHER tenant's budget says nothing about
  // this tenant's own quota: the pending entry is gone, so resubmit — the
  // waiter becomes the creator (or finds the node cached) and gets an
  // answer charged against the right budget. A creator's refusal, or a
  // join on a same-tenant flight, is definitive.
  if (!creator && reply.status.code() == util::StatusCode::kBudgetExhausted &&
      reply.creator != parked.tenant) {
    auto now = FetchOrParkFor(parked.tenant, v, parked.waiter);
    if (now.has_value()) parked.waiter->OnFetched(*std::move(now));
    return;
  }
  parked.waiter->OnFetched(reply.status);
}

RequestPipelineStats RequestPipeline::stats() const {
  std::lock_guard<util::RwSpinLock> lock(mu_);
  RequestPipelineStats aggregate = retired_;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    AccumulateTenantStats(aggregate, tenant->stats);
  }
  aggregate.queue_depth = queue_ == nullptr ? 0 : queue_->queued();
  aggregate.max_queue_depth = global_max_queue_depth_;
  aggregate.depth = queue_depth_hist_;
  return aggregate;
}

TenantPipelineStats RequestPipeline::tenant_stats(TenantId tenant) const {
  std::lock_guard<util::RwSpinLock> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  TenantPipelineStats stats = tenants_[tenant]->stats;
  stats.queue_depth = queue_->queued(tenant);
  return stats;
}

size_t RequestPipeline::num_tenants() const {
  std::lock_guard<util::RwSpinLock> lock(mu_);
  return tenants_.size();
}

}  // namespace histwalk::net
