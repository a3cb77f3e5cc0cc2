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
      const std::deque<QueuedId>& queue = tenant.shard_queues[shard];
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
  std::deque<QueuedId>& queue = tenant.shard_queues[shard];
  const size_t take = std::min<size_t>(max_batch, queue.size());
  out->tenant = t;
  out->ids.reserve(take);
  out->waits.reserve(take);
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

// ---- RequestPipeline --------------------------------------------------------

RequestPipeline::RequestPipeline(RequestPipelineOptions options)
    : options_(options) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.tracer != nullptr) {
    // Registered before the workers spawn so the track id is fixed by
    // wiring order, not scheduling.
    trace_track_ = options_.tracer->RegisterTrack("pipeline");
  }
  workers_.reserve(options_.depth);
  for (uint32_t t = 0; t < options_.depth; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RequestPipeline::RequestPipeline(access::SharedAccessGroup* group,
                                 RequestPipelineOptions options)
    : RequestPipeline(options) {
  HW_CHECK(group != nullptr);
  AddTenant(group, /*weight=*/1);
}

RequestPipeline::~RequestPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  std::unique_lock<std::mutex> lock(mu_);
  // Workers drain the queue before exiting, so pending_ is empty unless a
  // caller raced destruction (a use-after-scope bug on their side); fail
  // any leftovers rather than hang their waiters.
  for (auto& [key, pending] : pending_) {
    pending->promise.set_value(
        WireReply{nullptr, util::Status::Internal("pipeline destroyed")});
  }
  pending_.clear();
  // Let every FetchSharedFor call finish its accounting epilogue before
  // the members it touches go away.
  idle_cv_.wait(lock, [this] { return active_call_total_ == 0; });
}

TenantId RequestPipeline::AddTenant(access::SharedAccessGroup* group,
                                    uint32_t weight) {
  HW_CHECK(group != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  HW_CHECK(tenants_[tenant]->group != nullptr);  // double remove
  // Quiescence: no FetchSharedFor call is inside this tenant (queued,
  // blocked on any flight, or retrying) — a session whose walkers have
  // all returned satisfies this. Implies the queue is empty and no
  // pending flight was created by it.
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
  std::lock_guard<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  return &tenants_[tenant]->fetcher;
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchShared(
    graph::NodeId v) {
  return FetchSharedFor(/*tenant=*/0, v);
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchSharedFor(
    TenantId tenant, graph::NodeId v) {
  // Bracket the whole call (joins and retries included) in the tenant's
  // active-call count so RemoveTenant's quiescence check is complete.
  {
    std::lock_guard<std::mutex> lock(mu_);
    HW_CHECK(tenant < tenants_.size());
    ++tenants_[tenant]->active_calls;
    ++active_call_total_;
  }
  auto result = FetchSharedForImpl(tenant, v);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --tenants_[tenant]->active_calls;
    if (--active_call_total_ == 0 && stopping_) idle_cv_.notify_all();
  }
  return result;
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchSharedForImpl(
    TenantId tenant, graph::NodeId v) {
  while (true) {
    std::shared_future<WireReply> future;
    bool creator = false;
    // Depth 0: the group this caller's own fetch runs against.
    access::SharedAccessGroup* resolve_here = nullptr;
    {
      HW_PROF_SCOPE("pipeline/enqueue");
      std::unique_lock<std::mutex> lock(mu_);
      HW_CHECK(tenant < tenants_.size());
      if (stopping_) {
        // Destruction in progress: nobody will serve a fresh submit (this
        // also stops budget-refusal retries from re-queueing).
        return util::Status::Internal("pipeline destroyed");
      }
      Tenant& t = *tenants_[tenant];
      HW_CHECK(t.group != nullptr);
      const uint64_t key = PendingKey(tenant, v);
      auto it = pending_.find(key);
      if (it != pending_.end()) {
        // Singleflight: join the request already in flight (possibly
        // another tenant's — the shared cache serves every waiter).
        ++t.stats.dedup_joins;
        HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_,
                              "singleflight_join",
                              "\"node\":" + std::to_string(v) +
                                  ",\"tenant\":" + std::to_string(tenant));
        future = it->second->future;
      } else {
        // Did a fetch complete between the caller's cache miss and this
        // submit? Probe with Contains() first because it has no stats side
        // effects: the caller already recorded this lookup's miss, and a
        // plain Get() here would double-count a miss on every ordinary
        // submit. Get() runs only on the rare hit path (and can still race
        // an eviction, in which case we fall through and fetch for real).
        if (t.group->cache().Contains(v)) {
          if (access::HistoryCache::Entry entry = t.group->cache().Get(v)) {
            ++t.stats.late_hits;
            HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "late_hit",
                                  "\"node\":" + std::to_string(v) +
                                      ",\"tenant\":" + std::to_string(tenant));
            return access::AsyncFetcher::Fetched{std::move(entry),
                                                 /*charged_this_call=*/false};
          }
        }
        auto pending = std::make_shared<Pending>();
        pending->future = pending->promise.get_future().share();
        pending->creator = tenant;
        future = pending->future;
        pending_.emplace(key, std::move(pending));
        ++t.stats.submitted;
        HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "enqueue",
                              "\"node\":" + std::to_string(v) +
                                  ",\"tenant\":" + std::to_string(tenant));
        creator = true;
        if (options_.depth == 0) {
          // Depth 0: drained the instant it is submitted (wait 0), by this
          // caller, below and outside the lock.
          t.stats.wait.Record(0);
          t.group->obs().pipeline_wait->Observe(0);
          resolve_here = t.group;
        } else {
          queue_->Enqueue(tenant, v);
          t.stats.max_queue_depth =
              std::max(t.stats.max_queue_depth, queue_->queued(tenant));
          global_max_queue_depth_ =
              std::max(global_max_queue_depth_, queue_->queued());
          queue_depth_hist_.Record(queue_->queued());
          work_cv_.notify_one();
        }
      }
    }
    if (resolve_here != nullptr) {
      TenantQueue::Batch batch;
      batch.tenant = tenant;
      batch.ids.push_back(v);
      ProcessBatch(batch, resolve_here);
    }
    WireReply reply = future.get();
    if (reply.status.ok()) {
      return access::AsyncFetcher::Fetched{std::move(reply.entry), creator};
    }
    // A joined flight refused by ANOTHER tenant's budget says nothing
    // about this tenant's own quota: the pending entry is gone, so
    // resubmit — this call becomes the creator (or finds the node cached)
    // and gets an answer charged against the right budget. A creator's
    // refusal, or a join on a same-tenant flight, is definitive.
    if (creator || reply.status.code() != util::StatusCode::kBudgetExhausted ||
        reply.creator == tenant) {
      return reply.status;
    }
  }
}

void RequestPipeline::WorkerLoop() {
  TenantQueue::Batch batch;
  while (true) {
    access::SharedAccessGroup* group = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || (queue_ != nullptr && queue_->queued() > 0);
      });
      if (queue_ == nullptr || queue_->queued() == 0) {
        return;  // stopping and fully drained
      }
      HW_CHECK(queue_->PickBatch(options_.max_batch, &batch));
      Tenant& tenant = *tenants_[batch.tenant];
      HW_CHECK(tenant.group != nullptr);
      group = tenant.group;
      // Wait accounting happens at drain time, under the same lock as the
      // pick, so histograms are exact whatever the worker count. The same
      // waits feed the group's scraped histogram.
      for (uint64_t wait : batch.waits) {
        tenant.stats.wait.Record(wait);
        group->obs().pipeline_wait->Observe(wait);
      }
      // Leftover work belongs to another worker.
      if (queue_->queued() > 0) work_cv_.notify_one();
    }
    ProcessBatch(batch, group);
  }
}

void RequestPipeline::ProcessBatch(const TenantQueue::Batch& batch,
                                   access::SharedAccessGroup* group) {
  HW_PROF_SCOPE("pipeline/batch");
  // 'X' complete events (not B/E spans) so concurrent workers' batches
  // can't corrupt span nesting on the shared pipeline track.
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

  // Detach the Pending entries under the lock, fulfill outside it (waiters
  // resume inside promise::set_value; never hold mu_ across that).
  std::vector<std::pair<std::shared_ptr<Pending>, WireReply>> to_fulfill;
  to_fulfill.reserve(replies.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    Tenant& tenant = *tenants_[batch.tenant];
    if (!to_fetch.empty()) {
      ++tenant.stats.wire_requests;
      tenant.stats.wire_items += to_fetch.size();
    }
    tenant.stats.budget_refusals += refused.size();
    for (auto& [v, reply] : replies) {
      auto it = pending_.find(PendingKey(batch.tenant, v));
      if (it != pending_.end()) {
        to_fulfill.emplace_back(std::move(it->second), std::move(reply));
        pending_.erase(it);
      }
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
  // "deliver" is emitted BEFORE set_value: fulfilling wakes the waiting
  // walker, which may emit its next enqueue immediately — tracing after
  // the wake would race that event on this track and break the serial
  // stream's byte-determinism.
  HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "deliver",
                        "\"tenant\":" + std::to_string(batch.tenant) +
                            ",\"replies\":" +
                            std::to_string(to_fulfill.size()));
  {
    HW_PROF_SCOPE("pipeline/deliver");
    for (auto& [pending, reply] : to_fulfill) {
      pending->promise.set_value(std::move(reply));
    }
  }
}

RequestPipelineStats RequestPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  TenantPipelineStats stats = tenants_[tenant]->stats;
  stats.queue_depth = queue_->queued(tenant);
  return stats;
}

size_t RequestPipeline::num_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace histwalk::net
