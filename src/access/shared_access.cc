#include "access/shared_access.h"

#include <string>

#include "access/history_journal.h"
#include "access/history_tier.h"
#include "util/check.h"

namespace histwalk::access {

namespace {

// Resolved once per group so the miss path costs one cached pointer
// dereference plus a relaxed striped add, never a registry name lookup.
GroupObsCounters ResolveObsCounters(obs::Registry* registry) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Global();
  GroupObsCounters obs;
  obs.cache_hits = reg.counter("hw_access_cache_hits_total");
  obs.cache_misses = reg.counter("hw_access_cache_misses_total");
  obs.store_hits = reg.counter("hw_access_store_hits_total");
  obs.singleflight_joins = reg.counter("hw_net_singleflight_joins_total");
  obs.wire_fetches = reg.counter("hw_net_wire_fetches_total");
  obs.budget_refusals = reg.counter("hw_access_budget_refusals_total");
  obs.fetch_errors = reg.counter("hw_access_fetch_errors_total");
  obs.pipeline_wait = reg.histogram("hw_net_pipeline_wait_items");
  return obs;
}

std::string ProbeArgs(const HistoryCache& cache, graph::NodeId v,
                      const char* result) {
  return "\"node\":" + std::to_string(v) + ",\"shard\":" +
         std::to_string(HistoryCache::ShardOf(v, cache.num_shards())) +
         ",\"result\":\"" + result + "\"";
}

}  // namespace

SharedAccessGroup::SharedAccessGroup(const AccessBackend* backend,
                                     SharedAccessOptions options)
    : backend_(backend),
      options_(options),
      owned_cache_(std::make_unique<HistoryCache>(options.cache)),
      cache_(owned_cache_.get()),
      obs_(ResolveObsCounters(options.registry)) {
  HW_CHECK(backend_ != nullptr);
}

SharedAccessGroup::SharedAccessGroup(const AccessBackend* backend,
                                     HistoryCache& shared_cache,
                                     SharedAccessOptions options)
    : backend_(backend),
      options_(options),
      cache_(&shared_cache),
      obs_(ResolveObsCounters(options.registry)) {
  HW_CHECK(backend_ != nullptr);
}

std::unique_ptr<SharedAccess> SharedAccessGroup::MakeView(
    AsyncFetcher& resolver) {
  return std::make_unique<SharedAccess>(this, &resolver);
}

uint64_t SharedAccessGroup::remaining_budget() const {
  if (options_.query_budget == 0) return UINT64_MAX;
  uint64_t charged = charged_queries();
  return charged >= options_.query_budget ? 0
                                          : options_.query_budget - charged;
}

void SharedAccessGroup::ResetAll() {
  cache_->Clear();
  charged_.store(0, std::memory_order_relaxed);
}

std::vector<HistoryCache::Entry> SharedAccessGroup::StoreFetchedBatch(
    std::span<const HistoryCache::ImportEntry> entries) {
  std::vector<HistoryCache::Entry> stored(entries.size());
  std::unique_ptr<bool[]> inserted(new bool[entries.size()]{});
  cache_->PutBatch(entries, stored.data(), inserted.get());
  if (HistoryJournal* journal = options_.journal) {
    journal->OnCacheInsertBatch(entries, inserted.get(), *cache_);
  }
  return stored;
}

HistoryCache::Entry SharedAccessGroup::StoreWarm(
    graph::NodeId v, std::span<const graph::NodeId> neighbors) {
  // Deliberately bypasses the journal (the record came FROM durable
  // history) and the budget/wire accounting (history is free).
  return cache_->Put(v, neighbors, nullptr);
}

bool SharedAccessGroup::TryCharge() {
  if (options_.query_budget == 0) {
    charged_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  uint64_t current = charged_.load(std::memory_order_relaxed);
  while (current < options_.query_budget) {
    if (charged_.compare_exchange_weak(current, current + 1,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

SharedAccess::SharedAccess(SharedAccessGroup* group, AsyncFetcher* resolver)
    : group_(group),
      resolver_(resolver),
      view_id_(group->next_view_id_.fetch_add(1, std::memory_order_relaxed)),
      queried_(group->backend()->num_nodes(), false) {
  HW_CHECK(group_ != nullptr);
  HW_CHECK(resolver_ != nullptr);
}

void SharedAccess::RecordMiss(graph::NodeId v, obs::Counter* counter,
                              const char* result, obs::FlightEventKind kind,
                              uint64_t start_us) {
  counter->Inc();
  HW_TRACE_INSTANT_ARGS(tracer_, trace_track_, "cache_probe",
                        ProbeArgs(*group_->cache_, v, result));
  obs::FlightRecorder* flight = group_->options_.flight_recorder;
  if (flight == nullptr) return;
  obs::FlightEvent event;
  event.node = v;
  event.actor = view_id_;
  event.kind = kind;
  event.start_us = start_us;
  event.end_us = flight->NowUs();
  flight->Record(event);
}

void SharedAccess::AccountServed(graph::NodeId v) {
  ++stats_.total_queries;
  if (queried_[v]) {
    ++stats_.cache_hits;
  } else {
    queried_[v] = true;
    ++stats_.unique_queries;
  }
}

util::Result<HistoryCache::Entry> SharedAccess::TakeFetched(
    graph::NodeId v, util::Result<AsyncFetcher::Fetched> fetched,
    uint64_t miss_start_us) {
  const GroupObsCounters& obs = group_->obs_;
  if (!fetched.ok()) {
    if (fetched.status().code() == util::StatusCode::kBudgetExhausted) {
      RecordMiss(v, obs.budget_refusals, "refused",
                 obs::FlightEventKind::kBudgetRefusal, miss_start_us);
    } else {
      RecordMiss(v, obs.fetch_errors, "error", obs::FlightEventKind::kError,
                 miss_start_us);
    }
    return fetched.status();
  }
  if (fetched->charged_this_call) {
    ++charged_fetches_;
    RecordMiss(v, obs.wire_fetches, "wire", obs::FlightEventKind::kWireFetch,
               miss_start_us);
  } else {
    RecordMiss(v, obs.singleflight_joins, "join",
               obs::FlightEventKind::kSingleflightJoin, miss_start_us);
  }
  return std::move(fetched->entry);
}

util::Result<std::span<const graph::NodeId>> SharedAccess::Neighbors(
    graph::NodeId v) {
  if (v >= num_nodes()) {
    return util::Status::OutOfRange("unknown node id");
  }
  const GroupObsCounters& obs = group_->obs_;
  HistoryCache::Entry entry;
  if (parked_on_ != graph::kInvalidNode) {
    // The re-run of a parked step asks for the same node and takes the
    // landed outcome instead of probing the cache again.
    HW_CHECK(v == parked_on_ && landed_.has_value());
    parked_on_ = graph::kInvalidNode;
    auto taken = TakeFetched(v, *std::move(landed_), parked_start_us_);
    landed_.reset();
    if (!taken.ok()) return taken.status();
    entry = *std::move(taken);
  } else if ((entry = group_->cache_->Get(v)) != nullptr) {
    obs.cache_hits->Inc();
    HW_TRACE_INSTANT_ARGS(tracer_, trace_track_, "cache_probe",
                          ProbeArgs(*group_->cache_, v, "hit"));
  } else {
    // The one miss chain: tier -> resolver. Every outcome below attributes
    // this miss to exactly one counter/flight kind — the invariant
    // obs_identity_test pins.
    obs.cache_misses->Inc();
    obs::FlightRecorder* flight = group_->options_.flight_recorder;
    const uint64_t miss_start_us = flight != nullptr ? flight->NowUs() : 0;
    HistoryTier* tier = group_->options_.tier;
    HistoryCache::Entry warm = tier != nullptr ? tier->Lookup(v) : nullptr;
    if (warm != nullptr) {
      // Durable history answers the miss without wire, budget or journal
      // traffic.
      entry = group_->StoreWarm(v, std::span<const graph::NodeId>(*warm));
      RecordMiss(v, obs.store_hits, "store", obs::FlightEventKind::kStoreHit,
                 miss_start_us);
    } else {
      // The resolver deduplicates this fetch with the other walkers'
      // outstanding misses (singleflight) and charges the budget once per
      // wire fetch.
      std::optional<util::Result<AsyncFetcher::Fetched>> fetched;
      if (waiter_ == nullptr) {
        fetched.emplace(resolver_->FetchShared(v));
      } else {
        // Mark the park BEFORE submitting: the fetch may land, and Land()
        // run on another thread, before FetchOrPark returns.
        parked_on_ = v;
        parked_start_us_ = miss_start_us;
        fetched = resolver_->FetchOrPark(v, waiter_);
        if (!fetched.has_value()) return util::Status::Parked();
        parked_on_ = graph::kInvalidNode;
      }
      auto taken = TakeFetched(v, *std::move(fetched), miss_start_us);
      if (!taken.ok()) return taken.status();
      entry = *std::move(taken);
    }
  }
  AccountServed(v);
  retained_[retain_slot_] = entry;
  retain_slot_ = (retain_slot_ + 1) % std::size(retained_);
  return util::Result<std::span<const graph::NodeId>>(
      std::span<const graph::NodeId>(*entry));
}

util::Result<double> SharedAccess::Attribute(graph::NodeId v,
                                             attr::AttrId attr) const {
  if (v >= num_nodes()) {
    return util::Status::OutOfRange("unknown node id");
  }
  return group_->backend_->FetchAttribute(v, attr);
}

util::Result<uint32_t> SharedAccess::SummaryDegree(graph::NodeId v) const {
  if (v >= num_nodes()) {
    return util::Status::OutOfRange("unknown node id");
  }
  return group_->backend_->FetchSummaryDegree(v);
}

void SharedAccess::ResetAccounting() {
  stats_ = QueryStats{};
  queried_.assign(group_->backend()->num_nodes(), false);
  charged_fetches_ = 0;
  for (auto& handle : retained_) handle.reset();
  // A parked miss belongs to a step in progress; accounting resets happen
  // between walks, never inside one.
  HW_CHECK(parked_on_ == graph::kInvalidNode);
}

}  // namespace histwalk::access
