#ifndef HISTWALK_SERVICE_SAMPLING_SERVICE_H_
#define HISTWALK_SERVICE_SAMPLING_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "access/history_cache.h"
#include "access/shared_access.h"
#include "core/walker_factory.h"
#include "estimate/ensemble_runner.h"
#include "net/request_pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "store/history_store.h"

// The multi-tenant sampling service: the layer that turns the library into
// the system the ROADMAP aims at — one long-lived process serving many
// concurrent sampling tasks against one rate-limited remote OSN.
//
// A SamplingService owns the communal machinery once:
//
//  * one shared HistoryCache — every neighbor list ANY tenant fetches is
//    history for all of them (the paper's intra-walk reuse, generalized
//    across tenants);
//  * one multi-tenant net::RequestPipeline — a single wire funnel with
//    per-shard batching, cross-tenant singleflight (two tenants missing
//    the same node pay one wire fetch) and a weighted-fair scheduler so a
//    greedy tenant cannot starve light ones;
//  * optionally one store::HistoryStore — the shared journal funnel: every
//    new insert into the shared cache, whoever fetched it, is journaled
//    exactly once, and the service warm-starts from the store at
//    construction.
//
// Each SESSION (tenant) gets its own access::SharedAccessGroup view over
// the shared cache: its own walker spec, seed, per-walker stop conditions,
// its own hard query quota (tenant_query_budget) and its own billing
// (charged_queries) — so per-tenant accounting stays exact while the
// history is communal. Sessions run asynchronously: each has a thread
// that waits for its run, while the walkers of ALL sessions are multiplexed
// on the service's one step pool (one stepper per core) — a walker whose
// miss waits for the wire parks on the shared pipeline and holds no
// thread, and idle steppers carry the pipeline's batches.
//
// Lifecycle: Submit() -> admission check (typed kUnavailable refusals when
// the resident-session or history-memory limit is hit; nothing is started
// or charged) -> the session runs -> Poll()/Wait() observe it -> Detach()
// drops a finished session and frees its admission slot. The destructor
// joins everything.
//
// Determinism: a session's traces and per-walker QueryStats depend only on
// its own (seed, spec, stop conditions) — never on co-tenants, cache
// state, scheduler policy or pipeline depth (the runner's determinism
// contract). What sharing changes is the BILL: charged_queries,
// wire_requests and waits. The exception is a binding tenant_query_budget:
// whether a node is charged depends on what co-tenants already fetched, so
// a budget-cut session's traces are only reproducible given the same
// co-tenant history; use per-walker query_budget when reproducible cuts
// matter (same trade as RunEnsemble's group budget).
//
// Isolation baseline: share_history = false gives every session a PRIVATE
// cache (and per-tenant singleflight only) behind the same pipeline and
// backend — the control arm the service_soak experiment measures the
// shared mode against. The store is not attached in isolated mode (the
// durable history is the shared cache's).

namespace histwalk::service {

using SessionId = uint64_t;

enum class SessionState {
  kRunning,
  kDone,    // result available until Detach
  kFailed,  // setup or run error; Wait returns the status
};

// Stable lower-case name ("running", "done", "failed").
std::string_view SessionStateName(SessionState state);

struct SessionOptions {
  core::WalkerSpec walker;
  uint32_t num_walkers = 4;
  uint64_t seed = 1;
  // Per-walker stop conditions, estimate::EnsembleOptions semantics; at
  // least one must be set.
  uint64_t max_steps = 0;
  uint64_t query_budget = 0;
  // Hard per-tenant fetch quota enforced by this session's group (0 =
  // unlimited). Refusals surface as kBudgetExhausted trace cuts, exactly
  // like a single-ensemble group budget.
  uint64_t tenant_query_budget = 0;
  // Fair-scheduler weight: batches per scheduling cycle relative to other
  // tenants. Clamped to >= 1.
  uint32_t weight = 1;
  // Optional streaming telemetry for this session: walkers feed the
  // tracker on every step, Submit wires its charged-queries probe to the
  // session's billing group (and its clock to the service clock), and
  // the final snapshot lands in SessionReport::progress. The tracker is
  // shared so the submitter can keep polling Snapshot() while — and
  // after — the session runs; the service freezes the probes before the
  // group can die.
  std::shared_ptr<obs::ProgressTracker> progress;
};

struct ServiceOptions {
  // Admission cap on RESIDENT sessions (running + finished-but-undetached;
  // a finished session still holds its results and tenant registration).
  // Clamped to >= 1.
  uint32_t max_sessions = 64;
  // Bounded admission wait: when the session cap is hit, Submit queues
  // behind departing sessions for up to this many REAL microseconds
  // (steady clock, independent of `clock`) before giving up with the
  // usual kUnavailable refusal. 0 = refuse immediately (the historical
  // behavior). Only the session cap queues; the history-memory guard
  // still refuses immediately, because detaching sessions is what frees
  // slots but only eviction frees memory. Waiters are not FIFO-ordered.
  uint64_t admission_wait_us = 0;
  // Refuse admission while resident history — the shared cache, or in
  // isolated mode the summed private caches — holds at least this many
  // bytes (0 = unlimited). A coarse memory guard: existing sessions keep
  // running, new ones are turned away until eviction or a bigger box.
  uint64_t max_history_bytes = 0;
  // Shared history (the point of the service) vs per-session private
  // caches (the isolated control arm).
  bool share_history = true;
  access::HistoryCacheOptions cache;
  // pipeline.cross_tenant_dedup is derived from share_history at
  // construction (isolated tenants must not share in-flight fetches);
  // whatever the caller sets is overridden when share_history is false.
  net::RequestPipelineOptions pipeline;
  // Optional durable journal for the shared cache; must outlive the
  // service. LoadInto(shared cache) runs at construction (warm start).
  // Ignored when share_history is false.
  store::HistoryStore* store = nullptr;
  // Clock used for session latency accounting (submit/done stamps), in
  // microseconds. Hook it to RemoteBackend::sim_now_us to measure
  // simulated wall-clock; nullptr = process steady clock.
  std::function<uint64_t()> clock;
  // Metrics registry every session's group pushes its miss-outcome
  // counters into (hw_access_* / hw_net_* names); null = obs::Global().
  obs::Registry* registry = nullptr;
  // Optional tracer shared by the service pipeline and every session's
  // views; must outlive the service. Forwarded into pipeline.tracer when
  // the caller left that unset.
  obs::Tracer* tracer = nullptr;
  // Per-session flight-recorder ring size: the last N miss-path outcomes
  // (wire fetch / store hit / join / refusal / error) surfaced in
  // SessionReport::flight. 0 disables recording.
  uint32_t flight_recorder_capacity = 128;
};

// Everything a finished session reports, copyable after Wait().
struct SessionReport {
  SessionId id = 0;
  // Traces, per-walker stats, merged samples — estimate layer semantics.
  estimate::EnsembleResult ensemble;
  // This tenant's wire traffic, queue waits and budget refusals on the
  // shared pipeline.
  net::TenantPipelineStats pipeline;
  // Backend fetches billed to this tenant (its group's counter).
  uint64_t charged_queries = 0;
  // The tail of this session's miss-path outcomes (bounded ring, see
  // ServiceOptions::flight_recorder_capacity). Empty when disabled.
  obs::FlightLog flight;
  // Final convergence snapshot (has_progress set when the session was
  // submitted with a ProgressTracker).
  bool has_progress = false;
  obs::ProgressSnapshot progress;
  uint64_t submit_clock_us = 0;
  uint64_t done_clock_us = 0;
  uint64_t LatencyUs() const { return done_clock_us - submit_clock_us; }
};

struct ServiceStats {
  uint64_t submitted = 0;           // sessions admitted
  uint64_t admission_refusals = 0;  // typed kUnavailable turndowns
  uint64_t admission_waiting = 0;   // Submits queued behind the cap now
  uint64_t admission_waits = 0;     // Submits that ever queued
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t detached = 0;
  uint64_t resident_sessions = 0;  // running + undetached right now
  // Backend fetches billed across all sessions ever admitted (detached
  // sessions included).
  uint64_t charged_queries = 0;
  access::HistoryCacheStats cache;        // the shared cache (zeros when
                                          // share_history is false)
  net::RequestPipelineStats pipeline;     // aggregate over tenants
};

class SamplingService {
 public:
  // `backend` must outlive the service. Wrap it in a net::RemoteBackend to
  // run against the simulated wire.
  SamplingService(const access::AccessBackend* backend,
                  ServiceOptions options = {});
  // Joins every session thread (running sessions finish their walks).
  ~SamplingService();

  SamplingService(const SamplingService&) = delete;
  SamplingService& operator=(const SamplingService&) = delete;

  // Admits and starts a session. kUnavailable when the resident-session or
  // history-memory limit refuses it (IsUnavailable; nothing started);
  // kInvalidArgument on malformed options. Thread-safe.
  util::Result<SessionId> Submit(const SessionOptions& options);

  // Current state; kNotFound for unknown/detached ids. Thread-safe.
  util::Result<SessionState> Poll(SessionId id) const;

  // Blocks until the session leaves kRunning, then returns a copy of its
  // report (kDone) or the error that ended it (kFailed). The session stays
  // resident either way until Detach. Thread-safe.
  util::Result<SessionReport> Wait(SessionId id);

  // Drops a FINISHED session: frees its admission slot, its tenant
  // registration and its report. kFailedPrecondition while it is still
  // running (wait first), kNotFound for unknown ids. Thread-safe.
  util::Status Detach(SessionId id);

  ServiceStats stats() const;
  // OK, or why the construction-time warm start from options.store fell
  // back to a cold cache (e.g. kDataLoss on a corrupt snapshot).
  const util::Status& warm_start_status() const { return warm_start_status_; }
  const access::HistoryCache& shared_cache() const { return shared_cache_; }
  const net::RequestPipeline& pipeline() const { return pipeline_; }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Session {
    SessionId id = 0;
    SessionOptions options;
    SessionState state = SessionState::kRunning;
    util::Status error;  // kFailed detail
    SessionReport report;
    std::unique_ptr<obs::FlightRecorder> flight;  // outlives the group
    std::unique_ptr<access::SharedAccessGroup> group;
    net::TenantId tenant = 0;
    std::thread thread;  // joined by Detach or the destructor
  };

  uint64_t ClockNowUs() const;
  void RunSession(Session* session);

  const access::AccessBackend* backend_;
  ServiceOptions options_;
  access::HistoryCache shared_cache_;
  net::RequestPipeline pipeline_;
  estimate::StepPool pool_;  // every session's walkers run here
  util::Status warm_start_status_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  // signaled on session completion
  std::condition_variable slot_cv_;  // signaled when Detach frees a slot
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  SessionId next_id_ = 1;
  uint64_t submitted_ = 0;
  uint64_t admission_refusals_ = 0;
  uint64_t admission_waiting_ = 0;
  uint64_t admission_waits_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t detached_ = 0;
  uint64_t detached_charged_ = 0;  // charged_queries of detached sessions
};

}  // namespace histwalk::service

#endif  // HISTWALK_SERVICE_SAMPLING_SERVICE_H_
