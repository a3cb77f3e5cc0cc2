#include "service/sampling_service.h"

#include <chrono>
#include <vector>

#include "util/check.h"

namespace histwalk::service {

std::string_view SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

ServiceOptions NormalizeServiceOptions(ServiceOptions options) {
  if (options.max_sessions == 0) options.max_sessions = 1;
  // Isolated tenants must not share in-flight fetches either: a
  // cross-tenant singleflight join would hand a tenant a response that
  // never lands in its own private cache. Derive the dedup scope from the
  // sharing mode so callers cannot get an inconsistent combination.
  if (!options.share_history) options.pipeline.cross_tenant_dedup = false;
  // One tracer covers the whole service: forward it into the pipeline
  // unless the caller wired a different one there explicitly.
  if (options.pipeline.tracer == nullptr) {
    options.pipeline.tracer = options.tracer;
  }
  return options;
}

}  // namespace

SamplingService::SamplingService(const access::AccessBackend* backend,
                                 ServiceOptions options)
    : backend_(backend),
      options_(NormalizeServiceOptions(std::move(options))),
      shared_cache_(options_.cache),
      pipeline_(options_.pipeline),
      pool_(/*num_threads=*/0) {
  HW_CHECK(backend_ != nullptr);
  if (options_.store != nullptr && options_.share_history) {
    // Warm start: yesterday's crawls are today's shared history. A failed
    // load (corrupt files) degrades to a cold start, reported here rather
    // than aborting a service that can still run.
    warm_start_status_ = options_.store->LoadInto(shared_cache_);
  }
}

SamplingService::~SamplingService() {
  std::vector<std::thread*> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) threads.push_back(&session->thread);
  }
  // Join with mu_ released: session threads take it to publish results.
  for (std::thread* thread : threads) {
    if (thread->joinable()) thread->join();
  }
}

uint64_t SamplingService::ClockNowUs() const {
  if (options_.clock) return options_.clock();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

util::Result<SessionId> SamplingService::Submit(const SessionOptions& options) {
  if (options.num_walkers == 0) {
    return util::Status::InvalidArgument("session needs at least one walker");
  }
  if (options.max_steps == 0 && options.query_budget == 0) {
    return util::Status::InvalidArgument(
        "session needs a stop condition (max_steps or query_budget)");
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (sessions_.size() >= options_.max_sessions &&
      options_.admission_wait_us > 0) {
    // Queue behind the cap instead of refusing outright: Detach frees a
    // slot and signals slot_cv_. Real-time deadline on purpose — an
    // admission wait is caller-visible latency even when the service
    // itself runs on a simulated clock.
    ++admission_waits_;
    ++admission_waiting_;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.admission_wait_us);
    slot_cv_.wait_until(lock, deadline, [this] {
      return sessions_.size() < options_.max_sessions;
    });
    --admission_waiting_;
  }
  if (sessions_.size() >= options_.max_sessions) {
    ++admission_refusals_;
    return util::Status::Unavailable(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " resident); detach a finished session or retry later");
  }
  if (options_.max_history_bytes != 0) {
    // Resident history: the shared cache, or — in isolated mode — the sum
    // of the resident sessions' private caches (thread-safe stats reads).
    uint64_t resident_bytes = 0;
    if (options_.share_history) {
      resident_bytes = shared_cache_.MemoryBytes();
    } else {
      for (const auto& [id, session] : sessions_) {
        resident_bytes += session->group->cache().MemoryBytes();
      }
    }
    if (resident_bytes >= options_.max_history_bytes) {
      ++admission_refusals_;
      return util::Status::Unavailable(
          "history memory limit reached (" + std::to_string(resident_bytes) +
          " of " + std::to_string(options_.max_history_bytes) +
          " bytes resident)");
    }
  }

  auto session = std::make_unique<Session>();
  session->id = next_id_++;
  session->options = options;
  if (options_.flight_recorder_capacity > 0) {
    // Per-session ring on the service clock: the report's "why was I
    // slow / refused?" tail without a full trace file.
    session->flight = std::make_unique<obs::FlightRecorder>(
        options_.flight_recorder_capacity, [this] { return ClockNowUs(); });
  }
  access::SharedAccessOptions group_options;
  group_options.query_budget = options.tenant_query_budget;
  group_options.registry = options_.registry;
  group_options.flight_recorder = session->flight.get();
  if (options_.share_history) {
    // The shared journal funnel: all tenants insert into one cache, and
    // Put's inserted-flag dedups across them, so the store sees every
    // response exactly once whoever fetched it.
    group_options.journal = options_.store;
    session->group = std::make_unique<access::SharedAccessGroup>(
        backend_, shared_cache_, group_options);
  } else {
    group_options.cache = options_.cache;
    session->group = std::make_unique<access::SharedAccessGroup>(
        backend_, group_options);
  }
  session->tenant = pipeline_.AddTenant(session->group.get(), options.weight);
  if (session->options.progress != nullptr) {
    // The tracker's charge probe reads this session's own billing group;
    // RunSession freezes it before Detach can destroy the group.
    session->options.progress->AttachCallbacks(
        [group = session->group.get()] { return group->charged_queries(); },
        options_.clock);
  }
  session->report.id = session->id;
  session->report.submit_clock_us = ClockNowUs();
  ++submitted_;

  Session* raw = session.get();
  sessions_.emplace(raw->id, std::move(session));
  raw->thread = std::thread([this, raw] { RunSession(raw); });
  return raw->id;
}

void SamplingService::RunSession(Session* session) {
  estimate::EnsembleOptions ensemble_options;
  ensemble_options.num_walkers = session->options.num_walkers;
  ensemble_options.seed = session->options.seed;
  ensemble_options.max_steps = session->options.max_steps;
  ensemble_options.query_budget = session->options.query_budget;
  ensemble_options.tracer = options_.tracer;
  obs::ProgressTracker* progress = session->options.progress.get();
  ensemble_options.progress = progress;
  auto result = estimate::RunEnsemble(
      *session->group, *pipeline_.tenant_fetcher(session->tenant),
      session->options.walker, ensemble_options, pool_);
  const uint64_t done_us = ClockNowUs();
  if (progress != nullptr) {
    // Freeze the probes while the group is still guaranteed alive (Detach
    // refuses running sessions, and state only flips under mu_ below) —
    // the shared tracker may outlive the session inside a caller's handle.
    progress->DetachCallbacks();
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (result.ok()) {
    session->report.ensemble = *std::move(result);
    session->report.charged_queries = session->group->charged_queries();
    session->report.pipeline = pipeline_.tenant_stats(session->tenant);
    if (session->flight != nullptr) {
      session->report.flight = session->flight->TakeLog();
    }
    if (progress != nullptr) {
      session->report.has_progress = true;
      session->report.progress = progress->Snapshot();
    }
    session->report.done_clock_us = done_us;
    session->state = SessionState::kDone;
    ++completed_;
  } else {
    session->error = result.status();
    session->state = SessionState::kFailed;
    ++failed_;
  }
  done_cv_.notify_all();
}

util::Result<SessionState> SamplingService::Poll(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("unknown session " + std::to_string(id));
  }
  return it->second->state;
}

util::Result<SessionReport> SamplingService::Wait(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return util::Status::NotFound("unknown session " + std::to_string(id));
    }
    Session& session = *it->second;
    if (session.state == SessionState::kDone) return session.report;
    if (session.state == SessionState::kFailed) return session.error;
    done_cv_.wait(lock);
  }
}

util::Status SamplingService::Detach(SessionId id) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return util::Status::NotFound("unknown session " + std::to_string(id));
    }
    if (it->second->state == SessionState::kRunning) {
      return util::Status::FailedPrecondition(
          "session " + std::to_string(id) + " is still running; Wait first");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    // A finished session is quiescent on the pipeline; sever its group.
    pipeline_.RemoveTenant(session->tenant);
    detached_charged_ += session->group->charged_queries();
    ++detached_;
    // The freed slot may admit a queued Submit.
    slot_cv_.notify_one();
  }
  // Join outside mu_: the thread's tail may still be returning from its
  // own publish (which needed the lock).
  if (session->thread.joinable()) session->thread.join();
  return util::Status::Ok();
}

ServiceStats SamplingService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats stats;
  stats.submitted = submitted_;
  stats.admission_refusals = admission_refusals_;
  stats.admission_waiting = admission_waiting_;
  stats.admission_waits = admission_waits_;
  stats.completed = completed_;
  stats.failed = failed_;
  stats.detached = detached_;
  stats.resident_sessions = sessions_.size();
  stats.charged_queries = detached_charged_;
  for (const auto& [id, session] : sessions_) {
    stats.charged_queries += session->group->charged_queries();
  }
  if (options_.share_history) stats.cache = shared_cache_.stats();
  stats.pipeline = pipeline_.stats();
  return stats;
}

}  // namespace histwalk::service
