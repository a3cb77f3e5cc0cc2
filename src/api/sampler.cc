#include "api/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "estimate/estimators.h"
#include "rpc/client.h"
#include "util/check.h"

namespace histwalk::api {

std::string_view ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kInline:
      return "inline";
    case ExecutionMode::kPipelined:
      return "pipelined";
    case ExecutionMode::kService:
      return "service";
    case ExecutionMode::kRemote:
      return "remote";
  }
  return "unknown";
}

std::string_view RunStateName(RunState state) {
  switch (state) {
    case RunState::kRunning:
      return "running";
    case RunState::kDone:
      return "done";
    case RunState::kFailed:
      return "failed";
  }
  return "unknown";
}

// One run's shared session state. Thread modes transition `state` on the
// worker thread; service mode mirrors the service session until the first
// Wait caches the report (and detaches the session) under `mu`.
struct RunHandle::Shared {
  Sampler* sampler = nullptr;
  ExecutionMode mode = ExecutionMode::kInline;
  core::WalkerSpec spec;  // for estimand bias probing at report time

  mutable std::mutex mu;
  std::condition_variable cv;
  RunState state = RunState::kRunning;
  util::Status error;
  RunReport report;
  bool canceled = false;
  // Thread modes: the worker; joined by Wait/Cancel or the Sampler.
  std::thread thread;
  // The run's streaming tracker (null for untracked runs); set before the
  // handle escapes, immutable afterwards, so Progress() needs no lock.
  std::shared_ptr<obs::ProgressTracker> progress;
  // Service mode.
  service::SessionId session = 0;
  bool report_cached = false;  // Wait retrieved + detached the session
  bool waiting = false;        // a Wait is blocked inside the service
  // Remote mode: the wire-session proxy every handle method delegates to
  // (it carries its own synchronization and report cache).
  std::unique_ptr<rpc::RemoteRunHandle> remote;

  // Waits until the run leaves kRunning and joins the worker thread
  // (thread modes). Exactly one caller steals the thread object; the lock
  // is dropped around the join.
  void WaitDoneLocked(std::unique_lock<std::mutex>& lock) {
    cv.wait(lock, [this] { return state != RunState::kRunning; });
    if (thread.joinable()) {
      std::thread worker = std::move(thread);
      lock.unlock();
      worker.join();
      lock.lock();
    }
  }
};

namespace {

util::Status CanceledError() {
  return util::Status::FailedPrecondition("run was canceled");
}

obs::Sample MakeSample(const char* name, obs::SampleKind kind,
                       uint64_t value) {
  obs::Sample sample;
  sample.name = name;
  sample.kind = kind;
  sample.value = static_cast<int64_t>(value);
  return sample;
}

// The hw_est_* convergence gauges for one progress snapshot; `labels`
// distinguishes service sessions (session="<id>") and is empty in thread
// modes.
void AppendEstimateSamples(std::vector<obs::Sample>& out,
                           const obs::ProgressSnapshot& snap,
                           const std::string& labels) {
  auto add_double = [&](const char* name, double value) {
    obs::Sample sample;
    sample.name = name;
    sample.labels = labels;
    sample.kind = obs::SampleKind::kGauge;
    sample.is_double = true;
    sample.dvalue = value;
    out.push_back(std::move(sample));
  };
  auto add_int = [&](const char* name, uint64_t value) {
    obs::Sample sample = MakeSample(name, obs::SampleKind::kGauge, value);
    sample.labels = labels;
    out.push_back(std::move(sample));
  };
  add_double("hw_est_estimate", snap.estimate);
  add_double("hw_est_std_error", snap.std_error);
  add_double("hw_est_ci_half_width", snap.ci_half_width);
  add_double("hw_est_confidence", snap.confidence);
  add_double("hw_est_ess", snap.ess);
  add_double("hw_est_r_hat", snap.r_hat);
  add_int("hw_est_steps", snap.total_steps);
  add_int("hw_est_num_batches", snap.num_batches);
}

void AppendCacheSamples(std::vector<obs::Sample>& out,
                        const access::HistoryCacheStats& stats) {
  using obs::SampleKind;
  out.push_back(MakeSample("hw_cache_hits_total", SampleKind::kCounter,
                           stats.hits));
  out.push_back(MakeSample("hw_cache_misses_total", SampleKind::kCounter,
                           stats.misses));
  out.push_back(MakeSample("hw_cache_insertions_total", SampleKind::kCounter,
                           stats.insertions));
  out.push_back(MakeSample("hw_cache_evictions_total", SampleKind::kCounter,
                           stats.evictions));
  out.push_back(
      MakeSample("hw_cache_entries", SampleKind::kGauge, stats.entries));
  out.push_back(MakeSample("hw_cache_bytes", SampleKind::kGauge, stats.bytes));
}

// The per-shard heatmap: hw_cache_shard_* samples labelled shard="N", so
// shard imbalance (and, with profile_locks, shard-lock contention) is
// scrapeable next to the aggregate hw_cache_* family.
void AppendShardHeatSamples(std::vector<obs::Sample>& out,
                            const access::HistoryCache& cache) {
  using obs::SampleKind;
  for (uint32_t s = 0; s < cache.num_shards(); ++s) {
    const access::HistoryCacheShardHeat heat = cache.shard_heat(s);
    const std::string shard = obs::RenderLabel("shard", std::to_string(s));
    auto add = [&](const char* name, SampleKind kind, uint64_t value) {
      obs::Sample sample = MakeSample(name, kind, value);
      sample.labels = shard;
      out.push_back(std::move(sample));
    };
    add("hw_cache_shard_hits_total", SampleKind::kCounter, heat.hits);
    add("hw_cache_shard_misses_total", SampleKind::kCounter, heat.misses);
    add("hw_cache_shard_evictions_total", SampleKind::kCounter,
        heat.evictions);
    add("hw_cache_shard_entries", SampleKind::kGauge, heat.entries);
    add("hw_cache_shard_bytes", SampleKind::kGauge, heat.bytes);
    obs::Sample sweep;
    sweep.name = "hw_cache_shard_sweep_len";
    sweep.labels = shard;
    sweep.kind = SampleKind::kHistogram;
    sweep.hist = heat.sweep;
    out.push_back(std::move(sweep));
    if (cache.profile_locks()) {
      auto add_lock = [&](const char* name, const char* lock_mode,
                          uint64_t value) {
        obs::Sample sample = MakeSample(name, SampleKind::kCounter, value);
        sample.labels = obs::RenderLabel("mode", lock_mode) + "," + shard;
        out.push_back(std::move(sample));
      };
      add_lock("hw_cache_shard_lock_acquires_total", "shared",
               heat.lock_shared_acquires);
      add_lock("hw_cache_shard_lock_contended_total", "shared",
               heat.lock_shared_contended);
      add_lock("hw_cache_shard_lock_acquires_total", "exclusive",
               heat.lock_exclusive_acquires);
      add_lock("hw_cache_shard_lock_contended_total", "exclusive",
               heat.lock_exclusive_contended);
    }
  }
}

}  // namespace

RunState RunHandle::Poll() const {
  // An empty handle has no run to be running; report it as failed, the
  // recoverable analogue of Wait/Report's FailedPrecondition.
  if (shared_ == nullptr) return RunState::kFailed;
  if (shared_->mode == ExecutionMode::kRemote) return shared_->remote->Poll();
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->mode != ExecutionMode::kService || shared_->report_cached ||
      shared_->waiting) {
    return shared_->state;
  }
  auto polled = shared_->sampler->service()->Poll(shared_->session);
  if (!polled.ok()) return shared_->state;  // detach race: state is cached
  switch (*polled) {
    case service::SessionState::kRunning:
      return RunState::kRunning;
    case service::SessionState::kDone:
      return RunState::kDone;
    case service::SessionState::kFailed:
      return RunState::kFailed;
  }
  return shared_->state;
}

util::Result<RunReport> RunHandle::Wait() {
  if (shared_ == nullptr) {
    return util::Status::FailedPrecondition("Wait() on an empty RunHandle");
  }
  if (shared_->mode == ExecutionMode::kRemote) return shared_->remote->Wait();
  Shared& shared = *shared_;
  std::unique_lock<std::mutex> lock(shared.mu);
  if (shared.mode == ExecutionMode::kService) {
    // One retriever at a time; later callers see the cached copy.
    shared.cv.wait(lock, [&] { return !shared.waiting; });
    if (!shared.report_cached) {
      shared.waiting = true;
      lock.unlock();
      auto session = shared.sampler->service()->Wait(shared.session);
      RunReport report;
      util::Status status;
      if (session.ok()) {
        report.ensemble = std::move(session->ensemble);
        report.charged_queries = session->charged_queries;
        report.tenant = session->pipeline;
        report.latency_us = session->LatencyUs();
        report.flight = std::move(session->flight);
        status = shared.sampler->FinishReport(shared.spec,
                                              shared.progress.get(), &report);
      } else {
        status = session.status();
      }
      lock.lock();
      shared.waiting = false;
      shared.report_cached = true;
      if (status.ok()) {
        shared.report = std::move(report);
        shared.state = RunState::kDone;
      } else {
        shared.error = std::move(status);
        shared.state = RunState::kFailed;
      }
      shared.cv.notify_all();
      lock.unlock();
      // The session's admission slot frees as soon as the report is safe.
      (void)shared.sampler->service()->Detach(shared.session);
      lock.lock();
    }
  } else {
    shared.WaitDoneLocked(lock);
  }
  if (shared.canceled) return CanceledError();
  if (shared.state == RunState::kFailed) return shared.error;
  return shared.report;
}

util::Result<RunReport> RunHandle::Report() const {
  if (shared_ == nullptr) {
    return util::Status::FailedPrecondition("Report() on an empty RunHandle");
  }
  if (shared_->mode == ExecutionMode::kRemote) {
    return shared_->remote->Report();
  }
  if (shared_->mode == ExecutionMode::kService) {
    // Done sessions resolve without blocking (the service's Wait returns
    // immediately); running ones are refused rather than waited out.
    if (Poll() == RunState::kRunning) {
      return util::Status::Unavailable("run still in flight");
    }
    return const_cast<RunHandle*>(this)->Wait();
  }
  std::lock_guard<std::mutex> lock(shared_->mu);
  if (shared_->state == RunState::kRunning) {
    return util::Status::Unavailable("run still in flight");
  }
  if (shared_->canceled) return CanceledError();
  if (shared_->state == RunState::kFailed) return shared_->error;
  return shared_->report;
}

obs::ProgressSnapshot RunHandle::Progress() const {
  if (shared_ == nullptr) return {};
  if (shared_->mode == ExecutionMode::kRemote) {
    return shared_->remote->Progress();
  }
  if (shared_->progress == nullptr) return {};
  return shared_->progress->Snapshot();
}

void RunHandle::Cancel() {
  if (shared_ == nullptr) return;
  if (shared_->mode == ExecutionMode::kRemote) {
    shared_->remote->Cancel();
    return;
  }
  // Cooperative: wait the walk out, then discard the report. Service mode
  // also frees the admission slot (Wait detaches).
  (void)Wait();
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->canceled = true;
  shared_->report = RunReport{};
  if (shared_->state == RunState::kDone) {
    shared_->state = RunState::kFailed;
    shared_->error = CanceledError();
  }
}

// ---- SamplerBuilder ---------------------------------------------------

SamplerBuilder& SamplerBuilder::OverGraph(
    const graph::Graph* graph, const attr::AttributeTable* attributes) {
  graph_ = graph;
  attributes_ = attributes;
  external_backend_ = nullptr;
  return *this;
}

SamplerBuilder& SamplerBuilder::OverBackend(
    const access::AccessBackend* backend) {
  external_backend_ = backend;
  graph_ = nullptr;
  attributes_ = nullptr;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithRemoteWire(
    net::LatencyModelOptions latency) {
  has_wire_ = true;
  latency_ = latency;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithCache(access::HistoryCacheOptions cache) {
  cache_ = cache;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithGroupQueryBudget(uint64_t query_budget) {
  group_query_budget_ = query_budget;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithHistoryStore(
    store::HistoryStoreOptions options) {
  has_owned_store_ = true;
  store_options_ = std::move(options);
  external_store_ = nullptr;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithHistoryStore(store::HistoryStore* store) {
  external_store_ = store;
  has_owned_store_ = false;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithWarmStart(bool warm_start) {
  warm_start_ = warm_start;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithStoreReadTier(bool read_tier) {
  store_read_tier_ = read_tier;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithObservability(ObservabilityOptions obs) {
  has_obs_ = true;
  obs_ = obs;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithTelemetryServer(uint16_t port) {
  has_telemetry_ = true;
  telemetry_port_ = port;
  return *this;
}

SamplerBuilder& SamplerBuilder::RunInline(unsigned num_threads) {
  mode_ = ExecutionMode::kInline;
  pipeline_ = {.depth = 0};
  run_threads_ =
      num_threads != 0 ? num_threads : std::thread::hardware_concurrency();
  return *this;
}

SamplerBuilder& SamplerBuilder::RunPipelined(
    net::RequestPipelineOptions pipeline) {
  mode_ = ExecutionMode::kPipelined;
  pipeline_ = pipeline;
  run_threads_ = 0;  // one stepper per core
  return *this;
}

SamplerBuilder& SamplerBuilder::RunAsService(ServiceConfig service) {
  mode_ = ExecutionMode::kService;
  service_ = std::move(service);
  return *this;
}

SamplerBuilder& SamplerBuilder::WithRemoteService(std::string endpoint,
                                                  uint64_t rpc_timeout_ms) {
  mode_ = ExecutionMode::kRemote;
  remote_endpoint_ = std::move(endpoint);
  remote_rpc_timeout_ms_ = rpc_timeout_ms;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithWalker(core::WalkerSpec spec) {
  defaults_.walker = std::move(spec);
  return *this;
}

SamplerBuilder& SamplerBuilder::WithEnsemble(uint32_t num_walkers,
                                             uint64_t seed) {
  defaults_.num_walkers = num_walkers;
  defaults_.seed = seed;
  return *this;
}

SamplerBuilder& SamplerBuilder::StopAfterSteps(uint64_t max_steps) {
  defaults_.max_steps = max_steps;
  return *this;
}

SamplerBuilder& SamplerBuilder::StopAfterQueries(
    uint64_t per_walker_query_budget) {
  defaults_.query_budget = per_walker_query_budget;
  return *this;
}

SamplerBuilder& SamplerBuilder::EstimateAverageDegree() {
  estimand_.average_degree = true;
  estimand_.attribute.clear();
  return *this;
}

SamplerBuilder& SamplerBuilder::EstimateAttributeMean(std::string attribute) {
  estimand_.attribute = std::move(attribute);
  estimand_.average_degree = false;
  return *this;
}

SamplerBuilder& SamplerBuilder::TrackProgress(uint32_t interval) {
  defaults_.progress_interval = interval;
  return *this;
}

SamplerBuilder& SamplerBuilder::StopAtCiHalfWidth(double target) {
  defaults_.stop_at_ci_half_width = target;
  return *this;
}

SamplerBuilder& SamplerBuilder::WithConfidenceLevel(double confidence) {
  confidence_ = confidence;
  return *this;
}

util::Result<std::unique_ptr<Sampler>> SamplerBuilder::Build() const {
  if (mode_ == ExecutionMode::kRemote) {
    // Everything that composes the sampling STACK is daemon-side
    // configuration: a remote sampler is a connection plus run defaults,
    // and silently ignoring stack options would mislead worse than
    // refusing them.
    if (graph_ != nullptr || external_backend_ != nullptr) {
      return util::Status::InvalidArgument(
          "WithRemoteService samples the daemon's backend; drop "
          "OverGraph/OverBackend");
    }
    if (has_wire_ || has_owned_store_ || external_store_ != nullptr ||
        store_read_tier_ || group_query_budget_ != 0) {
      return util::Status::InvalidArgument(
          "wire/store/budget options are daemon-side configuration; a "
          "remote sampler holds only the connection");
    }
    if (has_obs_ || has_telemetry_) {
      return util::Status::InvalidArgument(
          "observability scrapes the daemon's stack; use the daemon's "
          "registry/telemetry options instead of WithObservability/"
          "WithTelemetryServer on a remote sampler");
    }
    if (estimand_.any()) {
      return util::Status::InvalidArgument(
          "the estimand is daemon-side configuration (reports carry the "
          "daemon's estimate); drop EstimateAverageDegree/"
          "EstimateAttributeMean");
    }
    if (defaults_.stop_at_ci_half_width < 0.0) {
      return util::Status::InvalidArgument(
          "StopAtCiHalfWidth requires a target >= 0");
    }
    std::unique_ptr<Sampler> sampler(new Sampler());
    sampler->mode_ = mode_;
    sampler->defaults_ = defaults_;
    sampler->confidence_ = confidence_;
    rpc::ClientOptions client;
    client.rpc_timeout_ms = remote_rpc_timeout_ms_;
    HW_ASSIGN_OR_RETURN(sampler->rpc_client_,
                        rpc::Client::Dial(remote_endpoint_, client));
    return sampler;
  }
  if (graph_ == nullptr && external_backend_ == nullptr) {
    return util::Status::InvalidArgument(
        "SamplerBuilder: no backend; call OverGraph or OverBackend");
  }
  if (!estimand_.attribute.empty() && attributes_ == nullptr) {
    return util::Status::InvalidArgument(
        "EstimateAttributeMean requires OverGraph(graph, attributes)");
  }
  if (mode_ == ExecutionMode::kService) {
    if (group_query_budget_ != 0) {
      return util::Status::InvalidArgument(
          "WithGroupQueryBudget applies to inline/pipelined modes; service "
          "runs budget per tenant via RunOptions::tenant_query_budget");
    }
    if (!warm_start_ && (has_owned_store_ || external_store_ != nullptr)) {
      return util::Status::InvalidArgument(
          "WithWarmStart(false) is unsupported in service mode; open the "
          "store with load_snapshot = false instead");
    }
    if (store_read_tier_) {
      return util::Status::InvalidArgument(
          "WithStoreReadTier applies to inline/pipelined modes; the "
          "service warm-starts its shared cache from the store instead");
    }
  }
  if (store_read_tier_ && !has_owned_store_ && external_store_ == nullptr) {
    return util::Status::InvalidArgument(
        "WithStoreReadTier requires a history store (WithHistoryStore)");
  }
  if (!(confidence_ > 0.0 && confidence_ < 1.0)) {
    return util::Status::InvalidArgument(
        "WithConfidenceLevel requires a confidence in (0, 1)");
  }
  if (defaults_.stop_at_ci_half_width < 0.0) {
    return util::Status::InvalidArgument(
        "StopAtCiHalfWidth requires a target >= 0");
  }
  if (defaults_.stop_at_ci_half_width > 0.0 && !estimand_.any()) {
    return util::Status::InvalidArgument(
        "StopAtCiHalfWidth requires an estimand (EstimateAverageDegree / "
        "EstimateAttributeMean): the stop rule watches the estimate's CI");
  }

  std::unique_ptr<Sampler> sampler(new Sampler());
  sampler->mode_ = mode_;
  sampler->pipeline_ = pipeline_;
  sampler->defaults_ = defaults_;
  sampler->estimand_ = estimand_;
  sampler->confidence_ = confidence_;
  sampler->attributes_ = attributes_;
  sampler->obs_ = obs_;

  const access::AccessBackend* inner = external_backend_;
  if (graph_ != nullptr) {
    sampler->graph_access_ =
        std::make_unique<access::GraphAccess>(graph_, attributes_);
    inner = sampler->graph_access_.get();
  }
  if (has_wire_) {
    net::LatencyModelOptions latency = latency_;
    const uint32_t depth = std::max(
        1u, mode_ == ExecutionMode::kService ? service_.pipeline.depth
                                             : pipeline_.depth);
    // The wire should carry what the pipeline keeps in flight.
    if (latency.max_in_flight < depth) latency.max_in_flight = depth;
    sampler->remote_ = std::make_unique<net::RemoteBackend>(inner, latency);
    sampler->backend_ = sampler->remote_.get();
  } else {
    sampler->backend_ = inner;
  }

  if (has_owned_store_) {
    HW_ASSIGN_OR_RETURN(sampler->owned_store_,
                        store::HistoryStore::Open(store_options_));
    sampler->store_ = sampler->owned_store_.get();
  } else if (external_store_ != nullptr) {
    sampler->store_ = external_store_;
  }

  // Validate the estimand's attribute up front — fail at Build, not in the
  // middle of a crawl.
  if (!estimand_.attribute.empty()) {
    HW_RETURN_IF_ERROR(attributes_->Find(estimand_.attribute).status());
  }

  // Observability is opt-in: without WithObservability the capacity
  // default (128) must not switch flight recording on by itself, mirroring
  // how has_obs_ gates collector registration below.
  const uint32_t flight_capacity = has_obs_ ? obs_.flight_recorder_capacity : 0;

  // Observability seams wire before the group/service/pipeline exist so
  // trace tracks register in a deterministic order: "wire", "store",
  // "pipeline" (at pipeline construction), then "walker i" at run start.
  if (obs_.tracer != nullptr) {
    if (sampler->remote_ != nullptr && !obs_.tracer->has_clock()) {
      obs_.tracer->set_clock([remote = sampler->remote_.get()] {
        return remote->sim_now_us();
      });
      // The clock reads the sampler-owned RemoteBackend; ~Sampler clears
      // it so the caller-owned tracer never stamps through a dead wire.
      sampler->installed_tracer_clock_ = true;
    }
    if (sampler->remote_ != nullptr) sampler->remote_->set_tracer(obs_.tracer);
    if (sampler->store_ != nullptr) sampler->store_->set_tracer(obs_.tracer);
    if (sampler->pipeline_.tracer == nullptr) {
      sampler->pipeline_.tracer = obs_.tracer;
    }
  }

  if (mode_ == ExecutionMode::kService) {
    service::ServiceOptions options;
    options.max_sessions = service_.max_sessions;
    options.admission_wait_us = service_.admission_wait_us;
    options.max_history_bytes = service_.max_history_bytes;
    options.share_history = service_.share_history;
    options.cache = cache_;
    options.pipeline = service_.pipeline;
    options.store = sampler->store_;
    options.registry = obs_.registry;
    options.tracer = obs_.tracer;
    options.flight_recorder_capacity = flight_capacity;
    if (sampler->remote_ != nullptr) {
      options.clock = [remote = sampler->remote_.get()] {
        return remote->sim_now_us();
      };
    }
    sampler->service_ = std::make_unique<service::SamplingService>(
        sampler->backend_, std::move(options));
    sampler->warm_start_status_ = sampler->service_->warm_start_status();
  } else {
    access::SharedAccessOptions group_options{
        .query_budget = group_query_budget_,
        .cache = cache_,
        .registry = obs_.registry,
        .journal = sampler->store_};
    if (store_read_tier_) {
      // The durable history as a second READ tier: misses probe it before
      // the wire, and hits promote demand-driven instead of the all-at-once
      // warm start (access/history_tier.h).
      sampler->store_tier_ = std::make_unique<access::CacheTier>();
      group_options.tier = sampler->store_tier_.get();
    }
    if (flight_capacity > 0) {
      std::function<uint64_t()> clock;
      if (sampler->remote_ != nullptr) {
        clock = [remote = sampler->remote_.get()] {
          return remote->sim_now_us();
        };
      }
      sampler->flight_ = std::make_unique<obs::FlightRecorder>(
          flight_capacity, std::move(clock));
      group_options.flight_recorder = sampler->flight_.get();
    }
    sampler->group_ = std::make_unique<access::SharedAccessGroup>(
        sampler->backend_, group_options);
    if (sampler->store_ != nullptr && warm_start_) {
      // Like the service: a broken history file falls back to a cold (or
      // partially restored) cache, recorded rather than fatal — recovery
      // policy stays the caller's call via warm_start_status().
      sampler->warm_start_status_ =
          sampler->store_->LoadInto(sampler->group_->cache());
    }
    if (sampler->store_tier_ != nullptr) {
      util::Status tier_load =
          sampler->store_->LoadInto(sampler->store_tier_->cache());
      if (!tier_load.ok() && sampler->warm_start_status_.ok()) {
        sampler->warm_start_status_ = tier_load;
      }
    }
    // One step pool for all of the sampler's runs: RunInline(n) steppers,
    // or one per core in pipelined mode (a parked walker holds none).
    sampler->pool_ = std::make_unique<estimate::StepPool>(run_threads_);
  }

  if (has_obs_) {
    // One pull collector covers every layer the sampler owns; registered
    // only on explicit WithObservability so two samplers scraping the
    // process Global() registry never double-report the same names.
    Sampler* raw = sampler.get();
    sampler->collectors_.push_back(sampler->registry().AddCollector(
        [raw](std::vector<obs::Sample>& out) { raw->CollectSamples(out); }));
  }
  if (has_telemetry_) {
    // Last wiring step: the serving thread scrapes registry() (covering
    // the collector registered above) and reads RunsJson(), so every
    // layer it can observe exists before the first request can land.
    Sampler* raw = sampler.get();
    obs::TelemetryServerOptions server;
    server.port = telemetry_port_;
    server.registry = &sampler->registry();
    server.runs_json = [raw] { return raw->RunsJson(); };
    HW_ASSIGN_OR_RETURN(sampler->telemetry_,
                        obs::TelemetryServer::Start(std::move(server)));
  }
  return sampler;
}

// ---- Sampler ----------------------------------------------------------

Sampler::~Sampler() {
  std::shared_ptr<RunHandle::Shared> active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = std::move(active_);
  }
  if (active != nullptr) {
    std::unique_lock<std::mutex> lock(active->mu);
    active->WaitDoneLocked(lock);
  }
  // Stop serving before anything the serving thread reads (the registry
  // collector, RunsJson's session map) is torn down.
  telemetry_.reset();
  // Build() wired the tracer's clock to the sampler-owned RemoteBackend;
  // the tracer outlives us, so sever that pointer (later events fall back
  // to per-track logical ticks) before the backend is destroyed.
  if (installed_tracer_clock_) obs_.tracer->set_clock(nullptr);
  // Unregister the scrape collectors before the layers they read go away
  // (a concurrent Scrape() must never observe a half-destroyed sampler).
  collectors_.clear();
  // service_ (if any) joins its sessions in its own destructor, which runs
  // before the store/remote/backend members it fetches through.
}

util::Result<RunHandle> Sampler::Run() { return Run(defaults_); }

util::Result<RunHandle> Sampler::Run(const RunOptions& options) {
  if (options.stop_at_ci_half_width < 0.0) {
    return util::Status::InvalidArgument("stop_at_ci_half_width must be >= 0");
  }
  // Remote runs skip the estimand check: whether adaptive stopping is
  // valid depends on the DAEMON's estimand, which validates at Submit.
  if (mode_ == ExecutionMode::kRemote) return RunRemote(options);
  if (options.stop_at_ci_half_width > 0.0 && !estimand_.any()) {
    return util::Status::InvalidArgument(
        "adaptive stopping (stop_at_ci_half_width) requires an estimand "
        "(EstimateAverageDegree / EstimateAttributeMean)");
  }
  if (mode_ == ExecutionMode::kService) return RunService(options);
  return RunThreaded(options);
}

util::Result<RunHandle> Sampler::RunThreaded(const RunOptions& options) {
  if (options.tenant_query_budget != 0) {
    return util::Status::InvalidArgument(
        "tenant_query_budget is a service-mode option; use "
        "WithGroupQueryBudget for inline/pipelined samplers");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ != nullptr) {
    std::unique_lock<std::mutex> run_lock(active_->mu);
    if (active_->state == RunState::kRunning) {
      return util::Status::FailedPrecondition(
          "a run is already in flight; Wait() it first (inline/pipelined "
          "samplers execute one run at a time)");
    }
    // Finished but never waited: reap the worker before replacing it.
    active_->WaitDoneLocked(run_lock);
  }
  // The tracker is built on this (serial) path so its tracer counter
  // track registers deterministically, and wired to the group's charge
  // counter windowed at run start — matching report.charged_queries.
  std::shared_ptr<obs::ProgressTracker> progress;
  if (options.progress_interval > 0 || options.stop_at_ci_half_width > 0.0) {
    HW_ASSIGN_OR_RETURN(progress,
                        MakeProgressTracker(options, /*for_replay=*/false));
    std::function<uint64_t()> clock_fn;
    if (remote_ != nullptr) {
      clock_fn = [remote = remote_.get()] { return remote->sim_now_us(); };
    }
    progress->AttachCallbacks(
        [group = group_.get(), before = group_->charged_queries()] {
          const uint64_t now = group->charged_queries();
          return now > before ? now - before : 0;
        },
        std::move(clock_fn));
  }
  auto shared = std::make_shared<RunHandle::Shared>();
  shared->sampler = this;
  shared->mode = mode_;
  shared->spec = options.walker;
  shared->progress = std::move(progress);
  shared->thread = std::thread([this, shared, options] {
    estimate::EnsembleOptions ensemble{.num_walkers = options.num_walkers,
                                       .seed = options.seed,
                                       .max_steps = options.max_steps,
                                       .query_budget = options.query_budget,
                                       .tracer = obs_.tracer,
                                       .progress = shared->progress.get()};
    // The run's miss resolver: at depth 0 (inline) each fetch runs on the
    // missing walker's stepper; at depth D (pipelined) the walker parks and
    // idle steppers carry up to D batches at once.
    net::RequestPipeline pipeline(group_.get(), pipeline_);
    auto run = estimate::RunEnsemble(*group_, pipeline, options.walker,
                                     ensemble, *pool_);
    if (run.ok()) run->pipeline_stats = pipeline.stats();
    // Freeze the tracker's bill/clock at run end: the handle (and later
    // scrapes) keep reading the tracker, but this run's accounting is
    // closed.
    if (shared->progress != nullptr) shared->progress->DetachCallbacks();
    RunReport report;
    util::Status status;
    if (run.ok()) {
      report.ensemble = *std::move(run);
      report.charged_queries = report.ensemble.charged_queries;
      if (flight_ != nullptr) report.flight = flight_->TakeLog();
      status = FinishReport(options.walker, shared->progress.get(), &report);
    } else {
      status = run.status();
    }
    std::lock_guard<std::mutex> run_lock(shared->mu);
    if (status.ok()) {
      shared->report = std::move(report);
      shared->state = RunState::kDone;
    } else {
      shared->error = std::move(status);
      shared->state = RunState::kFailed;
    }
    shared->cv.notify_all();
  });
  active_ = shared;
  return RunHandle(std::move(shared));
}

util::Result<RunHandle> Sampler::RunService(const RunOptions& options) {
  std::shared_ptr<obs::ProgressTracker> progress;
  if (options.progress_interval > 0 || options.stop_at_ci_half_width > 0.0) {
    HW_ASSIGN_OR_RETURN(progress,
                        MakeProgressTracker(options, /*for_replay=*/false));
    // Submit wires the charge probe to the session's billing group and
    // the clock to the service clock.
  }
  service::SessionOptions session{.walker = options.walker,
                                  .num_walkers = options.num_walkers,
                                  .seed = options.seed,
                                  .max_steps = options.max_steps,
                                  .query_budget = options.query_budget,
                                  .tenant_query_budget =
                                      options.tenant_query_budget,
                                  .weight = options.weight,
                                  .progress = progress};
  HW_ASSIGN_OR_RETURN(service::SessionId id, service_->Submit(session));
  auto shared = std::make_shared<RunHandle::Shared>();
  shared->sampler = this;
  shared->mode = mode_;
  shared->spec = options.walker;
  shared->progress = progress;
  shared->session = id;
  if (progress != nullptr) {
    // Scrapes label this session's hw_est_* gauges; the weak_ptr expires
    // with the last handle and is pruned at scrape time.
    std::lock_guard<std::mutex> lock(mu_);
    session_progress_[id] = progress;
  }
  return RunHandle(std::move(shared));
}

util::Result<RunHandle> Sampler::RunRemote(const RunOptions& options) {
  HW_ASSIGN_OR_RETURN(
      std::unique_ptr<rpc::RemoteRunHandle> remote,
      rpc::RemoteRunHandle::Submit(rpc_client_, options));
  auto shared = std::make_shared<RunHandle::Shared>();
  shared->sampler = this;
  shared->mode = mode_;
  shared->spec = options.walker;
  shared->remote = std::move(remote);
  return RunHandle(std::move(shared));
}

util::Status Sampler::SaveHistory() {
  if (store_ == nullptr) {
    return util::Status::FailedPrecondition(
        "no history store configured (WithHistoryStore)");
  }
  if (store_tier_ != nullptr) {
    // Checkpoint() folds the MEMORY cache into a fresh snapshot; under a
    // read tier that cache holds only the demand-filled subset, so the
    // fold would shrink the durable history. New fetches are WAL-journaled
    // already — durability does not need the checkpoint.
    return util::Status::FailedPrecondition(
        "SaveHistory is unsupported with WithStoreReadTier: a checkpoint "
        "would fold only the demand-filled memory cache");
  }
  if (mode_ != ExecutionMode::kService) {
    // A mid-run snapshot of a thread-mode group would capture an arbitrary
    // point of one run; make the caller pick the save point via Wait().
    // (Service mode checkpoints its long-lived shared cache while sessions
    // run — that IS its save-point semantics.)
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ != nullptr) {
      std::lock_guard<std::mutex> run_lock(active_->mu);
      if (active_->state == RunState::kRunning) {
        return util::Status::FailedPrecondition(
            "a run is in flight; Wait() it before SaveHistory()");
      }
    }
  }
  const access::HistoryCache& cache = mode_ == ExecutionMode::kService
                                          ? service_->shared_cache()
                                          : group_->cache();
  return store_->Checkpoint(cache);
}

uint64_t Sampler::sim_now_us() const {
  return remote_ == nullptr ? 0 : remote_->sim_now_us();
}

util::Result<core::StationaryBias> Sampler::BiasFor(
    const core::WalkerSpec& spec) {
  // The stationary bias is a pure function of the walker TYPE, so probe
  // once per type (a throwaway group + walker; no fetches issued) and
  // serve every later report from the cache — experiment harnesses build
  // hundreds of reports per sweep.
  std::lock_guard<std::mutex> lock(bias_mu_);
  auto cached = bias_cache_.find(spec.type);
  if (cached != bias_cache_.end()) return cached->second;
  access::SharedAccessGroup probe_group(backend_);
  net::RequestPipeline resolver(&probe_group, {.depth = 0});
  auto view = probe_group.MakeView(resolver);
  HW_ASSIGN_OR_RETURN(auto probe,
                      core::MakeWalker(spec, view.get(), /*seed=*/0));
  const core::StationaryBias bias = probe->bias();
  bias_cache_.emplace(spec.type, bias);
  return bias;
}

util::Result<std::shared_ptr<obs::ProgressTracker>>
Sampler::MakeProgressTracker(const RunOptions& options, bool for_replay) {
  obs::ProgressOptions popts;
  popts.num_walkers = options.num_walkers;
  if (options.progress_interval > 0) {
    popts.flush_interval = options.progress_interval;
  }
  if (for_replay) {
    // Replay feeds complete traces and reads one final snapshot; skip the
    // intermediate publications.
    popts.flush_interval = std::numeric_limits<uint32_t>::max();
  }
  popts.confidence = confidence_;
  popts.has_estimand = estimand_.any();
  if (popts.has_estimand) {
    HW_ASSIGN_OR_RETURN(const core::StationaryBias bias,
                        BiasFor(options.walker));
    popts.degree_weighted =
        bias == core::StationaryBias::kDegreeProportional;
    if (!estimand_.attribute.empty()) {
      HW_ASSIGN_OR_RETURN(attr::AttrId attr,
                          attributes_->Find(estimand_.attribute));
      popts.value_fn = [table = attributes_, attr](uint64_t node, uint32_t) {
        return table->Value(static_cast<graph::NodeId>(node), attr);
      };
    }
  }
  if (!for_replay) {
    popts.stop_at_ci_half_width = options.stop_at_ci_half_width;
    popts.tracer = obs_.tracer;
  }
  return std::make_shared<obs::ProgressTracker>(std::move(popts));
}

void Sampler::CollectSamples(std::vector<obs::Sample>& out) const {
  using obs::SampleKind;
  const bool service_mode = mode_ == ExecutionMode::kService;
  const access::HistoryCache& cache =
      service_mode ? service_->shared_cache() : group_->cache();
  AppendCacheSamples(out, cache.stats());
  AppendShardHeatSamples(out, cache);
  if (store_tier_ != nullptr) {
    const access::HistoryCacheStats tier = store_tier_->cache().stats();
    out.push_back(MakeSample("hw_store_tier_entries", SampleKind::kGauge,
                             tier.entries));
    out.push_back(
        MakeSample("hw_store_tier_bytes", SampleKind::kGauge, tier.bytes));
  }
  if (remote_ != nullptr) {
    const net::RemoteBackendStats wire = remote_->stats();
    out.push_back(MakeSample("hw_net_wire_calls_total", SampleKind::kCounter,
                             wire.requests));
    out.push_back(MakeSample("hw_net_wire_items_total", SampleKind::kCounter,
                             wire.items));
    out.push_back(MakeSample("hw_net_wire_batch_calls_total",
                             SampleKind::kCounter, wire.batch_requests));
    out.push_back(MakeSample("hw_net_sim_wall_us", SampleKind::kGauge,
                             wire.sim_elapsed_us));
    out.push_back(MakeSample("hw_net_rate_limited_us", SampleKind::kCounter,
                             wire.rate_limited_us));
  }
  if (store_ != nullptr) {
    const store::HistoryStoreStats store = store_->stats();
    out.push_back(MakeSample("hw_store_appended_records_total",
                             SampleKind::kCounter, store.appended_records));
    out.push_back(MakeSample("hw_store_append_failures_total",
                             SampleKind::kCounter, store.append_failures));
    out.push_back(MakeSample("hw_store_checkpoints_total",
                             SampleKind::kCounter, store.checkpoints));
    out.push_back(MakeSample("hw_store_checkpoint_failures_total",
                             SampleKind::kCounter, store.checkpoint_failures));
    out.push_back(MakeSample("hw_store_wal_bytes", SampleKind::kGauge,
                             store.wal_bytes));
    out.push_back(MakeSample("hw_store_fold_segments_queued",
                             SampleKind::kGauge, store.fold_segments_queued));
  }
  if (service_mode) {
    const service::ServiceStats stats = service_->stats();
    out.push_back(MakeSample("hw_access_charged_queries_total",
                             SampleKind::kCounter, stats.charged_queries));
    out.push_back(MakeSample("hw_service_sessions_submitted_total",
                             SampleKind::kCounter, stats.submitted));
    out.push_back(MakeSample("hw_service_admission_refusals_total",
                             SampleKind::kCounter, stats.admission_refusals));
    out.push_back(MakeSample("hw_service_sessions_completed_total",
                             SampleKind::kCounter, stats.completed));
    out.push_back(MakeSample("hw_service_sessions_failed_total",
                             SampleKind::kCounter, stats.failed));
    out.push_back(MakeSample("hw_service_sessions_detached_total",
                             SampleKind::kCounter, stats.detached));
    out.push_back(MakeSample("hw_service_resident_sessions",
                             SampleKind::kGauge, stats.resident_sessions));
    const net::RequestPipelineStats pipeline = stats.pipeline;
    out.push_back(MakeSample("hw_net_pipeline_submitted_total",
                             SampleKind::kCounter, pipeline.submitted));
    out.push_back(MakeSample("hw_net_pipeline_dedup_joins_total",
                             SampleKind::kCounter, pipeline.dedup_joins));
    out.push_back(MakeSample("hw_net_pipeline_late_hits_total",
                             SampleKind::kCounter, pipeline.late_hits));
    out.push_back(MakeSample("hw_net_pipeline_wire_requests_total",
                             SampleKind::kCounter, pipeline.wire_requests));
    out.push_back(MakeSample("hw_net_pipeline_wire_items_total",
                             SampleKind::kCounter, pipeline.wire_items));
    out.push_back(MakeSample("hw_net_pipeline_budget_refusals_total",
                             SampleKind::kCounter, pipeline.budget_refusals));
    out.push_back(MakeSample("hw_net_pipeline_queue_depth", SampleKind::kGauge,
                             pipeline.queue_depth));
    out.push_back(MakeSample("hw_net_pipeline_max_queue_depth",
                             SampleKind::kGauge, pipeline.max_queue_depth));
    obs::Sample depth;
    depth.name = "hw_net_pipeline_queue_depth_hist";
    depth.kind = SampleKind::kHistogram;
    depth.hist = pipeline.depth;
    out.push_back(std::move(depth));
  } else {
    // Counter, not a pushed instrument: RefundCharge can rewind the
    // group's charge, and registry counters are monotone.
    out.push_back(MakeSample("hw_access_charged_queries_total",
                             SampleKind::kCounter,
                             group_->charged_queries()));
  }
  // hw_est_* convergence gauges: thread modes export the current (or most
  // recent) run's snapshot unlabelled; service mode labels each live
  // session's snapshot. Snapshot() never blocks walkers.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (service_mode) {
      for (auto it = session_progress_.begin();
           it != session_progress_.end();) {
        if (auto tracker = it->second.lock()) {
          AppendEstimateSamples(
              out, tracker->Snapshot(),
              obs::RenderLabel("session", std::to_string(it->first)));
          ++it;
        } else {
          it = session_progress_.erase(it);
        }
      }
    } else if (active_ != nullptr && active_->progress != nullptr) {
      AppendEstimateSamples(out, active_->progress->Snapshot(), "");
    }
  }
  // hw_prof_* rides this collector (gated on the explicit wiring) so two
  // samplers scraping the process Global() registry never double-report
  // the shared profiler's sites.
  if (obs_.profiler != nullptr) obs_.profiler->AppendSamples(out);
}

namespace {

// JSON doubles for /runs: %.9g round-trips the gauges; non-finite values
// (r_hat before two chains report, say) have no JSON spelling → null.
void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

void AppendRunJson(std::string& out, uint64_t session, bool has_session,
                   const obs::ProgressSnapshot& snap) {
  out += '{';
  if (has_session) {
    out += "\"session\":";
    out += std::to_string(session);
    out += ',';
  }
  out += "\"total_steps\":" + std::to_string(snap.total_steps);
  out += ",\"unique_queries\":" + std::to_string(snap.unique_queries);
  out += ",\"charged_queries\":" + std::to_string(snap.charged_queries);
  out += ",\"sim_wall_us\":" + std::to_string(snap.sim_wall_us);
  out += ",\"walkers_reporting\":" + std::to_string(snap.walkers_reporting);
  out += ",\"has_estimate\":";
  out += snap.has_estimate ? "true" : "false";
  out += ",\"estimate\":";
  AppendJsonNumber(out, snap.estimate);
  out += ",\"std_error\":";
  AppendJsonNumber(out, snap.std_error);
  out += ",\"ci_half_width\":";
  AppendJsonNumber(out, snap.ci_half_width);
  out += ",\"confidence\":";
  AppendJsonNumber(out, snap.confidence);
  out += ",\"ess\":";
  AppendJsonNumber(out, snap.ess);
  out += ",\"r_hat\":";
  AppendJsonNumber(out, snap.r_hat);
  out += ",\"num_batches\":" + std::to_string(snap.num_batches);
  out += ",\"stop_requested\":";
  out += snap.stop_requested ? "true" : "false";
  out += ",\"walkers\":[";
  for (size_t w = 0; w < snap.walkers.size(); ++w) {
    const obs::WalkerProgress& walker = snap.walkers[w];
    if (w > 0) out += ',';
    out += "{\"steps\":" + std::to_string(walker.steps);
    out += ",\"unique_queries\":" + std::to_string(walker.unique_queries);
    out += ",\"has_estimate\":";
    out += walker.has_estimate ? "true" : "false";
    out += ",\"estimate\":";
    AppendJsonNumber(out, walker.estimate);
    out += ",\"ess\":";
    AppendJsonNumber(out, walker.ess);
    out += '}';
  }
  out += "]}";
}

}  // namespace

std::string Sampler::RunsJson() const {
  std::string out = "[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  if (mode_ == ExecutionMode::kService) {
    for (auto it = session_progress_.begin(); it != session_progress_.end();) {
      if (auto tracker = it->second.lock()) {
        if (!first) out += ',';
        first = false;
        AppendRunJson(out, it->first, /*has_session=*/true,
                      tracker->Snapshot());
        ++it;
      } else {
        it = session_progress_.erase(it);
      }
    }
  } else if (active_ != nullptr && active_->progress != nullptr) {
    first = false;
    AppendRunJson(out, 0, /*has_session=*/false, active_->progress->Snapshot());
  }
  out += ']';
  return out;
}

util::Status Sampler::FinishReport(const core::WalkerSpec& spec,
                                   obs::ProgressTracker* progress,
                                   RunReport* report) {
  report->sim_wall_us = sim_now_us();
  if (progress != nullptr) {
    report->has_progress = true;
    report->progress = progress->Snapshot();
    report->stopped_at_ci_target = report->progress.stop_requested;
  }
  if (!estimand_.any()) return util::Status::Ok();
  HW_ASSIGN_OR_RETURN(const core::StationaryBias bias, BiasFor(spec));
  estimate::MergedSamples merged = report->ensemble.Merged();
  if (merged.nodes.empty()) return util::Status::Ok();  // nothing to estimate
  if (estimand_.average_degree) {
    report->estimate = estimate::EstimateAverageDegree(merged.degrees, bias);
  } else {
    HW_ASSIGN_OR_RETURN(attr::AttrId attr,
                        attributes_->Find(estimand_.attribute));
    std::vector<double> values(merged.nodes.size());
    for (size_t t = 0; t < merged.nodes.size(); ++t) {
      values[t] = attributes_->Value(merged.nodes[t], attr);
    }
    report->estimate = estimate::EstimateMean(values, merged.degrees, bias);
  }
  report->has_estimate = true;
  // Convergence finals: the live tracker's final snapshot when one
  // streamed, else a post-hoc replay of the traces through a fresh
  // tracker. Both walk the same per-walker streams in the same order, so
  // the numbers are bit-identical — satellite coverage in
  // tests/api_progress_test.cc pins it.
  obs::ProgressSnapshot finals;
  if (progress != nullptr) {
    finals = report->progress;
  } else {
    RunOptions replay_options;
    replay_options.walker = spec;
    replay_options.num_walkers =
        static_cast<uint32_t>(report->ensemble.traces.size());
    HW_ASSIGN_OR_RETURN(
        std::shared_ptr<obs::ProgressTracker> replay,
        MakeProgressTracker(replay_options, /*for_replay=*/true));
    for (size_t i = 0; i < report->ensemble.traces.size(); ++i) {
      const estimate::TracedWalk& trace = report->ensemble.traces[i];
      for (size_t t = 0; t < trace.nodes.size(); ++t) {
        replay->OnStep(static_cast<uint32_t>(i), trace.nodes[t],
                       trace.degrees[t], trace.unique_queries[t]);
      }
      replay->FinishWalker(static_cast<uint32_t>(i));
    }
    finals = replay->Snapshot();
  }
  report->std_error = finals.std_error;
  report->ci_half_width = finals.ci_half_width;
  report->confidence = finals.confidence;
  report->ess = finals.ess;
  report->r_hat = finals.r_hat;
  report->num_batches = finals.num_batches;
  return util::Status::Ok();
}

}  // namespace histwalk::api
