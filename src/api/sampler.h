#ifndef HISTWALK_API_SAMPLER_H_
#define HISTWALK_API_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "access/graph_access.h"
#include "access/history_tier.h"
#include "access/shared_access.h"
#include "attr/attribute.h"
#include "core/walker_factory.h"
#include "estimate/ensemble_runner.h"
#include "graph/graph.h"
#include "net/remote_backend.h"
#include "net/request_pipeline.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/sampling_service.h"
#include "store/history_store.h"
#include "util/status.h"

// The one front door to the library: a declarative SamplerBuilder that
// composes the whole stack — backend, simulated wire, shared history
// cache, durable store, execution mode, walker ensemble and estimator —
// and a Sampler whose Run() returns a single RunHandle session object,
// whatever machinery executes the walk underneath.
//
// Without this layer, every example, experiment and bench would assemble
// the same seams by hand (GraphAccess/RemoteBackend, HistoryStore::Open +
// LoadInto, a SharedAccessGroup journaling into the store, a
// RequestPipeline or SamplingService, then estimate::RunEnsemble). The
// facade owns that wiring once:
//
//   auto sampler = api::SamplerBuilder()
//                      .OverGraph(&graph)
//                      .WithRemoteWire({.base_latency_us = 20'000})
//                      .WithHistoryStore({.snapshot_path = "crawl.hwss"})
//                      .RunPipelined({.depth = 8})
//                      .WithWalker({.type = core::WalkerType::kCnrw})
//                      .WithEnsemble(/*num_walkers=*/8, /*seed=*/2024)
//                      .StopAfterSteps(400)
//                      .EstimateAverageDegree()
//                      .Build();
//   auto handle = (*sampler)->Run();
//   auto report = handle->Wait();
//
// Determinism contract (inherited from the estimate layer): a run's traces
// and per-walker QueryStats depend only on (walker spec, num_walkers,
// seed, stop conditions) — never on the execution mode, pipeline depth,
// cache state or co-tenants. The facade therefore produces bit-identical
// samples to the hand-wired paths in every mode; what the mode changes is
// the BILL (charged queries, wire requests, simulated wall-clock), which
// the RunReport itemizes. tests/api_equivalence_test.cc pins exactly this.
//
// The facade is also the seam the ROADMAP's out-of-process RPC front will
// implement: RunHandle's Poll/Wait/Cancel/Report surface is designed to
// survive a network hop (no spans or live references cross it — reports
// are owning copies).

namespace histwalk::rpc {
class Client;
class RemoteRunHandle;
}  // namespace histwalk::rpc

namespace histwalk::api {

// How runs execute. All modes go through the same walkers, the same
// singleflight miss path (a net::RequestPipeline) and produce the same
// traces; they differ in who carries the wire requests and how many runs
// can be in flight.
enum class ExecutionMode {
  // A per-run pipeline at depth 0: each miss is fetched on the stepper
  // running the missing walker; concurrent misses on one node park on its
  // flight.
  kInline,
  // A per-run pipeline at depth D: a missing walker parks, misses are
  // batched per cache shard and carried by idle steppers, at most D
  // batches in flight.
  kPipelined,
  // service::SamplingService: each Run() is a tenant session over one
  // shared cache and one fair-scheduled multi-tenant pipeline; runs may
  // overlap and are billed per tenant.
  kService,
  // A histwalk_serviced daemon reached over the wire protocol (rpc/): each
  // Run() is a remote session on the daemon's service-mode sampler. The
  // walk, cache, store and estimand all live daemon-side; this process
  // holds only a connection and run handles. Same determinism contract —
  // remote reports are bit-identical to an in-process service run with
  // the same options.
  kRemote,
};

// Stable lower-case name ("inline", "pipelined", "service", "remote").
std::string_view ExecutionModeName(ExecutionMode mode);

enum class RunState {
  kRunning,
  kDone,
  kFailed,
};

// Stable lower-case name ("running", "done", "failed").
std::string_view RunStateName(RunState state);

// What to estimate from the merged samples; reported in RunReport. The
// reweighting bias is probed from the walker spec, so any sampler drops
// in (section 2.3's pipeline).
struct EstimandSelection {
  bool average_degree = false;
  // Population mean of a named attribute column; requires the builder to
  // know the attribute table (OverGraph with attributes).
  std::string attribute;

  bool any() const { return average_degree || !attribute.empty(); }
};

// Observability wiring for the whole assembled stack: one registry scrape
// covers every layer (cache, wire, store, pipeline, service), one tracer
// covers walker step -> cache probe -> pipeline -> wire -> journal, and
// each run's report carries a bounded flight-recorder tail of miss-path
// outcomes. Registered collectors and pushed counters follow the
// hw_<layer>_<name>{label="..."} convention (see obs/registry.h).
struct ObservabilityOptions {
  // Registry the stack's counters land in and the Build-time collectors
  // register with; null = obs::Global(). Must outlive the Sampler.
  obs::Registry* registry = nullptr;
  // Optional tracer; must outlive the Sampler. Build() injects the
  // simulated wire clock into it when a RemoteWire exists and the tracer
  // has no clock yet, and registers the wire/store/pipeline tracks in a
  // deterministic order.
  obs::Tracer* tracer = nullptr;
  // Per-run (thread modes) / per-session (service mode) flight-recorder
  // ring size; 0 disables. Surfaced as RunReport::flight. Like every
  // observability seam, takes effect only via WithObservability — a
  // builder that never opts in records nothing.
  uint32_t flight_recorder_capacity = 128;
  // Wall-clock profiler whose hw_prof_* site samples ride this sampler's
  // scrape collector (typically &obs::Profiler::Global(), which is where
  // HW_PROF_SCOPE records; enabling it is the caller's call). Must
  // outlive the Sampler. Null: no hw_prof_* family in scrapes. Profiler
  // data never feeds the walk, so wiring this changes no trace/stat/bill
  // byte.
  obs::Profiler* profiler = nullptr;
};

// Per-run knobs. Sampler::Run() uses the builder's ensemble defaults;
// Run(options) overrides them per run — the service-mode pattern of many
// differently-seeded sessions over one Sampler.
struct RunOptions {
  core::WalkerSpec walker;
  uint32_t num_walkers = 8;
  uint64_t seed = 1;
  // Per-walker stop conditions, estimate::EnsembleOptions semantics; at
  // least one must be set.
  uint64_t max_steps = 0;
  uint64_t query_budget = 0;
  // Service mode only: hard per-tenant fetch quota (0 = unlimited) and
  // fair-scheduler weight. Rejected as kInvalidArgument in other modes
  // (where the group-level budget is a Build-time option instead).
  uint64_t tenant_query_budget = 0;
  uint32_t weight = 1;
  // Streaming telemetry: own-steps between each walker's progress
  // publications (0 = no live tracking; builder seam: TrackProgress).
  // While tracking, RunHandle::Progress() serves live ProgressSnapshots,
  // the hw_est_* gauges appear in scrapes, and the tracer (when wired)
  // gains an "estimate" counter track. Observation issues no fetches and
  // consumes no RNG, so traces/QueryStats/bills are unchanged.
  uint32_t progress_interval = 0;
  // Opt-in adaptive stopping (builder seam: StopAtCiHalfWidth): halt all
  // walkers cooperatively once the ensemble CI half-width — at the
  // builder's confidence level — reaches this target (0 disables).
  // Requires a selected estimand; implies progress tracking at the
  // default interval when progress_interval is 0. The stop point depends
  // on thread interleaving, so bit-identical traces are only guaranteed
  // with this off.
  double stop_at_ci_half_width = 0.0;
};

// Everything a finished run reports — an owning copy, valid after the
// handle (but not the Sampler's backend graph) goes away.
struct RunReport {
  // Traces, per-walker QueryStats, merged samples, cache stats — the
  // estimate layer's result, identical across execution modes.
  estimate::EnsembleResult ensemble;
  // Backend fetches billed to this run (group charge window in inline/
  // pipelined mode, the tenant's bill in service mode).
  uint64_t charged_queries = 0;
  // Service mode: this tenant's wire traffic and queue waits on the shared
  // pipeline (zeros otherwise; inline and pipelined modes report their
  // per-run pipeline in ensemble.pipeline_stats).
  net::TenantPipelineStats tenant;
  // Simulated wire clock after the run (0 without WithRemoteWire).
  uint64_t sim_wall_us = 0;
  // Service mode: submit-to-done session latency on the service clock.
  uint64_t latency_us = 0;
  // The tail of this run's miss-path resolutions (wire fetch / store-tier
  // hit / singleflight join / refusal / error), bounded by
  // ObservabilityOptions::flight_recorder_capacity. In thread modes the
  // recorder is sampler-lived, so the log accumulates across successive
  // runs on one Sampler; service mode records per session.
  obs::FlightLog flight;
  // Filled when the builder selected an estimand.
  bool has_estimate = false;
  double estimate = 0.0;
  // Convergence finals, filled alongside has_estimate: batch-means
  // standard error of the pooled estimate, the CI half-width at
  // `confidence`, summed per-walker effective sample size, cross-walker
  // Gelman–Rubin R-hat, and the pooled closed-batch count behind the SE.
  // For a progress-tracked run these equal the final ProgressSnapshot;
  // otherwise they are computed post-hoc by replaying the merged traces
  // through the same obs::ProgressTracker machinery (bit-identical
  // results either way).
  double std_error = 0.0;
  double ci_half_width = 0.0;
  double confidence = 0.0;
  double ess = 0.0;
  double r_hat = 0.0;
  uint64_t num_batches = 0;
  // The adaptive stopping rule (RunOptions::stop_at_ci_half_width) fired
  // and halted the walkers before their max_steps/query_budget limits.
  bool stopped_at_ci_target = false;
  // The final streaming snapshot (has_progress set only for
  // progress-tracked runs; replay-computed finals above are still filled
  // without it).
  bool has_progress = false;
  obs::ProgressSnapshot progress;
};

class Sampler;

// One run's session object — the unified replacement for "call RunEnsemble
// and hold the result" and "Submit/Poll/Wait/Detach a service session".
// Cheap to copy (copies observe the same run).
// Handles must not outlive their Sampler.
class RunHandle {
 public:
  // An empty handle: !valid(); Wait/Report fail with FailedPrecondition,
  // Poll reports kFailed, Cancel is a no-op.
  RunHandle() = default;

  bool valid() const { return shared_ != nullptr; }

  // Current state without blocking. A canceled run (or an empty handle)
  // reports kFailed.
  RunState Poll() const;

  // Blocks until the run finishes, then returns its report (kDone) or the
  // error that ended it. In service mode the first Wait also detaches the
  // session, freeing its admission slot — the report lives on in the
  // handle and repeated Wait/Report calls return the cached copy.
  util::Result<RunReport> Wait();

  // Non-blocking report access: the report if the run is done, the run's
  // error if it failed, kUnavailable while it is still running.
  util::Result<RunReport> Report() const;

  // Latest streaming ProgressSnapshot, without blocking the walkers or
  // this caller. Snapshots are monotone in total_steps; the snapshot
  // taken after the run finishes equals the RunReport's finals. Returns
  // a default (all-zero) snapshot when the run was not started with
  // progress tracking (RunOptions::progress_interval == 0 and no
  // adaptive stop target) or the handle is empty.
  obs::ProgressSnapshot Progress() const;

  // Abandons the run and discards its report. Walkers have no preemption
  // seam, so this is cooperative: Cancel blocks until the in-flight walk
  // finishes, then frees the session slot / joins the worker. After
  // Cancel, Poll reports kFailed and Wait returns the cancellation error.
  void Cancel();

 private:
  friend class Sampler;
  struct Shared;
  explicit RunHandle(std::shared_ptr<Shared> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<Shared> shared_;
};

// Service-mode sizing, a facade-level subset of service::ServiceOptions
// (cache, store, clock and cross_tenant_dedup are wired by the builder).
struct ServiceConfig {
  uint32_t max_sessions = 64;
  // Bounded admission wait when the session cap is hit: Run() queues
  // behind departing sessions for up to this many real microseconds
  // before the usual kUnavailable refusal. 0 = refuse immediately.
  uint64_t admission_wait_us = 0;
  uint64_t max_history_bytes = 0;
  bool share_history = true;
  net::RequestPipelineOptions pipeline;
};

// Declarative composition of a Sampler. Setters may be chained in any
// order; the last call wins. Build() validates the combination and returns
// the assembled Sampler or a typed error (kInvalidArgument for
// contradictory options, pass-through store errors for a broken history
// file).
class SamplerBuilder {
 public:
  SamplerBuilder() = default;

  // ---- backend --------------------------------------------------------
  // Sample an in-memory graph (the Sampler owns the GraphAccess).
  // `graph` and `attributes` must outlive the Sampler; `attributes` also
  // enables EstimateAttributeMean.
  SamplerBuilder& OverGraph(const graph::Graph* graph,
                            const attr::AttributeTable* attributes = nullptr);
  // Sample an externally owned backend (must outlive the Sampler).
  SamplerBuilder& OverBackend(const access::AccessBackend* backend);
  // Wrap the backend in a net::RemoteBackend so every fetch pays simulated
  // wire latency. latency.max_in_flight is raised to the pipeline depth of
  // a pipelined/service mode if it is smaller — the wire should be able to
  // carry what the pipeline keeps in flight.
  SamplerBuilder& WithRemoteWire(net::LatencyModelOptions latency);

  // ---- history --------------------------------------------------------
  SamplerBuilder& WithCache(access::HistoryCacheOptions cache);
  // Shared fetch budget across the whole group (inline/pipelined modes;
  // 0 = unlimited). Service mode budgets per tenant via RunOptions.
  SamplerBuilder& WithGroupQueryBudget(uint64_t query_budget);
  // Durable history: the Sampler opens and owns a store::HistoryStore,
  // warm-starts the cache from it at Build (unless WithWarmStart(false))
  // and journals every new fetch into it.
  SamplerBuilder& WithHistoryStore(store::HistoryStoreOptions options);
  // Same, over an externally owned store (must outlive the Sampler).
  SamplerBuilder& WithHistoryStore(store::HistoryStore* store);
  SamplerBuilder& WithWarmStart(bool warm_start);
  // Serve cache misses from the durable history as a READ TIER (memory
  // cache -> store tier -> wire) instead of — or in addition to — the
  // all-at-once warm start: Build() loads the store into an unbounded
  // side cache and misses probe it before paying wire latency or budget
  // (see access/history_tier.h). Requires WithHistoryStore; thread modes
  // only (kInvalidArgument in service mode).
  SamplerBuilder& WithStoreReadTier(bool read_tier = true);

  // ---- observability --------------------------------------------------
  // Wires metrics, tracing and the flight recorder through every layer
  // and registers the stack's pull collectors (cache / wire / store /
  // pipeline / service / charged-queries) with the chosen registry. The
  // group's miss-outcome counters are pushed to ObservabilityOptions::
  // registry (or obs::Global()) even without this call; collectors — and
  // therefore full Scrape() coverage — and the flight recorder need it.
  SamplerBuilder& WithObservability(ObservabilityOptions obs = {});
  // Serve the live stack over HTTP on 127.0.0.1:port (0 = ephemeral;
  // read the outcome from Sampler::telemetry()->port()): GET /metrics
  // (Prometheus text of registry()), /metrics.json, /healthz, and /runs
  // (live Progress() snapshots of active sessions). Build() fails with
  // kUnavailable if the port cannot be bound. Serving reads the same
  // scrape any caller could take; it never feeds the walk.
  SamplerBuilder& WithTelemetryServer(uint16_t port);

  // ---- execution mode -------------------------------------------------
  // Inline runs resolve misses through a depth-0 pipeline, with the
  // walkers multiplexed on `num_threads` stepper threads (0 = hardware
  // concurrency).
  SamplerBuilder& RunInline(unsigned num_threads = 0);
  // Pipelined runs multiplex the walkers on one stepper per core over a
  // pipeline of `pipeline` options: a missing walker parks, and idle
  // steppers carry the queued batches.
  SamplerBuilder& RunPipelined(net::RequestPipelineOptions pipeline = {});
  SamplerBuilder& RunAsService(ServiceConfig service = {});
  // Execute runs on a histwalk_serviced daemon at `endpoint` ("host:port",
  // IPv4 literal or "localhost"). Build() dials and handshakes — an absent
  // daemon fails Build with kUnavailable, a protocol-version mismatch with
  // kFailedPrecondition. The backend, wire, cache, store, observability
  // and estimand are all daemon-side configuration; combining them with
  // this mode is kInvalidArgument. `rpc_timeout_ms` bounds each RPC (0 =
  // wait forever); expiry surfaces as util::IsDeadlineExceeded.
  SamplerBuilder& WithRemoteService(std::string endpoint,
                                    uint64_t rpc_timeout_ms = 0);

  // ---- ensemble defaults (per-run RunOptions overrides exist) ---------
  SamplerBuilder& WithWalker(core::WalkerSpec spec);
  SamplerBuilder& WithEnsemble(uint32_t num_walkers, uint64_t seed);
  SamplerBuilder& StopAfterSteps(uint64_t max_steps);
  SamplerBuilder& StopAfterQueries(uint64_t per_walker_query_budget);

  // ---- estimator ------------------------------------------------------
  SamplerBuilder& EstimateAverageDegree();
  SamplerBuilder& EstimateAttributeMean(std::string attribute);

  // ---- progress / convergence -----------------------------------------
  // Default-on streaming telemetry: every run publishes a progress
  // snapshot each `interval` own-steps per walker (RunOptions::
  // progress_interval overrides per run).
  SamplerBuilder& TrackProgress(uint32_t interval = 64);
  // Default adaptive stopping target (RunOptions::stop_at_ci_half_width
  // overrides per run). Build() rejects a target without an estimand.
  SamplerBuilder& StopAtCiHalfWidth(double target);
  // Two-sided confidence level for ci_half_width finals and the stop
  // rule, in (0, 1); default 0.95.
  SamplerBuilder& WithConfidenceLevel(double confidence);

  util::Result<std::unique_ptr<Sampler>> Build() const;

 private:
  friend class Sampler;

  const graph::Graph* graph_ = nullptr;
  const attr::AttributeTable* attributes_ = nullptr;
  const access::AccessBackend* external_backend_ = nullptr;
  bool has_wire_ = false;
  net::LatencyModelOptions latency_;
  access::HistoryCacheOptions cache_;
  uint64_t group_query_budget_ = 0;
  bool has_owned_store_ = false;
  store::HistoryStoreOptions store_options_;
  store::HistoryStore* external_store_ = nullptr;
  bool warm_start_ = true;
  bool store_read_tier_ = false;
  bool has_obs_ = false;
  ObservabilityOptions obs_;
  // The execution mode's per-run pipeline and the sampler's stepper
  // threads (0 = hardware concurrency); defaults are RunInline().
  ExecutionMode mode_ = ExecutionMode::kInline;
  net::RequestPipelineOptions pipeline_{.depth = 0};
  unsigned run_threads_ = std::thread::hardware_concurrency();
  ServiceConfig service_;
  std::string remote_endpoint_;
  uint64_t remote_rpc_timeout_ms_ = 0;
  RunOptions defaults_;
  EstimandSelection estimand_;
  double confidence_ = 0.95;
  bool has_telemetry_ = false;
  uint16_t telemetry_port_ = 0;
};

// The assembled stack. Owns (as configured) the GraphAccess, the
// RemoteBackend, the HistoryStore, and either a SharedAccessGroup (inline/
// pipelined) or a SamplingService (service mode). The destructor waits out
// every outstanding run.
//
// Threading: Run/accessors are thread-safe. Inline and pipelined modes
// execute one run at a time (a second Run while one is in flight fails
// with kFailedPrecondition — successive runs share the group's accumulated
// history, exactly like successive RunEnsemble calls on one group).
// Service mode admits up to ServiceConfig::max_sessions concurrent runs.
class Sampler {
 public:
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Starts a run with the builder's ensemble defaults / explicit options.
  // Errors: kInvalidArgument (malformed options), kFailedPrecondition (a
  // thread-mode run is already in flight), kUnavailable (service admission
  // refused; retry after a run finishes).
  util::Result<RunHandle> Run();
  util::Result<RunHandle> Run(const RunOptions& options);

  // Folds the current history cache into the store's snapshot (durable
  // save point). kFailedPrecondition without a configured store or while
  // a thread-mode run is in flight.
  util::Status SaveHistory();

  ExecutionMode mode() const { return mode_; }
  // The backend walks fetch from: the RemoteBackend when wired, else the
  // graph access / external backend.
  const access::AccessBackend* backend() const { return backend_; }
  const net::RemoteBackend* remote() const { return remote_.get(); }
  // Simulated wire clock (0 without WithRemoteWire).
  uint64_t sim_now_us() const;
  // Inline/pipelined modes' group; null in service mode.
  access::SharedAccessGroup* group() { return group_.get(); }
  // Service mode's service; null otherwise.
  service::SamplingService* service() { return service_.get(); }
  // Remote mode's daemon connection; null otherwise.
  rpc::Client* remote_client() const { return rpc_client_.get(); }
  store::HistoryStore* history_store() { return store_; }
  // The registry this stack's metrics land in (obs::Global() unless
  // WithObservability chose another).
  obs::Registry& registry() const {
    return obs_.registry != nullptr ? *obs_.registry : obs::Registry::Global();
  }
  // The store read tier, when WithStoreReadTier wired one; null otherwise.
  const access::CacheTier* store_tier() const { return store_tier_.get(); }
  // The live scrape endpoint, when WithTelemetryServer wired one; null
  // otherwise. telemetry()->port() resolves a requested port of 0.
  const obs::TelemetryServer* telemetry() const { return telemetry_.get(); }
  // OK, or why the Build-time warm start fell back to a cold cache.
  const util::Status& warm_start_status() const { return warm_start_status_; }
  const RunOptions& default_run_options() const { return defaults_; }

 private:
  friend class SamplerBuilder;
  friend class RunHandle;

  Sampler() = default;

  util::Result<RunHandle> RunThreaded(const RunOptions& options);
  util::Result<RunHandle> RunService(const RunOptions& options);
  util::Result<RunHandle> RunRemote(const RunOptions& options);
  // The walker's stationary bias, probed once per walker type and cached.
  util::Result<core::StationaryBias> BiasFor(const core::WalkerSpec& spec);
  // A ProgressTracker wired for `options`' estimand/weighting. With
  // for_replay set, the stop rule, tracer counter track and environment
  // probes are left off — the post-hoc configuration FinishReport uses
  // to recompute finals from traces.
  util::Result<std::shared_ptr<obs::ProgressTracker>> MakeProgressTracker(
      const RunOptions& options, bool for_replay);
  // Fills the estimand/convergence/wire fields of `report` from its
  // ensemble result; `progress` is the run's live tracker (null for
  // untracked runs, whose finals replay through a fresh tracker).
  util::Status FinishReport(const core::WalkerSpec& spec,
                            obs::ProgressTracker* progress, RunReport* report);
  // The WithObservability pull collector: appends hw_cache_* / hw_net_* /
  // hw_store_* / hw_service_* / charged-queries samples from the stats
  // structs of whatever layers this sampler owns.
  void CollectSamples(std::vector<obs::Sample>& out) const;
  // The /runs body: a JSON array with one object per live run/session
  // (mode, session id, latest ProgressSnapshot). Thread-safe.
  std::string RunsJson() const;

  ExecutionMode mode_ = ExecutionMode::kInline;
  // Thread modes: each run's pipeline options.
  net::RequestPipelineOptions pipeline_;
  RunOptions defaults_;
  EstimandSelection estimand_;
  double confidence_ = 0.95;
  const attr::AttributeTable* attributes_ = nullptr;
  ObservabilityOptions obs_;
  // Build() injected the wire clock into the caller-owned tracer; the
  // clock reads the sampler-owned RemoteBackend, so ~Sampler must clear
  // it before the backend dies (the tracer outlives the Sampler).
  bool installed_tracer_clock_ = false;

  // Ownership order matters: the store outlives the group/service that
  // journals into it; the remote wraps the inner backend.
  std::unique_ptr<access::GraphAccess> graph_access_;
  std::unique_ptr<net::RemoteBackend> remote_;
  const access::AccessBackend* backend_ = nullptr;
  std::unique_ptr<store::HistoryStore> owned_store_;
  store::HistoryStore* store_ = nullptr;
  // Thread modes: the durable-history read tier and the per-sampler flight
  // recorder group_ was built with (service mode records per session).
  std::unique_ptr<access::CacheTier> store_tier_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<access::SharedAccessGroup> group_;
  // Thread modes: the steppers every run's walkers are multiplexed on.
  std::unique_ptr<estimate::StepPool> pool_;
  std::unique_ptr<service::SamplingService> service_;
  // Remote mode: the dialed daemon connection, shared with every run
  // handle (so cached reads survive the Sampler).
  std::shared_ptr<rpc::Client> rpc_client_;
  // The live HTTP endpoint; its serving thread reads registry() and
  // RunsJson(), so ~Sampler stops it before tearing anything else down.
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  // Pull collectors registered with registry(); reset before the members
  // they read are destroyed (declared last => destroyed first, and the
  // destructor also clears them explicitly once runs are quiesced).
  std::vector<obs::Registry::CollectorHandle> collectors_;
  util::Status warm_start_status_;

  mutable std::mutex mu_;
  std::shared_ptr<RunHandle::Shared> active_;  // thread modes: current run
  // Service mode: live trackers by session, for per-session hw_est_*
  // scrape labels; expired entries are pruned at scrape time (hence
  // mutable — CollectSamples is logically const).
  mutable std::map<service::SessionId, std::weak_ptr<obs::ProgressTracker>>
      session_progress_;

  std::mutex bias_mu_;
  std::map<core::WalkerType, core::StationaryBias> bias_cache_;
};

}  // namespace histwalk::api

#endif  // HISTWALK_API_SAMPLER_H_
