// histwalk_e2e: one seeded end-to-end crawl workload, measured through the
// library's public front door (api::SamplerBuilder, rpc::Server).
//
//   histwalk_e2e --workload W --seed N --seconds S --trace 0|1
//                [--out-dir DIR] [--commit SHA] [--expected FILE]
//                [--corrupt-reference 1]
//
// Workloads (see perfbench/README.md for why each exists):
//   resume-inline   re-crawl from a saved history snapshot, inline misses
//   cold-pipelined  first crawl, fresh Sampler + WAL store per session
//   remote-tenants  min(4, nproc) rpc clients on one service-mode daemon
//
// A run is a fixed number of rounds (seconds / kRoundSeconds, at least
// kMinRounds), so the work done depends only on --seconds, never on
// how fast the build under test is. Each round sets up from scratch (timed:
// setup_s is the median over rounds) and then runs a fixed set of seeded
// sessions closed-loop (timed window). Every session's traces and estimate
// are checked against a single-threaded inline reference for its seed; any
// mismatch, non-OK status or refused submit counts against ok_frac and
// makes the exit code non-zero. The references themselves are checked
// against the digest committed for the workload and seed in --expected, so
// a change to the walk or the estimator that every mode shares fails too.
//
// With --trace 1, every other round is traced: spans around each call into
// a layer, a timing backend under the wire, the library's profiler sites,
// and replays of the walker and the estimator from the session reports.
// The last line of stdout is the result JSON; with --trace 0 it carries the
// end-to-end metrics, with --trace 1 the per-layer ones.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "access/graph_access.h"
#include "api/sampler.h"
#include "core/walker_factory.h"
#include "estimate/estimators.h"
#include "experiment/datasets.h"
#include "ledger.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "store/history_store.h"
#include "util/random.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace histwalk::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kWalkers = 8;
constexpr uint32_t kMinRounds = 3;

// The simulated wire every session pays: it advances a virtual clock and
// never sleeps, so real time measures the host stack alone.
net::LatencyModelOptions Wire(uint64_t seed) {
  return {.seed = seed,
          .base_latency_us = 50'000,
          .jitter_us = 25'000,
          .per_item_us = 2'000};
}

enum class Workload { kResumeInline, kColdPipelined, kRemoteTenants };

struct Shape {
  Workload workload;
  std::string_view name;
  uint32_t sessions;  // per round
  uint64_t steps;     // per walker per session
};

// Sized so a round takes about kRoundSeconds on a 4-core x86 host; a run
// is seconds / kRoundSeconds rounds, at least kMinRounds.
constexpr Shape kShapes[] = {
    {Workload::kResumeInline, "resume-inline", 16, 24000},
    {Workload::kColdPipelined, "cold-pipelined", 16, 3500},
    {Workload::kRemoteTenants, "remote-tenants", 16, 3500},
};
constexpr double kRoundSeconds = 2.0;

// Remote-tenants' shared cache holds this many neighbor lists, below the
// concurrent tenants' combined working set, so CLOCK eviction runs.
constexpr uint64_t kTenantCacheCapacity = 16'384;

struct Args {
  const Shape* shape = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string expected;  // committed reference digests; empty: none
  bool corrupt_reference = false;
};

// ---- correctness reference -------------------------------------------------

class Fnv {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Everything the determinism contract fixes for a seed: start nodes, each
// walker's trace and standalone QueryStats.
uint64_t TraceDigest(const estimate::EnsembleResult& ensemble) {
  Fnv fnv;
  fnv.Add(ensemble.starts.size());
  for (graph::NodeId start : ensemble.starts) fnv.Add(start);
  for (const estimate::TracedWalk& trace : ensemble.traces) {
    fnv.Add(trace.nodes.size());
    for (size_t t = 0; t < trace.nodes.size(); ++t) {
      fnv.Add(trace.nodes[t]);
      fnv.Add(trace.degrees[t]);
      fnv.Add(trace.unique_queries[t]);
    }
    fnv.Add(static_cast<uint64_t>(trace.final_status.code()));
  }
  for (const access::QueryStats& stats : ensemble.walker_stats) {
    fnv.Add(stats.total_queries);
    fnv.Add(stats.unique_queries);
    fnv.Add(stats.cache_hits);
  }
  return fnv.value();
}

struct Reference {
  uint64_t trace_digest = 0;
  uint64_t estimate_bits = 0;
  uint64_t std_error_bits = 0;
};

bool Matches(const api::RunReport& report, const Reference& reference) {
  return report.has_estimate &&
         TraceDigest(report.ensemble) == reference.trace_digest &&
         Bits(report.estimate) == reference.estimate_bits &&
         Bits(report.std_error) == reference.std_error_bits;
}

// One digest over every session's reference, in session order: the value
// committed per workload and seed in perfbench/expected.txt.
uint64_t ReferencesDigest(const std::vector<Reference>& references) {
  Fnv fnv;
  for (const Reference& reference : references) {
    fnv.Add(reference.trace_digest);
    fnv.Add(reference.estimate_bits);
    fnv.Add(reference.std_error_bits);
  }
  return fnv.value();
}

// The digest `path` commits for `workload` and `seed`, if it lists one.
// Lines are "<workload> <seed> <hex digest>"; '#' starts a comment.
util::Result<std::optional<uint64_t>> ExpectedDigest(const std::string& path,
                                                      std::string_view workload,
                                                      uint64_t seed) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string name;
    uint64_t line_seed = 0;
    std::string hex;
    if (!(fields >> name)) continue;
    uint64_t digest = 0;
    const bool parsed =
        (fields >> line_seed >> hex) &&
        std::from_chars(hex.data(), hex.data() + hex.size(), digest, 16).ptr ==
            hex.data() + hex.size();
    if (!parsed) {
      return util::Status::InvalidArgument("bad line in " + path + ": " + line);
    }
    if (name == workload && line_seed == seed) {
      return std::optional<uint64_t>(digest);
    }
  }
  return std::optional<uint64_t>();
}

core::WalkerSpec Cnrw() {
  core::WalkerSpec spec;
  spec.type = core::WalkerType::kCnrw;
  return spec;
}

// A store over `snapshot`, journaling to `wal` when one is given.
store::HistoryStoreOptions StoreAt(std::string snapshot, std::string wal = "") {
  store::HistoryStoreOptions options;
  options.snapshot_path = std::move(snapshot);
  options.wal_path = std::move(wal);
  return options;
}

api::RunOptions SessionRun(uint64_t seed, uint64_t steps) {
  api::RunOptions options;
  options.walker = Cnrw();
  options.num_walkers = kWalkers;
  options.seed = seed;
  options.max_steps = steps;
  return options;
}

// The builder every in-process stack starts from: the graph (or the traced
// timing backend over it) behind the simulated wire, estimating the average
// degree. Walker, ensemble and length come with each session's RunOptions.
api::SamplerBuilder LocalStack(const graph::Graph& graph,
                               const access::AccessBackend* timing,
                               uint64_t wire_seed) {
  api::SamplerBuilder builder;
  if (timing != nullptr) {
    builder.OverBackend(timing);
  } else {
    builder.OverGraph(&graph);
  }
  builder.WithRemoteWire(Wire(wire_seed)).EstimateAverageDegree();
  return builder;
}

// Single-threaded inline crawl per seed, no wire: by the determinism
// contract its traces are what every mode must reproduce.
util::Result<std::vector<Reference>> BuildReferences(
    const graph::Graph& graph, const std::vector<uint64_t>& seeds,
    uint64_t steps) {
  api::SamplerBuilder builder;
  builder.OverGraph(&graph).RunInline(1).EstimateAverageDegree();
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> sampler, builder.Build());
  std::vector<Reference> references;
  for (uint64_t seed : seeds) {
    HW_ASSIGN_OR_RETURN(api::RunHandle handle,
                        sampler->Run(SessionRun(seed, steps)));
    HW_ASSIGN_OR_RETURN(api::RunReport report, handle.Wait());
    references.push_back({TraceDigest(report.ensemble), Bits(report.estimate),
                          Bits(report.std_error)});
  }
  return references;
}

// ---- measurements ----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Starts a new peak-RSS window: Linux resets the VmHWM high-water mark on
// a write of "5" to clear_refs. Returns false where that is unsupported.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// Peak RSS in MiB since the last ResetPeakRss (VmHWM), or over the whole
// process (ru_maxrss) when the window could not be reset.
double PeakRssMiB(bool windowed) {
  if (windowed) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
      }
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// Per-layer figures of the traced rounds: timing samples (reported as
// medians) and counters (reported as sums).
// Thread-safe: client threads record into it.
class Ledger {
 public:
  void Sample(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  void Count(const std::string& name, double delta) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[name] += delta;
  }
  void Max(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_[name] = std::max(counts_[name], value);
  }
  double MedianOf(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }
  double CountOf(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;  // guarded by mu_
  std::map<std::string, double> counts_;                // guarded by mu_
};

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// What one session left behind.
struct Session {
  uint32_t index = 0;  // into the run's seed list
  double ms = 0.0;     // submit -> Wait() return (cold: Build -> Wait)
  bool ok = false;
  std::string error;
  uint64_t steps = 0;
  uint64_t charged = 0;
  uint64_t sim_us = 0;  // cold-pipelined: the session's own wire clock
  uint64_t root_span = 0;
  api::RunReport report;  // kept in traced rounds for the replays
};

struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t sim_us = 0;  // simulated wire time billed to the round
  std::vector<Session> sessions;
};

struct Run {
  Args args;
  unsigned clients = 1;
  std::vector<uint64_t> seeds;
  std::vector<Reference> references;
  bool references_trusted = true;  // false: they differ from --expected
  fs::path work_dir;
  fs::path snapshot;  // resume-inline's saved history
  SpanLog spans;  // enabled during traced rounds
  Ledger ledger;
  std::map<std::string, uint64_t> prof_self_ns;  // traced rounds only

  explicit Run(const Args& a) : args(a) {}
  const Shape& shape() const { return *args.shape; }
};

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MsSince(Clock::time_point start) { return 1e3 * SecondsSince(start); }

// Fills `session` from a finished handle: timing is the caller's, the
// verdict comes from the reference for the session's seed.
void Settle(Run& run, Session& session, util::Result<api::RunReport> waited,
            bool keep_report) {
  if (!waited.ok()) {
    session.error = waited.status().ToString();
    return;
  }
  api::RunReport& report = *waited;
  session.steps = report.ensemble.num_steps();
  session.charged = report.charged_queries;
  session.ok = run.references_trusted &&
               Matches(report, run.references[session.index]);
  if (!session.ok) {
    session.error = run.references_trusted
                        ? "output differs from the reference"
                        : "the reference differs from the committed digest";
  }
  if (keep_report) session.report = std::move(report);
}

// One client's submit -> Wait with spans and api samples; `remote` names
// the rpc layer's spans instead of the in-process api ones.
util::Result<api::RunReport> SubmitAndWait(Run& run, api::Sampler& sampler,
                                           Session& session, bool traced,
                                           bool remote) {
  const uint64_t seed = run.seeds[session.index];
  util::Result<api::RunHandle> handle = util::Status::Internal("unset");
  const auto submit_start = Clock::now();
  {
    ScopedSpan span(run.spans, remote ? "rpc.submit" : "api.run_submit",
                    session.index, session.root_span);
    handle = sampler.Run(SessionRun(seed, run.shape().steps));
  }
  const double submit_us = 1e3 * MsSince(submit_start);
  if (!handle.ok()) return handle.status();
  const auto wait_start = Clock::now();
  util::Result<api::RunReport> report = util::Status::Internal("unset");
  {
    ScopedSpan span(run.spans, remote ? "rpc.wait" : "api.wait",
                    session.index, session.root_span);
    report = handle->Wait();
  }
  if (traced) {
    const double wait_ms = MsSince(wait_start);
    run.ledger.Sample("api.run_submit_us", submit_us);
    run.ledger.Sample("api.wait_ms", wait_ms);
    if (remote) {
      run.ledger.Sample("rpc.submit_rtt_us", submit_us);
      run.ledger.Sample("rpc.wait_rtt_ms", wait_ms);
    }
  }
  return report;
}

// One session on a stack that is already built: the root span and the
// session time cover submit -> Wait(), then the output is checked.
void RunSession(Run& run, api::Sampler& sampler, Session& session,
                bool traced, bool remote) {
  const auto start = Clock::now();
  util::Result<api::RunReport> waited = util::Status::Internal("unset");
  {
    ScopedSpan root(run.spans, "session", session.index);
    session.root_span = root.id();
    waited = SubmitAndWait(run, sampler, session, traced, remote);
    session.ms = MsSince(start);
  }
  Settle(run, session, std::move(waited), traced);
}

// Runs `body(client)` on `clients` threads and joins them all.
template <typename Body>
void OnClients(unsigned clients, Body body) {
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (std::thread& thread : threads) thread.join();
}

// ---- workloads -------------------------------------------------------------

experiment::Dataset BuildGraph(const Run& run) {
  return experiment::BuildDataset(experiment::DatasetId::kYoutube,
                                  util::SubSeed(run.args.seed, 0));
}

void CountCache(Run& run, const access::HistoryCacheStats& stats) {
  run.ledger.Count("access.cache_hits", static_cast<double>(stats.hits));
  run.ledger.Count("access.cache_misses", static_cast<double>(stats.misses));
  run.ledger.Count("access.cache_evictions",
                   static_cast<double>(stats.evictions));
}

void CountWire(Run& run, const net::RemoteBackendStats& stats) {
  run.ledger.Count("net.wire_requests", static_cast<double>(stats.requests));
  run.ledger.Count("net.wire_items", static_cast<double>(stats.items));
}

void CountPipeline(Run& run, const net::RequestPipelineStats& stats) {
  run.ledger.Count("net.pipeline_submitted",
                   static_cast<double>(stats.submitted));
  run.ledger.Count("net.dedup_joins", static_cast<double>(stats.dedup_joins));
  run.ledger.Count("net.late_hits", static_cast<double>(stats.late_hits));
  run.ledger.Max("net.max_queue_depth",
                 static_cast<double>(stats.max_queue_depth));
}

void CountBackend(Run& run, const TimingBackend& timing) {
  run.ledger.Count("access.backend_fetches",
                   static_cast<double>(timing.fetches()));
  run.ledger.Count("access.backend_distinct",
                   static_cast<double>(timing.distinct()));
  run.ledger.Count("access.backend_fetch_ns_total",
                   static_cast<double>(timing.fetch_ns()));
}

util::Status ResumeInlinePrep(Run& run, const graph::Graph& graph) {
  // Crawl every session seed for the first half of its steps and save the
  // union as the snapshot the timed rounds warm-start from.
  run.snapshot = run.work_dir / "resume.hwss";
  api::SamplerBuilder builder =
      LocalStack(graph, nullptr, util::SubSeed(run.args.seed, 7));
  builder.WithHistoryStore(StoreAt(run.snapshot.string()))
      .WithWarmStart(false)
      .RunInline(run.clients);
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> sampler, builder.Build());
  for (uint64_t seed : run.seeds) {
    HW_ASSIGN_OR_RETURN(api::RunHandle handle,
                        sampler->Run(SessionRun(seed, run.shape().steps / 2)));
    HW_RETURN_IF_ERROR(handle.Wait().status());
  }
  return sampler->SaveHistory();
}

util::Result<Round> ResumeInlineRound(Run& run, const graph::Graph& graph,
                                      Clock::time_point setup_start,
                                      bool traced) {
  Round round;
  round.traced = traced;
  access::GraphAccess graph_access(&graph, nullptr);
  std::optional<TimingBackend> timing;
  if (traced) timing.emplace(&graph_access);
  api::SamplerBuilder builder = LocalStack(
      graph, timing ? &*timing : nullptr, util::SubSeed(run.args.seed, 7));
  // Snapshot-only store: the timed sessions read history, never journal.
  builder.WithHistoryStore(StoreAt(run.snapshot.string()))
      .RunInline(run.clients);
  const auto build_start = Clock::now();
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> sampler, builder.Build());
  const double build_ms = MsSince(build_start);
  HW_RETURN_IF_ERROR(sampler->warm_start_status());
  round.setup_s = SecondsSince(setup_start);

  const access::HistoryCacheStats cache_before =
      sampler->group()->cache().stats();
  const double cpu_start = CpuSeconds();
  const auto window_start = Clock::now();
  for (uint32_t i = 0; i < run.shape().sessions; ++i) {
    Session session;
    session.index = i;
    RunSession(run, *sampler, session, traced, false);
    round.sessions.push_back(std::move(session));
  }
  round.window_s = SecondsSince(window_start);
  round.cpu_s = CpuSeconds() - cpu_start;
  round.sim_us = sampler->sim_now_us();

  if (traced) {
    run.ledger.Sample("api.build_ms", build_ms);
    access::HistoryCacheStats cache = sampler->group()->cache().stats();
    cache.hits -= cache_before.hits;
    cache.misses -= cache_before.misses;
    cache.evictions -= cache_before.evictions;
    CountCache(run, cache);
    CountWire(run, sampler->remote()->stats());
    CountBackend(run, *timing);
    // The store read path, timed on its own: open the snapshot and load it
    // into a fresh cache, as Build() did.
    const auto load_start = Clock::now();
    HW_ASSIGN_OR_RETURN(
        std::unique_ptr<store::HistoryStore> store,
        store::HistoryStore::Open(StoreAt(run.snapshot.string())));
    access::HistoryCache scratch;
    HW_RETURN_IF_ERROR(store->LoadInto(scratch));
    run.ledger.Sample("store.snapshot_load_ms", MsSince(load_start));
    run.ledger.Count("store.loaded_entries",
                     static_cast<double>(store->stats().loaded_snapshot_entries));
  }
  return round;
}

util::Result<Round> ColdPipelinedRound(Run& run, const graph::Graph& graph,
                                       Clock::time_point setup_start,
                                       bool traced, uint32_t round_index) {
  Round round;
  round.traced = traced;
  access::GraphAccess graph_access(&graph, nullptr);
  const fs::path round_dir =
      run.work_dir / ("cold-" + std::to_string(round_index));
  fs::create_directories(round_dir);
  round.setup_s = SecondsSince(setup_start);

  const uint32_t sessions = run.shape().sessions;
  round.sessions.resize(sessions);
  std::atomic<uint32_t> next{0};
  const double cpu_start = CpuSeconds();
  const auto window_start = Clock::now();
  OnClients(run.clients, [&](unsigned) {
    for (uint32_t i = next.fetch_add(1); i < sessions; i = next.fetch_add(1)) {
      Session& session = round.sessions[i];
      session.index = i;
      const uint64_t seed = run.seeds[i];
      const std::string base = (round_dir / std::to_string(i)).string();
      std::optional<TimingBackend> timing;
      if (traced) timing.emplace(&graph_access);
      api::SamplerBuilder builder = LocalStack(
          graph, timing ? &*timing : nullptr, util::SubSeed(seed, 7));
      builder
          .WithHistoryStore(StoreAt(base + ".hwss", base + ".wal"))
          .RunPipelined({.depth = 8});
      const auto start = Clock::now();
      util::Result<std::unique_ptr<api::Sampler>> built =
          util::Status::Internal("unset");
      util::Result<api::RunReport> waited = util::Status::Internal("unset");
      double build_ms = 0.0;
      {
        ScopedSpan root(run.spans, "session", i);
        session.root_span = root.id();
        {
          ScopedSpan span(run.spans, "api.build", i, root.id());
          built = builder.Build();
        }
        build_ms = MsSince(start);
        if (built.ok()) {
          waited = SubmitAndWait(run, **built, session, traced, false);
        }
        session.ms = MsSince(start);
      }
      if (!built.ok()) {
        session.error = built.status().ToString();
        continue;
      }
      const std::unique_ptr<api::Sampler>& sampler = *built;
      Settle(run, session, std::move(waited), traced);
      session.sim_us = sampler->sim_now_us();
      if (!traced) continue;
      run.ledger.Sample("api.build_ms", build_ms);
      CountCache(run, sampler->group()->cache().stats());
      CountWire(run, sampler->remote()->stats());
      CountPipeline(run, session.report.ensemble.pipeline_stats);
      CountBackend(run, *timing);
      const store::HistoryStoreStats store = sampler->history_store()->stats();
      run.ledger.Count("store.wal_appends",
                       static_cast<double>(store.appended_records));
      run.ledger.Count("store.wal_bytes", static_cast<double>(store.wal_bytes));
      run.ledger.Count("store.append_failures",
                       static_cast<double>(store.append_failures));
      run.ledger.Count("store.checkpoints",
                       static_cast<double>(store.checkpoints));
    }
  });
  round.window_s = SecondsSince(window_start);
  round.cpu_s = CpuSeconds() - cpu_start;
  for (const Session& session : round.sessions) round.sim_us += session.sim_us;
  fs::remove_all(round_dir);
  return round;
}

util::Result<Round> RemoteTenantsRound(Run& run, const graph::Graph& graph,
                                       Clock::time_point setup_start,
                                       bool traced) {
  Round round;
  round.traced = traced;
  access::GraphAccess graph_access(&graph, nullptr);
  std::optional<TimingBackend> timing;
  if (traced) timing.emplace(&graph_access);
  api::SamplerBuilder builder = LocalStack(
      graph, timing ? &*timing : nullptr, util::SubSeed(run.args.seed, 7));
  builder.WithCache({.capacity = kTenantCacheCapacity})
      .RunAsService({.max_sessions = 2 * run.clients,
                     .admission_wait_us = 10'000'000,
                     .pipeline = {.depth = 4}});
  const auto build_start = Clock::now();
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> daemon, builder.Build());
  const double build_ms = MsSince(build_start);
  HW_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Server> server,
                      rpc::Server::Start(daemon.get(), {}));
  const std::string endpoint = "127.0.0.1:" + std::to_string(server->port());
  std::vector<std::unique_ptr<api::Sampler>> clients;
  for (unsigned c = 0; c < run.clients; ++c) {
    HW_ASSIGN_OR_RETURN(
        std::unique_ptr<api::Sampler> client,
        api::SamplerBuilder().WithRemoteService(endpoint, 60'000).Build());
    clients.push_back(std::move(client));
  }
  round.setup_s = SecondsSince(setup_start);

  const uint32_t sessions = run.shape().sessions;
  round.sessions.resize(sessions);
  const double cpu_start = CpuSeconds();
  const auto window_start = Clock::now();
  OnClients(run.clients, [&](unsigned c) {
    // Each client owns its connection and submits its sessions back to
    // back: sessions c, c + clients, c + 2 * clients, ...
    for (uint32_t i = c; i < sessions; i += run.clients) {
      Session& session = round.sessions[i];
      session.index = i;
      RunSession(run, *clients[c], session, traced, true);
    }
  });
  round.window_s = SecondsSince(window_start);
  round.cpu_s = CpuSeconds() - cpu_start;
  round.sim_us = daemon->sim_now_us();

  if (traced) {
    run.ledger.Sample("api.build_ms", build_ms);
    const service::ServiceStats service = daemon->service()->stats();
    CountCache(run, service.cache);
    CountWire(run, daemon->remote()->stats());
    CountPipeline(run, service.pipeline);
    CountBackend(run, *timing);
    run.ledger.Count("service.submitted", static_cast<double>(service.submitted));
    run.ledger.Count("service.admission_waits",
                     static_cast<double>(service.admission_waits));
    run.ledger.Count("service.failed", static_cast<double>(service.failed));
    run.ledger.Count("service.cache_hits",
                     static_cast<double>(service.cache.hits));
    run.ledger.Count("service.cache_lookups",
                     static_cast<double>(service.cache.hits + service.cache.misses));
    clients.clear();
    server->Shutdown();
    const rpc::ServerStats stats = server->stats();
    run.ledger.Count("rpc.requests", static_cast<double>(stats.requests_total));
    run.ledger.Count("rpc.protocol_errors",
                     static_cast<double>(stats.protocol_errors));
  }
  return round;
}

// ---- traced-round replays --------------------------------------------------

// Replays each session's seeds through the walker's public API over a plain
// GraphAccess (the walk without the stack around it), and its merged traces
// through the estimator and the convergence tracker. A replay that departs
// from the report fails the session.
void ReplaySessions(Run& run, Round& round, const graph::Graph& graph) {
  uint64_t steps = 0;
  uint64_t step_ns = 0;
  for (Session& session : round.sessions) {
    if (!session.ok) continue;
    const api::RunReport& report = session.report;
    const uint64_t seed = run.seeds[session.index];
    for (uint32_t w = 0; w < report.ensemble.traces.size(); ++w) {
      const estimate::TracedWalk& trace = report.ensemble.traces[w];
      access::GraphAccess access(&graph, nullptr);
      auto walker = core::MakeWalker(Cnrw(), &access, util::SubSeed(seed, w));
      if (!walker.ok() || !(*walker)->Reset(report.ensemble.starts[w]).ok()) {
        session.ok = false;
        session.error = "walker replay could not start";
        break;
      }
      bool same = true;
      ScopedSpan span(run.spans, "core.replay", session.index,
                      session.root_span);
      const uint64_t start = NowNs();
      for (graph::NodeId expected : trace.nodes) {
        auto node = (*walker)->Step();
        same = same && node.ok() && *node == expected;
      }
      step_ns += NowNs() - start;
      steps += trace.nodes.size();
      if (!same) {
        session.ok = false;
        session.error = "walker replay departs from the trace";
      }
    }

    ScopedSpan span(run.spans, "estimate.finish", session.index,
                    session.root_span);
    const uint64_t start = NowNs();
    estimate::MergedSamples merged = report.ensemble.Merged();
    const double estimate = estimate::EstimateAverageDegree(
        merged.degrees, core::StationaryBias::kDegreeProportional);
    obs::ProgressOptions options;
    options.num_walkers = static_cast<uint32_t>(report.ensemble.traces.size());
    options.flush_interval = std::numeric_limits<uint32_t>::max();
    options.has_estimand = true;
    obs::ProgressTracker tracker(std::move(options));
    for (uint32_t w = 0; w < report.ensemble.traces.size(); ++w) {
      const estimate::TracedWalk& trace = report.ensemble.traces[w];
      for (size_t t = 0; t < trace.nodes.size(); ++t) {
        tracker.OnStep(w, trace.nodes[t], trace.degrees[t],
                       trace.unique_queries[t]);
      }
      tracker.FinishWalker(w);
    }
    const obs::ProgressSnapshot finals = tracker.Snapshot();
    run.ledger.Sample("estimate.finish_ms", (NowNs() - start) / 1e6);
    if (Bits(estimate) != Bits(report.estimate) ||
        Bits(finals.std_error) != Bits(report.std_error)) {
      session.ok = false;
      session.error = "estimator replay departs from the report";
    }
  }
  run.ledger.Count("core.steps", static_cast<double>(steps));
  run.ledger.Count("core.step_ns_total", static_cast<double>(step_ns));
}

// Round-trips every received report through the wire codec.
void CodecSessions(Run& run, Round& round) {
  for (Session& session : round.sessions) {
    if (!session.ok) continue;
    ScopedSpan span(run.spans, "rpc.codec", session.index, session.root_span);
    const uint64_t encode_start = NowNs();
    const std::string payload = rpc::EncodeRunReport(session.report);
    const uint64_t decode_start = NowNs();
    auto decoded = rpc::DecodeRunReport(payload);
    const uint64_t end = NowNs();
    run.ledger.Sample("rpc.report_encode_us", (decode_start - encode_start) / 1e3);
    run.ledger.Sample("rpc.report_decode_us", (end - decode_start) / 1e3);
    run.ledger.Sample("rpc.report_bytes", static_cast<double>(payload.size()));
    if (!decoded.ok() ||
        !Matches(*decoded, run.references[session.index])) {
      session.ok = false;
      session.error = "report does not survive the wire codec";
    }
  }
}

std::map<std::string, uint64_t> ProfilerSelfNs() {
  std::map<std::string, uint64_t> out;
  for (const auto& site : obs::Profiler::Global().Snapshot()) {
    out[site.name] = site.self_ns;
  }
  return out;
}

util::Result<Round> RunRound(Run& run, uint32_t index, bool traced) {
  obs::Profiler& profiler = obs::Profiler::Global();
  const auto prof_before = ProfilerSelfNs();
  profiler.set_enabled(traced);
  run.spans.set_enabled(traced);
  const bool windowed_rss = ResetPeakRss();
  // Set-up starts here: every round builds its own graph.
  const auto setup_start = Clock::now();
  const experiment::Dataset dataset = BuildGraph(run);
  util::Result<Round> round = util::Status::Internal("unset");
  switch (run.shape().workload) {
    case Workload::kResumeInline:
      round = ResumeInlineRound(run, dataset.graph, setup_start, traced);
      break;
    case Workload::kColdPipelined:
      round = ColdPipelinedRound(run, dataset.graph, setup_start, traced, index);
      break;
    case Workload::kRemoteTenants:
      round = RemoteTenantsRound(run, dataset.graph, setup_start, traced);
      break;
  }
  profiler.set_enabled(false);
  if (round.ok()) round->peak_rss_mb = PeakRssMiB(windowed_rss);
  if (!round.ok() || !traced) {
    run.spans.set_enabled(false);
    return round;
  }
  for (const auto& [site, self_ns] : ProfilerSelfNs()) {
    auto it = prof_before.find(site);
    run.prof_self_ns[site] +=
        self_ns - (it == prof_before.end() ? 0 : it->second);
  }
  ReplaySessions(run, *round, dataset.graph);
  if (run.shape().workload == Workload::kRemoteTenants) {
    CodecSessions(run, *round);
  }
  run.spans.set_enabled(false);
  for (Session& session : round->sessions) session.report = {};
  return round;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  std::vector<double> session_ms;  // sorted
  uint64_t charged = 0;
  uint64_t sim_us = 0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> steps_per_s;  // one rate per round
  std::vector<double> peak_rss_mb;  // one high-water mark per round
};

uint64_t Steps(const Round& round) {
  uint64_t steps = 0;
  for (const Session& session : round.sessions) steps += session.steps;
  return steps;
}

Totals Sum(const std::vector<Round>& rounds, bool traced) {
  Totals totals;
  for (const Round& round : rounds) {
    if (round.traced != traced) continue;
    totals.window_s += round.window_s;
    totals.cpu_s += round.cpu_s;
    totals.sim_us += round.sim_us;
    totals.setup_s.push_back(round.setup_s);
    totals.steps_per_s.push_back(Ratio(Steps(round), round.window_s));
    totals.peak_rss_mb.push_back(round.peak_rss_mb);
    for (const Session& session : round.sessions) {
      ++totals.attempted;
      totals.ok += session.ok ? 1 : 0;
      totals.charged += session.charged;
      totals.session_ms.push_back(session.ms);
    }
  }
  std::sort(totals.session_ms.begin(), totals.session_ms.end());
  return totals;
}

// The highest of these percentiles with at least ten sessions beyond it.
double TailPercentile(size_t sessions) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (sessions * (100.0 - pct) / 100.0 >= 10.0) return pct;
  }
  return 50.0;
}

std::vector<Metric> EndToEnd(const Totals& totals, double tail_pct) {
  return {
      {"steps_per_s", Median(totals.steps_per_s), "steps/s"},
      {"session_ms_p50", Percentile(totals.session_ms, 50.0), "ms"},
      {"session_ms_tail", Percentile(totals.session_ms, tail_pct), "ms"},
      {"charged_queries", static_cast<double>(totals.charged), "queries"},
      {"sim_wire_s", totals.sim_us / 1e6, "s"},
      {"ok_frac", Ratio(totals.ok, totals.attempted), "ratio"},
      {"setup_s", Median(totals.setup_s), "s"},
      {"peak_rss_mb", Median(totals.peak_rss_mb), "MiB"},
  };
}

// Profiler sites the library records (obs/profiler.h HW_PROF_SCOPE); a
// fixed list so every run prints the same metric names.
constexpr std::string_view kProfSites[] = {
    "cache/get",        "cache/get_batch", "cache/put",
    "cache/sweep",      "pipeline/batch",  "pipeline/deliver",
    "pipeline/enqueue", "store/append",    "store/checkpoint",
    "walker/step"};

std::vector<Metric> PerLayer(const Run& run, const Totals& untraced,
                             const Totals& traced) {
  const Ledger& l = run.ledger;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double untraced_rate = Median(untraced.steps_per_s);
  const double traced_rate = Median(traced.steps_per_s);
  const std::vector<Span> spans = run.spans.Spans();
  std::vector<Metric> out = {
      {"api.build_ms", l.MedianOf("api.build_ms"), "ms"},
      {"api.run_submit_us", l.MedianOf("api.run_submit_us"), "us"},
      {"api.wait_ms", l.MedianOf("api.wait_ms"), "ms"},
      {"core.steps", l.CountOf("core.steps"), "count"},
      {"core.step_ns", Ratio(l.CountOf("core.step_ns_total"),
                             l.CountOf("core.steps")), "ns"},
      {"access.cache_hits", l.CountOf("access.cache_hits"), "count"},
      {"access.cache_misses", l.CountOf("access.cache_misses"), "count"},
      {"access.hit_ratio",
       Ratio(l.CountOf("access.cache_hits"),
             l.CountOf("access.cache_hits") + l.CountOf("access.cache_misses")),
       "ratio"},
      {"access.cache_evictions", l.CountOf("access.cache_evictions"), "count"},
      {"access.backend_fetches", l.CountOf("access.backend_fetches"), "count"},
      {"access.backend_fetch_ns",
       Ratio(l.CountOf("access.backend_fetch_ns_total"),
             l.CountOf("access.backend_fetches")), "ns"},
      {"access.distinct_fetch_ratio",
       Ratio(l.CountOf("access.backend_distinct"),
             l.CountOf("access.backend_fetches")), "ratio"},
      {"net.wire_requests", l.CountOf("net.wire_requests"), "count"},
      {"net.items_per_request",
       Ratio(l.CountOf("net.wire_items"), l.CountOf("net.wire_requests")),
       "ratio"},
      {"net.pipeline_submitted", l.CountOf("net.pipeline_submitted"), "count"},
      {"net.dedup_joins", l.CountOf("net.dedup_joins"), "count"},
      {"net.late_hits", l.CountOf("net.late_hits"), "count"},
      {"net.max_queue_depth", l.CountOf("net.max_queue_depth"), "count"},
      {"net.sim_us_per_query",
       Ratio(static_cast<double>(traced.sim_us), traced.charged), "us"},
      {"store.snapshot_load_ms", l.MedianOf("store.snapshot_load_ms"), "ms"},
      {"store.loaded_entries", l.CountOf("store.loaded_entries"), "count"},
      {"store.wal_appends", l.CountOf("store.wal_appends"), "count"},
      {"store.wal_bytes", l.CountOf("store.wal_bytes"), "bytes"},
      {"store.append_failures", l.CountOf("store.append_failures"), "count"},
      {"store.checkpoints", l.CountOf("store.checkpoints"), "count"},
      {"service.submitted", l.CountOf("service.submitted"), "count"},
      {"service.admission_waits", l.CountOf("service.admission_waits"),
       "count"},
      {"service.failed", l.CountOf("service.failed"), "count"},
      {"service.shared_hit_ratio",
       Ratio(l.CountOf("service.cache_hits"), l.CountOf("service.cache_lookups")),
       "ratio"},
      {"rpc.submit_rtt_us", l.MedianOf("rpc.submit_rtt_us"), "us"},
      {"rpc.wait_rtt_ms", l.MedianOf("rpc.wait_rtt_ms"), "ms"},
      {"rpc.requests", l.CountOf("rpc.requests"), "count"},
      {"rpc.protocol_errors", l.CountOf("rpc.protocol_errors"), "count"},
      {"rpc.report_bytes", l.MedianOf("rpc.report_bytes"), "bytes"},
      {"rpc.report_encode_us", l.MedianOf("rpc.report_encode_us"), "us"},
      {"rpc.report_decode_us", l.MedianOf("rpc.report_decode_us"), "us"},
      {"estimate.finish_ms", l.MedianOf("estimate.finish_ms"), "ms"},
      {"proc.cpu_s", traced.cpu_s, "s"},
      {"proc.cpu_util", Ratio(traced.cpu_s, traced.window_s * nproc), "ratio"},
      {"trace.overhead_frac",
       untraced_rate == 0.0 ? 0.0 : 1.0 - traced_rate / untraced_rate,
       "ratio"},
      {"trace.unattributed_frac", UnattributedFraction(spans), "ratio"},
  };
  for (std::string_view site : kProfSites) {
    std::string name(site);
    std::replace(name.begin(), name.end(), '/', '_');
    auto it = run.prof_self_ns.find(std::string(site));
    const double ns =
        it == run.prof_self_ns.end() ? 0.0 : static_cast<double>(it->second);
    out.push_back({"prof." + name + ".self_ms", ns / 1e6, "ms"});
  }
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}}";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---- main ------------------------------------------------------------------

// Prints the references' digest and compares it with the one --expected
// commits for this workload and seed; a mismatch fails every session.
util::Status CheckExpected(Run& run) {
  const uint64_t digest = ReferencesDigest(run.references);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << "reference_digest " << run.shape().name << " " << run.args.seed
            << " " << hex;
  if (run.args.expected.empty()) {
    std::cout << " (not checked)\n";
    return util::Status::Ok();
  }
  HW_ASSIGN_OR_RETURN(std::optional<uint64_t> expected,
                      ExpectedDigest(run.args.expected, run.shape().name,
                                     run.args.seed));
  if (!expected.has_value()) {
    std::cout << " (seed not in " << run.args.expected << ")\n";
  } else if (*expected == digest) {
    std::cout << " (matches " << run.args.expected << ")\n";
  } else {
    std::cout << " (DIFFERS from " << run.args.expected << ")\n";
    run.references_trusted = false;
  }
  return util::Status::Ok();
}

util::Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return util::Status::InvalidArgument("missing value for " +
                                           std::string(flag));
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return util::Status::InvalidArgument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = value == "1";
    } else {
      return util::Status::InvalidArgument("unknown flag " + std::string(flag));
    }
    if (end != nullptr && *end != '\0') {
      return util::Status::InvalidArgument("bad value for " +
                                           std::string(flag));
    }
  }
  for (const Shape& shape : kShapes) {
    if (shape.name == workload) args.shape = &shape;
  }
  if (args.shape == nullptr) {
    return util::Status::InvalidArgument("unknown workload '" + workload +
                                         "'");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return util::Status::InvalidArgument("--seconds must be in (0, 600]");
  }
  return args;
}

int Main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::cerr << "histwalk_e2e: " << parsed.status() << "\n";
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type == "Debug" || asserts || PERFBENCH_SANITIZED) {
    std::cerr << "histwalk_e2e: refusing to measure a " << build_type
              << (PERFBENCH_SANITIZED ? " sanitizer" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  Run run(*parsed);
  const Shape& shape = run.shape();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  run.clients = std::min(4u, nproc);
  for (uint32_t i = 0; i < shape.sessions; ++i) {
    run.seeds.push_back(util::SubSeed(run.args.seed, 1 + i));
  }
  run.work_dir = fs::path(run.args.out_dir) /
                 ("work-" + std::string(shape.name) + "-" +
                  std::to_string(getpid()));
  fs::create_directories(run.work_dir);
  const uint32_t rounds = std::max<uint32_t>(
      kMinRounds,
      static_cast<uint32_t>(std::lround(run.args.seconds / kRoundSeconds)));

  double load1 = 0.0;
  getloadavg(&load1, 1);
  std::cout << "env {\"nproc\": " << nproc
            << ", \"build_type\": " << Quote(build_type)
            << ", \"compiler\": " << Quote(Compiler())
            << ", \"sanitizer\": " << (PERFBENCH_SANITIZED ? "true" : "false")
            << ", \"commit\": " << Quote(run.args.commit)
            << ", \"workload\": " << Quote(shape.name)
            << ", \"seed\": " << run.args.seed
            << ", \"loadavg_1m\": " << Number(load1)
            << ", \"clients\": " << run.clients << ", \"rounds\": " << rounds
            << ", \"sessions_per_round\": " << shape.sessions
            << ", \"steps_per_walker\": " << shape.steps
            << ", \"trace\": " << (run.args.trace ? 1 : 0) << "}\n";

  // Untimed prep: the references (and resume-inline's saved history).
  util::Status status = util::Status::Ok();
  {
    experiment::Dataset dataset = BuildGraph(run);
    auto references = BuildReferences(dataset.graph, run.seeds, shape.steps);
    if (references.ok()) {
      run.references = *std::move(references);
      status = CheckExpected(run);
      if (run.args.corrupt_reference) {
        for (Reference& reference : run.references) reference.trace_digest ^= 1;
      }
      if (status.ok() && shape.workload == Workload::kResumeInline) {
        status = ResumeInlinePrep(run, dataset.graph);
      }
    } else {
      status = references.status();
    }
  }
  std::vector<Round> rounds_done;
  for (uint32_t r = 0; r < rounds && status.ok(); ++r) {
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured within the run.
    const bool traced = run.args.trace && r % 2 == 1;
    auto round = RunRound(run, r, traced);
    if (!round.ok()) {
      status = round.status();
      break;
    }
    std::cout << "round " << r << (traced ? " traced" : "")
              << ": setup_s=" << Number(round->setup_s)
              << " window_s=" << Number(round->window_s)
              << " steps_per_s=" << Number(Ratio(Steps(*round), round->window_s))
              << "\n";
    rounds_done.push_back(*std::move(round));
  }
  std::error_code ignored;
  fs::remove_all(run.work_dir, ignored);
  if (!status.ok()) {
    std::cerr << "histwalk_e2e: " << status << "\n";
    return 1;
  }

  const Totals untraced = Sum(rounds_done, false);
  const Totals traced = Sum(rounds_done, true);
  const double tail_pct = TailPercentile(untraced.attempted);
  const std::vector<Metric> e2e = EndToEnd(untraced, tail_pct);
  for (const Metric& metric : e2e) {
    std::cout << "  " << metric.name << " = " << Number(metric.value) << " "
              << metric.unit << "\n";
  }
  std::cout << "  session_ms_tail is p" << Number(tail_pct) << " of "
            << untraced.attempted << " sessions ("
            << Number(untraced.attempted * (100.0 - tail_pct) / 100.0)
            << " beyond it); session_ms_p50 of the same "
            << untraced.attempted << "\n";

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Round& round : rounds_done) {
    for (const Session& session : round.sessions) {
      ++attempted;
      if (!session.ok) {
        ++failed;
        if (failed <= 5) {
          std::cerr << "histwalk_e2e: session " << session.index << " failed: "
                    << session.error << "\n";
        }
      }
    }
  }
  std::vector<Metric> metrics = e2e;
  if (run.args.trace) {
    metrics = PerLayer(run, untraced, traced);
    std::cout << "per-layer (traced rounds; " << traced.attempted
              << " sessions):\n";
    for (const Metric& metric : metrics) {
      std::cout << "  " << metric.name << " = " << Number(metric.value) << " "
                << metric.unit << "\n";
    }
    for (const LayerTime& layer : SelfTimes(run.spans.Spans())) {
      std::cout << "  span " << layer.name << ": count=" << layer.count
                << " total_ms=" << Number(layer.total_ns / 1e6)
                << " self_ms=" << Number(layer.self_ns / 1e6) << "\n";
    }
    const std::string spans_path =
        (fs::path(run.args.out_dir) /
         ("spans-" + std::string(shape.name) + "-seed" +
          std::to_string(run.args.seed) + ".jsonl"))
            .string();
    if (!run.spans.WriteJsonLines(spans_path)) {
      std::cerr << "histwalk_e2e: cannot write " << spans_path << "\n";
      return 1;
    }
  }
  const bool correct = failed == 0;
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace histwalk::perfbench

int main(int argc, char** argv) {
  return histwalk::perfbench::Main(argc, argv);
}
