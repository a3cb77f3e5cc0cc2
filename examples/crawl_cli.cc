// Command-line crawler: run any sampler over an edge-list graph and report
// the unbiased average-degree estimate plus convergence diagnostics. The
// whole stack is assembled through the api::SamplerBuilder facade; every
// knob is a named --flag mapping 1:1 onto a builder option.
//
//   crawl_cli [--flags] <edges-file>
//
//     <edges-file>       SNAP-style "u v" lines ('#' comments allowed)
//     --walker=W         srw | mhrw | nbsrw | cnrw | cnrw-node | nbcnrw |
//                        gnrw (default cnrw; gnrw uses an 8-way degree
//                        grouping)                 -> WithWalker
//     --budget=N         shared fetch budget (default 1000)
//                                                  -> WithGroupQueryBudget
//     --seed=N           RNG seed (default 1)      -> WithEnsemble
//     --latency-us=N     simulate a remote service: base per-request wire
//                        latency in microseconds (default 0 = in-memory,
//                        no wire; jitter is latency/2)  -> WithRemoteWire
//     --depth=N          pipeline depth when --latency-us > 0 (default 1):
//                        wire slots overlapped by the latency model AND
//                        the in-flight bound of the request pipeline
//                        resolving cache misses    -> RunPipelined
//     --cache-capacity=N max cached neighbor lists (default 0 = unbounded)
//                                                  -> WithCache
//     --num-shards=N     clock shards in the history cache (default 8;
//                        powers of two dispatch with a mask instead of a
//                        divide)                   -> WithCache
//     --threads=N        stepper threads for in-memory runs (default
//                        1; ignored by --latency-us runs, which step
//                        on one stepper per core). The printed
//                        output and --trace-out bytes are identical for
//                        any value — scripts/trace_demo.sh pins it.
//     --connect=HOST:PORT  run the crawl on a histwalk_serviced daemon
//                        instead of in-process: the walk, cache and
//                        estimand live daemon-side, --budget becomes the
//                        session's tenant query budget, and the printed
//                        trace digest matches an in-process service run
//                        at the same seed (the wire protocol round-trips
//                        traces bit-identically). Graph/wire/cache/
//                        history/telemetry flags are daemon-side
//                        configuration and are rejected with --connect.
//
//   Observability flags (crawls always run over a private obs::Registry):
//     --metrics-out=F    write a post-crawl scrape to F: Prometheus text,
//                        or JSON when F ends in ".json"
//     --trace-out=F      write the crawl's Chrome trace-event JSON to F
//                        (load it at ui.perfetto.dev)
//     --progress-interval=N  stream convergence telemetry: each walker
//                        publishes every N own-steps, live progress lines
//                        go to stderr (stdout stays deterministic), and
//                        the report grows std-error / CI / ESS / R-hat
//                        finals                     -> TrackProgress
//     --target-ci=X      adaptive stopping: halt once the estimate's 95%
//                        CI half-width is <= X (implies progress
//                        tracking; the cut point depends on thread
//                        interleaving by design)    -> StopAtCiHalfWidth
//     --serve=PORT       embedded telemetry endpoint on 127.0.0.1:PORT
//                        (0 = kernel-picked; the bound port is printed to
//                        stderr). Serves GET /metrics (Prometheus),
//                        /metrics.json, /healthz, /runs while the crawl
//                        runs, and arms the wall-clock profiler
//                        (hw_prof_*) plus per-shard lock counters. None
//                        of it feeds the walk: stdout stays byte-
//                        identical with and without the flag.
//                                                   -> WithTelemetryServer
//     --serve-linger-ms=N  keep serving N ms after the crawl finishes so
//                        a supervising script can scrape the final state
//
//   Persistence flags (all optional)               -> WithHistoryStore:
//     --load-history=F   restore the history cache from snapshot F before
//                        crawling (missing file = clean cold start)
//     --wal=F            journal every fetched neighbor list to WAL F as
//                        the crawl runs, and replay F on startup — a crawl
//                        killed mid-run resumes from exactly what it had
//                        already paid for
//     --save-history=F   fold the post-crawl cache into snapshot F (and
//                        reset the WAL, if one is attached)
//
//   Because walks are deterministic given the seed and history only changes
//   what is BILLED (never where the walk goes), a resumed crawl re-walks
//   its paid-for prefix free of charge and its printed trace digest matches
//   an uninterrupted crawl given the combined budget — scripts/
//   resume_demo.sh pins exactly that.
//
// With no positional argument, prints usage and runs a small self-demo so
// the binary is exercised by "run everything" loops.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "access/history_cache.h"
#include "api/sampler.h"
#include "attr/grouping.h"
#include "estimate/diagnostics.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/profiler.h"
#include "rpc/client.h"
#include "store/format.h"
#include "util/flags.h"
#include "util/md5.h"
#include "util/random.h"

namespace {

using namespace histwalk;

struct HistoryFlags {
  std::string load;  // --load-history=
  std::string save;  // --save-history=
  std::string wal;   // --wal=
  bool any() const { return !load.empty() || !save.empty() || !wal.empty(); }
};

struct ObsFlags {
  std::string metrics_out;       // --metrics-out=
  std::string trace_out;         // --trace-out=
  unsigned threads = 1;          // --threads=
  unsigned progress_interval = 0;  // --progress-interval=
  double target_ci = 0.0;          // --target-ci=
  bool serve = false;              // --serve= given (port 0 = ephemeral)
  uint16_t serve_port = 0;         // --serve=
  unsigned serve_linger_ms = 0;    // --serve-linger-ms=
  bool tracking() const { return progress_interval > 0 || target_ci > 0; }
};

util::Result<core::WalkerType> ParseWalker(const std::string& name) {
  if (name == "srw") return core::WalkerType::kSrw;
  if (name == "mhrw") return core::WalkerType::kMhrw;
  if (name == "nbsrw") return core::WalkerType::kNbSrw;
  if (name == "cnrw") return core::WalkerType::kCnrw;
  if (name == "cnrw-node") return core::WalkerType::kCnrwNode;
  if (name == "nbcnrw") return core::WalkerType::kNbCnrw;
  if (name == "gnrw") return core::WalkerType::kGnrw;
  return util::Status::InvalidArgument("unknown walker: " + name);
}

// Content digest of the walk: where it went, what it saw. Identical digests
// mean bit-identical traces — the resume demo's comparison key.
std::string TraceDigest(const estimate::TracedWalk& trace) {
  std::string bytes;
  bytes.reserve(trace.nodes.size() * 8);
  for (size_t i = 0; i < trace.nodes.size(); ++i) {
    store::AppendU32(bytes, trace.nodes[i]);
    store::AppendU32(bytes, trace.degrees[i]);
  }
  return util::Md5Hex(bytes);
}

// The remote arm of the CLI: same walk, same printed digest lines, but the
// whole stack lives in a histwalk_serviced daemon — this process holds a
// connection and a run handle. The daemon bills the session its tenant
// query budget exactly like the in-process group budget, so a cold daemon
// produces the identical trace (and digest) to a cold local crawl.
int CrawlRemote(const std::string& endpoint, core::WalkerType type,
                uint64_t budget, uint64_t seed, const ObsFlags& obs_flags) {
  api::SamplerBuilder builder;
  builder.WithRemoteService(endpoint)
      .WithWalker({.type = type})
      .WithEnsemble(/*num_walkers=*/1, seed)
      .StopAfterSteps(200 * budget);
  if (obs_flags.tracking()) {
    builder.TrackProgress(obs_flags.progress_interval > 0
                              ? obs_flags.progress_interval
                              : 64);
  }
  if (obs_flags.target_ci > 0) {
    builder.StopAtCiHalfWidth(obs_flags.target_ci);
  }
  auto sampler = builder.Build();
  if (!sampler.ok()) {
    std::cerr << "connect: " << sampler.status() << "\n";
    return 1;
  }
  std::cerr << "connected to " << (*sampler)->remote_client()->server_name()
            << " at " << endpoint << "\n";

  api::RunOptions options = (*sampler)->default_run_options();
  options.tenant_query_budget = budget;
  auto handle = (*sampler)->Run(options);
  if (handle.ok() && obs_flags.tracking()) {
    while (handle->Poll() == api::RunState::kRunning) {
      obs::ProgressSnapshot snap = handle->Progress();
      if (snap.total_steps > 0) {
        std::cerr << "progress: " << snap.total_steps << " steps, "
                  << snap.charged_queries << " charged";
        if (snap.has_estimate) std::cerr << ", est " << snap.estimate;
        std::cerr << "\n";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  auto report = handle.ok() ? handle->Wait() : handle.status();
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  const estimate::TracedWalk& trace = report->ensemble.traces[0];
  std::cout << "walker:            " << core::WalkerTypeName(type) << "\n"
            << "start node:        " << report->ensemble.starts[0] << "\n"
            << "steps taken:       " << trace.num_steps() << "\n"
            << "unique queries:    "
            << report->ensemble.walker_stats[0].unique_queries << "\n"
            << "trace digest:      " << TraceDigest(trace) << "\n";
  if (report->has_estimate) {
    std::cout << "avg degree (est):  " << report->estimate << "\n";
  }
  std::cout << "charged queries:   " << report->charged_queries
            << " (tenant budget " << budget << ")\n"
            << "session latency:   " << report->latency_us / 1000.0
            << " ms (daemon clock)\n";
  return 0;
}

int Crawl(const graph::Graph& graph, core::WalkerType type, uint64_t budget,
          uint64_t seed, uint64_t latency_us, uint32_t depth,
          access::HistoryCacheOptions cache, const HistoryFlags& history,
          const ObsFlags& obs_flags) {
  std::cout << "graph: " << graph.DebugString() << "\n";
  std::unique_ptr<attr::Grouping> grouping;
  if (type == core::WalkerType::kGnrw) {
    grouping = attr::MakeDegreeGrouping(graph, 8);
  }

  // Every crawl scrapes from its own registry (not the process Global())
  // so the attribution below covers exactly this crawl; the tracer rides
  // along when --trace-out asks for it.
  obs::Registry registry;
  obs::Tracer tracer;

  // --serve arms the wall-clock instrumentation the live endpoint exists
  // to show: the scoped-timer profiler and per-shard lock counters. Both
  // change only what is measured, never where the walk goes, so stdout
  // stays byte-identical with and without the flag.
  if (obs_flags.serve) {
    obs::Profiler::Global().set_enabled(true);
    cache.profile_locks = true;
  }

  // The whole stack, declaratively: one flag = one builder option.
  api::SamplerBuilder builder;
  builder.OverGraph(&graph)
      .WithGroupQueryBudget(budget)
      .WithCache(cache)
      .WithWalker({.type = type, .grouping = grouping.get()})
      .WithEnsemble(/*num_walkers=*/1, seed)
      .StopAfterSteps(200 * budget)
      .EstimateAverageDegree()
      .WithObservability(
          {.registry = &registry,
           .tracer = obs_flags.trace_out.empty() ? nullptr : &tracer,
           .profiler =
               obs_flags.serve ? &obs::Profiler::Global() : nullptr});
  if (obs_flags.serve) builder.WithTelemetryServer(obs_flags.serve_port);
  if (obs_flags.tracking()) {
    builder.TrackProgress(obs_flags.progress_interval > 0
                              ? obs_flags.progress_interval
                              : 64);
  }
  if (obs_flags.target_ci > 0) {
    builder.StopAtCiHalfWidth(obs_flags.target_ci);
  }
  if (latency_us > 0) {
    builder
        .WithRemoteWire({.seed = seed,
                         .base_latency_us = latency_us,
                         .jitter_us = latency_us / 2})
        .RunPipelined({.depth = depth});
  } else {
    builder.RunInline(obs_flags.threads);
  }
  if (history.any()) {
    std::string snapshot_path = !history.save.empty() ? history.save
                                : !history.load.empty()
                                    ? history.load
                                    : history.wal + ".snap";
    builder.WithHistoryStore(store::HistoryStoreOptions{
        .snapshot_path = snapshot_path,
        .load_snapshot_path = history.load,
        // Restoring is opt-in: --load-history names a snapshot, --wal
        // implies full resume state (a checkpoint may have folded earlier
        // records into the snapshot). --save-history alone stays a COLD
        // crawl even when its target file already exists.
        .load_snapshot = !history.load.empty() || !history.wal.empty(),
        .wal_path = history.wal,
        // The CLI folds explicitly at exit via --save-history; a crawl
        // that only journals keeps its WAL intact for the next resume.
        .checkpoint_wal_bytes = 0});
  }

  auto sampler = builder.Build();
  if (!sampler.ok()) {
    std::cerr << "history store: " << sampler.status() << "\n";
    return 1;
  }
  if (!(*sampler)->warm_start_status().ok()) {
    std::cerr << "history load: " << (*sampler)->warm_start_status() << "\n";
    return 1;
  }
  if ((*sampler)->telemetry() != nullptr) {
    // Stderr, like the progress stream: stdout stays byte-identical with
    // and without --serve (an ephemeral port would differ run to run).
    std::cerr << "telemetry: serving http://127.0.0.1:"
              << (*sampler)->telemetry()->port()
              << " (/metrics /metrics.json /healthz /runs)\n";
  }
  store::HistoryStore* history_store = (*sampler)->history_store();
  if (history_store != nullptr) {
    store::HistoryStoreStats stats = history_store->stats();
    std::cout << "history restored:  " << stats.loaded_snapshot_entries
              << " snapshot entries + " << stats.replayed_wal_records
              << " wal records"
              << (stats.recovered_torn_tail ? "  (recovered torn wal tail)"
                                            : "")
              << "\n";
  }

  auto handle = (*sampler)->Run();
  if (handle.ok() && obs_flags.tracking()) {
    // Live progress goes to STDERR: stdout stays byte-identical across
    // polling cadences (the demo scripts diff it), while an interactive
    // run still sees the CI shrink in real time.
    while (handle->Poll() == api::RunState::kRunning) {
      obs::ProgressSnapshot snap = handle->Progress();
      if (snap.total_steps > 0) {
        std::cerr << "progress: " << snap.total_steps << " steps, "
                  << snap.charged_queries << " charged";
        if (snap.has_estimate) {
          std::cerr << ", est " << snap.estimate;
          if (snap.std_error > 0) {
            std::cerr << " +/- " << snap.ci_half_width << " ("
                      << snap.confidence * 100 << "% CI), R-hat "
                      << snap.r_hat;
          }
        }
        std::cerr << "\n";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  auto report = handle.ok() ? handle->Wait() : handle.status();
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  const estimate::TracedWalk& trace = report->ensemble.traces[0];
  std::vector<double> degree_series(trace.degrees.begin(),
                                    trace.degrees.end());
  estimate::ChainDiagnostics diag = estimate::Diagnose(degree_series);

  // One scrape answers billing AND attribution: the charged-queries value
  // below is read from it (not from the report), and the tier line
  // decomposes every miss into store warm hit / wire fetch / join.
  const obs::ScrapeResult scrape = registry.Scrape();

  std::cout << "walker:            " << core::WalkerTypeName(type) << "\n"
            << "start node:        " << report->ensemble.starts[0] << "\n"
            << "steps taken:       " << trace.num_steps() << "\n"
            << "unique queries:    "
            << report->ensemble.walker_stats[0].unique_queries << "\n"
            << "history bytes:     " << report->ensemble.history_bytes
            << "\n"
            << "trace digest:      " << TraceDigest(trace) << "\n"
            << "avg degree (est):  " << report->estimate << "\n"
            << "ESS of deg series: " << diag.ess << "  (IAT " << diag.iat
            << ")\n"
            << "Geweke |z|:        " << std::abs(diag.geweke_z)
            << (std::abs(diag.geweke_z) < 2.0 ? "  (looks converged)"
                                              : "  (still burning in)")
            << "\n"
            << "charged queries:   "
            << scrape.Value("hw_access_charged_queries_total")
            << " (group budget " << budget << ")\n"
            << "tier attribution:  "
            << scrape.Value("hw_access_cache_hits_total") << " memory + "
            << scrape.Value("hw_access_store_hits_total") << " store + "
            << scrape.Value("hw_net_wire_fetches_total") << " wire  ("
            << scrape.Value("hw_net_singleflight_joins_total") << " joins, "
            << scrape.Value("hw_access_budget_refusals_total")
            << " refused)\n";
  if (report->has_progress) {
    std::cout << "std error:         " << report->std_error << "  ("
              << report->num_batches << " batches)\n"
              << "CI half-width:     " << report->ci_half_width << "  ("
              << report->confidence * 100 << "% confidence)\n"
              << "online ESS:        " << report->ess << "\n"
              << "R-hat:             " << report->r_hat << "\n";
    if (obs_flags.target_ci > 0) {
      std::cout << "adaptive stop:     "
                << (report->stopped_at_ci_target
                        ? "hit CI target before budget"
                        : "budget/steps ended the run first")
                << "  (target " << obs_flags.target_ci << ")\n";
    }
  }
  if ((*sampler)->remote() != nullptr) {
    net::RemoteBackendStats wire = (*sampler)->remote()->stats();
    std::cout << "sim wall-clock:    " << wire.sim_elapsed_us / 1000.0
              << " ms  (" << wire.requests << " wire requests, depth "
              << depth << ")\n";
    if (depth > 1) {
      std::cout << "                   (open-loop model: depth > 1 assumes "
                   "requests ready to overlap;\n                   a single "
                   "serial walker cannot actually keep " << depth
                << " in flight)\n";
    }
  }
  if (history_store != nullptr) {
    if (!history.save.empty()) {
      if (auto status = (*sampler)->SaveHistory(); !status.ok()) {
        std::cerr << "history save: " << status << "\n";
        return 1;
      }
    } else if (auto status = history_store->Flush(); !status.ok()) {
      std::cerr << "history flush: " << status << "\n";
      return 1;
    }
    store::HistoryStoreStats stats = history_store->stats();
    std::cout << "history persisted: " << stats.appended_records
              << " wal records appended, " << stats.checkpoints
              << " snapshot(s) written\n";
    if (!history_store->last_error().ok()) {
      std::cerr << "history journal errors: " << history_store->last_error()
                << "\n";
      return 1;
    }
  }
  // Written last so the scrape includes any --save-history checkpoint.
  if (!obs_flags.metrics_out.empty()) {
    if (auto status = registry.WriteScrape(obs_flags.metrics_out);
        !status.ok()) {
      std::cerr << "metrics out: " << status << "\n";
      return 1;
    }
    std::cout << "metrics scrape:    " << obs_flags.metrics_out << "\n";
  }
  if (!obs_flags.trace_out.empty()) {
    if (auto status = tracer.WriteTo(obs_flags.trace_out); !status.ok()) {
      std::cerr << "trace out: " << status << "\n";
      return 1;
    }
    std::cout << "trace events:      " << tracer.num_events() << " -> "
              << obs_flags.trace_out << "\n";
  }
  if (obs_flags.serve && obs_flags.serve_linger_ms > 0) {
    // Keep the endpoint (and the sampler it scrapes) up after the crawl so
    // a supervising script can still curl the final state — CI does.
    std::cerr << "telemetry: lingering " << obs_flags.serve_linger_ms
              << " ms\n";
    std::this_thread::sleep_for(
        std::chrono::milliseconds(obs_flags.serve_linger_ms));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = util::Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 1;
  }
  util::Flags& flags = *parsed;

  HistoryFlags history;
  history.load = flags.GetString("load-history", "");
  history.save = flags.GetString("save-history", "");
  history.wal = flags.GetString("wal", "");
  ObsFlags obs_flags;
  obs_flags.metrics_out = flags.GetString("metrics-out", "");
  obs_flags.trace_out = flags.GetString("trace-out", "");
  std::string walker_name = flags.GetString("walker", "cnrw");
  auto budget = flags.GetUint("budget", 1000);
  auto seed = flags.GetUint("seed", 1);
  auto latency_us = flags.GetUint("latency-us", 0);
  auto depth = flags.GetUint("depth", 1);
  auto cache_capacity = flags.GetUint("cache-capacity", 0);
  auto num_shards = flags.GetUint("num-shards", 8);
  auto threads = flags.GetUint("threads", 1);
  auto progress_interval = flags.GetUint("progress-interval", 0);
  auto target_ci = flags.GetDouble("target-ci", 0.0);
  obs_flags.serve = flags.Has("serve");
  auto serve_port = flags.GetUint("serve", 0);
  auto serve_linger_ms = flags.GetUint("serve-linger-ms", 0);
  std::string connect = flags.GetString("connect", "");
  const bool daemon_side_flags =
      flags.Has("latency-us") || flags.Has("depth") ||
      flags.Has("cache-capacity") || flags.Has("num-shards") ||
      flags.Has("threads") || flags.Has("metrics-out") ||
      flags.Has("trace-out") || flags.Has("serve") ||
      flags.Has("serve-linger-ms") || flags.Has("load-history") ||
      flags.Has("wal") || flags.Has("save-history");
  for (const auto* value : {&budget, &seed, &latency_us, &depth,
                            &cache_capacity, &num_shards, &threads,
                            &progress_interval, &serve_port,
                            &serve_linger_ms}) {
    if (!value->ok()) {
      std::cerr << value->status() << "\n";
      return 1;
    }
  }
  if (!target_ci.ok()) {
    std::cerr << target_ci.status() << "\n";
    return 1;
  }
  if (*target_ci < 0) {
    std::cerr << "target-ci must be non-negative\n";
    return 1;
  }
  if (auto status = flags.CheckAllRead(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  auto walker = ParseWalker(walker_name);
  if (!walker.ok()) {
    std::cerr << walker.status() << "\n";
    return 1;
  }
  if (*num_shards == 0 || *num_shards > 256) {
    std::cerr << "num-shards must be in [1, 256]\n";
    return 1;
  }
  access::HistoryCacheOptions cache{
      .capacity = *cache_capacity,
      .num_shards = static_cast<uint32_t>(*num_shards)};
  obs_flags.threads = static_cast<unsigned>(*threads);
  obs_flags.progress_interval = static_cast<unsigned>(*progress_interval);
  obs_flags.target_ci = *target_ci;
  if (*serve_port > 65535) {
    std::cerr << "serve port must be in [0, 65535]\n";
    return 1;
  }
  obs_flags.serve_port = static_cast<uint16_t>(*serve_port);
  obs_flags.serve_linger_ms = static_cast<unsigned>(*serve_linger_ms);

  if (!connect.empty()) {
    if (daemon_side_flags) {
      std::cerr << "--connect runs the crawl on the daemon; the graph, "
                   "wire, cache, history, threading and telemetry flags "
                   "are daemon-side configuration\n";
      return 1;
    }
    if (!flags.positional().empty()) {
      std::cerr << "--connect needs no edges file; the daemon already "
                   "serves a graph\n";
      return 1;
    }
    if (*budget == 0) {
      std::cerr << "budget must be positive\n";
      return 1;
    }
    return CrawlRemote(connect, *walker, *budget, *seed, obs_flags);
  }

  if (flags.positional().empty()) {
    std::cout << "usage: crawl_cli [--flags] <edges-file>\n\n"
                 "  --walker=srw|mhrw|nbsrw|cnrw|cnrw-node|nbcnrw|gnrw\n"
                 "  --budget=N    shared fetch budget (default 1000)\n"
                 "  --seed=N      RNG seed (default 1)\n"
                 "  --latency-us=N  simulated per-request wire latency "
                 "(0 = in-memory)\n"
                 "  --depth=N     overlapped in-flight requests when "
                 "--latency-us > 0\n"
                 "  --cache-capacity=N  max cached neighbor lists "
                 "(0 = unbounded)\n"
                 "  --num-shards=N      clock shards in the history cache "
                 "(default 8)\n"
                 "  --connect=HOST:PORT run the crawl on a histwalk_serviced "
                 "daemon (walk, cache\n                and estimand live "
                 "daemon-side; --budget becomes the tenant budget)\n\n"
                 "  --threads=N   stepper threads for in-memory runs "
                 "(default 1; output is\n                identical for any "
                 "value)\n"
                 "  --metrics-out=F  write a post-crawl scrape "
                 "(Prometheus text, or JSON for *.json)\n"
                 "  --trace-out=F    write Chrome trace-event JSON "
                 "(ui.perfetto.dev)\n"
                 "  --progress-interval=N  stream convergence telemetry "
                 "(live lines on stderr,\n                std-error / CI / "
                 "ESS / R-hat finals in the report)\n"
                 "  --target-ci=X    adaptive stop once the 95% CI "
                 "half-width is <= X\n"
                 "  --serve=PORT     serve live telemetry on "
                 "127.0.0.1:PORT while the crawl runs\n                "
                 "(0 = ephemeral; bound port on stderr; GET /metrics "
                 "/metrics.json\n                /healthz /runs); also "
                 "arms the wall-clock profiler + lock counters\n"
                 "  --serve-linger-ms=N  keep the endpoint up N ms after "
                 "the crawl (for CI curls)\n\n"
                 "  --load-history=F / --wal=F / --save-history=F persist "
                 "the history cache\n  across crawls (snapshot + "
                 "write-ahead log); see scripts/resume_demo.sh.\n\n"
                 "No file given — running a self-demo on a generated "
                 "small-world graph\n(in-memory, then remote at 50ms "
                 "latency, depth 4).\n\n";
    util::Random rng(99);
    graph::Graph demo = graph::MakeWattsStrogatz(2000, 8, 0.1, rng);
    int rc = Crawl(demo, core::WalkerType::kCnrw, 500, 1, /*latency_us=*/0,
                   /*depth=*/1, cache, HistoryFlags{}, ObsFlags{});
    if (rc != 0) return rc;
    std::cout << "\n-- remote self-demo (50ms +/- 25ms, depth 4) --\n";
    return Crawl(demo, core::WalkerType::kCnrw, 500, 1,
                 /*latency_us=*/50'000, /*depth=*/4, cache, HistoryFlags{},
                 ObsFlags{});
  }
  if (flags.positional().size() > 1) {
    std::cerr << "expected one positional argument (the edges file); "
                 "numeric knobs are now named flags (--budget=, --seed=, "
                 "--latency-us=, --depth=)\n";
    return 1;
  }

  auto graph = graph::ReadEdgeList(flags.positional()[0]);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  if (*budget == 0) {
    std::cerr << "budget must be positive\n";
    return 1;
  }
  return Crawl(*graph, *walker, *budget, *seed, *latency_us,
               static_cast<uint32_t>(*depth), cache, history, obs_flags);
}
