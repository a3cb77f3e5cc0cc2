#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "access/graph_access.h"
#include "attr/grouping.h"
#include "api/sampler.h"
#include "estimate/ensemble_runner.h"
#include "estimate/step_pool.h"
#include "graph/generators.h"
#include "net/request_pipeline.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "rpc/server.h"
#include "service/sampling_service.h"
#include "util/random.h"

// The facade's acceptance contract: api::SamplerBuilder produces runs that
// are BIT-IDENTICAL to the hand-wired stack it replaces — merged traces,
// per-walker QueryStats AND bills (charged queries) — in every execution
// mode and at several pipeline/scheduler depths. The facade owns the
// wiring; it must never own the semantics.

namespace histwalk::api {
namespace {

graph::Graph TestGraph() {
  util::Random rng(99);
  return graph::MakeWattsStrogatz(/*n=*/600, /*k=*/6, /*beta=*/0.2, rng);
}

constexpr uint32_t kWalkers = 6;
constexpr uint64_t kSeed = 3;
constexpr uint64_t kSteps = 150;

const estimate::EnsembleOptions kManualOptions{
    .num_walkers = kWalkers, .seed = kSeed, .max_steps = kSteps,
    .num_threads = 1};

void ExpectSameRun(const estimate::EnsembleResult& a,
                   const estimate::EnsembleResult& b) {
  ASSERT_EQ(a.starts, b.starts);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].nodes, b.traces[i].nodes) << "walker " << i;
    EXPECT_EQ(a.traces[i].degrees, b.traces[i].degrees) << "walker " << i;
    EXPECT_EQ(a.traces[i].unique_queries, b.traces[i].unique_queries)
        << "walker " << i;
  }
  ASSERT_EQ(a.walker_stats.size(), b.walker_stats.size());
  for (size_t i = 0; i < a.walker_stats.size(); ++i) {
    EXPECT_EQ(a.walker_stats[i].total_queries, b.walker_stats[i].total_queries)
        << "walker " << i;
    EXPECT_EQ(a.walker_stats[i].unique_queries,
              b.walker_stats[i].unique_queries)
        << "walker " << i;
    EXPECT_EQ(a.walker_stats[i].cache_hits, b.walker_stats[i].cache_hits)
        << "walker " << i;
  }
}

RunReport FacadeRun(SamplerBuilder builder) {
  auto sampler = builder.Build();
  EXPECT_TRUE(sampler.ok()) << sampler.status();
  auto handle = (*sampler)->Run();
  EXPECT_TRUE(handle.ok()) << handle.status();
  auto report = handle->Wait();
  EXPECT_TRUE(report.ok()) << report.status();
  return *std::move(report);
}

// ---- inline mode ------------------------------------------------------

TEST(ApiEquivalenceTest, InlineMatchesManualRunEnsemble) {
  graph::Graph graph = TestGraph();

  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend);
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto manual = estimate::RunEnsemble(
      group, resolver, {.type = core::WalkerType::kCnrw}, kManualOptions);
  ASSERT_TRUE(manual.ok());

  RunReport facade = FacadeRun(SamplerBuilder()
                                   .OverGraph(&graph)
                                   .RunInline(/*num_threads=*/1)
                                   .WithWalker({.type = core::WalkerType::kCnrw})
                                   .WithEnsemble(kWalkers, kSeed)
                                   .StopAfterSteps(kSteps));
  ExpectSameRun(*manual, facade.ensemble);
  // Single-threaded runs make the charge sequence deterministic: the bill
  // must match exactly, not just the samples.
  EXPECT_EQ(manual->charged_queries, facade.charged_queries);
}

TEST(ApiEquivalenceTest, InlineMatchesManualUnderBoundedCache) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(
      &backend, {.cache = {.capacity = 64, .num_shards = 4}});
  net::RequestPipeline resolver(&group, {.depth = 0});
  auto manual = estimate::RunEnsemble(
      group, resolver, {.type = core::WalkerType::kCnrw}, kManualOptions);
  ASSERT_TRUE(manual.ok());

  RunReport facade = FacadeRun(SamplerBuilder()
                                   .OverGraph(&graph)
                                   .WithCache({.capacity = 64, .num_shards = 4})
                                   .RunInline(/*num_threads=*/1)
                                   .WithWalker({.type = core::WalkerType::kCnrw})
                                   .WithEnsemble(kWalkers, kSeed)
                                   .StopAfterSteps(kSteps));
  ExpectSameRun(*manual, facade.ensemble);
  EXPECT_EQ(manual->charged_queries, facade.charged_queries);
}

// Retention decides only what is billed again, never where a walk goes:
// for every walker type, a capacity-64 cache that evicts all through the
// run, and a one-shard capacity-2 cache that evicts nearly every step,
// walk exactly the traces of an unbounded one and can only bill more. The
// second also pins NodeAccess::Neighbors' one-live-span contract that
// SharedAccess's two hazard slots rely on: no walker reads a span after
// its next Neighbors call.
TEST(ApiEquivalenceTest, EvictionNeverMovesTheWalk) {
  graph::Graph graph = TestGraph();
  const std::unique_ptr<attr::Grouping> grouping = attr::MakeMd5Grouping(3);
  auto run = [&](core::WalkerType type, access::HistoryCacheOptions cache) {
    return FacadeRun(
        SamplerBuilder()
            .OverGraph(&graph)
            .WithCache(cache)
            .RunInline()
            .WithWalker({.type = type, .grouping = grouping.get()})
            .WithEnsemble(kWalkers, kSeed)
            .StopAfterSteps(kSteps));
  };
  for (core::WalkerType type :
       {core::WalkerType::kSrw, core::WalkerType::kMhrw,
        core::WalkerType::kNbSrw, core::WalkerType::kCnrw,
        core::WalkerType::kCnrwNode, core::WalkerType::kNbCnrw,
        core::WalkerType::kGnrw}) {
    SCOPED_TRACE(core::WalkerTypeName(type));
    RunReport unbounded = run(type, {.capacity = 0, .num_shards = 4});
    EXPECT_EQ(unbounded.ensemble.cache_stats.evictions, 0u);
    for (access::HistoryCacheOptions cache :
         {access::HistoryCacheOptions{.capacity = 64, .num_shards = 4},
          access::HistoryCacheOptions{.capacity = 2, .num_shards = 1}}) {
      SCOPED_TRACE("capacity " + std::to_string(cache.capacity));
      RunReport bounded = run(type, cache);
      EXPECT_GT(bounded.ensemble.cache_stats.evictions, 0u);
      ASSERT_EQ(bounded.ensemble.starts, unbounded.ensemble.starts);
      ASSERT_EQ(bounded.ensemble.traces.size(),
                unbounded.ensemble.traces.size());
      for (size_t i = 0; i < bounded.ensemble.traces.size(); ++i) {
        EXPECT_EQ(bounded.ensemble.traces[i].nodes,
                  unbounded.ensemble.traces[i].nodes)
            << "walker " << i;
        EXPECT_EQ(bounded.ensemble.traces[i].degrees,
                  unbounded.ensemble.traces[i].degrees)
            << "walker " << i;
      }
      EXPECT_GE(bounded.charged_queries, unbounded.charged_queries);
    }
  }
}

// ---- pipelined mode ---------------------------------------------------

TEST(ApiEquivalenceTest, PipelinedMatchesManualPipelineAtEveryDepth) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);

  for (uint32_t depth : {1u, 3u}) {
    access::SharedAccessGroup group(&backend);
    net::RequestPipeline pipeline(&group, {.depth = depth, .max_batch = 4});
    auto manual = estimate::RunEnsemble(
        group, pipeline, {.type = core::WalkerType::kCnrw}, kManualOptions);
    ASSERT_TRUE(manual.ok()) << "depth " << depth;

    RunReport facade =
        FacadeRun(SamplerBuilder()
                      .OverGraph(&graph)
                      .RunPipelined({.depth = depth, .max_batch = 4})
                      .WithWalker({.type = core::WalkerType::kCnrw})
                      .WithEnsemble(kWalkers, kSeed)
                      .StopAfterSteps(kSteps));
    ExpectSameRun(*manual, facade.ensemble);
    // Singleflight makes the bill deterministic (unbounded cache: every
    // distinct node is fetched exactly once).
    EXPECT_EQ(manual->charged_queries, facade.charged_queries) << "depth "
                                                               << depth;
    EXPECT_EQ(facade.ensemble.pipeline_stats.wire_items,
              facade.charged_queries);
  }
}

// ---- service mode -----------------------------------------------------

// Sequential sessions (submit -> wait -> detach one at a time) make the
// shared-cache evolution — and with it every tenant's bill — fully
// deterministic, so facade and manual paths must agree exactly.
TEST(ApiEquivalenceTest, ServiceMatchesManualServiceAtTwoSchedulerDepths) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  constexpr uint32_t kTenants = 3;

  for (uint32_t depth : {1u, 4u}) {
    std::vector<estimate::EnsembleResult> manual_runs;
    std::vector<uint64_t> manual_bills;
    {
      service::SamplingService service(
          &backend, {.max_sessions = kTenants,
                     .pipeline = {.depth = depth, .max_batch = 4}});
      for (uint32_t t = 0; t < kTenants; ++t) {
        auto id = service.Submit({.walker = {.type = core::WalkerType::kCnrw},
                                  .num_walkers = kWalkers,
                                  .seed = kSeed + t,
                                  .max_steps = kSteps});
        ASSERT_TRUE(id.ok()) << id.status();
        auto report = service.Wait(*id);
        ASSERT_TRUE(report.ok()) << report.status();
        manual_runs.push_back(report->ensemble);
        manual_bills.push_back(report->charged_queries);
        ASSERT_TRUE(service.Detach(*id).ok());
      }
    }

    auto sampler =
        SamplerBuilder()
            .OverGraph(&graph)
            .RunAsService({.max_sessions = kTenants,
                           .pipeline = {.depth = depth, .max_batch = 4}})
            .WithWalker({.type = core::WalkerType::kCnrw})
            .StopAfterSteps(kSteps)
            .Build();
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    for (uint32_t t = 0; t < kTenants; ++t) {
      RunOptions options = (*sampler)->default_run_options();
      options.num_walkers = kWalkers;
      options.seed = kSeed + t;
      auto handle = (*sampler)->Run(options);
      ASSERT_TRUE(handle.ok()) << handle.status();
      auto report = handle->Wait();
      ASSERT_TRUE(report.ok()) << report.status();
      ExpectSameRun(manual_runs[t], report->ensemble);
      EXPECT_EQ(manual_bills[t], report->charged_queries)
          << "tenant " << t << " depth " << depth;
    }
  }
}

// ---- remote mode ------------------------------------------------------

// The RPC front's acceptance contract: a run submitted through
// WithRemoteService — over a real TCP connection, through the framed
// protocol, into a daemon-hosted service-mode sampler — is BIT-IDENTICAL
// to the same run on an in-process service-mode sampler: traces,
// QueryStats, bills, and every estimate double compared by its IEEE-754
// bit pattern. The wire is pure transport; it must never move a byte.
TEST(ApiEquivalenceTest, RemoteMatchesInProcessServiceBitwise) {
  graph::Graph graph = TestGraph();
  constexpr uint32_t kTenants = 3;
  auto service_builder = [&] {
    return SamplerBuilder()
        .OverGraph(&graph)
        .RunAsService({.max_sessions = kTenants})
        .WithWalker({.type = core::WalkerType::kCnrw})
        .StopAfterSteps(kSteps)
        .EstimateAverageDegree();
  };
  // Tenant 0 is plain; tenant 1 is progress-tracked; tenant 2 runs under
  // a tenant fetch quota. Sequential sessions on both sides, so the
  // shared-cache evolution (and each bill) is deterministic.
  auto tenant_options = [](const Sampler& sampler, uint32_t t) {
    RunOptions options = sampler.default_run_options();
    options.num_walkers = kWalkers;
    options.seed = kSeed + t;
    if (t == 1) options.progress_interval = 16;
    if (t == 2) options.tenant_query_budget = 200;
    return options;
  };

  std::vector<RunReport> local_runs;
  {
    auto local = service_builder().Build();
    ASSERT_TRUE(local.ok()) << local.status();
    for (uint32_t t = 0; t < kTenants; ++t) {
      auto handle = (*local)->Run(tenant_options(**local, t));
      ASSERT_TRUE(handle.ok()) << handle.status();
      auto report = handle->Wait();
      ASSERT_TRUE(report.ok()) << report.status();
      local_runs.push_back(*std::move(report));
    }
  }

  auto hosted = service_builder().Build();
  ASSERT_TRUE(hosted.ok()) << hosted.status();
  auto server = rpc::Server::Start(hosted->get(), {});
  ASSERT_TRUE(server.ok()) << server.status();
  auto remote = SamplerBuilder()
                    .WithRemoteService("127.0.0.1:" +
                                       std::to_string((*server)->port()))
                    .WithWalker({.type = core::WalkerType::kCnrw})
                    .StopAfterSteps(kSteps)
                    .Build();
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (uint32_t t = 0; t < kTenants; ++t) {
    auto handle = (*remote)->Run(tenant_options(**remote, t));
    ASSERT_TRUE(handle.ok()) << handle.status();
    auto report = handle->Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    const RunReport& local = local_runs[t];

    ExpectSameRun(local.ensemble, report->ensemble);
    EXPECT_EQ(local.charged_queries, report->charged_queries) << "tenant "
                                                              << t;
    EXPECT_EQ(local.ensemble.summed_stats.total_queries,
              report->ensemble.summed_stats.total_queries);
    EXPECT_EQ(local.tenant.wire_items, report->tenant.wire_items);
    EXPECT_EQ(local.tenant.budget_refusals, report->tenant.budget_refusals);
    ASSERT_EQ(local.has_estimate, report->has_estimate);
    EXPECT_EQ(bits(local.estimate), bits(report->estimate)) << "tenant " << t;
    EXPECT_EQ(bits(local.std_error), bits(report->std_error));
    EXPECT_EQ(bits(local.ci_half_width), bits(report->ci_half_width));
    EXPECT_EQ(bits(local.confidence), bits(report->confidence));
    EXPECT_EQ(bits(local.ess), bits(report->ess));
    EXPECT_EQ(bits(local.r_hat), bits(report->r_hat));
    EXPECT_EQ(local.num_batches, report->num_batches);
    EXPECT_EQ(local.stopped_at_ci_target, report->stopped_at_ci_target);
    ASSERT_EQ(local.has_progress, report->has_progress) << "tenant " << t;
    if (local.has_progress) {
      EXPECT_EQ(local.progress.total_steps, report->progress.total_steps);
      EXPECT_EQ(bits(local.progress.estimate), bits(report->progress.estimate));
      EXPECT_EQ(bits(local.progress.ess), bits(report->progress.ess));
    }
  }
}

// ---- cross-mode -------------------------------------------------------

// The facade's own determinism contract: all three execution modes walk
// the same samples; only the bill's shape differs.
TEST(ApiEquivalenceTest, AllThreeModesProduceIdenticalTraces) {
  graph::Graph graph = TestGraph();
  auto base = [&] {
    return SamplerBuilder()
        .OverGraph(&graph)
        .WithWalker({.type = core::WalkerType::kCnrw})
        .WithEnsemble(kWalkers, kSeed)
        .StopAfterSteps(kSteps);
  };
  RunReport inline_run = FacadeRun(base().RunInline(/*num_threads=*/1));
  RunReport pipelined = FacadeRun(base().RunPipelined({.depth = 4}));
  RunReport service = FacadeRun(base().RunAsService({.max_sessions = 1}));
  ExpectSameRun(inline_run.ensemble, pipelined.ensemble);
  ExpectSameRun(inline_run.ensemble, service.ensemble);
  EXPECT_EQ(inline_run.charged_queries, pipelined.charged_queries);
  EXPECT_EQ(inline_run.charged_queries, service.charged_queries);
}

// The paper bills unique queries, so with a cache that never evicts the
// bill is a function of the walks: every mode, stepper count, pipeline
// depth and session sharing the service's step pool resolves misses
// through one singleflight path and must charge exactly the same queries —
// next to identical traces and estimate bits.
TEST(ApiEquivalenceTest, BillIsIdenticalAcrossModesThreadsAndDepths) {
  graph::Graph graph = TestGraph();
  auto base = [&] {
    return SamplerBuilder()
        .OverGraph(&graph)
        .WithWalker({.type = core::WalkerType::kCnrw})
        .WithEnsemble(/*num_walkers=*/8, /*seed=*/17)
        .StopAfterSteps(kSteps)
        .EstimateAverageDegree();
  };
  const RunReport reference = FacadeRun(base().RunInline(/*num_threads=*/1));
  EXPECT_GT(reference.charged_queries, 0u);
  std::vector<std::pair<std::string, RunReport>> runs;
  for (unsigned threads : {2u, 4u, 8u}) {
    runs.emplace_back("inline/" + std::to_string(threads),
                      FacadeRun(base().RunInline(threads)));
  }
  for (uint32_t depth : {1u, 4u, 8u}) {
    runs.emplace_back("pipelined/" + std::to_string(depth),
                      FacadeRun(base().RunPipelined({.depth = depth})));
  }
  runs.emplace_back("service", FacadeRun(base().RunAsService()));
  {
    // Concurrent sessions multiplexed on the service's one step pool.
    // Private caches keep each session's bill a function of its own walk.
    auto service = base()
                       .RunAsService({.max_sessions = 3,
                                      .share_history = false})
                       .Build();
    ASSERT_TRUE(service.ok()) << service.status();
    std::vector<RunHandle> handles;
    for (int s = 0; s < 3; ++s) {
      auto handle = (*service)->Run();
      ASSERT_TRUE(handle.ok()) << handle.status();
      handles.push_back(*handle);
    }
    for (size_t s = 0; s < handles.size(); ++s) {
      auto report = handles[s].Wait();
      ASSERT_TRUE(report.ok()) << report.status();
      runs.emplace_back("service/shared-pool/" + std::to_string(s),
                        *std::move(report));
    }
  }

  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    ExpectSameRun(reference.ensemble, run.ensemble);
    EXPECT_EQ(reference.charged_queries, run.charged_queries);
    EXPECT_EQ(bits(reference.estimate), bits(run.estimate));
    EXPECT_EQ(bits(reference.std_error), bits(run.std_error));
  }

  // The step pool's size is free too: 1, 2 and 8 steppers over a depth-4
  // pipeline walk and bill the same.
  access::GraphAccess backend(&graph, nullptr);
  for (unsigned steppers : {1u, 2u, 8u}) {
    SCOPED_TRACE("steppers/" + std::to_string(steppers));
    access::SharedAccessGroup group(&backend);
    net::RequestPipeline pipeline(&group, {.depth = 4});
    estimate::StepPool pool(steppers);
    auto manual = estimate::RunEnsemble(
        group, pipeline, {.type = core::WalkerType::kCnrw},
        {.num_walkers = 8, .seed = 17, .max_steps = kSteps}, pool);
    ASSERT_TRUE(manual.ok()) << manual.status();
    ExpectSameRun(reference.ensemble, *manual);
    EXPECT_EQ(reference.charged_queries, manual->charged_queries);
  }
}

// ---- progress-tracking equivalence ------------------------------------

// Observation is pure: with the adaptive stop rule OFF, a
// progress-tracked run must not move a single trace byte, stat or charge
// in any execution mode or thread count. (Stopping is the one thing
// allowed to change where walks end, and it is opt-in.)
TEST(ApiEquivalenceTest, ProgressTrackingNeverChangesTheRun) {
  graph::Graph graph = TestGraph();
  auto base = [&] {
    return SamplerBuilder()
        .OverGraph(&graph)
        .WithWalker({.type = core::WalkerType::kCnrw})
        .WithEnsemble(kWalkers, kSeed)
        .StopAfterSteps(kSteps)
        .EstimateAverageDegree();
  };
  for (auto configure :
       {+[](SamplerBuilder& b) { b.RunInline(/*num_threads=*/1); },
        +[](SamplerBuilder& b) { b.RunInline(/*num_threads=*/4); },
        +[](SamplerBuilder& b) { b.RunPipelined({.depth = 4}); },
        +[](SamplerBuilder& b) { b.RunAsService({.max_sessions = 1}); }}) {
    SamplerBuilder plain_builder = base();
    configure(plain_builder);
    RunReport plain = FacadeRun(std::move(plain_builder));

    SamplerBuilder tracked_builder = base().TrackProgress(/*interval=*/16);
    configure(tracked_builder);
    RunReport tracked = FacadeRun(std::move(tracked_builder));

    ExpectSameRun(plain.ensemble, tracked.ensemble);
    EXPECT_EQ(plain.charged_queries, tracked.charged_queries);
    EXPECT_EQ(plain.estimate, tracked.estimate);
    EXPECT_TRUE(tracked.has_progress);
    EXPECT_FALSE(tracked.stopped_at_ci_target);
    // The convergence finals agree too: the untracked run replays its
    // traces through a fresh tracker, the tracked run reads its live one
    // — same streams, same fold order, bitwise-equal numbers.
    EXPECT_EQ(plain.std_error, tracked.std_error);
    EXPECT_EQ(plain.ci_half_width, tracked.ci_half_width);
    EXPECT_EQ(plain.ess, tracked.ess);
    EXPECT_EQ(plain.r_hat, tracked.r_hat);
    EXPECT_EQ(plain.num_batches, tracked.num_batches);
  }
}

// ---- profiling + telemetry-server equivalence --------------------------

// The wall-clock observability layer is pure too: arming the profiler,
// lock counters and the live HTTP endpoint changes what is MEASURED,
// never what the walk does — no trace byte, stat or charge may move in
// any execution mode. This is the determinism pin for crawl_cli --serve.
TEST(ApiEquivalenceTest, ProfilingAndTelemetryServerNeverChangeTheRun) {
  graph::Graph graph = TestGraph();
  auto base = [&] {
    return SamplerBuilder()
        .OverGraph(&graph)
        .WithWalker({.type = core::WalkerType::kCnrw})
        .WithEnsemble(kWalkers, kSeed)
        .StopAfterSteps(kSteps)
        .EstimateAverageDegree();
  };
  obs::Profiler& profiler = obs::Profiler::Global();
  const bool was_enabled = profiler.enabled();
  for (auto configure :
       {+[](SamplerBuilder& b) { b.RunInline(/*num_threads=*/4); },
        +[](SamplerBuilder& b) { b.RunPipelined({.depth = 4}); },
        +[](SamplerBuilder& b) { b.RunAsService({.max_sessions = 1}); }}) {
    profiler.set_enabled(false);
    SamplerBuilder plain_builder = base();
    configure(plain_builder);
    RunReport plain = FacadeRun(std::move(plain_builder));

    profiler.set_enabled(true);
    obs::Registry registry;
    SamplerBuilder instrumented_builder =
        base()
            .WithCache({.profile_locks = true})
            .WithObservability({.registry = &registry, .profiler = &profiler})
            .WithTelemetryServer(/*port=*/0);
    configure(instrumented_builder);
    RunReport instrumented = FacadeRun(std::move(instrumented_builder));

    ExpectSameRun(plain.ensemble, instrumented.ensemble);
    EXPECT_EQ(plain.charged_queries, instrumented.charged_queries);
    EXPECT_EQ(plain.estimate, instrumented.estimate);
  }
  profiler.set_enabled(was_enabled);
}

}  // namespace
}  // namespace histwalk::api
