#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "api/sampler.h"
#include "graph/generators.h"
#include "obs/http_exporter.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "util/random.h"
#include "util/socket.h"

// The embedded telemetry endpoint, end to end over real loopback TCP:
// route dispatch and error codes, and — the acceptance scenario — a
// /metrics scrape taken MID-RUN against a live sampler, checking that the
// hw_prof_* / per-shard heat / hw_est_* families are present and that the
// miss-attribution identity holds on a live snapshot (residual >= 0 while
// racing the walk, exact equality at quiescence).

namespace histwalk::api {
namespace {

struct HttpReply {
  int status = 0;
  std::string headers;
  std::string body;
};

// Minimal blocking HTTP/1.1 GET over util::TcpStream; the server closes
// the connection after each response, so read-to-EOF frames the body.
HttpReply Fetch(uint16_t port, const std::string& request_text) {
  HttpReply reply;
  auto stream = util::TcpStream::ConnectLocal(port);
  EXPECT_TRUE(stream.ok()) << stream.status();
  if (!stream.ok()) return reply;
  EXPECT_TRUE(stream->SendAll(request_text).ok());
  std::string raw;
  for (;;) {
    auto n = stream->RecvSome(raw);
    if (!n.ok() || *n == 0) break;
  }
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return reply;
  reply.headers = raw.substr(0, head_end);
  reply.body = raw.substr(head_end + 4);
  // "HTTP/1.1 NNN ..."
  if (reply.headers.size() > 12) {
    reply.status = std::atoi(reply.headers.c_str() + 9);
  }
  return reply;
}

HttpReply Get(uint16_t port, const std::string& target) {
  return Fetch(port, "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

// First sample value of an (unlabelled) series in Prometheus text.
int64_t ValueOf(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(text.c_str() + pos + needle.size());
}

TEST(TelemetryServerTest, RoutesStatusCodesAndContentTypes) {
  obs::Registry registry;
  registry.counter("hw_test_served_total")->Inc(42);
  auto server = obs::TelemetryServer::Start(
      {.port = 0, .registry = &registry, .runs_json = nullptr});
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();
  ASSERT_NE(port, 0);

  HttpReply health = Get(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  HttpReply metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("hw_test_served_total 42"), std::string::npos);

  // Query strings are accepted and ignored.
  EXPECT_EQ(Get(port, "/metrics?probe=1").status, 200);

  HttpReply json = Get(port, "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.headers.find("application/json"), std::string::npos);
  EXPECT_EQ(json.body.rfind("{", 0), 0u);
  EXPECT_NE(json.body.find("\"hw_test_served_total\""), std::string::npos);

  // No runs provider wired: /runs degrades to an empty JSON array.
  HttpReply runs = Get(port, "/runs");
  EXPECT_EQ(runs.status, 200);
  EXPECT_EQ(runs.body, "[]");

  EXPECT_EQ(Get(port, "/nope").status, 404);
  EXPECT_EQ(Fetch(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").status,
            405);
  EXPECT_EQ(Fetch(port, "garbage\r\n\r\n").status, 400);

  EXPECT_GE((*server)->requests_served(), 8u);
}

TEST(TelemetryServerTest, EphemeralPortsAreIndependent) {
  auto a = obs::TelemetryServer::Start({});
  auto b = obs::TelemetryServer::Start({});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->port(), (*b)->port());
  EXPECT_EQ(Get((*a)->port(), "/healthz").status, 200);
  EXPECT_EQ(Get((*b)->port(), "/healthz").status, 200);
}

// The acceptance scenario: scrape a LIVE crawl through the endpoint.
TEST(TelemetryServerTest, MidRunScrapeShowsLiveFamiliesAndIdentity) {
  util::Random rng(31);
  graph::Graph graph = graph::MakeWattsStrogatz(/*n=*/400, /*k=*/6,
                                                /*beta=*/0.2, rng);
  obs::Registry registry;
  obs::Profiler& profiler = obs::Profiler::Global();
  const bool was_enabled = profiler.enabled();
  profiler.set_enabled(true);

  auto sampler =
      SamplerBuilder()
          .OverGraph(&graph)
          .WithWalker({.type = core::WalkerType::kCnrw})
          .WithEnsemble(/*num_walkers=*/4, /*seed=*/7)
          .StopAfterSteps(600)
          .WithCache({.capacity = 128, .profile_locks = true})
          .EstimateAverageDegree()
          .TrackProgress(/*publish_every=*/8)
          .WithObservability({.registry = &registry, .profiler = &profiler})
          .WithRemoteWire({.seed = 5, .base_latency_us = 400,
                           .jitter_us = 100})
          .RunPipelined({.depth = 4})
          .WithTelemetryServer(/*port=*/0)
          .Build();
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  ASSERT_NE((*sampler)->telemetry(), nullptr);
  const uint16_t port = (*sampler)->telemetry()->port();

  auto handle = (*sampler)->Run();
  ASSERT_TRUE(handle.ok()) << handle.status();

  // Scrape while the walk is (most likely) still in flight. Whatever the
  // race outcome, misses are counted before their outcome resolves, so
  // attributed outcomes never exceed the misses observed AFTER them. A
  // scrape reads its counters one by one (hw_access_cache_misses_total
  // before most outcome counters), not as one atomic snapshot, so the
  // misses come from a second scrape taken once the first has returned.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  HttpReply live = Get(port, "/metrics");
  ASSERT_EQ(live.status, 200);
  const int64_t live_attributed =
      ValueOf(live.body, "hw_net_wire_fetches_total") +
      ValueOf(live.body, "hw_access_store_hits_total") +
      ValueOf(live.body, "hw_net_singleflight_joins_total") +
      ValueOf(live.body, "hw_access_budget_refusals_total") +
      ValueOf(live.body, "hw_access_fetch_errors_total");
  HttpReply later = Get(port, "/metrics");
  ASSERT_EQ(later.status, 200);
  EXPECT_GE(ValueOf(later.body, "hw_access_cache_misses_total"),
            live_attributed);

  // The live run is visible on /runs as JSON.
  HttpReply runs = Get(port, "/runs");
  EXPECT_EQ(runs.status, 200);
  EXPECT_EQ(runs.body.front(), '[');
  if (handle->Poll() == RunState::kRunning) {
    EXPECT_NE(runs.body.find("\"total_steps\""), std::string::npos);
  }

  ASSERT_TRUE(handle->Wait().ok());

  // Quiescent: the identity is exact, and every live family the issue
  // names is present in one scrape through the HTTP path.
  HttpReply final_scrape = Get(port, "/metrics");
  ASSERT_EQ(final_scrape.status, 200);
  const std::string& text = final_scrape.body;
  const int64_t misses = ValueOf(text, "hw_access_cache_misses_total");
  EXPECT_GT(misses, 0);
  EXPECT_EQ(misses, ValueOf(text, "hw_net_wire_fetches_total") +
                        ValueOf(text, "hw_access_store_hits_total") +
                        ValueOf(text, "hw_net_singleflight_joins_total") +
                        ValueOf(text, "hw_access_budget_refusals_total") +
                        ValueOf(text, "hw_access_fetch_errors_total"));
  EXPECT_NE(text.find("hw_prof_scope_ns_count{site=\"walker/step\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hw_prof_self_ns_total{site=\"cache/get\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hw_cache_shard_hits_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hw_cache_shard_lock_acquires_total{"),
            std::string::npos);
  EXPECT_NE(text.find("hw_est_estimate"), std::string::npos);

  profiler.set_enabled(was_enabled);
}

}  // namespace
}  // namespace histwalk::api
