#ifndef HISTWALK_NET_LATENCY_MODEL_H_
#define HISTWALK_NET_LATENCY_MODEL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "access/rate_limiter.h"

// Simulated wire timing for a remote OSN service.
//
// The paper's cost model counts queries; against a real API the binding
// resource is wall-clock — per-request latency and rate-limit windows;
// overlapping requests, not waiting on them, is where the speedups live.
// LatencyModel is the virtual clock that makes that axis measurable
// without ever sleeping: each wire request is scheduled onto one of
// `max_in_flight` slots, pays a deterministic seeded latency, and may be
// gated by a service quota. Because nothing depends on real time or
// thread identity, the full timeline is a pure function of the options
// and the order of ScheduleRequest calls — tests and benches replay it
// bit-for-bit.
//
// The schedule is OPEN-LOOP: a request issues as soon as a wire slot and
// the rate gate allow, regardless of when its sender could causally have
// known to send it. That models a client that always has the next request
// ready — exact when the client keeps >= max_in_flight misses outstanding
// (a wide-enough async ensemble), an idealized upper bound on overlap
// otherwise (a single serial walker at depth 4 reports ~4x less simulated
// time than a causal client could achieve). Feeding arrival times from
// walker progress into the schedule is a ROADMAP item; until then, read
// depth-D wall-clock numbers as "with enough concurrent walkers to keep D
// requests in flight".

namespace histwalk::net {

struct LatencyModelOptions {
  uint64_t seed = 1;
  // Fixed per-request floor (connection setup, service-side queueing).
  uint64_t base_latency_us = 50'000;
  // Uniform per-request jitter in [0, jitter_us), drawn from
  // SubSeed(seed, request_index): a request's latency depends only on its
  // position in the issue order, never on which thread issued it.
  uint64_t jitter_us = 25'000;
  // Marginal transfer cost of each batched item beyond the first — why a
  // 8-item batch is far cheaper than 8 requests.
  uint64_t per_item_us = 2'000;
  // Wire slots: how many requests the transport overlaps (connection-pool
  // size / pipelining depth). Clamped to >= 1; 1 serializes the wire.
  uint32_t max_in_flight = 1;
  // Service quota, charged per wire REQUEST (a batch is one call — which
  // is exactly why batching matters against real quotas). Windows are
  // anchored at virtual time 0; calls_per_window == 0 disables the gate.
  access::RateLimitPolicy rate_limit{.calls_per_window = 0,
                                     .window_seconds = 900};
};

class LatencyModel {
 public:
  struct Schedule {
    uint64_t request_index = 0;  // position in global issue order (0-based)
    uint64_t issue_us = 0;       // when the request goes on the wire
    uint64_t complete_us = 0;    // when the response lands
    uint64_t latency_us = 0;     // complete_us - issue_us
  };

  explicit LatencyModel(LatencyModelOptions options = {});

  LatencyModel(const LatencyModel&) = delete;
  LatencyModel& operator=(const LatencyModel&) = delete;

  // Schedules the next wire request carrying `num_items` neighbor fetches
  // (>= 1). Thread-safe; the returned Schedule is a pure function of the
  // options and the sequence of prior calls.
  Schedule ScheduleRequest(uint64_t num_items = 1);

  // The deterministic latency draw ScheduleRequest would use for a request
  // at `request_index` carrying `num_items` — exposed so tests can predict
  // timelines without replaying them.
  uint64_t LatencyUsFor(uint64_t request_index, uint64_t num_items) const;

  // Simulated wall clock: completion time of the latest-finishing request
  // scheduled so far (0 before any request).
  uint64_t now_us() const;
  uint64_t requests_issued() const;
  uint64_t items_requested() const;
  // Total microseconds issue times were pushed back by the rate-limit gate.
  uint64_t rate_limited_us() const;

  // Rewinds the clock to 0 and forgets all scheduled requests.
  void Reset();

  const LatencyModelOptions& options() const { return options_; }

 private:
  LatencyModelOptions options_;
  mutable std::mutex mu_;
  std::vector<uint64_t> slots_;  // completion time per wire slot
  uint64_t next_index_ = 0;
  uint64_t last_issue_us_ = 0;  // requests leave in order (FIFO wire)
  uint64_t now_us_ = 0;
  uint64_t items_ = 0;
  uint64_t rate_limited_us_ = 0;
};

}  // namespace histwalk::net

#endif  // HISTWALK_NET_LATENCY_MODEL_H_
