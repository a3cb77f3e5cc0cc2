#ifndef HISTWALK_PERFBENCH_LEDGER_H_
#define HISTWALK_PERFBENCH_LEDGER_H_

// The traced run's bookkeeping, kept out of the library on purpose: spans
// are recorded here, around the benchmark's own calls into each layer's
// public functions, and a timing AccessBackend decorator measures the
// backend from outside. Nothing in this file is active in an untraced run.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "access/backend.h"

namespace histwalk::perfbench {

uint64_t NowNs();

// One timed call: a layer boundary inside one session. `parent` is the id
// of the span that caused it (0 for a session's root span); spans of one
// session share `session`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t session = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// In-memory span store, written out once when the run ends. Thread-safe;
// while disabled it records nothing and spans get id 0. Toggle it only
// while no ScopedSpan is open.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Span span);

  // Every span recorded so far, in completion order.
  std::vector<Span> Spans() const;
  // One JSON object per line: {"id", "parent", "session", "name",
  // "start_ns", "dur_ns"}. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span: times its own lifetime and lands in `log` on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t session,
             uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

// Self time per span name, summed: each span's duration minus the part of
// it that its child spans cover.
struct LayerTime {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};
std::vector<LayerTime> SelfTimes(std::span<const Span> spans);

// Share of the root spans' (parent == 0) wall time that no child span
// covers: the part of a session no layer boundary accounts for.
double UnattributedFraction(std::span<const Span> spans);

// An AccessBackend decorator that counts and times every neighbor fetch
// the wire passes through to `inner`, and counts distinct ids, so
// fetches / distinct above 1 is double billing.
class TimingBackend final : public access::AccessBackend {
 public:
  explicit TimingBackend(const access::AccessBackend* inner);
  TimingBackend(const TimingBackend&) = delete;
  TimingBackend& operator=(const TimingBackend&) = delete;

  util::Result<std::span<const graph::NodeId>> FetchNeighbors(
      graph::NodeId v) const override;
  std::vector<util::Result<std::span<const graph::NodeId>>>
  FetchNeighborsBatch(std::span<const graph::NodeId> ids) const override;
  util::Result<double> FetchAttribute(graph::NodeId v,
                                      attr::AttrId attr) const override;
  util::Result<uint32_t> FetchSummaryDegree(graph::NodeId v) const override;
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  std::string name() const override { return "timing(" + inner_->name() + ")"; }

  uint64_t fetches() const { return fetches_.load(); }
  uint64_t distinct() const { return distinct_.load(); }
  uint64_t fetch_ns() const { return fetch_ns_.load(); }

 private:
  void Count(graph::NodeId v) const;

  const access::AccessBackend* inner_;
  mutable std::vector<std::atomic<uint64_t>> seen_;  // one bit per node
  mutable std::atomic<uint64_t> fetches_{0};
  mutable std::atomic<uint64_t> distinct_{0};
  mutable std::atomic<uint64_t> fetch_ns_{0};
};

}  // namespace histwalk::perfbench

#endif  // HISTWALK_PERFBENCH_LEDGER_H_
