#ifndef HISTWALK_OBS_FLIGHT_RECORDER_H_
#define HISTWALK_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <vector>

// Bounded ring of recent miss-path resolutions — the post-hoc "why was
// this tenant slow / refused?" answer that doesn't need a full trace file.
// Cache HITS are deliberately not recorded: the hit path is the hot path,
// and a hit needs no explanation. What lands in the ring is every miss's
// outcome: wire fetch, store-tier warm hit, singleflight join, budget
// refusal, or error, each stamped with the simulated clock when one is
// wired. RunHandle::Report and the service's SessionReport surface a
// snapshot of the ring.

namespace histwalk::obs {

enum class FlightEventKind : uint8_t {
  kWireFetch,         // miss resolved by a backend fetch this call issued
  kStoreHit,          // miss resolved by the durable-history read tier
  kSingleflightJoin,  // miss joined another walker's in-flight fetch
  kBudgetRefusal,     // miss refused by the group/tenant query budget
  kError,             // miss path failed (backend or pipeline error)
};

inline std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kWireFetch: return "wire_fetch";
    case FlightEventKind::kStoreHit: return "store_hit";
    case FlightEventKind::kSingleflightJoin: return "singleflight_join";
    case FlightEventKind::kBudgetRefusal: return "budget_refusal";
    case FlightEventKind::kError: return "error";
  }
  return "unknown";
}

struct FlightEvent {
  uint64_t node = 0;
  uint32_t actor = 0;  // view id within the group (walker / session view)
  FlightEventKind kind = FlightEventKind::kWireFetch;
  uint64_t start_us = 0;  // clock at the miss
  uint64_t end_us = 0;    // clock at resolution
};

// Owning snapshot for reports; `dropped` says how much history the ring
// overwrote, so "the ring only shows the tail" is visible.
struct FlightLog {
  std::vector<FlightEvent> events;  // oldest -> newest
  uint64_t total_recorded = 0;
  uint64_t dropped = 0;
};

class FlightRecorder {
 public:
  // capacity 0 disables recording entirely. `clock` stamps start/end
  // microseconds (typically the simulated wire clock); null leaves 0.
  explicit FlightRecorder(size_t capacity,
                          std::function<uint64_t()> clock = nullptr)
      : clock_(std::move(clock)), capacity_(capacity) {
    ring_.reserve(capacity_);
  }
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  uint64_t NowUs() const { return clock_ ? clock_() : 0; }
  size_t capacity() const { return capacity_; }

  void Record(FlightEvent event) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[next_] = event;
      next_ = (next_ + 1) % capacity_;
    }
  }

  // Oldest -> newest copy of the ring.
  std::vector<FlightEvent> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<FlightEvent> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  uint64_t total_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_ - ring_.size();
  }

  FlightLog TakeLog() const {
    FlightLog log;
    log.events = Snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    log.total_recorded = total_;
    log.dropped = total_ - ring_.size();
    return log;
  }

 private:
  std::function<uint64_t()> clock_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;
  size_t next_ = 0;  // overwrite cursor == oldest entry once full
  uint64_t total_ = 0;
};

}  // namespace histwalk::obs

#endif  // HISTWALK_OBS_FLIGHT_RECORDER_H_
