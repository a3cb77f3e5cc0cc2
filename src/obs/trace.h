#ifndef HISTWALK_OBS_TRACE_H_
#define HISTWALK_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

// Deterministic tracer emitting Chrome trace-event JSON (load the file at
// ui.perfetto.dev or chrome://tracing).
//
// Determinism is the point: events are stamped with the *simulated*
// LatencyModel wire clock (injected via Options::clock), not wall time,
// and every event lands on a logical TRACK — "walker 0", "pipeline",
// "wire", "store" — never an OS thread id. Each track buffers its own
// events in append order, tracks are registered in a deterministic order
// by single-threaded wiring code, and serialization is a fixed-key-order
// hand-rolled writer. The result: for a serial request stream (one
// walker), the emitted bytes are identical whatever thread pool executed
// it — pinned by test and by scripts/trace_demo.sh across --threads=1/8.
// Multi-walker traces are valid Chrome JSON but not byte-stable, since
// hit/miss attribution depends on scheduling.
//
// Span kinds map to Chrome phases: RAII SpanGuard emits 'B'/'E' pairs,
// Instant emits 'i', Complete emits 'X' with an explicit ts + dur (used
// for wire requests, whose issue/complete times come from the
// LatencyModel schedule, and for pipeline batches, which would otherwise
// nest confusingly across concurrent batches).
//
// When no clock is injected (inline runs with no wire), each track stamps
// a per-track logical tick instead, which is equally deterministic.
// Options::wall_clock additionally records steady_clock microseconds into
// each event's args — useful for profiling real time, and explicitly
// waives byte-determinism.
//
// Instrumentation sites use the macros at the bottom so a null tracer
// costs one branch and HISTWALK_DISABLE_TRACING compiles the seam out
// entirely. Event names must be string literals (stored as const char*).

namespace histwalk::obs {

class Tracer {
 public:
  struct Options {
    // Simulated clock (microseconds); typically RemoteBackend's
    // sim_now_us. Null: per-track logical ticks.
    std::function<uint64_t()> clock;
    // Record steady_clock wall microseconds into event args. Breaks
    // byte-determinism across runs; off by default.
    bool wall_clock = false;
  };

  Tracer();
  explicit Tracer(Options options);

  // Find-or-create the track named `name`; returns a stable track id.
  // Call from deterministic single-threaded wiring code (Build, run
  // start) so ids are reproducible.
  uint32_t RegisterTrack(const std::string& name);

  bool has_clock() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<bool>(options_.clock);
  }
  // Wires the simulated clock after construction (SamplerBuilder::Build
  // does this once the RemoteBackend exists); call before any events.
  // Passing null clears it — ~Sampler does this when it installed a clock
  // reading its own wire, so later events fall back to logical ticks
  // instead of calling a destroyed backend.
  void set_clock(std::function<uint64_t()> clock);

  // `args`, where taken, is a pre-rendered JSON object body WITHOUT the
  // surrounding braces, e.g. R"("node":42,"shard":3)"; empty = no args.
  void Begin(uint32_t track, const char* name, std::string args = "");
  void End(uint32_t track, const char* name);
  void Instant(uint32_t track, const char* name, std::string args = "");
  void Complete(uint32_t track, const char* name, uint64_t ts_us,
                uint64_t dur_us, std::string args = "");
  // Counter sample ('C'): Perfetto renders the series `name` on `track`
  // as a step chart against the trace clock. Used by ProgressTracker to
  // plot the running estimate / CI half-width against the wire clock.
  void Counter(uint32_t track, const char* name, double value);

  // Current simulated time (0 without a clock) — for callers computing
  // Complete() durations.
  uint64_t NowUs() const;

  uint64_t num_events() const;

  // {"traceEvents":[...]} with per-track thread_name metadata first, then
  // each track's events in append order, tracks in ascending id order.
  // Fixed key order, integer timestamps: deterministic byte-for-byte.
  std::string ToChromeJson() const;
  util::Status WriteTo(const std::string& path) const;

 private:
  struct Event {
    char ph;           // 'B', 'E', 'i', 'X', 'C'
    const char* name;  // literal
    uint64_t ts = 0;
    uint64_t dur = 0;  // 'X' only
    std::string args;
  };
  struct Track {
    std::string name;
    mutable std::mutex mu;
    std::vector<Event> events;
    uint64_t ticks = 0;  // logical clock when no sim clock is injected
  };

  Track& track(uint32_t id) const;
  void Append(uint32_t track, Event event);

  Options options_;
  mutable std::mutex mu_;  // guards tracks_ growth + by_name_
  std::vector<std::unique_ptr<Track>> tracks_;
  std::map<std::string, uint32_t> by_name_;
};

// RAII 'B'/'E' span; no-op on null tracer.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, uint32_t track, const char* name)
      : tracer_(tracer), track_(track), name_(name) {
    if (tracer_ != nullptr) tracer_->Begin(track_, name_);
  }
  SpanGuard(Tracer* tracer, uint32_t track, const char* name,
            std::string args)
      : tracer_(tracer), track_(track), name_(name) {
    if (tracer_ != nullptr) tracer_->Begin(track_, name_, std::move(args));
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->End(track_, name_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  uint32_t track_;
  const char* name_;
};

}  // namespace histwalk::obs

#ifndef HISTWALK_DISABLE_TRACING

#define HW_TRACE_CONCAT_INNER_(a, b) a##b
#define HW_TRACE_CONCAT_(a, b) HW_TRACE_CONCAT_INNER_(a, b)

// Scoped span on `track`; `tracer` may be null (one-branch no-op).
#define HW_TRACE_SPAN(tracer, track, name)                            \
  ::histwalk::obs::SpanGuard HW_TRACE_CONCAT_(hw_trace_span_, __LINE__)( \
      (tracer), (track), (name))
// The ternary keeps the args expression unevaluated on a null tracer (no
// string building on the untraced hot path).
#define HW_TRACE_SPAN_ARGS(tracer, track, name, args)                 \
  ::histwalk::obs::SpanGuard HW_TRACE_CONCAT_(hw_trace_span_, __LINE__)( \
      (tracer), (track), (name),                                      \
      (tracer) != nullptr ? (args) : ::std::string())
// Instant event; the args expression is not evaluated on a null tracer.
#define HW_TRACE_INSTANT(tracer, track, name)                  \
  do {                                                         \
    if ((tracer) != nullptr) (tracer)->Instant((track), (name)); \
  } while (0)
#define HW_TRACE_INSTANT_ARGS(tracer, track, name, args)               \
  do {                                                                 \
    if ((tracer) != nullptr) (tracer)->Instant((track), (name), (args)); \
  } while (0)

#else  // HISTWALK_DISABLE_TRACING

#define HW_TRACE_SPAN(tracer, track, name) ((void)0)
#define HW_TRACE_SPAN_ARGS(tracer, track, name, args) ((void)0)
#define HW_TRACE_INSTANT(tracer, track, name) ((void)0)
#define HW_TRACE_INSTANT_ARGS(tracer, track, name, args) ((void)0)

#endif  // HISTWALK_DISABLE_TRACING

#endif  // HISTWALK_OBS_TRACE_H_
