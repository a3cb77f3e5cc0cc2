#ifndef HISTWALK_OBS_PROFILER_H_
#define HISTWALK_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/registry.h"
#include "util/thread_stripe.h"

// Wall-clock scoped profiler: the hardware-time counterpart of the
// deterministic sim-clock tracer (obs/trace.h).
//
// The tracer answers "what did the walk do, on the simulated wire clock"
// and is byte-deterministic; the profiler answers "what did the hardware
// do" — real latencies of cache probes, clock-hand sweeps, pipeline
// batches, store appends — and is by construction non-deterministic.
// The two never mix: profiler output flows only into the hw_prof_*
// sample family, never into the walk, so enabling it cannot change a
// trace, stat or bill byte (pinned by api_equivalence_test).
//
// Hot-path contract, mirroring HW_TRACE_SPAN:
//  * HW_PROF_SCOPE("site") compiles out entirely under
//    HISTWALK_DISABLE_PROFILING;
//  * compiled in but disabled (the default), a scope is one relaxed load
//    and a predictable branch — no clock read, no TLS push;
//  * enabled, a scope is two steady_clock reads plus wait-free relaxed
//    fetch_adds on a thread-striped cell (no locks, no allocation).
//
// Sites are identified by string literal and registered find-or-create on
// first use (a function-local static per macro site, so the name lookup
// happens once per call site, never per event). Each site aggregates
// count / total / max and a log2 latency histogram in nanoseconds, plus
// *self time*: total minus time spent in nested HW_PROF_SCOPEs on the
// same thread, which is what bench_report.py --profile ranks sites by.
//
// Export rides the existing Registry pull-collector path: AppendSamples
// emits, per site,
//   hw_prof_scope_ns{site="<name>"}        log2 histogram (count/sum/max)
//   hw_prof_self_ns_total{site="<name>"}   self-time counter
// so a live TelemetryServer scrape shows them next to the deterministic
// families.

namespace histwalk::obs {

class Profiler;

// One instrumented site. Owned by its Profiler; pointers are stable for
// the profiler's lifetime (cache them at wiring time — HW_PROF_SCOPE
// does, via a function-local static).
class ProfSite {
 public:
  explicit ProfSite(const Profiler* owner) : owner_(owner) {}
  ProfSite(const ProfSite&) = delete;
  ProfSite& operator=(const ProfSite&) = delete;

  // True when the owning profiler is currently recording; the one-branch
  // gate ProfScope's constructor takes before touching the clock.
  bool armed() const;

  void Record(uint64_t elapsed_ns, uint64_t self_ns) {
    Cell& cell = cells_[util::ThreadStripe(kStripes)];
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    cell.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
    cell.buckets[Log2Histogram::BucketOf(elapsed_ns)].fetch_add(
        1, std::memory_order_relaxed);
    uint64_t prev = cell.max_ns.load(std::memory_order_relaxed);
    while (elapsed_ns > prev &&
           !cell.max_ns.compare_exchange_weak(prev, elapsed_ns,
                                              std::memory_order_relaxed,
                                              std::memory_order_relaxed)) {
    }
  }

 private:
  friend class Profiler;
  static constexpr size_t kStripes = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> total_ns{0};
    std::atomic<uint64_t> self_ns{0};
    std::atomic<uint64_t> max_ns{0};
    std::array<std::atomic<uint64_t>, Log2Histogram::kBuckets> buckets{};
  };
  const Profiler* owner_;
  std::array<Cell, kStripes> cells_{};
};

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Process-wide instance the HW_PROF_SCOPE macro records into. Leaked on
  // purpose (like Registry::Global) so site pointers cached in
  // function-local statics outlive every static destructor.
  static Profiler& Global();

  // Recording is off by default: an instrumented binary pays one branch
  // per scope until something (crawl_cli --serve, a test) turns it on.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Find-or-create; takes the profiler mutex, so call at wiring time (the
  // macro's function-local static) — never per event.
  ProfSite* site(std::string_view name);

  struct SiteSnapshot {
    std::string name;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    uint64_t max_ns = 0;
    Log2Histogram hist;  // elapsed ns; count/sum/max folded from stripes
  };

  // Folds every site's stripes; sorted by site name. Concurrent Records
  // are either counted or not (same contract as Counter::Value).
  std::vector<SiteSnapshot> Snapshot() const;

  // Registry-collector payload: hw_prof_scope_ns{site=...} histograms and
  // hw_prof_self_ns_total{site=...} counters for every registered site.
  void AppendSamples(std::vector<Sample>& out) const;

  // steady_clock nanoseconds; the profiler's only time source.
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ProfSite>, std::less<>> sites_;
};

inline bool ProfSite::armed() const { return owner_->enabled(); }

// RAII wall-clock scope. Inactive (null site or disabled profiler) it
// touches nothing; active it reads the clock at both ends and maintains a
// per-thread scope stack so the parent's self-time excludes this scope.
class ProfScope {
 public:
  explicit ProfScope(ProfSite* site) {
    if (site == nullptr || !site->armed()) return;
    site_ = site;
    parent_ = tls_current_;
    tls_current_ = this;
    start_ns_ = Profiler::NowNs();
  }
  ~ProfScope() {
    if (site_ == nullptr) return;
    uint64_t end_ns = Profiler::NowNs();
    uint64_t elapsed = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
    tls_current_ = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
    site_->Record(elapsed,
                  elapsed >= child_ns_ ? elapsed - child_ns_ : 0);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  static thread_local ProfScope* tls_current_;
  ProfSite* site_ = nullptr;
  ProfScope* parent_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t child_ns_ = 0;
};

}  // namespace histwalk::obs

#ifndef HISTWALK_DISABLE_PROFILING

#define HW_PROF_CONCAT_INNER_(a, b) a##b
#define HW_PROF_CONCAT_(a, b) HW_PROF_CONCAT_INNER_(a, b)

// Wall-clock scope recorded into Profiler::Global() under `name` (string
// literal). One relaxed load + branch when profiling is off; compiled out
// entirely under HISTWALK_DISABLE_PROFILING.
#define HW_PROF_SCOPE(name)                                               \
  static ::histwalk::obs::ProfSite* const HW_PROF_CONCAT_(hw_prof_site_,  \
                                                          __LINE__) =     \
      ::histwalk::obs::Profiler::Global().site(name);                     \
  ::histwalk::obs::ProfScope HW_PROF_CONCAT_(hw_prof_scope_, __LINE__)(   \
      HW_PROF_CONCAT_(hw_prof_site_, __LINE__))

#else  // HISTWALK_DISABLE_PROFILING

#define HW_PROF_SCOPE(name) ((void)0)

#endif  // HISTWALK_DISABLE_PROFILING

#endif  // HISTWALK_OBS_PROFILER_H_
