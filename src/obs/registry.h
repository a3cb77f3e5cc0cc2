#ifndef HISTWALK_OBS_REGISTRY_H_
#define HISTWALK_OBS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.h"
#include "util/rw_spinlock.h"
#include "util/status.h"
#include "util/thread_stripe.h"

// Process-wide metrics registry: named counters, gauges and log2
// histograms, scraped into a Prometheus-style text exposition or JSON.
//
// Design constraints, in order:
//
//  * The hot path is Inc()/Observe() on an instrument POINTER the caller
//    cached at wiring time — one relaxed fetch_add on a thread-striped
//    cell for counters, one short util::RwSpinLock hold on a striped cell
//    for histograms. Name lookup (counter()/gauge()/histogram()) takes the
//    registry mutex and is meant for construction time, never per event.
//  * Instruments are owned by the registry and never move or die before
//    it, so cached pointers stay valid for the registry's lifetime.
//  * Components that already keep their own consistent stats structs
//    (cache, backend, store, service) export them via pull collectors:
//    a callback registered with AddCollector that appends samples during
//    Scrape(). Zero cost between scrapes, and the scrape reuses the exact
//    accounting the components' tests already pin.
//  * Scrape() output is deterministic: samples sorted by (name, labels),
//    fixed serialization, integer values.
//
// Naming convention: hw_<layer>_<name>{label="value"}, e.g.
// hw_access_cache_hits_total, hw_net_pipeline_wait_items. Counters end in
// _total; gauges and histograms do not.

namespace histwalk::obs {

// Monotone counter with per-thread-striped cells. Inc is wait-free; Value
// sums the cells (each cell is atomically read, so Value never tears, and
// concurrent Incs are either counted or not — same contract as the cache
// stats structs).
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    cells_[util::ThreadStripe(kStripes)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_{};
};

// Last-write-wins signed gauge.
class Gauge {
 public:
  void Set(int64_t value) { v_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log2 histogram with striped cells, each under its own RwSpinLock so
// concurrent Observe calls from different threads rarely collide.
// Snapshot merges the cells.
class Histogram {
 public:
  void Observe(uint64_t value) {
    Cell& cell = cells_[util::ThreadStripe(kStripes)];
    std::lock_guard<util::RwSpinLock> lock(cell.mu);
    cell.h.Record(value);
  }
  Log2Histogram Snapshot() const {
    Log2Histogram merged;
    for (const Cell& cell : cells_) {
      std::shared_lock<util::RwSpinLock> lock(cell.mu);
      merged.Merge(cell.h);
    }
    return merged;
  }

 private:
  static constexpr size_t kStripes = 8;
  struct alignas(64) Cell {
    mutable util::RwSpinLock mu;
    Log2Histogram h;
  };
  std::array<Cell, kStripes> cells_{};
};

enum class SampleKind { kCounter, kGauge, kHistogram };

// Escapes a label VALUE per the Prometheus text exposition format:
// backslash, double-quote and newline render as \\, \" and \n. Everything
// building a Sample::labels body from runtime data (session ids, profiler
// site names, shard indices) must go through this — raw concatenation
// produces an unparseable exposition the moment a value contains one of
// those three characters.
std::string EscapeLabelValue(std::string_view value);

// Renders one label pair `key="value"` with the value escaped; the
// building block for Sample::labels bodies. `key` must be a valid label
// name ([a-zA-Z_][a-zA-Z0-9_]*) — it is not escaped.
std::string RenderLabel(std::string_view key, std::string_view value);

// One scraped metric. `labels` is the rendered label body without braces
// (e.g. `tenant="3"`), empty for unlabelled metrics; label rendering is
// the caller's job and must be deterministic.
struct Sample {
  std::string name;
  std::string labels;
  SampleKind kind = SampleKind::kCounter;
  int64_t value = 0;     // counter / gauge
  // Double-valued gauge (the hw_est_* convergence metrics): when
  // is_double is set the renderers emit dvalue with deterministic %.9g
  // formatting; Value() reports the truncated integer.
  bool is_double = false;
  double dvalue = 0.0;
  Log2Histogram hist;    // histogram
};

struct ScrapeResult {
  std::vector<Sample> samples;  // sorted by (name, labels)

  // First sample with this exact name+labels, or nullptr.
  const Sample* Find(std::string_view name,
                     std::string_view labels = "") const;
  // Scalar value of the sample (histograms report their count); 0 when the
  // sample is absent — callers asserting identities should Find() first if
  // absence must be distinguished from zero.
  int64_t Value(std::string_view name, std::string_view labels = "") const;
  // Like Value() but preserving double-valued gauges exactly.
  double DValue(std::string_view name, std::string_view labels = "") const;

  std::string ToPrometheusText() const;
  std::string ToJson() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Process-wide default instance; components fall back to it when no
  // registry is injected. Never destroyed (leaked on purpose) so cached
  // instrument pointers outlive every static destructor.
  static Registry& Global();

  // Find-or-create. The returned pointer is stable for the registry's
  // lifetime; cache it at wiring time.
  Counter* counter(std::string_view name, std::string_view labels = "");
  Gauge* gauge(std::string_view name, std::string_view labels = "");
  Histogram* histogram(std::string_view name, std::string_view labels = "");

  // Pull collector: appends samples during Scrape. Collectors run OUTSIDE
  // the registry's instrument mutex (so their stats reads may take
  // component locks whose holders themselves resolve instruments), under a
  // dedicated scrape lock. A collector must not call Scrape, AddCollector
  // or CollectorHandle::reset on its own registry — that self-deadlocks.
  using Collector = std::function<void(std::vector<Sample>&)>;

  // RAII registration; destroying (or reset()) unregisters, blocking until
  // any in-flight Scrape is done invoking the collector. The registry must
  // outlive the handle.
  class CollectorHandle {
   public:
    CollectorHandle() = default;
    CollectorHandle(CollectorHandle&& other) noexcept { *this = std::move(other); }
    CollectorHandle& operator=(CollectorHandle&& other) noexcept {
      if (this != &other) {
        reset();
        registry_ = other.registry_;
        id_ = other.id_;
        other.registry_ = nullptr;
      }
      return *this;
    }
    ~CollectorHandle() { reset(); }
    void reset();

   private:
    friend class Registry;
    CollectorHandle(Registry* registry, uint64_t id)
        : registry_(registry), id_(id) {}
    Registry* registry_ = nullptr;
    uint64_t id_ = 0;
  };
  CollectorHandle AddCollector(Collector collector);

  // Snapshot of every instrument plus every collector's samples, sorted by
  // (name, labels). Each instrument is internally consistent; cross-metric
  // consistency holds whenever the scraped component is quiescent (the
  // same contract as the per-component stats structs).
  ScrapeResult Scrape() const;

  // Writes ToPrometheusText() — or ToJson() when `path` ends in ".json" —
  // to `path`.
  util::Status WriteScrape(const std::string& path) const;

 private:
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  // Held across Scrape's collector invocations (and by CollectorHandle::
  // reset, so unregistration waits out a scrape). Lock order:
  // collector_mu_ -> mu_; mu_ is never held while a collector runs.
  mutable std::mutex collector_mu_;
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
  std::map<uint64_t, Collector> collectors_;
  uint64_t next_collector_id_ = 1;
};

}  // namespace histwalk::obs

#endif  // HISTWALK_OBS_REGISTRY_H_
