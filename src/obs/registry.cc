#include "obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace histwalk::obs {

// ---- ScrapeResult -----------------------------------------------------------

namespace {

bool SampleBefore(const Sample& a, const Sample& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

std::string RenderName(const Sample& s, const char* suffix = "",
                       const std::string& extra_label = "") {
  std::string out = s.name;
  out += suffix;
  if (!s.labels.empty() || !extra_label.empty()) {
    out += '{';
    out += s.labels;
    if (!s.labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  return out;
}

// Scalar rendering shared by both expositions: integers verbatim,
// double-valued gauges via %.9g (deterministic, locale-free).
std::string RenderScalar(const Sample& s) {
  if (!s.is_double) return std::to_string(s.value);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", s.dvalue);
  return std::string(buf);
}

void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // control chars never appear in metric names/labels
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderLabel(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  out += EscapeLabelValue(value);
  out += '"';
  return out;
}

const Sample* ScrapeResult::Find(std::string_view name,
                                 std::string_view labels) const {
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

int64_t ScrapeResult::Value(std::string_view name,
                            std::string_view labels) const {
  const Sample* s = Find(name, labels);
  if (s == nullptr) return 0;
  if (s->kind == SampleKind::kHistogram) {
    return static_cast<int64_t>(s->hist.count);
  }
  if (s->is_double) return static_cast<int64_t>(s->dvalue);
  return s->value;
}

double ScrapeResult::DValue(std::string_view name,
                            std::string_view labels) const {
  const Sample* s = Find(name, labels);
  if (s == nullptr) return 0.0;
  if (s->kind == SampleKind::kHistogram) {
    return static_cast<double>(s->hist.count);
  }
  return s->is_double ? s->dvalue : static_cast<double>(s->value);
}

std::string ScrapeResult::ToPrometheusText() const {
  std::string out;
  std::string last_typed;
  for (const Sample& s : samples) {
    if (s.name != last_typed) {
      out += "# TYPE ";
      out += s.name;
      out += ' ';
      out += s.kind == SampleKind::kCounter   ? "counter"
             : s.kind == SampleKind::kGauge   ? "gauge"
                                              : "histogram";
      out += '\n';
      last_typed = s.name;
    }
    if (s.kind != SampleKind::kHistogram) {
      out += RenderName(s);
      out += ' ';
      out += RenderScalar(s);
      out += '\n';
      continue;
    }
    // Cumulative le buckets at the log2 upper bounds, then +Inf, _sum,
    // _count, _max — close enough to native Prometheus histograms for any
    // text-format consumer, exact for ours. The top bucket is the clamp
    // bucket (BucketOf folds everything above its bound into it), so a
    // finite le line there would claim a bound its observations can
    // exceed; it renders only under le="+Inf".
    uint64_t cumulative = 0;
    for (size_t b = 0; b + 1 < Log2Histogram::kBuckets; ++b) {
      cumulative += s.hist.buckets[b];
      if (s.hist.buckets[b] == 0 && b != 0) continue;  // keep output compact
      out += RenderName(
          s, "_bucket",
          "le=\"" + std::to_string(Log2Histogram::BucketUpperBound(b)) +
              "\"");
      out += ' ';
      out += std::to_string(cumulative);
      out += '\n';
    }
    out += RenderName(s, "_bucket", "le=\"+Inf\"");
    out += ' ';
    out += std::to_string(s.hist.count);
    out += '\n';
    out += RenderName(s, "_sum");
    out += ' ';
    out += std::to_string(s.hist.sum);
    out += '\n';
    out += RenderName(s, "_count");
    out += ' ';
    out += std::to_string(s.hist.count);
    out += '\n';
    out += RenderName(s, "_max");
    out += ' ';
    out += std::to_string(s.hist.max);
    out += '\n';
  }
  return out;
}

std::string ScrapeResult::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(out, s.name);
    out += "\",\"labels\":\"";
    AppendJsonEscaped(out, s.labels);
    out += "\",\"kind\":\"";
    out += s.kind == SampleKind::kCounter   ? "counter"
           : s.kind == SampleKind::kGauge   ? "gauge"
                                            : "histogram";
    out += '"';
    if (s.kind == SampleKind::kHistogram) {
      out += ",\"count\":" + std::to_string(s.hist.count);
      out += ",\"sum\":" + std::to_string(s.hist.sum);
      out += ",\"max\":" + std::to_string(s.hist.max);
      out += ",\"p50\":" + std::to_string(s.hist.Quantile(0.5));
      out += ",\"p99\":" + std::to_string(s.hist.Quantile(0.99));
      out += ",\"buckets\":[";
      for (size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
        if (b != 0) out += ',';
        out += std::to_string(s.hist.buckets[b]);
      }
      out += ']';
    } else {
      out += ",\"value\":" + RenderScalar(s);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

// ---- Registry ---------------------------------------------------------------

Registry& Registry::Global() {
  static Registry* global = new Registry();  // intentionally leaked
  return *global;
}

Counter* Registry::counter(std::string_view name, std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[Key(std::string(name), std::string(labels))];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(std::string_view name, std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[Key(std::string(name), std::string(labels))];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(std::string_view name,
                               std::string_view labels) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[Key(std::string(name), std::string(labels))];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void Registry::CollectorHandle::reset() {
  if (registry_ == nullptr) return;
  // collector_mu_ first (same order as Scrape): a scrape in flight may
  // still be invoking this collector, and taking the scrape lock waits it
  // out — after reset() returns the callback can never run again.
  std::lock_guard<std::mutex> scrape_lock(registry_->collector_mu_);
  std::lock_guard<std::mutex> lock(registry_->mu_);
  registry_->collectors_.erase(id_);
  registry_ = nullptr;
}

Registry::CollectorHandle Registry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collector));
  return CollectorHandle(this, id);
}

ScrapeResult Registry::Scrape() const {
  ScrapeResult result;
  // Collectors must NOT run under mu_: their bodies read component stats
  // under component locks, and those components resolve instruments (which
  // takes mu_) on paths that hold the same component lock — running them
  // here under mu_ closes a deadlock cycle (e.g. service Submit holds the
  // service mutex -> mu_, while a scrape would hold mu_ -> service mutex).
  // So: snapshot the instruments and the collector list under mu_, then
  // invoke the collectors holding only collector_mu_, which reset() also
  // takes so unregistration still waits out an in-flight scrape.
  std::lock_guard<std::mutex> scrape_lock(collector_mu_);
  std::vector<Collector> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, counter] : counters_) {
      Sample s;
      s.name = key.first;
      s.labels = key.second;
      s.kind = SampleKind::kCounter;
      s.value = static_cast<int64_t>(counter->Value());
      result.samples.push_back(std::move(s));
    }
    for (const auto& [key, gauge] : gauges_) {
      Sample s;
      s.name = key.first;
      s.labels = key.second;
      s.kind = SampleKind::kGauge;
      s.value = gauge->Value();
      result.samples.push_back(std::move(s));
    }
    for (const auto& [key, histogram] : histograms_) {
      Sample s;
      s.name = key.first;
      s.labels = key.second;
      s.kind = SampleKind::kHistogram;
      s.hist = histogram->Snapshot();
      result.samples.push_back(std::move(s));
    }
    collectors.reserve(collectors_.size());
    for (const auto& [id, collector] : collectors_) {
      collectors.push_back(collector);
    }
  }
  for (const Collector& collector : collectors) {
    collector(result.samples);
  }
  std::sort(result.samples.begin(), result.samples.end(), SampleBefore);
  return result;
}

util::Status Registry::WriteScrape(const std::string& path) const {
  const ScrapeResult scrape = Scrape();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::Unavailable("cannot open scrape output: " + path);
  }
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  out << (json ? scrape.ToJson() : scrape.ToPrometheusText());
  out.flush();
  if (!out) {
    return util::Status::DataLoss("short write to scrape output: " + path);
  }
  return util::Status::Ok();
}

}  // namespace histwalk::obs
