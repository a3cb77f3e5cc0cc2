#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace histwalk::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& span : Spans()) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"session\":" << span.session << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"dur_ns\":" << span.end_ns - span.start_ns << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, uint64_t session,
                       uint64_t parent)
    : log_(log) {
  if (!log_.enabled()) return;
  span_.id = log_.NextId();
  span_.parent = parent;
  span_.session = session;
  span_.name = name;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = NowNs();
  log_.Add(std::move(span_));
}

namespace {

// Nanoseconds of [start, end) covered by the union of `children`.
uint64_t Covered(uint64_t start, uint64_t end,
                 std::vector<std::pair<uint64_t, uint64_t>>& children) {
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start;
  for (auto [child_start, child_end] : children) {
    child_start = std::max(child_start, cursor);
    child_end = std::min(child_end, end);
    if (child_end <= child_start) continue;
    covered += child_end - child_start;
    cursor = child_end;
  }
  return covered;
}

// Child intervals by parent id.
std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
ChildrenOf(std::span<const Span> spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  return children;
}

}  // namespace

std::vector<LayerTime> SelfTimes(std::span<const Span> spans) {
  auto children = ChildrenOf(spans);
  std::map<std::string, LayerTime> by_name;
  for (const Span& span : spans) {
    LayerTime& layer = by_name[span.name];
    layer.name = span.name;
    const uint64_t duration = span.end_ns - span.start_ns;
    auto it = children.find(span.id);
    const uint64_t covered =
        it == children.end() ? 0
                             : Covered(span.start_ns, span.end_ns, it->second);
    ++layer.count;
    layer.total_ns += duration;
    layer.self_ns += duration - covered;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : by_name) out.push_back(std::move(layer));
  return out;
}

double UnattributedFraction(std::span<const Span> spans) {
  auto children = ChildrenOf(spans);
  uint64_t wall = 0;
  uint64_t uncovered = 0;
  for (const Span& span : spans) {
    if (span.parent != 0) continue;
    const uint64_t duration = span.end_ns - span.start_ns;
    auto it = children.find(span.id);
    const uint64_t covered =
        it == children.end() ? 0
                             : Covered(span.start_ns, span.end_ns, it->second);
    wall += duration;
    uncovered += duration - covered;
  }
  return wall == 0 ? 0.0 : static_cast<double>(uncovered) / wall;
}

TimingBackend::TimingBackend(const access::AccessBackend* inner)
    : inner_(inner), seen_((inner->num_nodes() + 63) / 64) {}

void TimingBackend::Count(graph::NodeId v) const {
  fetches_.fetch_add(1, std::memory_order_relaxed);
  if (v >= inner_->num_nodes()) return;
  const uint64_t bit = uint64_t{1} << (v % 64);
  if ((seen_[v / 64].fetch_or(bit, std::memory_order_relaxed) & bit) == 0) {
    distinct_.fetch_add(1, std::memory_order_relaxed);
  }
}

util::Result<std::span<const graph::NodeId>> TimingBackend::FetchNeighbors(
    graph::NodeId v) const {
  const uint64_t start = NowNs();
  auto result = inner_->FetchNeighbors(v);
  fetch_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  Count(v);
  return result;
}

std::vector<util::Result<std::span<const graph::NodeId>>>
TimingBackend::FetchNeighborsBatch(std::span<const graph::NodeId> ids) const {
  const uint64_t start = NowNs();
  auto results = inner_->FetchNeighborsBatch(ids);
  fetch_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  for (graph::NodeId v : ids) Count(v);
  return results;
}

util::Result<double> TimingBackend::FetchAttribute(graph::NodeId v,
                                                   attr::AttrId attr) const {
  return inner_->FetchAttribute(v, attr);
}

util::Result<uint32_t> TimingBackend::FetchSummaryDegree(
    graph::NodeId v) const {
  return inner_->FetchSummaryDegree(v);
}

}  // namespace histwalk::perfbench
