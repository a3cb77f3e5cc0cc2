#include "core/circulation.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include <sys/mman.h>

#include "util/check.h"

namespace histwalk::core {

namespace {

// The process-wide free list of released chunks.
class ChunkRecycler {
 public:
  // Never destroyed: tables may release chunks during static destruction.
  static ChunkRecycler& Get() {
    static ChunkRecycler* recycler = new ChunkRecycler();
    return *recycler;
  }

  graph::NodeId* Take() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        graph::NodeId* chunk = free_.back();
        free_.pop_back();
        return chunk;
      }
    }
    // Mapped, not malloc'd: a chunk never sits in (and pins) a malloc
    // arena between long-lived cache entries. Recycling keeps the page
    // faults of a fresh mapping to the first use of each chunk.
    void* chunk = mmap(nullptr, CirculationTable::kChunkBytes,
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
    HW_CHECK_MSG(chunk != MAP_FAILED, "mapping a history chunk failed");
    return static_cast<graph::NodeId*>(chunk);
  }

  void Give(graph::NodeId* chunk) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (free_.size() < CirculationTable::kRecycledChunks) {
        free_.push_back(chunk);
        return;
      }
    }
    munmap(chunk, CirculationTable::kChunkBytes);
  }

 private:
  std::mutex mu_;
  std::vector<graph::NodeId*> free_;
};

}  // namespace

void CirculationTable::RecycleChunk::operator()(graph::NodeId* chunk) const {
  ChunkRecycler::Get().Give(chunk);
}

graph::NodeId CirculationTable::Draw(uint64_t key,
                                     std::span<const graph::NodeId> candidates,
                                     util::Random& rng,
                                     graph::NodeId excluded) {
  State& state = FindOrAdd(key, candidates, excluded);
  if (state.next == state.size) state.next = 0;  // round complete: start over
  uint32_t j = state.next + rng.UniformInt(state.size - state.next);
  std::swap(state.order[state.next], state.order[j]);
  return state.order[state.next++];
}

uint32_t CirculationTable::Find(uint64_t key) const {
  if (index_.empty()) return kNoState;
  const uint32_t mask = static_cast<uint32_t>(index_.size()) - 1;
  for (uint32_t i = Home(key);; i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.state == kNoState || slot.key == key) return slot.state;
  }
}

CirculationTable::State& CirculationTable::FindOrAdd(
    uint64_t key, std::span<const graph::NodeId> candidates,
    graph::NodeId excluded) {
  if (2 * (states_.size() + 1) > index_.size()) Grow();
  const uint32_t mask = static_cast<uint32_t>(index_.size()) - 1;
  uint32_t i = Home(key);
  for (; index_[i].state != kNoState; i = (i + 1) & mask) {
    if (index_[i].key == key) return states_[index_[i].state];
  }

  const uint32_t size = static_cast<uint32_t>(
      candidates.size() -
      std::count(candidates.begin(), candidates.end(), excluded));
  HW_DCHECK(size > 0);
  graph::NodeId* order = Carve(size);
  std::copy_if(candidates.begin(), candidates.end(), order,
               [excluded](graph::NodeId w) { return w != excluded; });
  index_[i] = {key, static_cast<uint32_t>(states_.size())};
  return states_.emplace_back(State{order, size, 0});
}

void CirculationTable::Grow() {
  std::vector<Slot> old =
      std::exchange(index_, std::vector<Slot>(std::max<size_t>(
                                                  16, 2 * index_.size()),
                                              Slot{0, kNoState}));
  shift_ = 64 - std::countr_zero(index_.size());
  const uint32_t mask = static_cast<uint32_t>(index_.size()) - 1;
  for (const Slot& slot : old) {
    if (slot.state == kNoState) continue;
    uint32_t i = Home(slot.key);
    while (index_[i].state != kNoState) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

graph::NodeId* CirculationTable::Carve(uint32_t n) {
  if (n > kChunkNodes / 4) {
    blocks_.push_back(std::make_unique_for_overwrite<graph::NodeId[]>(n));
    pool_bytes_ += n * sizeof(graph::NodeId);
    return blocks_.back().get();
  }
  if (kChunkNodes - chunk_used_ < n) {
    chunks_.emplace_back(ChunkRecycler::Get().Take());
    pool_bytes_ += kChunkBytes;
    chunk_ = chunks_.back().get();
    chunk_used_ = 0;
  }
  graph::NodeId* room = chunk_ + chunk_used_;
  chunk_used_ += n;
  return room;
}

uint32_t CirculationTable::Remaining(uint64_t key) const {
  const uint32_t found = Find(key);
  if (found == kNoState) return 0;
  return states_[found].size - states_[found].next;
}

void CirculationTable::Reset() { *this = CirculationTable(); }

uint64_t CirculationTable::MemoryBytes() const {
  return sizeof(*this) + index_.capacity() * sizeof(Slot) +
         states_.capacity() * sizeof(State) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         blocks_.capacity() * sizeof(blocks_[0]) + pool_bytes_;
}

}  // namespace histwalk::core
