#ifndef HISTWALK_CORE_CIRCULATION_H_
#define HISTWALK_CORE_CIRCULATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/random.h"

// Sampling-without-replacement state shared by the CNRW family.
//
// The paper's b(u, v) bookkeeping (Algorithm 1) excludes already-attempted
// neighbors until every neighbor has been tried once, then starts over.
// Drawing uniformly from N(v) - b(u, v) is realized here as an incremental
// Fisher-Yates shuffle over a private copy of the candidate list: positions
// [0, next) hold this round's already-drawn candidates, a uniform pick from
// [next, size) is swapped into place and consumed. Each draw is O(1), each
// round enumerates every candidate exactly once, and a full round resets the
// state — the "circulated" behaviour of section 3.1.
//
// Note: the paper's Algorithm 1 pseudo-code resets b to the empty set
// *without* recording the first pick of the new round; the prose summary in
// section 3.1 (pick, record, reset when complete) does record it. The two
// differ only in whether the first pick of a round can repeat as the second
// pick. This implementation follows the prose summary, which is the
// behaviour that actually circulates.

namespace histwalk::core {

// Key for per-directed-edge history: the incoming transition u -> v.
// The first transition of a walk has no incoming edge; kNoPrevious marks it.
inline constexpr graph::NodeId kNoPrevious = graph::kInvalidNode;

constexpr uint64_t EdgeKey(graph::NodeId prev, graph::NodeId cur) {
  return (static_cast<uint64_t>(prev) << 32) | cur;
}

// One walker's whole circulation history: key (an EdgeKey, or a node for
// the node-keyed variant) => a without-replacement circulation over that
// key's candidate list. A walk adds one state per distinct key it crosses
// and never removes one until Reset, so the table is built for append-only
// growth without a heap allocation per state:
//
//  * index   open addressing (power-of-two size, linear probing, load at
//            most 1/2) from key to a position in `states`;
//  * states  one flat array of {order, size, next};
//  * pool    the candidate orders, carved from fixed 64 KiB chunks that
//            never move, so a state's `order` pointer stays valid while the
//            table grows. A list longer than a quarter chunk gets a block of
//            its own; a shorter one that does not fit the current chunk's
//            tail starts a new chunk (at most a quarter chunk is wasted).
//            Chunks are mapped pages, not malloc memory, and released
//            ones are recycled process-wide (up to kRecycledChunks of
//            them) rather than unmapped: walkers run on a few long-lived
//            stepper threads that also allocate long-lived cache entries,
//            and chunks in those threads' malloc arenas would strand
//            memory between the entries. Recycling keeps the chunk
//            footprint at the peak live walkers' need and pays a fresh
//            mapping's page faults once per chunk, not once per walker.
//
// The footprint is the index and state arrays plus the sum of |N(v)| over
// distinct keys, rounded up to whole chunks.
class CirculationTable {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;
  static constexpr uint32_t kChunkNodes = kChunkBytes / sizeof(graph::NodeId);
  // Released chunks kept for reuse (64 MiB); beyond that they are unmapped.
  static constexpr size_t kRecycledChunks = 1024;

  // Uniform without-replacement draw from `key`'s circulation; starts a
  // fresh round automatically when all candidates have been consumed. On
  // the first draw for `key` the circulation is created over a copy of
  // `candidates` in list order, leaving out every occurrence of `excluded`
  // (kNoPrevious excludes nothing); later calls ignore both. The list left
  // after exclusion must not be empty.
  graph::NodeId Draw(uint64_t key, std::span<const graph::NodeId> candidates,
                     util::Random& rng,
                     graph::NodeId excluded = kNoPrevious);

  bool Contains(uint64_t key) const { return Find(key) != kNoState; }

  // Candidates of `key` not yet drawn in the current round
  // (= |N(v) - b(u, v)|): the full list size for a new state, 0 once a
  // round is complete (the next draw starts the new round), and 0 for a
  // key the table does not hold.
  uint32_t Remaining(uint64_t key) const;

  // Number of keys (traversed edges) held.
  size_t size() const { return states_.size(); }

  // Drops every state and releases all memory (chunks to the recycler).
  void Reset();

  // Bytes held: index, states and candidate pool (chunks and own blocks).
  uint64_t MemoryBytes() const;

  // Bytes of the candidate pool alone, and the number of blocks (chunks
  // plus oversized lists' own blocks) it has allocated.
  uint64_t pool_bytes() const { return pool_bytes_; }
  size_t pool_blocks() const { return chunks_.size() + blocks_.size(); }

 private:
  struct State {
    graph::NodeId* order;  // `size` candidates in the pool
    uint32_t size;
    uint32_t next;  // [0, next) drawn this round
  };
  struct Slot {
    uint64_t key;
    uint32_t state;  // index into states_; kNoState marks an empty slot
  };
  static constexpr uint32_t kNoState = UINT32_MAX;
  // Hands a released chunk to the recycler instead of freeing it.
  struct RecycleChunk {
    void operator()(graph::NodeId* chunk) const;
  };

  uint32_t Find(uint64_t key) const;
  // The state for `key`, created over `candidates` minus `excluded` when
  // the table does not hold it yet.
  State& FindOrAdd(uint64_t key, std::span<const graph::NodeId> candidates,
                   graph::NodeId excluded);
  uint32_t Home(uint64_t key) const {
    return static_cast<uint32_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void Grow();
  // Room for exactly `n` candidates in the pool.
  graph::NodeId* Carve(uint32_t n);

  std::vector<Slot> index_;  // empty until the first state
  uint32_t shift_ = 64;      // 64 - log2(index_.size())
  std::vector<State> states_;
  std::vector<std::unique_ptr<graph::NodeId[], RecycleChunk>> chunks_;
  std::vector<std::unique_ptr<graph::NodeId[]>> blocks_;  // oversized lists
  graph::NodeId* chunk_ = nullptr;  // current chunk
  uint32_t chunk_used_ = kChunkNodes;
  uint64_t pool_bytes_ = 0;
};

}  // namespace histwalk::core

#endif  // HISTWALK_CORE_CIRCULATION_H_
