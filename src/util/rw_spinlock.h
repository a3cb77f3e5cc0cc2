#ifndef HISTWALK_UTIL_RW_SPINLOCK_H_
#define HISTWALK_UTIL_RW_SPINLOCK_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "util/thread_stripe.h"

// Two shared/exclusive spinlocks for tiny critical sections.
//
// std::shared_mutex goes through pthread_rwlock: two uninlinable calls and
// a handful of atomics per acquisition — ~30ns of overhead bracketing a
// cache-shard critical section that itself runs in single-digit
// nanoseconds. Both locks here carry acquire/release entirely on their
// atomics, so ThreadSanitizer reasons about them natively (no
// annotations needed).
//
//  * RwSpinLock is one word: readers fetch_add a count, the writer claims
//    a high bit and drains readers. Every reader writes the same line, so
//    it suits locks whose readers are few or rare (the registry's
//    per-stripe histogram cells, the progress tracker's slots).
//  * StripedRwLock gives each thread stripe (util/thread_stripe.h) its
//    own cache-line reader count, so a reader writes only its own
//    thread's line and concurrent readers scale with cores; the writer
//    raises a flag and waits for every stripe to drain, paying one read
//    per stripe. It suits read-mostly locks on the hottest path (the
//    history cache's shards).
//
// Design limits, deliberately accepted for the cache workload:
//  * contenders spin, so hold times must stay tiny (no I/O, no allocation
//    beyond the cache's own insert path) — each spin loop yields to the
//    scheduler, so even a single-core machine makes progress when a lock
//    holder is preempted;
//  * writer-preference: an arriving writer blocks new readers, so a steady
//    reader stream cannot starve eviction;
//  * not recursive, no lock-free upgrade path (a shared holder must release
//    before taking exclusive).
//
// Both satisfy BasicLockable and the shared half of SharedLockable:
// std::shared_lock / std::unique_lock / std::lock_guard work as drop-ins
// for the shared_mutex equivalents.
//
// Contention telemetry: attach_counters() points the lock at an external
// RwSpinLockCounters struct (off by default — a detached lock pays one
// relaxed pointer load and a predicted branch per acquisition, and
// HISTWALK_DISABLE_PROFILING compiles even that out). Attach during
// single-threaded wiring, before the lock is contended; the counters must
// outlive the lock's last acquisition. "Contended" means the acquisition
// observed a holder it had to wait out at least once, so
// contended/acquires is a direct contention ratio.

namespace histwalk::util {

// Telemetry sink for one (or a group of) locks. All fields are relaxed
// monotone counters; cross-field consistency holds at quiescence, same
// contract as the cache stats structs.
struct RwSpinLockCounters {
  std::atomic<uint64_t> shared_acquires{0};
  std::atomic<uint64_t> shared_contended{0};
  std::atomic<uint64_t> exclusive_acquires{0};
  std::atomic<uint64_t> exclusive_contended{0};
};

namespace internal {

inline void NoteAcquire(RwSpinLockCounters* counters, bool exclusive,
                        bool contended) {
  if (counters == nullptr) return;
  if (exclusive) {
    counters->exclusive_acquires.fetch_add(1, std::memory_order_relaxed);
    if (contended) {
      counters->exclusive_contended.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    counters->shared_acquires.fetch_add(1, std::memory_order_relaxed);
    if (contended) {
      counters->shared_contended.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

template <typename Pred>
void SpinUntil(Pred&& ready) {
  constexpr int kSpinsBeforeYield = 64;
  for (int spins = 0; !ready(); ++spins) {
    if (spins >= kSpinsBeforeYield) {
      // Cede the core: on few-core machines the thread we are waiting
      // for may not even be running.
      std::this_thread::yield();
    }
  }
}

}  // namespace internal

class RwSpinLock {
 public:
  RwSpinLock() = default;
  RwSpinLock(const RwSpinLock&) = delete;
  RwSpinLock& operator=(const RwSpinLock&) = delete;

  // Wiring-time only: must be called before the lock is shared between
  // threads (the plain store is not synchronized against concurrent
  // acquisitions). Pass nullptr to detach.
  void attach_counters(RwSpinLockCounters* counters) {
#ifndef HISTWALK_DISABLE_PROFILING
    counters_ = counters;
#else
    (void)counters;
#endif
  }

  void lock_shared() {
    bool contended = false;
    for (;;) {
      // Optimistic: count in, then check no writer claimed the bit. The
      // RMW makes this an acquire on the writer's release chain.
      uint32_t state = state_.fetch_add(1, std::memory_order_acquire);
      if ((state & kWriter) == 0) break;
      // A writer holds or awaits the lock: step back out and wait, so the
      // writer's reader-drain loop can terminate.
      contended = true;
      state_.fetch_sub(1, std::memory_order_relaxed);
      internal::SpinUntil([&] {
        return (state_.load(std::memory_order_relaxed) & kWriter) == 0;
      });
    }
    NoteAcquire(/*exclusive=*/false, contended);
  }

  void unlock_shared() { state_.fetch_sub(1, std::memory_order_release); }

  void lock() {
    bool contended = false;
    // Phase 1: claim the writer bit (one writer at a time; arriving
    // readers now bounce).
    for (;;) {
      uint32_t state = state_.load(std::memory_order_relaxed);
      if ((state & kWriter) == 0 &&
          state_.compare_exchange_weak(state, state | kWriter,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        break;
      }
      contended = true;
      internal::SpinUntil([&] {
        return (state_.load(std::memory_order_relaxed) & kWriter) == 0;
      });
    }
    // Phase 2: drain readers that were already counted in.
    if ((state_.load(std::memory_order_acquire) & kReaderMask) != 0) {
      contended = true;
      internal::SpinUntil([&] {
        return (state_.load(std::memory_order_acquire) & kReaderMask) == 0;
      });
    }
    NoteAcquire(/*exclusive=*/true, contended);
  }

  void unlock() { state_.fetch_and(~kWriter, std::memory_order_release); }

  // try_lock completes the Lockable requirements of std::unique_lock.
  bool try_lock() {
    uint32_t expected = 0;
    if (state_.compare_exchange_strong(expected, kWriter,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      NoteAcquire(/*exclusive=*/true, /*contended=*/false);
      return true;
    }
    return false;
  }

 private:
  static constexpr uint32_t kWriter = 1u << 31;
  static constexpr uint32_t kReaderMask = kWriter - 1;

  void NoteAcquire(bool exclusive, bool contended) {
#ifndef HISTWALK_DISABLE_PROFILING
    internal::NoteAcquire(counters_, exclusive, contended);
#else
    (void)exclusive;
    (void)contended;
#endif
  }

  std::atomic<uint32_t> state_{0};
#ifndef HISTWALK_DISABLE_PROFILING
  RwSpinLockCounters* counters_ = nullptr;
#endif
};

// A reader lock whose readers count themselves into their own thread's
// cache-line-aligned stripe. `Local` is per-stripe state the lock's owner
// keeps beside the reader count, on the same line: a reader that counts
// its own hits there (the history cache's hit and miss tallies) still
// writes no line but its stripe. Local must be default-constructible and
// safe to update from every thread that shares the stripe (atomics).
//
// Ordering: a reader's count-in and a writer's flag are both seq_cst, and
// each then reads the other's word (the reader the flag, the writer every
// stripe), so at least one of them sees the other: either the reader
// backs out, or the writer waits for it. Unlock is a release on the same
// word the other side's acquire reads.
template <typename Local>
class StripedRwLock {
 public:
  // Matches the registry's counter stripes; threads beyond it share.
  static constexpr size_t kStripes = 8;

  struct alignas(64) Stripe {
    std::atomic<uint32_t> readers{0};
    Local local;
  };

  StripedRwLock() = default;
  StripedRwLock(const StripedRwLock&) = delete;
  StripedRwLock& operator=(const StripedRwLock&) = delete;

  // Same contract as RwSpinLock::attach_counters.
  void attach_counters(RwSpinLockCounters* counters) {
#ifndef HISTWALK_DISABLE_PROFILING
    counters_ = counters;
#else
    (void)counters;
#endif
  }

  // The calling thread's stripe's Local.
  Local& local() { return stripes_[ThreadStripe(kStripes)].local; }
  // Every stripe, for summing the Locals.
  const std::array<Stripe, kStripes>& stripes() const { return stripes_; }

  void lock_shared() {
    std::atomic<uint32_t>& readers = stripes_[ThreadStripe(kStripes)].readers;
    bool contended = false;
    for (;;) {
      readers.fetch_add(1, std::memory_order_seq_cst);
      if (writer_.load(std::memory_order_seq_cst) == 0) break;
      // A writer holds or awaits the lock: step back out so its drain
      // can finish, and wait for it.
      contended = true;
      readers.fetch_sub(1, std::memory_order_release);
      internal::SpinUntil(
          [&] { return writer_.load(std::memory_order_relaxed) == 0; });
    }
    NoteAcquire(/*exclusive=*/false, contended);
  }

  void unlock_shared() {
    stripes_[ThreadStripe(kStripes)].readers.fetch_sub(
        1, std::memory_order_release);
  }

  void lock() {
    bool contended = false;
    // Phase 1: raise the flag (one writer at a time; arriving readers now
    // back out).
    for (;;) {
      uint32_t expected = 0;
      if (writer_.load(std::memory_order_relaxed) == 0 &&
          writer_.compare_exchange_weak(expected, 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        break;
      }
      contended = true;
      internal::SpinUntil(
          [&] { return writer_.load(std::memory_order_relaxed) == 0; });
    }
    // Phase 2: wait for every stripe to drain.
    for (Stripe& stripe : stripes_) {
      if (stripe.readers.load(std::memory_order_seq_cst) != 0) {
        contended = true;
        internal::SpinUntil([&] {
          return stripe.readers.load(std::memory_order_acquire) == 0;
        });
      }
    }
    NoteAcquire(/*exclusive=*/true, contended);
  }

  void unlock() { writer_.store(0, std::memory_order_release); }

 private:
  void NoteAcquire(bool exclusive, bool contended) {
#ifndef HISTWALK_DISABLE_PROFILING
    internal::NoteAcquire(counters_, exclusive, contended);
#else
    (void)exclusive;
    (void)contended;
#endif
  }

  // Read by every reader on every acquisition and written only by
  // writers: its own line, apart from the stripes.
  alignas(64) std::atomic<uint32_t> writer_{0};
#ifndef HISTWALK_DISABLE_PROFILING
  RwSpinLockCounters* counters_ = nullptr;
#endif
  std::array<Stripe, kStripes> stripes_{};
};

}  // namespace histwalk::util

#endif  // HISTWALK_UTIL_RW_SPINLOCK_H_
