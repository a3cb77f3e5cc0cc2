#ifndef HISTWALK_UTIL_THREAD_STRIPE_H_
#define HISTWALK_UTIL_THREAD_STRIPE_H_

#include <atomic>
#include <cstddef>

// The calling thread's stripe: the one index every per-thread-striped
// structure in the stack agrees on (the registry's counters and
// histograms, the profiler's cells, StripedRwLock's reader stripes).
//
// Threads are numbered in the order they first ask, and a thread's stripe
// is its number modulo `stripes`: threads that start together (a step
// pool's steppers, a benchmark's workers) get distinct stripes, and any
// that share one stay correct, since every striped cell is an atomic.
// After the first call this is a thread-local load and a modulo (a mask
// for the power-of-two counts the callers use), inlined at every call.

namespace histwalk::util {

inline size_t ThreadStripe(size_t stripes) {
  static std::atomic<size_t> next{0};
  thread_local const size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal % stripes;
}

}  // namespace histwalk::util

#endif  // HISTWALK_UTIL_THREAD_STRIPE_H_
