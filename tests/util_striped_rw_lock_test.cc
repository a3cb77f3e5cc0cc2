#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "util/rw_spinlock.h"
#include "util/thread_stripe.h"

// util::StripedRwLock (per-thread reader stripes, the history cache's shard
// lock) and util::ThreadStripe, the stripe index it shares with the
// registry and the profiler.

namespace histwalk::util {
namespace {

struct Tally {
  std::atomic<uint64_t> reads{0};
};
using Lock = StripedRwLock<Tally>;

uint64_t SumReads(const Lock& lock) {
  uint64_t total = 0;
  for (const Lock::Stripe& stripe : lock.stripes()) {
    total += stripe.local.reads.load(std::memory_order_relaxed);
  }
  return total;
}

TEST(ThreadStripeTest, ThreadsStartedTogetherOwnDistinctStableStripes) {
  // Threads that first ask together take consecutive numbers, so up to
  // kStripes of them get distinct stripes; a thread asking twice gets the
  // same answer.
  constexpr size_t kThreads = Lock::kStripes;
  std::mutex mu;
  std::set<size_t> seen;
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const size_t stripe = ThreadStripe(Lock::kStripes);
      EXPECT_EQ(ThreadStripe(Lock::kStripes), stripe);
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_TRUE(seen.insert(stripe).second) << "stripe " << stripe;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(seen.size(), kThreads);
}

TEST(StripedRwLockTest, SerialAcquisitionsAreExactAndUncontended) {
  Lock lock;
  RwSpinLockCounters counters;
  lock.attach_counters(&counters);
  for (int i = 0; i < 10; ++i) {
    std::shared_lock<Lock> shared(lock);
    lock.local().reads.fetch_add(1, std::memory_order_relaxed);
  }
  for (int i = 0; i < 7; ++i) {
    std::unique_lock<Lock> exclusive(lock);
  }
  EXPECT_EQ(counters.shared_acquires.load(), 10u);
  EXPECT_EQ(counters.shared_contended.load(), 0u);
  EXPECT_EQ(counters.exclusive_acquires.load(), 7u);
  EXPECT_EQ(counters.exclusive_contended.load(), 0u);
  EXPECT_EQ(SumReads(lock), 10u);
}

// Holds the lock one way on this thread while `waiter` takes it the other
// way on a second thread, releasing only after a pause. Whether the waiter
// got to wait before the release is up to the scheduler, so the pause
// doubles over a few tries until one shows it; every try must count
// exactly one acquisition each way, and at most one contended.
template <typename Hold, typename Release, typename Waiter>
bool WaiterCountsOneContended(Hold hold, Release release, Waiter waiter,
                              RwSpinLockCounters& counters,
                              std::atomic<uint64_t>& waiter_contended) {
  for (int pause_ms = 2; pause_ms <= 512; pause_ms *= 2) {
    const uint64_t shared_before = counters.shared_acquires.load();
    const uint64_t exclusive_before = counters.exclusive_acquires.load();
    const uint64_t contended_before = waiter_contended.load();
    hold();
    std::atomic<bool> started{false};
    std::thread thread([&] {
      started.store(true);
      waiter();
    });
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
    release();
    thread.join();
    EXPECT_EQ(counters.shared_acquires.load(), shared_before + 1);
    EXPECT_EQ(counters.exclusive_acquires.load(), exclusive_before + 1);
    const uint64_t contended = waiter_contended.load() - contended_before;
    EXPECT_LE(contended, 1u);
    if (contended == 1) return true;
  }
  return false;
}

TEST(StripedRwLockTest, WriterWaitingOnAReaderStripeCountsContended) {
  Lock lock;
  RwSpinLockCounters counters;
  lock.attach_counters(&counters);
  EXPECT_TRUE(WaiterCountsOneContended(
      [&] { lock.lock_shared(); }, [&] { lock.unlock_shared(); },
      [&] {
        lock.lock();
        lock.unlock();
      },
      counters, counters.exclusive_contended));
  // The reader never waited.
  EXPECT_EQ(counters.shared_contended.load(), 0u);
}

TEST(StripedRwLockTest, ReaderWaitingOnAWriterCountsContended) {
  Lock lock;
  RwSpinLockCounters counters;
  lock.attach_counters(&counters);
  EXPECT_TRUE(WaiterCountsOneContended(
      [&] { lock.lock(); }, [&] { lock.unlock(); },
      [&] {
        lock.lock_shared();
        lock.unlock_shared();
      },
      counters, counters.shared_contended));
  EXPECT_EQ(counters.exclusive_contended.load(), 0u);
}

TEST(StripedRwLockTest, WritersExcludeReadersAndEachOther) {
  Lock lock;
  RwSpinLockCounters counters;
  lock.attach_counters(&counters);
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr uint64_t kIters = 5000;
  // Writers keep the two halves equal under the lock; a reader that ever
  // sees them differ overlapped a writer. Plain fields: TSan's witness.
  uint64_t first = 0;
  uint64_t second = 0;
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIters; ++i) {
        std::shared_lock<Lock> shared(lock);
        if (first != second) torn.fetch_add(1, std::memory_order_relaxed);
        lock.local().reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIters; ++i) {
        std::unique_lock<Lock> exclusive(lock);
        ++first;
        ++second;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(first, kWriters * kIters);
  EXPECT_EQ(SumReads(lock), kReaders * kIters);
  EXPECT_EQ(counters.shared_acquires.load(), kReaders * kIters);
  EXPECT_EQ(counters.exclusive_acquires.load(), kWriters * kIters);
  EXPECT_LE(counters.shared_contended.load(), counters.shared_acquires.load());
  EXPECT_LE(counters.exclusive_contended.load(),
            counters.exclusive_acquires.load());
}

}  // namespace
}  // namespace histwalk::util
