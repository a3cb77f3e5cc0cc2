#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "access/async_fetcher.h"
#include "estimate/step_pool.h"

// The step scheduler on its own, with fake tasks and a fake resolver: every
// task runs to completion, a parked task resumes on the delivering thread's
// wakeup, a task is never on two steppers at once (the two-phase park), idle
// steppers drain the resolver, and Run() outlives every stepper still
// inside the resolver.

namespace histwalk::estimate {
namespace {

using access::AsyncFetcher;

// A resolver whose queue holds parked tasks; RunQueuedBatch "fetches" for
// the oldest one and delivers to it on the calling thread.
class FakeResolver final : public AsyncFetcher {
 public:
  util::Result<Fetched> FetchShared(graph::NodeId) override {
    return util::Status::Internal("unused");
  }
  std::optional<util::Result<Fetched>> FetchOrPark(
      graph::NodeId, access::FetchWaiter* waiter) override {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(waiter);
    return std::nullopt;
  }
  bool RunQueuedBatch() override {
    access::FetchWaiter* waiter = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return false;
      waiter = queue_.front();
      queue_.pop_front();
    }
    batches_.fetch_add(1);
    waiter->OnFetched(util::Status::Internal("fake reply"));
    if (linger_after_delivery_) {
      // The woken task may finish the whole run while this thread is
      // still "inside the batch".
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      lingered_.fetch_add(1);
    }
    return true;
  }

  void set_linger_after_delivery(bool linger) {
    linger_after_delivery_ = linger;
  }
  uint64_t batches() const { return batches_.load(); }
  uint64_t lingered() const { return lingered_.load(); }

 private:
  std::mutex mu_;
  std::deque<access::FetchWaiter*> queue_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> lingered_{0};
  bool linger_after_delivery_ = false;
};

// Takes `steps` steps; each step parks once on `resolver` (when set) and
// completes on the retry. Flags any overlap of two Run() calls.
class CountingTask final : public StepPool::Task {
 public:
  CountingTask(uint32_t steps, AsyncFetcher* resolver)
      : steps_(steps), resolver_(resolver) {}

  bool Run() override {
    if (running_.exchange(true)) overlapped_.store(true);
    ++runs_;
    bool done = true;
    while (taken_ < steps_) {
      if (resolver_ != nullptr && !landed_) {
        auto now = resolver_->FetchOrPark(taken_, this);
        if (!now.has_value()) {
          done = false;
          break;
        }
      }
      landed_ = false;
      ++taken_;
    }
    running_.store(false);
    return done;
  }

  void OnFetched(util::Result<AsyncFetcher::Fetched>) override {
    landed_ = true;
    Resume();
  }

  uint32_t taken() const { return taken_; }
  uint32_t runs() const { return runs_; }
  bool overlapped() const { return overlapped_.load(); }

 private:
  const uint32_t steps_;
  AsyncFetcher* resolver_;
  uint32_t taken_ = 0;
  uint32_t runs_ = 0;
  bool landed_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> overlapped_{false};
};

std::vector<StepPool::Task*> Pointers(
    std::vector<std::unique_ptr<CountingTask>>& tasks) {
  std::vector<StepPool::Task*> out;
  for (auto& task : tasks) out.push_back(task.get());
  return out;
}

TEST(StepPoolTest, RunsEveryTaskToCompletion) {
  StepPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(100, nullptr));
  }
  pool.Run(Pointers(tasks), nullptr);
  for (const auto& task : tasks) {
    EXPECT_EQ(task->taken(), 100u);
    EXPECT_EQ(task->runs(), 1u);  // never parked
  }
}

TEST(StepPoolTest, IdleSteppersDrainTheResolverForParkedTasks) {
  // Every step parks and only RunQueuedBatch can wake it: with no thread
  // of its own behind the resolver, the run finishes only if idle
  // steppers carry the queued work.
  FakeResolver resolver;
  for (unsigned threads : {1u, 3u}) {
    StepPool pool(threads);
    std::vector<std::unique_ptr<CountingTask>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back(std::make_unique<CountingTask>(40, &resolver));
    }
    pool.Run(Pointers(tasks), &resolver);
    for (const auto& task : tasks) {
      EXPECT_EQ(task->taken(), 40u);
      EXPECT_FALSE(task->overlapped());
    }
  }
  EXPECT_EQ(resolver.batches(), 2u * 16u * 40u);
}

// The hand-off race: the fetch lands (and Resume runs) on another thread
// while the parking stepper is still unwinding the step. The task must be
// re-run by that stepper, not also requeued.
class EarlyWakeTask final : public StepPool::Task {
 public:
  bool Run() override {
    if (running_.exchange(true)) overlapped_.store(true);
    ++runs_;
    bool done = true;
    if (runs_ <= kParks) {
      // Deliver from another thread and wait until Resume returned —
      // before this Run() returns false.
      std::thread waker([this] { OnFetched(util::Status::Internal("x")); });
      waker.join();
      done = false;
    }
    running_.store(false);
    return done;
  }
  void OnFetched(util::Result<AsyncFetcher::Fetched>) override { Resume(); }

  static constexpr uint32_t kParks = 5;
  uint32_t runs() const { return runs_; }
  bool overlapped() const { return overlapped_.load(); }

 private:
  uint32_t runs_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> overlapped_{false};
};

TEST(StepPoolTest, FetchLandingBeforeTheParkCommitsReRunsInPlace) {
  StepPool pool(4);
  std::vector<std::unique_ptr<EarlyWakeTask>> tasks;
  std::vector<StepPool::Task*> pointers;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(std::make_unique<EarlyWakeTask>());
    pointers.push_back(tasks.back().get());
  }
  pool.Run(pointers, nullptr);
  for (const auto& task : tasks) {
    EXPECT_EQ(task->runs(), EarlyWakeTask::kParks + 1);
    EXPECT_FALSE(task->overlapped());
  }
}

TEST(StepPoolTest, DeliveriesFromForeignThreadsNeverOverlapARun) {
  // Stress the two-phase park: an outside thread delivers parked tasks'
  // fetches at arbitrary moments, racing the steppers' commits.
  FakeResolver resolver;
  StepPool pool(4);
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(200, &resolver));
  }
  std::atomic<bool> done{false};
  std::thread outsider([&] {
    while (!done.load()) {
      if (!resolver.RunQueuedBatch()) std::this_thread::yield();
    }
  });
  pool.Run(Pointers(tasks), &resolver);
  done.store(true);
  outsider.join();
  for (const auto& task : tasks) {
    EXPECT_EQ(task->taken(), 200u);
    EXPECT_FALSE(task->overlapped());
  }
}

TEST(StepPoolTest, RunWaitsForSteppersStillInsideTheResolver) {
  // The stepper that delivers the last wakeup lingers inside the batch;
  // Run() must not return (letting the caller destroy a per-run resolver)
  // until that stepper is out.
  StepPool pool(2);
  for (int round = 0; round < 5; ++round) {
    auto resolver = std::make_unique<FakeResolver>();
    resolver->set_linger_after_delivery(true);
    std::vector<std::unique_ptr<CountingTask>> tasks;
    tasks.push_back(std::make_unique<CountingTask>(1, resolver.get()));
    pool.Run(Pointers(tasks), resolver.get());
    EXPECT_EQ(tasks[0]->taken(), 1u);
    EXPECT_EQ(resolver->lingered(), resolver->batches());
    resolver.reset();  // what a per-run pipeline's owner does next
  }
}

TEST(StepPoolTest, ConcurrentRunsShareOnePool) {
  StepPool pool(3);
  constexpr int kRuns = 6;
  std::vector<std::unique_ptr<FakeResolver>> resolvers;
  std::vector<std::vector<std::unique_ptr<CountingTask>>> tasks(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    resolvers.push_back(std::make_unique<FakeResolver>());
    for (int i = 0; i < 8; ++i) {
      tasks[r].push_back(
          std::make_unique<CountingTask>(30, resolvers.back().get()));
    }
  }
  std::vector<std::thread> callers;
  for (int r = 0; r < kRuns; ++r) {
    callers.emplace_back(
        [&, r] { pool.Run(Pointers(tasks[r]), resolvers[r].get()); });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& run : tasks) {
    for (const auto& task : run) {
      EXPECT_EQ(task->taken(), 30u);
      EXPECT_FALSE(task->overlapped());
    }
  }
}

}  // namespace
}  // namespace histwalk::estimate
