#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
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
    std::deque<access::FetchWaiter*> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return false;
      if (deliver_all_) {
        batch.swap(queue_);
      } else {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    batches_.fetch_add(1);
    for (access::FetchWaiter* waiter : batch) {
      waiter->OnFetched(util::Status::Internal("fake reply"));
    }
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
  // Each batch answers every queued waiter, not only the oldest.
  void set_deliver_all(bool all) { deliver_all_ = all; }
  size_t queued() {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  uint64_t batches() const { return batches_.load(); }
  uint64_t lingered() const { return lingered_.load(); }

 private:
  std::mutex mu_;
  std::deque<access::FetchWaiter*> queue_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> lingered_{0};
  bool linger_after_delivery_ = false;
  bool deliver_all_ = false;
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

// Parks once on `resolver`, then finishes; records the threads it ran on.
class ThreadRecordingTask final : public StepPool::Task {
 public:
  explicit ThreadRecordingTask(AsyncFetcher* resolver) : resolver_(resolver) {}

  bool Run() override {
    const std::thread::id self = std::this_thread::get_id();
    if (runs_.load() == 0) first_thread_ = self;
    last_thread_.store(self);
    runs_.fetch_add(1);
    return landed_ || resolver_->FetchOrPark(0, this).has_value();
  }
  void OnFetched(util::Result<AsyncFetcher::Fetched>) override {
    landed_ = true;
    Resume();
  }

  uint32_t runs() const { return runs_.load(); }
  std::thread::id last_thread() const { return last_thread_.load(); }
  // Read once the task's Run() call returned.
  std::thread::id first_thread() const { return first_thread_; }

 private:
  AsyncFetcher* resolver_;
  bool landed_ = false;
  std::thread::id first_thread_;
  std::atomic<std::thread::id> last_thread_{};
  std::atomic<uint32_t> runs_{0};
};

// Runs `work` once, on whichever stepper picks it up.
class CallbackTask final : public StepPool::Task {
 public:
  explicit CallbackTask(std::function<void()> work) : work_(std::move(work)) {}
  bool Run() override {
    thread_ = std::this_thread::get_id();
    work_();
    return true;
  }
  void OnFetched(util::Result<AsyncFetcher::Fetched>) override {}
  std::thread::id thread() const { return thread_; }

 private:
  std::function<void()> work_;
  std::thread::id thread_;
};

TEST(StepPoolTest, ResumeOnAnotherPoolsStepperRunsOnTheTasksOwnPool) {
  // A stepper of pool B carries the batch that answers a task of pool A.
  // The woken task must go back to A (B's run-next slot is for B's own
  // tasks): it runs on A's one stepper, and A's Run returns.
  FakeResolver resolver;
  StepPool pool_a(1);
  StepPool pool_b(1);
  ThreadRecordingTask parked(&resolver);
  StepPool::Task* const a_tasks[] = {&parked};
  // No resolver for A's run: A's idle stepper must not carry the batch.
  std::thread run_a([&] { pool_a.Run(a_tasks, nullptr); });
  CallbackTask carrier([&] {
    while (resolver.queued() == 0) std::this_thread::yield();
    // Let A's stepper commit the park, so the batch's Resume is the one
    // that hands the task back.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(resolver.RunQueuedBatch());
  });
  StepPool::Task* const b_tasks[] = {&carrier};
  pool_b.Run(b_tasks, nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (parked.runs() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  // A task run on B's stepper would finish without A's Run noticing, and
  // joining run_a would hang: fail first.
  ASSERT_EQ(parked.runs(), 2u);
  ASSERT_NE(parked.last_thread(), carrier.thread());
  run_a.join();
  EXPECT_EQ(parked.last_thread(), parked.first_thread());  // A's stepper
}

TEST(StepPoolTest, RunNextTaskThatParksAgainIsNeverStranded) {
  // One stepper, many walkers, and every step parks: each batch answers
  // every parked walker, so the first lands in the stepper's run-next
  // slot and the rest on the ready queue. The run-next walker parks
  // again at once; it must still be carried by a later batch, and Run
  // must return with every walker done.
  FakeResolver resolver;
  resolver.set_deliver_all(true);
  StepPool pool(1);
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(std::make_unique<CountingTask>(50, &resolver));
  }
  pool.Run(Pointers(tasks), &resolver);
  for (const auto& task : tasks) {
    EXPECT_EQ(task->taken(), 50u);
    EXPECT_EQ(task->runs(), 51u);  // one run per park, plus the first
    EXPECT_FALSE(task->overlapped());
  }
  EXPECT_EQ(resolver.queued(), 0u);
}

}  // namespace
}  // namespace histwalk::estimate
