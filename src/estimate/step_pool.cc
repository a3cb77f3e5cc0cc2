#include "estimate/step_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"

namespace histwalk::estimate {

namespace {

// An idle stepper re-scans the active runs' resolvers at least this often.
// Steppers alone never need it — whoever finishes a batch carries the next
// one — but a blocking FetchShared caller on the same resolver may finish
// a batch and return while another stays queued behind the depth bound.
constexpr auto kIdleRescan = std::chrono::milliseconds(5);

// The stepper running on this thread, if any: its pool (null on every
// other thread) and its run-next slot. Only this thread reads or writes it.
struct StepperSlot {
  const StepPool* pool = nullptr;
  StepPool::Task* run_next = nullptr;
};
thread_local StepperSlot tls_stepper;

}  // namespace

void StepPool::Task::Resume() {
  // The exchange publishes the landed outcome to whichever stepper runs
  // the task next. If the park has not committed yet, the parking stepper
  // is still unwinding the step: it sees kWoken at its commit and re-runs
  // the task itself.
  if (park_.exchange(kWoken, std::memory_order_acq_rel) == kParked) {
    pool_->Wake(this);
  }
}

void StepPool::Wake(Task* task) {
  StepperSlot& self = tls_stepper;
  if (self.pool == this && self.run_next == nullptr) {
    // This stepper runs it next, once its current task or batch returns.
    self.run_next = task;
    return;
  }
  Push(task);
}

StepPool::StepPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this] { StepperLoop(); });
  }
}

StepPool::~StepPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    HW_CHECK(runs_.empty());
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void StepPool::Run(std::span<Task* const> tasks,
                   access::AsyncFetcher* resolver) {
  if (tasks.empty()) return;
  ActiveRun run{resolver, tasks.size(), 0};
  std::unique_lock<std::mutex> lock(mu_);
  for (Task* task : tasks) {
    task->pool_ = this;
    task->run_ = &run;
    ready_.push_back(task);
  }
  runs_.push_back(&run);
  work_cv_.notify_all();
  done_cv_.wait(lock,
                [&run] { return run.remaining == 0 && run.draining == 0; });
  runs_.remove(&run);
}

void StepPool::Push(Task* task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(task);
  }
  work_cv_.notify_one();
}

void StepPool::RunTask(Task* task) {
  while (task != nullptr) {
    task->park_.store(Task::kRunning, std::memory_order_relaxed);
    if (task->Run()) {
      ActiveRun* run = task->run_;
      std::lock_guard<std::mutex> lock(mu_);
      if (--run->remaining == 0 && run->draining == 0) done_cv_.notify_all();
    } else {
      uint32_t expected = Task::kRunning;
      if (!task->park_.compare_exchange_strong(expected, Task::kParked,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        // The fetch landed before the park committed: re-run the step now.
        continue;
      }
      // Committed. The parked step may have queued a batch: wake a
      // sleeping stepper to carry it.
      parks_.fetch_add(1);
      if (sleeping_.load() > 0) {
        { std::lock_guard<std::mutex> lock(mu_); }
        work_cv_.notify_one();
      }
    }
    // Whatever this task's run woke onto this stepper goes next.
    task = std::exchange(tls_stepper.run_next, nullptr);
  }
}

bool StepPool::DrainOne(std::unique_lock<std::mutex>& lock) {
  for (size_t probes = runs_.size(); probes > 0 && !runs_.empty(); --probes) {
    // Rotate, so idle steppers spread over the runs' resolvers.
    ActiveRun* run = runs_.front();
    runs_.splice(runs_.end(), runs_, runs_.begin());
    if (run->remaining == 0 || run->resolver == nullptr) continue;
    ++run->draining;
    lock.unlock();
    const bool ran = run->resolver->RunQueuedBatch();
    // The first walker the batch answered, if any, runs before mu_ is
    // retaken. It is not done, so its own run stays active meanwhile.
    RunTask(std::exchange(tls_stepper.run_next, nullptr));
    lock.lock();
    if (--run->draining == 0 && run->remaining == 0) done_cv_.notify_all();
    if (ran) return true;
  }
  return false;
}

void StepPool::StepperLoop() {
  tls_stepper.pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!ready_.empty()) {
      Task* task = ready_.front();
      ready_.pop_front();
      lock.unlock();
      RunTask(task);
      lock.lock();
      continue;
    }
    if (stopping_) return;
    // No ready walker: carry a queued fetch batch instead.
    const uint64_t parks = parks_.load();
    if (DrainOne(lock) || !ready_.empty()) continue;
    // Sleep unless a task parked since the scan began (its batch may be
    // runnable); a parker that sees a sleeper takes mu_ before notifying,
    // so the wakeup cannot fall between this check and the wait.
    sleeping_.fetch_add(1);
    if (parks_.load() == parks && !stopping_) {
      if (runs_.empty()) {
        work_cv_.wait(lock);
      } else {
        work_cv_.wait_for(lock, kIdleRescan);
      }
    }
    sleeping_.fetch_sub(1);
  }
}

}  // namespace histwalk::estimate
