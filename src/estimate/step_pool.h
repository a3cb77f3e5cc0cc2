#ifndef HISTWALK_ESTIMATE_STEP_POOL_H_
#define HISTWALK_ESTIMATE_STEP_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "access/async_fetcher.h"

// The step scheduler: a fixed pool of stepper threads that multiplexes the
// walkers of every run given to it (the speed-up lives in overlapping
// fetches, not in waiting on them).
//
// A walker is a resumable Task. A stepper pops a ready task and runs it
// until it finishes or PARKS: its step's neighbor query missed, and the
// resolver could not answer at once (access::AsyncFetcher::FetchOrPark).
// The step unwinds with nothing changed, the stepper moves on, and the
// thread that later completes the fetch hands the task its outcome
// (FetchWaiter::OnFetched) and puts it back on the ready queue (Resume).
// A stepper with no ready task carries a queued fetch batch of one of the
// active runs' resolvers itself (RunQueuedBatch), so the resolvers need no
// threads of their own.
//
// Parking is two-phase, because the fetch may land on another thread while
// the parking stepper is still unwinding the step: the park is committed
// only after the unwind, and a task whose fetch landed first is re-run at
// once by the stepper that parked it instead of being requeued — a task
// never runs on two steppers at once.
//
// Run-next: each stepper has a one-task slot, held in a thread-local. A
// Resume that runs on a stepper of the task's own pool (the stepper is
// carrying the batch that answered the task, or running a task that
// resolved a fetch in place) puts the task in that stepper's slot, and the
// stepper runs it as soon as its current task or batch returns — before it
// takes mu_ again. The woken walker skips the ready queue, its mutex and a
// wakeup of a sleeping stepper. Every other Resume uses Push: one from a
// stepper of another pool, one from a thread outside the pool (a blocking
// caller, a test), and one that finds the slot already full (a batch that
// answers eight walkers keeps the first and pushes seven).
//
// Lifetime: Run() returns only once every task finished AND no stepper is
// still inside its resolver's RunQueuedBatch, so a run may destroy its
// per-run resolver right after. Several runs may share one pool
// concurrently (a service's sessions do).

namespace histwalk::estimate {

class StepPool {
  struct ActiveRun;

 public:
  // A resumable unit of work — in practice one walker of one run.
  class Task : public access::FetchWaiter {
   public:
    virtual ~Task() = default;

    // Runs until the task is done (true) or parked on a fetch (false). A
    // task that returns false must, once the fetch completes, have Resume()
    // called exactly once (from its OnFetched, after storing the outcome).
    virtual bool Run() = 0;

   protected:
    // Hands this parked task back to its pool: into the calling stepper's
    // run-next slot when the caller is a stepper of the task's own pool
    // with an empty slot, else onto the ready queue. Thread-safe;
    // typically called on the thread that completed the fetch.
    void Resume();

   private:
    friend class StepPool;
    enum ParkState : uint32_t { kRunning, kParked, kWoken };
    StepPool* pool_ = nullptr;
    ActiveRun* run_ = nullptr;
    std::atomic<uint32_t> park_{kRunning};
  };

  // Starts `num_threads` steppers (0 = hardware concurrency, at least 1).
  explicit StepPool(unsigned num_threads);
  // Joins the steppers. No Run() may be in progress.
  ~StepPool();

  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  // Runs every task to completion on the steppers, which also drain
  // `resolver`'s queued batches while the tasks are parked (null: the
  // tasks park on nothing that needs draining); blocks the calling thread
  // until then. Thread-safe.
  void Run(std::span<Task* const> tasks, access::AsyncFetcher* resolver);

  unsigned num_threads() const {
    return static_cast<unsigned>(threads_.size());
  }

 private:
  // One Run() call in progress: its resolver and what still holds it.
  struct ActiveRun {
    access::AsyncFetcher* resolver = nullptr;
    size_t remaining = 0;  // tasks not done yet
    uint32_t draining = 0;  // steppers inside resolver->RunQueuedBatch
  };

  void StepperLoop();
  // Runs `task` until it finishes or its park commits, then every task
  // that lands in this stepper's run-next slot meanwhile.
  void RunTask(Task* task);
  // Resume's hand-off of a woken task (see "Run-next" above).
  void Wake(Task* task);
  void Push(Task* task);
  // Tries one queued batch of each active run's resolver in turn. Requires
  // mu_ (released around the batch); true when a batch ran.
  bool DrainOne(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // steppers: a task is ready, or stop
  std::condition_variable done_cv_;  // Run(): a run's last hold ended
  std::deque<Task*> ready_;
  std::list<ActiveRun*> runs_;  // active Run() calls, drained round-robin
  bool stopping_ = false;
  // Park commits so far, and steppers asleep: a parking task may have
  // queued a batch, so it wakes a sleeper (Dekker-style pair, no lock on
  // the park path unless someone sleeps).
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint32_t> sleeping_{0};
  std::vector<std::thread> threads_;  // last member: joined first
};

}  // namespace histwalk::estimate

#endif  // HISTWALK_ESTIMATE_STEP_POOL_H_
