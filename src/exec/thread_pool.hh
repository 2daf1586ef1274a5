/**
 * @file
 * A fixed-size worker pool over one bounded FIFO work queue.
 *
 * The pool serves open-ended producers (the query service's batch
 * fan-out) where tasks arrive over time, so a single shared queue
 * keeps the implementation small and the scheduling easy to reason
 * about. Known index ranges go through the chunked exec::parallelFor
 * instead (parallel_for.hh). Producers block when the queue is full (bounded
 * memory even for huge sweeps) — queueHighWater()/blockedProducers()
 * plus an "exec.submit.blocked" trace instant make that backpressure
 * observable — workers drain the queue to completion on shutdown,
 * and the first exception that escapes a task is captured and
 * rethrown from drain().
 */

#ifndef TWOCS_EXEC_THREAD_POOL_HH
#define TWOCS_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace twocs::exec {

/** std::jthread workers feeding from one bounded task queue. */
class ThreadPool
{
  public:
    static constexpr std::size_t kDefaultQueueCapacity = 256;

    /**
     * Start `num_threads` workers (<= 0 selects defaultThreads())
     * feeding from a queue bounded at `queue_capacity` pending tasks.
     */
    explicit ThreadPool(int num_threads = 0,
                        std::size_t queue_capacity =
                            kDefaultQueueCapacity);

    /** Finishes every already-submitted task, then joins. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /**
     * Enqueue one task; blocks the caller while the queue is at
     * capacity. Tasks run in FIFO dispatch order but may complete in
     * any order across workers.
     */
    void submit(std::function<void()> task);

    /**
     * Deepest the queue has ever been (backpressure visibility:
     * a high-water mark at capacity means producers were blocking).
     */
    std::size_t queueHighWater() const;

    /** submit() calls that found the queue full and had to wait. */
    std::uint64_t blockedProducers() const;

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception that escaped a task (if any).
     */
    void drain();

    /** hardware_concurrency() with a floor of one thread. */
    static int defaultThreads();

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable spaceReady_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_;
    std::size_t capacity_;
    std::size_t highWater_ = 0;
    std::uint64_t blockedProducers_ = 0;
    int running_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
    /** Last member so workers join before any state above dies. */
    std::vector<std::jthread> workers_;
};

} // namespace twocs::exec

#endif // TWOCS_EXEC_THREAD_POOL_HH
