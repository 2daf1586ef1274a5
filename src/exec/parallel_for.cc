#include "parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hh"

namespace twocs::exec {

namespace {

/** One parallelFor() call; lives on its caller's stack. */
struct Job
{
    Job(detail::ChunkBody chunk_body, void *chunk_ctx,
        std::size_t min_chunk, int jobs, std::size_t n)
        : body(chunk_body), ctx(chunk_ctx), minChunk(min_chunk),
          divisor(4 * static_cast<std::size_t>(jobs)), end(n),
          openSlots(jobs - 1)
    {
    }

    detail::ChunkBody body;
    void *ctx;
    std::size_t minChunk;
    /** 4 * jobs: a claim takes ~1/divisor of what is left. */
    std::size_t divisor;
    /** Upper end of the unclaimed range [0, end). */
    std::atomic<std::size_t> end;
    /** Helpers that may still join; guarded by WorkerSet::mutex_. */
    int openSlots;
    /** Helpers inside work(); guarded by WorkerSet::mutex_. */
    int active = 0;
    std::mutex errorMutex;
    std::exception_ptr firstError;

    /** Claim and run chunks until the range is spent. Every claim
     *  size is a function of `end` alone, so the chunk boundaries
     *  are the same whichever thread wins each CAS. */
    void
    work()
    {
        // Claim from the highest index down: the figure grids put
        // their most expensive configs (large H) last, so starting
        // there keeps one of them from straggling at the very end.
        std::size_t hi = end.load(std::memory_order_relaxed);
        while (hi != 0) {
            const std::size_t size =
                std::min(hi, std::max(minChunk, hi / divisor));
            // Relaxed: the results a chunk writes reach the caller
            // through WorkerSet::mutex_, not through this counter.
            if (!end.compare_exchange_weak(hi, hi - size,
                                           std::memory_order_relaxed))
                continue;
            try {
                body(ctx, hi - size, hi);
            } catch (...) {
                const std::lock_guard lock(errorMutex);
                if (firstError == nullptr)
                    firstError = std::current_exception();
            }
            hi = end.load(std::memory_order_relaxed);
        }
    }
};

/** The process-wide helpers every parallelFor() call shares. */
class WorkerSet
{
  public:
    static WorkerSet &
    instance()
    {
        static WorkerSet set;
        return set;
    }

    WorkerSet(const WorkerSet &) = delete;
    WorkerSet &operator=(const WorkerSet &) = delete;

    ~WorkerSet()
    {
        {
            const std::lock_guard lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        // workers_ is the last member: the jthreads join before the
        // state they read is destroyed.
    }

    /** Run `job` on the calling thread plus up to job.openSlots
     *  workers, returning once every chunk has finished. */
    void
    run(Job &job)
    {
        const int helpers = job.openSlots;
        {
            std::unique_lock lock(mutex_);
            const auto want = static_cast<std::size_t>(helpers);
            while (workers_.size() < want) {
                const std::size_t id = workers_.size() + 1;
                workers_.emplace_back([this, id] { workerLoop(id); });
            }
            // A new worker registers its trace lane on start. Let it
            // finish now: a worker still starting at process exit
            // would race the tracer's static teardown.
            done_.wait(lock,
                       [this] { return started_ == workers_.size(); });
            jobs_.push_back(&job);
        }
        for (int h = 0; h < helpers; ++h)
            wake_.notify_one();

        job.work();

        // Close the job to new helpers, then wait out the ones still
        // inside one of its chunks.
        std::unique_lock lock(mutex_);
        jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
        done_.wait(lock, [&job] { return job.active == 0; });
    }

  private:
    WorkerSet() = default;

    /** Oldest job with a free helper slot and work left. */
    Job *
    openJob() const
    {
        for (Job *job : jobs_) {
            if (job->openSlots > 0 &&
                job->end.load(std::memory_order_relaxed) != 0)
                return job;
        }
        return nullptr;
    }

    void
    workerLoop(std::size_t id)
    {
#ifndef TWOCS_OBS_DISABLE
        // Named once, whether or not tracing is on yet: the lane
        // lives as long as the thread, i.e. the whole process.
        obs::Tracer::setThreadName("exec.worker-" + std::to_string(id));
#else
        (void)id;
#endif
        std::unique_lock lock(mutex_);
        ++started_;
        done_.notify_all();
        for (;;) {
            Job *job = nullptr;
            wake_.wait(lock, [&] {
                return stopping_ || (job = openJob()) != nullptr;
            });
            if (stopping_)
                return;
            --job->openSlots;
            ++job->active;
            lock.unlock();
            job->work();
            lock.lock();
            if (--job->active == 0)
                done_.notify_all();
        }
    }

    std::mutex mutex_;
    /** Signalled when a job opens or the set stops. */
    std::condition_variable wake_;
    /** Signalled when a worker starts or a job's last helper
     *  leaves it. */
    std::condition_variable done_;
    /** Workers that have reached their wait loop. */
    std::size_t started_ = 0;
    /** Jobs helpers may join, oldest first. */
    std::vector<Job *> jobs_;
    bool stopping_ = false;
    /** Last member so workers join before any state above dies. */
    std::vector<std::jthread> workers_;
};

} // namespace

int
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace detail {

void
parallelForImpl(std::size_t n, const ParallelForOptions &options,
                ChunkBody chunk_body, void *ctx)
{
    if (n == 0)
        return;

    const int jobs = std::max(
        1, std::min<int>(options.jobs <= 0 ? defaultJobs()
                                           : options.jobs,
                         static_cast<int>(std::min<std::size_t>(
                             n, 1u << 16))));
    const std::size_t min_chunk =
        std::clamp<std::size_t>(options.grain, 1, n);

    // One umbrella span per call on every path — including the
    // serial one — so per-label span counts are jobs-invariant. Its
    // `grain` is the first, largest chunk a claim takes.
    TWOCS_OBS_SPAN(obs::Category::Exec, "exec.parallel_for",
                   [n, min_chunk, jobs] {
                       const std::size_t first = std::max(
                           min_chunk,
                           n / (4 * static_cast<std::size_t>(jobs)));
                       return "n=" + std::to_string(n) +
                              " grain=" + std::to_string(first) +
                              " jobs=" + std::to_string(jobs);
                   });

    if (jobs == 1) {
        // Degenerate case: the serial loop, no machinery at all.
        chunk_body(ctx, 0, n);
        return;
    }

    Job job(chunk_body, ctx, min_chunk, jobs, n);
    WorkerSet::instance().run(job);

    if (job.firstError != nullptr)
        std::rethrow_exception(job.firstError);
}

} // namespace detail

} // namespace twocs::exec
