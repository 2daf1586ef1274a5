#include "parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hh"
#include "obs/obs.hh"

namespace twocs::exec {

namespace detail {

std::size_t
defaultGrain(std::size_t n, int jobs)
{
    // ~4 chunks per worker: enough slack that a worker stuck on an
    // expensive chunk leaves the rest to the others, coarse enough
    // that the shared counter is touched once per many indices.
    const std::size_t workers =
        static_cast<std::size_t>(std::max(jobs, 1));
    return std::max<std::size_t>(1, n / (4 * workers));
}

void
parallelForImpl(std::size_t n, const ParallelForOptions &options,
                ChunkBody chunk_body, void *ctx)
{
    if (n == 0)
        return;

    const int jobs = std::max(
        1, std::min<int>(options.jobs <= 0
                             ? ThreadPool::defaultThreads()
                             : options.jobs,
                         static_cast<int>(std::min<std::size_t>(
                             n, 1u << 16))));
    // A grain past n is one chunk; clamping here also keeps the
    // chunk count below from wrapping for grains near SIZE_MAX.
    const std::size_t grain = options.grain == 0
                                  ? defaultGrain(n, jobs)
                                  : std::min(options.grain, n);

    // One umbrella span per call on every path — including the
    // serial one — so per-label span counts are jobs-invariant.
    TWOCS_OBS_SPAN(obs::Category::Exec, "exec.parallel_for",
                   [n, grain, jobs] {
                       return "n=" + std::to_string(n) +
                              " grain=" + std::to_string(grain) +
                              " jobs=" + std::to_string(jobs);
                   });

    if (jobs == 1) {
        // Degenerate case: the serial loop, no machinery at all.
        chunk_body(ctx, 0, n);
        return;
    }

    // Chunk k covers [k*grain, min((k+1)*grain, n)). `unclaimed`
    // counts the chunks no worker has taken yet; a worker that
    // decrements it from k to k-1 owns chunk k-1. Signed, because
    // each worker overshoots past zero exactly once on its way out.
    std::atomic<std::int64_t> unclaimed{
        static_cast<std::int64_t>((n - 1) / grain + 1)
    };
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto work = [&] {
        // Claim from the highest index down: the figure grids put
        // their most expensive configs (large H) last, so starting
        // there keeps one of them from straggling at the very end.
        for (std::int64_t k; (k = unclaimed.fetch_sub(1)) > 0;) {
            const std::size_t begin =
                static_cast<std::size_t>(k - 1) * grain;
            try {
                chunk_body(ctx, begin, std::min(begin + grain, n));
            } catch (...) {
                const std::lock_guard lock(error_mutex);
                if (first_error == nullptr)
                    first_error = std::current_exception();
            }
        }
    };

    {
        std::vector<std::jthread> helpers;
        helpers.reserve(static_cast<std::size_t>(jobs) - 1);
        for (int w = 1; w < jobs; ++w) {
            helpers.emplace_back([&work, w] {
#ifndef TWOCS_OBS_DISABLE
                if (obs::Tracer::mask() != 0) {
                    obs::Tracer::setThreadName(
                        "exec.steal-" + std::to_string(w));
                }
#endif
                work();
            });
        }
        // The calling thread is worker 0; the jthreads join here.
        work();
    }

    if (first_error != nullptr)
        std::rethrow_exception(first_error);
}

} // namespace detail

} // namespace twocs::exec
