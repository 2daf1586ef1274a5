/**
 * @file
 * A chunked parallel index loop over one shared chunk counter.
 *
 * parallelFor(n, options, body) splits the index range [0, n) into
 * contiguous chunks of ~`grain` indices and runs one worker per job
 * (the calling thread is worker 0). A single atomic counts the
 * chunks nobody has claimed yet; each worker claims the highest
 * unclaimed chunk until the count reaches zero, so a worker stuck on
 * an expensive chunk simply claims fewer of them. Because every
 * index runs exactly once and writes only its own output slot,
 * results are independent of which worker ran what — `--jobs 1` and
 * `--jobs N` output stays byte-identical even though the
 * interleaving is not.
 *
 * This is the allocation-lean path the ParallelSweepRunner maps
 * studies through: no per-task std::function, no queue, no mutex or
 * condition variable on the hot path — one atomic decrement per
 * chunk. The bounded-queue ThreadPool (thread_pool.hh) remains for
 * open-ended producers such as the query service's batch fan-out,
 * where tasks arrive over time rather than as a known index range.
 */

#ifndef TWOCS_EXEC_PARALLEL_FOR_HH
#define TWOCS_EXEC_PARALLEL_FOR_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace twocs::exec {

/** Knobs of one parallelFor() call. */
struct ParallelForOptions
{
    /** Workers (including the calling thread); <= 0 selects
     *  ThreadPool::defaultThreads(). */
    int jobs = 0;
    /** Indices per chunk, capped at n; 0 selects a heuristic
     *  that targets a few chunks per worker (load-balancing slack
     *  without per-index cost). */
    std::size_t grain = 0;
};

namespace detail {

/** Monomorphic chunk callback: run body(i) for i in [begin, end). */
using ChunkBody = void (*)(void *ctx, std::size_t begin,
                           std::size_t end);

/** Out-of-line engine; rethrows the first captured body exception
 *  (first by wall clock, not by index — callers that need an
 *  index-deterministic failure catch inside their body, as
 *  ParallelSweepRunner does). */
void parallelForImpl(std::size_t n, const ParallelForOptions &options,
                     ChunkBody chunk_body, void *ctx);

/** The grain parallelForImpl uses when options.grain == 0. */
std::size_t defaultGrain(std::size_t n, int jobs);

} // namespace detail

/**
 * Run body(i) exactly once for every i in [0, n), chunked across
 * options.jobs workers. Blocks until every index has run. The body
 * must not touch shared mutable state except through its own
 * per-index slots (or its own synchronization).
 */
template <typename Body>
void
parallelFor(std::size_t n, const ParallelForOptions &options,
            Body &&body)
{
    using Fn = std::remove_reference_t<Body>;
    detail::parallelForImpl(
        n, options,
        [](void *ctx, std::size_t begin, std::size_t end) {
            Fn &fn = *static_cast<Fn *>(ctx);
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        },
        const_cast<void *>(
            static_cast<const void *>(std::addressof(body))));
}

/** Convenience (range, grain, body) spelling with default jobs. */
template <typename Body>
void
parallelFor(std::size_t n, std::size_t grain, Body &&body)
{
    ParallelForOptions options;
    options.grain = grain;
    parallelFor(n, options, std::forward<Body>(body));
}

} // namespace twocs::exec

#endif // TWOCS_EXEC_PARALLEL_FOR_HH
