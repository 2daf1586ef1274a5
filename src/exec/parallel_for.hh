/**
 * @file
 * A parallel index loop over one process-wide set of worker threads.
 *
 * parallelFor(n, options, body) runs body(i) for every i in [0, n) on
 * up to options.jobs threads: the calling thread (worker 0) plus
 * helpers from a worker set that is started on first use, lives for
 * the whole process and grows to the largest `jobs - 1` any call has
 * asked for. Each claim takes the top
 * `max(minChunk, remaining / (4 * jobs))` indices of the still
 * unclaimed range [0, remaining) with one CAS, so the first chunk is
 * ~1/16 of a 4-job range and the last chunks are `minChunk` indices
 * each: a worker stuck on an expensive chunk leaves the rest to the
 * others, and the call ends on single indices instead of one long
 * straggler. Because every index runs exactly once and writes only
 * its own output slot, results are independent of which worker ran
 * what — `--jobs 1` and `--jobs N` output stays byte-identical even
 * though the interleaving is not.
 *
 * The calling thread always claims chunks of its own call, so a map
 * started from inside another map's body, or from several threads at
 * once, makes progress even when every helper is busy; it then waits
 * only for helpers still inside one of its chunks. No call spawns a
 * thread on its hot path, and this worker set is the only thread
 * owner in `exec`.
 */

#ifndef TWOCS_EXEC_PARALLEL_FOR_HH
#define TWOCS_EXEC_PARALLEL_FOR_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace twocs::exec {

/** hardware_concurrency() with a floor of one. */
int defaultJobs();

/** Knobs of one parallelFor() call. */
struct ParallelForOptions
{
    /** Workers (including the calling thread); <= 0 selects
     *  defaultJobs(). */
    int jobs = 0;
    /** Smallest chunk a claim takes, capped at n; 0 means 1. */
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
