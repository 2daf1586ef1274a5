/**
 * @file
 * Compiled task-graph templates: build once, replay many.
 *
 * The straggler and jitter studies run the discrete-event simulator
 * over thousands of perturbed trials of the *same* task graph. The
 * graph's shape — tasks, resources, dependencies — never changes
 * between trials; only the duration vector does. A GraphTemplate
 * freezes that shape once: tasks are stored flat (interned label/tag
 * ids, resource, base duration in parallel arrays) and dependencies
 * in CSR form (one offsets[] plus one edges[] array instead of a
 * per-task heap vector), all validated at compile time. replay()
 * then runs the template against a caller-supplied duration vector
 * into a caller-owned ReplayScratch, so a trial performs **zero**
 * allocations and no re-validation — a what-if sweep is a graph
 * *replay* problem, not a graph *construction* problem.
 *
 * Two walks share the template (DESIGN.md §15):
 *
 *  - replay(): one duration vector, one forward pass. The oracle
 *    the lane walk is gated bit-identical against.
 *  - replayLanes(): LaneWidth trials advanced through one forward
 *    pass over the CSR arrays. The caller supplies each task's
 *    LaneWidth durations through an inlined callable at the moment
 *    the walk reaches the task, so a Monte Carlo trial draws its
 *    jitter inside the walk and no duration vector is ever stored.
 *
 * Thread contract: a GraphTemplate is immutable after compile and
 * may be replayed concurrently from any number of threads, each with
 * its own scratch arena (the parallel trial runners give every
 * worker one).
 */

#ifndef TWOCS_SIM_GRAPH_HH
#define TWOCS_SIM_GRAPH_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hh"
#include "util/interner.hh"
#include "util/units.hh"

namespace twocs::sim {

using TaskId = int;
using ResourceId = int;

/** An invalid task id (usable as "no dependency"). */
inline constexpr TaskId InvalidTask = -1;

/** Execution record of one task. */
struct ScheduledTask
{
    TaskId id = InvalidTask;
    Seconds start = 0.0;
    Seconds end = 0.0;
};

class GraphTemplate;
class ReplayScratch;
class LaneScratch;
void replay(const GraphTemplate &graph,
            std::span<const Seconds> durations,
            ReplayScratch &scratch);
template <typename DurationRow>
void replayLanes(const GraphTemplate &graph, LaneScratch &scratch,
                 DurationRow &&row);

/** Trials one replayLanes() walk advances: four doubles per lane
 *  row, two SSE2/NEON registers on the baseline build. It matches
 *  util/rng's LaneRng, which draws a row's jitter in the same two
 *  registers; wider rows bought little and cost resident memory. */
inline constexpr std::size_t LaneWidth = 4;

/**
 * An immutable, validated task graph in structure-of-arrays layout
 * with CSR dependencies. Built by EventSimulator::compile(); see the
 * file comment for the replay lifecycle.
 */
class GraphTemplate
{
  public:
    GraphTemplate() = default;

    std::size_t numTasks() const { return resources_.size(); }
    std::size_t numResources() const { return resourceNames_.size(); }
    std::size_t numEdges() const { return depEdges_.size(); }

    /** Name of a resource (stream), as registered. */
    const std::string &resourceName(ResourceId resource) const;

    ResourceId taskResource(TaskId id) const;
    Seconds baseDuration(TaskId id) const;
    /** The durations the graph was built with, one per task — the
     *  replay input for an unperturbed trial. */
    const std::vector<Seconds> &baseDurations() const
    {
        return durations_;
    }
    /** Interned tag id of every task, in task-id order. */
    const std::vector<util::StringInterner::Id> &taskTagIds() const
    {
        return tags_;
    }

    util::StringInterner::Id taskLabelId(TaskId id) const;
    util::StringInterner::Id taskTagId(TaskId id) const;
    std::string_view taskLabel(TaskId id) const;
    std::string_view taskTag(TaskId id) const;

    /** Dependencies of one task (a view into the CSR edges array). */
    std::span<const TaskId> deps(TaskId id) const;

    /** The label/tag intern table shared with the builder. */
    const util::StringInterner &interner() const { return *interner_; }
    const std::shared_ptr<const util::StringInterner> &
    internerPtr() const
    {
        return interner_;
    }

    /**
     * Precomputed "sim.dispatch.<tag>" span label for an interned
     * tag id ("sim.dispatch.task" for the empty tag) — replay's
     * per-task tracing never builds a string.
     */
    const std::string &
    dispatchLabel(util::StringInterner::Id tag) const;

  private:
    friend class EventSimulator;
    friend void replay(const GraphTemplate &,
                       std::span<const Seconds>, ReplayScratch &);
    template <typename DurationRow>
    friend void replayLanes(const GraphTemplate &, LaneScratch &,
                            DurationRow &&);

    std::vector<std::string> resourceNames_;
    std::vector<util::StringInterner::Id> labels_;
    std::vector<util::StringInterner::Id> tags_;
    std::vector<ResourceId> resources_;
    std::vector<Seconds> durations_;
    /** CSR dependencies: task i depends on
     *  depEdges_[depOffsets_[i] .. depOffsets_[i + 1]). */
    std::vector<std::uint32_t> depOffsets_;
    std::vector<TaskId> depEdges_;
    /** Indexed by interned id; built once at compile. */
    std::vector<std::string> dispatchLabels_;
    std::shared_ptr<const util::StringInterner> interner_;
};

/**
 * Caller-owned, reusable replay buffers plus the cheap aggregates a
 * trial needs (makespan, per-resource busy totals). bind() sizes the
 * buffers for a template; after the first replay against a given
 * shape, further replays allocate nothing.
 *
 * Binding contract: a scratch remembers the template it was bound
 * to. replay() binds an unbound scratch automatically, but refuses
 * (panics) a scratch still bound to a *different* template — reusing
 * one arena across templates of different shapes used to silently
 * re-allocate, which let a stale-scratch bug alias buffers between
 * graphs. Callers that deliberately recycle one arena across
 * templates (the thread-local worker pools) opt in with an explicit
 * bind() per graph.
 */
class ReplayScratch
{
  public:
    /**
     * (Re)size every buffer for `graph` and adopt it as the bound
     * template. Rebinding to a new template is the explicit opt-in
     * for arena reuse; replaying against a template the scratch is
     * not bound to panics instead of silently re-allocating.
     */
    void bind(const GraphTemplate &graph);

    /** The template this scratch is bound to (nullptr before the
     *  first bind/replay). */
    const GraphTemplate *boundTemplate() const { return bound_; }

    /** Start/end of every task, in task-id order (valid after a
     *  replay; reused — copy out what must outlive the next one). */
    const std::vector<ScheduledTask> &placements() const
    {
        return placed_;
    }

    /** Completion time of the last task of the latest replay. */
    Seconds makespan() const { return makespan_; }

    /** Sum of executed durations on one resource, accumulated in
     *  task order (bit-identical to Schedule::busyTime). */
    Seconds busyTotal(ResourceId resource) const;

  private:
    friend void replay(const GraphTemplate &,
                       std::span<const Seconds>, ReplayScratch &);

    std::vector<ScheduledTask> placed_;
    std::vector<Seconds> resourceFree_;
    std::vector<Seconds> busyTotals_;
    Seconds makespan_ = 0.0;
    const GraphTemplate *bound_ = nullptr;
};

/**
 * Lane-major buffers for replayLanes(): lane l of task i lives at
 * index i * LaneWidth + l, so the per-task inner loops touch
 * LaneWidth adjacent doubles. Same binding contract as
 * ReplayScratch: bind() is the explicit opt-in for reuse across
 * templates.
 */
class LaneScratch
{
  public:
    void bind(const GraphTemplate &graph);

    const GraphTemplate *boundTemplate() const { return bound_; }

    /** Per-lane aggregates of the latest replayLanes(). */
    Seconds makespan(std::size_t lane) const;
    Seconds busyTotal(ResourceId resource, std::size_t lane) const;
    /** Completion time of one task in one lane. */
    Seconds taskEnd(TaskId id, std::size_t lane) const;

  private:
    template <typename DurationRow>
    friend void replayLanes(const GraphTemplate &, LaneScratch &,
                            DurationRow &&);
    /** Bind to `graph` (panicking on a scratch still bound
     *  elsewhere) and zero the per-walk aggregates. */
    void reset(const GraphTemplate &graph);

    const GraphTemplate *bound_ = nullptr;
    std::vector<Seconds> ends_;         // numTasks x LaneWidth
    std::vector<Seconds> resourceFree_; // numResources x LaneWidth
    std::vector<Seconds> busyTotals_;   // numResources x LaneWidth
    Seconds makespans_[LaneWidth] = {};
};

/**
 * Run `graph` with the given per-task durations (empty span selects
 * the template's base durations) into `scratch`. Dependencies were
 * validated at compile time, so this is a single forward pass — no
 * allocation (once scratch is bound), no validation beyond the
 * durations size check.
 */
void replay(const GraphTemplate &graph,
            std::span<const Seconds> durations,
            ReplayScratch &scratch);

/**
 * Advance LaneWidth trials through one forward pass over the
 * template. When the walk reaches task i it calls
 * `row(i, dur)` with `Seconds (&dur)[LaneWidth]` for the caller to
 * fill with that task's duration in every lane; calls come in
 * task-id order, once per task, so a lane may draw its durations
 * from a sequential RNG stream. Each lane's results — task ends,
 * makespan, busy totals — are bit-identical to a sequential
 * replay() of that lane's durations: the per-lane floating-point op
 * sequence is exactly the sequential one, only interleaved across
 * lanes. A caller with fewer than LaneWidth trials pads the spare
 * lanes (e.g. with base durations) and ignores their results.
 * Per-task dispatch spans are not emitted (one "sim.replay_lanes"
 * span covers the pass).
 */
template <typename DurationRow>
void
replayLanes(const GraphTemplate &graph, LaneScratch &scratch,
            DurationRow &&row)
{
    constexpr std::size_t L = LaneWidth;
    const std::size_t n = graph.numTasks();
    TWOCS_OBS_SPAN(obs::Category::Sim, "sim.replay_lanes",
                   [&] { return "tasks=" + std::to_string(n); });
    scratch.reset(graph);

    // Raw restrict-qualified pointers: the rows live in distinct
    // arenas (and a task's dependency rows precede its own end row),
    // so the lane loops vectorize without runtime overlap checks.
    Seconds *__restrict ends = scratch.ends_.data();
    Seconds *__restrict resource_free = scratch.resourceFree_.data();
    Seconds *__restrict busy = scratch.busyTotals_.data();
    const ResourceId *res = graph.resources_.data();
    const std::uint32_t *offsets = graph.depOffsets_.data();
    const TaskId *edges = graph.depEdges_.data();

    // The sequential recurrence, lane-interleaved: every lane sees
    // exactly the op sequence replay() runs for its durations
    // (ready = stream-free, then dep maxes in edge order, then one
    // add), with the ready and makespan rows held in registers.
    Seconds ms[L] = {};
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = static_cast<std::size_t>(res[i]);
        Seconds *__restrict rf_row = resource_free + r * L;
        Seconds ready[L];
        for (std::size_t l = 0; l < L; ++l)
            ready[l] = rf_row[l];
        for (std::uint32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
            const Seconds *__restrict dep_row =
                ends + static_cast<std::size_t>(edges[e]) * L;
            for (std::size_t l = 0; l < L; ++l)
                ready[l] = std::max(ready[l], dep_row[l]);
        }
        Seconds dur[L];
        row(i, dur);
        Seconds *__restrict end_row = ends + i * L;
        Seconds *__restrict busy_row = busy + r * L;
        for (std::size_t l = 0; l < L; ++l) {
            const Seconds end = ready[l] + dur[l];
            end_row[l] = end;
            rf_row[l] = end;
            busy_row[l] += end - ready[l];
            ms[l] = std::max(ms[l], end);
        }
    }
    for (std::size_t l = 0; l < L; ++l)
        scratch.makespans_[l] = ms[l];
}

} // namespace twocs::sim

#endif // TWOCS_SIM_GRAPH_HH
