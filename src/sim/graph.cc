#include "graph.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "util/logging.hh"

namespace twocs::sim {

const std::string &
GraphTemplate::resourceName(ResourceId resource) const
{
    panicIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    resourceNames_.size(),
            "resourceName() of unknown resource ", resource);
    return resourceNames_[resource];
}

ResourceId
GraphTemplate::taskResource(TaskId id) const
{
    panicIf(id < 0 ||
                static_cast<std::size_t>(id) >= resources_.size(),
            "taskResource() of unknown task ", id);
    return resources_[id];
}

Seconds
GraphTemplate::baseDuration(TaskId id) const
{
    panicIf(id < 0 ||
                static_cast<std::size_t>(id) >= durations_.size(),
            "baseDuration() of unknown task ", id);
    return durations_[id];
}

util::StringInterner::Id
GraphTemplate::taskLabelId(TaskId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= labels_.size(),
            "taskLabelId() of unknown task ", id);
    return labels_[id];
}

util::StringInterner::Id
GraphTemplate::taskTagId(TaskId id) const
{
    panicIf(id < 0 || static_cast<std::size_t>(id) >= tags_.size(),
            "taskTagId() of unknown task ", id);
    return tags_[id];
}

std::string_view
GraphTemplate::taskLabel(TaskId id) const
{
    return interner_->view(taskLabelId(id));
}

std::string_view
GraphTemplate::taskTag(TaskId id) const
{
    return interner_->view(taskTagId(id));
}

std::span<const TaskId>
GraphTemplate::deps(TaskId id) const
{
    panicIf(id < 0 ||
                static_cast<std::size_t>(id) + 1 >= depOffsets_.size(),
            "deps() of unknown task ", id);
    const std::size_t i = static_cast<std::size_t>(id);
    return { depEdges_.data() + depOffsets_[i],
             depEdges_.data() + depOffsets_[i + 1] };
}

const std::string &
GraphTemplate::dispatchLabel(util::StringInterner::Id tag) const
{
    panicIf(tag >= dispatchLabels_.size(),
            "dispatchLabel() of unknown tag id ", tag);
    return dispatchLabels_[tag];
}

void
ReplayScratch::bind(const GraphTemplate &graph)
{
    bound_ = &graph;
    placed_.resize(graph.numTasks());
    resourceFree_.resize(graph.numResources());
    busyTotals_.resize(graph.numResources());
}

Seconds
ReplayScratch::busyTotal(ResourceId resource) const
{
    panicIf(resource < 0 ||
                static_cast<std::size_t>(resource) >=
                    busyTotals_.size(),
            "busyTotal() of unknown resource ", resource);
    return busyTotals_[resource];
}

void
replay(const GraphTemplate &graph,
       std::span<const Seconds> durations, ReplayScratch &scratch)
{
    const std::size_t n = graph.numTasks();
    panicIf(!durations.empty() && durations.size() != n,
            "replay() durations size ", durations.size(),
            " does not match the template's ", n, " tasks");
    panicIf(scratch.bound_ != nullptr && scratch.bound_ != &graph,
            "replay() scratch is still bound to another template "
            "(shape ",
            scratch.placed_.size(),
            " tasks); call bind() to reuse the arena");
    const Seconds *dur = durations.empty()
                             ? graph.durations_.data()
                             : durations.data();

    TWOCS_OBS_SPAN(obs::Category::Sim, "sim.replay", [&] {
        return "tasks=" + std::to_string(n) + " resources=" +
               std::to_string(graph.numResources());
    });

    scratch.bind(graph);
    std::fill(scratch.resourceFree_.begin(),
              scratch.resourceFree_.end(), 0.0);
    std::fill(scratch.busyTotals_.begin(),
              scratch.busyTotals_.end(), 0.0);
    scratch.makespan_ = 0.0;

    ScheduledTask *placed = scratch.placed_.data();
    Seconds *resource_free = scratch.resourceFree_.data();
    const ResourceId *res = graph.resources_.data();
    const std::uint32_t *offsets = graph.depOffsets_.data();
    const TaskId *edges = graph.depEdges_.data();

    // Tasks were compiled in program order and dependencies point
    // backwards (validated at build), so one forward pass is a valid
    // simulation — the same recurrence EventSimulator::run() always
    // used, now over flat arrays.
    for (std::size_t i = 0; i < n; ++i) {
        TWOCS_OBS_SPAN(obs::Category::Sim,
                       graph.dispatchLabels_[graph.tags_[i]]);
        Seconds ready = resource_free[res[i]];
        for (std::uint32_t e = offsets[i]; e < offsets[i + 1]; ++e)
            ready = std::max(ready, placed[edges[e]].end);
        placed[i] = { static_cast<TaskId>(i), ready,
                      ready + dur[i] };
        resource_free[res[i]] = placed[i].end;
        // Bit-identical to Schedule's constructor pass, which sums
        // end - start per resource in task order.
        scratch.busyTotals_[res[i]] +=
            placed[i].end - placed[i].start;
        scratch.makespan_ =
            std::max(scratch.makespan_, placed[i].end);
    }
}

void
LaneScratch::bind(const GraphTemplate &graph)
{
    bound_ = &graph;
    ends_.resize(graph.numTasks() * LaneWidth);
    resourceFree_.resize(graph.numResources() * LaneWidth);
    busyTotals_.resize(graph.numResources() * LaneWidth);
}

void
LaneScratch::reset(const GraphTemplate &graph)
{
    panicIf(bound_ != nullptr && bound_ != &graph,
            "replayLanes() scratch is still bound to another "
            "template; call bind() to reuse the arena");
    bind(graph);
    std::fill(resourceFree_.begin(), resourceFree_.end(), 0.0);
    std::fill(busyTotals_.begin(), busyTotals_.end(), 0.0);
}

Seconds
LaneScratch::makespan(std::size_t lane) const
{
    panicIf(lane >= LaneWidth, "makespan() of unknown lane ", lane);
    return makespans_[lane];
}

Seconds
LaneScratch::busyTotal(ResourceId resource, std::size_t lane) const
{
    panicIf(resource < 0 || lane >= LaneWidth ||
                static_cast<std::size_t>(resource) * LaneWidth +
                        lane >=
                    busyTotals_.size(),
            "busyTotal() of unknown resource ", resource, " lane ",
            lane);
    return busyTotals_[static_cast<std::size_t>(resource) *
                           LaneWidth +
                       lane];
}

Seconds
LaneScratch::taskEnd(TaskId id, std::size_t lane) const
{
    panicIf(id < 0 || lane >= LaneWidth ||
                static_cast<std::size_t>(id) * LaneWidth + lane >=
                    ends_.size(),
            "taskEnd() of unknown task ", id, " lane ", lane);
    return ends_[static_cast<std::size_t>(id) * LaneWidth + lane];
}

} // namespace twocs::sim
