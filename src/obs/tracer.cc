#include "obs.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string_view>

#include "util/logging.hh"

namespace twocs::obs {

namespace detail {

std::atomic<unsigned> traceMask{ 0 };

/** One thread's ring of completed spans plus its open-span stack. */
struct LaneBuffer
{
    std::mutex mutex;
    std::uint32_t lane = 0;
    std::string name;
    std::size_t capacity = Tracer::kDefaultRingCapacity;
    std::vector<SpanRecord> ring;
    /** Overwrite cursor once the ring is full. */
    std::size_t next = 0;
    std::uint64_t dropped = 0;
    /** Open-span labels; touched only by the owning thread. */
    std::vector<std::string_view> stack;
};

namespace {

using SteadyClock = std::chrono::steady_clock;

/** All lanes ever registered; lanes outlive their threads. */
struct Registry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<LaneBuffer>> lanes;
    std::size_t ringCapacity = Tracer::kDefaultRingCapacity;
    /** Bumped by reset() so straddling spans get discarded. */
    std::atomic<std::uint64_t> epoch{ 1 };
    /** steady_clock time, in ns, of the current trace epoch. */
    std::atomic<std::int64_t> epochStartNs{
        SteadyClock::now().time_since_epoch().count()
    };
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::int64_t
nowNs()
{
    const std::int64_t now =
        SteadyClock::now().time_since_epoch().count();
    return now -
           registry().epochStartNs.load(std::memory_order_relaxed);
}

/** The calling thread's lane, registered on first use. The
 *  shared_ptr keeps records readable after the thread exits. */
LaneBuffer *
laneBuffer()
{
    thread_local std::shared_ptr<LaneBuffer> lane;
    if (!lane) {
        auto fresh = std::make_shared<LaneBuffer>();
        Registry &r = registry();
        const std::lock_guard lock(r.mutex);
        fresh->lane = static_cast<std::uint32_t>(r.lanes.size());
        fresh->name = "thread-" + std::to_string(fresh->lane);
        fresh->capacity = r.ringCapacity;
        r.lanes.push_back(fresh);
        lane = std::move(fresh);
    }
    return lane.get();
}

void
append(LaneBuffer *lane, SpanRecord &&record)
{
    record.lane = lane->lane;
    const std::lock_guard lock(lane->mutex);
    if (lane->ring.size() < lane->capacity) {
        lane->ring.push_back(std::move(record));
    } else {
        lane->ring[lane->next] = std::move(record);
        lane->next = (lane->next + 1) % lane->ring.size();
        ++lane->dropped;
    }
}

std::string
joinPath(const std::vector<std::string_view> &stack,
         const std::string &label)
{
    std::string path;
    for (const std::string_view frame : stack) {
        path += frame;
        path += ';';
    }
    path += label;
    return path;
}

} // namespace

} // namespace detail

const char *
categoryName(Category category)
{
    switch (category) {
      case Category::Exec:
        return "exec";
      case Category::Svc:
        return "svc";
      case Category::Sim:
        return "sim";
      case Category::Comm:
        return "comm";
      case Category::Cli:
        return "cli";
      case Category::Bench:
        return "bench";
      case Category::Net:
        return "net";
      case Category::Model:
        return "model";
      case Category::Opmodel:
        return "opmodel";
      case Category::Profiling:
        return "profiling";
    }
    return "unknown";
}

unsigned
categoryMaskFromList(const std::string &list)
{
    static constexpr Category kAll[] = {
        Category::Exec,  Category::Svc,     Category::Sim,
        Category::Comm,  Category::Cli,     Category::Bench,
        Category::Net,   Category::Model,   Category::Opmodel,
        Category::Profiling,
    };

    unsigned mask = 0;
    std::size_t begin = 0;
    bool any = false;
    while (begin <= list.size()) {
        std::size_t end = list.find(',', begin);
        if (end == std::string::npos)
            end = list.size();
        const std::string name = list.substr(begin, end - begin);
        begin = end + 1;
        if (name.empty())
            continue;
        any = true;
        if (name == "all") {
            mask |= kAllCategories;
            continue;
        }
        bool known = false;
        for (const Category c : kAll) {
            if (name == categoryName(c)) {
                mask |= static_cast<unsigned>(c);
                known = true;
                break;
            }
        }
        fatalIf(!known, "unknown trace category '", name,
                "' (exec, svc, sim, comm, cli, bench, net, model, ",
                "opmodel, profiling or all)");
    }
    fatalIf(!any,
            "--trace-categories expects a non-empty category list");
    return mask;
}

void
Tracer::enable(unsigned mask)
{
    detail::traceMask.store(mask & kAllCategories,
                            std::memory_order_relaxed);
}

void
Tracer::disable()
{
    detail::traceMask.store(0, std::memory_order_relaxed);
}

unsigned
Tracer::mask()
{
    return detail::traceMask.load(std::memory_order_relaxed);
}

void
Tracer::reset()
{
    detail::Registry &r = detail::registry();
    const std::lock_guard lock(r.mutex);
    r.epoch.fetch_add(1, std::memory_order_relaxed);
    r.epochStartNs.store(detail::SteadyClock::now()
                             .time_since_epoch()
                             .count(),
                         std::memory_order_relaxed);
    for (const auto &lane : r.lanes) {
        const std::lock_guard lane_lock(lane->mutex);
        lane->ring.clear();
        lane->next = 0;
        lane->dropped = 0;
    }
}

void
Tracer::setRingCapacity(std::size_t capacity)
{
    fatalIf(capacity == 0, "trace ring capacity must be >= 1");
    detail::Registry &r = detail::registry();
    const std::lock_guard lock(r.mutex);
    r.ringCapacity = capacity;
}

void
Tracer::setThreadName(std::string name)
{
    detail::LaneBuffer *lane = detail::laneBuffer();
    const std::lock_guard lock(lane->mutex);
    lane->name = std::move(name);
}

TraceSnapshot
Tracer::snapshot()
{
    TraceSnapshot snap;
    detail::Registry &r = detail::registry();
    const std::lock_guard lock(r.mutex);
    snap.laneNames.resize(r.lanes.size());
    for (const auto &lane : r.lanes) {
        const std::lock_guard lane_lock(lane->mutex);
        snap.laneNames[lane->lane] = lane->name;
        snap.dropped += lane->dropped;
        // Oldest-first: the overwrite cursor marks the oldest entry
        // once the ring has wrapped.
        const std::size_t n = lane->ring.size();
        for (std::size_t i = 0; i < n; ++i)
            snap.spans.push_back(lane->ring[(lane->next + i) % n]);
    }
    std::sort(snap.spans.begin(), snap.spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return std::tie(a.startNs, a.lane, a.path) <
                         std::tie(b.startNs, b.lane, b.path);
              });
    return snap;
}

std::map<std::string, std::uint64_t>
Tracer::countsByLabel(unsigned category_mask)
{
    std::map<std::string, std::uint64_t> counts;
    const TraceSnapshot snap = snapshot();
    for (const SpanRecord &s : snap.spans) {
        if ((static_cast<unsigned>(s.category) & category_mask) != 0u)
            ++counts[s.label];
    }
    return counts;
}

void
Span::open(Category category, std::string label, std::string args)
{
    detail::LaneBuffer *lane = detail::laneBuffer();
    lane_ = lane;
    category_ = category;
    label_ = std::move(label);
    args_ = std::move(args);
    epoch_ = detail::registry().epoch.load(std::memory_order_relaxed);
    lane->stack.push_back(label_);
    startNs_ = detail::nowNs();
}

void
Span::close()
{
    const std::int64_t end_ns = detail::nowNs();
    detail::LaneBuffer *lane = lane_;
    if (!lane->stack.empty())
        lane->stack.pop_back();
    // A reset() between open and close invalidated the timestamps.
    if (epoch_ !=
        detail::registry().epoch.load(std::memory_order_relaxed)) {
        return;
    }

    SpanRecord record;
    record.path = detail::joinPath(lane->stack, label_);
    record.label = std::move(label_);
    record.args = std::move(args_);
    record.category = category_;
    record.startNs = startNs_;
    record.durNs = end_ns - startNs_;
    detail::append(lane, std::move(record));
}

void
instant(Category category, const char *label, std::string args)
{
    if (!detail::enabledFor(category))
        return;
    detail::LaneBuffer *lane = detail::laneBuffer();
    SpanRecord record;
    record.label = label;
    record.path = detail::joinPath(lane->stack, record.label);
    record.args = std::move(args);
    record.category = category;
    record.startNs = detail::nowNs();
    record.durNs = 0;
    detail::append(lane, std::move(record));
}

} // namespace twocs::obs
