#include "telemetry/profiler.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "telemetry/json_util.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace vpm::telemetry {

namespace detail {
std::atomic<std::uint64_t> allocCount{0};
std::atomic<std::uint64_t> allocBytes{0};
} // namespace detail

std::atomic<bool> Profiler::enabledFlag_{false};

Profiler::ThreadState::ThreadState()
{
    ZoneNode root;
    root.name = "(root)";
    nodes.push_back(std::move(root));
}

Profiler::Profiler() : mainThreadId_(std::this_thread::get_id()) {}

Profiler::ThreadState &
Profiler::localState()
{
    // One pointer per (thread, process); the profiler is a singleton, so
    // a function-local thread_local is equivalent to a per-instance one.
    thread_local ThreadState *tls = nullptr;
    if (tls == nullptr) {
        if (std::this_thread::get_id() == mainThreadId_) {
            tls = &mainState_;
        } else {
            auto state = std::make_unique<ThreadState>();
            tls = state.get();
            std::lock_guard<std::mutex> lock(statesMutex_);
            workerStates_.push_back(std::move(state));
        }
    }
    return *tls;
}

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

void
Profiler::setEnabled(bool on)
{
    enabledFlag_.store(on, std::memory_order_relaxed);
}

std::uint32_t
Profiler::enter(const char *name)
{
    ThreadState &state = localState();
    std::vector<ZoneNode> &nodes = state.nodes;
    ZoneNode &parent = nodes[state.current];
    for (const std::uint32_t child : parent.children) {
        // PROF_ZONE names are string literals: after the first visit the
        // pointer itself identifies the node, so the steady-state lookup
        // is one compare per sibling with no character scan.
        ZoneNode &candidate = nodes[child];
        if (candidate.key == name || candidate.name == name) {
            candidate.key = name;
            state.current = child;
            return child;
        }
    }
    const auto index = static_cast<std::uint32_t>(nodes.size());
    ZoneNode node;
    node.name = name;
    node.key = name;
    node.parent = state.current;
    node.depth = parent.depth + 1;
    nodes.push_back(std::move(node));
    // push_back may reallocate; re-reference the parent before linking.
    nodes[state.current].children.push_back(index);
    state.current = index;
    return index;
}

void
Profiler::leave(std::uint32_t node, std::uint64_t start_ns)
{
    leaveAt(node, start_ns, nowNs());
}

void
Profiler::leaveAt(std::uint32_t node, std::uint64_t start_ns,
                  std::uint64_t now_ns)
{
    ThreadState &state = localState();
    // A reset() between enter and leave invalidates the index; tolerate it
    // (the harness only resets outside any zone, but be safe).
    if (node >= state.nodes.size()) {
        state.current = 0;
        return;
    }
    const std::uint64_t now = now_ns;
    const std::uint64_t dt = now > start_ns ? now - start_ns : 0;
    ZoneNode &n = state.nodes[node];
    n.inclusiveNs += dt;
    ++n.calls;
    state.nodes[n.parent].childNs += dt;
    state.current = n.parent;
}

void
Profiler::recordDispatch(const char *label, std::uint64_t ns)
{
    if (*label == '\0')
        label = "(unlabeled)";
    // Event labels are string literals: the pointer identifies the row in
    // the steady state, so the character compare runs only for a label
    // seen first through another pointer (another translation unit's copy
    // of the same literal), which then takes over the row's key.
    DispatchStats *stats = nullptr;
    for (std::size_t i = 0; i < dispatchKeys_.size(); ++i) {
        if (dispatchKeys_[i] == label) {
            stats = &dispatch_[i];
            break;
        }
    }
    if (stats == nullptr) {
        for (std::size_t i = 0; i < dispatch_.size(); ++i) {
            if (dispatch_[i].label == label) {
                dispatchKeys_[i] = label;
                stats = &dispatch_[i];
                break;
            }
        }
    }
    if (stats == nullptr) {
        dispatchKeys_.push_back(label);
        dispatch_.emplace_back();
        stats = &dispatch_.back();
        stats->label = label;
    }
    ++stats->count;
    stats->totalNs += ns;
    stats->maxNs = std::max(stats->maxNs, ns);
    const std::uint64_t us = ns / 1000;
    const std::size_t bucket =
        us == 0 ? 0
                : std::min<std::size_t>(
                      static_cast<std::size_t>(std::bit_width(us)) - 1,
                      dispatchBucketCount - 1);
    ++stats->buckets[bucket];
}

double
DispatchStats::percentileUs(double fraction) const
{
    if (count == 0)
        return 0.0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    const double target = fraction * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        cumulative += buckets[i];
        if (static_cast<double>(cumulative) >= target)
            return static_cast<double>(std::uint64_t{1} << (i + 1));
    }
    return static_cast<double>(std::uint64_t{1} << buckets.size());
}

void
Profiler::reset()
{
    const auto resetState = [](ThreadState &state) {
        state.nodes.clear();
        ZoneNode root;
        root.name = "(root)";
        state.nodes.push_back(std::move(root));
        state.current = 0;
    };
    resetState(mainState_);
    {
        // Worker states are reset in place, never destroyed: thread_local
        // pointers into them must survive (a pool's threads outlive any
        // number of resets).
        std::lock_guard<std::mutex> lock(statesMutex_);
        for (const auto &state : workerStates_)
            resetState(*state);
    }
    dispatch_.clear();
    dispatchKeys_.clear();
}

void
Profiler::mergeTree(std::vector<ZoneNode> &merged, std::uint32_t into,
                    const std::vector<ZoneNode> &from, std::uint32_t node)
{
    const ZoneNode &src = from[node];
    merged[into].calls += src.calls;
    merged[into].inclusiveNs += src.inclusiveNs;
    merged[into].childNs += src.childNs;
    for (const std::uint32_t child_index : src.children) {
        const std::string &child_name = from[child_index].name;
        // Find-or-create by (parent, name), the same key enter() uses, so
        // a zone reached on several threads folds into one row. 0 is a
        // safe "not found" sentinel: the root is never anyone's child.
        std::uint32_t target = 0;
        for (const std::uint32_t existing : merged[into].children) {
            if (merged[existing].name == child_name) {
                target = existing;
                break;
            }
        }
        if (target == 0) {
            target = static_cast<std::uint32_t>(merged.size());
            ZoneNode fresh;
            fresh.name = child_name;
            fresh.parent = into;
            fresh.depth = merged[into].depth + 1;
            merged.push_back(std::move(fresh));
            merged[into].children.push_back(target);
        }
        mergeTree(merged, target, from, child_index);
    }
}

std::vector<ZoneNode>
Profiler::mergedNodes() const
{
    std::vector<ZoneNode> merged = mainState_.nodes;
    std::lock_guard<std::mutex> lock(statesMutex_);
    for (const auto &state : workerStates_) {
        if (state->nodes.size() > 1)
            mergeTree(merged, 0, state->nodes, 0);
    }
    return merged;
}

std::vector<DispatchStats>
Profiler::dispatchStats() const
{
    std::vector<DispatchStats> out = dispatch_;
    std::sort(out.begin(), out.end(),
              [](const DispatchStats &a, const DispatchStats &b) {
                  return a.totalNs > b.totalNs;
              });
    return out;
}

namespace {

double
toMs(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

void
writeZoneLine(std::ostream &out, const std::vector<ZoneNode> &nodes,
              std::uint32_t index, std::uint64_t tracked_ns)
{
    const ZoneNode &node = nodes[index];
    std::string label(static_cast<std::size_t>(node.depth - 1) * 2, ' ');
    label += node.name;
    if (label.size() > 44)
        label.resize(44);
    const double share =
        tracked_ns > 0 ? 100.0 * static_cast<double>(node.exclusiveNs()) /
                             static_cast<double>(tracked_ns)
                       : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-44s %10" PRIu64 " %11.2f %11.2f %6.1f%%\n",
                  label.c_str(), node.calls, toMs(node.inclusiveNs),
                  toMs(node.exclusiveNs()), share);
    out << line;
}

void
writeZoneTree(std::ostream &out, const std::vector<ZoneNode> &nodes,
              std::uint32_t index, std::uint64_t tracked_ns)
{
    writeZoneLine(out, nodes, index, tracked_ns);
    std::vector<std::uint32_t> children = nodes[index].children;
    std::sort(children.begin(), children.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return nodes[a].inclusiveNs > nodes[b].inclusiveNs;
              });
    for (const std::uint32_t child : children)
        writeZoneTree(out, nodes, child, tracked_ns);
}

} // namespace

void
Profiler::writeReport(std::ostream &out) const
{
    // Whole-process view: worker-thread zones folded in by (parent, name).
    const std::vector<ZoneNode> nodes = mergedNodes();
    const std::uint64_t tracked = nodes[0].childNs;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "=== self-profile: zones (wall-clock) ===\n"
                  "tracked: %.2f ms across %zu zone(s); exclusive column "
                  "sums to the tracked total\n\n",
                  toMs(tracked), nodes.size() - 1);
    out << line;
    std::snprintf(line, sizeof(line), "%-44s %10s %11s %11s %7s\n", "zone",
                  "calls", "incl ms", "excl ms", "excl%");
    out << line;
    std::vector<std::uint32_t> top = nodes[0].children;
    std::sort(top.begin(), top.end(), [&](std::uint32_t a, std::uint32_t b) {
        return nodes[a].inclusiveNs > nodes[b].inclusiveNs;
    });
    for (const std::uint32_t child : top)
        writeZoneTree(out, nodes, child, tracked);

    const std::vector<DispatchStats> dispatch = dispatchStats();
    if (!dispatch.empty()) {
        out << "\n=== self-profile: event dispatch (wall-clock) ===\n";
        std::snprintf(line, sizeof(line),
                      "%-28s %10s %11s %9s %9s %9s %9s\n", "label", "count",
                      "total ms", "mean us", "p50 us", "p99 us", "max us");
        out << line;
        for (const DispatchStats &stats : dispatch) {
            std::string label = stats.label;
            if (label.size() > 28)
                label.resize(28);
            std::snprintf(line, sizeof(line),
                          "%-28s %10" PRIu64
                          " %11.2f %9.2f %9.0f %9.0f %9.1f\n",
                          label.c_str(), stats.count, toMs(stats.totalNs),
                          stats.meanUs(), stats.percentileUs(0.50),
                          stats.percentileUs(0.99),
                          static_cast<double>(stats.maxNs) / 1000.0);
            out << line;
        }
    }

    out << "\n=== self-profile: process ===\n";
    const std::int64_t rss_kb = peakRssKb();
    if (rss_kb > 0) {
        std::snprintf(line, sizeof(line), "peak RSS: %.1f MB\n",
                      static_cast<double>(rss_kb) / 1024.0);
        out << line;
    } else {
        out << "peak RSS: unavailable on this platform\n";
    }
    const AllocStats alloc = allocStats();
    if (alloc.available) {
        std::snprintf(line, sizeof(line),
                      "heap: %" PRIu64 " allocation(s), %.1f MB total\n",
                      alloc.count,
                      static_cast<double>(alloc.bytes) / (1024.0 * 1024.0));
        out << line;
    } else {
        out << "heap: allocation counting off (configure with "
               "-DVPM_PROFILE_ALLOC=ON)\n";
    }
}

namespace {

/** Emit one synthetic flame span and, recursively, its children packed
 *  consecutively from the span's start. Returns nothing; the caller
 *  advances its own cursor by the node's inclusive time. */
void
writeChromeSpan(std::ostream &out, const std::vector<ZoneNode> &nodes,
                std::uint32_t index, double start_us, bool &first)
{
    const ZoneNode &node = nodes[index];
    if (!first)
        out << ",\n";
    first = false;
    char buf[96];
    out << R"({"ph":"X","pid":0,"tid":0,"cat":"profile","name":")";
    writeJsonEscaped(out, node.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"calls\":%" PRIu64
                  ",\"excl_ms\":%.3f}}",
                  start_us, static_cast<double>(node.inclusiveNs) / 1000.0,
                  node.calls,
                  static_cast<double>(node.exclusiveNs()) / 1e6);
    out << buf;
    double cursor = start_us;
    for (const std::uint32_t child : node.children) {
        writeChromeSpan(out, nodes, child, cursor, first);
        cursor += static_cast<double>(nodes[child].inclusiveNs) / 1000.0;
    }
}

} // namespace

void
Profiler::writeChromeTrace(std::ostream &out) const
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << R"({"ph":"M","pid":0,"name":"process_name",)"
        << R"x("args":{"name":"vpm self-profile (wall-clock, aggregate)"}})x";
    bool first = false; // metadata record already emitted
    double cursor = 0.0;
    const std::vector<ZoneNode> nodes = mergedNodes();
    for (const std::uint32_t child : nodes[0].children) {
        writeChromeSpan(out, nodes, child, cursor, first);
        cursor += static_cast<double>(nodes[child].inclusiveNs) / 1000.0;
    }
    out << "\n]}\n";
}

std::int64_t
Profiler::peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::int64_t>(usage.ru_maxrss / 1024);
#else
    return static_cast<std::int64_t>(usage.ru_maxrss);
#endif
#else
    return 0;
#endif
}

AllocStats
Profiler::allocStats()
{
    AllocStats stats;
#ifdef VPM_PROFILE_ALLOC
    stats.available = true;
#endif
    stats.count = detail::allocCount.load(std::memory_order_relaxed);
    stats.bytes = detail::allocBytes.load(std::memory_order_relaxed);
    return stats;
}

} // namespace vpm::telemetry
