/**
 * @file
 * Wall-clock self-profiler for the simulator process.
 *
 * PRs 1–2 instrumented the simulated datacenter (sim-time journal, metrics,
 * causal tracing); this layer instruments the simulator *itself*: where
 * does the process spend real time while it chews through a scenario?
 *
 * The interface is a hierarchical RAII scoped timer:
 *
 *     void VpmManager::managementCycle() {
 *         PROF_ZONE("mgmt.cycle");
 *         ...
 *     }
 *
 * Zones form a call tree keyed by (parent zone, name): the same
 * "placement.plan" zone appears once under "mgmt.rebalance" and once under
 * "mgmt.capacity" if it is reached both ways, so the report reads like a
 * collapsed flame graph. Per zone we aggregate call count, inclusive
 * wall-clock time and child time; exclusive time is inclusive minus child
 * time, so the exclusive column across the whole tree sums to the total
 * tracked time (no double counting).
 *
 * Cost model: when disabled (the default) a PROF_ZONE is one load and one
 * predictable branch — cheap enough to leave compiled into the hottest
 * paths (event-queue push/pop, journal append). When enabled, a zone is
 * two steady_clock reads plus a small-children linear lookup.
 *
 * The profiler is process-global and thread-aware: each thread owns a
 * private zone tree (a plain thread_local — enter/leave never touch a
 * lock), and mergedNodes() folds the worker trees into the main thread's
 * by (parent, name) when a report is written. Merging and reset() must
 * run while no worker is inside a zone — in this codebase that means
 * outside any ThreadPool::parallelFor, whose fork-join barrier provides
 * the needed happens-before edge. nodes()/totalTrackedNs() keep their
 * historical meaning: the main thread's tree only. Tests that want
 * isolation call reset().
 *
 * Beyond zones it also collects:
 *  - per-event-label dispatch timing (count, total, max, log2-bucket
 *    histogram) fed by Simulator::dispatchOne, so "which event type burns
 *    the wall clock" is answerable directly;
 *  - process stats: peak RSS, plus heap-allocation counters when the build
 *    enables VPM_PROFILE_ALLOC (a counting operator new hook; see
 *    alloc_hook.cpp).
 *
 * Reports: writeReport() prints the flame-style text tree; a wall-clock
 * Chrome-trace track (complementing the sim-time tracks of export.hpp) and
 * the machine-readable BENCH_*.json schema live in bench_report.hpp.
 */

#ifndef VPM_TELEMETRY_PROFILER_HPP
#define VPM_TELEMETRY_PROFILER_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vpm::telemetry {

namespace detail {
/** Incremented by the counting operator new (alloc_hook.cpp) in
 *  VPM_PROFILE_ALLOC builds; otherwise stay zero. Atomics because the
 *  allocator hook must be safe even if a dependency spins up a thread. */
extern std::atomic<std::uint64_t> allocCount;
extern std::atomic<std::uint64_t> allocBytes;
} // namespace detail

/** One aggregated node of the zone call tree. */
struct ZoneNode
{
    std::string name;          ///< zone label as passed to PROF_ZONE
    const char *key = nullptr; ///< last literal pointer that matched this
                               ///< node: enter()'s fast path is a pointer
                               ///< compare, since PROF_ZONE names are
                               ///< string literals with stable addresses
    std::uint32_t parent = 0;  ///< index into Profiler::nodes(); the root
                               ///< (index 0) is its own parent
    std::uint32_t depth = 0;   ///< root = 0, its children = 1, ...
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t childNs = 0; ///< summed inclusive time of direct children

    /** Time spent in this zone but not in any child zone. */
    std::uint64_t
    exclusiveNs() const
    {
        return inclusiveNs > childNs ? inclusiveNs - childNs : 0;
    }

    std::vector<std::uint32_t> children; ///< node indices, creation order
};

/** Number of log2 dispatch-latency buckets (bucket i covers
 *  [2^i, 2^(i+1)) microseconds; the first also takes sub-microsecond
 *  dispatches and the last everything slower). */
inline constexpr std::size_t dispatchBucketCount = 16;

/** Aggregated wall-clock cost of dispatching one event label. */
struct DispatchStats
{
    std::string label;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t maxNs = 0;
    std::array<std::uint64_t, dispatchBucketCount> buckets{};

    double
    meanUs() const
    {
        return count ? static_cast<double>(totalNs) / 1000.0 /
                           static_cast<double>(count)
                     : 0.0;
    }

    /** Bucket-resolution percentile (upper bucket edge), in microseconds. */
    double percentileUs(double fraction) const;
};

/** Heap-allocation counters; `available` is false unless the build was
 *  configured with -DVPM_PROFILE_ALLOC=ON. */
struct AllocStats
{
    bool available = false;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

/** The process-global zone/dispatch profiler. */
class Profiler
{
  public:
    Profiler();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    static Profiler &instance();

    /** The disabled-mode fast path: one load + branch in ProfileScope.
     *  A relaxed atomic load — same single mov as the plain bool it
     *  replaces, but race-free when pool workers hit PROF_ZONEs. */
    static bool
    profilingEnabled()
    {
        return enabledFlag_.load(std::memory_order_relaxed);
    }

    /** Flip collection on or off. Toggling mid-zone is safe: scopes that
     *  saw the profiler disabled at entry never report. */
    void setEnabled(bool on);

    /** @name Hot-path hooks (call via ProfileScope / Simulator) */
    ///@{
    /** Find-or-create the child zone @p name of the calling thread's
     *  current zone, make it current, and return its node index (within
     *  that thread's tree). Lock-free: touches only thread-local state. */
    std::uint32_t enter(const char *name);

    /** Close the zone opened at @p start_ns; restores its parent as the
     *  calling thread's current zone. Must pair LIFO with enter() on the
     *  same thread (RAII guarantees it). */
    void leave(std::uint32_t node, std::uint64_t start_ns);

    /** leave() with the clock read hoisted out: @p now_ns must be a
     *  nowNs() taken after the zone's work. Lets per-event hot paths
     *  (Simulator::dispatchOne) share one timestamp between the end of
     *  one zone and the start of the next instead of reading the clock
     *  twice. */
    void leaveAt(std::uint32_t node, std::uint64_t start_ns,
                 std::uint64_t now_ns);

    /** Record one event dispatch of @p label taking @p ns wall-clock;
     *  "" reports as "(unlabeled)". Rows are keyed by text, found by
     *  pointer first (event labels are literals). Main-thread only (fed
     *  by Simulator::dispatchOne). */
    void recordDispatch(const char *label, std::uint64_t ns);
    ///@}

    /** Monotonic wall-clock nanoseconds (steady_clock). */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Drop every zone and dispatch record (keeps the enabled flag),
     *  across every thread's tree. Callers must ensure no thread is
     *  inside a zone (pool quiescent). */
    void reset();

    /** The main thread's zone tree; index 0 is the synthetic root. Valid
     *  until the next enter()/reset(). Worker-thread zones are NOT here —
     *  use mergedNodes() for the whole-process view. */
    const std::vector<ZoneNode> &nodes() const { return mainState_.nodes; }

    /**
     * The whole-process zone tree: the main thread's tree with every
     * worker thread's tree folded in by (parent, name), worker trees in
     * thread-registration order. Index 0 is the synthetic root; its
     * childNs is the merged tracked total. Must run while no worker is
     * inside a zone.
     */
    std::vector<ZoneNode> mergedNodes() const;

    /** Wall-clock accounted to the main thread's top-level zones (the
     *  root's child time); see mergedNodes()[0].childNs for all threads. */
    std::uint64_t totalTrackedNs() const
    {
        return mainState_.nodes[0].childNs;
    }

    /** Dispatch-cost table, most expensive label first. */
    std::vector<DispatchStats> dispatchStats() const;

    /**
     * Flame-style text report: the zone tree (calls, inclusive/exclusive
     * ms, share of tracked time), the dispatch table and process stats.
     */
    void writeReport(std::ostream &out) const;

    /**
     * Wall-clock Chrome-trace JSON of the *aggregate* tree: each zone
     * becomes one complete ("X") span, children laid out consecutively
     * inside their parent. This is a synthetic flame graph — per-call
     * spans are not retained — so it is O(zones), not O(calls), and
     * costs nothing on the hot path. Loads in Perfetto next to the
     * sim-time tracks from export.hpp.
     */
    void writeChromeTrace(std::ostream &out) const;

    /** @name Process statistics */
    ///@{
    /** Peak resident set size of this process in kilobytes (getrusage);
     *  0 when the platform does not report it. */
    static std::int64_t peakRssKb();

    /** Global heap-allocation counters (see alloc_hook.cpp). */
    static AllocStats allocStats();
    ///@}

  private:
    /** One thread's private call tree; index 0 is the synthetic root. */
    struct ThreadState
    {
        ThreadState();
        std::vector<ZoneNode> nodes;
        std::uint32_t current = 0;
    };

    /** The calling thread's state: mainState_ on the thread that built
     *  the profiler, a lazily registered per-thread state elsewhere. */
    ThreadState &localState();

    /** Fold `from[node]` (and its subtree) into `merged[into]`. */
    static void mergeTree(std::vector<ZoneNode> &merged, std::uint32_t into,
                          const std::vector<ZoneNode> &from,
                          std::uint32_t node);

    // The enabled flag is static so ProfileScope's disabled path needs no
    // instance() call.
    static std::atomic<bool> enabledFlag_;

    ThreadState mainState_;
    std::thread::id mainThreadId_;

    /** Guards workerStates_ (registration + merge); never taken on the
     *  enter/leave hot path. States live for the process lifetime so
     *  thread_local pointers into them stay valid across reset(). */
    mutable std::mutex statesMutex_;
    std::vector<std::unique_ptr<ThreadState>> workerStates_;

    // Labels are few (tens), so linear scans suffice.
    std::vector<DispatchStats> dispatch_;
    /** Parallel to dispatch_: the literal pointer that last matched each
     *  row, recordDispatch()'s fast path. */
    std::vector<const char *> dispatchKeys_;
};

/** RAII zone timer; use through PROF_ZONE rather than directly. */
class ProfileScope
{
  public:
    explicit ProfileScope(const char *name)
    {
        if (!Profiler::profilingEnabled())
            return;
        startNs_ = Profiler::nowNs();
        node_ = Profiler::instance().enter(name);
        active_ = true;
    }

    ~ProfileScope()
    {
        if (active_)
            Profiler::instance().leave(node_, startNs_);
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    std::uint64_t startNs_ = 0;
    std::uint32_t node_ = 0;
    bool active_ = false;
};

} // namespace vpm::telemetry

#define VPM_PROF_CONCAT2(a, b) a##b
#define VPM_PROF_CONCAT(a, b) VPM_PROF_CONCAT2(a, b)

/** Open a profiler zone for the rest of the enclosing block. */
#define PROF_ZONE(name)                                                      \
    ::vpm::telemetry::ProfileScope VPM_PROF_CONCAT(vpm_prof_zone_,           \
                                                   __LINE__)(name)

#endif // VPM_TELEMETRY_PROFILER_HPP
