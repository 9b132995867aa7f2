/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark times the calls it makes into each layer's public
 * functions; the library itself is not instrumented. Each span carries a
 * name, start and end (steady clock, ns), the index of the span that
 * caused it and the run id shared by every span of one process. Spans
 * stay in memory while the workload runs and are written out as JSON
 * lines when the run ends, so recording costs two clock reads and a
 * vector append.
 *
 * Work that happens millions of times per run (one governor tick) is
 * recorded as a counter pair (total ns, calls) instead of one span per
 * call, at the same boundary.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic wall clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = -1; ///< index of the causing span; -1 = root
};

/** Aggregated timing of a boundary crossed too often for one span each. */
struct SpanCounter
{
    std::string name;
    std::uint64_t totalNs = 0;
    std::uint64_t calls = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::uint64_t run_id) : runId_(run_id) {}

    /** Open a span now. @return its id (index), for end() and parents. */
    std::int64_t
    begin(std::string name, std::int64_t parent = -1)
    {
        spans_.push_back({std::move(name), nowNs(), 0, parent});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    void end(std::int64_t id)
    {
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    }

    /** Record an already-measured interval. */
    void
    add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
        std::int64_t parent)
    {
        spans_.push_back({std::move(name), start_ns, end_ns, parent});
    }

    /** Record an aggregated boundary (see SpanCounter). */
    void
    addCounter(std::string name, std::uint64_t total_ns, std::uint64_t calls)
    {
        counters_.push_back({std::move(name), total_ns, calls});
    }

    /** Durations, in ns, of every closed span called @p name. */
    std::vector<double> durationsNs(const std::string &name) const;

    /** Sum of durationsNs(@p name). */
    double totalNs(const std::string &name) const;

    /** Write every span and counter as one JSON object per line.
     *  @return false when @p path cannot be written. */
    bool write(const std::string &path) const;

  private:
    std::uint64_t runId_;
    std::vector<Span> spans_;
    std::vector<SpanCounter> counters_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
