/**
 * @file
 * Self-profiler unit tests: zone-tree nesting and exclusive-time
 * subtraction, the disabled no-op guarantee, dispatch histograms, and the
 * text/Chrome-trace outputs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "telemetry/profiler.hpp"

namespace vpm::telemetry {
namespace {

/** The profiler is a process-global singleton; serialize tests through a
 *  fixture that resets it and always disables on the way out. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().reset();
        Profiler::instance().setEnabled(true);
    }

    void
    TearDown() override
    {
        Profiler::instance().setEnabled(false);
        Profiler::instance().reset();
    }
};

void
spinFor(std::chrono::microseconds amount)
{
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < amount) {
    }
}

const ZoneNode *
findZone(const Profiler &prof, const std::string &name)
{
    for (const ZoneNode &node : prof.nodes()) {
        if (node.name == name)
            return &node;
    }
    return nullptr;
}

TEST_F(ProfilerTest, NestedZonesSubtractChildTimeFromParent)
{
    {
        PROF_ZONE("outer");
        spinFor(std::chrono::microseconds(2000));
        {
            PROF_ZONE("inner");
            spinFor(std::chrono::microseconds(2000));
        }
    }

    Profiler &prof = Profiler::instance();
    const ZoneNode *outer = findZone(prof, "outer");
    const ZoneNode *inner = findZone(prof, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);

    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(inner->calls, 1u);
    EXPECT_EQ(inner->parent, 1u); // outer is the first non-root node
    EXPECT_GE(outer->inclusiveNs, inner->inclusiveNs);
    // Exclusive = inclusive − time spent in children.
    EXPECT_EQ(outer->exclusiveNs(),
              outer->inclusiveNs - inner->inclusiveNs);
    // Both phases spun ~2 ms, so outer's exclusive share is real time.
    EXPECT_GT(outer->exclusiveNs(), 1000000u);
    // Root's child time (the tracked total) equals outer's inclusive.
    EXPECT_EQ(prof.totalTrackedNs(), outer->inclusiveNs);
}

TEST_F(ProfilerTest, ExclusiveTimesSumToTrackedTotal)
{
    {
        PROF_ZONE("a");
        {
            PROF_ZONE("b");
            { PROF_ZONE("c"); }
        }
        { PROF_ZONE("b"); }
    }
    { PROF_ZONE("d"); }

    Profiler &prof = Profiler::instance();
    std::uint64_t exclusive_sum = 0;
    for (const ZoneNode &node : prof.nodes()) {
        if (node.name != "(root)")
            exclusive_sum += node.exclusiveNs();
    }
    EXPECT_EQ(exclusive_sum, prof.totalTrackedNs());
}

TEST_F(ProfilerTest, RepeatedSiblingAggregatesIntoOneNode)
{
    for (int i = 0; i < 5; ++i) {
        PROF_ZONE("loop");
    }
    const ZoneNode *loop = findZone(Profiler::instance(), "loop");
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->calls, 5u);
}

TEST_F(ProfilerTest, SameNameUnderDifferentParentsIsDifferentZones)
{
    {
        PROF_ZONE("p1");
        { PROF_ZONE("shared"); }
    }
    {
        PROF_ZONE("p2");
        { PROF_ZONE("shared"); }
    }
    int shared_nodes = 0;
    for (const ZoneNode &node : Profiler::instance().nodes()) {
        if (node.name == std::string("shared"))
            ++shared_nodes;
    }
    EXPECT_EQ(shared_nodes, 2);
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing)
{
    Profiler::instance().setEnabled(false);
    {
        PROF_ZONE("invisible");
        { PROF_ZONE("also.invisible"); }
    }
    EXPECT_EQ(Profiler::instance().nodes().size(), 1u); // just the root
    EXPECT_EQ(Profiler::instance().totalTrackedNs(), 0u);
    EXPECT_TRUE(Profiler::instance().dispatchStats().empty());
}

TEST_F(ProfilerTest, ResetClearsZonesAndDispatch)
{
    { PROF_ZONE("zone"); }
    Profiler::instance().recordDispatch("evt", 1500);
    Profiler::instance().reset();
    EXPECT_EQ(Profiler::instance().nodes().size(), 1u);
    EXPECT_TRUE(Profiler::instance().dispatchStats().empty());

    // The tree works again after reset.
    { PROF_ZONE("zone2"); }
    EXPECT_NE(findZone(Profiler::instance(), "zone2"), nullptr);
}

TEST_F(ProfilerTest, DispatchStatsAggregateByLabel)
{
    Profiler &prof = Profiler::instance();
    prof.recordDispatch("tick", 1000);   // 1 us
    prof.recordDispatch("tick", 3000);   // 3 us
    prof.recordDispatch("other", 64000); // 64 us

    const std::vector<DispatchStats> stats = prof.dispatchStats();
    ASSERT_EQ(stats.size(), 2u);
    // Sorted by total time: "other" first.
    EXPECT_EQ(stats[0].label, "other");
    EXPECT_EQ(stats[0].count, 1u);
    EXPECT_EQ(stats[1].label, "tick");
    EXPECT_EQ(stats[1].count, 2u);
    EXPECT_EQ(stats[1].totalNs, 4000u);
    EXPECT_EQ(stats[1].maxNs, 3000u);
    EXPECT_DOUBLE_EQ(stats[1].meanUs(), 2.0);
    // Percentiles are bucket upper bounds (powers of two).
    EXPECT_GT(stats[0].percentileUs(0.99), 64.0 - 1.0);
}

TEST_F(ProfilerTest, DispatchRowsAreKeyedByTextNotPointer)
{
    // Two buffers with the same text, as two translation units' copies of
    // one literal would be: one row, whichever pointer arrives.
    const char first[] = "same.label";
    const std::string second = "same.label";
    ASSERT_NE(static_cast<const void *>(first),
              static_cast<const void *>(second.c_str()));
    Profiler &prof = Profiler::instance();
    prof.recordDispatch(first, 1000);
    prof.recordDispatch(second.c_str(), 2000);
    prof.recordDispatch(first, 4000);
    prof.recordDispatch("", 8000);

    const std::vector<DispatchStats> stats = prof.dispatchStats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].label, "(unlabeled)");
    EXPECT_EQ(stats[0].count, 1u);
    EXPECT_EQ(stats[1].label, "same.label");
    EXPECT_EQ(stats[1].count, 3u);
    EXPECT_EQ(stats[1].totalNs, 7000u);
}

TEST_F(ProfilerTest, ReportContainsZonesDispatchAndProcessSections)
{
    {
        PROF_ZONE("report.zone");
        spinFor(std::chrono::microseconds(100));
    }
    Profiler::instance().recordDispatch("report.event", 5000);

    std::ostringstream out;
    Profiler::instance().writeReport(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("self-profile: zones"), std::string::npos);
    EXPECT_NE(text.find("report.zone"), std::string::npos);
    EXPECT_NE(text.find("self-profile: event dispatch"), std::string::npos);
    EXPECT_NE(text.find("report.event"), std::string::npos);
    EXPECT_NE(text.find("self-profile: process"), std::string::npos);
}

TEST_F(ProfilerTest, ChromeTraceNestsChildInsideParentSpan)
{
    {
        PROF_ZONE("parent");
        {
            PROF_ZONE("child");
            spinFor(std::chrono::microseconds(200));
        }
    }
    std::ostringstream out;
    Profiler::instance().writeChromeTrace(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"name\":\"parent\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Minimal structural sanity: it is one JSON object with traceEvents.
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ProfilerTest, MergedNodesFoldWorkerZonesByParentAndName)
{
    // Main thread and a worker both run "shared.zone"; the worker also
    // has a private one. mergedNodes() must fold same-(parent, name)
    // zones together and keep the rest, while nodes() stays main-only.
    {
        PROF_ZONE("shared.zone");
        spinFor(std::chrono::microseconds(100));
    }
    std::thread worker([] {
        {
            PROF_ZONE("shared.zone");
            spinFor(std::chrono::microseconds(100));
        }
        {
            PROF_ZONE("worker.only");
            { PROF_ZONE("worker.child"); }
        }
    });
    worker.join(); // join = the happens-before edge merging relies on

    Profiler &prof = Profiler::instance();
    // The historical main-thread view is untouched by worker activity.
    EXPECT_NE(findZone(prof, "shared.zone"), nullptr);
    EXPECT_EQ(findZone(prof, "worker.only"), nullptr);

    const std::vector<ZoneNode> merged = prof.mergedNodes();
    const auto find_merged = [&](const std::string &name) -> const ZoneNode * {
        for (const ZoneNode &node : merged)
            if (node.name == name)
                return &node;
        return nullptr;
    };
    const ZoneNode *shared = find_merged("shared.zone");
    const ZoneNode *worker_only = find_merged("worker.only");
    const ZoneNode *worker_child = find_merged("worker.child");
    ASSERT_NE(shared, nullptr);
    ASSERT_NE(worker_only, nullptr);
    ASSERT_NE(worker_child, nullptr);
    EXPECT_EQ(shared->calls, 2u); // one per thread, folded
    EXPECT_EQ(worker_only->calls, 1u);
    EXPECT_EQ(merged[worker_child->parent].name, "worker.only");
    // The merged tracked total covers both threads' top-level zones.
    EXPECT_GE(merged[0].childNs, prof.totalTrackedNs());
}

TEST_F(ProfilerTest, PeakRssIsPositiveOnSupportedPlatforms)
{
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_GT(Profiler::peakRssKb(), 0);
#else
    GTEST_SKIP() << "no getrusage on this platform";
#endif
}

} // namespace
} // namespace vpm::telemetry
