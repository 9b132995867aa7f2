/** @file Unit tests for the telemetry registry, journal and facade. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::telemetry {
namespace {

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistryTest, CounterFindOrCreateReturnsStableHandle)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("events");
    c.increment();
    c.increment(2);
    EXPECT_EQ(registry.counter("events").value(), 3u);
    EXPECT_EQ(&registry.counter("events"), &c);
    EXPECT_EQ(c.name(), "events");
}

TEST(MetricsRegistryTest, GaugeSetAndAdd)
{
    MetricsRegistry registry;
    Gauge &g = registry.gauge("watts");
    g.set(100.0);
    g.add(-25.0);
    EXPECT_DOUBLE_EQ(registry.gauge("watts").value(), 75.0);
}

TEST(MetricsRegistryTest, ZeroClearsValuesButKeepsRegistrations)
{
    MetricsRegistry registry;
    Counter &c = registry.counter("n");
    Gauge &g = registry.gauge("v");
    HistogramMetric &h = registry.histogram("h", 0.0, 1.0, 4);
    c.increment(5);
    g.set(2.0);
    h.observe(0.5);

    registry.zero();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
    // Same handles still registered: no re-creation on lookup.
    EXPECT_EQ(&registry.counter("n"), &c);
    EXPECT_EQ(registry.counters().size(), 1u);
}

TEST(HistogramTest, LowerEdgeInclusiveUpperEdgeExclusive)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("lat", 0.0, 10.0, 10);

    h.observe(0.0);  // first bucket, inclusive lower edge
    h.observe(1.0);  // exact internal edge belongs to the upper bucket
    h.observe(9.999); // last bucket
    h.observe(10.0); // upper edge is exclusive -> overflow
    h.observe(-0.001); // below range -> underflow

    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.count(), 5u);
}

TEST(HistogramTest, EveryInternalEdgeBelongsToItsUpperBucket)
{
    // The documented convention: bucket i spans [lower + i*w, lower +
    // (i+1)*w) — closed below, open above — so a sample exactly on an
    // internal edge always counts in the bucket whose range it opens.
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("edges", 0.0, 4.0, 4);
    h.observe(0.0);
    h.observe(1.0);
    h.observe(2.0);
    h.observe(3.0);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(HistogramTest, SamplesAboveLastBucketCountOnceAndKeepSums)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("over", 0.0, 10.0, 10);
    h.observe(10.0); // the upper edge itself is already out of range
    h.observe(1e9);  // far overflow lands in the same overflow counter
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 2u);
    // Out-of-range samples still contribute to sum/mean: the histogram is
    // a full account of what was observed, buckets only bound resolution.
    EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 1e9);
}

TEST(HistogramTest, SumMeanAndRangeAccessors)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("x", 0.0, 8.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 2.0);
    h.observe(1.0);
    h.observe(3.0);
    EXPECT_DOUBLE_EQ(h.sum(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_DOUBLE_EQ(h.lowerEdge(), 0.0);
    EXPECT_DOUBLE_EQ(h.upperEdge(), 8.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("p", 0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.observe(static_cast<double>(i) + 0.5);
    // Uniform fill: the median lands near the middle of the range and the
    // tail percentile near its top.
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(HistogramTest, PercentileClampsOutOfRangeSamples)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("c", 0.0, 10.0, 10);
    h.observe(-5.0);
    h.observe(50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramTest, CreationParametersApplyOnlyOnFirstUse)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("once", 0.0, 10.0, 10);
    HistogramMetric &again = registry.histogram("once", 5.0, 500.0, 2);
    EXPECT_EQ(&h, &again);
    EXPECT_DOUBLE_EQ(again.upperEdge(), 10.0);
    EXPECT_EQ(again.buckets().size(), 10u);
}

// ---------------------------------------------------------------- journal

TEST(EventJournalTest, SortedEventsOrderOutOfOrderInsertions)
{
    EventJournal journal;
    journal.configure(16, true);

    const auto at = [](std::int64_t t) {
        JournalEvent ev;
        ev.timeUs = t;
        return ev;
    };
    // Two sources flushing at different moments: times arrive shuffled,
    // with a tie between the first and third insertion.
    journal.record(at(30));
    journal.record(at(10));
    journal.record(at(30));
    journal.record(at(20));

    const std::vector<JournalEvent> sorted = journal.sortedEvents();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted[0].timeUs, 10);
    EXPECT_EQ(sorted[1].timeUs, 20);
    EXPECT_EQ(sorted[2].timeUs, 30);
    EXPECT_EQ(sorted[3].timeUs, 30);
    // The tie resolves in insertion order (stable sort by time).
    EXPECT_LT(sorted[2].seq, sorted[3].seq);
}

TEST(EventJournalTest, RingOverwritesOldestWhenFull)
{
    EventJournal journal;
    journal.configure(4, true);

    for (std::int64_t t = 1; t <= 6; ++t) {
        JournalEvent ev;
        ev.timeUs = t;
        journal.record(ev);
    }
    EXPECT_EQ(journal.size(), 4u);
    EXPECT_EQ(journal.capacity(), 4u);
    EXPECT_EQ(journal.recorded(), 6u);
    EXPECT_EQ(journal.dropped(), 2u);

    const std::vector<JournalEvent> sorted = journal.sortedEvents();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted.front().timeUs, 3); // 1 and 2 were overwritten
    EXPECT_EQ(sorted.back().timeUs, 6);
}

TEST(EventJournalTest, WraparoundExportEmitsOnlySurvivors)
{
    // After the ring wraps, the JSONL exporter must emit exactly the
    // surviving (newest) records — never the overwritten ones — and the
    // drop accounting must agree with what the file shows.
    EventJournal journal;
    journal.configure(4, true);
    for (std::int64_t t = 1; t <= 7; ++t)
        journal.wakeDecision(t * 1'000'000, 0, "capacity-shortfall");
    EXPECT_EQ(journal.recorded(), 7u);
    EXPECT_EQ(journal.dropped(), 3u);
    EXPECT_EQ(journal.size(), journal.recorded() - journal.dropped());

    std::ostringstream out;
    writeJournalJsonl(journal, out);
    const std::string text = out.str();
    for (std::int64_t t = 1; t <= 3; ++t)
        EXPECT_EQ(text.find("\"t_us\":" + std::to_string(t * 1'000'000)),
                  std::string::npos)
            << "overwritten record " << t << " leaked into the export";
    std::size_t lines = 0;
    for (std::int64_t t = 4; t <= 7; ++t) {
        EXPECT_NE(text.find("\"t_us\":" + std::to_string(t * 1'000'000)),
                  std::string::npos)
            << "surviving record " << t << " missing from the export";
        ++lines;
    }
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              lines);
    // Sequence numbers keep counting across the wrap (4 survivors end at
    // seq 7, the total recorded), so gaps reveal drops to the analyzer.
    EXPECT_NE(text.find("\"seq\":7"), std::string::npos);
    EXPECT_EQ(text.find("\"seq\":3"), std::string::npos);
}

TEST(EventJournalTest, InterningIsIdempotentAndEmptyIsZero)
{
    EventJournal journal;
    journal.configure(8, true);
    EXPECT_EQ(journal.intern(""), 0);
    const LabelId s3 = journal.intern("S3");
    EXPECT_EQ(journal.intern("S3"), s3);
    EXPECT_NE(journal.intern("S5"), s3);
    EXPECT_EQ(journal.label(s3), "S3");
    EXPECT_EQ(journal.label(0), "");
    EXPECT_EQ(journal.labelCount(), 3u); // "", "S3", "S5"
}

TEST(EventJournalTest, TypedEmitterMapsFields)
{
    EventJournal journal;
    journal.configure(8, true);
    journal.powerTransition(5'000'000, 3, "On", "Entering", "S3", 2.5,
                            310.0);

    const std::vector<JournalEvent> sorted = journal.sortedEvents();
    ASSERT_EQ(sorted.size(), 1u);
    const JournalEvent &ev = sorted.front();
    EXPECT_EQ(ev.kind, EventKind::PowerTransition);
    EXPECT_EQ(ev.domain, TrackDomain::Host);
    EXPECT_EQ(ev.track, 3);
    EXPECT_EQ(journal.label(ev.labelA), "On");
    EXPECT_EQ(journal.label(ev.labelB), "Entering");
    EXPECT_EQ(journal.label(ev.labelC), "S3");
    EXPECT_DOUBLE_EQ(ev.a, 2.5);
    EXPECT_DOUBLE_EQ(ev.b, 310.0);
}

TEST(EventJournalTest, TrackNamesSurviveReconfiguration)
{
    EventJournal journal;
    // Registration works while disabled (hosts are built before a bench
    // decides to enable tracing).
    journal.registerTrack(TrackDomain::Host, 7, "host07");
    journal.configure(8, true);
    EXPECT_EQ(journal.trackName(TrackDomain::Host, 7), "host07");
    EXPECT_EQ(journal.trackName(TrackDomain::Vm, 7), "");

    const std::int32_t track =
        journal.allocateTrack(TrackDomain::Host, "synthetic");
    EXPECT_GE(track, 1 << 20); // never collides with natural host ids
    EXPECT_EQ(journal.trackName(TrackDomain::Host, track), "synthetic");
}

std::string
shortHostName(std::int32_t host)
{
    return "h" + std::to_string(host);
}

TEST(EventJournalTest, LazyHostTracksAreNamedOnFirstLookup)
{
    EventJournal journal; // disabled
    for (std::int32_t h = 0; h < 10000; ++h)
        journal.registerHostTrackLazily(h, &shortHostName);
    EXPECT_EQ(journal.trackCount(), 0u);

    journal.configure(8, true); // enabled after the hosts were named
    EXPECT_EQ(journal.trackName(TrackDomain::Host, 42), "h42");
    EXPECT_EQ(journal.trackCount(), 1u);
    EXPECT_EQ(journal.trackName(TrackDomain::Host, 10000), "");
    EXPECT_EQ(journal.trackName(TrackDomain::Vm, 42), "");

    // The last registration wins, lazy or not, as with registerTrack().
    journal.registerTrack(TrackDomain::Host, 7, "custom");
    EXPECT_EQ(journal.trackName(TrackDomain::Host, 7), "custom");
    journal.registerHostTrackLazily(7, &shortHostName);
    EXPECT_EQ(journal.trackName(TrackDomain::Host, 7), "h7");
}

// ----------------------------------------------------------------- facade

TEST(TelemetryTest, DisabledEmitsNothingAndAllocatesNothing)
{
    Telemetry telemetry; // default config: disabled

    // Typed emitters, raw records and label interning must all early-out.
    telemetry.journal().powerTransition(1, 0, "On", "Entering", "S3", 1.0,
                                        2.0);
    telemetry.journal().migrationStart(2, 1, 0, 1, 3.0);
    telemetry.journal().record(JournalEvent{});
    EXPECT_EQ(telemetry.journal().intern("wasted"), 0);
    telemetry.sampleSeries(5);

    EXPECT_FALSE(telemetry.enabled());
    EXPECT_EQ(telemetry.journal().capacity(), 0u) << "no ring allocated";
    EXPECT_EQ(telemetry.journal().size(), 0u);
    EXPECT_EQ(telemetry.journal().recorded(), 0u);
    EXPECT_EQ(telemetry.journal().labelCount(), 1u)
        << "only the empty label exists";
    EXPECT_TRUE(telemetry.seriesRows().empty());
    EXPECT_TRUE(telemetry.seriesColumns().empty());
}

TEST(TelemetryTest, ConfigurePreallocatesAndDisableReleases)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    config.journalCapacity = 32;
    telemetry.configure(config);

    EXPECT_TRUE(telemetry.enabled());
    EXPECT_EQ(telemetry.journal().capacity(), 32u);
    telemetry.journal().sleepDecision(1'000, 4, "S3", 600.0);
    EXPECT_EQ(telemetry.journal().size(), 1u);

    config.enabled = false;
    telemetry.configure(config);
    EXPECT_EQ(telemetry.journal().capacity(), 0u);
    EXPECT_EQ(telemetry.journal().size(), 0u);
}

TEST(TelemetryTest, SeriesColumnsFreezeAtFirstSample)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);

    telemetry.metrics().counter("c").increment(7);
    telemetry.metrics().gauge("g").set(1.5);
    telemetry.sampleSeries(1'000);

    // Metrics created after the first sample are not retro-added.
    telemetry.metrics().gauge("late").set(9.0);
    telemetry.sampleSeries(2'000);

    const std::vector<std::string> &columns = telemetry.seriesColumns();
    ASSERT_EQ(columns.size(), 2u);
    EXPECT_EQ(columns[0], "ctr.c");
    EXPECT_EQ(columns[1], "gauge.g");

    ASSERT_EQ(telemetry.seriesRows().size(), 2u);
    const SeriesRow &row = telemetry.seriesRows().front();
    EXPECT_EQ(row.timeUs, 1'000);
    ASSERT_EQ(row.values.size(), 2u);
    EXPECT_DOUBLE_EQ(row.values[0], 7.0);
    EXPECT_DOUBLE_EQ(row.values[1], 1.5);
}

TEST(TelemetryTest, ResetDropsDataButKeepsRegistrations)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);

    Counter &c = telemetry.metrics().counter("kept");
    c.increment(3);
    telemetry.journal().wakeDecision(10, 0, "capacity-shortfall");
    telemetry.sampleSeries(10);

    telemetry.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(telemetry.journal().size(), 0u);
    EXPECT_TRUE(telemetry.seriesRows().empty());
    EXPECT_EQ(&telemetry.metrics().counter("kept"), &c);
}

// ------------------------------------------------ staging x wraparound

TEST(EventJournalTest, StagedFlushWrapsTheRingLikeDirectRecording)
{
    EventJournal journal;
    journal.configure(4, true);

    // Ten events staged across two stages, flushed in order under an
    // ambient decision scope: the flush assigns the same sequence numbers
    // and cause stamps direct record() calls would have.
    JournalStage a;
    JournalStage b;
    for (int i = 0; i < 6; ++i)
        a.slaViolation(i * 100, i, 0.5, 1000.0);
    for (int i = 6; i < 10; ++i)
        b.slaViolation(i * 100, i, 0.5, 1000.0);

    TraceScope scope(777);
    EXPECT_EQ(journal.flush(a), 6u);
    EXPECT_EQ(journal.flush(b), 4u);
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());

    EXPECT_EQ(journal.recorded(), 10u);
    EXPECT_EQ(journal.size(), 4u);
    EXPECT_EQ(journal.dropped(), 6u);

    // Only the newest four survive, with contiguous sequence numbers and
    // the ambient cause stamped at flush time.
    const auto events = journal.sortedEvents();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 7u + i);
        EXPECT_EQ(events[i].track, static_cast<std::int32_t>(6 + i));
        EXPECT_EQ(events[i].cause, 777u);
    }
}

TEST(EventJournalTest, FlushIntoDisabledJournalClearsTheStage)
{
    EventJournal journal; // never configured: disabled
    JournalStage stage;
    stage.slaViolation(0, 1, 0.5, 1000.0);
    EXPECT_EQ(journal.flush(stage), 0u);
    EXPECT_TRUE(stage.empty());
    EXPECT_EQ(journal.recorded(), 0u);
}

// -------------------------------------------- histogram snapshot reads

TEST(HistogramTest, SnapshotMatchesRawAccessorsAndPercentiles)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("lat", 0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.observe(static_cast<double>(i % 12)); // includes overflow at 10,11

    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.lo, h.lowerEdge());
    EXPECT_EQ(snap.hi, h.upperEdge());
    EXPECT_EQ(snap.buckets, h.buckets());
    EXPECT_EQ(snap.underflow, h.underflow());
    EXPECT_EQ(snap.overflow, h.overflow());
    EXPECT_EQ(snap.count, h.count());
    EXPECT_DOUBLE_EQ(snap.sum, h.sum());
    EXPECT_DOUBLE_EQ(snap.mean(), h.mean());
    for (const double f : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(snap.percentile(f), h.percentile(f));
}

TEST(HistogramTest, SnapshotsAreNeverTornUnderConcurrentObserves)
{
    MetricsRegistry registry;
    HistogramMetric &h = registry.histogram("lat", 0.0, 100.0, 20);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        double x = 0.0;
        while (!stop.load(std::memory_order_relaxed)) {
            h.observe(x);
            x += 1.0;
            if (x > 120.0)
                x = -5.0; // exercise under- and overflow too
        }
    });

    // Every snapshot must be internally consistent: the bucket counts plus
    // the out-of-range tallies always add up to the total observation
    // count, which a torn (un-guarded) copy would violate.
    for (int i = 0; i < 2000; ++i) {
        const HistogramSnapshot snap = h.snapshot();
        std::uint64_t in_range = 0;
        for (const std::uint64_t c : snap.buckets)
            in_range += c;
        ASSERT_EQ(in_range + snap.underflow + snap.overflow, snap.count);
    }
    stop.store(true);
    writer.join();
}

// --------------------------------------------------- CSV field quoting

TEST(CsvQuoteTest, FollowsRfc4180)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote(""), "");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvQuote("cr\rhere"), "\"cr\rhere\"");
    EXPECT_EQ(csvQuote(","), "\",\"");
    EXPECT_EQ(csvQuote("\""), "\"\"\"\"");
}

} // namespace
} // namespace vpm::telemetry
