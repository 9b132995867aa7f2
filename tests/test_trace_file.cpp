/**
 * @file
 * vpm-trace-2 tests: writer/reader round-trip against a StepTrace
 * reference (fixed and randomized query orders, blocks shorter and
 * longer than the breakpoint spacing), exact span semantics through both
 * read paths (cursor views and the fed span table), quantization,
 * equal-level merging, backward seeks, the bounded-window contract, and
 * malformed-file rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "replay/trace_file.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::replay {
namespace {

/** Deterministic splitmix64 (same idiom as the telemetry tests). */
struct SplitMix
{
    std::uint64_t state;
    explicit SplitMix(std::uint64_t seed) : state(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("vpm_trace_test_" + tag + ".vpmtrc"))
        .string();
}

/** Quantize exactly like the writer so the reference matches. */
double
quantized(double util, std::uint32_t quantum)
{
    if (util < 0.0)
        util = 0.0;
    if (util > 1.0)
        util = 1.0;
    const auto level = static_cast<std::uint32_t>(
        util * static_cast<double>(quantum) + 0.5);
    return static_cast<double>(level) / static_cast<double>(quantum);
}

TEST(TraceFileTest, RoundTripsAgainstStepTraceReference)
{
    const std::string path = tempPath("roundtrip");
    constexpr std::uint32_t kVms = 7;
    constexpr std::uint32_t kQuantum = 10000;
    // Quarter-second blocks, so every VM spans many of them.
    TraceFileWriter writer(path, kVms, kQuantum, 250'000);
    ASSERT_TRUE(writer.ok());

    SplitMix rng(77);
    std::vector<std::vector<workload::StepTrace::Step>> reference(kVms);
    for (std::uint32_t v = 0; v < kVms; ++v) {
        std::int64_t ts = 0;
        const int breakpoints = 40 + static_cast<int>(rng.next() % 200);
        for (int i = 0; i < breakpoints; ++i) {
            const double util = rng.uniform();
            writer.append(v, ts, util);
            // Mirror the writer's merge of equal consecutive levels so the
            // reference's span boundaries line up with the stored ones.
            const double level = quantized(util, kQuantum);
            if (reference[v].empty() || reference[v].back().level != level)
                reference[v].push_back({sim::SimTime::micros(ts), level});
            ts += 1000 + static_cast<std::int64_t>(rng.next() % 900000);
        }
    }
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;

    std::shared_ptr<TraceFile> file = TraceFile::open(path, 1u << 20,
                                                      &error);
    ASSERT_NE(file, nullptr) << error;
    EXPECT_EQ(file->info().vmCount, kVms);

    for (std::uint32_t v = 0; v < kVms; ++v) {
        const workload::StepTrace expect(reference[v]);
        const workload::TracePtr got = file->vmTrace(v);
        // Before the first breakpoint the first level applies; the reader
        // reports the longer (still exact) window there, so compare the
        // utilization only.
        EXPECT_EQ(got->utilizationAt(sim::SimTime::micros(-5000)),
                  expect.utilizationAt(sim::SimTime::micros(-5000)));
        // Probe at/just-after every breakpoint and past the end.
        std::vector<sim::SimTime> probes;
        for (const auto &step : reference[v]) {
            probes.push_back(step.start);
            probes.push_back(step.start + sim::SimTime::micros(1));
            probes.push_back(step.start + sim::SimTime::micros(499));
        }
        probes.push_back(reference[v].back().start +
                         sim::SimTime::hours(1000.0));
        for (const sim::SimTime t : probes) {
            ASSERT_EQ(got->utilizationAt(t), expect.utilizationAt(t))
                << "vm " << v << " at t=" << t.micros();
            const workload::DemandSpan got_span = got->spanAt(t);
            const workload::DemandSpan expect_span = expect.spanAt(t);
            ASSERT_EQ(got_span.utilization, expect_span.utilization);
            ASSERT_EQ(got_span.validUntil.micros(),
                      expect_span.validUntil.micros());
        }
    }
    std::filesystem::remove(path);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Random query orders against a StepTrace reference, per block length
 * (shorter than, around and longer than the breakpoint spacing): VMs
 * with many breakpoints (random and merge-heavy levels), single-sample
 * VMs and empty VMs; probes before the first timestamp, on and beside
 * every breakpoint (so on block boundaries), and far past the end,
 * visited in random order (forward jumps over blocks, backward seeks
 * within and across blocks) and in both sorted sweeps, all through one
 * cursor per VM.
 */
TEST(TraceFileTest, RandomQueriesMatchStepTraceReference)
{
    constexpr std::uint32_t kVms = 12;
    constexpr std::uint32_t kQuantum = 100;
    const std::int64_t block_lengths[] = {20'000, 97'531, 1'000'000,
                                          50'000'000};
    for (std::size_t b = 0; b < std::size(block_lengths); ++b) {
        const std::int64_t block_us = block_lengths[b];
        SCOPED_TRACE("block us " + std::to_string(block_us));
        const std::string path = tempPath("random" + std::to_string(b));
        TraceFileWriter writer(path, kVms, kQuantum, block_us);
        ASSERT_TRUE(writer.ok());
        SplitMix rng(1002 + b);
        std::vector<std::vector<workload::StepTrace::Step>> reference(kVms);
        for (std::uint32_t v = 0; v < kVms; ++v) {
            const std::uint64_t kind = rng.next() % 4; // 0 empty, 1 single
            const int breakpoints =
                kind == 0 ? 0
                : kind == 1 ? 1
                            : 2 + static_cast<int>(rng.next() % 40);
            std::int64_t ts = static_cast<std::int64_t>(rng.next() % 5000);
            for (int i = 0; i < breakpoints; ++i) {
                // kind 2 draws from three levels, so merges are common.
                const double util =
                    kind == 2 ? static_cast<double>(rng.next() % 3) / 2.0
                              : rng.uniform();
                writer.append(v, ts, util);
                const double level = quantized(util, kQuantum);
                if (reference[v].empty() || reference[v].back().level != level)
                    reference[v].push_back({sim::SimTime::micros(ts), level});
                ts += 1 + static_cast<std::int64_t>(rng.next() % 1000000);
            }
        }
        std::string error;
        ASSERT_TRUE(writer.finish(&error)) << error;
        // A one-byte window keeps only the last slice loaded; a roomy one
        // keeps every slice cached.
        const std::size_t window = b % 2 == 0 ? 1 : 1u << 20;
        std::shared_ptr<TraceFile> file = TraceFile::open(path, window,
                                                          &error);
        ASSERT_NE(file, nullptr) << error;

        for (std::uint32_t v = 0; v < kVms; ++v) {
            SCOPED_TRACE("vm " + std::to_string(v));
            const std::vector<workload::StepTrace::Step> &steps =
                reference[v];
            const workload::TracePtr got = file->vmTrace(v);
            if (steps.empty()) {
                const workload::DemandSpan span =
                    got->spanAt(sim::SimTime::micros(7));
                EXPECT_EQ(span.utilization, 0.0);
                EXPECT_EQ(span.validUntil.micros(),
                          sim::SimTime::max().micros());
                continue;
            }
            const workload::StepTrace expect(steps);
            std::vector<std::int64_t> probes = {
                steps.front().start.micros() - 1000,
                steps.back().start.micros() + 3600000000ll};
            for (const workload::StepTrace::Step &step : steps)
                for (const std::int64_t d : {-1, 0, 1})
                    probes.push_back(step.start.micros() + d);
            std::vector<std::int64_t> order;
            for (int i = 0; i < 300; ++i)
                order.push_back(probes[rng.next() % probes.size()]);
            std::sort(probes.begin(), probes.end());
            order.insert(order.end(), probes.begin(), probes.end());
            order.insert(order.end(), probes.rbegin(), probes.rend());

            for (const std::int64_t us : order) {
                const sim::SimTime t = sim::SimTime::micros(us);
                // Before the first breakpoint the reader extends the first
                // level's window to the second breakpoint: the reference
                // span at the first breakpoint.
                const workload::DemandSpan want = expect.spanAt(
                    t < steps.front().start ? steps.front().start : t);
                const workload::DemandSpan span = got->spanAt(t);
                ASSERT_TRUE(sameBits(span.utilization, want.utilization))
                    << "t=" << us << ": " << span.utilization << " vs "
                    << want.utilization;
                ASSERT_EQ(span.validUntil.micros(), want.validUntil.micros())
                    << "t=" << us;
                ASSERT_TRUE(sameBits(got->utilizationAt(t), want.utilization))
                    << "t=" << us;
            }
        }
        std::filesystem::remove(path);
    }
}

TEST(TraceFileTest, MergesEqualConsecutiveLevels)
{
    const std::string path = tempPath("merge");
    TraceFileWriter writer(path, 1, 100, 3'000'000);
    ASSERT_TRUE(writer.ok());
    // 10 breakpoints, but only 3 distinct plateau levels after
    // quantization: 0.50 x4, 0.80 x3, 0.50 x3 -> 3 stored samples.
    const double levels[] = {0.5, 0.5, 0.5, 0.5, 0.8,
                             0.8, 0.8, 0.5, 0.5, 0.5};
    for (int i = 0; i < 10; ++i)
        writer.append(0, i * 1000000, levels[i]);
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;
    EXPECT_EQ(writer.totalSamples(), 3u);

    std::shared_ptr<TraceFile> file =
        TraceFile::open(path, 1u << 20, &error);
    ASSERT_NE(file, nullptr) << error;
    EXPECT_EQ(file->info().totalSamples, 3u);
    const workload::TracePtr trace = file->vmTrace(0);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::seconds(2.0)), 0.5);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::seconds(5.0)), 0.8);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::seconds(9.0)), 0.5);
    // The merged first plateau's span runs to the 0.8 breakpoint at 4s.
    const workload::DemandSpan span =
        trace->spanAt(sim::SimTime::seconds(1.0));
    EXPECT_EQ(span.utilization, 0.5);
    EXPECT_EQ(span.validUntil.micros(), 4000000);
    // Three stored spans: the walk from 0 reaches forever in three steps.
    int spans = 1;
    for (sim::SimTime t; trace->spanAt(t).validUntil != sim::SimTime::max();
         ++spans)
        t = trace->spanAt(t).validUntil;
    EXPECT_EQ(spans, 3);
    std::filesystem::remove(path);
}

TEST(TraceFileTest, QuantizesToTheConfiguredDenominator)
{
    const std::string path = tempPath("quant");
    TraceFileWriter writer(path, 1, 4, 1500); // quarters only
    ASSERT_TRUE(writer.ok());
    writer.append(0, 0, 0.10);       // -> 0.0
    writer.append(0, 1000, 0.60);    // -> 0.5
    writer.append(0, 2000, 0.95);    // -> 1.0
    writer.append(0, 3000, -3.0);    // clamp -> 0.0
    writer.append(0, 4000, 7.0);     // clamp -> 1.0
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;

    std::shared_ptr<TraceFile> file =
        TraceFile::open(path, 1u << 20, &error);
    ASSERT_NE(file, nullptr) << error;
    const workload::TracePtr trace = file->vmTrace(0);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::micros(0)), 0.0);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::micros(1000)), 0.5);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::micros(2000)), 1.0);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::micros(3000)), 0.0);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::micros(4000)), 1.0);
    std::filesystem::remove(path);
}

TEST(TraceFileTest, BackwardSeeksRestartAtBlockZero)
{
    const std::string path = tempPath("backward");
    TraceFileWriter writer(path, 1, 10000, 8000); // 8 samples per block
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 256; ++i)
        writer.append(0, static_cast<std::int64_t>(i) * 1000,
                      static_cast<double>(i % 97) / 100.0);
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;

    std::shared_ptr<TraceFile> file =
        TraceFile::open(path, 1u << 20, &error);
    ASSERT_NE(file, nullptr) << error;
    const workload::TracePtr trace = file->vmTrace(0);
    // Walk to the end, then probe strictly backwards through every block.
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::micros(255000)),
              static_cast<double>(255 % 97) / 100.0);
    for (int i = 255; i >= 0; --i) {
        ASSERT_EQ(trace->utilizationAt(sim::SimTime::micros(i * 1000)),
                  static_cast<double>(i % 97) / 100.0)
            << "backward probe " << i;
    }
    std::filesystem::remove(path);
}

TEST(TraceFileTest, TinyWindowStillServesManyConcurrentSeries)
{
    const std::string path = tempPath("window");
    constexpr std::uint32_t kVms = 64;
    TraceFileWriter writer(path, kVms, 10000, 8000);
    ASSERT_TRUE(writer.ok());
    for (std::uint32_t v = 0; v < kVms; ++v)
        for (int i = 0; i < 64; ++i)
            writer.append(v, static_cast<std::int64_t>(i) * 1000,
                          quantized(static_cast<double>((v * 31 + i) % 101) / 101.0, 10000));
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;

    // A 1-byte budget keeps one slice; interleaved access to 64 series
    // across eight blocks thrashes the cache but must stay correct.
    std::shared_ptr<TraceFile> file = TraceFile::open(path, 1, &error);
    ASSERT_NE(file, nullptr) << error;
    std::vector<workload::TracePtr> traces;
    for (std::uint32_t v = 0; v < kVms; ++v)
        traces.push_back(file->vmTrace(v));
    for (int i = 0; i < 64; ++i) {
        for (std::uint32_t v = 0; v < kVms; ++v) {
            ASSERT_EQ(
                traces[v]->utilizationAt(sim::SimTime::micros(i * 1000)),
                quantized(static_cast<double>((v * 31 + i) % 101) / 101.0, 10000));
        }
    }
    EXPECT_GT(file->chunkLoads(), 0u);
    EXPECT_EQ(file->error(), "");
    std::filesystem::remove(path);
}

TEST(TraceFileTest, RejectsMissingAndMalformedFiles)
{
    std::string error;
    EXPECT_EQ(TraceFile::open("/nonexistent/nope.vpmtrc", 1u << 20,
                              &error),
              nullptr);
    EXPECT_FALSE(error.empty());

    const std::string path = tempPath("malformed");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all, not even close";
    }
    error.clear();
    EXPECT_EQ(TraceFile::open(path, 1u << 20, &error), nullptr);
    EXPECT_FALSE(error.empty());

    // A vpm-trace-1 file is refused by name.
    {
        std::ofstream out(path, std::ios::binary);
        out.write("vpmtrc1\n", 8);
        const std::uint32_t version = 1;
        out.write(reinterpret_cast<const char *>(&version), sizeof version);
        out << std::string(28, '\0');
    }
    error.clear();
    EXPECT_EQ(TraceFile::open(path, 1u << 20, &error), nullptr);
    EXPECT_NE(error.find("vpm-trace-1"), std::string::npos) << error;

    // Truncate a valid file in its last block: open must refuse, not
    // crash.
    TraceFileWriter writer(path, 4, 10000, 8000);
    ASSERT_TRUE(writer.ok());
    for (std::uint32_t v = 0; v < 4; ++v)
        for (int i = 0; i < 32; ++i)
            writer.append(v, static_cast<std::int64_t>(i) * 1000,
                          static_cast<double>(i) / 32.0);
    ASSERT_TRUE(writer.finish(&error)) << error;
    const auto full = static_cast<std::int64_t>(
        std::filesystem::file_size(path));
    std::filesystem::resize_file(path,
                                 static_cast<std::uintmax_t>(full - 20));
    error.clear();
    EXPECT_EQ(TraceFile::open(path, 1u << 20, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::filesystem::remove(path);
}

TEST(TraceFileTest, RejectsBlockTableLargerThanTheFile)
{
    // A bare 56-byte header claiming 2^32 - 1 series and blocks: the
    // block table it implies (~32 GB) cannot fit, so open must refuse
    // before sizing anything from either count.
    const std::string path = tempPath("huge_table");
    {
        std::ofstream out(path, std::ios::binary);
        const auto put = [&out](auto v) {
            out.write(reinterpret_cast<const char *>(&v), sizeof v);
        };
        out.write("vpmtrc2\n", 8);
        put(std::uint32_t{2});          // version
        put(std::uint32_t{0xFFFFFFFF}); // series_count
        put(std::uint32_t{10000});      // quantum
        put(std::uint32_t{64});         // group_series
        put(std::int64_t{900});         // block_us
        put(std::int64_t{1});           // unit_us
        put(std::uint64_t{0});          // total_samples
        put(std::uint32_t{0xFFFFFFFF}); // block_count
        put(std::uint32_t{0});          // reserved
    }
    ASSERT_EQ(std::filesystem::file_size(path), 56u);
    std::string error;
    EXPECT_EQ(TraceFile::open(path, 1u << 20, &error), nullptr);
    EXPECT_NE(error.find("block table"), std::string::npos) << error;
    std::filesystem::remove(path);
}

/**
 * The fed span table against a StepTrace reference: for each block
 * length, feedTo() every 250 ms (so several feeds land inside one block
 * and some blocks pass without a feed), then every series' slot and its
 * seriesTrace()'s spanAt() at the fed instant must equal the reference
 * span, bit for bit. Covers series whose first breakpoint is after 0,
 * single-sample and empty series, and plateaus across many blocks.
 */
TEST(TraceFileTest, FedTableMatchesStepTraceReference)
{
    constexpr std::uint32_t kVms = 9;
    constexpr std::uint32_t kQuantum = 1000;
    for (const std::int64_t block_us :
         {std::int64_t{70'000}, std::int64_t{1'000'000},
          std::int64_t{20'000'000}}) {
        SCOPED_TRACE("block us " + std::to_string(block_us));
        const std::string path = tempPath("fed");
        TraceFileWriter writer(path, kVms, kQuantum, block_us);
        ASSERT_TRUE(writer.ok());
        SplitMix rng(static_cast<std::uint64_t>(block_us));
        std::vector<std::vector<workload::StepTrace::Step>> reference(kVms);
        for (std::uint32_t v = 0; v < kVms; ++v) {
            // 0 empty, 1 single sample, 2 plateaus seconds apart, else
            // dense; the first breakpoint lies after 0 for odd series.
            const int kind = static_cast<int>(v % 4);
            const int breakpoints = kind == 0 ? 0 : kind == 1 ? 1 : 60;
            std::int64_t ts = v % 2 == 1 ? 3'100'000 : 0;
            for (int i = 0; i < breakpoints; ++i) {
                const double util = rng.uniform();
                writer.append(v, ts, util);
                const double level = quantized(util, kQuantum);
                if (reference[v].empty() || reference[v].back().level != level)
                    reference[v].push_back({sim::SimTime::micros(ts), level});
                ts += kind == 2 ? 4'000'000 + static_cast<std::int64_t>(
                                                  rng.next() % 3'000'000)
                                : 1 + static_cast<std::int64_t>(
                                          rng.next() % 400'000);
            }
        }
        std::string error;
        ASSERT_TRUE(writer.finish(&error)) << error;
        std::shared_ptr<TraceFile> file = TraceFile::open(path, 1, &error);
        ASSERT_NE(file, nullptr) << error;

        for (std::int64_t us = 0; us < 300'000'000; us += 250'000) {
            const sim::SimTime now = sim::SimTime::micros(us);
            ASSERT_TRUE(file->feedTo(now, &error)) << error;
            for (std::uint32_t v = 0; v < kVms; ++v) {
                const workload::DemandSpan want =
                    reference[v].empty()
                        ? workload::DemandSpan{0.0, sim::SimTime::max()}
                        : workload::StepTrace(reference[v]).spanAt(
                              std::max(now, reference[v].front().start));
                const workload::TracePtr trace = file->seriesTrace(v);
                const workload::SpanSlot *slot = trace->spanSlot();
                ASSERT_NE(slot, nullptr);
                ASSERT_TRUE(sameBits(slot->utilization, want.utilization))
                    << "vm " << v << " t=" << us;
                ASSERT_EQ(slot->validUntilUs, want.validUntil.micros())
                    << "vm " << v << " t=" << us;
                const workload::DemandSpan got = trace->spanAt(now);
                ASSERT_TRUE(sameBits(got.utilization, want.utilization));
                ASSERT_EQ(got.validUntil, want.validUntil);
            }
        }
        // Off the fed span, spanAt() walks the file and stays exact.
        for (std::uint32_t v = 2; v < kVms; v += 4) {
            const workload::StepTrace expect(reference[v]);
            const sim::SimTime early = reference[v][1].start;
            const workload::DemandSpan got =
                file->seriesTrace(v)->spanAt(early);
            EXPECT_TRUE(sameBits(got.utilization,
                                 expect.spanAt(early).utilization));
            EXPECT_EQ(got.validUntil, expect.spanAt(early).validUntil);
        }
        // The feed only moves forward.
        EXPECT_FALSE(file->feedTo(sim::SimTime::micros(5), &error));
        EXPECT_NE(error.find("back in time"), std::string::npos) << error;
        EXPECT_EQ(file->error(), "");
        std::filesystem::remove(path);
    }
}

} // namespace
} // namespace vpm::replay
