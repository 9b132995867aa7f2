/**
 * @file
 * vpm-trace-1 tests: writer/reader round-trip against a StepTrace
 * reference (fixed and randomized query orders), exact span semantics,
 * quantization, equal-level merging, backward seeks through the chunk
 * cache, the bounded-window contract, and malformed-file rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
    // Small chunks so every VM spans several of them.
    TraceFileWriter writer(path, kVms, kQuantum, 16);
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
 * Random query orders against a StepTrace reference, per chunk size 2-5:
 * multi-chunk VMs (random and merge-heavy levels), single-sample VMs and
 * empty VMs; probes before the first timestamp, on and beside every
 * breakpoint (so on every chunk's end_ts), and far past the end, visited
 * in random order (forward jumps over chunks, backward seeks within and
 * across chunks) and in both sorted sweeps, all through one cursor per
 * VM.
 */
TEST(TraceFileTest, RandomQueriesMatchStepTraceReference)
{
    constexpr std::uint32_t kVms = 12;
    constexpr std::uint32_t kQuantum = 100;
    for (std::uint32_t chunk_samples = 2; chunk_samples <= 5;
         ++chunk_samples) {
        SCOPED_TRACE("chunk samples " + std::to_string(chunk_samples));
        const std::string path =
            tempPath("random" + std::to_string(chunk_samples));
        TraceFileWriter writer(path, kVms, kQuantum, chunk_samples);
        ASSERT_TRUE(writer.ok());
        SplitMix rng(1000 + chunk_samples);
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
        // A one-byte window (8 slots) evicts chunks still pinned by
        // cursors; a roomy one keeps every chunk cached.
        const std::size_t window = chunk_samples % 2 == 0 ? 1 : 1u << 20;
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
    TraceFileWriter writer(path, 1, 100, 16);
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
    EXPECT_EQ(file->vmSampleCount(0), 3u);
    const workload::TracePtr trace = file->vmTrace(0);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::seconds(2.0)), 0.5);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::seconds(5.0)), 0.8);
    EXPECT_EQ(trace->utilizationAt(sim::SimTime::seconds(9.0)), 0.5);
    // The merged first plateau's span runs to the 0.8 breakpoint at 4s.
    const workload::DemandSpan span =
        trace->spanAt(sim::SimTime::seconds(1.0));
    EXPECT_EQ(span.utilization, 0.5);
    EXPECT_EQ(span.validUntil.micros(), 4000000);
    std::filesystem::remove(path);
}

TEST(TraceFileTest, QuantizesToTheConfiguredDenominator)
{
    const std::string path = tempPath("quant");
    TraceFileWriter writer(path, 1, 4, 16); // quarters only
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

TEST(TraceFileTest, BackwardSeeksReloadEarlierChunks)
{
    const std::string path = tempPath("backward");
    TraceFileWriter writer(path, 1, 10000, 8); // 8-sample chunks
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
    // Walk to the end, then probe strictly backwards through every chunk.
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
    TraceFileWriter writer(path, kVms, 10000, 8);
    ASSERT_TRUE(writer.ok());
    for (std::uint32_t v = 0; v < kVms; ++v)
        for (int i = 0; i < 64; ++i)
            writer.append(v, static_cast<std::int64_t>(i) * 1000,
                          quantized(static_cast<double>((v * 31 + i) % 101) / 101.0, 10000));
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;

    // A 1-byte budget clamps to the 8-slot floor; interleaved access to
    // 64 series thrashes the cache but must stay correct.
    std::shared_ptr<TraceFile> file = TraceFile::open(path, 1, &error);
    ASSERT_NE(file, nullptr) << error;
    EXPECT_EQ(file->cacheSlots(), 8u);
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

    // Truncate a valid file mid-index: open must refuse, not crash.
    TraceFileWriter writer(path, 4, 10000, 8);
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

TEST(TraceFileTest, RejectsIndexLargerThanTheFile)
{
    // A bare 40-byte header claiming 2^32 - 1 VMs: the index it implies
    // (~100 GB) cannot fit, so open must refuse before sizing anything
    // from the count.
    const std::string path = tempPath("huge_index");
    {
        std::ofstream out(path, std::ios::binary);
        const auto put = [&out](auto v) {
            out.write(reinterpret_cast<const char *>(&v), sizeof v);
        };
        out.write("vpmtrc1\n", 8);
        put(std::uint32_t{1});          // version
        put(std::uint32_t{0xFFFFFFFF}); // vm_count
        put(std::uint32_t{10000});      // quantum
        put(std::uint32_t{512});        // samples_per_chunk
        put(std::uint64_t{40});         // index_offset
        put(std::uint64_t{0});          // total_samples
    }
    ASSERT_EQ(std::filesystem::file_size(path), 40u);
    std::string error;
    EXPECT_EQ(TraceFile::open(path, 1u << 20, &error), nullptr);
    EXPECT_NE(error.find("index"), std::string::npos) << error;
    std::filesystem::remove(path);
}

} // namespace
} // namespace vpm::replay
