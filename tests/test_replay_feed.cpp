/**
 * @file
 * The table-fed demand refresh against the two reads it replaced. One
 * fleet runs three times over the same vpm-trace-2 file: its VMs read
 * the span table the evaluation feeds (TraceFile::seriesTrace), one
 * cursor view per VM (TraceFile::vmTrace), and a StepTrace built from
 * the same breakpoints. Every FleetStore column (appendSnapshot) must be
 * equal bit for bit after every tick, at pool sizes 1, 2 and 8, and the
 * refresh-range expiry audit must stay clean. The runs pause between
 * ticks as well as on them, so the feed resumes mid-block.
 *
 * The trace covers blocks shorter and longer than the sample interval,
 * plateaus across many blocks, series whose first breakpoint is after
 * t = 0, single-sample and empty series, and more VMs than series. A
 * replay session paused mid-block must also end byte-identical to an
 * unpaused one and restore from a mid-block checkpoint, and a corrupt
 * block must end a session's run with an error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datacenter/datacenter_sim.hpp"
#include "power/server_models.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::replay {
namespace {

using sim::SimTime;

constexpr std::uint32_t kSeries = 48;
constexpr std::uint32_t kQuantum = 10000;
constexpr int kHosts = 64;
constexpr int kVms = 9000;
const SimTime kInterval = SimTime::minutes(5.0);
const SimTime kDuration = SimTime::hours(10.0);

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("vpm_replay_feed_" + tag + ".vpmtrc"))
        .string();
}

/**
 * Write the trace and return every series' StepTrace reference (the
 * writer's quantization, equal-level merge and backward-extended first
 * span mirrored). Series kinds,
 * by s % 6: 900 s samples; 3 h plateaus; 600 s samples starting at
 * 2 h 17 s; one sample at 5000 s; merge-heavy 900 s samples of three
 * levels; no breakpoints at all.
 */
std::vector<workload::TracePtr>
writeTrace(const std::string &path, std::int64_t block_us)
{
    TraceFileWriter writer(path, kSeries, kQuantum, block_us);
    EXPECT_TRUE(writer.ok());
    sim::Rng rng(23);
    std::vector<workload::TracePtr> reference;
    for (std::uint32_t s = 0; s < kSeries; ++s) {
        std::vector<workload::StepTrace::Step> steps;
        const auto add = [&](std::int64_t ts_s, double util) {
            writer.append(s, ts_s * 1'000'000, util);
            const double level =
                static_cast<double>(std::lround(
                    std::clamp(util, 0.0, 1.0) * kQuantum)) /
                kQuantum;
            // The stored first span is backward-extended to 0: the
            // first level holds before its timestamp either way, and
            // StepTrace then reports the same span end as the file.
            if (steps.empty())
                steps.push_back({SimTime(), level});
            else if (steps.back().level != level)
                steps.push_back({SimTime::seconds(static_cast<double>(ts_s)),
                                 level});
        };
        switch (s % 6) {
        case 0:
            for (std::int64_t t = 0; t < 12 * 3600; t += 900)
                add(t, rng.uniform(0.05, 0.95));
            break;
        case 1:
            for (std::int64_t t = 0; t < 12 * 3600; t += 3 * 3600)
                add(t, rng.uniform(0.05, 0.95));
            break;
        case 2:
            for (std::int64_t t = 2 * 3600 + 17; t < 12 * 3600; t += 600)
                add(t, rng.uniform(0.05, 0.95));
            break;
        case 3:
            add(5000, rng.uniform(0.05, 0.95));
            break;
        case 4:
            for (std::int64_t t = 0; t < 12 * 3600; t += 900)
                add(t, 0.25 * static_cast<double>(rng.uniformInt(1, 3)));
            break;
        default:
            steps.push_back({SimTime(), 0.0});
            break;
        }
        reference.push_back(
            std::make_shared<workload::StepTrace>(std::move(steps)));
    }
    std::string error;
    EXPECT_TRUE(writer.finish(&error)) << error;
    return reference;
}

enum class Read
{
    Table,
    View,
    Step,
};

/** One fleet over one read path, stepped in lockstep with the others. */
struct FleetRun
{
    FleetRun(Read read, const std::shared_ptr<TraceFile> &file,
        const std::vector<workload::TracePtr> &steps)
        : cluster(simulator)
    {
        const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
        for (int h = 0; h < kHosts; ++h)
            cluster.addHost(dc::HostConfig{}, power_spec);
        for (int v = 0; v < kVms; ++v) {
            const auto s = static_cast<std::uint32_t>(v) % kSeries;
            workload::VmWorkloadSpec spec;
            spec.name = "vm" + std::to_string(v);
            spec.cpuMhz = v % 7 == 0 ? 1800.0 : 300.0;
            spec.memoryMb = 256.0;
            spec.trace = read == Read::Table  ? file->seriesTrace(s)
                         : read == Read::View ? file->vmTrace(s)
                                              : steps[s];
            const dc::Vm &vm = cluster.addVm(std::move(spec));
            cluster.placeVm(vm.id(), static_cast<dc::HostId>(v % kHosts));
        }
        migration = std::make_unique<dc::MigrationEngine>(simulator, cluster);
        dc::DatacenterConfig config;
        config.evaluationInterval = kInterval;
        dcsim = std::make_unique<dc::DatacenterSim>(simulator, cluster,
                                                    *migration, config);
        if (read == Read::Table)
            dcsim->setDemandFeed([file](SimTime now, std::string *error) {
                return file->feedTo(now, error);
            });
        dcsim->start();
    }

    std::vector<std::uint8_t> snapshot() const
    {
        std::vector<std::uint8_t> bytes;
        cluster.fleet().appendSnapshot(bytes);
        return bytes;
    }

    sim::Simulator simulator;
    dc::Cluster cluster;
    std::unique_ptr<dc::MigrationEngine> migration;
    std::unique_ptr<dc::DatacenterSim> dcsim;
};

/** "" when @p got equals @p want, else where they first differ. */
std::string
firstDifference(const std::vector<std::uint8_t> &got,
                const std::vector<std::uint8_t> &want)
{
    if (got == want)
        return {};
    std::size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at])
        ++at;
    // appendSnapshot opens with the VM count and the 8-byte VM columns:
    // demand, granted, size, validUntil.
    const std::size_t column = at < 8 ? 0 : (at - 8) / (8 * kVms);
    return "byte " + std::to_string(at) + " (VM column " +
           std::to_string(column) + ", VM " +
           std::to_string(at < 8 ? 0 : (at - 8) / 8 % kVms) + ")";
}

class ReplayFeedTest : public ::testing::TestWithParam<std::int64_t>
{
  protected:
    void TearDown() override { sim::setGlobalThreads(1); }
};

TEST_P(ReplayFeedTest, TableFedRefreshMatchesViewsAndStepTraces)
{
    const std::int64_t block_us = GetParam();
    const std::string path = tempPath(std::to_string(block_us));
    const std::vector<workload::TracePtr> steps = writeTrace(path, block_us);

    std::vector<std::uint8_t> first_final;
    for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        sim::setGlobalThreads(threads);
        std::string error;
        const std::shared_ptr<TraceFile> file =
            TraceFile::open(path, 1u << 16, &error);
        ASSERT_NE(file, nullptr) << error;
        FleetRun table(Read::Table, file, steps);
        FleetRun view(Read::View, file, steps);
        FleetRun step(Read::Step, file, steps);

        int ticks = 0;
        for (SimTime t; t <= kDuration; t = t + kInterval) {
            // A pause between ticks, then the tick itself.
            for (const SimTime stop :
                 {t - SimTime::seconds(137.0), t}) {
                if (stop < table.simulator.now())
                    continue;
                for (FleetRun *run : {&table, &view, &step})
                    run->simulator.runUntil(stop);
            }
            SCOPED_TRACE("t " + std::to_string(t.micros()) + " us");
            const std::vector<std::uint8_t> want = step.snapshot();
            ASSERT_EQ(firstDifference(table.snapshot(), want), "");
            ASSERT_EQ(firstDifference(view.snapshot(), want), "");
            for (const FleetRun *run : {&table, &view, &step})
                ASSERT_EQ(run->dcsim->auditRefreshExpiry(), "");
            ++ticks;
        }
        EXPECT_EQ(table.dcsim->feedError(), "");
        EXPECT_EQ(file->error(), "");
        EXPECT_EQ(ticks, 121);
        if (first_final.empty())
            first_final = table.snapshot();
        else
            EXPECT_EQ(table.snapshot(), first_final);
    }
    std::filesystem::remove(path);
}

// Blocks shorter than, equal to, and longer than the 900 s samples, and
// one that aligns with nothing.
INSTANTIATE_TEST_SUITE_P(BlockLengths, ReplayFeedTest,
                         ::testing::Values(std::int64_t{300'000'000},
                                           std::int64_t{900'000'000},
                                           std::int64_t{7'200'000'000},
                                           std::int64_t{123'456'789}));

TEST(ReplayFeedSessionTest, PauseMidBlockAndRestoreMatchUnpaused)
{
    const std::string path = tempPath("session");
    writeTrace(path, 300'000'000);
    ReplaySpec spec;
    spec.name = "feed";
    spec.tracePath = path;
    spec.hosts = 8;
    spec.vms = 100; // more VMs than series
    spec.durationHours = 6.0;
    spec.evalIntervalS = 60.0;
    spec.policy = "joint";
    spec.exitLatencyS = 15.0;

    std::string error;
    std::unique_ptr<ReplaySession> whole = ReplaySession::create(spec, &error);
    ASSERT_NE(whole, nullptr) << error;
    const mgmt::ScenarioResult want = whole->finish();
    EXPECT_EQ(whole->error(), "");
    EXPECT_GT(want.eventsProcessed, 360u);
    EXPECT_GT(want.metrics.energyKwh, 0.0);
    const std::uint64_t want_digest = whole->stateDigest();

    std::unique_ptr<ReplaySession> paused =
        ReplaySession::create(spec, &error);
    ASSERT_NE(paused, nullptr) << error;
    // 2 h 7 min 30 s: inside a 300 s block, between two evaluations.
    const SimTime mid = SimTime::seconds(2 * 3600 + 7 * 60 + 30);
    ASSERT_TRUE(paused->runTo(mid));
    const CheckpointData ckpt = paused->capture();
    ASSERT_TRUE(paused->runTo(SimTime::hours(4.0)));
    const mgmt::ScenarioResult got = paused->finish();
    EXPECT_EQ(got.metrics.energyKwh, want.metrics.energyKwh);
    EXPECT_EQ(got.eventsProcessed, want.eventsProcessed);
    EXPECT_EQ(paused->stateDigest(), want_digest);

    std::unique_ptr<ReplaySession> restored =
        restoreCheckpoint(ckpt, true, &error);
    ASSERT_NE(restored, nullptr) << error;
    restored->finish();
    EXPECT_EQ(restored->stateDigest(), want_digest);
    std::filesystem::remove(path);
}

TEST(ReplayFeedSessionTest, CorruptBlockEndsTheRunWithAnError)
{
    const std::string path = tempPath("corrupt");
    writeTrace(path, 300'000'000);
    {
        // Point block 12's (t = 1 h) first directory entry past its end:
        // open() checks only the block table, the feed finds it at 1 h.
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        std::uint64_t block_at = 0;
        file.seekg(56 + 8 * 12);
        file.read(reinterpret_cast<char *>(&block_at), sizeof block_at);
        const std::uint32_t bad = 0xFFFFFFFF;
        file.seekp(static_cast<std::streamoff>(block_at));
        file.write(reinterpret_cast<const char *>(&bad), sizeof bad);
    }
    ReplaySpec spec;
    spec.tracePath = path;
    spec.hosts = 8;
    spec.vms = 100;
    spec.durationHours = 6.0;
    spec.evalIntervalS = 60.0;
    std::string error;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(spec, &error);
    ASSERT_NE(session, nullptr) << error;
    EXPECT_TRUE(session->runTo(SimTime::minutes(30.0)));
    EXPECT_FALSE(session->runTo(SimTime::hours(2.0)));
    EXPECT_NE(session->error().find("block 12"), std::string::npos)
        << session->error();
    EXPECT_LT(session->now(), SimTime::hours(1.0) + SimTime::minutes(1.0));
    session->finish();
    EXPECT_FALSE(session->error().empty());
    std::filesystem::remove(path);
}

} // namespace
} // namespace vpm::replay
