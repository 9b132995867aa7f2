/**
 * @file
 * Replay session tests: vpm-replay-spec-1 round-trips, the byte-identity
 * contract (paused == unpaused), vpm-ckpt-1 file integrity, verified
 * restore (including tamper refusal), the spec-driven governor rig, and
 * a what-if branch race checked for thread-count independence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "replay/checkpoint.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "sweep/manifest.hpp"
#include "telemetry/sweep_matrix.hpp"

namespace vpm::replay {
namespace {

std::string
tempFile(const std::string &tag, const std::string &ext)
{
    return (std::filesystem::temp_directory_path() /
            ("vpm_replay_test_" + tag + ext))
        .string();
}

/**
 * A small deterministic diurnal trace: every VM alternates between a low
 * and a high plateau on staggered phases, so consolidation policies have
 * real work to disagree about.
 */
std::string
writeTestTrace(const std::string &tag, std::uint32_t vms, double hours)
{
    const std::string path = tempFile(tag, ".vpmtrc");
    TraceFileWriter writer(path, vms);
    EXPECT_TRUE(writer.ok());
    const auto total_s = static_cast<std::int64_t>(hours * 3600.0);
    for (std::uint32_t v = 0; v < vms; ++v) {
        for (std::int64_t t = 0; t <= total_s; t += 300) {
            const std::int64_t phase = (t / 300 + v) % 8;
            const double util =
                phase < 5 ? 0.10 + 0.01 * static_cast<double>(v % 5)
                          : 0.75 + 0.02 * static_cast<double>(phase - 5);
            writer.append(v, t * 1000000, util);
        }
    }
    std::string error;
    EXPECT_TRUE(writer.finish(&error)) << error;
    return path;
}

ReplaySpec
baseSpec(const std::string &trace_path)
{
    ReplaySpec spec;
    spec.name = "ckpt_test";
    spec.tracePath = trace_path;
    spec.hosts = 4;
    spec.vms = 8;
    spec.durationHours = 0.5;
    spec.evalIntervalS = 60.0;
    spec.managerPeriodMin = 2.0;
    spec.policy = "joint";
    spec.exitLatencyS = 15.0;
    spec.seed = 7;
    return spec;
}

TEST(ReplaySpecTest, JsonRoundTripIsByteStable)
{
    ReplaySpec spec = baseSpec("/tmp/some_trace.vpmtrc");
    spec.hierarchical = true;
    spec.windowBytes = 123456;
    spec.governorPeriodS = 45.5;
    const std::string first = writeSpecJson(spec);

    ReplaySpec parsed;
    std::string error;
    ASSERT_TRUE(parseSpecJson(first, parsed, &error)) << error;
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.tracePath, spec.tracePath);
    EXPECT_EQ(parsed.hosts, spec.hosts);
    EXPECT_EQ(parsed.vms, spec.vms);
    EXPECT_EQ(parsed.policy, spec.policy);
    EXPECT_EQ(parsed.exitLatencyS, spec.exitLatencyS);
    EXPECT_EQ(parsed.hierarchical, spec.hierarchical);
    EXPECT_EQ(parsed.seed, spec.seed);
    EXPECT_EQ(parsed.windowBytes, spec.windowBytes);
    EXPECT_EQ(parsed.governorPeriodS, spec.governorPeriodS);
    EXPECT_EQ(writeSpecJson(parsed), first);
}

TEST(ReplaySpecTest, ParseRejectsGarbageAndWrongSchema)
{
    ReplaySpec out;
    std::string error;
    EXPECT_FALSE(parseSpecJson("not json at all", out, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parseSpecJson("{\"schema\": \"something-else\"}", out,
                               &error));
    EXPECT_FALSE(error.empty());

    // Integer fields out of their type's range are rejected before the
    // cast (converting them would be undefined behaviour).
    const auto spec_with = [](const std::string &field) {
        return "{\"schema\": \"vpm-replay-spec-1\", \"trace_path\": "
               "\"t.vpmtrc\", " + field + "}";
    };
    EXPECT_FALSE(parseSpecJson(spec_with("\"hosts\": 1e300"), out, &error));
    EXPECT_EQ(error, "replay spec: hosts out of range");
    EXPECT_FALSE(
        parseSpecJson(spec_with("\"window_bytes\": -1"), out, &error));
    EXPECT_EQ(error, "replay spec: window_bytes out of range");

    // Time fields whose microseconds overflow SimTime's int64 are rejected
    // before SimTime::seconds/hours casts them.
    for (const char *field : {"duration_hours", "eval_interval_s",
                              "manager_period_min", "exit_latency_s",
                              "governor_period_s"}) {
        error.clear();
        EXPECT_FALSE(parseSpecJson(
            spec_with("\"" + std::string(field) + "\": 1e300"), out, &error));
        EXPECT_EQ(error, "replay spec: " + std::string(field) +
                             " out of range");
    }
    // 1e13 s is 1e19 us, past INT64_MAX (~9.22e18).
    EXPECT_FALSE(parseSpecJson(spec_with("\"governor_period_s\": 1e13"),
                               out, &error));
    EXPECT_EQ(error, "replay spec: governor_period_s out of range");
    // JSON has no Infinity literal; the parser refuses it outright.
    error.clear();
    EXPECT_FALSE(parseSpecJson(spec_with("\"eval_interval_s\": Infinity"),
                               out, &error));
    EXPECT_FALSE(error.empty());
    // Spec flags parse with strtod, which does accept "inf" and "nan";
    // validation still refuses them before any SimTime is built.
    ReplaySpec spec;
    spec.tracePath = "t.vpmtrc";
    spec.evalIntervalS = std::numeric_limits<double>::infinity();
    EXPECT_EQ(ReplaySession::create(spec, &error), nullptr);
    EXPECT_EQ(error, "replay spec: eval_interval_s out of range");
    spec.evalIntervalS = 300.0;
    spec.durationHours = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(ReplaySession::create(spec, &error), nullptr);
    EXPECT_EQ(error, "replay spec: duration_hours out of range");
}

TEST(ReplaySessionTest, PausedRunIsByteIdenticalToUnpausedRun)
{
    const std::string trace = writeTestTrace("pause", 8, 1.0);
    const ReplaySpec spec = baseSpec(trace);
    std::string error;

    std::unique_ptr<ReplaySession> straight =
        ReplaySession::create(spec, &error);
    ASSERT_NE(straight, nullptr) << error;
    straight->runTo(sim::SimTime::seconds(1200.0));
    const CheckpointData a = straight->capture();

    std::unique_ptr<ReplaySession> paused =
        ReplaySession::create(spec, &error);
    ASSERT_NE(paused, nullptr) << error;
    // Same instant, reached through five arbitrary pauses.
    for (const double t : {131.0, 472.5, 900.0, 1100.25, 1200.0})
        paused->runTo(sim::SimTime::seconds(t));
    const CheckpointData b = paused->capture();

    EXPECT_EQ(a.timeUs, b.timeUs);
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
    ASSERT_EQ(a.sections.size(), b.sections.size());
    for (std::size_t s = 0; s < a.sections.size(); ++s) {
        EXPECT_EQ(a.sections[s].first, b.sections[s].first);
        EXPECT_EQ(a.sections[s].second, b.sections[s].second)
            << "section '" << a.sections[s].first << "' differs";
    }
    EXPECT_EQ(straight->stateDigest(), paused->stateDigest());

    // Both finish to the same deterministic result.
    const mgmt::ScenarioResult ra = straight->finish();
    const mgmt::ScenarioResult rb = paused->finish();
    EXPECT_EQ(ra.metrics.energyKwh, rb.metrics.energyKwh);
    EXPECT_EQ(ra.eventsProcessed, rb.eventsProcessed);
    std::filesystem::remove(trace);
}

TEST(ReplaySessionTest, CheckpointFileRoundTripsAndRejectsCorruption)
{
    const std::string trace = writeTestTrace("file", 8, 1.0);
    const std::string path = tempFile("file", ".vpmckp");
    std::string error;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(baseSpec(trace), &error);
    ASSERT_NE(session, nullptr) << error;
    session->runTo(sim::SimTime::seconds(600.0));
    const CheckpointData ckpt = session->capture();

    ASSERT_TRUE(writeCheckpoint(ckpt, path, &error)) << error;
    CheckpointData loaded;
    ASSERT_TRUE(readCheckpoint(path, loaded, &error)) << error;
    EXPECT_EQ(loaded.specJson, ckpt.specJson);
    EXPECT_EQ(loaded.timeUs, ckpt.timeUs);
    EXPECT_EQ(loaded.eventsProcessed, ckpt.eventsProcessed);
    ASSERT_EQ(loaded.sections.size(), ckpt.sections.size());
    for (std::size_t s = 0; s < ckpt.sections.size(); ++s)
        EXPECT_EQ(loaded.sections[s], ckpt.sections[s]);

    // Flip one byte in the middle: the checksum must catch it.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(0, std::ios::end);
        const std::streamoff mid = f.tellg() / 2;
        f.seekg(mid);
        char c = 0;
        f.read(&c, 1);
        c = static_cast<char>(c ^ 0x5a);
        f.seekp(mid);
        f.write(&c, 1);
    }
    error.clear();
    CheckpointData corrupt;
    EXPECT_FALSE(readCheckpoint(path, corrupt, &error));
    EXPECT_FALSE(error.empty());
    std::filesystem::remove(path);
    std::filesystem::remove(trace);
}

TEST(ReplaySessionTest, RestoreVerifiesAndRefusesTamperedState)
{
    const std::string trace = writeTestTrace("restore", 8, 1.0);
    std::string error;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(baseSpec(trace), &error);
    ASSERT_NE(session, nullptr) << error;
    session->runTo(sim::SimTime::seconds(900.0));
    CheckpointData ckpt = session->capture();

    std::unique_ptr<ReplaySession> restored =
        restoreCheckpoint(ckpt, /*verify=*/true, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->now().micros(), ckpt.timeUs);
    EXPECT_EQ(restored->stateDigest(), session->stateDigest());

    // Tamper one byte of captured state: verification must name the
    // section and refuse the restore.
    ASSERT_FALSE(ckpt.sections.empty());
    ASSERT_FALSE(ckpt.sections[0].second.empty());
    ckpt.sections[0].second[0] ^= 0x01;
    error.clear();
    EXPECT_EQ(restoreCheckpoint(ckpt, true, &error), nullptr);
    EXPECT_NE(error.find("diverges at byte"), std::string::npos) << error;
    std::filesystem::remove(trace);
}

TEST(ReplaySessionTest, GovernorRigIsDeterministicAndCheckpointSafe)
{
    const std::string trace = writeTestTrace("governor", 8, 1.0);
    ReplaySpec spec = baseSpec(trace);
    spec.policy = "hier";
    spec.hierarchical = true;
    spec.governorPeriodS = 30.0;
    std::string error;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(spec, &error);
    ASSERT_NE(session, nullptr) << error;
    session->runTo(sim::SimTime::seconds(700.0));
    const CheckpointData ckpt = session->capture();
    // Restore re-executes the governor schedule; byte-compare proves the
    // rig is part of the deterministic state, not a bench-only add-on.
    std::unique_ptr<ReplaySession> restored =
        restoreCheckpoint(ckpt, true, &error);
    ASSERT_NE(restored, nullptr) << error;

    // The rig needs a hierarchy: "s3" has none, so the spec is invalid.
    ReplaySpec bad = baseSpec(trace);
    bad.policy = "s3";
    bad.governorPeriodS = 30.0;
    error.clear();
    EXPECT_EQ(ReplaySession::create(bad, &error), nullptr);
    EXPECT_NE(error.find("hierarchy"), std::string::npos) << error;

    ReplaySpec negative = baseSpec(trace);
    negative.governorPeriodS = -1.0;
    error.clear();
    EXPECT_EQ(ReplaySession::create(negative, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::filesystem::remove(trace);
}

TEST(ReplayBranchTest, BranchRaceIsIndependentOfThreadCount)
{
    const std::string trace = writeTestTrace("branch", 8, 0.5);
    ReplaySpec spec = baseSpec(trace);
    spec.durationHours = 0.5;
    std::string error;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(spec, &error);
    ASSERT_NE(session, nullptr) << error;
    session->runTo(sim::SimTime::seconds(600.0));
    const CheckpointData ckpt = session->capture();

    sweep::SweepManifest manifest;
    manifest.name = "branch_test";
    manifest.durationHours = spec.durationHours;
    manifest.repeats = 1;
    manifest.policies = {"joint", "s3", "nopm"};
    manifest.workloads = {"steady"};
    manifest.exitLatenciesS = {spec.exitLatencyS};
    manifest.loadScales = {1.0};
    manifest.hostCounts = {spec.hosts};
    manifest.vmCounts = {spec.vms};
    manifest.seeds = {spec.seed};
    const std::vector<sweep::CellSpec> cells =
        sweep::expandGrid(manifest);
    ASSERT_EQ(cells.size(), 3u);

    const auto race = [&](int threads, telemetry::SweepMatrix &out) {
        BranchOptions options;
        options.threads = threads;
        options.verify = threads == 1; // verify once, not per race
        std::ostringstream log;
        std::string race_error;
        ASSERT_TRUE(runBranches(ckpt, manifest, cells, options, out, log,
                                &race_error))
            << race_error;
    };
    telemetry::SweepMatrix serial;
    telemetry::SweepMatrix parallel;
    race(1, serial);
    race(2, parallel);

    ASSERT_EQ(serial.cells.size(), 3u);
    ASSERT_EQ(parallel.cells.size(), 3u);
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const telemetry::SweepCell &a = serial.cells[i];
        const telemetry::SweepCell &b = parallel.cells[i];
        EXPECT_EQ(a.status, telemetry::CellStatus::Ok) << a.error;
        EXPECT_EQ(a.id, b.id);
        ASSERT_EQ(a.metrics.size(), b.metrics.size());
        for (std::size_t m = 0; m < a.metrics.size(); ++m) {
            EXPECT_EQ(a.metrics[m].name, b.metrics[m].name);
            // Wall-clock metrics are the only nondeterministic ones.
            if (a.metrics[m].name == "wall_ms" ||
                a.metrics[m].name == "events_per_sec")
                continue;
            EXPECT_EQ(a.metrics[m].ci.point, b.metrics[m].ci.point)
                << a.id << " metric " << a.metrics[m].name;
        }
    }
    // The variants genuinely diverge: NoPM must burn more energy than the
    // joint policy it branched from.
    const auto energy = [](const telemetry::SweepCell &cell) {
        for (const telemetry::CellMetric &metric : cell.metrics)
            if (metric.name == "energy_j")
                return metric.ci.point;
        return 0.0;
    };
    double joint_energy = 0.0, nopm_energy = 0.0;
    for (const telemetry::SweepCell &cell : serial.cells) {
        if (cell.id.find("policy=joint/") == 0)
            joint_energy = energy(cell);
        if (cell.id.find("policy=nopm/") == 0)
            nopm_energy = energy(cell);
    }
    EXPECT_GT(nopm_energy, joint_energy);
    std::filesystem::remove(trace);
}

} // namespace
} // namespace vpm::replay
