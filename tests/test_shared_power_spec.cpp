/**
 * @file
 * Shared per-host power specs: a cluster keeps one HostPowerSpec per
 * distinct spec and every IdleHierarchy points at one shared, immutable
 * IdleHierarchySpec per distinct spec, so a homogeneous fleet holds one of
 * each. The layout must not move a single output bit: the replay
 * checkpoint bytes below were recorded before the specs were shared.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datacenter/cluster.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "replay/checkpoint.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm {
namespace {

/** modernIdleHierarchy() on half the cores: a second, distinct spec. */
power::IdleHierarchySpec
halfCoreHierarchy()
{
    power::IdleHierarchySpec spec = power::modernIdleHierarchy();
    spec.coreCount = 8;
    spec.uncorePowerC0Watts = 115.0; // 8 * 5 + 115 = 155 W, the blade idle
    return spec;
}

TEST(SharedPowerSpecTest, HomogeneousFleetHoldsOneSpecOfEach)
{
    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
    for (int h = 0; h < 1000; ++h)
        cluster.addHost(dc::HostConfig{}, power_spec);
    // A fresh spec object per host, as a scenario builder might pass.
    for (const auto &host_ptr : cluster.hosts())
        host_ptr->attachIdleHierarchy(std::make_unique<power::IdleHierarchy>(
            simulator, power::modernIdleHierarchy()));

    const power::HostPowerSpec &first_power =
        cluster.host(0).powerFsm().spec();
    const power::IdleHierarchySpec &first_idle =
        cluster.host(0).idleHierarchy()->spec();
    // The cluster's copy, not the caller's.
    EXPECT_NE(&first_power, &power_spec);
    for (const auto &host_ptr : cluster.hosts()) {
        ASSERT_EQ(&host_ptr->powerFsm().spec(), &first_power)
            << "host " << host_ptr->id();
        ASSERT_EQ(&host_ptr->idleHierarchy()->spec(), &first_idle)
            << "host " << host_ptr->id();
    }
    EXPECT_TRUE(first_idle.sameAs(power::modernIdleHierarchy()));

    // Equal specs built anywhere else share the same object too.
    EXPECT_EQ(power::IdleHierarchySpec::shared(power::modernIdleHierarchy())
                  .get(),
              &first_idle);
}

TEST(SharedPowerSpecTest, HeterogeneousFleetKeepsTwoOfEach)
{
    // E3's mixed-generation cluster: blades and legacy servers, here each
    // with its own idle tree.
    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    const std::vector<power::HostPowerSpec> power_specs = {
        power::enterpriseBlade2013(), power::legacyServer2009()};
    const std::vector<power::IdleHierarchySpec> idle_specs = {
        power::modernIdleHierarchy(), halfCoreHierarchy()};
    for (std::size_t h = 0; h < 64; ++h) {
        dc::Host &host =
            cluster.addHost(dc::HostConfig{}, power_specs[h % 2]);
        host.attachIdleHierarchy(std::make_unique<power::IdleHierarchy>(
            simulator, idle_specs[h % 2]));
    }

    std::set<const power::HostPowerSpec *> power_seen;
    std::set<const power::IdleHierarchySpec *> idle_seen;
    for (const auto &host_ptr : cluster.hosts()) {
        const auto kind = static_cast<std::size_t>(host_ptr->id()) % 2;
        const power::HostPowerSpec &power = host_ptr->powerFsm().spec();
        const power::IdleHierarchySpec &idle =
            host_ptr->idleHierarchy()->spec();
        EXPECT_EQ(power.model(), power_specs[kind].model());
        EXPECT_TRUE(idle.sameAs(idle_specs[kind]));
        power_seen.insert(&power);
        idle_seen.insert(&idle);
    }
    EXPECT_EQ(power_seen.size(), 2u);
    EXPECT_EQ(idle_seen.size(), 2u);

    // Mixed specs still behave as their own models.
    cluster.host(0).idleHierarchy()->descendFully();
    EXPECT_TRUE(cluster.requestHostSleep(0, "S3"));
    EXPECT_EQ(cluster.host(1).idleHierarchy()->spec().coreCount, 8);
}

TEST(SharedPowerSpecTest, StandaloneHierarchyKeepsItsSpecAlive)
{
    sim::Simulator simulator;
    std::unique_ptr<power::IdleHierarchy> hier;
    {
        // A spec no one else holds, gone once the constructor returns.
        power::IdleHierarchySpec spec = power::modernIdleHierarchy();
        spec.coreCount = 3;
        spec.uncorePowerC0Watts = 140.0;
        hier = std::make_unique<power::IdleHierarchy>(simulator, spec);
    }
    EXPECT_EQ(hier->spec().coreCount, 3);
    ASSERT_EQ(hier->spec().coreStates.size(), 2u);
    EXPECT_EQ(hier->spec().coreStates[1].name, "C6");

    hier->descendFully();
    EXPECT_TRUE(hier->fullyDescended());
    // 3 cores at C6 (5 -> 0.5 W) plus the package at PC6 (140 -> 25 W).
    EXPECT_DOUBLE_EQ(hier->powerSavingsWatts(), 3.0 * 4.5 + 115.0);
    simulator.runUntil(sim::SimTime::seconds(10.0));
    hier->finish(simulator.now());
    EXPECT_DOUBLE_EQ(hier->coreResidencySeconds(2), 30.0);
    EXPECT_DOUBLE_EQ(hier->packageResidencySeconds(1), 10.0);
    EXPECT_DOUBLE_EQ(hier->coreResidencySeconds(3), 0.0); // past the tree
}

TEST(SharedPowerSpecTest, DepthCapIsValidated)
{
    power::IdleHierarchySpec spec = power::modernIdleHierarchy();
    spec.coreStates.clear();
    for (std::size_t d = 0;
         d <= power::IdleHierarchySpec::kMaxStatesPerLevel; ++d) {
        power::IdleStateSpec state;
        state.name = "C" + std::to_string(d + 1);
        state.powerWatts = 4.0 - 0.25 * static_cast<double>(d);
        spec.coreStates.push_back(state);
    }
    spec.packageStates[0].requiredChildDepth = 0;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "at most 8 per level");
    spec.coreStates.pop_back();
    spec.validate(); // exactly at the cap is fine
}

/** 96 VM series over 6 h at 5-minute breakpoints, integer arithmetic
 *  only, so the trace bytes depend on no libm routine. */
std::string
writeSpecTrace()
{
    const std::string path = (std::filesystem::temp_directory_path() /
                              "vpm_shared_power_spec.vpmtrc")
                                 .string();
    constexpr std::uint32_t kVms = 96;
    constexpr std::int64_t kSlots = 6 * 12;
    replay::TraceFileWriter writer(path, kVms);
    EXPECT_TRUE(writer.ok());
    for (std::uint32_t v = 0; v < kVms; ++v) {
        for (std::int64_t slot = 0; slot <= kSlots; ++slot) {
            const std::uint64_t mix =
                (v * 7919u + static_cast<std::uint64_t>(slot) * 104729u) %
                89u;
            const double util = (slot + v) % 9 < 4
                                    ? 0.05 + static_cast<double>(mix) / 890.0
                                    : 0.55 + static_cast<double>(mix) / 445.0;
            writer.append(v, slot * 300 * 1000000, util);
        }
    }
    std::string error;
    EXPECT_TRUE(writer.finish(&error)) << error;
    return path;
}

/**
 * FNV-1a of the vpm-ckpt file a mid-day capture writes, minus two parts
 * that do not come from the simulation: the spec JSON (it names the trace
 * by its temp-directory path) and the "telemetry" section (process-global
 * journal counters that earlier tests in the same process move).
 */
std::uint64_t
checkpointFileHash(const replay::ReplaySpec &spec)
{
    std::string error;
    std::unique_ptr<replay::ReplaySession> session =
        replay::ReplaySession::create(spec, &error);
    EXPECT_NE(session, nullptr) << error;
    if (session == nullptr)
        return 0;
    session->runTo(sim::SimTime::hours(3.0));
    replay::CheckpointData ckpt = session->capture();
    ckpt.specJson.clear();
    std::erase_if(ckpt.sections,
                  [](const auto &s) { return s.first == "telemetry"; });

    const std::string path = (std::filesystem::temp_directory_path() /
                              ("vpm_shared_power_spec_" + spec.policy +
                               ".vpmckp"))
                                 .string();
    EXPECT_TRUE(replay::writeCheckpoint(ckpt, path, &error)) << error;
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    return replay::fnv1a(bytes.data(), bytes.size());
}

TEST(SharedPowerSpecTest, ReplayCheckpointBytesAreUnchanged)
{
    telemetry::global().configure(telemetry::TelemetryConfig{});
    const std::string trace = writeSpecTrace();

    // Recorded from the build that still copied every spec per host. The
    // hier preset runs the cohort idle governors; joint runs the joint
    // controller's break-even ladder on the same hierarchies.
    struct Case
    {
        const char *policy;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {"hier", 0xc374455e57ca0940ull},
        {"joint", 0xb6cc545f8c443129ull},
    };
    for (const Case &c : cases) {
        replay::ReplaySpec spec;
        spec.name = "shared_spec";
        spec.tracePath = trace;
        spec.hosts = 24;
        spec.vms = 96;
        spec.vmCpuMhz = 5000.0;
        spec.durationHours = 6.0;
        spec.policy = c.policy;
        spec.hierarchical = spec.policy == "hier";
        spec.governorPeriodS = 60.0;
        EXPECT_EQ(checkpointFileHash(spec), c.hash) << "preset " << c.policy;
    }
    std::filesystem::remove(trace);
}

} // namespace
} // namespace vpm
