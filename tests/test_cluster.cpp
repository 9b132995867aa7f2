/** @file Unit tests for the Cluster container and its safety rules. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "datacenter/cluster.hpp"
#include "power/server_models.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {
namespace {

using sim::SimTime;

workload::VmWorkloadSpec
makeSpec(const std::string &name, double cpu_mhz, double mem_mb)
{
    workload::VmWorkloadSpec spec;
    spec.name = name;
    spec.cpuMhz = cpu_mhz;
    spec.memoryMb = mem_mb;
    spec.trace = std::make_shared<workload::ConstantTrace>(0.5);
    return spec;
}

TEST(ClusterTrackTest, HostTracksStoreNothingInTheJournal)
{
    // Telemetry is off: a fleet of hosts leaves the journal's track table
    // as it was, yet each host's track still answers to its name.
    const telemetry::EventJournal &journal = telemetry::global().journal();
    const std::size_t before = journal.trackCount();
    sim::Simulator simulator;
    Cluster fleet(simulator);
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    for (int i = 0; i < 10000; ++i)
        fleet.addHost(HostConfig{}, spec);
    EXPECT_EQ(journal.trackCount(), before);
    EXPECT_EQ(journal.trackName(telemetry::TrackDomain::Host, 9999),
              fleet.host(9999).name());
}

TEST(ClusterTrackTest, JournalEnabledAfterTheHostsNamesTheirRecords)
{
    sim::Simulator simulator;
    Cluster fleet(simulator);
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    for (int i = 0; i < 4; ++i)
        fleet.addHost(HostConfig{}, spec);
    telemetry::TelemetryConfig config;
    config.enabled = true;
    config.seriesRowsEnabled = false;
    telemetry::global().configure(config);
    // A manager decision about a host whose power state machine has not
    // recorded anything yet.
    telemetry::global().journal().wakeDecision(5, 2, "capacity-shortfall");
    std::ostringstream out;
    telemetry::writeJournalJsonl(telemetry::global().journal(), out);
    telemetry::global().configure(telemetry::TelemetryConfig{});
    EXPECT_NE(out.str().find("\"track\":\"host002\""), std::string::npos)
        << out.str();
}

class ClusterTest : public ::testing::Test
{
  protected:
    ClusterTest() : cluster(simulator)
    {
        const power::HostPowerSpec spec = power::enterpriseBlade2013();
        for (int i = 0; i < 3; ++i)
            cluster.addHost(HostConfig{}, spec);
    }

    sim::Simulator simulator;
    Cluster cluster;
};

TEST_F(ClusterTest, HostsGetSequentialIdsAndNames)
{
    EXPECT_EQ(cluster.hostCount(), 3u);
    EXPECT_EQ(cluster.host(0).name(), "host000");
    EXPECT_EQ(cluster.host(2).name(), "host002");
    EXPECT_EQ(cluster.host(1).id(), 1);
}

TEST_F(ClusterTest, InvalidIdsPanic)
{
    EXPECT_DEATH(cluster.host(99), "invalid host");
    EXPECT_DEATH(cluster.vm(0), "invalid VM");
}

TEST_F(ClusterTest, PlaceVmOnHost)
{
    Vm &vm = cluster.addVm(makeSpec("vm0", 2000.0, 2048.0));
    cluster.placeVm(vm.id(), 1);
    EXPECT_EQ(vm.host(), 1);
    EXPECT_EQ(cluster.host(1).vms().size(), 1u);
}

TEST_F(ClusterTest, PlaceTwiceIsFatal)
{
    Vm &vm = cluster.addVm(makeSpec("vm0", 2000.0, 2048.0));
    cluster.placeVm(vm.id(), 0);
    EXPECT_EXIT(cluster.placeVm(vm.id(), 1), ::testing::ExitedWithCode(1),
                "already placed");
}

TEST_F(ClusterTest, PlacementRespectsMemory)
{
    Vm &big = cluster.addVm(
        makeSpec("big", 2000.0, cluster.host(0).memoryCapacityMb()));
    cluster.placeVm(big.id(), 0);
    Vm &more = cluster.addVm(makeSpec("more", 2000.0, 1024.0));
    EXPECT_EXIT(cluster.placeVm(more.id(), 0), ::testing::ExitedWithCode(1),
                "does not fit");
}

TEST_F(ClusterTest, MoveVmBetweenHosts)
{
    Vm &vm = cluster.addVm(makeSpec("vm0", 2000.0, 2048.0));
    cluster.placeVm(vm.id(), 0);
    cluster.moveVm(vm.id(), 2);
    EXPECT_EQ(vm.host(), 2);
    EXPECT_TRUE(cluster.host(0).empty());
    EXPECT_EQ(cluster.host(2).vms().size(), 1u);
}

TEST_F(ClusterTest, SleepRefusedWithResidentVms)
{
    Vm &vm = cluster.addVm(makeSpec("vm0", 2000.0, 2048.0));
    cluster.placeVm(vm.id(), 0);
    EXPECT_FALSE(cluster.requestHostSleep(0, "S3"));
    EXPECT_TRUE(cluster.host(0).isOn());
}

TEST_F(ClusterTest, SleepRefusedWithActiveMigrations)
{
    cluster.host(0).adjustActiveMigrations(1);
    EXPECT_FALSE(cluster.requestHostSleep(0, "S3"));
}

TEST_F(ClusterTest, SleepAndWakeRoundTrip)
{
    EXPECT_TRUE(cluster.requestHostSleep(0, "S3"));
    simulator.run();
    EXPECT_EQ(cluster.hostsAsleep(), 1);
    EXPECT_EQ(cluster.hostsOn(), 2);

    EXPECT_TRUE(cluster.requestHostWake(0));
    EXPECT_EQ(cluster.hostsTransitioning(), 1);
    simulator.run();
    EXPECT_EQ(cluster.hostsOn(), 3);
}

TEST_F(ClusterTest, SleepRefusedWhenAlreadyAsleep)
{
    cluster.requestHostSleep(0, "S3");
    simulator.run();
    EXPECT_FALSE(cluster.requestHostSleep(0, "S3"));
}

TEST_F(ClusterTest, AggregateCapacityTracksPowerStates)
{
    const double per_host = cluster.host(0).cpuCapacityMhz();
    EXPECT_DOUBLE_EQ(cluster.totalCpuCapacityMhz(), 3 * per_host);
    EXPECT_DOUBLE_EQ(cluster.onCpuCapacityMhz(), 3 * per_host);

    cluster.requestHostSleep(2, "S3");
    simulator.run();
    EXPECT_DOUBLE_EQ(cluster.onCpuCapacityMhz(), 2 * per_host);
    EXPECT_DOUBLE_EQ(cluster.totalCpuCapacityMhz(), 3 * per_host);
}

TEST_F(ClusterTest, TotalDemandSumsVms)
{
    Vm &vm_a = cluster.addVm(makeSpec("a", 2000.0, 2048.0));
    Vm &vm_b = cluster.addVm(makeSpec("b", 4000.0, 2048.0));
    vm_a.setCurrentDemandMhz(500.0);
    vm_b.setCurrentDemandMhz(1500.0);
    EXPECT_DOUBLE_EQ(cluster.totalVmDemandMhz(), 2000.0);
}

TEST_F(ClusterTest, TotalPowerSumsHosts)
{
    const double idle = cluster.host(0).powerFsm().spec().idlePowerWatts();
    EXPECT_DOUBLE_EQ(cluster.totalPowerWatts(), 3 * idle);
}

TEST_F(ClusterTest, PowerActionCountAggregates)
{
    EXPECT_EQ(cluster.powerActionCount(), 0u);
    cluster.requestHostSleep(0, "S3");
    simulator.run();
    cluster.requestHostWake(0);
    simulator.run();
    EXPECT_EQ(cluster.powerActionCount(), 2u);
}

TEST_F(ClusterTest, HeterogeneousPowerSpecsSupported)
{
    Cluster hetero(simulator);
    hetero.addHost(HostConfig{}, power::enterpriseBlade2013());
    hetero.addHost(HostConfig{}, power::enterpriseBlade2013S5Only());
    EXPECT_TRUE(hetero.requestHostSleep(0, "S3"));
    EXPECT_FALSE(hetero.requestHostSleep(1, "S3")); // no such state
    EXPECT_TRUE(hetero.requestHostSleep(1, "S5"));
}

} // namespace
} // namespace vpm::dc
