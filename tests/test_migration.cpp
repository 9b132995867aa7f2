/** @file Unit tests for the live-migration engine. */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "datacenter/migration.hpp"
#include "power/server_models.hpp"
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

class MigrationTest : public ::testing::Test
{
  protected:
    MigrationTest() : cluster(simulator)
    {
        const power::HostPowerSpec spec = power::enterpriseBlade2013();
        for (int i = 0; i < 3; ++i)
            cluster.addHost(HostConfig{}, spec);
    }

    Vm &
    placedVm(const std::string &name, HostId host, double mem_mb = 4096.0)
    {
        Vm &vm = cluster.addVm(makeSpec(name, 2000.0, mem_mb));
        cluster.placeVm(vm.id(), host);
        return vm;
    }

    sim::Simulator simulator;
    Cluster cluster;
    MigrationConfig config;
};

TEST_F(MigrationTest, ExpectedDurationFollowsCostModel)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0, 4096.0);
    const double copy_s =
        4096.0 * config.dirtyPageFactor / config.bandwidthMbPerSec;
    EXPECT_EQ(engine.expectedDuration(vm),
              config.fixedOverhead + SimTime::seconds(copy_s));
}

TEST_F(MigrationTest, CompletesAndMovesVm)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0);

    EXPECT_TRUE(engine.request(vm.id(), 1));
    EXPECT_TRUE(vm.migrating());
    EXPECT_TRUE(engine.involved(vm.id()));
    EXPECT_EQ(engine.destinationOf(vm.id()), 1);
    EXPECT_EQ(vm.host(), 0); // still on the source while copying

    simulator.run();
    EXPECT_EQ(vm.host(), 1);
    EXPECT_FALSE(vm.migrating());
    EXPECT_FALSE(engine.involved(vm.id()));
    EXPECT_EQ(engine.completedCount(), 1u);
    EXPECT_EQ(engine.activeCount(), 0);
}

TEST_F(MigrationTest, DurationMatchesExpectation)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0);
    engine.request(vm.id(), 1);
    const SimTime end = simulator.run();
    EXPECT_EQ(end, engine.expectedDuration(vm));
}

TEST_F(MigrationTest, CpuTaxAppliedDuringFlightOnly)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0);
    const double tax = config.cpuTaxFraction * vm.cpuMhz();

    engine.request(vm.id(), 1);
    EXPECT_DOUBLE_EQ(cluster.host(0).migrationOverheadMhz(), tax);
    EXPECT_DOUBLE_EQ(cluster.host(1).migrationOverheadMhz(), tax);
    EXPECT_EQ(cluster.host(0).activeMigrations(), 1);
    EXPECT_EQ(cluster.host(1).activeMigrations(), 1);

    simulator.run();
    EXPECT_DOUBLE_EQ(cluster.host(0).migrationOverheadMhz(), 0.0);
    EXPECT_DOUBLE_EQ(cluster.host(1).migrationOverheadMhz(), 0.0);
    EXPECT_EQ(cluster.host(0).activeMigrations(), 0);
}

TEST_F(MigrationTest, RejectsObviousNonsense)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0);

    EXPECT_FALSE(engine.request(vm.id(), 0)); // already there

    Vm &unplaced = cluster.addVm(makeSpec("ghost", 1000.0, 1024.0));
    EXPECT_FALSE(engine.request(unplaced.id(), 1));

    cluster.requestHostSleep(2, "S3");
    simulator.run();
    EXPECT_FALSE(engine.request(vm.id(), 2)); // destination asleep
}

TEST_F(MigrationTest, DuplicateRequestRejected)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0);
    EXPECT_TRUE(engine.request(vm.id(), 1));
    EXPECT_FALSE(engine.request(vm.id(), 2));
}

TEST_F(MigrationTest, ConcurrencyCapQueuesExcessRequests)
{
    config.maxConcurrentPerHost = 2;
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm_a = placedVm("a", 0);
    Vm &vm_b = placedVm("b", 0);
    Vm &vm_c = placedVm("c", 0);

    EXPECT_TRUE(engine.request(vm_a.id(), 1));
    EXPECT_TRUE(engine.request(vm_b.id(), 1));
    EXPECT_TRUE(engine.request(vm_c.id(), 1)); // queued: both slots busy
    EXPECT_EQ(engine.activeCount(), 2);
    EXPECT_EQ(engine.queuedCount(), 1u);

    simulator.run();
    EXPECT_EQ(engine.completedCount(), 3u);
    EXPECT_EQ(vm_c.host(), 1);
}

TEST_F(MigrationTest, QueuedRequestDroppedIfInvalidatedMeanwhile)
{
    // Every validate() failure, each arriving while its request waits:
    // all requests leave host 0, whose single slot the blocker holds.
    config.maxConcurrentPerHost = 1;
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    for (int i = 0; i < 4; ++i)
        cluster.addHost(HostConfig{}, spec); // hosts 3-6
    MigrationEngine engine(simulator, cluster, config);

    std::vector<VmId> completions;
    engine.setOnComplete(
        [&](VmId vm, HostId, HostId) { completions.push_back(vm); });

    Vm &blocker = placedVm("blocker", 0, 8192.0);  // 0 -> 1, ~11.7 s
    Vm &a = placedVm("a", 0);                      // 0 -> 2: 2 sleeps
    Vm &c = placedVm("c", 0);                      // 0 -> 3: moved there
    Vm &f = placedVm("f", 0);                      // 0 -> 3: survives
    Vm &d = placedVm("d", 0);                      // 0 -> 3: retired
    Vm &e = placedVm("e", 0);                      // 0 -> 4: memory taken
    Vm &g = placedVm("g", 0);                      // 0 -> 1: survives
    Vm &early = placedVm("early", 5, 1024.0);      // 5 -> 6, ~3.2 s

    ASSERT_TRUE(engine.request(blocker.id(), 1));
    ASSERT_TRUE(engine.request(early.id(), 6));
    const std::vector<std::pair<Vm *, HostId>> queued{
        {&a, 2}, {&c, 3}, {&f, 3}, {&d, 3}, {&e, 4}, {&g, 1}};
    for (const auto &[vm, dest] : queued)
        ASSERT_TRUE(engine.request(vm->id(), dest));
    EXPECT_EQ(engine.activeCount(), 2);
    EXPECT_EQ(engine.queuedCount(), 6u);

    // After the early completion has drained the queue once (everyone
    // waits), invalidate four of the waiting requests.
    simulator.schedule(SimTime::seconds(5.0), [&] {
        EXPECT_EQ(completions, std::vector<VmId>{early.id()});
        EXPECT_TRUE(cluster.requestHostSleep(2, "S3"));
        cluster.moveVm(c.id(), 3);
        cluster.retireVm(d.id());
        Vm &hog = cluster.addVm(
            makeSpec("hog", 1000.0, HostConfig{}.memoryCapacityMb - 2048.0));
        cluster.placeVm(hog.id(), 4);
    });

    // The blocker lands at ~11.7 s; its drain drops a, c, d and e, starts
    // f, and leaves g waiting for host 0's slot.
    simulator.schedule(SimTime::seconds(12.0), [&] {
        EXPECT_EQ(engine.droppedCount(), 4u);
        for (const Vm *vm : {&a, &c, &d, &e})
            EXPECT_FALSE(engine.involved(vm->id())) << vm->name();
        EXPECT_TRUE(f.migrating());
        EXPECT_TRUE(engine.involved(g.id()));
        EXPECT_FALSE(g.migrating());
        EXPECT_EQ(engine.queuedCount(), 1u);
    });

    while (simulator.step())
        engine.auditQueue();

    EXPECT_EQ(completions,
              (std::vector<VmId>{early.id(), blocker.id(), f.id(), g.id()}));
    EXPECT_EQ(engine.droppedCount(), 4u);
    EXPECT_EQ(engine.queuedCount(), 0u);
    EXPECT_EQ(a.host(), 0);
    EXPECT_EQ(c.host(), 3);
    EXPECT_FALSE(d.placed());
    EXPECT_EQ(e.host(), 0);
    EXPECT_EQ(f.host(), 3);
    EXPECT_EQ(g.host(), 1);
}

TEST_F(MigrationTest, MemoryPressureSerializesDependentMoves)
{
    // A dependent chain: b can move to the roomy host 0 right away, but a
    // only fits on the tight host 1 after b has departed — the engine
    // must queue a's request and start it when b's migration lands.
    HostConfig roomy;
    roomy.memoryCapacityMb = 10000.0;
    HostConfig tight_cfg;
    tight_cfg.memoryCapacityMb = 6000.0;

    Cluster tight(simulator);
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    tight.addHost(roomy, spec);
    tight.addHost(tight_cfg, spec);

    Vm &vm_a = tight.addVm(makeSpec("a", 1000.0, 4000.0));
    Vm &vm_b = tight.addVm(makeSpec("b", 1000.0, 4000.0));
    tight.placeVm(vm_a.id(), 0);
    tight.placeVm(vm_b.id(), 1);

    MigrationEngine engine(simulator, tight, config);
    EXPECT_TRUE(engine.request(vm_b.id(), 0)); // starts immediately
    EXPECT_TRUE(engine.request(vm_a.id(), 1)); // waits for b to depart
    EXPECT_EQ(engine.activeCount(), 1);
    EXPECT_EQ(engine.queuedCount(), 1u);

    simulator.run();
    EXPECT_EQ(vm_a.host(), 1);
    EXPECT_EQ(vm_b.host(), 0);
    EXPECT_EQ(engine.completedCount(), 2u);
    EXPECT_EQ(engine.droppedCount(), 0u);

    // A zero-slack swap, by contrast, is correctly refused outright.
    EXPECT_FALSE(engine.request(vm_b.id(), 1));
}

TEST_F(MigrationTest, CompletionHandlerFires)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("vm0", 0);

    VmId done_vm = -1;
    HostId done_src = invalidHostId, done_dst = invalidHostId;
    engine.setOnComplete([&](VmId v, HostId s, HostId d) {
        done_vm = v;
        done_src = s;
        done_dst = d;
    });
    engine.request(vm.id(), 2);
    simulator.run();
    EXPECT_EQ(done_vm, vm.id());
    EXPECT_EQ(done_src, 0);
    EXPECT_EQ(done_dst, 2);
}

TEST_F(MigrationTest, DurationSummaryAccumulates)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm_a = placedVm("a", 0, 2048.0);
    Vm &vm_b = placedVm("b", 0, 8192.0);
    engine.request(vm_a.id(), 1);
    engine.request(vm_b.id(), 2);
    simulator.run();
    EXPECT_EQ(engine.durations().count(), 2u);
    EXPECT_GT(engine.durations().max(), engine.durations().min());
}

TEST_F(MigrationTest, BiggerVmsTakeLonger)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &small = placedVm("small", 0, 1024.0);
    Vm &big = placedVm("big", 0, 16384.0);
    EXPECT_LT(engine.expectedDuration(small), engine.expectedDuration(big));
}

TEST_F(MigrationTest, BusierVmsTakeLonger)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("worker", 0, 8192.0);

    vm.setCurrentDemandMhz(0.0);
    const SimTime idle_copy = engine.expectedDuration(vm);
    vm.setCurrentDemandMhz(vm.cpuMhz()); // flat out
    const SimTime busy_copy = engine.expectedDuration(vm);
    EXPECT_GT(busy_copy, idle_copy);

    // Matches the model: extra factor = utilizationDirtyFactor.
    const double expected_extra =
        8192.0 * config.utilizationDirtyFactor / config.bandwidthMbPerSec;
    // Microsecond tick resolution bounds the rounding error.
    EXPECT_NEAR((busy_copy - idle_copy).toSeconds(), expected_extra, 2e-6);
}

TEST_F(MigrationTest, ActualDurationFrozenAtStart)
{
    MigrationEngine engine(simulator, cluster, config);
    Vm &vm = placedVm("worker", 0, 8192.0);
    vm.setCurrentDemandMhz(vm.cpuMhz());
    const SimTime busy_copy = engine.expectedDuration(vm);

    engine.request(vm.id(), 1);
    // Demand collapses mid-copy; the in-flight migration must not care.
    simulator.schedule(SimTime::seconds(1.0),
                       [&] { vm.setCurrentDemandMhz(0.0); });
    const SimTime end = simulator.run();
    EXPECT_EQ(end, busy_copy);
    EXPECT_NEAR(engine.durations().mean(), busy_copy.toSeconds(), 1e-9);
}

TEST(MigrationConfigDeathTest, RejectsBadConfig)
{
    sim::Simulator simulator;
    Cluster cluster(simulator);
    MigrationConfig bad;
    bad.bandwidthMbPerSec = 0.0;
    EXPECT_EXIT(MigrationEngine(simulator, cluster, bad),
                ::testing::ExitedWithCode(1), "bandwidth");

    bad = MigrationConfig{};
    bad.dirtyPageFactor = 0.5;
    EXPECT_EXIT(MigrationEngine(simulator, cluster, bad),
                ::testing::ExitedWithCode(1), "dirty");

    bad = MigrationConfig{};
    bad.maxConcurrentPerHost = 0;
    EXPECT_EXIT(MigrationEngine(simulator, cluster, bad),
                ::testing::ExitedWithCode(1), "slot");

    bad = MigrationConfig{};
    bad.cpuTaxFraction = 1.5;
    EXPECT_EXIT(MigrationEngine(simulator, cluster, bad),
                ::testing::ExitedWithCode(1), "tax");
}

} // namespace
} // namespace vpm::dc
