/** @file Integration tests for the VpmManager control loop. */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/manager.hpp"
#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::mgmt {
namespace {

using dc::Cluster;
using dc::DatacenterConfig;
using dc::DatacenterSim;
using dc::HostConfig;
using dc::MigrationEngine;
using dc::Vm;
using sim::SimTime;

workload::VmWorkloadSpec
makeSpec(const std::string &name, double cpu_mhz, double mem_mb,
         workload::TracePtr trace)
{
    workload::VmWorkloadSpec spec;
    spec.name = name;
    spec.cpuMhz = cpu_mhz;
    spec.memoryMb = mem_mb;
    spec.trace = std::move(trace);
    return spec;
}

/** A 4-host rig with hand-placed constant VMs. */
class ManagerTest : public ::testing::Test
{
  protected:
    ManagerTest()
        : cluster(simulator), engine(simulator, cluster),
          dcsim(simulator, cluster, engine, DatacenterConfig{})
    {
        const power::HostPowerSpec spec = power::enterpriseBlade2013();
        for (int i = 0; i < 4; ++i)
            cluster.addHost(HostConfig{}, spec);
    }

    /** One constant-demand VM on each host at the given level. */
    void
    populate(double level, double cpu_mhz = 8000.0)
    {
        for (int h = 0; h < 4; ++h) {
            Vm &vm = cluster.addVm(makeSpec(
                "vm" + std::to_string(h), cpu_mhz, 4096.0,
                std::make_shared<workload::ConstantTrace>(level)));
            cluster.placeVm(vm.id(), h);
        }
    }

    std::unique_ptr<VpmManager>
    makeManager(VpmConfig config)
    {
        auto manager = std::make_unique<VpmManager>(simulator, cluster,
                                                    engine, dcsim, config);
        manager->start();
        return manager;
    }

    sim::Simulator simulator;
    Cluster cluster;
    MigrationEngine engine;
    DatacenterSim dcsim;
};

TEST_F(ManagerTest, NoPmPolicyIssuesNoActions)
{
    populate(0.1);
    VpmConfig config;
    config.loadBalance = false;
    config.powerManage = false;
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(4.0));
    EXPECT_EQ(manager->stats().migrationsRequested, 0u);
    EXPECT_EQ(manager->stats().sleepsIssued, 0u);
    EXPECT_EQ(cluster.hostsOn(), 4);
    EXPECT_GT(manager->stats().cycles, 0u);
}

TEST_F(ManagerTest, ConsolidatesLowLoadAndSleepsHosts)
{
    populate(0.10); // 3200 MHz of 128000 total: huge surplus
    VpmConfig config;
    config.sleepState = "S3";
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(4.0));
    EXPECT_GT(manager->stats().evacuationsStarted, 0u);
    EXPECT_GT(manager->stats().sleepsIssued, 0u);
    EXPECT_LT(cluster.hostsOn(), 4);
    EXPECT_GT(cluster.hostsAsleep(), 0);
    // No VM got stranded: satisfaction stays perfect.
    EXPECT_DOUBLE_EQ(dcsim.sla().satisfaction(), 1.0);
}

TEST_F(ManagerTest, HysteresisDelaysConsolidation)
{
    populate(0.10);
    VpmConfig config;
    config.hysteresisCycles = 4;
    config.period = SimTime::minutes(5.0);
    const auto manager = makeManager(config);

    // After 3 cycles (t=0,5,10 min): streak too short, nothing evacuated.
    dcsim.runFor(SimTime::minutes(14.0));
    EXPECT_EQ(manager->stats().evacuationsStarted, 0u);

    dcsim.runFor(SimTime::minutes(30.0));
    EXPECT_GT(manager->stats().evacuationsStarted, 0u);
}

TEST_F(ManagerTest, HighLoadPreventsConsolidation)
{
    populate(0.80, 30000.0); // 96000 of 128000: no host can be spared
    const auto manager = makeManager(VpmConfig{});

    dcsim.runFor(SimTime::hours(2.0));
    EXPECT_EQ(manager->stats().sleepsIssued, 0u);
    EXPECT_EQ(cluster.hostsOn(), 4);
}

TEST_F(ManagerTest, WakesHostsWhenDemandRises)
{
    // Low demand first, step up sharply at t = 2 h.
    for (int h = 0; h < 4; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 24000.0, 4096.0,
            std::make_shared<workload::StepTrace>(
                std::vector<workload::StepTrace::Step>{
                    {SimTime(), 0.05}, {SimTime::hours(2.0), 0.85}})));
        cluster.placeVm(vm.id(), h);
    }
    VpmConfig config;
    config.sleepState = "S3";
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(2.0));
    const int on_at_trough = cluster.hostsOn();
    EXPECT_LT(on_at_trough, 4);

    dcsim.runFor(SimTime::hours(1.0));
    EXPECT_GT(manager->stats().wakesIssued, 0u);
    EXPECT_GT(cluster.hostsOn(), on_at_trough);
    // An instant 17x step costs a few minutes of shortfall, then heals:
    // aggregate satisfaction stays high and the end state is fully served.
    EXPECT_GT(dcsim.sla().satisfaction(), 0.90);
    for (const auto &vm_ptr : cluster.vms()) {
        EXPECT_DOUBLE_EQ(vm_ptr->grantedMhz(),
                         vm_ptr->currentDemandMhz());
    }
}

TEST_F(ManagerTest, DrainingHostsAreTrackedAndCompleted)
{
    populate(0.05);
    VpmConfig config;
    config.hysteresisCycles = 1;
    config.period = SimTime::minutes(1.0);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(1.0));
    // All drains eventually complete (none left hanging).
    EXPECT_TRUE(manager->drainingHosts().empty());
    EXPECT_GT(manager->stats().sleepsIssued, 0u);
}

TEST_F(ManagerTest, LoadBalanceOnlyKeepsEverythingOn)
{
    populate(0.10);
    VpmConfig config = makePolicy(PolicyKind::DrmOnly);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(2.0));
    EXPECT_EQ(cluster.hostsOn(), 4);
    EXPECT_EQ(manager->stats().sleepsIssued, 0u);
    EXPECT_EQ(manager->stats().wakesIssued, 0u);
}

TEST_F(ManagerTest, RebalanceRelievesOverloadedHost)
{
    // Everything piled on host 0; other hosts empty.
    for (int i = 0; i < 4; ++i) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(i), 12000.0, 4096.0,
            std::make_shared<workload::ConstantTrace>(0.9)));
        cluster.placeVm(vm.id(), 0);
    }
    VpmConfig config = makePolicy(PolicyKind::DrmOnly);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(1.0));
    EXPECT_GT(manager->stats().balanceMoves, 0u);
    // Overload resolved: everyone gets their demand.
    EXPECT_DOUBLE_EQ(
        cluster.vm(0).grantedMhz(), cluster.vm(0).currentDemandMhz());
}

TEST_F(ManagerTest, AdaptivePolicySleepsSomething)
{
    populate(0.05);
    VpmConfig config = makePolicy(PolicyKind::PmAdaptive);
    config.expectedIdleSeed = SimTime::hours(2.0);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(3.0));
    EXPECT_GT(manager->stats().sleepsIssued, 0u);
    EXPECT_GT(cluster.hostsAsleep(), 0);
}

TEST_F(ManagerTest, AdaptivePolicyStaysOnWhenIdleTooShort)
{
    populate(0.05);
    VpmConfig config = makePolicy(PolicyKind::PmAdaptive);
    // With an expected idle of 2 s, no state can pay off: never sleep.
    config.expectedIdleSeed = SimTime::seconds(2.0);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(2.0));
    EXPECT_EQ(manager->stats().sleepsIssued, 0u);
    EXPECT_EQ(cluster.hostsOn(), 4);
}

TEST_F(ManagerTest, ManagementCycleCountMatchesCadence)
{
    populate(0.3);
    VpmConfig config;
    config.period = SimTime::minutes(5.0);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::minutes(20.0));
    // Cycles at t = 0, 5, 10, 15, 20.
    EXPECT_EQ(manager->stats().cycles, 5u);
}

TEST_F(ManagerTest, ShortfallCancelsDrainsBeforeWaking)
{
    // Start consolidated; then a step spike forces capacity back.
    for (int h = 0; h < 4; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 24000.0, 4096.0,
            std::make_shared<workload::StepTrace>(
                std::vector<workload::StepTrace::Step>{
                    {SimTime(), 0.05}, {SimTime::hours(1.0), 0.9}})));
        cluster.placeVm(vm.id(), h);
    }
    VpmConfig config;
    config.hysteresisCycles = 1;
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(3.0));
    // The spike hit while consolidation was ongoing at least once.
    EXPECT_GT(manager->stats().shortfallCycles, 0u);
    EXPECT_GT(cluster.hostsOn(), 2);
}

TEST_F(ManagerTest, ExpectedIdleAdaptsFromObservedSleepEpisodes)
{
    // Square wave with a 3 h trough: the manager sleeps hosts during the
    // trough and wakes them at the edge; each completed episode feeds the
    // idle-interval estimate (EWMA, seeded at 20 min).
    std::vector<workload::StepTrace::Step> steps;
    for (int cycle = 0; cycle < 4; ++cycle) {
        steps.push_back({SimTime::hours(cycle * 6.0), 0.05});
        steps.push_back({SimTime::hours(cycle * 6.0 + 3.0), 0.75});
    }
    for (int h = 0; h < 4; ++h) {
        Vm &vm = cluster.addVm(
            makeSpec("vm" + std::to_string(h), 24000.0, 4096.0,
                     std::make_shared<workload::StepTrace>(steps)));
        cluster.placeVm(vm.id(), h);
    }

    VpmConfig config = makePolicy(PolicyKind::PmS3);
    config.hysteresisCycles = 1;
    const auto manager = makeManager(config);
    const SimTime seed = manager->expectedIdle();

    dcsim.runFor(SimTime::hours(24.0));
    ASSERT_GT(manager->stats().wakesIssued, 0u);
    // Observed ~3 h episodes drag the estimate far above the 20 min seed.
    EXPECT_GT(manager->expectedIdle(), seed * 2.0);
    EXPECT_LT(manager->expectedIdle(), SimTime::hours(4.0));
}

TEST_F(ManagerTest, PowerCapDeniesWakes)
{
    // Trough then step: with an uncapped manager the step wakes hosts;
    // with a cap just above 2 hosts' nameplate it cannot.
    for (int h = 0; h < 4; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 24000.0, 4096.0,
            std::make_shared<workload::StepTrace>(
                std::vector<workload::StepTrace::Step>{
                    {SimTime(), 0.05}, {SimTime::hours(2.0), 0.85}})));
        cluster.placeVm(vm.id(), h);
    }
    VpmConfig config = makePolicy(PolicyKind::PmS3);
    // Nameplate peak is 255 W/host: allow roughly two hosts.
    config.clusterPowerCapWatts = 2.2 * 255.0;
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(4.0));
    EXPECT_GT(manager->stats().wakesDeniedByCap, 0u);
    // The cap binds: satisfaction suffers, but the cluster never turned
    // on capacity beyond budget.
    EXPECT_LT(dcsim.sla().satisfaction(), 0.95);
    EXPECT_LE(cluster.hostsOn(), 2);
}

TEST_F(ManagerTest, MaintenanceEvacuatesAndHoldsHostOn)
{
    populate(0.30);
    VpmConfig config = makePolicy(PolicyKind::PmS3);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::minutes(10.0));
    EXPECT_TRUE(manager->requestMaintenance(1));
    EXPECT_FALSE(manager->requestMaintenance(1)); // already in

    dcsim.runFor(SimTime::hours(1.0));
    // Evacuated, still on, not asleep — ready for the screwdriver.
    EXPECT_TRUE(manager->maintenanceReady(1));
    EXPECT_TRUE(cluster.host(1).isOn());
    EXPECT_TRUE(cluster.host(1).empty());
    EXPECT_DOUBLE_EQ(dcsim.sla().satisfaction(), 1.0);

    EXPECT_TRUE(manager->endMaintenance(1));
    EXPECT_FALSE(manager->endMaintenance(1));
    EXPECT_FALSE(manager->maintenanceReady(1));
}

TEST_F(ManagerTest, SleepingMaintenanceHostIsNeverWoken)
{
    // Step demand: trough then surge, so the manager wants every host.
    for (int h = 0; h < 4; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 24000.0, 4096.0,
            std::make_shared<workload::StepTrace>(
                std::vector<workload::StepTrace::Step>{
                    {SimTime(), 0.05}, {SimTime::hours(2.0), 0.9}})));
        cluster.placeVm(vm.id(), h);
    }
    VpmConfig config = makePolicy(PolicyKind::PmS3);
    config.hysteresisCycles = 1;
    const auto manager = makeManager(config);

    // Stop just before the demand step so the trough state is visible.
    dcsim.runFor(SimTime::hours(2.0) - SimTime::minutes(2.0));
    ASSERT_GT(cluster.hostsAsleep(), 0);
    // Put one sleeping host into maintenance right before the surge.
    dc::HostId parked = dc::invalidHostId;
    for (const auto &host_ptr : cluster.hosts()) {
        if (host_ptr->powerFsm().phase() == power::PowerPhase::Asleep) {
            parked = host_ptr->id();
            break;
        }
    }
    ASSERT_NE(parked, dc::invalidHostId);
    manager->requestMaintenance(parked);

    dcsim.runFor(SimTime::hours(2.0));
    // The surge woke everything else, but never the maintenance host.
    EXPECT_FALSE(cluster.host(parked).isOn());
    EXPECT_EQ(cluster.host(parked).powerFsm().phase(),
              power::PowerPhase::Asleep);
}

TEST(HeterogeneityTest, AwareManagerParksLegacyHostsFirst)
{
    sim::Simulator simulator;
    Cluster cluster(simulator);
    // Hosts 0-1: efficient blades; hosts 2-3: legacy power hogs.
    cluster.addHost(HostConfig{}, power::enterpriseBlade2013());
    cluster.addHost(HostConfig{}, power::enterpriseBlade2013());
    cluster.addHost(HostConfig{}, power::legacyServer2009());
    cluster.addHost(HostConfig{}, power::legacyServer2009());

    for (int h = 0; h < 4; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 4000.0, 4096.0,
            std::make_shared<workload::ConstantTrace>(0.2)));
        cluster.placeVm(vm.id(), h);
    }

    MigrationEngine engine(simulator, cluster);
    DatacenterSim dcsim(simulator, cluster, engine, DatacenterConfig{});
    VpmConfig config = makePolicy(PolicyKind::PmS3);
    config.heterogeneityAware = true;
    config.hysteresisCycles = 1;
    VpmManager manager(simulator, cluster, engine, dcsim, config);
    manager.start();

    dcsim.runFor(SimTime::hours(4.0));

    // The tiny fleet fits on one host; with three parked, both legacy
    // hosts must be among them (the survivor is an efficient blade).
    ASSERT_EQ(cluster.hostsOn(), 1);
    EXPECT_FALSE(cluster.host(2).isOn());
    EXPECT_FALSE(cluster.host(3).isOn());
    EXPECT_TRUE(cluster.host(0).isOn() || cluster.host(1).isOn());
    EXPECT_DOUBLE_EQ(dcsim.sla().satisfaction(), 1.0);
}

TEST_F(ManagerTest, HierarchicalModeSleepsEmptyAndWakesOnDemand)
{
    // VMs live on hosts 0-1 (rack 0); hosts 2-3 (rack 1) are born empty.
    // Hierarchical mode never migrates, so rack 1 is the only sleep
    // material — and the step at t = 2 h must wake it back up.
    for (int h = 0; h < 2; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 30000.0, 4096.0,
            std::make_shared<workload::StepTrace>(
                std::vector<workload::StepTrace::Step>{
                    {SimTime(), 0.05}, {SimTime::hours(2.0), 0.85}})));
        cluster.placeVm(vm.id(), h);
    }
    VpmConfig config;
    config.hierarchical = true;
    config.hostsPerRack = 2;
    config.racksPerPod = 2;
    config.sleepState = "S3";
    const auto manager = makeManager(config);

    // Stop shy of the step: the cycle at exactly t = 2 h already sees
    // the high demand and starts waking.
    dcsim.runFor(SimTime::hours(1.9));
    EXPECT_GT(manager->stats().sleepsIssued, 0u);
    EXPECT_EQ(cluster.hostsOn(), 2);
    EXPECT_EQ(cluster.hostsAsleep(), 2);
    // Loaded hosts hold VMs, so they are never candidates.
    EXPECT_TRUE(cluster.host(0).isOn());
    EXPECT_TRUE(cluster.host(1).isOn());
    // No migrations in hierarchical mode, ever.
    EXPECT_EQ(manager->stats().migrationsRequested, 0u);

    dcsim.runFor(SimTime::hours(1.1));
    EXPECT_GT(manager->stats().wakesIssued, 0u);
    EXPECT_GT(cluster.hostsOn(), 2);
    EXPECT_GT(dcsim.sla().satisfaction(), 0.90);
}

TEST_F(ManagerTest, HierarchicalModeMatchesCycleCadence)
{
    populate(0.5);
    VpmConfig config;
    config.hierarchical = true;
    config.hostsPerRack = 2;
    config.racksPerPod = 2;
    config.period = SimTime::minutes(10.0);
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(1.0));
    // Cycles at t = 0, 10, ..., 60 min (the run is end-inclusive).
    EXPECT_EQ(manager->stats().cycles, 7u);
    // Half-loaded everywhere: no shortfall, nothing to sleep (no host is
    // empty), so the triage must have been a no-op.
    EXPECT_EQ(manager->stats().sleepsIssued, 0u);
    EXPECT_EQ(manager->stats().wakesIssued, 0u);
    EXPECT_EQ(cluster.hostsOn(), 4);
}

TEST_F(ManagerTest, HierarchicalPowerCapDeniesWakes)
{
    // The rig of HierarchicalModeSleepsEmptyAndWakesOnDemand: rack 1
    // sleeps through the trough, and the step at t = 2 h wants it back.
    for (int h = 0; h < 2; ++h) {
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 30000.0, 4096.0,
            std::make_shared<workload::StepTrace>(
                std::vector<workload::StepTrace::Step>{
                    {SimTime(), 0.05}, {SimTime::hours(2.0), 0.85}})));
        cluster.placeVm(vm.id(), h);
    }
    VpmConfig config;
    config.hierarchical = true;
    config.hostsPerRack = 2;
    config.racksPerPod = 2;
    config.sleepState = "S3";
    // Nameplate peak is 255 W/host: the two loaded hosts fit, a third
    // does not.
    config.clusterPowerCapWatts = 2.2 * 255.0;
    const auto manager = makeManager(config);

    dcsim.runFor(SimTime::hours(3.0));
    EXPECT_GT(manager->stats().sleepsIssued, 0u);
    EXPECT_GT(manager->stats().wakesDeniedByCap, 0u);
    EXPECT_EQ(manager->stats().wakesIssued, 0u);
    EXPECT_EQ(cluster.hostsOn(), 2);
}

/** Telemetry-on fixture: the journal must hold a whole run unwrapped. */
class DecisionAccountingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::TelemetryConfig config;
        config.enabled = true;
        config.journalCapacity = 1u << 18;
        config.seriesRowsEnabled = false;
        telemetry::global().configure(config);
    }

    void
    TearDown() override
    {
        telemetry::global().configure(telemetry::TelemetryConfig{});
    }

    /** Run @p config and check every issued sleep and wake journaled
     *  exactly one decision record. */
    static ManagerStats
    runAndCount(const ScenarioConfig &config)
    {
        const ScenarioResult result = runScenario(config);
        const telemetry::EventJournal &journal =
            telemetry::global().journal();
        EXPECT_EQ(journal.recorded(), journal.size()) << "journal wrapped";
        std::uint64_t sleeps = 0;
        std::uint64_t wakes = 0;
        for (const telemetry::JournalEvent &ev : journal.sortedEvents()) {
            sleeps += ev.kind == telemetry::EventKind::SleepDecision;
            wakes += ev.kind == telemetry::EventKind::WakeDecision;
        }
        EXPECT_EQ(sleeps, result.manager.sleepsIssued);
        EXPECT_EQ(wakes, result.manager.wakesIssued);
        return result.manager;
    }

    static ScenarioConfig
    baseConfig()
    {
        ScenarioConfig config;
        config.hostCount = 8;
        config.vmCount = 40;
        config.duration = SimTime::hours(24.0);
        config.manager = makePolicy(PolicyKind::PmS3);
        return config;
    }
};

TEST_F(DecisionAccountingTest, FlatParkedReserveJournalsEverySleepAndWake)
{
    // Drains park first; the reserve's overflow sleeps; shortfalls unpark
    // before they wake.
    ScenarioConfig config = baseConfig();
    config.manager.parkedReserve = 3;
    config.idleHierarchy = power::modernIdleHierarchy();
    const ManagerStats stats = runAndCount(config);
    EXPECT_GT(stats.hostsParked, 0u);
    EXPECT_GT(stats.hostsUnparked, 0u);
    EXPECT_GT(stats.sleepsIssued, 0u);
}

TEST_F(DecisionAccountingTest, HierarchicalJournalsEverySleepAndWake)
{
    ScenarioConfig config = baseConfig();
    config.manager.hierarchical = true;
    config.manager.hostsPerRack = 4;
    config.manager.racksPerPod = 2;
    config.mix.loadScale = 1.2; // the day peak re-wakes the empty tail
    const ManagerStats stats = runAndCount(config);
    EXPECT_GT(stats.sleepsIssued, 0u);
    EXPECT_GT(stats.wakesIssued, 0u);
}

TEST(ManagerConfigDeathTest, RejectsBadConfigs)
{
    sim::Simulator simulator;
    Cluster cluster(simulator);
    MigrationEngine engine(simulator, cluster);
    DatacenterSim dcsim(simulator, cluster, engine, DatacenterConfig{});

    VpmConfig bad;
    bad.period = SimTime::seconds(90.0); // not a multiple of 1 min
    EXPECT_EXIT(VpmManager(simulator, cluster, engine, dcsim, bad),
                ::testing::ExitedWithCode(1), "multiple");

    bad = VpmConfig{};
    bad.targetUtilization = 1.5;
    EXPECT_EXIT(VpmManager(simulator, cluster, engine, dcsim, bad),
                ::testing::ExitedWithCode(1), "target");

    bad = VpmConfig{};
    bad.hysteresisCycles = 0;
    EXPECT_EXIT(VpmManager(simulator, cluster, engine, dcsim, bad),
                ::testing::ExitedWithCode(1), "hysteresis");
}

TEST(PolicyTest, PresetsHaveExpectedShape)
{
    EXPECT_FALSE(makePolicy(PolicyKind::NoPM).loadBalance);
    EXPECT_FALSE(makePolicy(PolicyKind::NoPM).powerManage);

    EXPECT_TRUE(makePolicy(PolicyKind::DrmOnly).loadBalance);
    EXPECT_FALSE(makePolicy(PolicyKind::DrmOnly).powerManage);

    EXPECT_EQ(makePolicy(PolicyKind::PmS5).sleepState, "S5");
    EXPECT_EQ(makePolicy(PolicyKind::PmS3).sleepState, "S3");
    EXPECT_TRUE(makePolicy(PolicyKind::PmAdaptive).sleepState.empty());

    // S5's latency forces a more conservative posture than S3's.
    EXPECT_GT(makePolicy(PolicyKind::PmS5).capacityBuffer,
              makePolicy(PolicyKind::PmS3).capacityBuffer);
    EXPECT_GT(makePolicy(PolicyKind::PmS5).hysteresisCycles,
              makePolicy(PolicyKind::PmS3).hysteresisCycles);

    // Names are unique.
    std::set<std::string> names;
    for (const PolicyKind kind : allPolicies)
        names.insert(toString(kind));
    EXPECT_EQ(names.size(), std::size(allPolicies));
}

} // namespace
} // namespace vpm::mgmt
