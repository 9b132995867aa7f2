/** @file Unit/integration tests for DatacenterSim evaluation & accounting. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datacenter/datacenter_sim.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "simcore/random.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {
namespace {

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

class DatacenterSimTest : public ::testing::Test
{
  protected:
    DatacenterSimTest()
        : cluster(simulator), engine(simulator, cluster),
          power_spec(power::enterpriseBlade2013())
    {
        for (int i = 0; i < 2; ++i)
            cluster.addHost(HostConfig{}, power_spec);
    }

    sim::Simulator simulator;
    Cluster cluster;
    MigrationEngine engine;
    power::HostPowerSpec power_spec;
    DatacenterConfig config;
};

TEST_F(DatacenterSimTest, GrantsFullDemandWhenUncontended)
{
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 4000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::hours(1.0));

    EXPECT_DOUBLE_EQ(vm.currentDemandMhz(), 2000.0);
    EXPECT_DOUBLE_EQ(vm.grantedMhz(), 2000.0);
    EXPECT_DOUBLE_EQ(metrics.satisfaction, 1.0);
    EXPECT_DOUBLE_EQ(metrics.violationFraction, 0.0);
}

TEST_F(DatacenterSimTest, ProportionalShareUnderOverload)
{
    // Two identical VMs demanding 24000 MHz each on a 32000 MHz host.
    const auto trace = std::make_shared<workload::ConstantTrace>(0.75);
    Vm &vm_a = cluster.addVm(makeSpec("a", 32000.0, 4096.0, trace));
    Vm &vm_b = cluster.addVm(makeSpec("b", 32000.0, 4096.0, trace));
    cluster.placeVm(vm_a.id(), 0);
    cluster.placeVm(vm_b.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::minutes(10.0));

    // Each granted 16000 of 24000 requested: ratio 2/3.
    EXPECT_NEAR(vm_a.grantedMhz(), 16000.0, 1e-6);
    EXPECT_NEAR(vm_b.grantedMhz(), 16000.0, 1e-6);
    EXPECT_NEAR(metrics.satisfaction, 2.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(metrics.violationFraction, 1.0);
}

TEST_F(DatacenterSimTest, EnergyMatchesHandComputation)
{
    // One VM at a constant 50% of one host; the other host idles.
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 32000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::hours(1.0));

    const double expected_w = power_spec.activePowerWatts(0.5) +
                              power_spec.idlePowerWatts();
    EXPECT_NEAR(metrics.averagePowerWatts, expected_w, 0.01);
    EXPECT_NEAR(metrics.energyKwh, expected_w / 1000.0, 1e-4);
    EXPECT_DOUBLE_EQ(metrics.averageHostsOn, 2.0);
}

TEST_F(DatacenterSimTest, DemandChangesAreTracked)
{
    // Step from 25% to 75% halfway through.
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 32000.0, 4096.0,
        std::make_shared<workload::StepTrace>(
            std::vector<workload::StepTrace::Step>{
                {SimTime(), 0.25}, {SimTime::minutes(30.0), 0.75}})));
    cluster.placeVm(vm.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    dcsim.start();
    simulator.runUntil(SimTime::minutes(10.0));
    EXPECT_DOUBLE_EQ(vm.grantedMhz(), 8000.0);
    simulator.runUntil(SimTime::minutes(40.0));
    EXPECT_DOUBLE_EQ(vm.grantedMhz(), 24000.0);
}

TEST_F(DatacenterSimTest, MigrationTriggersReallocation)
{
    const auto trace = std::make_shared<workload::ConstantTrace>(0.8);
    Vm &vm_a = cluster.addVm(makeSpec("a", 32000.0, 4096.0, trace));
    Vm &vm_b = cluster.addVm(makeSpec("b", 32000.0, 4096.0, trace));
    cluster.placeVm(vm_a.id(), 0);
    cluster.placeVm(vm_b.id(), 0); // overloaded together

    DatacenterSim dcsim(simulator, cluster, engine, config);
    dcsim.start();
    simulator.runUntil(SimTime::minutes(1.0));
    EXPECT_LT(vm_a.grantedMhz(), vm_a.currentDemandMhz());

    engine.request(vm_b.id(), 1);
    simulator.runUntil(SimTime::minutes(2.0));
    // After landing, both hosts are uncontended; grants healed without
    // waiting for the next periodic evaluation.
    EXPECT_EQ(vm_b.host(), 1);
    EXPECT_DOUBLE_EQ(vm_b.grantedMhz(), vm_b.currentDemandMhz());
    EXPECT_DOUBLE_EQ(vm_a.grantedMhz(), vm_a.currentDemandMhz());
}

TEST_F(DatacenterSimTest, MigrationOverheadReducesAvailableCapacity)
{
    const auto trace = std::make_shared<workload::ConstantTrace>(1.0);
    Vm &vm = cluster.addVm(makeSpec("a", 32000.0, 4096.0, trace));
    cluster.placeVm(vm.id(), 0);
    Vm &mover = cluster.addVm(makeSpec("m", 8000.0, 65536.0,
        std::make_shared<workload::ConstantTrace>(0.0)));
    cluster.placeVm(mover.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    dcsim.start();
    simulator.runUntil(SimTime::minutes(1.0));
    EXPECT_DOUBLE_EQ(vm.grantedMhz(), 32000.0);

    engine.request(mover.id(), 1); // taxes 800 MHz on both ends
    dcsim.reallocate();
    EXPECT_NEAR(vm.grantedMhz(), 32000.0 - 800.0, 1e-6);
}

TEST_F(DatacenterSimTest, VmOnSleepingHostIsStarved)
{
    // Hand-scripted violation of the management invariant: suspend a host
    // under a VM. The sim must account it as starvation, not crash.
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 4000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    dcsim.start();
    simulator.runUntil(SimTime::minutes(1.0));

    // Bypass Cluster's safety check deliberately.
    cluster.host(0).powerFsm().requestSleep("S3");
    simulator.runUntil(SimTime::minutes(10.0));

    EXPECT_DOUBLE_EQ(vm.grantedMhz(), 0.0);
    EXPECT_LT(dcsim.sla().satisfaction(), 1.0);
}

TEST_F(DatacenterSimTest, MetricsAreStableAcrossRepeatedCalls)
{
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 4000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    dcsim.runFor(SimTime::hours(1.0));
    const RunMetrics a = dcsim.metrics();
    const RunMetrics b = dcsim.metrics();
    EXPECT_DOUBLE_EQ(a.energyKwh, b.energyKwh);
    EXPECT_DOUBLE_EQ(a.satisfaction, b.satisfaction);
}

TEST_F(DatacenterSimTest, EvaluationHookFiresOncePerInterval)
{
    DatacenterSim dcsim(simulator, cluster, engine, config);
    int fired = 0;
    dcsim.addEvaluationHook([&] { ++fired; });
    dcsim.runFor(SimTime::minutes(10.0));
    EXPECT_EQ(fired, 11); // t = 0, 1, ..., 10 minutes
}

TEST_F(DatacenterSimTest, LatencyFactorFollowsHostUtilization)
{
    // One VM keeps host 0 at exactly 50%: inflation 1/(1-0.5) = 2.
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 32000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::hours(1.0));
    EXPECT_NEAR(metrics.meanLatencyFactor, 2.0, 1e-6);
    EXPECT_NEAR(metrics.p95LatencyFactor, 2.0, 0.05);
}

TEST_F(DatacenterSimTest, OverloadPinsLatencyAtCeiling)
{
    const auto trace = std::make_shared<workload::ConstantTrace>(0.9);
    Vm &vm_a = cluster.addVm(makeSpec("a", 32000.0, 4096.0, trace));
    Vm &vm_b = cluster.addVm(makeSpec("b", 32000.0, 4096.0, trace));
    cluster.placeVm(vm_a.id(), 0);
    cluster.placeVm(vm_b.id(), 0);

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::minutes(10.0));
    // rho is capped at 0.95: factor 20.
    EXPECT_NEAR(metrics.meanLatencyFactor, 20.0, 1e-6);
}

TEST_F(DatacenterSimTest, StaleHostIdGetsStarvedLatencyFactor)
{
    // A VM whose recorded host id no longer names a live host (e.g. the
    // host was just removed from inventory while the placement record
    // lagged) must read as fully starved — the 1/(1-0.95) ceiling — not
    // index latencyFactor_ out of bounds.
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 4000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);
    vm.setHost(static_cast<HostId>(999)); // stale id past the host table

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::minutes(5.0));
    EXPECT_NEAR(metrics.meanLatencyFactor, 20.0, 1e-9);
    EXPECT_NEAR(metrics.p95LatencyFactor, 20.0, 0.05);
}

TEST_F(DatacenterSimTest, NegativeHostIdGetsStarvedLatencyFactor)
{
    Vm &vm = cluster.addVm(makeSpec(
        "vm0", 4000.0, 4096.0,
        std::make_shared<workload::ConstantTrace>(0.5)));
    cluster.placeVm(vm.id(), 0);
    vm.setHost(static_cast<HostId>(-7)); // corrupt placement record

    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::minutes(5.0));
    EXPECT_NEAR(metrics.meanLatencyFactor, 20.0, 1e-9);
}

TEST_F(DatacenterSimTest, IdleClusterHasUnitLatency)
{
    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::minutes(5.0));
    EXPECT_DOUBLE_EQ(metrics.meanLatencyFactor, 1.0);
}

TEST_F(DatacenterSimTest, SimulatedHoursReported)
{
    DatacenterSim dcsim(simulator, cluster, engine, config);
    const RunMetrics metrics = dcsim.runFor(SimTime::hours(2.5));
    EXPECT_DOUBLE_EQ(metrics.simulatedHours, 2.5);
}

TEST_F(DatacenterSimTest, StartTwicePanics)
{
    DatacenterSim dcsim(simulator, cluster, engine, config);
    dcsim.start();
    EXPECT_DEATH(dcsim.start(), "twice");
}

TEST(DatacenterSimConfigDeathTest, RejectsBadInterval)
{
    sim::Simulator simulator;
    Cluster cluster(simulator);
    MigrationEngine engine(simulator, cluster);
    DatacenterConfig bad;
    bad.evaluationInterval = SimTime();
    EXPECT_EXIT(DatacenterSim(simulator, cluster, engine, bad),
                ::testing::ExitedWithCode(1), "positive");
}


TEST(WakeLatencyMirrorTest, ColumnMatchesHierarchyAfterEveryEvaluation)
{
    // The store's wake-latency column is a cache of each hierarchy's
    // wakeLatency(), which the evaluate host pass reads in its place.
    // Audit it after every evaluation of a run whose hierarchies descend
    // under a governor, pause and resume with the server, and live on
    // hosts added after the store's first growth (16 rows) and during
    // the run.
    sim::Simulator simulator;
    Cluster cluster(simulator);
    MigrationEngine engine(simulator, cluster);
    const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
    const power::IdleHierarchySpec hier_spec = power::modernIdleHierarchy();

    std::vector<HostId> governed;
    const auto govern = [&](HostId h) {
        // Self-rescheduling per-host idle governor, 60 s period.
        struct Tick
        {
            Cluster &cluster;
            sim::Simulator &simulator;
            HostId h;
            void operator()() const
            {
                cluster.host(h).idleGovernorTick();
                simulator.schedule(SimTime::seconds(60.0), Tick{*this},
                                   "test.governor");
            }
        };
        simulator.schedule(SimTime::seconds(static_cast<double>(h % 60)),
                           Tick{cluster, simulator, h}, "test.governor");
        governed.push_back(h);
    };
    const auto add_hosts = [&](int count) {
        for (int i = 0; i < count; ++i) {
            Host &host = cluster.addHost(HostConfig{}, power_spec);
            host.attachIdleHierarchy(
                std::make_unique<power::IdleHierarchy>(simulator, hier_spec));
            govern(host.id());
        }
    };
    const auto add_vm = [&](HostId h) {
        // Busy cores move every 10 minutes, so the governor re-targets.
        const double phase = static_cast<double>(h % 4);
        std::vector<workload::StepTrace::Step> steps;
        for (int k = 0; k < 24; ++k) {
            const double levels[] = {0.05, 0.6, 0.0, 0.3};
            steps.push_back({SimTime::minutes(10.0 * k + phase),
                             levels[(k + h) % 4]});
        }
        Vm &vm = cluster.addVm(makeSpec(
            "vm" + std::to_string(h), 32000.0, 4096.0,
            std::make_shared<workload::StepTrace>(std::move(steps))));
        cluster.placeVm(vm.id(), h);
    };

    add_hosts(20);
    cluster.addHost(HostConfig{}, power_spec); // no hierarchy: reads 0
    for (HostId h = 0; h < 10; ++h)
        add_vm(h);

    DatacenterSim dcsim(simulator, cluster, engine, DatacenterConfig{});
    int audits = 0;
    int deep_reads = 0;
    dcsim.addEvaluationHook([&] {
        const FleetStore &fleet = cluster.fleet();
        for (const auto &host : cluster.hosts()) {
            const power::IdleHierarchy *hier = host->idleHierarchy();
            const double want =
                hier != nullptr ? hier->wakeLatency().toSeconds() : 0.0;
            ASSERT_EQ(fleet.hostWakeLatencyS(host->id()), want)
                << "host " << host->id() << " at "
                << simulator.now().toSeconds() << " s";
            if (want > 0.0)
                ++deep_reads;
        }
        ++audits;
    });

    // Sleep/wake excursions: every 7 minutes, put the empty hosts that
    // have fully descended to S3 and wake the ones asleep.
    int sleeps = 0;
    int wakes = 0;
    std::function<void()> excursion = [&] {
        for (const HostId h : governed) {
            Host &host = cluster.host(h);
            if (!host.vms().empty())
                continue;
            if (host.powerFsm().phase() == power::PowerPhase::Asleep) {
                wakes += cluster.requestHostWake(h) ? 1 : 0;
            } else if (host.isOn() &&
                       host.idleHierarchy()->fullyDescended()) {
                sleeps += cluster.requestHostSleep(h, "S3") ? 1 : 0;
            }
        }
        simulator.schedule(SimTime::minutes(7.0), excursion,
                           "test.excursion");
    };
    simulator.schedule(SimTime::minutes(3.0), excursion, "test.excursion");

    // Mid-run growth: 20 more hierarchy hosts take the store from 32 to
    // 64 rows; half of them get work.
    simulator.schedule(
        SimTime::minutes(30.0),
        [&] {
            add_hosts(20);
            for (HostId h = 21; h < 31; ++h)
                add_vm(h);
        },
        "test.grow");

    dcsim.runFor(SimTime::hours(2.0));

    EXPECT_EQ(cluster.hostCount(), 41u);
    EXPECT_GE(audits, 120);
    EXPECT_GT(deep_reads, 0);
    EXPECT_GT(sleeps, 0);
    EXPECT_GT(wakes, 0);
}

TEST(HostPhaseMirrorTest, IsOnAndUtilizationMatchTheFsmAfterEveryTransition)
{
    // Host::isOn() reads the store's phase byte, which the host's first
    // FSM observer keeps in step, and utilization() reads only store
    // columns. Audit both against the FSM and a recompute from the VM
    // grants after every phase change (from an observer registered after
    // the host's own) and every simulated second, through S3 entry,
    // asleep, wake, exit, a wake latched mid-entry and a failed wake's
    // retry, on loaded hosts with migration overhead and a lowered
    // frequency.
    sim::Simulator simulator;
    Cluster cluster(simulator);
    MigrationEngine engine(simulator, cluster);
    const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
    for (int i = 0; i < 4; ++i)
        cluster.addHost(HostConfig{}, power_spec);
    for (HostId h = 0; h < 2; ++h) {
        for (int k = 0; k < 3; ++k) {
            Vm &vm = cluster.addVm(makeSpec(
                "vm" + std::to_string(h) + "_" + std::to_string(k), 16000.0,
                4096.0, std::make_shared<workload::ConstantTrace>(0.7)));
            cluster.placeVm(vm.id(), h);
        }
    }

    int audits = 0;
    const auto audit = [&](const char *when) {
        for (const auto &host : cluster.hosts()) {
            const power::PowerStateMachine &fsm = host->powerFsm();
            ASSERT_EQ(host->isOn(), fsm.isOn())
                << "host " << host->id() << " " << when << " at "
                << simulator.now().toSeconds() << " s";
            double want = 0.0;
            if (fsm.isOn()) {
                double granted = 0.0;
                for (const Vm *vm : host->vms())
                    granted += vm->grantedMhz();
                const double busy = granted + host->migrationOverheadMhz();
                want = std::clamp(busy / (host->cpuCapacityMhz() *
                                          host->frequencyFraction()),
                                  0.0, 1.0);
            }
            ASSERT_EQ(host->utilization(), want)
                << "host " << host->id() << " " << when << " at "
                << simulator.now().toSeconds() << " s";
        }
        ++audits;
    };

    std::map<power::PowerPhase, int> entered;
    int latched = 0;
    for (const auto &host : cluster.hosts()) {
        const power::PowerStateMachine *fsm = &host->powerFsm();
        host->powerFsm().addObserver(
            [&, fsm](power::PowerPhase, power::PowerPhase to) {
                ++entered[to];
                if (to == power::PowerPhase::Asleep && fsm->wakePending())
                    ++latched;
                audit("after a transition");
            });
    }
    std::function<void()> tick = [&] {
        audit("on the second");
        simulator.schedule(SimTime::seconds(1.0), tick, "test.audit");
    };
    simulator.schedule(SimTime(), tick, "test.audit");

    sim::Rng rng(7);
    const auto at = [&](double s, std::function<void()> action) {
        simulator.scheduleAt(SimTime::seconds(s), std::move(action),
                             "test.step");
    };
    // Enterprise blade S3: 7 s entry, 15 s exit.
    at(10.0, [&] {
        cluster.host(0).addMigrationOverheadMhz(3000.0);
        cluster.host(1).setFrequencyFraction(0.8);
    });
    at(20.0, [&] { EXPECT_TRUE(cluster.requestHostSleep(2, "S3")); });
    at(60.0, [&] { EXPECT_TRUE(cluster.requestHostWake(2)); });
    at(100.0, [&] { EXPECT_TRUE(cluster.requestHostSleep(3, "S3")); });
    at(103.0, [&] { EXPECT_TRUE(cluster.requestHostWake(3)); }); // latched
    at(200.0, [&] {
        cluster.host(2).powerFsm().setWakeFailure(1.0, &rng);
        EXPECT_TRUE(cluster.requestHostSleep(2, "S3"));
    });
    at(250.0, [&] { EXPECT_TRUE(cluster.requestHostWake(2)); });
    // The 265 s exit fails and retries; let the retry succeed.
    at(270.0,
       [&] { cluster.host(2).powerFsm().setWakeFailure(0.0, nullptr); });
    at(300.0, [&] { cluster.host(0).addMigrationOverheadMhz(-3000.0); });

    DatacenterSim dcsim(simulator, cluster, engine, DatacenterConfig{});
    dcsim.runFor(SimTime::minutes(10.0));

    EXPECT_EQ(entered[power::PowerPhase::Entering], 3);
    EXPECT_EQ(entered[power::PowerPhase::Asleep], 3);
    EXPECT_EQ(entered[power::PowerPhase::Exiting], 3);
    EXPECT_EQ(entered[power::PowerPhase::On], 3);
    EXPECT_EQ(latched, 1);
    EXPECT_EQ(cluster.host(2).powerFsm().wakeRetryCount(), 1u);
    EXPECT_GE(audits, 600);
    for (const auto &host : cluster.hosts())
        EXPECT_TRUE(host->isOn());
    EXPECT_GT(cluster.host(0).utilization(), 0.0);
}

} // namespace
} // namespace vpm::dc
