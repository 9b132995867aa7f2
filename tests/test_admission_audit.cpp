/**
 * @file
 * Randomized audit of the incremental admission and planning state.
 *
 * A small cluster takes a random stream of migration requests, host
 * crashes with HA moves, sleeps, wakes, VM retirements and moves of queued
 * VMs onto their destinations, with and without a rack topology. After
 * every dispatched event the migration engine's epoch-gated queue and a
 * placement model kept the way VpmManager keeps its own are audited
 * against from-scratch recomputes (MigrationEngine::auditQueue,
 * PlacementModel::audit); both panic on a mismatch.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/placement.hpp"
#include "datacenter/migration.hpp"
#include "power/server_models.hpp"
#include "simcore/logging.hpp"
#include "simcore/random.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {
namespace {

using sim::SimTime;

constexpr int kHosts = 8;
constexpr int kVms = 28;

class AdmissionAuditTest
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
  protected:
    AdmissionAuditTest()
        : rng(static_cast<std::uint64_t>(std::get<0>(GetParam())) * 7717),
          cluster(simulator)
    {
        HostConfig host_config;
        host_config.memoryCapacityMb = 32768.0;
        const power::HostPowerSpec spec = power::enterpriseBlade2013();
        for (int h = 0; h < kHosts; ++h)
            cluster.addHost(host_config, spec);
        for (int v = 0; v < kVms; ++v) {
            workload::VmWorkloadSpec vm_spec;
            vm_spec.name = "vm" + std::to_string(v);
            vm_spec.cpuMhz = rng.uniform(500.0, 4000.0);
            vm_spec.memoryMb = rng.uniform(1024.0, 12288.0);
            vm_spec.trace = std::make_shared<workload::ConstantTrace>(0.5);
            Vm &vm = cluster.addVm(std::move(vm_spec));
            for (int tries = 0; tries < kHosts; ++tries) {
                const HostId host = (v + tries) % kHosts;
                if (cluster.memoryFits(vm, cluster.host(host))) {
                    cluster.placeVm(vm.id(), host);
                    break;
                }
            }
        }

        MigrationConfig config;
        config.maxConcurrentPerHost = static_cast<int>(rng.uniformInt(1, 2));
        engine.emplace(simulator, cluster, config);
        if (std::get<1>(GetParam())) {
            TopologyConfig topo_config;
            topo_config.hostsPerRack = 2;
            topo_config.uplinkMigrationSlotsPerRack = 1;
            topology.emplace(kHosts, topo_config);
            engine->setTopology(&*topology);
        }
    }

    HostId randomHost()
    {
        return static_cast<HostId>(rng.uniformInt(0, kHosts - 1));
    }
    VmId randomVm() { return static_cast<VmId>(rng.uniformInt(0, kVms - 1)); }

    /** One random operation, as a scheduled event would run it. */
    void randomOperation()
    {
        const std::int64_t kind = rng.uniformInt(0, 99);
        if (kind < 60) {
            engine->request(randomVm(), randomHost()); // may be rejected
        } else if (kind < 63) {
            crashWithHaMoves(randomHost());
        } else if (kind < 70) {
            const HostId host = randomHost();
            if (cluster.host(host).isOn() && cluster.host(host).empty() &&
                cluster.host(host).activeMigrations() == 0)
                cluster.requestHostSleep(host, "S3");
        } else if (kind < 85) {
            cluster.host(randomHost()).powerFsm().requestWake();
        } else if (kind < 89) {
            Vm &vm = cluster.vm(randomVm());
            if (vm.placed() && !vm.migrating())
                cluster.retireVm(vm.id());
        } else {
            // A queued VM put on its destination behind the engine's back.
            const VmId vm_id = randomVm();
            const Vm &vm = cluster.vm(vm_id);
            const HostId dest = engine->destinationOf(vm_id);
            if (dest != invalidHostId && !vm.migrating() &&
                cluster.host(dest).isOn() &&
                cluster.memoryFits(vm, cluster.host(dest)))
                cluster.moveVm(vm_id, dest);
        }
    }

    /** Crash @p host; HA re-places its VMs that no migration holds. */
    void crashWithHaMoves(HostId host)
    {
        Host &crashed = cluster.host(host);
        if (!crashed.isOn())
            return;
        crashed.powerFsm().forceOff("S5");
        const std::vector<Vm *> stranded = crashed.vms();
        for (Vm *vm : stranded) {
            if (engine->involved(vm->id()))
                continue; // the engine aborts or drops it
            for (HostId dest = 0; dest < kHosts; ++dest) {
                if (cluster.host(dest).isOn() &&
                    cluster.memoryFits(*vm, cluster.host(dest))) {
                    cluster.moveVm(vm->id(), dest);
                    break;
                }
            }
        }
    }

    /** The planning model kept the way VpmManager::buildModel keeps it:
     *  rebuilt on a membership change, refreshed in place otherwise. */
    void refreshModel()
    {
        std::vector<mgmt::PlannedVm> vms;
        for (const auto &vm_ptr : cluster.vms()) {
            if (!vm_ptr->placed())
                continue;
            const HostId inbound = engine->destinationOf(vm_ptr->id());
            vms.push_back({vm_ptr->id(),
                           inbound == invalidHostId ? vm_ptr->host() : inbound,
                           vm_ptr->cpuMhz(), vm_ptr->memoryMb(),
                           inbound == invalidHostId});
        }
        if (!modelEpoch || *modelEpoch != cluster.placementEpoch()) {
            std::vector<mgmt::PlannedHost> hosts;
            for (const auto &host_ptr : cluster.hosts()) {
                hosts.push_back({host_ptr->id(), host_ptr->cpuCapacityMhz(),
                                 host_ptr->memoryCapacityMb(),
                                 host_ptr->isOn(),
                                 topology ? topology->rackOf(host_ptr->id())
                                          : 0});
            }
            model = mgmt::PlacementModel(std::move(hosts), std::move(vms));
            modelEpoch = cluster.placementEpoch();
            return;
        }
        for (std::size_t h = 0; h < cluster.hostCount(); ++h)
            model.mutableHosts()[h].usable = cluster.hosts()[h]->isOn();
        model.mutableVms() = std::move(vms);
        model.rebuildUsage();
    }

    /** Audit both caches, then plan on the model and audit it again. */
    void auditAndPlan()
    {
        engine->auditQueue();
        refreshModel();
        model.audit();
        const auto plan = mgmt::planEvacuation(
            model, randomHost(), 0.8, mgmt::PackingHeuristic::BestFitDecreasing,
            topology.has_value());
        model.audit();
        if (plan && rng.uniform01() < 0.5)
            mgmt::planRebalance(model, 0.8, 0.2, 4,
                                mgmt::PackingHeuristic::WorstFit,
                                topology.has_value());
        model.audit();
    }

    sim::Rng rng;
    sim::Simulator simulator;
    Cluster cluster;
    std::optional<Topology> topology;
    std::optional<MigrationEngine> engine;
    mgmt::PlacementModel model;
    std::optional<std::uint64_t> modelEpoch;
};

TEST_P(AdmissionAuditTest, AuditsHoldAfterEveryEvent)
{
    // Random operations are mostly refused or invalidated; keep the
    // expected warnings off the test log.
    const sim::LogLevel saved = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Silent);
    struct Restore
    {
        sim::LogLevel level;
        ~Restore() { sim::setLogLevel(level); }
    } restore{saved};

    constexpr int kOperations = 1000;
    for (int i = 0; i < kOperations; ++i) {
        simulator.scheduleAt(
            SimTime::micros(rng.uniformInt(0, 1'200'000'000)),
            [this] { randomOperation(); }, "audit.op");
    }
    std::uint64_t events = 0;
    while (simulator.step()) {
        ++events;
        auditAndPlan();
    }
    EXPECT_GT(events, static_cast<std::uint64_t>(kOperations));
    EXPECT_GT(engine->startedCount(), 0u);
    EXPECT_EQ(engine->activeCount(), 0);
    EXPECT_EQ(engine->startedCount(),
              engine->completedCount() + engine->abortedCount());

    // Every placed VM sits on exactly the host that lists it.
    for (const auto &vm_ptr : cluster.vms()) {
        int listed = 0;
        for (const auto &host_ptr : cluster.hosts()) {
            for (const Vm *resident : host_ptr->vms())
                listed += resident == vm_ptr.get();
        }
        EXPECT_EQ(listed, vm_ptr->placed() ? 1 : 0) << vm_ptr->name();
    }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndNetworks, AdmissionAuditTest,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Bool()));

} // namespace
} // namespace vpm::dc
