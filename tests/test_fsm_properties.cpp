/**
 * @file Property fuzz for the power FSM and migration engine: random
 * command streams must never violate the structural invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "datacenter/migration.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/power_state_machine.hpp"
#include "power/server_models.hpp"
#include "simcore/logging.hpp"
#include "simcore/random.hpp"
#include "workload/demand_trace.hpp"

namespace vpm {
namespace {

using power::PowerPhase;
using sim::SimTime;

/** Legal phase edges of the power FSM. */
bool
legalEdge(PowerPhase from, PowerPhase to)
{
    switch (from) {
      case PowerPhase::On:
        return to == PowerPhase::Entering;
      case PowerPhase::Entering:
        return to == PowerPhase::Asleep;
      case PowerPhase::Asleep:
        return to == PowerPhase::Exiting;
      case PowerPhase::Exiting:
        return to == PowerPhase::On;
    }
    return false;
}

class FsmFuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FsmFuzzTest, RandomCommandStreamKeepsInvariants)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 7);
    sim::Simulator simulator;
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    power::PowerStateMachine fsm(simulator, spec);

    bool edges_legal = true;
    fsm.addObserver([&](PowerPhase from, PowerPhase to) {
        edges_legal = edges_legal && legalEdge(from, to);
    });

    // 300 random commands at random times, interleaved with run slices.
    for (int step = 0; step < 300; ++step) {
        const int action = static_cast<int>(rng.uniformInt(0, 3));
        switch (action) {
          case 0:
            fsm.requestSleep(rng.bernoulli(0.5) ? "S3" : "S5");
            break;
          case 1:
            fsm.requestWake();
            break;
          default:
            simulator.runUntil(simulator.now() +
                               SimTime::seconds(rng.uniform(0.1, 120.0)));
            break;
        }
        // Structural invariants at every step.
        if (fsm.phase() == PowerPhase::On)
            ASSERT_EQ(fsm.sleepState(), nullptr);
        else
            ASSERT_NE(fsm.sleepState(), nullptr);
        ASSERT_GE(fsm.powerWatts(0.5), 0.0);
        ASSERT_GE(fsm.timeToAvailable(), SimTime());
    }
    simulator.run();
    EXPECT_TRUE(edges_legal);
    EXPECT_TRUE(fsm.isOn() || fsm.phase() == PowerPhase::Asleep);

    // Time accounting closes: the four phase buckets sum to now.
    SimTime total;
    for (const PowerPhase phase :
         {PowerPhase::On, PowerPhase::Entering, PowerPhase::Asleep,
          PowerPhase::Exiting}) {
        total += fsm.timeInPhase(phase);
    }
    EXPECT_EQ(total, simulator.now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsmFuzzTest, ::testing::Range(1, 9));

class MigrationFuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MigrationFuzzTest, RandomRequestStormConservesEverything)
{
    // Random requests legitimately bounce off validation; silence the
    // expected warning chatter for the duration of the storm.
    const sim::LogLevel saved = sim::logLevel();
    sim::setLogLevel(sim::LogLevel::Silent);
    struct Restore
    {
        sim::LogLevel level;
        ~Restore() { sim::setLogLevel(level); }
    } restore{saved};

    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503u + 11);
    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    const int hosts = 5;
    for (int h = 0; h < hosts; ++h)
        cluster.addHost(dc::HostConfig{}, spec);

    const int vms = 25;
    for (int v = 0; v < vms; ++v) {
        workload::VmWorkloadSpec vm_spec;
        vm_spec.name = "vm" + std::to_string(v);
        vm_spec.cpuMhz = rng.uniform(500.0, 6000.0);
        vm_spec.memoryMb = rng.uniform(1024.0, 16384.0);
        vm_spec.trace = std::make_shared<workload::ConstantTrace>(
            rng.uniform(0.0, 0.8));
        dc::Vm &vm = cluster.addVm(std::move(vm_spec));
        cluster.placeVm(vm.id(),
                        static_cast<dc::HostId>(rng.uniformInt(0, 4)));
    }

    dc::MigrationEngine engine(simulator, cluster);

    // Fire random migration requests interleaved with time slices. Many
    // will be rejected or queued; none may corrupt the bookkeeping.
    for (int step = 0; step < 400; ++step) {
        if (rng.bernoulli(0.7)) {
            engine.request(
                static_cast<dc::VmId>(rng.uniformInt(0, vms - 1)),
                static_cast<dc::HostId>(rng.uniformInt(0, hosts - 1)));
        } else {
            simulator.runUntil(simulator.now() +
                               SimTime::seconds(rng.uniform(0.5, 20.0)));
        }
    }
    simulator.run();

    // Everything landed: engine drained, counters consistent.
    EXPECT_EQ(engine.activeCount(), 0);
    EXPECT_EQ(engine.queuedCount(), 0u);
    EXPECT_EQ(engine.startedCount(), engine.completedCount());
    EXPECT_EQ(engine.durations().count(), engine.completedCount());

    // Conservation: every VM placed exactly once, hosts agree, no
    // migration state or reservations left behind.
    std::map<dc::VmId, int> seen;
    double reserved = 0.0;
    for (const auto &host_ptr : cluster.hosts()) {
        EXPECT_EQ(host_ptr->activeMigrations(), 0);
        EXPECT_DOUBLE_EQ(host_ptr->migrationOverheadMhz(), 0.0);
        reserved += host_ptr->inboundReservedMemoryMb();
        EXPECT_LE(host_ptr->committedMemoryMb(),
                  host_ptr->memoryCapacityMb() + 1e-6);
        for (const dc::Vm *vm : host_ptr->vms()) {
            ++seen[vm->id()];
            EXPECT_EQ(vm->host(), host_ptr->id());
            EXPECT_FALSE(vm->migrating());
        }
    }
    EXPECT_DOUBLE_EQ(reserved, 0.0);
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(vms));
    for (const auto &[vm_id, count] : seen)
        EXPECT_EQ(count, 1) << "vm " << vm_id;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationFuzzTest, ::testing::Range(1, 9));

class IdleHierarchyFuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(IdleHierarchyFuzzTest, RandomCommandStreamKeepsInvariants)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271u + 3);
    sim::Simulator simulator;
    const power::IdleHierarchySpec spec = power::modernIdleHierarchy();
    power::IdleHierarchy hier(simulator, spec);

    double charged = 0.0;
    SimTime published; // what an owner's mirror of wakeLatency() holds
    hier.setUpdateHook([&](const power::IdleHierarchy::Update &update) {
        ASSERT_GE(update.joules, 0.0);
        if (!update.transitioned) {
            ASSERT_EQ(update.joules, 0.0);
        }
        charged += update.joules;
        published = update.wakeLatency;
    });

    const int core_max = static_cast<int>(spec.coreStates.size());
    const int pkg_max = static_cast<int>(spec.packageStates.size());
    double active_s = 0.0; // wall time with the hierarchy unpaused

    for (int step = 0; step < 400; ++step) {
        switch (rng.uniformInt(0, 6)) {
          case 0:
            // Deliberately out-of-range: commands clamp, never trap.
            hier.setBusyCores(
                static_cast<int>(rng.uniformInt(-2, spec.coreCount + 2)));
            break;
          case 1:
            hier.requestDepth(
                static_cast<int>(rng.uniformInt(0, core_max)),
                static_cast<int>(rng.uniformInt(0, pkg_max)));
            break;
          case 2:
            hier.descendFully();
            break;
          case 3:
            hier.wakeAll();
            break;
          case 4:
            // A random FSM phase excursion around the hierarchy.
            if (hier.active())
                hier.pause();
            else
                hier.resume();
            break;
          default: {
            // Round to the simulator's µs grid BEFORE accumulating, so
            // the expected active seconds match the clock exactly.
            const SimTime slice = SimTime::seconds(rng.uniform(0.01, 30.0));
            if (hier.active())
                active_s += slice.toSeconds();
            simulator.runUntil(simulator.now() + slice);
            break;
          }
        }

        // Descent gating: no resident package state whose child gate the
        // core residency does not satisfy.
        if (hier.packageDepth() > 0) {
            const int gate =
                spec.packageStates[static_cast<std::size_t>(
                                       hier.packageDepth() - 1)]
                    .requiredChildDepth;
            ASSERT_EQ(hier.busyCores(), 0);
            ASSERT_GE(hier.coreDepth(), gate);
        }

        // Wake latency: the MAX of the resident exits, never the sum.
        SimTime expected;
        if (hier.active()) {
            if (hier.coreDepth() > 0 && hier.busyCores() < spec.coreCount) {
                expected = std::max(
                    expected, spec.coreStates[static_cast<std::size_t>(
                                                  hier.coreDepth() - 1)]
                                  .exitLatency);
            }
            if (hier.packageDepth() > 0) {
                expected = std::max(
                    expected, spec.packageStates[static_cast<std::size_t>(
                                                     hier.packageDepth() - 1)]
                                  .exitLatency);
            }
        }
        ASSERT_EQ(hier.wakeLatency(), expected);
        ASSERT_EQ(published, expected);

        // Savings bounded by the full-descent delta, zero while paused.
        ASSERT_GE(hier.powerSavingsWatts(), 0.0);
        ASSERT_LE(hier.powerSavingsWatts(), spec.maxSavingsWatts() + 1e-9);
        if (!hier.active()) {
            ASSERT_DOUBLE_EQ(hier.powerSavingsWatts(), 0.0);
        }
    }

    // Energy conservation: every joule the hierarchy claims to have
    // charged went through the callback, and transitions were counted.
    EXPECT_DOUBLE_EQ(charged, hier.transitionEnergyJoules());
    EXPECT_GT(hier.transitions(), 0u);

    // Residency closure: core-seconds and package-seconds each sum to
    // exactly the wall time the hierarchy was ACTIVE (paused intervals
    // belong to the FSM's phase accounting, not the hierarchy's).
    hier.finish(simulator.now());
    double core_s = 0.0;
    for (int d = 0; d <= static_cast<int>(spec.coreStates.size()); ++d)
        core_s += hier.coreResidencySeconds(d);
    double pkg_s = 0.0;
    for (int d = 0; d <= static_cast<int>(spec.packageStates.size()); ++d)
        pkg_s += hier.packageResidencySeconds(d);
    EXPECT_NEAR(core_s, spec.coreCount * active_s, active_s * 1e-6 + 1e-9);
    EXPECT_NEAR(pkg_s, active_s, active_s * 1e-6 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdleHierarchyFuzzTest,
                         ::testing::Range(1, 9));

} // namespace
} // namespace vpm
