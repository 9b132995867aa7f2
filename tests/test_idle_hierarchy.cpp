/** @file Unit tests for the multi-level idle-state hierarchy. */

#include <gtest/gtest.h>

#include "power/breakeven.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "simcore/simulator.hpp"

namespace vpm::power {
namespace {

using sim::SimTime;

/** A tiny 2-core tree with round numbers, easy to reason about. */
IdleHierarchySpec
tinySpec()
{
    IdleHierarchySpec spec;
    spec.coreCount = 2;
    spec.corePowerC0Watts = 10.0;
    spec.uncorePowerC0Watts = 30.0;

    IdleStateSpec c1;
    c1.name = "C1";
    c1.powerWatts = 4.0;
    c1.entryLatency = SimTime::micros(1);
    c1.exitLatency = SimTime::micros(2);
    c1.entryEnergyJoules = 1e-6;
    c1.exitEnergyJoules = 2e-6;

    IdleStateSpec c6;
    c6.name = "C6";
    c6.powerWatts = 1.0;
    c6.entryLatency = SimTime::micros(40);
    c6.exitLatency = SimTime::micros(100);
    c6.entryEnergyJoules = 1e-4;
    c6.exitEnergyJoules = 2e-4;

    IdleStateSpec pc6;
    pc6.name = "PC6";
    pc6.powerWatts = 12.0;
    pc6.entryLatency = SimTime::micros(100);
    pc6.exitLatency = SimTime::micros(300);
    pc6.entryEnergyJoules = 1e-2;
    pc6.exitEnergyJoules = 2e-2;
    pc6.requiredChildDepth = 2;

    spec.coreStates = {c1, c6};
    spec.packageStates = {pc6};
    return spec;
}

TEST(IdleHierarchySpecDeathTest, RejectsStructuralNonsense)
{
    {
        IdleHierarchySpec spec = tinySpec();
        spec.coreCount = 0;
        EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                    "core count");
    }
    {
        IdleHierarchySpec spec = tinySpec();
        spec.coreStates.clear();
        spec.packageStates.clear();
        EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                    "no idle states");
    }
    {
        // C6 hotter than C1: depths must strictly descend in power.
        IdleHierarchySpec spec = tinySpec();
        spec.coreStates[1].powerWatts = spec.coreStates[0].powerWatts;
        EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                    "does not descend");
    }
    {
        IdleHierarchySpec spec = tinySpec();
        spec.packageStates[0].requiredChildDepth = 3;
        EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                    "requires child depth");
    }
}

TEST(IdleHierarchyTest, MaxSavingsIsFullDecompositionDelta)
{
    const IdleHierarchySpec spec = tinySpec();
    // 2 cores: 10 -> 1 W each, uncore 30 -> 12 W.
    EXPECT_DOUBLE_EQ(spec.maxSavingsWatts(),
                     2.0 * (10.0 - 1.0) + (30.0 - 12.0));
}

TEST(IdleHierarchyTest, PackageGatedOnBusyCoresAndChildDepth)
{
    sim::Simulator simulator;
    IdleHierarchy hier(simulator, tinySpec());

    // One busy core: the package may never leave C0.
    hier.setBusyCores(1);
    hier.requestDepth(2, 1);
    EXPECT_EQ(hier.coreDepth(), 2);
    EXPECT_EQ(hier.packageDepth(), 0);
    EXPECT_FALSE(hier.fullyDescended());

    // All idle but cores only in C1: PC6's gate (C6) is unmet.
    hier.setBusyCores(0);
    hier.requestDepth(1, 1);
    EXPECT_EQ(hier.packageDepth(), 0);

    // Gate satisfied: the package descends.
    hier.requestDepth(2, 1);
    EXPECT_EQ(hier.packageDepth(), 1);
    EXPECT_TRUE(hier.fullyDescended());

    // Work arrives: raising busy cores must also lift the package.
    hier.setBusyCores(1);
    EXPECT_EQ(hier.packageDepth(), 0);
}

TEST(IdleHierarchyTest, WakeLatencyIsMaxAlongResumePathNotSum)
{
    sim::Simulator simulator;
    const IdleHierarchySpec spec = tinySpec();
    IdleHierarchy hier(simulator, spec);

    EXPECT_EQ(hier.wakeLatency(), SimTime());

    hier.requestDepth(1, 0); // C1 only
    EXPECT_EQ(hier.wakeLatency(), spec.coreStates[0].exitLatency);

    hier.requestDepth(2, 1); // C6 + PC6: parallel power-up, max not sum
    EXPECT_EQ(hier.wakeLatency(),
              std::max(spec.coreStates[1].exitLatency,
                       spec.packageStates[0].exitLatency));
    EXPECT_LT(hier.wakeLatency(), spec.coreStates[1].exitLatency +
                                      spec.packageStates[0].exitLatency);

    hier.wakeAll();
    EXPECT_EQ(hier.wakeLatency(), SimTime());
}

TEST(IdleHierarchyTest, DescendFullyOverridesStaleBusyCount)
{
    sim::Simulator simulator;
    IdleHierarchy hier(simulator, tinySpec());

    // A policy left a stale demand estimate; the host is then drained
    // and the manager asserts emptiness by descending fully.
    hier.setBusyCores(2);
    hier.descendFully();
    EXPECT_EQ(hier.busyCores(), 0);
    EXPECT_TRUE(hier.fullyDescended());
    EXPECT_DOUBLE_EQ(hier.powerSavingsWatts(),
                     hier.spec().maxSavingsWatts());
}

TEST(IdleHierarchyTest, TransitionCallbackSeesEveryChargedJoule)
{
    sim::Simulator simulator;
    IdleHierarchy hier(simulator, tinySpec());
    double charged = 0.0;
    hier.setUpdateHook([&](const IdleHierarchy::Update &update) {
        charged += update.joules;
    });

    hier.requestDepth(1, 0);
    hier.requestDepth(2, 1);
    hier.wakeAll();
    hier.descendFully();

    EXPECT_GT(charged, 0.0);
    EXPECT_DOUBLE_EQ(charged, hier.transitionEnergyJoules());
}

TEST(IdleHierarchyTest, PauseZeroesSavingsAndIgnoresCommands)
{
    sim::Simulator simulator;
    IdleHierarchy hier(simulator, tinySpec());
    hier.descendFully();
    EXPECT_GT(hier.powerSavingsWatts(), 0.0);

    const double charged_before = hier.transitionEnergyJoules();
    hier.pause();
    EXPECT_FALSE(hier.active());
    EXPECT_DOUBLE_EQ(hier.powerSavingsWatts(), 0.0);
    EXPECT_EQ(hier.wakeLatency(), SimTime());
    // The forced exits ride the system transition: no exit energy here.
    EXPECT_DOUBLE_EQ(hier.transitionEnergyJoules(), charged_before);

    hier.requestDepth(2, 1); // ignored while paused
    EXPECT_EQ(hier.coreDepth(), 0);
    EXPECT_FALSE(hier.wouldChange(0, 2, 1));

    hier.resume();
    EXPECT_TRUE(hier.active());
    EXPECT_EQ(hier.coreDepth(), 0);
    EXPECT_EQ(hier.packageDepth(), 0);
}

TEST(IdleHierarchyTest, ResidencyAccountingCloses)
{
    sim::Simulator simulator;
    const IdleHierarchySpec spec = tinySpec();
    IdleHierarchy hier(simulator, spec);

    simulator.runUntil(SimTime::seconds(10.0));
    hier.setBusyCores(1);
    hier.requestDepth(2, 0); // core 1 busy (C0), core 2 in C6
    simulator.runUntil(SimTime::seconds(25.0));
    hier.descendFully(); // both cores C6, package PC6
    simulator.runUntil(SimTime::seconds(40.0));
    hier.finish(simulator.now());

    // Core-seconds: every core accounted for over the whole run.
    double core_total = 0.0;
    for (int d = 0; d <= static_cast<int>(spec.coreStates.size()); ++d)
        core_total += hier.coreResidencySeconds(d);
    EXPECT_NEAR(core_total, spec.coreCount * 40.0, 1e-9);

    // Spot values: C0 holds both cores for 10 s, then one for 15 s.
    EXPECT_NEAR(hier.coreResidencySeconds(0), 2.0 * 10.0 + 15.0, 1e-9);
    EXPECT_NEAR(hier.coreResidencySeconds(2), 15.0 + 2.0 * 15.0, 1e-9);

    // Package-seconds close too: C0 for 25 s, PC6 for 15 s.
    EXPECT_NEAR(hier.packageResidencySeconds(0), 25.0, 1e-9);
    EXPECT_NEAR(hier.packageResidencySeconds(1), 15.0, 1e-9);
}

TEST(IdleHierarchyTest, WouldChangePredictsApplyExactly)
{
    sim::Simulator simulator;
    IdleHierarchy hier(simulator, tinySpec());

    EXPECT_FALSE(hier.wouldChange(0, 0, 0));
    // Package blocked by the gate: requesting it alone changes nothing.
    EXPECT_FALSE(hier.wouldChange(0, 0, 1));
    EXPECT_TRUE(hier.wouldChange(0, 1, 0));

    hier.requestDepth(2, 1);
    EXPECT_FALSE(hier.wouldChange(0, 2, 1));
    // A busy core would lift the package even at the same depths.
    EXPECT_TRUE(hier.wouldChange(1, 2, 1));
}

TEST(IdleHierarchyCalibration, ModernHierarchyTiesToBladeCurve)
{
    const IdleHierarchySpec hier = modernIdleHierarchy();
    hier.validate();
    const HostPowerSpec blade = enterpriseBlade2013();

    // The decomposition covers the curve's idle point exactly, so an
    // all-awake hierarchy saves nothing.
    EXPECT_DOUBLE_EQ(hier.coreCount * hier.corePowerC0Watts +
                         hier.uncorePowerC0Watts,
                     blade.idlePowerWatts());
    EXPECT_DOUBLE_EQ(blade.idlePowerWatts(), 155.0);

    // Full descent leaves the 33 W S0-floor: between S0-idle and S3.
    const double floor = blade.idlePowerWatts() - hier.maxSavingsWatts();
    EXPECT_DOUBLE_EQ(floor, 33.0);
    EXPECT_GT(floor, blade.findSleepState("S3")->sleepPowerWatts);

    // The audited server-state calibration the hierarchy slots under.
    EXPECT_DOUBLE_EQ(blade.findSleepState("S3")->sleepPowerWatts, 12.0);
    EXPECT_DOUBLE_EQ(blade.findSleepState("S5")->sleepPowerWatts, 6.0);

    // Break-even ordering spans the microsecond-to-minute range: each
    // deeper mechanism needs a longer interval to pay off.
    const auto c1 = breakEvenSecondsFor(
        hier.corePowerC0Watts, hier.coreStates[0].powerWatts,
        hier.coreStates[0].roundTripEnergyJoules(),
        hier.coreStates[0].roundTripLatency().toSeconds());
    const auto c6 = breakEvenSecondsFor(
        hier.corePowerC0Watts, hier.coreStates[1].powerWatts,
        hier.coreStates[1].roundTripEnergyJoules(),
        hier.coreStates[1].roundTripLatency().toSeconds());
    const auto pc6 = breakEvenSecondsFor(
        hier.uncorePowerC0Watts, hier.packageStates[0].powerWatts,
        hier.packageStates[0].roundTripEnergyJoules(),
        hier.packageStates[0].roundTripLatency().toSeconds());
    ASSERT_TRUE(c1 && c6 && pc6);
    EXPECT_LT(*c1, *c6);
    EXPECT_LT(*c6, *pc6);
    EXPECT_LT(*pc6, 1.0); // all far below the S3 seconds-scale break-even
}

} // namespace
} // namespace vpm::power
