/** @file Unit and property tests for the placement planner. */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "core/placement.hpp"
#include "simcore/random.hpp"

namespace vpm::mgmt {
namespace {

PlannedHost
makeHost(HostId id, double cpu = 32000.0, double mem = 131072.0,
         bool usable = true)
{
    return PlannedHost{id, cpu, mem, usable};
}

PlannedVm
makeVm(VmId id, HostId host, double cpu, double mem = 4096.0,
       bool movable = true)
{
    return PlannedVm{id, host, cpu, mem, movable};
}

/** Usage rows, resident lists and VM rows equal bit for bit. */
void
expectSameBits(const PlacementModel &actual, const PlacementModel &expected)
{
    ASSERT_EQ(actual.hosts().size(), expected.hosts().size());
    for (const PlannedHost &host : expected.hosts()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.cpuUsedMhz(host.id)),
                  std::bit_cast<std::uint64_t>(expected.cpuUsedMhz(host.id)))
            << "host " << host.id;
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(actual.memoryUsedMb(host.id)),
            std::bit_cast<std::uint64_t>(expected.memoryUsedMb(host.id)))
            << "host " << host.id;
        EXPECT_EQ(actual.vmsOn(host.id), expected.vmsOn(host.id))
            << "host " << host.id;
    }
    ASSERT_EQ(actual.vms().size(), expected.vms().size());
    for (std::size_t v = 0; v < expected.vms().size(); ++v) {
        EXPECT_EQ(actual.vms()[v].host, expected.vms()[v].host) << "VM " << v;
        EXPECT_EQ(actual.vms()[v].movable, expected.vms()[v].movable)
            << "VM " << v;
    }
}

TEST(PlacementModelTest, UsageBookkeeping)
{
    PlacementModel model({makeHost(0), makeHost(1)},
                         {makeVm(0, 0, 8000.0), makeVm(1, 0, 4000.0)});
    EXPECT_DOUBLE_EQ(model.cpuUsedMhz(0), 12000.0);
    EXPECT_DOUBLE_EQ(model.cpuUsedMhz(1), 0.0);
    EXPECT_DOUBLE_EQ(model.memoryUsedMb(0), 8192.0);
    EXPECT_DOUBLE_EQ(model.cpuUtilization(0), 0.375);
}

TEST(PlacementModelTest, ApplyMovesUsage)
{
    PlacementModel model({makeHost(0), makeHost(1)},
                         {makeVm(0, 0, 8000.0)});
    model.apply({0, 0, 1});
    EXPECT_DOUBLE_EQ(model.cpuUsedMhz(0), 0.0);
    EXPECT_DOUBLE_EQ(model.cpuUsedMhz(1), 8000.0);
    EXPECT_EQ(model.vm(0).host, 1);
}

TEST(PlacementModelTest, ApplyWithWrongSourcePanics)
{
    PlacementModel model({makeHost(0), makeHost(1)},
                         {makeVm(0, 0, 8000.0)});
    EXPECT_DEATH(model.apply({0, 1, 0}), "on host");
}

TEST(PlacementModelTest, FitsChecksCpuLimitAndMemory)
{
    PlacementModel model({makeHost(0, 10000.0, 8000.0)},
                         {makeVm(0, 0, 5000.0, 4000.0)});
    // CPU: 5000 used; adding 3000 under a 0.8 limit (8000) fits.
    EXPECT_TRUE(model.fits(makeVm(1, -1, 3000.0, 2000.0), 0, 0.8));
    // CPU would exceed the limit.
    EXPECT_FALSE(model.fits(makeVm(1, -1, 3500.0, 2000.0), 0, 0.8));
    // Memory would exceed capacity.
    EXPECT_FALSE(model.fits(makeVm(1, -1, 1000.0, 5000.0), 0, 0.8));
}

TEST(PlacementModelTest, UnusableHostNeverFits)
{
    PlacementModel model({makeHost(0, 32000.0, 131072.0, false)}, {});
    EXPECT_FALSE(model.fits(makeVm(0, -1, 100.0, 100.0), 0, 1.0));
}

TEST(PlacementModelTest, VmsOnFiltersByHost)
{
    PlacementModel model({makeHost(0), makeHost(1)},
                         {makeVm(0, 0, 100.0), makeVm(1, 1, 100.0),
                          makeVm(2, 0, 100.0)});
    EXPECT_EQ(model.vmsOn(0), (std::vector<VmId>{0, 2}));
    EXPECT_EQ(model.vmsOn(1), (std::vector<VmId>{1}));
}

TEST(PlanEvacuationTest, MovesEveryVmOffVictim)
{
    PlacementModel model(
        {makeHost(0), makeHost(1), makeHost(2)},
        {makeVm(0, 0, 6000.0), makeVm(1, 0, 4000.0), makeVm(2, 1, 2000.0)});
    const auto plan = planEvacuation(model, 0, 0.8,
                                     PackingHeuristic::BestFitDecreasing);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->size(), 2u);
    EXPECT_TRUE(model.vmsOn(0).empty());
    for (const Move &move : *plan) {
        EXPECT_EQ(move.from, 0);
        EXPECT_NE(move.to, 0);
    }
}

TEST(PlanEvacuationTest, FailsWhenNothingFitsAndRestoresModel)
{
    // Other host too loaded to absorb the victim's VM under the cap.
    PlacementModel model({makeHost(0, 10000.0), makeHost(1, 10000.0)},
                         {makeVm(0, 0, 5000.0), makeVm(1, 1, 6000.0)});
    const auto plan = planEvacuation(model, 0, 0.8,
                                     PackingHeuristic::FirstFitDecreasing);
    EXPECT_FALSE(plan.has_value());
    EXPECT_DOUBLE_EQ(model.cpuUsedMhz(0), 5000.0); // untouched

    // Partial failure: the two largest VMs are planned onto hosts 1 and 2
    // before the third fits nowhere. Inexact values make the rollback's
    // restore, not re-subtraction, the only way back to the same bits.
    PlacementModel partial(
        {makeHost(0, 32000.0), makeHost(1, 10000.0), makeHost(2, 10000.0)},
        {makeVm(0, 0, 6000.1, 4096.3), makeVm(1, 0, 4999.7, 2048.9),
         makeVm(2, 0, 3999.3, 1024.1), makeVm(3, 1, 1000.3, 512.7),
         makeVm(4, 2, 1500.7, 333.3)});
    partial.apply({3, 1, 2}); // usage rows that a rebuild would not give
    partial.apply({3, 2, 1});
    const PlacementModel before = partial;
    EXPECT_FALSE(planEvacuation(partial, 0, 0.8,
                                PackingHeuristic::FirstFitDecreasing)
                     .has_value());
    expectSameBits(partial, before);
    partial.audit();
}

TEST(PlanEvacuationTest, InPlacePlanMatchesCopyAndReapply)
{
    // The old planner copied the model, planned on the copy and re-applied
    // the moves to the original; planning in place must end bit-identical
    // to that, and a rolled-back failure must not perturb later plans.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim::Rng rng(seed * 104729);
        std::vector<PlannedHost> hosts;
        for (int h = 0; h < 8; ++h)
            hosts.push_back(makeHost(h, 16000.0, 32768.0, h != 5));
        std::vector<PlannedVm> vms;
        for (int v = 0; v < 40; ++v) {
            vms.push_back(makeVm(v, static_cast<HostId>(rng.uniformInt(0, 7)),
                                 rng.uniform(100.0, 5000.0),
                                 rng.uniform(512.0, 6000.0)));
        }
        PlacementModel model(hosts, vms);
        planRebalance(model, 0.8, 0.1, 6, PackingHeuristic::BestFitDecreasing);
        model.audit();

        for (HostId victim = 0; victim < 8; ++victim) {
            const PlacementModel pristine = model;
            const auto plan = planEvacuation(
                model, victim, 0.75, PackingHeuristic::BestFitDecreasing);
            PlacementModel reapplied = pristine;
            if (plan) {
                for (const Move &move : *plan) {
                    reapplied.apply(move);
                    reapplied.pin(move.vm);
                }
            }
            expectSameBits(model, reapplied);
            model.audit();
        }
    }
}

TEST(PlanEvacuationTest, PinnedVmBlocksEvacuation)
{
    PlacementModel model(
        {makeHost(0), makeHost(1)},
        {makeVm(0, 0, 1000.0, 1024.0, /*movable=*/false)});
    EXPECT_FALSE(planEvacuation(model, 0, 0.8,
                                PackingHeuristic::BestFitDecreasing)
                     .has_value());
}

TEST(PlanEvacuationTest, EmptyVictimYieldsEmptyPlan)
{
    PlacementModel model({makeHost(0), makeHost(1)}, {});
    const auto plan = planEvacuation(model, 0, 0.8,
                                     PackingHeuristic::WorstFit);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(plan->empty());
}

TEST(PlanEvacuationTest, NeverTargetsUnusableHosts)
{
    PlacementModel model(
        {makeHost(0), makeHost(1, 32000.0, 131072.0, false), makeHost(2)},
        {makeVm(0, 0, 4000.0)});
    const auto plan = planEvacuation(model, 0, 0.8,
                                     PackingHeuristic::FirstFitDecreasing);
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->size(), 1u);
    EXPECT_EQ(plan->front().to, 2);
}

TEST(PlanRebalanceTest, RelievesOverloadedHost)
{
    // Host 0 predicted at 100%, host 1 empty, cap 0.8.
    PlacementModel model(
        {makeHost(0, 10000.0), makeHost(1, 10000.0)},
        {makeVm(0, 0, 5000.0), makeVm(1, 0, 5000.0)});
    const auto moves = planRebalance(model, 0.8, 0.25, 10,
                                     PackingHeuristic::BestFitDecreasing);
    ASSERT_FALSE(moves.empty());
    EXPECT_LE(model.cpuUtilization(0), 0.8 + 1e-9);
}

TEST(PlanRebalanceTest, NoMovesWhenBalanced)
{
    PlacementModel model(
        {makeHost(0, 10000.0), makeHost(1, 10000.0)},
        {makeVm(0, 0, 4000.0), makeVm(1, 1, 4000.0)});
    EXPECT_TRUE(planRebalance(model, 0.8, 0.25, 10,
                              PackingHeuristic::BestFitDecreasing)
                    .empty());
}

TEST(PlanRebalanceTest, NarrowsLargeSpread)
{
    // 60% vs 0%: spread 0.6 > threshold 0.25; one small VM should move.
    PlacementModel model(
        {makeHost(0, 10000.0), makeHost(1, 10000.0)},
        {makeVm(0, 0, 2000.0), makeVm(1, 0, 2000.0),
         makeVm(2, 0, 2000.0)});
    const auto moves = planRebalance(model, 0.8, 0.25, 10,
                                     PackingHeuristic::WorstFit);
    ASSERT_FALSE(moves.empty());
    const double spread =
        model.cpuUtilization(0) - model.cpuUtilization(1);
    EXPECT_LT(std::abs(spread), 0.6);
}

TEST(PlanRebalanceTest, RespectsMoveBudget)
{
    PlacementModel model(
        {makeHost(0, 10000.0), makeHost(1, 10000.0)},
        {makeVm(0, 0, 3000.0), makeVm(1, 0, 3000.0), makeVm(2, 0, 3000.0),
         makeVm(3, 0, 3000.0)});
    const auto moves = planRebalance(model, 0.8, 0.25, 1,
                                     PackingHeuristic::BestFitDecreasing);
    EXPECT_LE(moves.size(), 1u);
}

TEST(PlanRebalanceTest, PinnedVmsAreNotMoved)
{
    PlacementModel model(
        {makeHost(0, 10000.0), makeHost(1, 10000.0)},
        {makeVm(0, 0, 9000.0, 4096.0, /*movable=*/false),
         makeVm(1, 0, 1000.0)});
    const auto moves = planRebalance(model, 0.8, 0.25, 10,
                                     PackingHeuristic::BestFitDecreasing);
    for (const Move &move : moves)
        EXPECT_NE(move.vm, 0);
}

TEST(HeuristicTest, BestFitPicksTightestHost)
{
    // Host 1 has less headroom but still fits: best-fit should choose it.
    PlacementModel model(
        {makeHost(0, 32000.0), makeHost(1, 32000.0), makeHost(2, 32000.0)},
        {makeVm(0, 1, 10000.0), makeVm(1, 2, 2000.0),
         makeVm(2, 0, 20000.0), makeVm(3, 0, 6000.0)});
    // Evacuating host 0 must place the 20000 VM... too big under 0.8
    // (limit 25600, host1 already 10000). Use a smaller scenario:
    PlacementModel model2(
        {makeHost(0, 32000.0), makeHost(1, 32000.0), makeHost(2, 32000.0)},
        {makeVm(0, 0, 4000.0), makeVm(1, 1, 16000.0), makeVm(2, 2, 4000.0)});
    const auto plan = planEvacuation(model2, 0, 0.8,
                                     PackingHeuristic::BestFitDecreasing);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->front().to, 1); // tighter than host 2
}

TEST(HeuristicTest, WorstFitPicksRoomiestHost)
{
    PlacementModel model(
        {makeHost(0, 32000.0), makeHost(1, 32000.0), makeHost(2, 32000.0)},
        {makeVm(0, 0, 4000.0), makeVm(1, 1, 16000.0), makeVm(2, 2, 4000.0)});
    const auto plan = planEvacuation(model, 0, 0.8,
                                     PackingHeuristic::WorstFit);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->front().to, 2);
}

TEST(HeuristicTest, NamesAreDistinct)
{
    const std::set<std::string> names{
        toString(PackingHeuristic::FirstFitDecreasing),
        toString(PackingHeuristic::BestFitDecreasing),
        toString(PackingHeuristic::WorstFit)};
    EXPECT_EQ(names.size(), 3u);
}

/** Property sweep: random fleets — evacuation preserves VMs and caps. */
class PlacementPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PlacementPropertyTest, EvacuationInvariants)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<PlannedHost> hosts;
    const int n_hosts = 6;
    for (int h = 0; h < n_hosts; ++h)
        hosts.push_back(makeHost(h));

    std::vector<PlannedVm> vms;
    const int n_vms = 30;
    for (int v = 0; v < n_vms; ++v) {
        vms.push_back(makeVm(v,
                             static_cast<HostId>(rng.uniformInt(0, 5)),
                             rng.uniform(500.0, 6000.0),
                             rng.uniform(1024.0, 8192.0)));
    }

    PlacementModel model(hosts, vms);
    const auto plan = planEvacuation(model, 0, 0.85,
                                     PackingHeuristic::BestFitDecreasing);
    if (!plan)
        return; // infeasible draw: fine

    // All VMs still exist and none remain on the victim.
    EXPECT_TRUE(model.vmsOn(0).empty());
    std::size_t placed = 0;
    for (int h = 0; h < n_hosts; ++h)
        placed += model.vmsOn(h).size();
    EXPECT_EQ(placed, static_cast<std::size_t>(n_vms));

    // No destination exceeds its memory, and every move is from host 0.
    for (int h = 1; h < n_hosts; ++h) {
        EXPECT_LE(model.memoryUsedMb(h),
                  model.host(h).memoryCapacityMb + 1e-6);
    }
    for (const Move &move : *plan)
        EXPECT_EQ(move.from, 0);
}

TEST_P(PlacementPropertyTest, RebalanceNeverWorsensPeak)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    std::vector<PlannedHost> hosts;
    for (int h = 0; h < 5; ++h)
        hosts.push_back(makeHost(h, 16000.0));

    std::vector<PlannedVm> vms;
    for (int v = 0; v < 25; ++v) {
        vms.push_back(makeVm(v,
                             static_cast<HostId>(rng.uniformInt(0, 4)),
                             rng.uniform(500.0, 4000.0)));
    }

    PlacementModel model(hosts, vms);
    double peak_before = 0.0;
    for (int h = 0; h < 5; ++h)
        peak_before = std::max(peak_before, model.cpuUtilization(h));

    planRebalance(model, 0.8, 0.2, 20,
                  PackingHeuristic::BestFitDecreasing);

    double peak_after = 0.0;
    for (int h = 0; h < 5; ++h)
        peak_after = std::max(peak_after, model.cpuUtilization(h));
    EXPECT_LE(peak_after, peak_before + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementPropertyTest,
                         ::testing::Range(1, 11));

} // namespace
} // namespace vpm::mgmt
