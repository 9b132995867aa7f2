/**
 * @file
 * PlacementModel's host indexes against the id-order scans they replace.
 *
 * The reference functions below are the planner's scans as they were
 * before the indexes: a destination pass over every host, the phase-1
 * overload chain, the phase-2 extremes and the lightest evacuation
 * victim, plus the two planners built from them. Randomized models
 * (mixed capacities, memory-bound hosts, racks, anti-affinity groups,
 * exact and sub-1e-9 near ties) interleave apply/rollback/rebuildUsage/
 * mutableHosts edits with queries, and every indexed answer must equal
 * the scan's host id.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/placement.hpp"
#include "simcore/random.hpp"

namespace vpm::mgmt {
namespace {

/** The destination pass before the free-CPU index. */
HostId
referencePass(const PlacementModel &model, const PlannedVm &vm,
              double cpu_limit, PackingHeuristic heuristic,
              HostId exclude_a, HostId exclude_b, int only_rack)
{
    HostId best = dc::invalidHostId;
    double best_key = 0.0;

    for (const PlannedHost &host : model.hosts()) {
        if (host.id == exclude_a || host.id == exclude_b || !host.usable)
            continue;
        if (only_rack >= 0 && host.rack != only_rack)
            continue;
        if (!model.fits(vm, host.id, cpu_limit))
            continue;

        const double headroom = cpu_limit * host.cpuCapacityMhz -
                                model.cpuUsedMhz(host.id) - vm.cpuMhz;
        switch (heuristic) {
          case PackingHeuristic::FirstFitDecreasing:
            return host.id;
          case PackingHeuristic::BestFitDecreasing:
            if (best == dc::invalidHostId || headroom < best_key) {
                best = host.id;
                best_key = headroom;
            }
            break;
          case PackingHeuristic::WorstFit:
            if (best == dc::invalidHostId || headroom > best_key) {
                best = host.id;
                best_key = headroom;
            }
            break;
        }
    }
    return best;
}

HostId
referenceDestination(const PlacementModel &model, const PlannedVm &vm,
                     double cpu_limit, PackingHeuristic heuristic,
                     HostId exclude, bool rack_affinity)
{
    if (rack_affinity && vm.host != dc::invalidHostId) {
        const HostId local =
            referencePass(model, vm, cpu_limit, heuristic, exclude,
                          dc::invalidHostId, model.host(vm.host).rack);
        if (local != dc::invalidHostId)
            return local;
    }
    return referencePass(model, vm, cpu_limit, heuristic, exclude,
                         dc::invalidHostId, -1);
}

/** Phase 1's chain: not an argmax, a near tie does not replace. */
HostId
referenceWorst(const PlacementModel &model, double target)
{
    HostId worst = dc::invalidHostId;
    double worst_util = target;
    for (const PlannedHost &host : model.hosts()) {
        if (!host.usable)
            continue;
        const double util = model.cpuUtilization(host.id);
        if (util > worst_util + 1e-9) {
            worst = host.id;
            worst_util = util;
        }
    }
    return worst;
}

/** Phase 2's most and least utilized usable hosts. */
std::pair<HostId, HostId>
referenceHiLo(const PlacementModel &model)
{
    HostId hi = dc::invalidHostId, lo = dc::invalidHostId;
    double hi_util = -1.0;
    double lo_util = std::numeric_limits<double>::infinity();
    for (const PlannedHost &host : model.hosts()) {
        if (!host.usable)
            continue;
        const double util = model.cpuUtilization(host.id);
        if (util > hi_util) {
            hi = host.id;
            hi_util = util;
        }
        if (util < lo_util) {
            lo = host.id;
            lo_util = util;
        }
    }
    return {hi, lo};
}

/** The manager's pass 1 over the hosts it holds evacuable. */
HostId
referenceLightest(const PlacementModel &model,
                  const std::vector<bool> &evacuable)
{
    HostId lightest = dc::invalidHostId;
    double min_load = 0.0;
    for (std::size_t h = 0; h < model.hosts().size(); ++h) {
        if (!evacuable[h])
            continue;
        const HostId id = model.hosts()[h].id;
        const double load = model.cpuUsedMhz(id);
        if (lightest == dc::invalidHostId || load < min_load) {
            lightest = id;
            min_load = load;
        }
    }
    return lightest;
}

std::vector<VmId>
byDescendingCpu(const PlacementModel &model, HostId host)
{
    std::vector<VmId> ids = model.vmsOn(host);
    std::erase_if(ids, [&](VmId id) { return !model.vm(id).movable; });
    std::sort(ids.begin(), ids.end(), [&](VmId a, VmId b) {
        const double ca = model.vm(a).cpuMhz;
        const double cb = model.vm(b).cpuMhz;
        if (ca != cb)
            return ca > cb;
        return a < b;
    });
    return ids;
}

std::optional<std::vector<Move>>
referenceEvacuation(PlacementModel &model, HostId victim, double target,
                    PackingHeuristic heuristic, bool rack_affinity)
{
    for (VmId vm_id : model.vmsOn(victim)) {
        if (!model.vm(vm_id).movable)
            return std::nullopt;
    }
    const std::size_t mark = model.mark();
    std::vector<Move> moves;
    for (VmId vm_id : byDescendingCpu(model, victim)) {
        const HostId dest = referenceDestination(
            model, model.vm(vm_id), target, heuristic, victim, rack_affinity);
        if (dest == dc::invalidHostId) {
            model.rollback(mark);
            return std::nullopt;
        }
        const Move move{vm_id, victim, dest};
        model.apply(move);
        moves.push_back(move);
    }
    for (const Move &move : moves)
        model.pin(move.vm);
    return moves;
}

std::vector<Move>
referenceRebalance(PlacementModel &model, double target, double threshold,
                   int max_moves, PackingHeuristic heuristic,
                   bool rack_affinity)
{
    std::vector<Move> moves;
    while (static_cast<int>(moves.size()) < max_moves) {
        const HostId worst = referenceWorst(model, target);
        if (worst == dc::invalidHostId)
            break;
        bool moved = false;
        for (VmId vm_id : byDescendingCpu(model, worst)) {
            const HostId dest =
                referenceDestination(model, model.vm(vm_id), target,
                                     heuristic, worst, rack_affinity);
            if (dest == dc::invalidHostId)
                continue;
            const Move move{vm_id, worst, dest};
            model.apply(move);
            model.pin(move.vm);
            moves.push_back(move);
            moved = true;
            break;
        }
        if (!moved)
            break;
    }
    while (static_cast<int>(moves.size()) < max_moves) {
        const auto [hi, lo] = referenceHiLo(model);
        if (hi == dc::invalidHostId || lo == dc::invalidHostId || hi == lo)
            break;
        const double hi_util = model.cpuUtilization(hi);
        const double lo_util = model.cpuUtilization(lo);
        if (hi_util - lo_util <= threshold)
            break;
        bool moved = false;
        const double gap_mhz =
            (hi_util - lo_util) * model.host(lo).cpuCapacityMhz;
        for (VmId vm_id : byDescendingCpu(model, hi)) {
            const PlannedVm &vm_ref = model.vm(vm_id);
            if (vm_ref.cpuMhz > gap_mhz * 0.75)
                continue;
            if (!model.fits(vm_ref, lo, target))
                continue;
            const Move move{vm_id, hi, lo};
            model.apply(move);
            model.pin(move.vm);
            moves.push_back(move);
            moved = true;
            break;
        }
        if (!moved)
            break;
    }
    return moves;
}

/** A random model shaped to hit the index's tie and epsilon rules. */
struct RandomModel
{
    PlacementModel model;
    std::vector<bool> evacuable;
    int racks = 1;
};

RandomModel
makeRandomModel(sim::Rng &rng)
{
    RandomModel out;
    const int host_count = static_cast<int>(rng.uniformInt(1, 40));
    out.racks = static_cast<int>(rng.uniformInt(1, 4));
    const double capacities[] = {16000.0, 24000.0, 32000.0, 32000.5};
    std::vector<PlannedHost> hosts;
    for (int h = 0; h < host_count; ++h) {
        PlannedHost host;
        host.id = h;
        host.cpuCapacityMhz = capacities[rng.uniformInt(0, 3)];
        // One host in six is memory-bound: CPU to spare, little memory.
        host.memoryCapacityMb = rng.uniform01() < 1.0 / 6.0 ? 6000.0 : 65536.0;
        host.usable = rng.uniform01() < 0.85;
        host.rack = static_cast<int>(rng.uniformInt(0, out.racks - 1));
        hosts.push_back(host);
    }

    // VM sizes from a small set make exact headroom ties; the 1e-6 and
    // 3e-10 offsets make utilization and headroom ties within 1e-9.
    const double sizes[] = {1000.0, 2000.0, 2000.000001, 2999.9999999997,
                            3000.0, 4000.0, 4000.0000000003, 6400.0};
    std::vector<PlannedVm> vms;
    const int vm_count = static_cast<int>(rng.uniformInt(0, 5 * host_count));
    for (int v = 0; v < vm_count; ++v) {
        PlannedVm vm;
        vm.id = v;
        vm.host = static_cast<HostId>(rng.uniformInt(0, host_count - 1));
        vm.cpuMhz = rng.uniform01() < 0.7 ? sizes[rng.uniformInt(0, 7)]
                                           : rng.uniform(50.0, 8000.0);
        vm.memoryMb = rng.uniform01() < 0.5 ? 2048.0 : rng.uniform(256, 8192);
        vm.movable = rng.uniform01() < 0.9;
        vms.push_back(vm);
    }
    out.model = PlacementModel(std::move(hosts), std::move(vms));

    if (vm_count >= 6 && rng.uniform01() < 0.5) {
        std::vector<std::vector<VmId>> groups;
        for (VmId v = 0; v + 2 < vm_count && groups.size() < 4; v += 3)
            groups.push_back({v, v + 1, v + 2});
        out.model.setAntiAffinityGroups(groups);
    }
    for (const PlannedHost &host : out.model.hosts())
        out.evacuable.push_back(host.usable);
    return out;
}

/** Compare every indexed query with its reference scan. */
void
expectQueriesMatch(const RandomModel &rm, sim::Rng &rng)
{
    const PlacementModel &model = rm.model;
    const int host_count = static_cast<int>(model.hosts().size());
    const double limits[] = {0.8, 1.0, 0.65};
    for (int q = 0; q < 6; ++q) {
        PlannedVm probe;
        if (!model.vms().empty() && rng.uniform01() < 0.7) {
            probe = model.vms()[rng.uniformInt(0, model.vms().size() - 1)];
        } else {
            probe.id = -1;
            probe.cpuMhz = rng.uniform(0.0, 12000.0);
            probe.memoryMb = rng.uniform(0.0, 9000.0);
        }
        const double limit = limits[rng.uniformInt(0, 2)];
        const HostId ex_a =
            static_cast<HostId>(rng.uniformInt(-1, host_count - 1));
        const HostId ex_b =
            static_cast<HostId>(rng.uniformInt(-1, host_count - 1));
        const int only_rack =
            static_cast<int>(rng.uniformInt(-1, rm.racks - 1));
        for (const bool tightest : {true, false}) {
            const PackingHeuristic heuristic =
                tightest ? PackingHeuristic::BestFitDecreasing
                         : PackingHeuristic::WorstFit;
            EXPECT_EQ(model.fitByHeadroom(probe, limit, tightest, ex_a, ex_b,
                                          only_rack),
                      referencePass(model, probe, limit, heuristic, ex_a,
                                    ex_b, only_rack))
                << toString(heuristic) << " vm " << probe.id << " ("
                << probe.cpuMhz << " MHz) limit " << limit << " rack "
                << only_rack;
        }
    }
    for (const double target : {0.5, 0.8, 0.0, 1.0}) {
        EXPECT_EQ(model.worstOverloaded(target), referenceWorst(model, target))
            << "target " << target;
    }
    const auto [hi, lo] = referenceHiLo(model);
    EXPECT_EQ(model.mostUtilized(), hi);
    EXPECT_EQ(model.leastUtilized(), lo);
    EXPECT_EQ(model.lightestEvacuable(),
              referenceLightest(model, rm.evacuable));
}

/** One random edit of the kinds a planning cycle makes. */
void
randomEdit(RandomModel &rm, sim::Rng &rng)
{
    PlacementModel &model = rm.model;
    const int host_count = static_cast<int>(model.hosts().size());
    const double pick = rng.uniform01();
    if (pick < 0.45 && !model.vms().empty()) {
        const PlannedVm &vm =
            model.vms()[rng.uniformInt(0, model.vms().size() - 1)];
        const HostId to =
            static_cast<HostId>(rng.uniformInt(0, host_count - 1));
        if (to != vm.host)
            model.apply({vm.id, vm.host, to});
    } else if (pick < 0.6) {
        // A trial: a few moves, then back to the mark.
        const std::size_t mark = model.mark();
        for (int i = 0; i < 3 && !model.vms().empty(); ++i) {
            const PlannedVm &vm =
                model.vms()[rng.uniformInt(0, model.vms().size() - 1)];
            const HostId to =
                static_cast<HostId>(rng.uniformInt(0, host_count - 1));
            if (to != vm.host)
                model.apply({vm.id, vm.host, to});
        }
        model.rollback(rng.uniformInt(mark, model.mark()));
    } else if (pick < 0.75) {
        const auto h = static_cast<std::size_t>(
            rng.uniformInt(0, host_count - 1));
        const bool evacuable = rng.uniform01() < 0.5;
        model.setEvacuable(model.hosts()[h].id, evacuable);
        rm.evacuable[h] = evacuable;
    } else if (pick < 0.85) {
        // The manager's refresh: new usable flags and predictions.
        const auto h = static_cast<std::size_t>(
            rng.uniformInt(0, host_count - 1));
        model.mutableHosts()[h].usable = !model.hosts()[h].usable;
        for (PlannedVm &vm : model.mutableVms()) {
            if (rng.uniform01() < 0.3)
                vm.cpuMhz = rng.uniform(50.0, 8000.0);
        }
        model.rebuildUsage();
        for (std::size_t i = 0; i < model.hosts().size(); ++i)
            rm.evacuable[i] = model.hosts()[i].usable;
    } else if (pick < 0.92) {
        // A usable flip without a usage rebuild keeps the evacuable flags.
        const auto h = static_cast<std::size_t>(
            rng.uniformInt(0, host_count - 1));
        model.mutableHosts()[h].usable = !model.hosts()[h].usable;
    } else {
        model.rebuildUsage();
        for (std::size_t i = 0; i < model.hosts().size(); ++i)
            rm.evacuable[i] = model.hosts()[i].usable;
    }
}

TEST(PlacementIndexTest, QueriesMatchReferenceScansUnderEdits)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        sim::Rng rng(seed * 7919);
        RandomModel rm = makeRandomModel(rng);
        for (int step = 0; step < 40; ++step) {
            expectQueriesMatch(rm, rng);
            rm.model.audit();
            randomEdit(rm, rng);
            if (::testing::Test::HasFailure())
                FAIL() << "seed " << seed << " step " << step;
        }
    }
}

TEST(PlacementIndexTest, PlannersMatchReferencePlanners)
{
    const PackingHeuristic heuristics[] = {
        PackingHeuristic::FirstFitDecreasing,
        PackingHeuristic::BestFitDecreasing, PackingHeuristic::WorstFit};
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        sim::Rng rng(seed * 104723);
        RandomModel rm = makeRandomModel(rng);
        PlacementModel reference = rm.model;
        const PackingHeuristic heuristic = heuristics[seed % 3];
        const bool rack_affinity = (seed / 3) % 2 == 1;
        const double target = seed % 4 == 0 ? 0.65 : 0.8;

        EXPECT_EQ(planRebalance(rm.model, target, 0.1, 8, heuristic,
                                rack_affinity),
                  referenceRebalance(reference, target, 0.1, 8, heuristic,
                                     rack_affinity))
            << "seed " << seed;
        rm.model.audit();
        for (const PlannedHost &host : reference.hosts()) {
            EXPECT_EQ(rm.model.vmsOn(host.id), reference.vmsOn(host.id))
                << "seed " << seed << " host " << host.id;
            EXPECT_EQ(
                std::bit_cast<std::uint64_t>(rm.model.cpuUsedMhz(host.id)),
                std::bit_cast<std::uint64_t>(reference.cpuUsedMhz(host.id)));
        }
        for (const PlannedHost &host : reference.hosts()) {
            EXPECT_EQ(planEvacuation(rm.model, host.id, target, heuristic,
                                     rack_affinity),
                      referenceEvacuation(reference, host.id, target,
                                          heuristic, rack_affinity))
                << "seed " << seed << " victim " << host.id;
            rm.model.audit();
        }
        if (::testing::Test::HasFailure())
            FAIL() << "seed " << seed;
    }
}

TEST(PlacementIndexTest, EqualHeadroomGoesToLowestHostIndex)
{
    // Hosts 2 and 0 have exactly equal headroom under BestFit, hosts 1 and
    // 3 under WorstFit; the later index must not win either tie.
    PlacementModel model(
        {{0, 10000.0, 65536.0, true, 0}, {1, 20000.0, 65536.0, true, 0},
         {2, 10000.0, 65536.0, true, 0}, {3, 20000.0, 65536.0, true, 0}},
        {{0, 0, 5000.0, 1024.0, true}, {1, 2, 5000.0, 1024.0, true}});
    const PlannedVm probe{9, dc::invalidHostId, 1000.0, 1024.0, true};
    EXPECT_EQ(model.fitByHeadroom(probe, 0.8, true, -1, -1, -1), 0);
    EXPECT_EQ(model.fitByHeadroom(probe, 0.8, false, -1, -1, -1), 1);
    EXPECT_EQ(model.fitByHeadroom(probe, 0.8, true, 0, -1, -1), 2);
    EXPECT_EQ(model.fitByHeadroom(probe, 0.8, false, 1, -1, -1), 3);
}

TEST(PlacementIndexTest, FitWithinToleranceIsFound)
{
    // fits() allows 1e-9 MHz over the limit, so a VM 5e-10 larger than the
    // host's headroom fits there: its key sits below `vm`, and the walk's
    // floor must still reach it.
    PlacementModel model({{0, 10000.0, 65536.0, true, 0}},
                         {{0, 0, 5000.0, 1024.0, true}});
    const PlannedVm probe{9, dc::invalidHostId, 5000.0 + 5e-10, 1024.0, true};
    ASSERT_TRUE(model.fits(probe, 0, 1.0));
    EXPECT_EQ(model.fitByHeadroom(probe, 1.0, true, -1, -1, -1), 0);
    EXPECT_EQ(model.fitByHeadroom(probe, 1.0, false, -1, -1, -1), 0);
    const PlannedVm over{9, dc::invalidHostId, 5000.0 + 2e-9, 1024.0, true};
    EXPECT_FALSE(model.fits(over, 0, 1.0));
    EXPECT_EQ(model.fitByHeadroom(over, 1.0, true, -1, -1, -1),
              dc::invalidHostId);
}

TEST(PlacementIndexTest, OverloadChainIsNotAnArgmax)
{
    // Host 1's VM is the most utilized, but by less than 1e-9 over host
    // 0's, so the chain keeps whichever of the two it meets first.
    PlacementModel model(
        {{0, 1000.0, 65536.0, true, 0}, {1, 1000.0, 65536.0, true, 0},
         {2, 1000.0, 65536.0, true, 0}},
        {{0, 0, 900.0, 1.0, true}, {1, 1, 900.0 + 5e-7, 1.0, true}});
    EXPECT_EQ(model.worstOverloaded(0.8), 0);
    EXPECT_EQ(model.mostUtilized(), 1);
    model.apply({1, 1, 2});
    EXPECT_EQ(model.worstOverloaded(0.8), 0);
    model.apply({0, 0, 1});
    EXPECT_EQ(model.worstOverloaded(0.8), 1);
}

} // namespace
} // namespace vpm::mgmt
