/**
 * @file
 * mgmt::Rig's idle-governor cohort sweep against the loop it replaced: one
 * self-rescheduling event per host, each running the governor tick on its
 * own host's hierarchy (the tick's body is written out here, so a change
 * to Host::idleGovernorTick() shows as a difference). Both drive the same
 * hierarchical fleet, with the journal on, through demand steps and a
 * host put to sleep in the middle of a cohort. At several instants every
 * host's hierarchy (transitions, depths, residency), meter joules, held
 * watts and flag byte, and every journal record, must be identical, at
 * pool sizes 1, 2 and 8. The fleets cover the cohort shapes: one host per
 * slot (7 hosts at 300 s), a few per slot (1000 hosts at 300 s) and one
 * slot for the whole fleet (a sub-second period, spread 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::mgmt {
namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The per-host governor loop: one event per host, each rescheduling
 *  itself on the period, first ticks staggered exactly as the cohorts,
 *  each tick reporting busy cores and commanding full descent whenever
 *  that would move the hierarchy. */
class PerHostGovernors
{
  public:
    PerHostGovernors(sim::Simulator &simulator, dc::Cluster &cluster,
                     sim::SimTime period)
        : simulator_(simulator), cluster_(cluster), period_(period)
    {
        const std::size_t count = cluster_.hostCount();
        const auto spread =
            static_cast<std::size_t>(std::max(1.0, period.toSeconds()));
        for (std::size_t h = 0; h < count; ++h) {
            const auto offset = sim::SimTime::seconds(
                static_cast<double>(h * spread / count));
            const auto id = static_cast<dc::HostId>(h);
            simulator_.schedule(offset, [this, id] { tick(id); },
                                "idle-governor");
        }
    }

  private:
    void
    tick(dc::HostId h)
    {
        dc::Host &host = cluster_.host(h);
        power::IdleHierarchy *hier = host.idleHierarchy();
        if (hier != nullptr && hier->active()) {
            const int cores = hier->spec().coreCount;
            const int busy = std::min(
                cores,
                static_cast<int>(std::ceil(host.utilization() * cores)));
            const int deepest_core =
                static_cast<int>(hier->spec().coreStates.size());
            const int deepest_pkg =
                static_cast<int>(hier->spec().packageStates.size());
            if (hier->wouldChange(busy, deepest_core, deepest_pkg)) {
                hier->setBusyCores(busy);
                hier->requestDepth(deepest_core, deepest_pkg);
            }
        }
        simulator_.schedule(period_, [this, h] { tick(h); },
                            "idle-governor");
    }

    sim::Simulator &simulator_;
    dc::Cluster &cluster_;
    sim::SimTime period_;
};

struct FleetShape
{
    int hosts;
    sim::SimTime period;
    sim::SimTime evaluation;
    sim::SimTime duration;
    /** Empty hosts put to sleep at duration / 4 and woken at
     *  duration / 2. */
    std::vector<dc::HostId> sleepers;
};

struct HostState
{
    std::uint64_t transitions = 0;
    int busy = 0;
    int coreDepth = 0;
    int packageDepth = 0;
    std::vector<double> residency; ///< core depths, then package depths
    double joules = 0.0;
    double heldWatts = 0.0;
    std::uint8_t flags = 0;
};

struct Record
{
    telemetry::JournalEvent event;
    std::string labelA, labelB, labelC;
};

/** Everything compared at one instant. */
struct Snapshot
{
    std::vector<HostState> hosts;
    std::vector<Record> journal;
};

Snapshot
snapshot(const dc::Cluster &cluster)
{
    Snapshot out;
    for (const auto &host_ptr : cluster.hosts()) {
        const power::IdleHierarchy &hier = *host_ptr->idleHierarchy();
        HostState state;
        state.transitions = hier.transitions();
        state.busy = hier.busyCores();
        state.coreDepth = hier.coreDepth();
        state.packageDepth = hier.packageDepth();
        for (std::size_t d = 0; d <= hier.spec().coreStates.size(); ++d)
            state.residency.push_back(
                hier.coreResidencySeconds(static_cast<int>(d)));
        for (std::size_t d = 0; d <= hier.spec().packageStates.size(); ++d)
            state.residency.push_back(
                hier.packageResidencySeconds(static_cast<int>(d)));
        state.joules = host_ptr->meter().joules();
        state.heldWatts = cluster.fleet().hostHeldWatts(host_ptr->id());
        state.flags = cluster.fleet().hostFlags(host_ptr->id());
        out.hosts.push_back(std::move(state));
    }
    const telemetry::EventJournal &journal = telemetry::global().journal();
    for (const telemetry::JournalEvent &event : journal.sortedEvents())
        out.journal.push_back({event, journal.label(event.labelA),
                               journal.label(event.labelB),
                               journal.label(event.labelC)});
    return out;
}

/** Run @p shape with the cohort sweep (or the per-host loop) and take a
 *  snapshot at a third, two thirds and the end of the run. */
std::vector<Snapshot>
runFleet(const FleetShape &shape, bool per_host, unsigned threads)
{
    sim::setGlobalThreads(threads);
    telemetry::TelemetryConfig tconfig;
    tconfig.enabled = true;
    tconfig.journalCapacity = 1u << 20;
    telemetry::global().configure(tconfig);

    ScenarioConfig config;
    config.idleHierarchy = power::modernIdleHierarchy();
    config.manager = makePolicy(PolicyKind::NoPM);
    config.datacenter.evaluationInterval = shape.evaluation;

    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    for (int h = 0; h < shape.hosts; ++h)
        cluster.addHost(config.hostConfig, config.powerSpec);

    // Eight step patterns with random breakpoints over the run, so the
    // busy-core counts the governors report move between ticks.
    sim::Rng rng(11);
    const double span_s = shape.duration.toSeconds();
    std::vector<workload::TracePtr> patterns;
    for (int p = 0; p < 8; ++p) {
        std::vector<workload::StepTrace::Step> steps{
            {sim::SimTime(), rng.uniform(0.0, 1.0)}};
        for (int s = 1; s <= 24; ++s)
            steps.push_back({sim::SimTime::seconds(span_s * s / 25.0 +
                                                   rng.uniform(0.0, 1.0)),
                             rng.uniform(0.0, 1.0)});
        patterns.push_back(
            std::make_shared<workload::StepTrace>(std::move(steps)));
    }
    // Four VMs on each of the first 80% of hosts; the rest stay empty,
    // so their hierarchies bottom out and they may sleep.
    const int loaded = std::max(1, shape.hosts * 4 / 5);
    for (int v = 0; v < loaded * 4; ++v) {
        workload::VmWorkloadSpec spec;
        spec.name = "vm" + std::to_string(v);
        spec.cpuMhz = 2000.0;
        spec.memoryMb = 2048.0;
        spec.trace = patterns[static_cast<std::size_t>(v) % patterns.size()];
        const dc::Vm &vm = cluster.addVm(std::move(spec));
        cluster.placeVm(vm.id(), static_cast<dc::HostId>(v % loaded));
    }

    for (const dc::HostId h : shape.sleepers) {
        simulator.scheduleAt(
            shape.duration * 0.25,
            [&cluster, h] { ASSERT_TRUE(cluster.requestHostSleep(h, "S3")); },
            "test-sleep");
        simulator.scheduleAt(
            shape.duration * 0.5,
            [&cluster, h] { ASSERT_TRUE(cluster.requestHostWake(h)); },
            "test-wake");
    }

    Rig rig(simulator, cluster, config);
    rig.dcsim().start();
    std::unique_ptr<PerHostGovernors> reference;
    if (per_host)
        reference = std::make_unique<PerHostGovernors>(simulator, cluster,
                                                       shape.period);
    else
        rig.startIdleGovernors(shape.period);

    std::vector<Snapshot> out;
    for (int third = 1; third <= 3; ++third) {
        simulator.runUntil(shape.duration * (third / 3.0));
        out.push_back(snapshot(cluster));
    }
    // The sleepers really were asleep while their cohorts ticked.
    for (const dc::HostId h : shape.sleepers)
        EXPECT_GT(cluster.host(h).powerFsm().wakeLatenciesSeconds().size(),
                  0u);
    telemetry::global().configure(telemetry::TelemetryConfig{});
    sim::setGlobalThreads(1);
    return out;
}

void
expectSameRuns(const FleetShape &shape)
{
    const std::vector<Snapshot> want = runFleet(shape, true, 1);
    ASSERT_EQ(want.size(), 3u);
    // Something happened: hierarchies moved and the journal saw it.
    EXPECT_GT(want.back().journal.size(), want.front().journal.size());
    EXPECT_GT(want.back().hosts.front().transitions, 0u);

    for (const unsigned threads : {1u, 2u, 8u}) {
        const std::vector<Snapshot> got = runFleet(shape, false, threads);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            SCOPED_TRACE("threads " + std::to_string(threads) +
                         ", snapshot " + std::to_string(i));
            const Snapshot &w = want[i];
            const Snapshot &g = got[i];
            ASSERT_EQ(g.hosts.size(), w.hosts.size());
            for (std::size_t h = 0; h < w.hosts.size(); ++h) {
                SCOPED_TRACE("host " + std::to_string(h));
                const HostState &a = w.hosts[h];
                const HostState &b = g.hosts[h];
                EXPECT_EQ(b.transitions, a.transitions);
                EXPECT_EQ(b.busy, a.busy);
                EXPECT_EQ(b.coreDepth, a.coreDepth);
                EXPECT_EQ(b.packageDepth, a.packageDepth);
                ASSERT_EQ(b.residency.size(), a.residency.size());
                EXPECT_EQ(std::memcmp(b.residency.data(), a.residency.data(),
                                      a.residency.size() * sizeof(double)),
                          0);
                EXPECT_TRUE(sameBits(b.joules, a.joules));
                EXPECT_TRUE(sameBits(b.heldWatts, a.heldWatts));
                EXPECT_EQ(b.flags, a.flags);
            }
            ASSERT_EQ(g.journal.size(), w.journal.size());
            for (std::size_t r = 0; r < w.journal.size(); ++r) {
                const Record &a = w.journal[r];
                const Record &b = g.journal[r];
                SCOPED_TRACE("journal record " + std::to_string(r));
                EXPECT_EQ(b.event.timeUs, a.event.timeUs);
                EXPECT_EQ(b.event.seq, a.event.seq);
                EXPECT_EQ(b.event.cause, a.event.cause);
                EXPECT_EQ(b.event.causeSeq, a.event.causeSeq);
                EXPECT_EQ(b.event.kind, a.event.kind);
                EXPECT_EQ(b.event.domain, a.event.domain);
                EXPECT_EQ(b.event.track, a.event.track);
                EXPECT_EQ(b.labelA, a.labelA);
                EXPECT_EQ(b.labelB, a.labelB);
                EXPECT_EQ(b.labelC, a.labelC);
                EXPECT_TRUE(sameBits(b.event.a, a.event.a));
                EXPECT_TRUE(sameBits(b.event.b, a.event.b));
                EXPECT_TRUE(sameBits(b.event.c, a.event.c));
            }
        }
    }
}

TEST(RigGovernorSweepTest, OneHostPerSlot)
{
    // 7 hosts over a 300 s spread: every cohort is a single host.
    expectSameRuns({7, sim::SimTime::seconds(300.0),
                    sim::SimTime::seconds(60.0), sim::SimTime::hours(3.0),
                    {6}});
}

TEST(RigGovernorSweepTest, FewHostsPerSlotWithSleeperMidCohort)
{
    // 1000 hosts over 300 s: cohorts of 3-4 hosts. Hosts 900-903 share
    // slot 270, and 901 sleeps while 900 and 902-903 keep ticking.
    expectSameRuns({1000, sim::SimTime::seconds(300.0),
                    sim::SimTime::seconds(60.0), sim::SimTime::hours(2.0),
                    {901}});
}

TEST(RigGovernorSweepTest, SubSecondPeriodIsOneSlot)
{
    // A 0.5 s period has spread 1: the whole fleet is one cohort, with
    // sleeper 4500 inside it.
    expectSameRuns({5000, sim::SimTime::seconds(0.5),
                    sim::SimTime::seconds(5.0), sim::SimTime::minutes(2.0),
                    {4500}});
}

} // namespace
} // namespace vpm::mgmt
