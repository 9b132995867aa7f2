/**
 * @file
 * Golden manager outcomes: a small runScenario matrix whose every
 * ManagerStats counter and exact cluster energy are pinned.
 *
 * The matrix covers each wake/sleep path of VpmManager: S3, S5 and
 * adaptive sleep, the parked reserve (park, unpark, overflow sleep),
 * parking without host sleep, a binding power cap, hierarchical rack
 * triage, HA restart after host crashes with a spare floor, and the
 * planner variants: first-fit and worst-fit packing, rack affinity
 * (best- and worst-fit), heterogeneity-aware victim choice and
 * anti-affinity groups. A refactor of those paths must leave every line
 * byte-identical; a change meant to move policy outcomes re-records the
 * table (the failure message prints the new lines).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "replay/checkpoint.hpp"
#include "simcore/random.hpp"
#include "workload/mix.hpp"

namespace vpm::mgmt {
namespace {

/** One line per run: every ManagerStats counter, then energy (%.17g). */
std::string
outcomeLine(const ScenarioResult &result)
{
    const ManagerStats &s = result.manager;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "cycles=%llu migrations=%llu balance=%llu evacuations=%llu "
        "abandoned=%llu cancelled=%llu sleeps=%llu wakes=%llu parked=%llu "
        "unparked=%llu capDenied=%llu shortfall=%llu haRestarts=%llu "
        "energyKwh=%.17g",
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.migrationsRequested),
        static_cast<unsigned long long>(s.balanceMoves),
        static_cast<unsigned long long>(s.evacuationsStarted),
        static_cast<unsigned long long>(s.evacuationsAbandoned),
        static_cast<unsigned long long>(s.drainsCancelled),
        static_cast<unsigned long long>(s.sleepsIssued),
        static_cast<unsigned long long>(s.wakesIssued),
        static_cast<unsigned long long>(s.hostsParked),
        static_cast<unsigned long long>(s.hostsUnparked),
        static_cast<unsigned long long>(s.wakesDeniedByCap),
        static_cast<unsigned long long>(s.shortfallCycles),
        static_cast<unsigned long long>(s.haRestarts),
        result.metrics.energyKwh);
    return buf;
}

struct GoldenCase
{
    const char *name;
    std::function<void(ScenarioConfig &)> setup;
    const char *expected;
};

TEST(ManagerGoldenTest, OutcomesMatchRecordedMatrix)
{
    const GoldenCase cases[] = {
        {"pm-s3",
         [](ScenarioConfig &c) { c.manager = makePolicy(PolicyKind::PmS3); },
         "cycles=289 migrations=116 balance=63 evacuations=10 abandoned=0"
         " cancelled=1 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=5 haRestarts=0 energyKwh=23.729885300887332"},
        {"pm-s5",
         [](ScenarioConfig &c) { c.manager = makePolicy(PolicyKind::PmS5); },
         "cycles=289 migrations=97 balance=50 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=25.335604302762796"},
        {"pm-adaptive",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmAdaptive);
         },
         "cycles=289 migrations=116 balance=63 evacuations=10 abandoned=0"
         " cancelled=1 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=5 haRestarts=0 energyKwh=23.532856411998441"},
        {"parked-reserve",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.parkedReserve = 2;
             c.idleHierarchy = power::modernIdleHierarchy();
         },
         "cycles=289 migrations=99 balance=52 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=4 wakes=1 parked=9 unparked=3 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=24.334685691566339"},
        {"park-only",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.hostSleep = false;
             c.idleHierarchy = power::modernIdleHierarchy();
         },
         "cycles=289 migrations=99 balance=52 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=0 wakes=0 parked=9 unparked=4 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=25.569601711473975"},
        {"power-cap",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.clusterPowerCapWatts = 1200.0;
         },
         "cycles=289 migrations=71 balance=41 evacuations=6 abandoned=0"
         " cancelled=0 sleeps=6 wakes=1 parked=0 unparked=0 capDenied=130"
         " shortfall=131 haRestarts=0 energyKwh=21.270999854129503"},
        {"hierarchical",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.hierarchical = true;
             c.manager.hostsPerRack = 4;
             c.manager.racksPerPod = 2;
             c.mix.loadScale = 1.2; // the day peak re-wakes the empty tail
         },
         "cycles=289 migrations=0 balance=0 evacuations=0 abandoned=0"
         " cancelled=0 sleeps=4 wakes=2 parked=0 unparked=0 capDenied=0"
         " shortfall=2 haRestarts=0 energyKwh=30.913928011326245"},
        {"hierarchical-cap",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.hierarchical = true;
             c.manager.hostsPerRack = 4;
             c.manager.racksPerPod = 2;
             c.mix.loadScale = 1.2;
             c.manager.clusterPowerCapWatts = 1700.0;
         },
         "cycles=289 migrations=0 balance=0 evacuations=0 abandoned=0"
         " cancelled=0 sleeps=2 wakes=0 parked=0 unparked=0 capDenied=29"
         " shortfall=29 haRestarts=0 energyKwh=30.567355233548465"},
        {"crash-ha",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.haRestart = true;
             c.manager.spareHostsFloor = 1;
             dc::FailureConfig failures;
             failures.meanTimeToFailure = sim::SimTime::hours(40.0);
             failures.meanTimeToRepair = sim::SimTime::minutes(45.0);
             c.failures = failures;
         },
         "cycles=289 migrations=100 balance=57 evacuations=11 abandoned=0"
         " cancelled=0 sleeps=11 wakes=6 parked=0 unparked=0 capDenied=0"
         " shortfall=6 haRestarts=9 energyKwh=27.148420082826242"},
        {"first-fit",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.heuristic = PackingHeuristic::FirstFitDecreasing;
         },
         "cycles=289 migrations=116 balance=60 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=23.88210399145224"},
        {"worst-fit",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.heuristic = PackingHeuristic::WorstFit;
         },
         "cycles=289 migrations=100 balance=48 evacuations=10 abandoned=0"
         " cancelled=1 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=5 haRestarts=0 energyKwh=24.03634060191925"},
        {"rack-affinity",
         [](ScenarioConfig &c) {
             dc::TopologyConfig topo;
             topo.hostsPerRack = 3; // racks of 3, 3 and 2 hosts
             c.topology = topo;
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.rackAffinity = true;
         },
         "cycles=289 migrations=108 balance=57 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=23.706618033207903"},
        {"rack-affinity-worst-fit",
         [](ScenarioConfig &c) {
             dc::TopologyConfig topo;
             topo.hostsPerRack = 3;
             c.topology = topo;
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.rackAffinity = true;
             c.manager.heuristic = PackingHeuristic::WorstFit;
         },
         "cycles=289 migrations=82 balance=42 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=23.783328555914721"},
        {"heterogeneity-aware",
         [](ScenarioConfig &c) {
             c.heterogeneousSpecs = {power::enterpriseBlade2013(),
                                     power::legacyServer2009()};
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.heterogeneityAware = true;
         },
         "cycles=289 migrations=108 balance=50 evacuations=9 abandoned=0"
         " cancelled=0 sleeps=9 wakes=4 parked=0 unparked=0 capDenied=0"
         " shortfall=4 haRestarts=0 energyKwh=26.72979854869023"},
        {"anti-affinity",
         [](ScenarioConfig &c) {
             c.mix.loadScale = 0.6;
             c.manager = makePolicy(PolicyKind::PmS3);
             for (int g = 0; g < 8; ++g)
                 c.manager.antiAffinityGroups.push_back(
                     {3 * g, 3 * g + 1, 3 * g + 2});
         },
         "cycles=289 migrations=17 balance=3 evacuations=4 abandoned=0"
         " cancelled=0 sleeps=4 wakes=0 parked=0 unparked=0 capDenied=0"
         " shortfall=0 haRestarts=0 energyKwh=20.275418785211556"},
        // Every predictor family, so the manager's per-VM and aggregate
        // forecasts are pinned beyond the default window-max.
        {"last-value",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.predictor = PredictorKind::LastValue;
         },
         "cycles=289 migrations=142 balance=78 evacuations=12 abandoned=0"
         " cancelled=0 sleeps=12 wakes=7 parked=0 unparked=0 capDenied=0"
         " shortfall=7 haRestarts=0 energyKwh=23.371108458562766"},
        {"ewma",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.predictor = PredictorKind::Ewma;
         },
         "cycles=289 migrations=70 balance=29 evacuations=8 abandoned=0"
         " cancelled=0 sleeps=8 wakes=3 parked=0 unparked=0 capDenied=0"
         " shortfall=3 haRestarts=0 energyKwh=23.194311588853104"},
        {"linear-trend",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.predictor = PredictorKind::LinearTrend;
         },
         "cycles=289 migrations=132 balance=80 evacuations=12 abandoned=0"
         " cancelled=1 sleeps=11 wakes=6 parked=0 unparked=0 capDenied=0"
         " shortfall=7 haRestarts=0 energyKwh=23.307981312533975"},
        {"periodic-profile",
         [](ScenarioConfig &c) {
             c.manager = makePolicy(PolicyKind::PmS3);
             c.manager.predictor = PredictorKind::PeriodicProfile;
             // Two days: the learned profile drives the second one.
             c.duration = sim::SimTime::hours(48.0);
         },
         "cycles=577 migrations=219 balance=137 evacuations=16 abandoned=0"
         " cancelled=0 sleeps=16 wakes=11 parked=0 unparked=0 capDenied=0"
         " shortfall=11 haRestarts=0 energyKwh=46.522600391200356"},
    };

    for (const GoldenCase &golden : cases) {
        ScenarioConfig config;
        config.hostCount = 8;
        config.vmCount = 40;
        config.duration = sim::SimTime::hours(24.0);
        golden.setup(config);
        EXPECT_EQ(outcomeLine(runScenario(config)), golden.expected)
            << "case " << golden.name;
    }
}

/**
 * FNV-1a digest of VpmManager::serializeState (the vpm-ckpt manager
 * section) after a 26 h PM+S3 run of 8 hosts and 40 VMs with VM churn:
 * arrivals fill predictor slots past the initial fleet and departures
 * retire them. 26 h is one full day of 5-minute cycles plus two hours,
 * so a periodic profile is complete and has been revisited.
 */
std::uint64_t
managerStateDigest(PredictorKind kind)
{
    ScenarioConfig config;
    config.manager = makePolicy(PolicyKind::PmS3);
    config.manager.predictor = kind;
    dc::ProvisioningConfig churn;
    churn.arrivalsPerHour = 6.0;
    churn.meanLifetime = sim::SimTime::hours(3.0);
    config.provisioning = churn;

    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    for (int h = 0; h < config.hostCount; ++h)
        cluster.addHost(config.hostConfig, config.powerSpec);
    sim::Rng rng(config.seed);
    for (workload::VmWorkloadSpec &spec :
         workload::makeEnterpriseMix(rng, config.vmCount, config.mix))
        cluster.addVm(std::move(spec));
    staticInitialPlacement(cluster);

    Rig rig(simulator, cluster, config);
    rig.dcsim().start();
    simulator.runUntil(simulator.now() + sim::SimTime::hours(26.0));
    std::vector<std::uint8_t> bytes;
    rig.manager().serializeState(bytes);
    return replay::fnv1a(bytes.data(), bytes.size());
}

TEST(ManagerGoldenTest, SerializedStateMatchesRecordedDigests)
{
    const struct
    {
        PredictorKind kind;
        std::uint64_t digest;
    } cases[] = {
        {PredictorKind::LastValue, 0xa02484ea4ad86395ull},
        {PredictorKind::Ewma, 0xb2b9e3ed862aa87cull},
        {PredictorKind::WindowMax, 0x0e20742ad10d94fbull},
        {PredictorKind::LinearTrend, 0xdeaf02230536631full},
        {PredictorKind::PeriodicProfile, 0x289fa4155082089full},
    };
    for (const auto &golden : cases) {
        const std::uint64_t digest = managerStateDigest(golden.kind);
        EXPECT_EQ(digest, golden.digest)
            << toString(golden.kind) << ": 0x" << std::hex << digest;
    }
}

} // namespace
} // namespace vpm::mgmt
