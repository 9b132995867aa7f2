/**
 * @file
 * The manager's persistent placement model against a from-scratch build.
 *
 * Between membership changes VpmManager::buildModel() refreshes its model
 * in place from the store columns and then pins the migration engine's
 * in-flight VMs. VpmManager::auditModel() compares that refresh with a
 * model built from scratch out of the Vm, Host and engine objects; this
 * test calls it after every management cycle of a PM+S3 day with VM
 * arrivals and departures, so the refresh meets retired rows, pending
 * arrivals and pinned migrations.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "simcore/random.hpp"
#include "workload/mix.hpp"

namespace vpm::mgmt {
namespace {

TEST(ManagerModelAuditTest, RefreshedModelMatchesAFreshBuildEveryCycle)
{
    ScenarioConfig config;
    config.manager = makePolicy(PolicyKind::PmS3);
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
    const VpmManager &manager = rig.manager();
    const dc::MigrationEngine &migration = rig.migration();
    std::uint64_t audited = 0;
    std::uint64_t audited_with_pins = 0;
    std::string first_mismatch;
    // Registered after the manager's own hook, so it runs right after
    // each cycle, while that cycle's migrations are in flight or queued.
    rig.dcsim().addEvaluationHook([&] {
        if (manager.stats().cycles == audited)
            return;
        audited = manager.stats().cycles;
        if (!migration.involvedVms().empty())
            ++audited_with_pins;
        const std::string mismatch = manager.auditModel();
        if (!mismatch.empty() && first_mismatch.empty())
            first_mismatch =
                "cycle " + std::to_string(audited) + ": " + mismatch;
    });
    rig.dcsim().start();
    simulator.runUntil(simulator.now() + sim::SimTime::hours(24.0));
    const ScenarioResult result = rig.collect();

    EXPECT_EQ(first_mismatch, "");
    EXPECT_EQ(audited, result.manager.cycles);
    EXPECT_GT(audited_with_pins, 0u);
    EXPECT_GT(result.vmArrivals, 0u);
    EXPECT_GT(result.vmDepartures, 0u);
}

} // namespace
} // namespace vpm::mgmt
