/**
 * @file
 * Fidelity of the benchmark's hand-built rigs, at reduced fleet sizes:
 *  - the consolidation rig reaches the same policy outcome as
 *    mgmt::runScenario for the same config, with telemetry off and on and
 *    with the traced hooks installed;
 *  - fleet_day's outcome does not depend on the evaluation thread count.
 */

#include <gtest/gtest.h>

#include "simcore/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace {

using perfbench::outcomeDigest;
using perfbench::runWorkload;
using perfbench::Workload;
using perfbench::WorkloadOptions;

constexpr std::uint64_t kSeed = 7;

WorkloadOptions
smallConsolidation(bool telemetry)
{
    WorkloadOptions options;
    options.seed = kSeed;
    options.hosts = 64;
    options.vms = 320;
    options.telemetry = telemetry;
    return options;
}

TEST(Fidelity, ConsolidationRigMatchesRunScenario)
{
    const WorkloadOptions options = smallConsolidation(false);
    const vpm::mgmt::ScenarioResult reference = vpm::mgmt::runScenario(
        perfbench::consolidationScenario(kSeed, options.hosts, options.vms));
    ASSERT_GT(reference.metrics.migrations, 0u);

    const perfbench::RunReport plain =
        runWorkload(Workload::Consolidation, options, nullptr);
    EXPECT_TRUE(plain.violations.empty());
    EXPECT_EQ(outcomeDigest(plain.result), outcomeDigest(reference));
    EXPECT_EQ(plain.result.eventsProcessed, reference.eventsProcessed);

    perfbench::SpanRecorder recorder(kSeed);
    const perfbench::RunReport traced =
        runWorkload(Workload::Consolidation, options, &recorder);
    EXPECT_EQ(outcomeDigest(traced.result), outcomeDigest(reference));
    EXPECT_GT(traced.layers.at("core.cycle_us_p50"), 0.0);
}

TEST(Fidelity, ConsolidationTelemetryDoesNotChangeOutcome)
{
    const WorkloadOptions off = smallConsolidation(false);
    const WorkloadOptions on = smallConsolidation(true);
    const std::uint64_t without =
        outcomeDigest(runWorkload(Workload::Consolidation, off, nullptr)
                          .result);
    const perfbench::RunReport with =
        runWorkload(Workload::Consolidation, on, nullptr);
    vpm::telemetry::global().configure(vpm::telemetry::TelemetryConfig{});
    EXPECT_TRUE(with.violations.empty());
    EXPECT_EQ(outcomeDigest(with.result), without);
}

TEST(Fidelity, FleetDayDigestIndependentOfThreads)
{
    WorkloadOptions options;
    options.seed = kSeed;
    options.hosts = 2000;
    options.vms = 20000;

    vpm::sim::setGlobalThreads(1);
    const perfbench::RunReport one =
        runWorkload(Workload::FleetDay, options, nullptr);
    vpm::sim::setGlobalThreads(2);
    const perfbench::RunReport two =
        runWorkload(Workload::FleetDay, options, nullptr);
    vpm::sim::setGlobalThreads(1);

    EXPECT_TRUE(one.violations.empty());
    EXPECT_TRUE(two.violations.empty());
    EXPECT_GT(one.result.manager.sleepsIssued, 0u);
    EXPECT_EQ(outcomeDigest(one.result), outcomeDigest(two.result));
}

} // namespace
