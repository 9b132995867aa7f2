/**
 * @file
 * E6 — Extension: rack topology and locality-aware consolidation.
 *
 * The scale-out story assumes migration traffic stays cheap. On a real
 * network it is only cheap *within* a rack: cross-rack flows ride a
 * slower shared uplink with limited concurrency. We give the cluster a
 * rack structure (4 hosts/rack, uplink at ~27% of ToR bandwidth, 2
 * concurrent uplink flows per rack) and compare the stock rack-oblivious
 * planner against rack-affine destination choice.
 *
 * Shape to validate: affinity pushes most consolidation traffic inside
 * racks — fewer cross-rack flows, shorter migrations, same energy and
 * SLA. (Consolidation quality is unaffected because affinity only breaks
 * ties; cross-rack remains the fallback.)
 */

#include <iostream>

#include "bench_util.hpp"

namespace {

void
runBody(const vpm::bench::BenchArgs &args)
{
    using namespace vpm;

    bench::banner("E6", "extension: rack topology / locality-aware moves",
                  "16 hosts in 4 racks, 80 VMs, 24 h diurnal day, PM+S3; "
                  "uplink 300 MB/s vs ToR 1100 MB/s, 2 uplink flows/rack");

    bench::JsonReport report(args.jsonPath, "E6");

    stats::Table table("rack-oblivious vs rack-affine placement",
                       {"planner", "energy kWh", "satisfaction",
                        "SLA viol", "migr", "cross-rack", "cross-rack %",
                        "mean migr s"});

    for (const bool affinity : {false, true}) {
        mgmt::ScenarioConfig config;
        config.hostCount = 16;
        config.vmCount = 80;
        config.duration = sim::SimTime::hours(24.0);
        dc::TopologyConfig topo;
        topo.hostsPerRack = 4;
        topo.interRackBandwidthMbPerSec = 300.0;
        topo.uplinkMigrationSlotsPerRack = 2;
        config.topology = topo;
        config.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
        config.manager.rackAffinity = affinity;

        const mgmt::ScenarioResult result = mgmt::runScenario(config);
        const double cross_frac =
            result.metrics.migrations > 0
                ? static_cast<double>(result.crossRackMigrations) /
                      static_cast<double>(result.metrics.migrations)
                : 0.0;
        const char *planner = affinity ? "rack-affine" : "rack-oblivious";
        report.add(planner, result);
        table.addRow({planner,
                      stats::fmt(result.metrics.energyKwh),
                      stats::fmtPercent(result.metrics.satisfaction, 2),
                      stats::fmtPercent(result.metrics.violationFraction,
                                        2),
                      std::to_string(result.metrics.migrations),
                      std::to_string(result.crossRackMigrations),
                      stats::fmtPercent(cross_frac, 1),
                      stats::fmt(result.meanMigrationSeconds, 1)});
    }
    table.print(std::cout);
    report.write();

    std::cout << "\nTakeaway: preferring same-rack homes keeps most "
                 "consolidation traffic off the\nshared uplinks — "
                 "migrations finish faster and uplink slots stay free for "
                 "the\nmoves that genuinely must cross racks — at no "
                 "energy or SLA cost.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const vpm::bench::BenchArgs args =
        vpm::bench::parseArgs("e6_rack_topology", argc, argv);
    return vpm::bench::runBench(args, [&] { runBody(args); });
}
