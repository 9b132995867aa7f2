/**
 * @file
 * Quickstart: the smallest complete use of the vpm public API.
 *
 * Builds an 8-host cluster with 40 VMs on a 24-hour diurnal enterprise
 * workload, runs the paper's PM+S3 policy, and prints the headline numbers
 * next to the NoPM baseline.
 *
 * Usage: quickstart [hosts] [vms]
 */

#include <cstdio>
#include <iostream>

#include "core/scenario.hpp"
#include "simcore/flag_parser.hpp"
#include "stats/table.hpp"

int
main(int argc, char **argv)
{
    using namespace vpm;

    int hosts = 8;
    int vms = 40;
    using Arity = sim::FlagParser::Arity;
    sim::FlagParser(argv[0],
                    [argv0 = argv[0]](std::FILE *out) {
                        std::fprintf(out,
                                     "usage: %s [hosts >= 1] [vms >= 0]\n",
                                     argv0);
                    })
        .operand("hosts", sim::FlagValue::integer(hosts, 1), Arity::Optional)
        .operand("vms", sim::FlagValue::integer(vms, 0), Arity::Optional)
        .parseOrExit(argc, argv);

    stats::Table table("quickstart: 24 h diurnal enterprise day",
                       {"policy", "energy kWh", "vs NoPM", "satisfaction",
                        "SLA viol", "migrations", "power actions",
                        "avg hosts on"});

    double baseline_kwh = 0.0;
    for (const mgmt::PolicyKind policy :
         {mgmt::PolicyKind::NoPM, mgmt::PolicyKind::PmS3}) {
        mgmt::ScenarioConfig config;
        config.hostCount = hosts;
        config.vmCount = vms;
        config.manager = mgmt::makePolicy(policy);
        const mgmt::ScenarioResult result = mgmt::runScenario(config);

        if (policy == mgmt::PolicyKind::NoPM)
            baseline_kwh = result.metrics.energyKwh;
        table.addRow({toString(policy),
                      stats::fmt(result.metrics.energyKwh),
                      stats::fmtPercent(baseline_kwh > 0.0
                          ? result.metrics.energyKwh / baseline_kwh : 1.0),
                      stats::fmtPercent(result.metrics.satisfaction, 2),
                      stats::fmtPercent(result.metrics.violationFraction, 2),
                      std::to_string(result.metrics.migrations),
                      std::to_string(result.metrics.powerActions),
                      stats::fmt(result.metrics.averageHostsOn, 1)});
    }

    table.print(std::cout);
    std::printf("\nLow-latency states let the manager chase the diurnal "
                "trough:\nPM+S3 should land well under NoPM energy with "
                "satisfaction near 100%%.\n");
    return 0;
}
