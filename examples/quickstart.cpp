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

#include <climits>
#include <cstdio>
#include <iostream>

#include "core/scenario.hpp"
#include "simcore/parse_number.hpp"
#include "stats/table.hpp"

int
main(int argc, char **argv)
{
    using namespace vpm;

    int hosts = 8;
    int vms = 40;
    const auto count = [&](int index, long long min, int &out) {
        if (argc <= index)
            return true;
        const auto value = sim::parseInteger(argv[index], min, INT_MAX);
        if (!value) {
            std::fprintf(stderr, "%s: bad count '%s'\n", argv[0],
                         argv[index]);
            return false;
        }
        out = static_cast<int>(*value);
        return true;
    };
    if (argc > 3 || !count(1, 1, hosts) || !count(2, 0, vms)) {
        std::fprintf(stderr, "usage: %s [hosts >= 1] [vms >= 0]\n", argv[0]);
        return 2;
    }

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
