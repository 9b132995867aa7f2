/**
 * @file
 * Example: a day in a power-managed datacenter, hour by hour.
 *
 * Runs the PM+S3 policy over a 24-hour diurnal enterprise day and prints
 * an hourly log of what the manager is doing: offered load, hosts
 * on/asleep, instantaneous cluster power, and the ideal proportional power
 * for comparison. This is the "watch it breathe" view of the system: hosts
 * drain away overnight and return for the morning ramp.
 *
 * Usage: diurnal_datacenter [hosts] [vms] [policy]
 *   policy: nopm | drm | s5 | s3 | adaptive (default s3)
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
    mgmt::PolicyKind policy = mgmt::PolicyKind::PmS3;
    using Arity = sim::FlagParser::Arity;
    sim::FlagParser(argv[0],
                    [argv0 = argv[0]](std::FILE *out) {
                        std::fprintf(out,
                                     "usage: %s [hosts >= 1] [vms >= 0] "
                                     "[policy]\n",
                                     argv0);
                    })
        .operand("hosts", sim::FlagValue::integer(hosts, 1), Arity::Optional)
        .operand("vms", sim::FlagValue::integer(vms, 0), Arity::Optional)
        .operand("policy",
                 sim::FlagValue::oneOf(
                     policy, {{"nopm", mgmt::PolicyKind::NoPM},
                              {"drm", mgmt::PolicyKind::DrmOnly},
                              {"s5", mgmt::PolicyKind::PmS5},
                              {"s3", mgmt::PolicyKind::PmS3},
                              {"adaptive", mgmt::PolicyKind::PmAdaptive}}),
                 Arity::Optional)
        .parseOrExit(argc, argv);

    mgmt::ScenarioConfig config;
    config.hostCount = hosts;
    config.vmCount = vms;
    config.duration = sim::SimTime::hours(24.0);
    config.manager = mgmt::makePolicy(policy);

    const double peak_w = config.powerSpec.peakPowerWatts();
    const double cap_mhz = config.hostConfig.cpuCapacityMhz;

    stats::Table hourly("hour-by-hour: " + std::string(toString(policy)),
                        {"hour", "load", "hosts on", "asleep", "in transit",
                         "cluster W", "ideal W"});
    sim::SimTime next_report;
    config.evaluationProbe = [&](const dc::Cluster &cluster,
                                 sim::SimTime now) {
        if (now < next_report)
            return;
        next_report = now + sim::SimTime::hours(1.0);
        const double demand = cluster.totalVmDemandMhz();
        hourly.addRow(
            {stats::fmt(now.toHours(), 0),
             stats::fmtPercent(demand / cluster.totalCpuCapacityMhz(), 1),
             std::to_string(cluster.hostsOn()),
             std::to_string(cluster.hostsAsleep()),
             std::to_string(cluster.hostsTransitioning()),
             stats::fmt(cluster.totalPowerWatts(), 0),
             stats::fmt(demand / cap_mhz * peak_w, 0)});
    };

    const mgmt::ScenarioResult result = mgmt::runScenario(config);
    hourly.print(std::cout);

    std::printf("\n24 h totals: %.2f kWh (ideal proportional %.2f kWh), "
                "satisfaction %.2f%%,\n%llu migrations, %llu power actions, "
                "%.1f hosts on average\n",
                result.metrics.energyKwh, result.idealProportionalKwh,
                result.metrics.satisfaction * 100.0,
                static_cast<unsigned long long>(result.metrics.migrations),
                static_cast<unsigned long long>(
                    result.metrics.powerActions),
                result.metrics.averageHostsOn);
    return 0;
}
