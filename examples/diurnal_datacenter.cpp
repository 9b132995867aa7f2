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

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "core/scenario.hpp"
#include "simcore/parse_number.hpp"
#include "stats/table.hpp"

namespace {

vpm::mgmt::PolicyKind
parsePolicy(const char *name)
{
    using vpm::mgmt::PolicyKind;
    if (std::strcmp(name, "nopm") == 0)
        return PolicyKind::NoPM;
    if (std::strcmp(name, "drm") == 0)
        return PolicyKind::DrmOnly;
    if (std::strcmp(name, "s5") == 0)
        return PolicyKind::PmS5;
    if (std::strcmp(name, "s3") == 0)
        return PolicyKind::PmS3;
    if (std::strcmp(name, "adaptive") == 0)
        return PolicyKind::PmAdaptive;
    std::fprintf(stderr, "unknown policy '%s' "
                         "(nopm|drm|s5|s3|adaptive)\n", name);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vpm;

    int hosts = 8;
    int vms = 40;
    mgmt::PolicyKind policy = mgmt::PolicyKind::PmS3;
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
    if (argc > 4 || !count(1, 1, hosts) || !count(2, 0, vms)) {
        std::fprintf(stderr, "usage: %s [hosts >= 1] [vms >= 0] [policy]\n",
                     argv[0]);
        return 2;
    }
    if (argc > 3)
        policy = parsePolicy(argv[3]);

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
