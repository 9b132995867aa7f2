/**
 * @file
 * vpm_sim — command-line experiment runner.
 *
 * One binary to run any scenario the library supports without writing
 * C++: pick a policy, cluster size, workload shape and duration; get the
 * run metrics on stdout and, optionally, a per-minute time series as CSV
 * for plotting.
 *
 * Examples:
 *   vpm_sim --policy s3 --hosts 16 --vms 80 --hours 48
 *   vpm_sim --policy s5 --load-scale 0.5 --seed 7 --csv run.csv
 *   vpm_sim --policy s3 --churn 6 --dvfs --hours 24
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "core/scenario.hpp"
#include "power/spec_file.hpp"
#include "simcore/flag_parser.hpp"
#include "simcore/thread_pool.hpp"
#include "stats/table.hpp"
#include "telemetry/sink_flags.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace vpm;

struct Options
{
    mgmt::PolicyKind policy = mgmt::PolicyKind::PmS3;
    int hosts = 8;
    int vms = 40;
    double hours = 24.0;
    double loadScale = 1.0;
    std::uint64_t seed = 42;
    double managerMinutes = 5.0;
    double churnPerHour = 0.0;
    bool dvfs = false;
    bool legacyMix = false;
    double weekendFactor = 1.0;
    int threads = 1;
    std::string csvPath;
    std::string specPath;
    std::string timeseriesPath;
    std::string watchdogPath;
};

void
printUsage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --policy <nopm|drm|s5|s3|adaptive>   management policy "
        "(default s3)\n"
        "  --hosts <n>           cluster size (default 8)\n"
        "  --vms <n>             static fleet size (default 40)\n"
        "  --hours <h>           simulated duration (default 24)\n"
        "  --load-scale <x>      workload intensity multiplier "
        "(default 1.0)\n"
        "  --seed <n>            workload seed (default 42)\n"
        "  --period <min>        manager period in minutes (default 5)\n"
        "  --churn <rate>        VM arrivals per hour (default 0 = off)\n"
        "  --dvfs                enable the DVFS governor\n"
        "  --legacy-mix          half the hosts are 2009-class servers\n"
        "  --weekend <factor>    weekend demand multiplier for diurnal "
        "VMs\n"
        "  --spec <path>         host power-spec file (see "
        "power/spec_file.hpp)\n"
        "  --threads <n>         evaluation worker threads (default 1; "
        "results\n"
        "                        are bit-identical at any value)\n"
        "  --csv <path>          write a per-minute time series CSV\n"
        "  --timeseries <path>   write a compressed vpm-ts-1 snapshot\n"
        "                        (+ <path>.prom), refreshed periodically;\n"
        "                        inspect with vpm_top\n"
        "  --watchdog <rules>    JSON watchdog rules evaluated as buckets\n"
        "                        seal (implies --timeseries store)\n"
        "  --help                this text\n",
        argv0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    sim::FlagParser flags("vpm_sim", [argv0 = argv[0]](std::FILE *out) {
        printUsage(argv0, out);
    });
    flags.helpAlias("-h")
        .choice("--policy", opts.policy,
                {{"nopm", mgmt::PolicyKind::NoPM},
                 {"drm", mgmt::PolicyKind::DrmOnly},
                 {"s5", mgmt::PolicyKind::PmS5},
                 {"s3", mgmt::PolicyKind::PmS3},
                 {"adaptive", mgmt::PolicyKind::PmAdaptive}})
        .flag("--hosts", opts.hosts, 1)
        .flag("--vms", opts.vms, 0)
        .flag("--hours", opts.hours, 1e-9)
        .flag("--load-scale", opts.loadScale, 0.0)
        .flag("--seed", opts.seed, 0)
        .flag("--period", opts.managerMinutes, 1.0)
        .flag("--churn", opts.churnPerHour, 0.0)
        .flag("--dvfs", opts.dvfs)
        .flag("--legacy-mix", opts.legacyMix)
        .flag("--weekend", opts.weekendFactor, 0.0)
        .threads("--threads", opts.threads)
        .flag("--csv", opts.csvPath)
        .flag("--spec", opts.specPath)
        .flag("--timeseries", opts.timeseriesPath)
        .flag("--watchdog", opts.watchdogPath)
        .parseOrExit(argc, argv);

    // Live telemetry: enable the downsampling store (and watchdog rules)
    // before any simulator objects exist, like the benches do.
    std::string error;
    if (!telemetry::configureGlobalSinks({}, opts.timeseriesPath,
                                         opts.watchdogPath, &error))
        flags.fail(error);
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    sim::setGlobalThreads(static_cast<unsigned>(opts.threads));

    mgmt::ScenarioConfig config;
    config.hostCount = opts.hosts;
    config.vmCount = opts.vms;
    config.duration = sim::SimTime::hours(opts.hours);
    config.mix.loadScale = opts.loadScale;
    config.mix.weekendFactor = opts.weekendFactor;
    config.seed = opts.seed;
    config.manager = mgmt::makePolicy(opts.policy);
    config.manager.period = sim::SimTime::minutes(opts.managerMinutes);
    if (!opts.specPath.empty())
        config.powerSpec = power::loadHostSpec(opts.specPath);
    if (opts.legacyMix) {
        config.heterogeneousSpecs = {power::enterpriseBlade2013(),
                                     power::legacyServer2009()};
        config.manager.heterogeneityAware = true;
    }
    if (opts.churnPerHour > 0.0) {
        dc::ProvisioningConfig churn;
        churn.arrivalsPerHour = opts.churnPerHour;
        churn.mix.loadScale = opts.loadScale;
        config.provisioning = churn;
    }
    if (opts.dvfs)
        config.dvfs = mgmt::DvfsConfig{};

    stats::Table series("time series",
                        {"minute", "load", "hosts_on", "asleep",
                         "cluster_w"});
    if (!opts.csvPath.empty()) {
        config.evaluationProbe = [&](const dc::Cluster &cluster,
                                     sim::SimTime now) {
            series.addRow(
                {stats::fmt(now.toMinutes(), 0),
                 stats::fmt(cluster.totalVmDemandMhz() /
                            cluster.totalCpuCapacityMhz(), 4),
                 std::to_string(cluster.hostsOn()),
                 std::to_string(cluster.hostsAsleep()),
                 stats::fmt(cluster.totalPowerWatts(), 1)});
        };
    }

    const mgmt::ScenarioResult result = mgmt::runScenario(config);

    stats::Table summary("vpm_sim: " + std::string(toString(opts.policy)),
                         {"metric", "value"});
    summary.addRow({"simulated hours",
                    stats::fmt(result.metrics.simulatedHours, 1)});
    summary.addRow({"offered load",
                    stats::fmtPercent(result.offeredLoadFraction, 1)});
    summary.addRow({"energy kWh", stats::fmt(result.metrics.energyKwh)});
    summary.addRow({"ideal proportional kWh",
                    stats::fmt(result.idealProportionalKwh)});
    summary.addRow({"mean power W",
                    stats::fmt(result.metrics.averagePowerWatts, 0)});
    summary.addRow({"satisfaction",
                    stats::fmtPercent(result.metrics.satisfaction, 2)});
    summary.addRow({"SLA violations",
                    stats::fmtPercent(result.metrics.violationFraction,
                                      2)});
    summary.addRow({"avg hosts on",
                    stats::fmt(result.metrics.averageHostsOn, 1)});
    summary.addRow({"migrations",
                    std::to_string(result.metrics.migrations)});
    summary.addRow({"power actions",
                    std::to_string(result.metrics.powerActions)});
    if (opts.churnPerHour > 0.0) {
        summary.addRow({"VM arrivals",
                        std::to_string(result.vmArrivals)});
        summary.addRow({"mean placement wait s",
                        stats::fmt(result.meanPlacementDelaySeconds, 1)});
    }
    if (opts.dvfs) {
        summary.addRow({"frequency changes",
                        std::to_string(result.dvfsTransitions)});
    }
    summary.print(std::cout);

    if (!opts.csvPath.empty()) {
        series.writeCsv(opts.csvPath);
        std::printf("\ntime series written to %s (%zu rows)\n",
                    opts.csvPath.c_str(), series.rows());
    }

    if (!opts.timeseriesPath.empty()) {
        if (telemetry::global().writeSnapshotFiles()) {
            std::printf("\ntimeseries snapshot written: %s (+ .prom "
                        "text); inspect with vpm_top\n",
                        opts.timeseriesPath.c_str());
        } else {
            std::fprintf(stderr, "cannot write timeseries snapshot '%s'\n",
                         opts.timeseriesPath.c_str());
            return 1;
        }
        const std::uint64_t alerts =
            telemetry::global().watchdog().alertCount();
        if (alerts > 0)
            std::printf("watchdog: %llu alert(s) raised\n",
                        static_cast<unsigned long long>(alerts));
    }
    return 0;
}
