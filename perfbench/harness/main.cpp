/**
 * @file
 * vpm_perfbench: runs one benchmark workload once and prints one JSON
 * line with its set-up and run times, peak RSS, policy outcome, outcome
 * digest and invariant violations. perfbench/run.py drives it.
 *
 *   vpm_perfbench run --workload <fleet_day|replay_day|consolidation>
 *                     --seed <n> [--trace-file <path>] [--watchdog <path>]
 *                     [--snapshot <path>] [--no-telemetry]
 *                     [--traced --spans <path> --run-id <n>]
 *   vpm_perfbench gen-trace --out <path> --seed <n>
 *   vpm_perfbench reference
 *
 * The evaluation pool keeps its default of one thread. Without --traced
 * no span is recorded and the libraries run exactly as a plain build
 * does: the self-profiler stays off. --traced adds the per-layer metrics
 * ("layers") and writes the spans to --spans at exit, each stamped with
 * --run-id (default 0), which tells the runs of one set apart.
 *
 * `vpm_perfbench reference` prints the seconds of one run of the
 * reference kernel (reference_kernel.hpp). It runs in its own process so
 * its buffer never counts toward a workload's peak RSS.
 */

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "telemetry/profiler.hpp"
#include "reference_kernel.hpp"
#include "workloads.hpp"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: vpm_perfbench run --workload <name> --seed <n>\n"
        "           [--trace-file <path>] [--watchdog <path>] "
        "[--snapshot <path>] [--no-telemetry]\n"
        "           [--traced --spans <path> --run-id <n>]\n"
        "       vpm_perfbench gen-trace --out <path> --seed <n>\n"
        "       vpm_perfbench reference\n");
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text, std::uint64_t min)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
        parsed < min) {
        std::fprintf(stderr, "vpm_perfbench: %s wants an integer >= %" PRIu64
                             ", got '%s'\n",
                     flag, min, text);
        usage();
    }
    return parsed;
}

void
printNumberMap(const char *key, const std::map<std::string, double> &map)
{
    std::printf(",\"%s\":{", key);
    bool first = true;
    for (const auto &[name, value] : map) {
        std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
        first = false;
    }
    std::printf("}");
}

int
runCommand(int argc, char **argv)
{
    perfbench::WorkloadOptions options;
    perfbench::Workload workload = perfbench::Workload::FleetDay;
    bool have_workload = false;
    bool have_seed = false;
    bool traced = false;
    std::uint64_t run_id = 0;
    std::string spans_path;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload") {
            have_workload = perfbench::parseWorkload(value(), workload);
            if (!have_workload)
                usage();
        } else if (arg == "--seed") {
            options.seed = parseCount("--seed", value(), 0);
            have_seed = true;
        } else if (arg == "--trace-file") {
            options.tracePath = value();
        } else if (arg == "--watchdog") {
            options.watchdogPath = value();
        } else if (arg == "--snapshot") {
            options.snapshotPath = value();
        } else if (arg == "--no-telemetry") {
            options.telemetry = false;
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--spans") {
            spans_path = value();
        } else if (arg == "--run-id") {
            run_id = parseCount("--run-id", value(), 0);
        } else {
            usage();
        }
    }
    if (!have_workload || !have_seed)
        usage();
    perfbench::SpanRecorder recorder(run_id);
    perfbench::RunReport report = perfbench::runWorkload(
        workload, options, traced ? &recorder : nullptr);
    if (traced && !spans_path.empty() && !recorder.write(spans_path))
        report.violations.push_back("cannot write spans to '" + spans_path +
                                    "'");
    const double peak_rss_mb =
        static_cast<double>(vpm::telemetry::Profiler::peakRssKb()) / 1024.0;

    const vpm::dc::RunMetrics &m = report.result.metrics;
    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"traced\":%s,\"telemetry\":%s",
                perfbench::workloadName(workload), options.seed,
                traced ? "true" : "false",
                options.telemetry ? "true" : "false");
    std::printf(",\"setup_s\":%.17g,\"run_s\":%.17g,\"peak_rss_mb\":%.17g",
                report.setupS, report.runS,
                peak_rss_mb);
    std::printf(",\"energy_kwh\":%.17g,\"sla_viol_pct\":%.17g,"
                "\"satisfaction\":%.17g,\"events\":%" PRIu64
                ",\"digest\":\"%016" PRIx64 "\"",
                m.energyKwh, 100.0 * m.violationFraction, m.satisfaction,
                report.result.eventsProcessed,
                perfbench::outcomeDigest(report.result));
    std::printf(",\"violations\":[");
    for (std::size_t i = 0; i < report.violations.size(); ++i) {
        std::string text;
        for (const char c : report.violations[i])
            text += (c == '"' || c == '\\') ? '\'' : c;
        std::printf("%s\"%s\"", i ? "," : "", text.c_str());
    }
    std::printf("]");
    printNumberMap("facts", report.facts);
    printNumberMap("layers", report.layers);
    std::printf("}\n");
    return 0;
}

int
genTraceCommand(int argc, char **argv)
{
    std::string out;
    std::uint64_t seed = 0;
    bool have_seed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        if (arg == "--out") {
            out = argv[++i];
        } else if (arg == "--seed") {
            seed = parseCount("--seed", argv[++i], 0);
            have_seed = true;
        } else {
            usage();
        }
    }
    if (out.empty() || !have_seed)
        usage();
    std::string error;
    if (!perfbench::generateReplayTrace(
            out, perfbench::kReplayDayVms, seed, &error)) {
        std::fprintf(stderr, "vpm_perfbench gen-trace: %s\n", error.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string command = argv[1];
    if (command == "run")
        return runCommand(argc, argv);
    if (command == "gen-trace")
        return genTraceCommand(argc, argv);
    if (command == "reference" && argc == 2) {
        std::printf("%.17g\n", perfbench::referenceKernelSeconds());
        return 0;
    }
    usage();
}
