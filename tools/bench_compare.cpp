/**
 * @file
 * bench_compare — diff two BENCH_*.json reports and gate on regressions.
 *
 * Usage:
 *     bench_compare <baseline.json> <candidate.json>
 *                   [--threshold-pct <p>] [--zone-threshold-pct <p>]
 *                   [--min-zone-ms <ms>] [--rss-threshold-pct <p>]
 *                   [--no-ci] [--advisory]
 *
 * Headline gating: when BOTH reports carry >= 3 measured runs, the wall
 * time is gated on 95% confidence-interval overlap (a regression needs
 * the candidate's CI to sit entirely above the baseline's), which is
 * robust to runner noise that a raw percentage threshold is not.
 * `--no-ci` forces the legacy median-vs-median percentage gate; reports
 * with fewer runs always use it.
 *
 * Exit codes: 0 no regression (or --advisory), 1 regression past a
 * threshold, 2 usage error, 3 unreadable/mismatched input. CI runs this
 * against the committed baselines in bench/baselines/ (advisory for now;
 * flip by dropping --advisory once runner noise is characterized).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "simcore/parse_number.hpp"
#include "telemetry/bench_report.hpp"

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: bench_compare <baseline.json> <candidate.json>\n"
        "       [--threshold-pct <p>]       headline wall/events gate "
        "(default 5)\n"
        "       [--zone-threshold-pct <p>]  per-zone exclusive-time gate "
        "(default 25)\n"
        "       [--min-zone-ms <ms>]        zone noise floor (default 1)\n"
        "       [--rss-threshold-pct <p>]   peak-RSS advisory threshold "
        "(default 10;\n"
        "                                   never fails the exit code)\n"
        "       [--no-ci]                   force the raw %% headline gate "
        "even\n"
        "                                   when both sides have >= 3 runs\n"
        "       [--advisory]                report but always exit 0\n"
        "       [--help]\n"
        "exit codes: 0 ok/advisory, 1 regression, 2 usage, 3 bad input\n");
}

bool
parseDouble(const char *text, double &out)
{
    const std::optional<double> parsed = vpm::sim::parseNumber(text);
    if (parsed)
        out = *parsed;
    return parsed.has_value();
}

bool
loadReport(const std::string &path, vpm::telemetry::BenchReport &report)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_compare: cannot open '%s'\n",
                     path.c_str());
        return false;
    }
    std::string error;
    if (!vpm::telemetry::readBenchJson(in, report, &error)) {
        std::fprintf(stderr, "bench_compare: '%s': %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vpm::telemetry;

    std::string base_path;
    std::string next_path;
    CompareOptions options;
    bool advisory = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_compare: %s needs a value\n",
                             flag);
                printUsage(stderr);
                std::exit(2);
            }
            return argv[++i];
        };

        if (arg == "--help") {
            printUsage(stdout);
            return 0;
        } else if (arg == "--advisory") {
            advisory = true;
        } else if (arg == "--no-ci") {
            options.ciGate = false;
        } else if (arg == "--threshold-pct") {
            if (!parseDouble(value("--threshold-pct"),
                             options.thresholdPct)) {
                std::fprintf(stderr,
                             "bench_compare: bad --threshold-pct value\n");
                return 2;
            }
        } else if (arg == "--zone-threshold-pct") {
            if (!parseDouble(value("--zone-threshold-pct"),
                             options.zoneThresholdPct)) {
                std::fprintf(
                    stderr,
                    "bench_compare: bad --zone-threshold-pct value\n");
                return 2;
            }
        } else if (arg == "--min-zone-ms") {
            if (!parseDouble(value("--min-zone-ms"), options.minZoneMs)) {
                std::fprintf(stderr,
                             "bench_compare: bad --min-zone-ms value\n");
                return 2;
            }
        } else if (arg == "--rss-threshold-pct") {
            if (!parseDouble(value("--rss-threshold-pct"),
                             options.rssThresholdPct)) {
                std::fprintf(
                    stderr,
                    "bench_compare: bad --rss-threshold-pct value\n");
                return 2;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "bench_compare: unknown option '%s'\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        } else if (base_path.empty()) {
            base_path = arg;
        } else if (next_path.empty()) {
            next_path = arg;
        } else {
            std::fprintf(stderr, "bench_compare: unexpected argument '%s'\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (base_path.empty() || next_path.empty()) {
        printUsage(stderr);
        return 2;
    }

    BenchReport base;
    BenchReport next;
    if (!loadReport(base_path, base) || !loadReport(next_path, next))
        return 3;

    const CompareResult result = compareBenchReports(base, next, options);
    if (!result.comparable) {
        std::fprintf(stderr, "bench_compare: %s\n", result.error.c_str());
        return 3;
    }

    writeComparison(base, next, options, result, std::cout);
    if (result.regressed() && advisory) {
        std::printf("(advisory mode: exiting 0 despite regression)\n");
        return 0;
    }
    return result.regressed() ? 1 : 0;
}
