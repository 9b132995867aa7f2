/**
 * @file
 * sweep_compare — diff two vpm-sweep-1 matrices and gate on regressions.
 *
 * Usage:
 *     sweep_compare <baseline.json> <candidate.json> [--advisory]
 *
 * The gate is statistical, not a threshold: a per-cell metric counts as
 * a regression only when it moved in the worse direction AND its 95%
 * confidence intervals do not overlap the baseline's — runner noise
 * inside the intervals never trips it. Gated metrics are the
 * deterministic policy outcomes (energy_j, sla_violation_pct,
 * wake_p99_s); wall-clock metrics are machine-dependent and are never
 * gated. Candidate cells that failed or timed out gate unconditionally.
 *
 * Exit codes: 0 no regression (or --advisory), 1 regression or unhealthy
 * candidate cell, 2 usage error, 3 unreadable/mismatched input.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "simcore/flag_parser.hpp"
#include "telemetry/sweep_matrix.hpp"

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: sweep_compare <baseline.json> <candidate.json>\n"
        "       [--advisory]   report but always exit 0\n"
        "       [--help]\n"
        "exit codes: 0 ok/advisory, 1 regression, 2 usage, 3 bad input\n");
}

bool
loadMatrix(const std::string &path, vpm::telemetry::SweepMatrix &matrix)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "sweep_compare: cannot open '%s'\n",
                     path.c_str());
        return false;
    }
    std::string error;
    if (!vpm::telemetry::readSweepJson(in, matrix, &error)) {
        std::fprintf(stderr, "sweep_compare: '%s': %s\n", path.c_str(),
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
    bool advisory = false;

    vpm::sim::FlagParser("sweep_compare", printUsage)
        .operand("baseline.json", base_path)
        .operand("candidate.json", next_path)
        .flag("--advisory", advisory)
        .parseOrExit(argc, argv);

    SweepMatrix base;
    SweepMatrix next;
    if (!loadMatrix(base_path, base) || !loadMatrix(next_path, next))
        return 3;

    const SweepCompareOptions options;
    const SweepCompareResult result =
        compareSweepMatrices(base, next, options);
    if (!result.comparable) {
        std::fprintf(stderr, "sweep_compare: %s\n", result.error.c_str());
        return 3;
    }

    writeSweepComparison(base, next, result, std::cout);
    if (result.regressed() && advisory) {
        std::printf("(advisory mode: exiting 0 despite regression)\n");
        return 0;
    }
    return result.regressed() ? 1 : 0;
}
