/**
 * @file
 * sweep — the multi-config evidence engine: expand a declarative grid
 * manifest, run every cell (concurrently, resumably), and emit the
 * vpm-sweep-1 matrix plus deterministic reports.
 *
 * Usage:
 *     sweep <manifest.json> --out <dir>
 *           [--threads <n>]        concurrent cells (default 1)
 *           [--repeats <n>]        override the manifest's repeat count
 *           [--exec inproc|process] cell execution mode (default inproc)
 *           [--timeout-s <s>]      per-cell kill timer (process mode)
 *           [--resume]             reuse finished cells in <dir>/cells/
 *           [--list]               print the expanded grid and exit
 *
 * Internal (child-process protocol; used by --exec process):
 *     sweep <manifest.json> --cell <index> --cell-out <path>
 *           [--repeats <n>]
 *
 * Artifacts in --out: matrix.json (vpm-sweep-1), report.txt (policy
 * table + Pareto frontier), report.csv, cells/cell_<index>.json.
 * Everything except the wall-clock metrics inside matrix.json is
 * byte-identical at any --threads value.
 *
 * Exit codes: 0 all cells ok, 1 some cells failed/timed out, 2 usage
 * error, 3 unreadable manifest / unusable environment.
 */

#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "simcore/flag_parser.hpp"
#include "sweep/manifest.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "telemetry/sweep_matrix.hpp"

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: sweep <manifest.json> --out <dir> [--threads <n>]\n"
        "       [--repeats <n>] [--exec inproc|process] [--timeout-s <s>]\n"
        "       [--resume] [--list] [--help]\n"
        "internal: sweep <manifest.json> --cell <i> --cell-out <path>\n"
        "exit codes: 0 ok, 1 cells failed, 2 usage, 3 bad input\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vpm;

    sweep::RunOptions options;
    options.selfExe = argc > 0 ? argv[0] : "";
    bool list_only = false;
    long long cell_index = -1;
    std::string cell_out;

    sim::FlagParser flags("sweep", printUsage);
    flags.operand("manifest.json", options.manifestPath)
        .flag("--out", options.outDir)
        .threads("--threads", options.threads)
        .flag("--repeats", options.repeatsOverride, 1)
        .choice("--exec", options.exec,
                {{"inproc", sweep::ExecMode::InProc},
                 {"process", sweep::ExecMode::Process}})
        .flag("--timeout-s", options.timeoutS, 0.0)
        .flag("--resume", options.resume)
        .flag("--list", list_only)
        .flag("--cell", cell_index, 0, INT_MAX)
        .flag("--cell-out", cell_out)
        .parseOrExit(argc, argv);

    std::ifstream manifest_in(options.manifestPath);
    if (!manifest_in) {
        std::fprintf(stderr, "sweep: cannot open manifest '%s'\n",
                     options.manifestPath.c_str());
        return 3;
    }
    sweep::SweepManifest manifest;
    std::string error;
    if (!sweep::parseManifest(manifest_in, manifest, &error)) {
        std::fprintf(stderr, "sweep: '%s': %s\n",
                     options.manifestPath.c_str(), error.c_str());
        return 3;
    }
    const std::vector<sweep::CellSpec> cells = sweep::expandGrid(manifest);

    if (list_only) {
        std::printf("sweep '%s': %zu cells, %zu seed(s), %d repeat(s)\n",
                    manifest.name.c_str(), cells.size(),
                    manifest.seeds.size(), manifest.repeats);
        for (const sweep::CellSpec &cell : cells)
            std::printf("  [%llu] %s\n",
                        static_cast<unsigned long long>(cell.index),
                        cell.id.c_str());
        return 0;
    }

    // Child-process protocol: run exactly one cell, write it, exit.
    if (cell_index >= 0) {
        if (cell_out.empty())
            flags.fail("--cell needs --cell-out");
        if (static_cast<std::size_t>(cell_index) >= cells.size()) {
            std::fprintf(stderr, "sweep: --cell %lld out of range (%zu "
                         "cells)\n", cell_index, cells.size());
            return 2;
        }
        const int repeats = options.repeatsOverride > 0
                                ? options.repeatsOverride
                                : manifest.repeats;
        const vpm::telemetry::SweepCell cell = sweep::runCell(
            manifest, cells[static_cast<std::size_t>(cell_index)], repeats);
        std::ofstream out(cell_out);
        if (!out) {
            std::fprintf(stderr, "sweep: cannot write '%s'\n",
                         cell_out.c_str());
            return 3;
        }
        vpm::telemetry::writeCellJson(cell, out);
        return 0;
    }

    if (options.outDir.empty())
        flags.fail("--out is required");

    telemetry::SweepMatrix matrix;
    if (!sweep::runSweep(manifest, cells, options, matrix, std::cerr,
                         &error)) {
        std::fprintf(stderr, "sweep: %s\n", error.c_str());
        return 3;
    }

    {
        std::ofstream out(options.outDir + "/matrix.json");
        telemetry::writeSweepJson(matrix, out);
    }
    const sweep::ParetoReport pareto = sweep::paretoFrontier(matrix);
    {
        std::ofstream out(options.outDir + "/report.txt");
        sweep::writePolicyTable(matrix, out);
        out << "\n";
        sweep::writeParetoText(pareto, out);
    }
    {
        std::ofstream out(options.outDir + "/report.csv");
        sweep::writePolicyCsv(matrix, out);
    }

    std::size_t failed = 0;
    for (const telemetry::SweepCell &cell : matrix.cells)
        if (cell.status != telemetry::CellStatus::Ok)
            ++failed;
    std::printf("sweep '%s': %zu cells (%zu failed) -> %s/matrix.json, "
                "report.txt, report.csv\n",
                manifest.name.c_str(), matrix.cells.size(), failed,
                options.outDir.c_str());
    return failed > 0 ? 1 : 0;
}
