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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "simcore/parse_number.hpp"
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

int
parseIntArg(const char *flag, const char *text, int min)
{
    const std::optional<long long> parsed =
        vpm::sim::parseInteger(text, min, INT_MAX);
    if (!parsed) {
        std::fprintf(stderr, "sweep: %s wants an integer >= %d, got '%s'\n",
                     flag, min, text);
        printUsage(stderr);
        std::exit(2);
    }
    return static_cast<int>(*parsed);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vpm;

    std::string manifest_path;
    sweep::RunOptions options;
    options.selfExe = argc > 0 ? argv[0] : "";
    bool list_only = false;
    long long cell_index = -1;
    std::string cell_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "sweep: %s needs a value\n", flag);
                printUsage(stderr);
                std::exit(2);
            }
            return argv[++i];
        };

        if (arg == "--help") {
            printUsage(stdout);
            return 0;
        } else if (arg == "--out") {
            options.outDir = value("--out");
        } else if (arg == "--threads") {
            options.threads = parseIntArg("--threads", value("--threads"), 1);
        } else if (arg == "--repeats") {
            options.repeatsOverride =
                parseIntArg("--repeats", value("--repeats"), 1);
        } else if (arg == "--exec") {
            const std::string mode = value("--exec");
            if (mode == "inproc") {
                options.exec = sweep::ExecMode::InProc;
            } else if (mode == "process") {
                options.exec = sweep::ExecMode::Process;
            } else {
                std::fprintf(stderr,
                             "sweep: --exec wants inproc|process, got "
                             "'%s'\n",
                             mode.c_str());
                printUsage(stderr);
                return 2;
            }
        } else if (arg == "--timeout-s") {
            const std::optional<double> timeout_s =
                sim::parseNumber(value("--timeout-s"), 0.0);
            if (!timeout_s) {
                std::fprintf(stderr, "sweep: bad --timeout-s value\n");
                return 2;
            }
            options.timeoutS = *timeout_s;
        } else if (arg == "--resume") {
            options.resume = true;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--cell") {
            cell_index = parseIntArg("--cell", value("--cell"), 0);
        } else if (arg == "--cell-out") {
            cell_out = value("--cell-out");
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "sweep: unknown option '%s'\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        } else if (manifest_path.empty()) {
            manifest_path = arg;
        } else {
            std::fprintf(stderr, "sweep: unexpected argument '%s'\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (manifest_path.empty()) {
        printUsage(stderr);
        return 2;
    }
    options.manifestPath = manifest_path;

    std::ifstream manifest_in(manifest_path);
    if (!manifest_in) {
        std::fprintf(stderr, "sweep: cannot open manifest '%s'\n",
                     manifest_path.c_str());
        return 3;
    }
    sweep::SweepManifest manifest;
    std::string error;
    if (!sweep::parseManifest(manifest_in, manifest, &error)) {
        std::fprintf(stderr, "sweep: '%s': %s\n", manifest_path.c_str(),
                     error.c_str());
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
        if (cell_out.empty()) {
            std::fprintf(stderr, "sweep: --cell needs --cell-out\n");
            return 2;
        }
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

    if (options.outDir.empty()) {
        std::fprintf(stderr, "sweep: --out is required\n");
        printUsage(stderr);
        return 2;
    }

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
