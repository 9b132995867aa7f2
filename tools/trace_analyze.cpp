/**
 * @file
 * trace_analyze — reconstruct causal chains from a telemetry journal dump.
 *
 * Input is the JSONL file produced by the benches' --trace flag. Using the
 * `cause` field stamped on every record, the tool links each wake decision
 * to its power transitions and respread migrations and prints the
 * wake-latency decomposition (wait / resume / respread, summing to the
 * end-to-end latency), per-sleep-decision energy attribution, and
 * SLA-violation charging. See telemetry/trace_analysis.hpp.
 *
 * Usage:
 *   trace_analyze <journal.jsonl> [options]
 *
 * Options:
 *   --json <path>           also write the analysis as JSON ('-' = stdout)
 *   --check                 exit 3 unless every wake chain is complete,
 *                           components sum to end-to-end latency, and all
 *                           SLA violations are attributed
 *   --tolerance-us <n>      sum-check tolerance in simulated us (default 1)
 *   --respread-window-s <x> inbound-migration window after On (default 180)
 *   --quiet                 suppress the human-readable tables
 *
 * Exit codes: 0 ok, 1 I/O error, 2 usage error, 3 --check failed.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "simcore/flag_parser.hpp"
#include "telemetry/trace_analysis.hpp"

namespace {

struct Options
{
    std::string path;
    std::string jsonPath;
    bool check = false;
    bool quiet = false;
    vpm::telemetry::AnalyzerOptions analyzer;
};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: trace_analyze <journal.jsonl> [--json <path>] [--check]\n"
        "                     [--tolerance-us <n>] [--respread-window-s "
        "<x>] [--quiet]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    vpm::sim::FlagParser("trace_analyze", usage)
        .version("trace_analyze (vpm) journal schema 1\n")
        .operand("journal.jsonl", opts.path)
        .flag("--json", opts.jsonPath)
        .flag("--check", opts.check)
        .flag("--tolerance-us", opts.analyzer.toleranceUs, 0)
        .flag("--respread-window-s", opts.analyzer.respreadWindowS, 0.0)
        .flag("--quiet", opts.quiet)
        .parseOrExit(argc, argv);

    std::ifstream in(opts.path);
    if (!in) {
        std::fprintf(stderr, "trace_analyze: cannot open '%s'\n",
                     opts.path.c_str());
        return 1;
    }

    const auto records = vpm::telemetry::readJournalFile(in);
    const auto analysis = vpm::telemetry::analyzeTrace(records, opts.analyzer);

    if (!opts.quiet)
        vpm::telemetry::writeAnalysisText(analysis, std::cout);

    if (!opts.jsonPath.empty()) {
        if (opts.jsonPath == "-") {
            vpm::telemetry::writeAnalysisJson(analysis, std::cout);
        } else {
            std::ofstream out(opts.jsonPath);
            if (!out) {
                std::fprintf(stderr, "trace_analyze: cannot write '%s'\n",
                             opts.jsonPath.c_str());
                return 1;
            }
            vpm::telemetry::writeAnalysisJson(analysis, out);
        }
    }

    if (opts.check) {
        std::string why;
        if (!vpm::telemetry::analysisPassesChecks(analysis, opts.analyzer,
                                                  &why)) {
            std::fprintf(stderr, "trace_analyze: CHECK FAILED: %s\n",
                         why.c_str());
            return 3;
        }
        std::fprintf(stderr, "trace_analyze: all checks passed (%zu wake "
                             "chains, %llu violations attributed)\n",
                     analysis.wakes.size(),
                     static_cast<unsigned long long>(
                         analysis.violationsAttributed));
    }
    return 0;
}
