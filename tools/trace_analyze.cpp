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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "simcore/parse_number.hpp"
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

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(stdout);
            std::exit(0);
        }
        if (std::strcmp(argv[i], "--version") == 0) {
            std::printf("trace_analyze (vpm) journal schema 1\n");
            std::exit(0);
        }
    }
    if (argc < 2)
        return false;
    if (argv[1][0] == '-') {
        std::fprintf(stderr, "trace_analyze: unknown option '%s'\n", argv[1]);
        return false;
    }
    opts.path = argv[1];

    const auto needValue = [&](int i) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "trace_analyze: %s needs a value\n",
                         argv[i]);
            return false;
        }
        return true;
    };
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            opts.check = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opts.quiet = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            if (!needValue(i))
                return false;
            opts.jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--tolerance-us") == 0) {
            // Strict whole-token parse: "--tolerance-us bogus" used to
            // strtoll() to 0 and silently tighten the sum check.
            if (!needValue(i))
                return false;
            const char *text = argv[++i];
            const std::optional<long long> parsed =
                vpm::sim::parseInteger(text, 0);
            if (!parsed) {
                std::fprintf(stderr,
                             "trace_analyze: --tolerance-us wants an "
                             "integer >= 0, got '%s'\n",
                             text);
                return false;
            }
            opts.analyzer.toleranceUs = *parsed;
        } else if (std::strcmp(argv[i], "--respread-window-s") == 0) {
            if (!needValue(i))
                return false;
            const char *text = argv[++i];
            const std::optional<double> parsed =
                vpm::sim::parseNumber(text, 0.0);
            if (!parsed) {
                std::fprintf(stderr,
                             "trace_analyze: --respread-window-s wants a "
                             "number >= 0, got '%s'\n",
                             text);
                return false;
            }
            opts.analyzer.respreadWindowS = *parsed;
        } else {
            std::fprintf(stderr, "trace_analyze: unknown option '%s'\n",
                         argv[i]);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage(stderr);
        return 2;
    }

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
