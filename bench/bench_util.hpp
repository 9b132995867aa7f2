/**
 * @file
 * Shared infrastructure for the experiment benches: the one arg parser
 * every bench uses (no more per-bench flag drift), the banner, standard
 * policy rows, per-policy trace hooks, and the measurement harness behind
 * `--profile` / `--bench-json` / `--repeat` / `--warmup`.
 *
 * Flags (every bench accepts all of them):
 *   --quick                CI-sized scenario (benches that support it)
 *   --trace <path>         sim-time telemetry: Chrome trace + .jsonl/.csv
 *   --json <path>          policy-table results as machine-readable JSON
 *   --profile              wall-clock self-profile report on stdout
 *   --profile-trace <path> wall-clock Chrome trace (implies --profile)
 *   --bench-json <path>    measured BENCH_*.json (median-of-N harness;
 *                          defaults to --repeat 5 --warmup 1 and implies
 *                          profiling so the report carries zone times)
 *   --repeat <n>           measured repetitions (default 1; 5 under
 *                          --bench-json)
 *   --warmup <n>           unmeasured warmup runs (default 0; 1 under
 *                          --bench-json)
 *   --threads <n>          evaluation worker threads (default 1, at most
 *                          sim::kMaxThreads); results are bit-identical
 *                          at any value
 *   --timeseries <path>    compressed vpm-ts-1 snapshot of the downsampling
 *                          store (+ <path>.prom Prometheus text), refreshed
 *                          periodically and finalized at exit; inspect with
 *                          tools/vpm_top
 *   --watchdog <rules>     JSON watchdog rules evaluated as buckets seal
 *                          (implies the time-series store); alerts land in
 *                          the journal as `alert` records
 *   --hosts <n>            fleet-size override for benches that honor it
 *                          (f7, f12): one run at this host count instead
 *                          of the built-in size sweep
 *   --vms <n>              VM-count override, normally paired with --hosts
 *   --help                 usage; unknown flags print usage and exit 2
 */

#ifndef VPM_BENCH_BENCH_UTIL_HPP
#define VPM_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "core/scenario.hpp"
#include "simcore/flag_parser.hpp"
#include "simcore/thread_pool.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sink_flags.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_analysis.hpp"

namespace vpm::bench {

/** Everything the shared flag parser can produce. */
struct BenchArgs
{
    std::string benchId;
    bool quick = false;
    bool profile = false;
    std::string tracePath;        ///< --trace (sim-time telemetry)
    std::string jsonPath;         ///< --json (policy-table report)
    std::string benchJsonPath;    ///< --bench-json (measured harness)
    std::string profileTracePath; ///< --profile-trace (wall-clock trace)
    int repeat = 1;
    int warmup = 0;
    int threads = 1; ///< --threads (evaluation worker pool size)
    std::string timeseriesPath; ///< --timeseries (vpm-ts-1 snapshot)
    std::string watchdogPath;   ///< --watchdog (JSON rule file)

    /**
     * Fleet-size overrides (0 = use the bench's own defaults). Benches
     * that honor them (f7, f12) scale one run to the requested shape
     * instead of sweeping their built-in size list.
     */
    int hosts = 0; ///< --hosts
    int vms = 0;   ///< --vms
};

inline void
printUsage(const char *bench_id, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: bench_%s [--quick] [--trace <path>] [--json <path>]\n"
        "       [--profile] [--profile-trace <path>]\n"
        "       [--bench-json <path>] [--repeat <n>] [--warmup <n>]\n"
        "       [--threads <n>] [--timeseries <path>]\n"
        "       [--watchdog <rules.json>] [--hosts <n>] [--vms <n>]\n"
        "       [--help]\n",
        bench_id);
}

/**
 * The one flag parser all benches share (sim::FlagParser protocol).
 * Side effect: `--trace`, `--timeseries` and `--watchdog` switch the
 * global telemetry sink on BEFORE any simulator objects are built, and
 * `--threads` sizes the global pool.
 */
inline BenchArgs
parseArgs(const char *bench_id, int argc, char **argv)
{
    BenchArgs args;
    args.benchId = bench_id;
    sim::FlagParser flags(std::string("bench_") + bench_id,
                          [bench_id](std::FILE *out) {
                              printUsage(bench_id, out);
                          });
    flags.flag("--quick", args.quick)
        .flag("--profile", args.profile)
        .flag("--trace", args.tracePath)
        .flag("--timeseries", args.timeseriesPath)
        .flag("--watchdog", args.watchdogPath)
        .flag("--json", args.jsonPath)
        .flag("--bench-json", args.benchJsonPath)
        .flag("--profile-trace", args.profileTracePath)
        .flag("--repeat", args.repeat, 1)
        .flag("--warmup", args.warmup, 0)
        .threads("--threads", args.threads)
        .flag("--hosts", args.hosts, 1)
        .flag("--vms", args.vms, 1)
        .parseOrExit(argc, argv);

    if (flags.seen("--profile-trace"))
        args.profile = true;
    if (flags.seen("--threads"))
        sim::setGlobalThreads(static_cast<unsigned>(args.threads));
    // The measurement harness wants medians, not single shots.
    if (!args.benchJsonPath.empty()) {
        if (!flags.seen("--repeat"))
            args.repeat = 5;
        if (!flags.seen("--warmup"))
            args.warmup = 1;
    }
    std::string error;
    if (!telemetry::configureGlobalSinks(args.tracePath, args.timeseriesPath,
                                         args.watchdogPath, &error))
        flags.fail(error);
    return args;
}

/**
 * Redirect stdout to /dev/null for this scope. The harness mutes warmup
 * and repeat runs so a median-of-5 does not print five copies of every
 * table; the first measured run stays visible.
 */
class StdoutSilencer
{
  public:
    StdoutSilencer()
    {
#if !defined(_WIN32)
        std::cout.flush();
        std::fflush(stdout);
        saved_ = ::dup(1);
        devnull_ = ::open("/dev/null", O_WRONLY);
        if (saved_ >= 0 && devnull_ >= 0)
            ::dup2(devnull_, 1);
#endif
    }

    ~StdoutSilencer()
    {
#if !defined(_WIN32)
        std::cout.flush();
        std::fflush(stdout);
        if (saved_ >= 0) {
            ::dup2(saved_, 1);
            ::close(saved_);
        }
        if (devnull_ >= 0)
            ::close(devnull_);
#endif
    }

    StdoutSilencer(const StdoutSilencer &) = delete;
    StdoutSilencer &operator=(const StdoutSilencer &) = delete;

  private:
#if !defined(_WIN32)
    int saved_ = -1;
    int devnull_ = -1;
#endif
};

/** Flatten the profiler tree into path-keyed rows (preorder). */
inline void
collectZoneRows(const std::vector<telemetry::ZoneNode> &nodes,
                std::uint32_t index, const std::string &prefix,
                std::vector<telemetry::BenchZoneRow> &out)
{
    const telemetry::ZoneNode &node = nodes[index];
    const std::string path =
        prefix.empty() ? node.name : prefix + "/" + node.name;
    telemetry::BenchZoneRow row;
    row.path = path;
    row.name = node.name;
    row.calls = node.calls;
    row.inclMs = static_cast<double>(node.inclusiveNs) / 1e6;
    row.exclMs = static_cast<double>(node.exclusiveNs()) / 1e6;
    out.push_back(std::move(row));
    for (const std::uint32_t child : node.children)
        collectZoneRows(nodes, child, path, out);
}

/**
 * The measurement harness every bench main is wrapped in. Plain runs
 * (no --profile / --bench-json) execute @p body once with zero overhead
 * beyond the disabled-profiler branches. With profiling/measuring on:
 * warmup runs (muted), then --repeat measured runs (first one visible),
 * each under a root "bench" zone with wall-clock and dispatched-event
 * deltas recorded; then the BENCH_*.json report (median-of-N), the
 * self-profile text report, and the wall-clock Chrome trace, as requested.
 */
/** Final --timeseries snapshot write: a complete whole-store dump at
 *  process end (the periodic refreshes may have stopped mid-run). */
inline void
finishTimeseries(const BenchArgs &args)
{
    if (args.timeseriesPath.empty())
        return;
    if (telemetry::global().writeSnapshotFiles()) {
        std::printf("\ntimeseries snapshot written: %s (+ .prom text); "
                    "inspect with vpm_top\n", args.timeseriesPath.c_str());
    } else {
        std::fprintf(stderr, "cannot write timeseries snapshot '%s'\n",
                     args.timeseriesPath.c_str());
    }
}

inline int
runBench(const BenchArgs &args, const std::function<void()> &body)
{
    const bool measuring = !args.benchJsonPath.empty();
    if (!measuring && !args.profile && args.repeat == 1 &&
        args.warmup == 0) {
        body();
        finishTimeseries(args);
        return 0;
    }

    telemetry::Profiler &prof = telemetry::Profiler::instance();
    prof.setEnabled(true);

    for (int i = 0; i < args.warmup; ++i) {
        std::fprintf(stderr, "[bench_%s] warmup %d/%d\n",
                     args.benchId.c_str(), i + 1, args.warmup);
        StdoutSilencer mute;
        body();
    }

    telemetry::Counter &dispatched =
        telemetry::global().metrics().counter("sim.events.dispatched");

    std::vector<telemetry::BenchRun> runs;
    std::vector<std::vector<telemetry::BenchZoneRow>> zone_tables;
    for (int i = 0; i < args.repeat; ++i) {
        if (args.repeat > 1)
            std::fprintf(stderr, "[bench_%s] run %d/%d\n",
                         args.benchId.c_str(), i + 1, args.repeat);
        prof.reset();
        const std::uint64_t events_before = dispatched.value();
        std::optional<StdoutSilencer> mute;
        if (i > 0)
            mute.emplace(); // humans want one copy of the tables
        const std::uint64_t t0 = telemetry::Profiler::nowNs();
        {
            telemetry::ProfileScope root("bench");
            body();
        }
        const std::uint64_t t1 = telemetry::Profiler::nowNs();
        mute.reset();

        telemetry::BenchRun run;
        run.wallMs = static_cast<double>(t1 - t0) / 1e6;
        run.events = dispatched.value() - events_before;
        runs.push_back(run);
        std::vector<telemetry::BenchZoneRow> rows;
        const std::vector<telemetry::ZoneNode> merged = prof.mergedNodes();
        for (const std::uint32_t child : merged[0].children)
            collectZoneRows(merged, child, "", rows);
        zone_tables.push_back(std::move(rows));
    }

    std::vector<double> walls;
    for (const telemetry::BenchRun &run : runs)
        walls.push_back(run.wallMs);
    const double median_wall = stats::percentileExact(walls, 0.5);

    // Nearest-rank median run: its zone table and events feed the report.
    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    const double rank_wall = sorted[(sorted.size() - 1) / 2];
    std::size_t median_index = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].wallMs == rank_wall) {
            median_index = i;
            break;
        }
    }

    const telemetry::BenchRun &median_run = runs[median_index];
    const double coverage_pct =
        median_run.wallMs > 0.0 && !zone_tables[median_index].empty()
            ? 100.0 * zone_tables[median_index].front().inclMs /
                  median_run.wallMs
            : 0.0;

    if (args.profile) {
        // The live profiler holds the LAST run; the JSON holds the
        // median-rank run. For single-repeat runs they are the same.
        std::printf("\n");
        prof.writeReport(std::cout);
        std::printf("\nself-profile coverage: zone-tracked time is %.1f%% "
                    "of the %.1f ms measured wall-clock (median run)\n",
                    coverage_pct, median_run.wallMs);
    }

    if (!args.profileTracePath.empty()) {
        std::ofstream out(args.profileTracePath);
        if (!out) {
            std::fprintf(stderr, "cannot write wall-clock trace '%s'\n",
                         args.profileTracePath.c_str());
        } else {
            prof.writeChromeTrace(out);
            std::printf("wall-clock profile trace written: %s (load in "
                        "https://ui.perfetto.dev)\n",
                        args.profileTracePath.c_str());
        }
    }

    if (measuring) {
        telemetry::BenchReport report;
        report.bench = args.benchId;
        report.quick = args.quick;
        report.profile = args.profile;
        report.repeat = args.repeat;
        report.warmup = args.warmup;
        report.environment = telemetry::currentEnvironment();
        report.runs = runs;
        report.medianWallMs = median_wall;
        report.eventsPerSec =
            median_run.wallMs > 0.0
                ? static_cast<double>(median_run.events) /
                      (median_run.wallMs / 1000.0)
                : 0.0;
        report.peakRssKb = telemetry::Profiler::peakRssKb();
        const telemetry::AllocStats alloc =
            telemetry::Profiler::allocStats();
        report.allocCount = alloc.count;
        report.allocBytes = alloc.bytes;
        report.zones = zone_tables[median_index];

        std::ofstream out(args.benchJsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write bench report '%s'\n",
                         args.benchJsonPath.c_str());
            return 1;
        }
        telemetry::writeBenchJson(report, out);
        std::printf("\nbench report written: %s (median %.1f ms over %d "
                    "run(s), %.0f events/s)\n",
                    args.benchJsonPath.c_str(), median_wall, args.repeat,
                    report.eventsPerSec);
    }
    finishTimeseries(args);
    return 0;
}

/** Print the experiment banner (id, paper analogue, setup). */
inline void
banner(const std::string &id, const std::string &title,
       const std::string &setup)
{
    std::printf("############################################################"
                "####################\n");
    std::printf("# %s — %s\n", id.c_str(), title.c_str());
    std::printf("# setup: %s\n", setup.c_str());
    std::printf("############################################################"
                "####################\n\n");
}

/** Standard per-policy metrics row used by several benches. */
inline std::vector<std::string>
policyRow(const char *label, const mgmt::ScenarioResult &result,
          double baseline_kwh)
{
    return {label,
            stats::fmt(result.metrics.energyKwh),
            stats::fmtPercent(baseline_kwh > 0.0
                                  ? result.metrics.energyKwh / baseline_kwh
                                  : 1.0),
            stats::fmtPercent(result.metrics.satisfaction, 2),
            stats::fmtPercent(result.metrics.violationFraction, 2),
            stats::fmt(result.metrics.p95LatencyFactor, 2) + "x",
            std::to_string(result.metrics.migrations),
            std::to_string(result.metrics.powerActions),
            stats::fmt(result.metrics.averageHostsOn, 1)};
}

/** Header matching policyRow(). */
inline std::vector<std::string>
policyHeader()
{
    return {"policy",      "energy kWh", "vs NoPM", "satisfaction",
            "SLA viol",    "p95 latency", "migr",   "pwr actions",
            "avg hosts on"};
}

/**
 * If @p trace_path is non-empty, dump the global telemetry sink: Chrome
 * trace at the path itself plus .jsonl journal and .csv metric series
 * siblings. Prints where the files went.
 */
inline void
writeTrace(const std::string &trace_path)
{
    if (trace_path.empty())
        return;
    if (telemetry::writeTraceFiles(telemetry::global(), trace_path)) {
        std::printf("\ntrace written: %s (+ .jsonl journal, .csv series); "
                    "load the .json in https://ui.perfetto.dev\n",
                    trace_path.c_str());
    }
}

/** File-name-safe policy label: "PM+S3" -> "PM-S3". */
inline std::string
sanitizeLabel(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '-';
    }
    return out;
}

/** Per-policy sibling of @p trace_path: "f6.json" + "PM+S3" -> "f6_PM-S3.json". */
inline std::string
policyTracePath(const std::string &trace_path, const std::string &label)
{
    const std::string safe = sanitizeLabel(label);
    const std::size_t dot = trace_path.rfind('.');
    const std::size_t slash = trace_path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && slash > dot))
        return trace_path + "_" + safe;
    return trace_path.substr(0, dot) + "_" + safe + trace_path.substr(dot);
}

/**
 * End-of-policy trace hook for multi-policy benches. When tracing is on:
 * run the causal-chain analyzer over the live journal and print the
 * wake-latency decomposition for this policy, dump the trace files to a
 * per-policy sibling of @p trace_path, then clear the sink so the next
 * policy starts from an empty journal (decision ids keep counting up, so
 * ids stay unique across policies). No-op when @p trace_path is empty.
 */
inline void
finishPolicyTrace(const std::string &trace_path, const std::string &label)
{
    if (trace_path.empty())
        return;
    const auto records =
        telemetry::recordsFromJournal(telemetry::global().journal());
    const telemetry::TraceAnalysis analysis =
        telemetry::analyzeTrace(records);
    std::printf("\n--- causal trace analysis [%s] ---\n", label.c_str());
    telemetry::writeAnalysisText(analysis, std::cout);
    std::cout.flush();
    writeTrace(policyTracePath(trace_path, label));
    telemetry::global().reset();
}

/**
 * Collects one row per policy run and writes the bench's results as one
 * machine-readable JSON object (satellite to the human tables):
 * {"bench":id,"rows":[{"policy":...,"metrics":{...}},...]}.
 */
class JsonReport
{
  public:
    JsonReport(std::string path, std::string bench_id)
        : path_(std::move(path)), benchId_(std::move(bench_id))
    {
    }

    /** Record one policy run. No-op when no --json path was given. */
    void
    add(const std::string &policy, const mgmt::ScenarioResult &result)
    {
        if (path_.empty())
            return;
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\"policy\":\"%s\",\"metrics\":{\"energy_kwh\":%.6g,"
            "\"satisfaction\":%.6g,\"violation_fraction\":%.6g,"
            "\"p95_latency_factor\":%.6g,\"migrations\":%lld,"
            "\"power_actions\":%lld,\"avg_hosts_on\":%.6g,"
            "\"simulated_hours\":%.6g}}",
            policy.c_str(), result.metrics.energyKwh,
            result.metrics.satisfaction, result.metrics.violationFraction,
            result.metrics.p95LatencyFactor,
            static_cast<long long>(result.metrics.migrations),
            static_cast<long long>(result.metrics.powerActions),
            result.metrics.averageHostsOn, result.metrics.simulatedHours);
        rows_.emplace_back(buf);
    }

    /** Write the report (prints the destination). Call once at the end. */
    void
    write() const
    {
        if (path_.empty())
            return;
        std::ofstream out(path_);
        if (!out) {
            std::fprintf(stderr, "cannot write JSON report '%s'\n",
                         path_.c_str());
            return;
        }
        out << "{\"bench\":\"" << benchId_ << "\",\"rows\":[";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            if (i > 0)
                out << ',';
            out << rows_[i];
        }
        out << "]}\n";
        std::printf("\nJSON report written: %s\n", path_.c_str());
    }

    /** Start a fresh row set (the harness reruns the bench body). */
    void
    clear()
    {
        rows_.clear();
    }

  private:
    std::string path_;
    std::string benchId_;
    std::vector<std::string> rows_;
};

} // namespace vpm::bench

#endif // VPM_BENCH_BENCH_UTIL_HPP
