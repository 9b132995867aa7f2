/**
 * @file
 * vpm_top — live dashboard and query tool over `vpm-ts-1` snapshots.
 *
 * Runs produced with `--timeseries <path>` (benches, vpm_sim) refresh a
 * compressed snapshot of the downsampling store periodically; this tool
 * renders it. Two modes:
 *
 *  - dashboard (default): one screenful per series — latest value, range,
 *    an ASCII sparkline of the recent buckets, eviction count. `--watch`
 *    re-reads the file on an interval, like top(1) for a running sim.
 *
 *  - one-shot query: `--query metric[,metric...]` dumps the selected
 *    series' buckets as CSV (default) or JSON, optionally clipped with
 *    `--range t0:t1` (simulated microseconds; either side may be empty).
 *    Output is deterministic — the same snapshot always dumps the same
 *    bytes — so query output can be diffed and committed as goldens.
 *
 * Examples:
 *   vpm_top f7.ts
 *   vpm_top f7.ts --watch 2
 *   vpm_top f7.ts --query cluster.power.watts --range 0:3600000000
 *   vpm_top f7.ts --query cluster.power.watts,sim.queue.depth --format json
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "simcore/flag_parser.hpp"
#include "telemetry/timeseries.hpp"

namespace {

using vpm::telemetry::TsBucket;
using vpm::telemetry::TsSnapshot;

struct Options
{
    std::string path;
    std::vector<std::string> query; ///< empty: dashboard mode
    std::int64_t rangeBeginUs = std::numeric_limits<std::int64_t>::min();
    std::int64_t rangeEndUs = std::numeric_limits<std::int64_t>::max();
    bool json = false;   ///< --format json (query mode)
    int watchSeconds = 0; ///< 0: render once
};

void
printUsage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s <snapshot.ts> [options]\n"
        "  --query <m[,m...]>  dump the named series' buckets and exit\n"
        "  --range <t0:t1>     clip to [t0, t1] simulated microseconds\n"
        "                      (either side may be empty: ':3600000000')\n"
        "  --format <csv|json> query output format (default csv)\n"
        "  --watch [seconds]   dashboard: re-read the snapshot every n\n"
        "                      seconds (default 2) until interrupted\n"
        "  --help              this text\n",
        argv0);
}

/** Deterministic number formatting: integral values print without a
 *  fraction, everything else as shortest-ish %.10g. */
std::string
fmtValue(double v)
{
    char buf[64];
    if (v == static_cast<std::int64_t>(v) && std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.10g", v);
    }
    return buf;
}

/** Parse "t0:t1" with optional empty sides. @return false on junk. */
bool
parseRange(const std::string &text, std::int64_t &begin_us,
           std::int64_t &end_us)
{
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos)
        return false;
    const std::string lo = text.substr(0, colon);
    const std::string hi = text.substr(colon + 1);
    const auto parse = [](const std::string &s, std::int64_t &out) {
        const std::optional<long long> parsed =
            vpm::sim::parseInteger(s.c_str());
        if (parsed)
            out = *parsed;
        return parsed.has_value();
    };
    if (!lo.empty() && !parse(lo, begin_us))
        return false;
    if (!hi.empty() && !parse(hi, end_us))
        return false;
    return true;
}

/** Split "a,b,c" into tokens, dropping empties. */
std::vector<std::string>
splitCsvList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    vpm::sim::FlagParser("vpm_top",
                         [argv0 = argv[0]](std::FILE *out) {
                             printUsage(argv0, out);
                         })
        .helpAlias("-h")
        .operand("snapshot.ts", opts.path)
        .flag("--query", {"metric names",
                          [&opts](const char *text) {
                              opts.query = splitCsvList(text);
                              return !opts.query.empty();
                          }})
        .flag("--range", {"'t0:t1'",
                          [&opts](const char *text) {
                              return parseRange(text, opts.rangeBeginUs,
                                                opts.rangeEndUs);
                          }})
        .choice("--format", opts.json, {{"csv", false}, {"json", true}})
        .optionalValue("--watch", opts.watchSeconds, 2, 1)
        .parseOrExit(argc, argv);
    return opts;
}

bool
load(const std::string &path, TsSnapshot &snap, bool complain)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (complain)
            std::fprintf(stderr, "vpm_top: cannot open '%s'\n",
                         path.c_str());
        return false;
    }
    std::string error;
    if (!vpm::telemetry::readSnapshot(in, snap, &error)) {
        if (complain)
            std::fprintf(stderr, "vpm_top: %s: %s\n", path.c_str(),
                         error.c_str());
        return false;
    }
    return true;
}

/** Buckets of @p series intersecting the requested range. */
std::vector<const TsBucket *>
clip(const TsSnapshot::Series &series, const Options &opts)
{
    // Inclusive start-based clip: a bucket belongs to the range when its
    // start lies within [t0, t1] (ranges are specified in bucket starts).
    std::vector<const TsBucket *> out;
    for (const TsBucket &bucket : series.buckets) {
        if (bucket.startUs >= opts.rangeBeginUs &&
            bucket.startUs <= opts.rangeEndUs)
            out.push_back(&bucket);
    }
    return out;
}

int
runQuery(const Options &opts)
{
    TsSnapshot snap;
    if (!load(opts.path, snap, true))
        return 1;

    // Unknown series is an error, not an empty dump: a typo'd metric name
    // in CI should fail loudly.
    for (const std::string &name : opts.query) {
        if (snap.find(name) == nullptr) {
            std::fprintf(stderr, "vpm_top: no series '%s' in %s\n",
                         name.c_str(), opts.path.c_str());
            return 1;
        }
    }

    if (opts.json) {
        std::printf("{\"bucket_us\":%lld,\"series\":[",
                    static_cast<long long>(snap.bucketUs));
        for (std::size_t s = 0; s < opts.query.size(); ++s) {
            const TsSnapshot::Series *series = snap.find(opts.query[s]);
            if (s > 0)
                std::printf(",");
            std::printf("{\"name\":\"%s\",\"evicted\":%llu,\"buckets\":[",
                        series->name.c_str(),
                        static_cast<unsigned long long>(series->evicted));
            const auto buckets = clip(*series, opts);
            for (std::size_t i = 0; i < buckets.size(); ++i) {
                const TsBucket &b = *buckets[i];
                if (i > 0)
                    std::printf(",");
                std::printf("{\"start_us\":%lld,\"min\":%s,\"max\":%s,"
                            "\"mean\":%s,\"sum\":%s,\"count\":%llu,"
                            "\"last\":%s}",
                            static_cast<long long>(b.startUs),
                            fmtValue(b.min).c_str(),
                            fmtValue(b.max).c_str(),
                            fmtValue(b.mean()).c_str(),
                            fmtValue(b.sum).c_str(),
                            static_cast<unsigned long long>(b.count),
                            fmtValue(b.last).c_str());
            }
            std::printf("]}");
        }
        std::printf("]}\n");
        return 0;
    }

    std::printf("series,start_us,min,max,mean,sum,count,last\n");
    for (const std::string &name : opts.query) {
        const TsSnapshot::Series *series = snap.find(name);
        for (const TsBucket *bucket : clip(*series, opts)) {
            std::printf("%s,%lld,%s,%s,%s,%s,%llu,%s\n",
                        series->name.c_str(),
                        static_cast<long long>(bucket->startUs),
                        fmtValue(bucket->min).c_str(),
                        fmtValue(bucket->max).c_str(),
                        fmtValue(bucket->mean()).c_str(),
                        fmtValue(bucket->sum).c_str(),
                        static_cast<unsigned long long>(bucket->count),
                        fmtValue(bucket->last).c_str());
        }
    }
    return 0;
}

/** ASCII sparkline of the last @p width bucket means (low..high ramp). */
std::string
sparkline(const std::vector<TsBucket> &buckets, std::size_t width)
{
    static const char kRamp[] = " .:-=+*#%@";
    constexpr std::size_t kLevels = sizeof(kRamp) - 2; // top ramp index
    const std::size_t n = std::min(width, buckets.size());
    if (n == 0)
        return "";
    const std::size_t first = buckets.size() - n;
    double lo = buckets[first].mean();
    double hi = lo;
    for (std::size_t i = first; i < buckets.size(); ++i) {
        lo = std::min(lo, buckets[i].mean());
        hi = std::max(hi, buckets[i].mean());
    }
    std::string out;
    out.reserve(n);
    for (std::size_t i = first; i < buckets.size(); ++i) {
        const double span = hi - lo;
        const double norm =
            span > 0.0 ? (buckets[i].mean() - lo) / span : 0.0;
        const auto level = static_cast<std::size_t>(
            norm * static_cast<double>(kLevels) + 0.5);
        out.push_back(kRamp[std::min(level, kLevels)]);
    }
    return out;
}

void
renderDashboard(const TsSnapshot &snap, const std::string &path)
{
    std::int64_t last_us = 0;
    std::size_t total_buckets = 0;
    for (const TsSnapshot::Series &series : snap.series) {
        total_buckets += series.buckets.size();
        if (!series.buckets.empty())
            last_us = std::max(last_us, series.buckets.back().startUs);
    }
    std::printf("vpm_top — %s\n", path.c_str());
    std::printf("bucket %.0fs | %zu series | %zu buckets | latest "
                "t=%.1f min\n\n",
                static_cast<double>(snap.bucketUs) / 1e6,
                snap.series.size(), total_buckets,
                static_cast<double>(last_us) / 6e7);
    std::printf("%-32s %12s %12s %12s %8s  %s\n", "series", "last", "min",
                "max", "evict", "trend");
    for (const TsSnapshot::Series &series : snap.series) {
        if (series.buckets.empty()) {
            std::printf("%-32s %12s %12s %12s %8llu\n",
                        series.name.c_str(), "-", "-", "-",
                        static_cast<unsigned long long>(series.evicted));
            continue;
        }
        double lo = series.buckets.front().min;
        double hi = series.buckets.front().max;
        for (const TsBucket &bucket : series.buckets) {
            lo = std::min(lo, bucket.min);
            hi = std::max(hi, bucket.max);
        }
        std::printf("%-32s %12s %12s %12s %8llu  |%s|\n",
                    series.name.c_str(),
                    fmtValue(series.buckets.back().last).c_str(),
                    fmtValue(lo).c_str(), fmtValue(hi).c_str(),
                    static_cast<unsigned long long>(series.evicted),
                    sparkline(series.buckets, 40).c_str());
    }
}

int
runDashboard(const Options &opts)
{
    bool first = true;
    for (;;) {
        TsSnapshot snap;
        // In watch mode a transiently unreadable file (mid-rewrite) just
        // skips a frame instead of aborting.
        const bool ok = load(opts.path, snap, first);
        if (!ok && first)
            return 1;
        if (ok) {
            if (opts.watchSeconds > 0)
                std::printf("\033[2J\033[H"); // clear + home
            renderDashboard(snap, opts.path);
            std::fflush(stdout);
        }
        first = false;
        if (opts.watchSeconds == 0)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::seconds(opts.watchSeconds));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (!opts.query.empty())
        return runQuery(opts);
    return runDashboard(opts);
}
