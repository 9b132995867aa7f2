/**
 * @file
 * trace_inspect — filter and summarize a telemetry journal dump.
 *
 * Input is the JSONL file produced next to a Chrome trace by the benches'
 * --trace flag (one flat JSON object per line, see writeJournalJsonl),
 * read line by line through the shared JSON parser (telemetry::parseJson)
 * so escaped strings come back exactly as the journal recorded them.
 *
 * Usage:
 *   trace_inspect <journal.jsonl> [options]
 *
 * Options:
 *   --kind <name>     keep only events of this kind (e.g. power_transition)
 *   --track <name>    keep only events on this track (e.g. host03)
 *   --since-us <t>    keep events at or after this simulated time
 *   --until-us <t>    keep events strictly before this simulated time
 *   --limit <n>       print at most n matching lines
 *   --summary         print aggregate statistics instead of lines
 *   --format <f>      line output format: jsonl (default) or csv
 *
 * Without --summary the matching lines are echoed in the chosen format.
 * jsonl echoes them verbatim, so invocations compose: inspect | further
 * filters. csv flattens every event onto one wide fixed column set (cells
 * a kind does not populate stay empty) for spreadsheet import. With
 * --summary the tool reports counts per kind and per track plus duration
 * statistics for power-phase spans and completed migrations.
 */

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "simcore/flag_parser.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json_util.hpp"

namespace {

using vpm::telemetry::JsonValue;

/** Top-level number @p key of a parsed journal line, if present. */
std::optional<double>
findNumber(const JsonValue &line, const char *key)
{
    if (const JsonValue *v = line.find(key, JsonValue::Kind::Number))
        return v->number;
    return std::nullopt;
}

/** Top-level string @p key of a parsed journal line; nullptr if absent. */
const std::string *
findString(const JsonValue &line, const char *key)
{
    const JsonValue *v = line.find(key, JsonValue::Kind::String);
    return v != nullptr ? &v->string : nullptr;
}

/** Running min/mean/max over a stream of samples. */
struct DurationStats
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void
    add(double v)
    {
        if (count == 0) {
            min = max = v;
        } else {
            min = std::min(min, v);
            max = std::max(max, v);
        }
        ++count;
        sum += v;
    }

    double mean() const { return count > 0 ? sum / double(count) : 0.0; }
};

struct Options
{
    std::string path;
    std::string kind;
    std::string track;
    std::int64_t sinceUs = INT64_MIN;
    std::int64_t untilUs = INT64_MAX;
    std::uint64_t limit = UINT64_MAX;
    bool summary = false;
    bool csv = false;
};

/** All columns the CSV format emits, in order. Numeric columns shared by
 *  several kinds (src, dst, dur_s, reason) appear once. */
constexpr const char *kCsvColumns[] = {
    "t_us",        "seq",          "kind",     "track",
    "host",        "vm",           "cause",    "cause_seq",
    "from",        "to",           "state",    "reason",
    "predictor",   "src",          "dst",      "dur_s",
    "expected_s",  "expected_idle_s", "idle_w", "sleep_w",
    "satisfaction", "demand_mhz",  "forecast", "actual",
    "moves",       "subject_host", "joules",   "level",
    "cores",       "rule",         "op",       "series",
    "value",       "threshold",    "buckets",
};

// RFC 4180 quoting lives in the export library (telemetry::csvQuote):
// the journal's own label vocabulary is tame, but user-supplied strings
// (watchdog rule names, track names) flow through here unrestricted.
using vpm::telemetry::csvQuote;

/** One CSV cell: the field's value, quoted when necessary, or empty when
 *  the kind does not populate the column. */
std::string
csvCell(const JsonValue &line, const char *key)
{
    if (const std::string *s = findString(line, key))
        return csvQuote(*s);
    if (const std::optional<double> v = findNumber(line, key))
        return vpm::telemetry::fmtDouble(*v);
    return {};
}

void
printCsvRow(const JsonValue &line)
{
    std::string row;
    bool first = true;
    for (const char *column : kCsvColumns) {
        if (!first)
            row += ',';
        first = false;
        row += csvCell(line, column);
    }
    std::puts(row.c_str());
}

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: trace_inspect <journal.jsonl> [--kind <name>] "
        "[--track <name>]\n"
        "                     [--since-us <t>] [--until-us <t>] "
        "[--limit <n>] [--summary]\n"
        "                     [--format jsonl|csv]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    vpm::sim::FlagParser("trace_inspect", usage)
        .version("trace_inspect (vpm) journal schema 1\n")
        .operand("journal.jsonl", opts.path)
        .flag("--summary", opts.summary)
        .flag("--kind", opts.kind)
        .flag("--track", opts.track)
        .flag("--since-us", opts.sinceUs, LLONG_MIN)
        .flag("--until-us", opts.untilUs, LLONG_MIN)
        .flag("--limit", opts.limit, 0)
        .choice("--format", opts.csv, {{"jsonl", false}, {"csv", true}})
        .parseOrExit(argc, argv);

    std::ifstream in(opts.path);
    if (!in) {
        std::fprintf(stderr, "trace_inspect: cannot open '%s'\n",
                     opts.path.c_str());
        return 1;
    }

    std::uint64_t seen = 0, matched = 0, printed = 0;
    std::int64_t first_us = 0, last_us = 0;
    std::map<std::string, std::uint64_t> by_kind;
    std::map<std::string, std::uint64_t> by_track;
    // Power-phase span durations keyed by the phase just left.
    std::map<std::string, DurationStats> phase_durations;
    DurationStats migration_durations;
    // Idle-hierarchy residency spans keyed by "level:from-state".
    std::map<std::string, DurationStats> idle_spans;
    // Watchdog alert roll-up per rule name.
    struct AlertStats
    {
        std::uint64_t count = 0;
        std::int64_t firstUs = 0;
        std::int64_t lastUs = 0;
        std::uint64_t firstCause = 0;
    };
    std::map<std::string, AlertStats> alerts;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++seen;

        JsonValue doc;
        const bool parsed = vpm::telemetry::parseJson(line, doc, nullptr);
        const auto t = findNumber(doc, "t_us");
        const std::string *kind = findString(doc, "kind");
        const std::string *track = findString(doc, "track");
        if (!parsed || !t || !kind) {
            std::fprintf(stderr,
                         "trace_inspect: skipping malformed line %llu\n",
                         static_cast<unsigned long long>(seen));
            continue;
        }

        const auto t_us = static_cast<std::int64_t>(*t);
        if (t_us < opts.sinceUs || t_us >= opts.untilUs)
            continue;
        if (!opts.kind.empty() && *kind != opts.kind)
            continue;
        if (!opts.track.empty() && (!track || *track != opts.track))
            continue;

        if (matched == 0)
            first_us = t_us;
        last_us = std::max(last_us, t_us);
        ++matched;

        if (!opts.summary) {
            if (printed < opts.limit) {
                if (opts.csv) {
                    if (printed == 0) {
                        std::string header;
                        for (const char *column : kCsvColumns) {
                            if (!header.empty())
                                header += ',';
                            header += column;
                        }
                        std::puts(header.c_str());
                    }
                    printCsvRow(doc);
                } else {
                    std::puts(line.c_str());
                }
                ++printed;
            }
            continue;
        }

        ++by_kind[*kind];
        if (track)
            ++by_track[*track];
        if (*kind == "power_transition") {
            const std::string *from = findString(doc, "from");
            const auto dur = findNumber(doc, "dur_s");
            if (from && dur)
                phase_durations[*from].add(*dur);
        } else if (*kind == "migration_finish") {
            if (const auto dur = findNumber(doc, "dur_s"))
                migration_durations.add(*dur);
        } else if (*kind == "idle_transition") {
            const std::string *level = findString(doc, "level");
            const std::string *from = findString(doc, "from");
            const auto dur = findNumber(doc, "dur_s");
            if (level && from && dur)
                idle_spans[*level + ":" + *from].add(*dur);
        } else if (*kind == "alert") {
            if (const std::string *rule = findString(doc, "rule")) {
                AlertStats &stats = alerts[*rule];
                if (stats.count == 0) {
                    stats.firstUs = t_us;
                    if (const auto cause = findNumber(doc, "cause"))
                        stats.firstCause =
                            static_cast<std::uint64_t>(*cause);
                }
                ++stats.count;
                stats.lastUs = t_us;
            }
        }
    }

    if (!opts.summary) {
        if (printed < matched) {
            std::fprintf(stderr,
                         "(%llu further matching events suppressed by "
                         "--limit)\n",
                         static_cast<unsigned long long>(matched - printed));
        }
        return 0;
    }

    std::printf("%llu events read, %llu matched",
                static_cast<unsigned long long>(seen),
                static_cast<unsigned long long>(matched));
    if (matched > 0) {
        std::printf(", spanning %.3f s of simulated time",
                    static_cast<double>(last_us - first_us) * 1e-6);
    }
    std::printf("\n");

    if (!by_kind.empty()) {
        std::printf("\nby kind:\n");
        for (const auto &[kind, count] : by_kind)
            std::printf("  %-18s %llu\n", kind.c_str(),
                        static_cast<unsigned long long>(count));
    }
    if (!by_track.empty()) {
        std::printf("\nby track (%zu tracks):\n", by_track.size());
        // Busiest first; cap the listing so wide fleets stay readable.
        std::vector<std::pair<std::string, std::uint64_t>> tracks(
            by_track.begin(), by_track.end());
        std::stable_sort(tracks.begin(), tracks.end(),
                         [](const auto &a, const auto &b) {
                             return a.second > b.second;
                         });
        const std::size_t shown = std::min<std::size_t>(tracks.size(), 20);
        for (std::size_t i = 0; i < shown; ++i)
            std::printf("  %-18s %llu\n", tracks[i].first.c_str(),
                        static_cast<unsigned long long>(tracks[i].second));
        if (shown < tracks.size())
            std::printf("  ... %zu more\n", tracks.size() - shown);
    }
    if (!phase_durations.empty()) {
        std::printf("\npower-phase spans (seconds in phase before "
                    "transition):\n");
        for (const auto &[phase, stats] : phase_durations)
            std::printf("  %-10s n=%-6llu min=%-10.3f mean=%-10.3f "
                        "max=%.3f\n",
                        phase.c_str(),
                        static_cast<unsigned long long>(stats.count),
                        stats.min, stats.mean(), stats.max);
    }
    if (!idle_spans.empty()) {
        std::printf("\nidle-state spans (seconds resident before "
                    "transition, by level:state):\n");
        for (const auto &[key, stats] : idle_spans)
            std::printf("  %-10s n=%-6llu min=%-10.6f mean=%-10.6f "
                        "max=%.6f\n",
                        key.c_str(),
                        static_cast<unsigned long long>(stats.count),
                        stats.min, stats.mean(), stats.max);
    }
    if (migration_durations.count > 0) {
        std::printf("\ncompleted migrations: n=%llu min=%.3fs mean=%.3fs "
                    "max=%.3fs\n",
                    static_cast<unsigned long long>(
                        migration_durations.count),
                    migration_durations.min, migration_durations.mean(),
                    migration_durations.max);
    }
    if (!alerts.empty()) {
        std::printf("\nwatchdog alerts (per rule):\n");
        for (const auto &[rule, stats] : alerts) {
            std::printf("  %-20s trips=%-5llu first=%.1fs last=%.1fs",
                        rule.c_str(),
                        static_cast<unsigned long long>(stats.count),
                        static_cast<double>(stats.firstUs) * 1e-6,
                        static_cast<double>(stats.lastUs) * 1e-6);
            if (stats.firstCause != 0)
                std::printf(" decision=#%llu",
                            static_cast<unsigned long long>(
                                stats.firstCause));
            std::printf("\n");
        }
    }
    return 0;
}
