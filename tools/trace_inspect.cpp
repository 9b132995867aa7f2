/**
 * @file
 * trace_inspect — filter and summarize a telemetry journal dump.
 *
 * Input is the JSONL file produced next to a Chrome trace by the benches'
 * --trace flag (one flat JSON object per line, see writeJournalJsonl).
 * The tool needs no JSON library: every field it touches is a top-level
 * "key":value pair, so it extracts values with plain string scanning.
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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "simcore/parse_number.hpp"
#include "telemetry/export.hpp"

namespace {

/** Value of a top-level "key":<number> pair, if present. */
std::optional<double>
findNumber(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return std::nullopt;
    const char *start = line.c_str() + pos + needle.size();
    char *end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start)
        return std::nullopt;
    return value;
}

/** Value of a top-level "key":"string" pair, if present (unescaped only
 *  as far as the journal's tame label vocabulary requires). */
std::optional<std::string>
findString(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return std::nullopt;
    std::string out;
    for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
        const char c = line[i];
        if (c == '\\' && i + 1 < line.size()) {
            out += line[++i];
        } else if (c == '"') {
            return out;
        } else {
            out += c;
        }
    }
    return std::nullopt;
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
csvCell(const std::string &line, const char *key)
{
    if (const auto s = findString(line, key))
        return csvQuote(*s);
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return {};
    std::size_t i = pos + needle.size();
    std::string out;
    while (i < line.size() && line[i] != ',' && line[i] != '}')
        out += line[i++];
    return csvQuote(out);
}

void
printCsvRow(const std::string &line)
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

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(stdout);
            std::exit(0);
        }
        if (std::strcmp(argv[i], "--version") == 0) {
            std::printf("trace_inspect (vpm) journal schema 1\n");
            std::exit(0);
        }
    }
    if (argc < 2)
        return false;
    if (argv[1][0] == '-') {
        std::fprintf(stderr, "trace_inspect: unknown option '%s'\n", argv[1]);
        return false;
    }
    opts.path = argv[1];

    const auto needValue = [&](int i) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "trace_inspect: %s needs a value\n",
                         argv[i]);
            return false;
        }
        return true;
    };
    // Strict integer values: "--limit banana" used to run as --limit 0
    // and "--since-us 5x" as --since-us 5.
    const auto intValue = [&](int &i,
                              long long min) -> std::optional<long long> {
        if (!needValue(i))
            return std::nullopt;
        const char *flag = argv[i++];
        const std::optional<long long> parsed =
            vpm::sim::parseInteger(argv[i], min);
        if (!parsed)
            std::fprintf(stderr,
                         "trace_inspect: %s wants an integer >= %lld, got "
                         "'%s'\n",
                         flag, min, argv[i]);
        return parsed;
    };
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--summary") == 0) {
            opts.summary = true;
        } else if (std::strcmp(argv[i], "--kind") == 0) {
            if (!needValue(i))
                return false;
            opts.kind = argv[++i];
        } else if (std::strcmp(argv[i], "--track") == 0) {
            if (!needValue(i))
                return false;
            opts.track = argv[++i];
        } else if (std::strcmp(argv[i], "--since-us") == 0) {
            const std::optional<long long> t = intValue(i, LLONG_MIN);
            if (!t)
                return false;
            opts.sinceUs = *t;
        } else if (std::strcmp(argv[i], "--until-us") == 0) {
            const std::optional<long long> t = intValue(i, LLONG_MIN);
            if (!t)
                return false;
            opts.untilUs = *t;
        } else if (std::strcmp(argv[i], "--limit") == 0) {
            const std::optional<long long> n = intValue(i, 0);
            if (!n)
                return false;
            opts.limit = static_cast<std::uint64_t>(*n);
        } else if (std::strcmp(argv[i], "--format") == 0) {
            if (!needValue(i))
                return false;
            const char *format = argv[++i];
            if (std::strcmp(format, "csv") == 0) {
                opts.csv = true;
            } else if (std::strcmp(format, "jsonl") != 0) {
                std::fprintf(stderr,
                             "trace_inspect: unknown format '%s' (want "
                             "jsonl or csv)\n",
                             format);
                return false;
            }
        } else {
            std::fprintf(stderr, "trace_inspect: unknown option '%s'\n",
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

        const auto t = findNumber(line, "t_us");
        const auto kind = findString(line, "kind");
        const auto track = findString(line, "track");
        if (!t || !kind) {
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
                    printCsvRow(line);
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
            const auto from = findString(line, "from");
            const auto dur = findNumber(line, "dur_s");
            if (from && dur)
                phase_durations[*from].add(*dur);
        } else if (*kind == "migration_finish") {
            if (const auto dur = findNumber(line, "dur_s"))
                migration_durations.add(*dur);
        } else if (*kind == "idle_transition") {
            const auto level = findString(line, "level");
            const auto from = findString(line, "from");
            const auto dur = findNumber(line, "dur_s");
            if (level && from && dur)
                idle_spans[*level + ":" + *from].add(*dur);
        } else if (*kind == "alert") {
            const auto rule = findString(line, "rule");
            if (rule) {
                AlertStats &stats = alerts[*rule];
                if (stats.count == 0) {
                    stats.firstUs = t_us;
                    if (const auto cause = findNumber(line, "cause"))
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
