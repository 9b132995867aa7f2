#include "telemetry/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "telemetry/json_util.hpp"
#include "telemetry/profiler.hpp"

namespace vpm::telemetry {

std::string
fmtDouble(double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

namespace {

// JSON string escaping is shared with the profiler and bench writers:
// see json_util.hpp (jsonEscape / writeJsonEscaped).

/** Display name of a track, falling back to "<domain><id>". */
std::string
displayTrack(const EventJournal &journal, TrackDomain domain,
             std::int32_t track)
{
    const std::string &name = journal.trackName(domain, track);
    if (!name.empty())
        return name;
    return std::string(toString(domain)) + std::to_string(track);
}

} // namespace

void
writeJournalJsonl(const EventJournal &journal, std::ostream &out)
{
    PROF_ZONE("telemetry.export.jsonl");
    for (const JournalEvent &ev : journal.sortedEvents()) {
        out << "{\"t_us\":" << ev.timeUs << ",\"seq\":" << ev.seq
            << ",\"kind\":\"" << toString(ev.kind) << "\",\"track\":\""
            << jsonEscape(displayTrack(journal, ev.domain, ev.track))
            << '"';
        // Numeric ids alongside the display name, so analyzers can join
        // host-domain rows against migration src/dst without parsing names.
        if (ev.domain == TrackDomain::Host)
            out << ",\"host\":" << ev.track;
        else if (ev.domain == TrackDomain::Vm)
            out << ",\"vm\":" << ev.track;
        if (ev.cause != 0) {
            out << ",\"cause\":" << ev.cause;
            if (ev.causeSeq != 0)
                out << ",\"cause_seq\":" << ev.causeSeq;
        }
        switch (ev.kind) {
          case EventKind::PowerTransition:
            out << ",\"from\":\"" << jsonEscape(journal.label(ev.labelA))
                << "\",\"to\":\"" << jsonEscape(journal.label(ev.labelB))
                << "\",\"state\":\""
                << jsonEscape(journal.label(ev.labelC)) << "\",\"dur_s\":"
                << fmtDouble(ev.a) << ",\"joules\":" << fmtDouble(ev.b);
            break;
          case EventKind::MigrationStart:
            out << ",\"src\":" << fmtDouble(ev.a)
                << ",\"dst\":" << fmtDouble(ev.b)
                << ",\"expected_s\":" << fmtDouble(ev.c);
            break;
          case EventKind::MigrationFinish:
            out << ",\"src\":" << fmtDouble(ev.a)
                << ",\"dst\":" << fmtDouble(ev.b)
                << ",\"dur_s\":" << fmtDouble(ev.c);
            break;
          case EventKind::MigrationAbort:
            out << ",\"src\":" << fmtDouble(ev.a)
                << ",\"dst\":" << fmtDouble(ev.b) << ",\"reason\":\""
                << jsonEscape(journal.label(ev.labelA)) << '"';
            break;
          case EventKind::Forecast:
            out << ",\"predictor\":\""
                << jsonEscape(journal.label(ev.labelA))
                << "\",\"forecast\":" << fmtDouble(ev.a)
                << ",\"actual\":" << fmtDouble(ev.b);
            break;
          case EventKind::SleepDecision:
            out << ",\"state\":\"" << jsonEscape(journal.label(ev.labelA))
                << "\",\"expected_idle_s\":" << fmtDouble(ev.a)
                << ",\"idle_w\":" << fmtDouble(ev.b)
                << ",\"sleep_w\":" << fmtDouble(ev.c);
            break;
          case EventKind::WakeDecision:
            out << ",\"reason\":\""
                << jsonEscape(journal.label(ev.labelA)) << '"';
            break;
          case EventKind::MigrateDecision:
            out << ",\"reason\":\""
                << jsonEscape(journal.label(ev.labelA))
                << "\",\"moves\":" << fmtDouble(ev.a)
                << ",\"subject_host\":" << fmtDouble(ev.b);
            break;
          case EventKind::SlaViolation:
            out << ",\"satisfaction\":" << fmtDouble(ev.a)
                << ",\"demand_mhz\":" << fmtDouble(ev.b);
            break;
          case EventKind::IdleTransition:
            out << ",\"level\":\"" << jsonEscape(journal.label(ev.labelA))
                << "\",\"from\":\"" << jsonEscape(journal.label(ev.labelB))
                << "\",\"to\":\"" << jsonEscape(journal.label(ev.labelC))
                << "\",\"cores\":" << fmtDouble(ev.a)
                << ",\"dur_s\":" << fmtDouble(ev.b)
                << ",\"joules\":" << fmtDouble(ev.c);
            break;
          case EventKind::Alert:
            out << ",\"rule\":\"" << jsonEscape(journal.label(ev.labelA))
                << "\",\"op\":\"" << jsonEscape(journal.label(ev.labelB))
                << "\",\"series\":\""
                << jsonEscape(journal.label(ev.labelC))
                << "\",\"value\":" << fmtDouble(ev.a)
                << ",\"threshold\":" << fmtDouble(ev.b)
                << ",\"buckets\":" << fmtDouble(ev.c);
            break;
        }
        out << "}\n";
    }
}

std::string
csvQuote(const std::string &cell)
{
    if (cell.find_first_of(",\"\n\r") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (const char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeMetricsCsv(const Telemetry &telemetry, std::ostream &out)
{
    PROF_ZONE("telemetry.export.csv");
    out << "t_us";
    for (const std::string &column : telemetry.seriesColumns())
        out << ',' << csvQuote(column);
    out << '\n';
    for (const SeriesRow &row : telemetry.seriesRows()) {
        out << row.timeUs;
        for (const double v : row.values)
            out << ',' << fmtDouble(v);
        out << '\n';
    }
}

namespace {

/** Chrome trace process ids, one per timeline family. */
constexpr int kPidMetrics = 0;
constexpr int kPidHosts = 1;
constexpr int kPidMigrations = 2;
constexpr int kPidManager = 3;

void
emitMeta(std::ostream &out, int pid, std::int64_t tid, const char *what,
         const std::string &name, bool &first)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
        << jsonEscape(name) << "\"}}";
}

} // namespace

void
writeChromeTrace(const Telemetry &telemetry, std::ostream &out)
{
    PROF_ZONE("telemetry.export.chrome");
    const EventJournal &journal = telemetry.journal();
    const std::vector<JournalEvent> events = journal.sortedEvents();

    out << "{\"traceEvents\":[\n";
    bool first = true;

    emitMeta(out, kPidHosts, 0, "process_name", "hosts", first);
    emitMeta(out, kPidMigrations, 0, "process_name", "migrations", first);
    emitMeta(out, kPidManager, 0, "process_name", "manager", first);
    emitMeta(out, kPidMetrics, 0, "process_name", "metrics", first);

    // Name every track that appears in the journal.
    std::map<std::int32_t, std::string> host_tracks, vm_tracks;
    for (const JournalEvent &ev : events) {
        if (ev.domain == TrackDomain::Host)
            host_tracks.try_emplace(
                ev.track, displayTrack(journal, ev.domain, ev.track));
        else if (ev.domain == TrackDomain::Vm)
            vm_tracks.try_emplace(
                ev.track, displayTrack(journal, ev.domain, ev.track));
    }
    for (const auto &[track, name] : host_tracks)
        emitMeta(out, kPidHosts, track, "thread_name", name, first);
    for (const auto &[track, name] : vm_tracks)
        emitMeta(out, kPidMigrations, track, "thread_name", name, first);

    const auto emit = [&](const std::string &event_json) {
        if (!first)
            out << ",\n";
        first = false;
        out << event_json;
    };

    // Open migrations: start seen, finish/abort pending.
    std::map<std::int32_t, JournalEvent> open_migrations;

    for (const JournalEvent &ev : events) {
        std::ostringstream line;
        switch (ev.kind) {
          case EventKind::PowerTransition: {
            // The event marks the *end* of the from-phase: render that
            // phase as a completed span.
            const std::string &from = journal.label(ev.labelA);
            const std::string &state = journal.label(ev.labelC);
            std::string name = from;
            if (!state.empty() && from != "On")
                name += "(" + state + ")";
            const auto dur_us =
                static_cast<std::int64_t>(ev.a * 1e6 + 0.5);
            line << "{\"ph\":\"X\",\"cat\":\"power\",\"name\":\""
                 << jsonEscape(name) << "\",\"pid\":" << kPidHosts
                 << ",\"tid\":" << ev.track << ",\"ts\":"
                 << ev.timeUs - dur_us << ",\"dur\":" << dur_us
                 << ",\"args\":{\"to\":\""
                 << jsonEscape(journal.label(ev.labelB))
                 << "\",\"joules\":" << fmtDouble(ev.b) << "}}";
            emit(line.str());
            break;
          }
          case EventKind::IdleTransition: {
            // Like PowerTransition: the record ends the group's stay in
            // the from-state, rendered as a span on the host's track.
            const auto dur_us =
                static_cast<std::int64_t>(ev.b * 1e6 + 0.5);
            line << "{\"ph\":\"X\",\"cat\":\"idle\",\"name\":\""
                 << jsonEscape(journal.label(ev.labelA)) << ' '
                 << jsonEscape(journal.label(ev.labelB))
                 << "\",\"pid\":" << kPidHosts << ",\"tid\":" << ev.track
                 << ",\"ts\":" << ev.timeUs - dur_us << ",\"dur\":" << dur_us
                 << ",\"args\":{\"to\":\""
                 << jsonEscape(journal.label(ev.labelC))
                 << "\",\"cores\":" << fmtDouble(ev.a)
                 << ",\"joules\":" << fmtDouble(ev.c) << "}}";
            emit(line.str());
            break;
          }
          case EventKind::MigrationStart:
            open_migrations[ev.track] = ev;
            break;
          case EventKind::MigrationFinish:
          case EventKind::MigrationAbort: {
            const auto it = open_migrations.find(ev.track);
            const std::int64_t start_us =
                it != open_migrations.end() ? it->second.timeUs
                                            : ev.timeUs;
            if (it != open_migrations.end())
                open_migrations.erase(it);
            const bool aborted = ev.kind == EventKind::MigrationAbort;
            line << "{\"ph\":\"X\",\"cat\":\"migration\",\"name\":\""
                 << (aborted ? "migrate(aborted)" : "migrate")
                 << " host" << fmtDouble(ev.a) << "->host"
                 << fmtDouble(ev.b) << "\",\"pid\":" << kPidMigrations
                 << ",\"tid\":" << ev.track << ",\"ts\":" << start_us
                 << ",\"dur\":" << ev.timeUs - start_us << ",\"args\":{";
            if (aborted)
                line << "\"reason\":\""
                     << jsonEscape(journal.label(ev.labelA)) << '"';
            else
                line << "\"seconds\":" << fmtDouble(ev.c);
            line << "}}";
            emit(line.str());
            break;
          }
          case EventKind::Forecast:
            line << "{\"ph\":\"C\",\"name\":\"forecast\",\"pid\":"
                 << kPidManager << ",\"tid\":0,\"ts\":" << ev.timeUs
                 << ",\"args\":{\"forecast\":" << fmtDouble(ev.a)
                 << ",\"actual\":" << fmtDouble(ev.b) << "}}";
            emit(line.str());
            break;
          case EventKind::SleepDecision:
            line << "{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"decision\","
                    "\"name\":\"sleep("
                 << jsonEscape(journal.label(ev.labelA)) << ") "
                 << jsonEscape(displayTrack(journal, TrackDomain::Host,
                                            ev.track))
                 << "\",\"pid\":" << kPidManager << ",\"tid\":0,\"ts\":"
                 << ev.timeUs << ",\"args\":{\"expected_idle_s\":"
                 << fmtDouble(ev.a) << "}}";
            emit(line.str());
            break;
          case EventKind::WakeDecision:
            line << "{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"decision\","
                    "\"name\":\"wake "
                 << jsonEscape(displayTrack(journal, TrackDomain::Host,
                                            ev.track))
                 << "\",\"pid\":" << kPidManager << ",\"tid\":0,\"ts\":"
                 << ev.timeUs << ",\"args\":{\"reason\":\""
                 << jsonEscape(journal.label(ev.labelA)) << "\"}}";
            emit(line.str());
            break;
          case EventKind::MigrateDecision:
            line << "{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"decision\","
                    "\"name\":\"migrate("
                 << jsonEscape(journal.label(ev.labelA))
                 << ")\",\"pid\":" << kPidManager << ",\"tid\":0,\"ts\":"
                 << ev.timeUs << ",\"args\":{\"moves\":" << fmtDouble(ev.a)
                 << ",\"subject_host\":" << fmtDouble(ev.b) << "}}";
            emit(line.str());
            break;
          case EventKind::SlaViolation:
            line << "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"sla\","
                    "\"name\":\"SLA violation "
                 << jsonEscape(displayTrack(journal, TrackDomain::Vm,
                                            ev.track))
                 << "\",\"pid\":" << kPidMigrations << ",\"tid\":"
                 << ev.track << ",\"ts\":" << ev.timeUs
                 << ",\"args\":{\"satisfaction\":" << fmtDouble(ev.a)
                 << "}}";
            emit(line.str());
            break;
          case EventKind::Alert:
            line << "{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"alert\","
                    "\"name\":\"alert "
                 << jsonEscape(journal.label(ev.labelA))
                 << "\",\"pid\":" << kPidManager << ",\"tid\":0,\"ts\":"
                 << ev.timeUs << ",\"args\":{\"value\":" << fmtDouble(ev.a)
                 << ",\"threshold\":" << fmtDouble(ev.b) << "}}";
            emit(line.str());
            break;
        }
    }

    // Still-in-flight migrations at the end of the journal: render as
    // zero-duration-from-start spans so they are visible, not lost.
    for (const auto &[track, start] : open_migrations) {
        std::ostringstream line;
        line << "{\"ph\":\"X\",\"cat\":\"migration\",\"name\":\""
                "migrate(in flight) host"
             << fmtDouble(start.a) << "->host" << fmtDouble(start.b)
             << "\",\"pid\":" << kPidMigrations << ",\"tid\":" << track
             << ",\"ts\":" << start.timeUs << ",\"dur\":"
             << static_cast<std::int64_t>(start.c * 1e6 + 0.5)
             << ",\"args\":{\"expected_s\":" << fmtDouble(start.c)
             << "}}";
        emit(line.str());
    }

    // Gauge columns of the sampled series become counter tracks.
    const std::vector<std::string> &columns = telemetry.seriesColumns();
    for (const SeriesRow &row : telemetry.seriesRows()) {
        for (std::size_t i = 0; i < columns.size() &&
                                i < row.values.size(); ++i) {
            if (columns[i].rfind("gauge.", 0) != 0)
                continue;
            const std::string name = columns[i].substr(6);
            std::ostringstream line;
            line << "{\"ph\":\"C\",\"name\":\"" << jsonEscape(name)
                 << "\",\"pid\":" << kPidMetrics << ",\"tid\":0,\"ts\":"
                 << row.timeUs << ",\"args\":{\"value\":"
                 << fmtDouble(row.values[i]) << "}}";
            emit(line.str());
        }
    }

    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool
writeTraceFiles(const Telemetry &telemetry, const std::string &chrome_path)
{
    std::string stem = chrome_path;
    if (stem.size() > 5 && stem.substr(stem.size() - 5) == ".json")
        stem = stem.substr(0, stem.size() - 5);

    const auto open = [](std::ofstream &f, const std::string &path) {
        f.open(path);
        if (!f) {
            std::fprintf(stderr,
                         "telemetry: cannot open '%s' for writing\n",
                         path.c_str());
            return false;
        }
        return true;
    };

    std::ofstream chrome, jsonl, csv;
    if (!open(chrome, chrome_path) || !open(jsonl, stem + ".jsonl") ||
        !open(csv, stem + ".csv")) {
        return false;
    }
    writeChromeTrace(telemetry, chrome);
    writeJournalJsonl(telemetry.journal(), jsonl);
    writeMetricsCsv(telemetry, csv);
    return chrome.good() && jsonl.good() && csv.good();
}

} // namespace vpm::telemetry
