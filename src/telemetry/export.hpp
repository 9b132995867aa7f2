/**
 * @file
 * Exporters for the telemetry subsystem.
 *
 * Three formats, three audiences:
 *  - JSONL journal dump: one flat JSON object per event; machine-greppable
 *    and the input format of the trace_inspect CLI.
 *  - CSV metric series: the rows collected by Telemetry::sampleSeries(),
 *    ready for a spreadsheet or pandas.
 *  - Chrome trace-event JSON: loads in chrome://tracing and Perfetto; one
 *    track per host with spans for power states, one track per migrating
 *    VM, instant events for manager decisions and SLA violations, and
 *    counter tracks for the sampled gauges.
 */

#ifndef VPM_TELEMETRY_EXPORT_HPP
#define VPM_TELEMETRY_EXPORT_HPP

#include <iosfwd>
#include <string>

#include "telemetry/telemetry.hpp"

namespace vpm::telemetry {

/**
 * RFC 4180 CSV quoting: a cell containing a comma, quote, CR or LF is
 * wrapped in quotes with embedded quotes doubled; anything else passes
 * through untouched. Shared by every CSV writer (metric series,
 * trace_inspect) so user-supplied strings — watchdog rule names, track
 * names — cannot break row structure.
 */
std::string csvQuote(const std::string &cell);

/**
 * The journal's number format: integral values print without a
 * fractional part so goldens stay readable; everything else uses %.6g.
 * Shared by every writer of journal-derived JSON and CSV.
 */
std::string fmtDouble(double v);

/** One event per line; see DESIGN.md for the per-kind field layout. */
void writeJournalJsonl(const EventJournal &journal, std::ostream &out);

/** Header row then one row per sampleSeries() call. */
void writeMetricsCsv(const Telemetry &telemetry, std::ostream &out);

/** Chrome trace-event JSON (chrome://tracing / Perfetto loadable). */
void writeChromeTrace(const Telemetry &telemetry, std::ostream &out);

/**
 * Write the full export triple derived from one base path: the Chrome
 * trace at @p chrome_path itself, the journal next to it with a .jsonl
 * extension, and the metric series with a .csv extension (replacing a
 * trailing ".json" when present, appending otherwise).
 * @return false if any file could not be opened (a message is printed).
 */
bool writeTraceFiles(const Telemetry &telemetry,
                     const std::string &chrome_path);

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_EXPORT_HPP
