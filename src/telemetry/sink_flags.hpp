/**
 * @file
 * The one setup of the process-global telemetry sink from a program's
 * `--trace` / `--timeseries` / `--watchdog` flags, shared by the benches
 * and vpm_sim. Header-only, so no library the benchmark links gains code.
 */

#ifndef VPM_TELEMETRY_SINK_FLAGS_HPP
#define VPM_TELEMETRY_SINK_FLAGS_HPP

#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/telemetry.hpp"

namespace vpm::telemetry {

/**
 * Switch the global sink on for whichever of the three flags were given
 * (empty path = not given), exactly once and before any simulator
 * object exists, so `--trace` and `--timeseries` compose instead of a
 * later configure() clobbering an earlier one. Does nothing when all
 * three are empty.
 * @return false with @p error set when the watchdog rules file cannot be
 *         read or does not parse (a usage error: the caller exits 2).
 */
inline bool
configureGlobalSinks(const std::string &trace_path,
                     const std::string &timeseries_path,
                     const std::string &watchdog_path, std::string *error)
{
    const bool want_store = !timeseries_path.empty() || !watchdog_path.empty();
    if (trace_path.empty() && !want_store)
        return true;
    TelemetryConfig config;
    config.enabled = true;
    // A deep ring only pays off when the journal is exported at the end
    // (--trace). Store-only runs keep a small ring so watchdog alerts
    // stay inspectable without the preallocation cost.
    config.journalCapacity = trace_path.empty() ? (1u << 14) : (1u << 20);
    // Per-tick metric rows only matter when the trace export writes them
    // out; the compressed store already holds the history.
    config.seriesRowsEnabled = !trace_path.empty();
    config.timeseriesEnabled = want_store;
    global().configure(config);
    if (!timeseries_path.empty())
        global().setSnapshotTarget(timeseries_path);
    if (watchdog_path.empty())
        return true;
    std::ifstream in(watchdog_path);
    if (!in) {
        *error = "--watchdog: cannot read '" + watchdog_path + "'";
        return false;
    }
    std::ostringstream rules;
    rules << in.rdbuf();
    std::string why;
    if (!global().watchdog().configure(rules.str(), &why)) {
        *error = "--watchdog " + watchdog_path + ": " + why;
        return false;
    }
    return true;
}

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_SINK_FLAGS_HPP
