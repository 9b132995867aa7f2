/**
 * @file
 * Example: explore the break-even math of your own power states.
 *
 * Shows the analysis API directly: define a server's power curve and sleep
 * states (or tweak the built-in blade), then ask which state wins for a
 * given idle interval and where the break-evens fall. This is the
 * calculation an operator runs before enabling power management on new
 * hardware.
 *
 * Usage: breakeven_explorer [idle_seconds...]
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "power/breakeven.hpp"
#include "power/server_models.hpp"
#include "simcore/parse_number.hpp"
#include "stats/table.hpp"

int
main(int argc, char **argv)
{
    using namespace vpm;

    std::vector<double> intervals;
    for (int i = 1; i < argc; ++i) {
        const std::optional<double> secs = sim::parseNumber(argv[i]);
        if (!secs || *secs <= 0.0) {
            std::fprintf(stderr, "%s: bad idle interval '%s'\n"
                                 "usage: %s [idle_seconds > 0 ...]\n",
                         argv[0], argv[i], argv[0]);
            return 2;
        }
        intervals.push_back(*secs);
    }
    if (intervals.empty())
        intervals = {10, 30, 60, 300, 1800, 7200, 28800};

    const power::HostPowerSpec blade = power::enterpriseBlade2013();
    std::printf("server model: %s (idle %.0f W, peak %.0f W)\n\n",
                blade.model().c_str(), blade.idlePowerWatts(),
                blade.peakPowerWatts());

    stats::Table states("available sleep states",
                        {"state", "sleep W", "entry", "exit",
                         "round-trip J", "break-even"});
    for (const power::SleepStateSpec &state : blade.sleepStates()) {
        const auto t_star = power::breakEvenSeconds(blade, state);
        states.addRow({state.name, stats::fmt(state.sleepPowerWatts, 1),
                       state.entryLatency.toString(),
                       state.exitLatency.toString(),
                       stats::fmt(state.roundTripEnergyJoules(), 0),
                       t_star ? sim::SimTime::seconds(*t_star).toString()
                              : "never"});
    }
    states.print(std::cout);
    std::cout << '\n';

    stats::Table verdicts("what should the host do with an idle interval?",
                          {"idle for", "best action", "energy saved",
                           "saved %"});
    for (const double secs : intervals) {
        const power::SleepStateSpec *best =
            power::bestStateForInterval(blade, secs);
        const double idle_j = power::idleEnergyJoules(blade, secs);
        const double saved =
            best ? power::sleepSavingsJoules(blade, *best, secs) : 0.0;
        verdicts.addRow({sim::SimTime::seconds(secs).toString(),
                         best ? best->name : "stay idle",
                         stats::fmt(saved, 0) + " J",
                         stats::fmtPercent(idle_j > 0 ? saved / idle_j
                                                      : 0.0, 1)});
    }
    verdicts.print(std::cout);

    std::cout << "\nPass idle durations (seconds) as arguments to query "
                 "your own intervals.\n";
    return 0;
}
