/**
 * @file
 * F11 — Multi-level idle hierarchy vs single-mechanism power management.
 *
 * Paper analogue: the AgilePkgC-style observation that server idle power
 * has two very different levers — seconds-scale full-system sleep (S3)
 * and microsecond-scale C-states — and that a joint speed/sleep policy
 * can combine them: C-states harvest the short idle gaps consolidation
 * leaves behind, S3 harvests the hosts consolidation empties entirely.
 *
 * Grid: {S3-only, C-states-only, joint} × the F9 exit-latency axis for
 * the deep state. Expected shape: S3-only degrades as exits get slow
 * (F9's result); C-only is latency-immune but leaves the emptied hosts
 * burning uncore power; the joint policy should be no worse than either
 * at every point and strictly better where their weaknesses differ.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "power/server_models.hpp"

namespace {

void
runBody(const vpm::bench::BenchArgs &args)
{
    using namespace vpm;

    bench::banner(
        "F11", "idle-state hierarchy: S3-only vs C-states-only vs joint",
        std::string("8 hosts, 40 VMs at 50% load scale with 30-min surges "
                    "to 80%; calibrated C1/C6/PC6 hierarchy; deep-state "
                    "exit latency swept") +
            (args.quick ? " [--quick: 6 h day, 2 sweep points]" : ""));

    mgmt::ScenarioConfig base;
    base.hostCount = 8;
    base.vmCount = 40;
    base.duration = args.quick ? sim::SimTime::hours(6.0)
                               : sim::SimTime::hours(24.0);
    base.mix.loadScale = 0.5;
    base.transformFleet = mgmt::addSurgeSchedule;
    base.manager = mgmt::makePolicy(mgmt::PolicyKind::NoPM);
    const double baseline_kwh = mgmt::runScenario(base).metrics.energyKwh;
    bench::finishPolicyTrace(args.tracePath, "NoPM");

    bench::JsonReport report(args.jsonPath, "F11");

    stats::Table table("policy grid over deep-state exit latency",
                       {"exit latency", "policy", "energy kWh", "vs NoPM",
                        "satisfaction", "SLA viol", "pwr actions",
                        "idle trans", "speed trans"});

    const auto addRow = [&](const std::string &exit_label,
                            const std::string &policy,
                            const mgmt::ScenarioResult &result) {
        table.addRow({exit_label, policy,
                      stats::fmt(result.metrics.energyKwh),
                      stats::fmtPercent(result.metrics.energyKwh /
                                        baseline_kwh, 1),
                      stats::fmtPercent(result.metrics.satisfaction, 2),
                      stats::fmtPercent(result.metrics.violationFraction,
                                        2),
                      std::to_string(result.metrics.powerActions),
                      std::to_string(result.idleTransitions),
                      std::to_string(result.jointSpeedTransitions)});
    };

    const std::vector<double> sweep =
        args.quick ? std::vector<double>{15.0, 600.0}
                   : std::vector<double>{1.0, 15.0, 120.0, 600.0};

    int joint_wins = 0;
    for (const double exit_s : sweep) {
        const std::string at = "@" + sim::SimTime::seconds(exit_s).toString();

        // S3-only: the F9 configuration. C-states-only: the same
        // manager, but drained hosts park at the bottom of the hierarchy
        // — immune to the swept exit latency, but never below the ~33 W
        // full-descent floor. Joint: parked hosts escalate to the deep
        // S-state (~12 W) once the reserve is full, while the speed/sleep
        // governor harvests the idle gaps on the hosts still serving load.
        const auto arm = [&](mgmt::IdleArm which, const std::string &tag) {
            mgmt::ScenarioConfig config = base;
            config.powerSpec = power::bladeWithSyntheticState(
                sim::SimTime::seconds(exit_s));
            mgmt::applyIdleArm(config, which);
            const mgmt::ScenarioResult result = mgmt::runScenario(config);
            bench::finishPolicyTrace(args.tracePath, tag + at);
            report.add(tag + at, result);
            return result;
        };
        const mgmt::ScenarioResult s3_result =
            arm(mgmt::IdleArm::S3Only, "S3");
        addRow(sim::SimTime::seconds(exit_s).toString(), "S3-only",
               s3_result);
        const mgmt::ScenarioResult c_result =
            arm(mgmt::IdleArm::CStatesOnly, "C");
        addRow("", "C-states-only", c_result);
        const mgmt::ScenarioResult j_result =
            arm(mgmt::IdleArm::Joint, "Joint");
        addRow("", "joint", j_result);

        const bool wins =
            j_result.metrics.energyKwh <= s3_result.metrics.energyKwh &&
            j_result.metrics.energyKwh <= c_result.metrics.energyKwh &&
            j_result.metrics.violationFraction <=
                s3_result.metrics.violationFraction &&
            j_result.metrics.violationFraction <=
                c_result.metrics.violationFraction;
        if (wins)
            ++joint_wins;
    }
    table.print(std::cout);
    report.write();

    std::printf("\njoint dominates both single-mechanism policies "
                "(energy and SLA) at %d/%zu sweep points\n",
                joint_wins, sweep.size());
    std::cout << "\nTakeaway: C-states alone cap the savings (uncore stays "
                 "hot on emptied hosts),\nS3 alone pays for its savings in "
                 "SLA once exits take minutes. Stacking the\nhierarchy "
                 "under the sleep policy keeps the deep-sleep savings "
                 "while the\nmicrosecond states absorb the idle gaps "
                 "consolidation cannot close.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const vpm::bench::BenchArgs args =
        vpm::bench::parseArgs("f11_idle_hierarchy", argc, argv);
    return vpm::bench::runBench(args, [&] { runBody(args); });
}
