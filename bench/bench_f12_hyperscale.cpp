/**
 * @file
 * F12 — Hyperscale fleet mode: 100k hosts / 1M VMs through the SoA fleet
 * store and the hierarchical rack/pod manager, with every host's idle
 * governor ticking every 5 minutes.
 *
 * Paper analogue: the scalability claim behind the management design —
 * power management that stays cheap enough to run fleet-wide. F7 shows
 * the *policy* is flat with scale at hundreds of hosts; F12 shows the
 * *engine* holds at datacenter scale: the struct-of-arrays fleet store,
 * the dirty-range evaluation, and rack-level triage keep per-cycle cost
 * proportional to what changed, not to fleet size.
 *
 * The fleet is built directly (no runScenario): first-fit placement and
 * per-VM diurnal traces are O(fleet) per tick and would measure the
 * scaffolding, not the engine. The placed fleet then runs under the
 * shared mgmt::Rig. Instead of runScenario's fleet:
 *
 *  - VMs share a small set of piecewise-constant day/night step traces
 *    (staggered ramps), so demand refresh is span-skip cheap and the
 *    day/night swing still drives real sleep/wake waves.
 *  - VMs are striped over the first 80% of hosts; the empty tail is the
 *    consolidation headroom the hierarchical manager sleeps at night and
 *    re-wakes for the morning ramp.
 *  - Every host's idle governor ticks on a staggered 5-minute cadence —
 *    the OS tick that reports busy cores to the C-state hierarchy and
 *    demotes the idle ones: 100k hosts x 288 ticks/day = 28.8M ticks per
 *    simulated day. The rig sweeps each whole-second cohort of hosts in
 *    one event (300 cohorts x 288 = 86,400 events/day), so the table's
 *    "sim events" column counts cohort sweeps, evaluations and manager
 *    events, not ticks.
 *
 * Determinism: everything is scheduled from the main thread; evaluation
 * threads only touch shard-ordered folds, so the policy table, --json
 * report and --timeseries snapshot are byte-identical at any --threads.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "power/server_models.hpp"
#include "workload/demand_trace.hpp"

namespace {

void
runBody(const vpm::bench::BenchArgs &args)
{
    using namespace vpm;

    // Full: the paper-scale fleet. Quick: same dynamics at CI cost.
    const int hosts =
        args.hosts > 0 ? args.hosts : (args.quick ? 5000 : 100000);
    const int vms = args.vms > 0 ? args.vms : hosts * 10;
    const sim::SimTime duration = sim::SimTime::hours(24.0);

    bench::banner(
        "F12", "hyperscale fleet: SoA store + rack/pod hierarchy",
        std::to_string(hosts) + " hosts, " + std::to_string(vms) +
            " VMs, 24 h day/night cycle; striped placement with a 20% "
            "empty tail; per-host idle governors on a 5-min cadence" +
            (args.quick ? " [--quick: 5k hosts]" : ""));

    mgmt::ScenarioConfig config;
    config.idleHierarchy = power::modernIdleHierarchy();
    // 5-minute evaluation: at 1M VMs the per-tick sample pass is the cost
    // ceiling; fleet-scale management does not need a 1-minute loop.
    config.datacenter.evaluationInterval = sim::SimTime::minutes(5.0);
    config.manager.hierarchical = true;
    config.manager.hostsPerRack = 32;
    config.manager.racksPerPod = 16;
    config.manager.period = sim::SimTime::minutes(15.0);
    config.manager.loadBalance = false; // no migrations at fleet scale

    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    for (int h = 0; h < hosts; ++h)
        cluster.addHost(config.hostConfig, config.powerSpec);

    // A handful of shared day/night step traces with staggered ramps:
    // demand climbs 0.15 -> 0.90 between 06:00 and 09:45 and falls back
    // between 18:00 and 21:45 as the phase groups flip one by one.
    constexpr int kPhaseGroups = 16;
    constexpr double kNightUtil = 0.15;
    constexpr double kDayUtil = 0.90;
    std::vector<workload::TracePtr> patterns;
    patterns.reserve(kPhaseGroups);
    for (int g = 0; g < kPhaseGroups; ++g) {
        const double shift = 0.25 * g;
        patterns.push_back(std::make_shared<workload::StepTrace>(
            std::vector<workload::StepTrace::Step>{
                {sim::SimTime(), kNightUtil},
                {sim::SimTime::hours(6.0 + shift), kDayUtil},
                {sim::SimTime::hours(18.0 + shift), kNightUtil}}));
    }

    // Striped placement over the first 80% of hosts: ~12.5 VMs per loaded
    // host peaks near 70% utilization (no SLA pressure), and the empty
    // tail is the sleep material the manager works with.
    const int loaded_hosts = std::max(1, hosts * 4 / 5);
    for (int v = 0; v < vms; ++v) {
        workload::VmWorkloadSpec spec;
        spec.name = "vm" + std::to_string(v);
        spec.cpuMhz = 2000.0;
        spec.memoryMb = 2048.0;
        spec.trace = patterns[static_cast<std::size_t>(v) % patterns.size()];
        const dc::Vm &vm = cluster.addVm(std::move(spec));
        cluster.placeVm(vm.id(),
                        static_cast<dc::HostId>(v % loaded_hosts));
    }

    // The first evaluation is scheduled ahead of the governor cohort.
    mgmt::Rig rig(simulator, cluster, config);
    rig.dcsim().start();
    rig.startIdleGovernors(sim::SimTime::minutes(5.0));
    simulator.runUntil(simulator.now() + duration);
    const mgmt::ScenarioResult result = rig.collect();

    bench::JsonReport report(args.jsonPath, "F12");
    report.add("Hier@" + std::to_string(hosts), result);
    report.write();

    // Wall-clock numbers live in --bench-json, never in this table: the
    // table must be byte-identical across runs and --threads values.
    const int racks =
        (hosts + static_cast<int>(config.manager.hostsPerRack) - 1) /
        static_cast<int>(config.manager.hostsPerRack);
    stats::Table table(
        "hyperscale fleet day",
        {"hosts", "VMs", "racks", "energy kWh", "satisfaction",
         "SLA viol", "avg hosts on", "sleeps", "wakes", "idle trans",
         "sim events"});
    table.addRow({std::to_string(hosts), std::to_string(vms),
                  std::to_string(racks),
                  stats::fmt(result.metrics.energyKwh),
                  stats::fmtPercent(result.metrics.satisfaction, 2),
                  stats::fmtPercent(result.metrics.violationFraction, 2),
                  stats::fmt(result.metrics.averageHostsOn, 1),
                  std::to_string(result.manager.sleepsIssued),
                  std::to_string(result.manager.wakesIssued),
                  std::to_string(result.idleTransitions),
                  std::to_string(result.eventsProcessed)});
    table.print(std::cout);

    std::cout << "\nTakeaway: one management stack drives the whole fleet "
                 "through rack-level\naggregates — the nightly trough "
                 "sleeps the empty tail, the morning ramp wakes\nit back — "
                 "while the engine sustains fleet-of-governors event rates "
                 "(use\n--bench-json for the measured events/sec).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const vpm::bench::BenchArgs args =
        vpm::bench::parseArgs("f12_hyperscale", argc, argv);
    return vpm::bench::runBench(args, [&] { runBody(args); });
}
