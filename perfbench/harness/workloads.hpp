/**
 * @file
 * The benchmark's three fleet-day workloads, built from the libraries'
 * public API.
 *
 *  - fleet_day: the hyperscale rig (shared step traces, striped
 *    placement, hierarchical manager, per-host idle governors). Stresses
 *    the event core and the datacenter sample pass.
 *  - replay_day: a replay::ReplaySession streaming a seeded vpm-trace-1
 *    file, paused at midday for a checkpoint capture. Stresses replay
 *    decode and the workload refresh.
 *  - consolidation: the paper's PM+S3 policy over an enterprise mix, with
 *    the journal, the time-series store and a watchdog on. Stresses the
 *    manager, placement and migration.
 *
 * Every workload returns its policy outcome, its set-up and run times and
 * the invariant violations it found. With a SpanRecorder it also brackets
 * the calls into each layer and fills RunReport::layers with unit costs.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload
{
    FleetDay,
    ReplayDay,
    Consolidation,
};

/** Parse a workload name; false if unknown. */
bool parseWorkload(const std::string &name, Workload &out);
const char *workloadName(Workload workload);

struct WorkloadOptions
{
    std::uint64_t seed = 1;
    int hosts = 0; ///< 0 = the workload's benchmark size
    int vms = 0;   ///< 0 = the workload's benchmark size
    std::string tracePath;    ///< replay_day: the vpm-trace-1 input
    std::string watchdogPath; ///< consolidation: watchdog rule file
    std::string snapshotPath; ///< consolidation: vpm-ts-1 snapshot target
    bool telemetry = true;    ///< consolidation: journal + store on
};

struct RunReport
{
    /** Build the fleet and session, up to the first event. */
    double setupS = 0.0;
    double runS = 0.0;   ///< simulate the day
    vpm::mgmt::ScenarioResult result;
    std::vector<std::string> violations; ///< broken invariants

    /** Per-layer metrics (traced runs only), by BENCHMARK.json name. */
    std::map<std::string, double> layers;

    /** Untimed facts reported beside the metrics (sizes, windows). */
    std::map<std::string, double> facts;
};

/** Run one workload once. @p tracer null = the untraced headline run. */
RunReport runWorkload(Workload workload, const WorkloadOptions &options,
                      SpanRecorder *tracer);

/**
 * FNV-1a digest of the policy outcome: energy, satisfaction, SLA
 * violation, p95 latency factor, migrations, power actions, average hosts
 * on, wakes and idle transitions. Event counts are deliberately left out:
 * an event-core redesign may change them without changing any policy
 * decision.
 */
std::uint64_t outcomeDigest(const vpm::mgmt::ScenarioResult &result);

/** The consolidation workload's scenario, as mgmt::runScenario takes it. */
vpm::mgmt::ScenarioConfig consolidationScenario(std::uint64_t seed,
                                                int hosts, int vms);

/** replay_day's VM count, and so the series count of its input. */
constexpr int kReplayDayVms = 100000;

/**
 * Write replay_day's input: one series per VM, a seeded day/night plateau
 * sampled every 15 minutes with jitter, default chunk size.
 * @return false with @p error set on I/O failure.
 */
bool generateReplayTrace(const std::string &path, int vms,
                         std::uint64_t seed, std::string *error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
