/**
 * @file
 * The VM sampling kernel of DatacenterSim::evaluate(), on its own so it
 * can be tested against per-sample record()/add() calls and compiled with
 * its own flags (see CMakeLists.txt).
 */

#ifndef VPM_DATACENTER_SAMPLE_PASS_HPP
#define VPM_DATACENTER_SAMPLE_PASS_HPP

#include <cstddef>
#include <cstdint>

#include "datacenter/fleet_store.hpp"
#include "stats/sla_tracker.hpp"
#include "telemetry/event_journal.hpp"
#include "telemetry/timeseries.hpp"

namespace vpm::dc {

/** Utilization cap of the M/M/1-style latency model (keeps 1/(1-rho)
 *  finite); a host that cannot run its VMs is treated as pinned here. */
inline constexpr double kUtilizationCap = 0.95;

/** Latency factor of a fully starved VM — the model's ceiling, and the
 *  value substituted when a VM carries a stale/out-of-range host id. */
inline constexpr double kStarvedLatencyFactor = 1.0 / (1.0 - kUtilizationCap);

/**
 * Plain running sum of the latency factor over VM samples with demand > 0;
 * RunMetrics::meanLatencyFactor is sum / count.
 */
struct LatencySum
{
    double sum = 0.0;
    std::uint64_t count = 0;

    void merge(const LatencySum &other)
    {
        sum += other.sum;
        count += other.count;
    }
};

/** Where one range of the VM sampling pass lands (see sampleVmRange). */
struct VmSampleSinks
{
    /** One sample of (demand, granted) per VM; its threshold decides
     *  which samples are SLA violations. */
    stats::SlaTracker &sla;
    /** The latency factor of every VM with demand > 0. */
    LatencySum &latency;
    /** With journalOn, violations are staged here, or journaled straight
     *  into the global journal when this is null. */
    telemetry::JournalStage *stage = nullptr;
    bool journalOn = false;
    /** Violation satisfactions go to series violationSeries; null for
     *  none. */
    telemetry::SeriesRecorder *seriesRec = nullptr;
    std::uint32_t violationSeries = 0;
};

/**
 * The VM sampling kernel of DatacenterSim::evaluate(): one SLA sample for
 * each of the @p n VMs in @p ids and, when its demand is > 0, its latency
 * factor into the sum, read straight from @p fleet's demand, granted,
 * host and latency-factor columns. A VM whose host id lies outside
 * [0, hostCount) reads kStarvedLatencyFactor. The running state stays in
 * locals across the range (SlaTracker::Batch) and is written back once
 * at the end; the result is bit-identical to per-sample record() calls
 * and a plain `sum += factor` loop.
 */
void sampleVmRange(const FleetStore &fleet, const VmId *ids, std::size_t n,
                   std::int64_t now_us, const VmSampleSinks &sinks);

} // namespace vpm::dc

#endif // VPM_DATACENTER_SAMPLE_PASS_HPP
