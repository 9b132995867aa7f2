#include "datacenter/sample_pass.hpp"

#include "telemetry/telemetry.hpp"

namespace vpm::dc {

void
sampleVmRange(const FleetStore &fleet, const VmId *ids, std::size_t n,
              std::int64_t now_us, const VmSampleSinks &sinks)
{
    // Store-direct: raw columns, no Vm object. The batch and the locals
    // keep every running total in registers: stores through the sinks'
    // own members could alias the column loads, so per-sample record()
    // calls would round-trip each total through memory.
    const double *demand_col = fleet.vmDemandData();
    const double *granted_col = fleet.vmGrantedData();
    const HostId *host_col = fleet.vmHostData();
    const double *factor_col = fleet.latencyFactorData();
    const std::size_t host_count = fleet.hostCount();
    const double threshold = sinks.sla.threshold();
    stats::SlaTracker::Batch sla(sinks.sla);
    double latency_sum = sinks.latency.sum;
    std::uint64_t latency_count = sinks.latency.count;
    for (std::size_t k = 0; k < n; ++k) {
        const auto v = static_cast<std::size_t>(ids[k]);
        const double demand = demand_col[v];
        const double sat = sla.record(demand, granted_col[v]);

        // Journal each sample that falls below the SLA threshold, and fold
        // its satisfaction into the violation series (whose per-bucket
        // `count` channel is the violation rate the watchdog watches).
        if (demand > 0.0 && sat < threshold) {
            if (sinks.seriesRec)
                sinks.seriesRec->record(sinks.violationSeries, sat);
            if (sinks.journalOn) {
                if (sinks.stage)
                    sinks.stage->slaViolation(now_us, ids[k], sat, demand);
                else
                    telemetry::global().journal().slaViolation(
                        now_us, ids[k], sat, demand);
            }
        }

        // Response-time inflation of the VM's host, M/M/1-style. Starved
        // VMs (host off, or rho pinned at the cap) land at the ceiling —
        // as does a VM carrying a stale host id (e.g. its host was just
        // removed), which used to index the factor array out of bounds.
        if (demand > 0.0) {
            const HostId host_id = host_col[v];
            const auto host_index = static_cast<std::size_t>(host_id);
            latency_sum += host_id >= 0 && host_index < host_count
                               ? factor_col[host_index]
                               : kStarvedLatencyFactor;
            ++latency_count;
        }
    }
    sla.commit();
    sinks.latency.sum = latency_sum;
    sinks.latency.count = latency_count;
}

} // namespace vpm::dc
