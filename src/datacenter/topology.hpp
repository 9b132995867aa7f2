/**
 * @file
 * Rack-level network topology.
 *
 * At scale-out sizes the network stops being flat: migrations inside a
 * rack ride the top-of-rack switch at full line rate, while cross-rack
 * migrations share a slower uplink with limited concurrency. Both effects
 * shape consolidation cost — the paper's scale-out argument assumes the
 * manager's migration traffic stays cheap, which rack-affine placement
 * helps guarantee (the E6 experiment).
 *
 * Hosts are assigned to racks in contiguous blocks. The topology also
 * does the uplink slot accounting the MigrationEngine consults.
 */

#ifndef VPM_DATACENTER_TOPOLOGY_HPP
#define VPM_DATACENTER_TOPOLOGY_HPP

#include <cstdint>
#include <vector>

#include "datacenter/vm.hpp"

namespace vpm::dc {

/** Rack identifier (dense, starting at 0). */
using RackId = int;

/** Network shape knobs. */
struct TopologyConfig
{
    /** Hosts per rack; the last rack may be partial. Must be >= 1. */
    int hostsPerRack = 8;

    /** Per-stream bandwidth within a rack, in MB/s (ToR line rate). */
    double intraRackBandwidthMbPerSec = 1100.0;

    /** Per-stream bandwidth across racks, in MB/s (shared uplink). */
    double interRackBandwidthMbPerSec = 450.0;

    /** Concurrent cross-rack migrations each rack's uplink sustains. */
    int uplinkMigrationSlotsPerRack = 2;
};

/** Static rack assignment plus dynamic uplink slot accounting. */
class Topology
{
  public:
    /**
     * @param host_count Number of hosts, assigned to racks in blocks of
     *        config.hostsPerRack.
     */
    Topology(int host_count, const TopologyConfig &config = {});

    int rackCount() const { return rackCount_; }
    RackId rackOf(HostId host) const;
    bool sameRack(HostId a, HostId b) const;

    /** Hosts assigned to @p rack, in id order. */
    std::vector<HostId> hostsInRack(RackId rack) const;

    /** Per-stream migration bandwidth between two hosts, in MB/s. */
    double bandwidthBetween(HostId a, HostId b) const;

    /** @name Uplink slot accounting (cross-rack flows only) */
    ///@{
    /** true if both endpoints' racks can carry one more cross-rack flow.
     *  Always true for same-rack pairs. */
    bool uplinkSlotsFree(HostId a, HostId b) const;

    /** Reserve one cross-rack flow on both racks' uplinks (no-op for
     *  same-rack pairs). */
    void acquireUplink(HostId a, HostId b);

    /** Release a previously acquired flow (no-op for same-rack pairs). */
    void releaseUplink(HostId a, HostId b);

    /** Cross-rack flows currently charged to @p rack's uplink. */
    int uplinkFlows(RackId rack) const;

    /** Bumped on every acquire and release charged to @p rack: the
     *  migration engine's admission gate for uplinkSlotsFree(). */
    std::uint64_t uplinkEpoch(RackId rack) const
    {
        return uplinkEpochs_[static_cast<std::size_t>(rack)];
    }
    ///@}

    const TopologyConfig &config() const { return config_; }

  private:
    TopologyConfig config_;
    int hostCount_;
    int rackCount_;
    std::vector<int> uplinkFlows_;
    std::vector<std::uint64_t> uplinkEpochs_;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_TOPOLOGY_HPP
