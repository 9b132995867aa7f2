#include "datacenter/topology.hpp"

#include "simcore/logging.hpp"

namespace vpm::dc {

Topology::Topology(int host_count, const TopologyConfig &config)
    : config_(config), hostCount_(host_count)
{
    if (host_count < 1)
        sim::fatal("Topology: need at least one host");
    if (config_.hostsPerRack < 1)
        sim::fatal("Topology: hosts per rack must be >= 1");
    if (config_.intraRackBandwidthMbPerSec <= 0.0 ||
        config_.interRackBandwidthMbPerSec <= 0.0) {
        sim::fatal("Topology: bandwidths must be positive");
    }
    if (config_.uplinkMigrationSlotsPerRack < 1)
        sim::fatal("Topology: need at least one uplink slot per rack");

    rackCount_ =
        (host_count + config_.hostsPerRack - 1) / config_.hostsPerRack;
    uplinkFlows_.assign(static_cast<std::size_t>(rackCount_), 0);
    uplinkEpochs_.assign(static_cast<std::size_t>(rackCount_), 0);
}

RackId
Topology::rackOf(HostId host) const
{
    if (host < 0 || host >= hostCount_)
        sim::panic("Topology::rackOf: invalid host id %d", host);
    return host / config_.hostsPerRack;
}

bool
Topology::sameRack(HostId a, HostId b) const
{
    return rackOf(a) == rackOf(b);
}

std::vector<HostId>
Topology::hostsInRack(RackId rack) const
{
    if (rack < 0 || rack >= rackCount_)
        sim::panic("Topology::hostsInRack: invalid rack id %d", rack);
    std::vector<HostId> hosts;
    for (HostId h = rack * config_.hostsPerRack;
         h < (rack + 1) * config_.hostsPerRack && h < hostCount_; ++h) {
        hosts.push_back(h);
    }
    return hosts;
}

double
Topology::bandwidthBetween(HostId a, HostId b) const
{
    return sameRack(a, b) ? config_.intraRackBandwidthMbPerSec
                          : config_.interRackBandwidthMbPerSec;
}

bool
Topology::uplinkSlotsFree(HostId a, HostId b) const
{
    if (sameRack(a, b))
        return true;
    return uplinkFlows_[static_cast<std::size_t>(rackOf(a))] <
               config_.uplinkMigrationSlotsPerRack &&
           uplinkFlows_[static_cast<std::size_t>(rackOf(b))] <
               config_.uplinkMigrationSlotsPerRack;
}

void
Topology::acquireUplink(HostId a, HostId b)
{
    if (sameRack(a, b))
        return;
    for (const RackId rack : {rackOf(a), rackOf(b)}) {
        ++uplinkFlows_[static_cast<std::size_t>(rack)];
        ++uplinkEpochs_[static_cast<std::size_t>(rack)];
    }
}

void
Topology::releaseUplink(HostId a, HostId b)
{
    if (sameRack(a, b))
        return;
    for (const RackId rack : {rackOf(a), rackOf(b)}) {
        int &flows = uplinkFlows_[static_cast<std::size_t>(rack)];
        if (flows <= 0)
            sim::panic("Topology: uplink release underflow on rack %d",
                       rack);
        --flows;
        ++uplinkEpochs_[static_cast<std::size_t>(rack)];
    }
}

int
Topology::uplinkFlows(RackId rack) const
{
    if (rack < 0 || rack >= rackCount_)
        sim::panic("Topology::uplinkFlows: invalid rack id %d", rack);
    return uplinkFlows_[static_cast<std::size_t>(rack)];
}

} // namespace vpm::dc
