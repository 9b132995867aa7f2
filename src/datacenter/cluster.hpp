/**
 * @file
 * Cluster: the container that owns hosts and VMs and enforces the safety
 * rules of placement and power actions.
 *
 * All placement mutations and all power commands go through the Cluster so
 * a single choke point can enforce the invariants the paper's management
 * stack relies on: VMs live only on powered-on hosts, hosts are only
 * suspended when empty and quiescent, and memory is never oversubscribed.
 */

#ifndef VPM_DATACENTER_CLUSTER_HPP
#define VPM_DATACENTER_CLUSTER_HPP

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "datacenter/fleet_store.hpp"
#include "datacenter/host.hpp"
#include "datacenter/vm.hpp"
#include "power/power_state.hpp"
#include "simcore/simulator.hpp"

namespace vpm::dc {

/** Owns the hosts and VMs of one simulated cluster. */
class Cluster
{
  public:
    explicit Cluster(sim::Simulator &simulator);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** @name Construction */
    ///@{
    /**
     * Add a host. The cluster keeps one copy of each distinct power spec
     * (HostPowerSpec::sameAs) and every host of that spec refers to it, so
     * heterogeneous clusters are supported and a homogeneous fleet holds
     * one spec.
     * @return The new host (stable reference).
     */
    Host &addHost(const HostConfig &config,
                  const power::HostPowerSpec &power_spec);

    /** Add a VM (initially unplaced). @return The new VM. */
    Vm &addVm(workload::VmWorkloadSpec spec);
    ///@}

    /** @name Access */
    ///@{
    std::size_t hostCount() const { return hosts_.size(); }
    std::size_t vmCount() const { return vms_.size(); }

    Host &host(HostId id);
    const Host &host(HostId id) const;
    Vm &vm(VmId id);
    const Vm &vm(VmId id) const;

    /** All hosts, in id order. */
    const std::vector<std::unique_ptr<Host>> &hosts() const
    {
        return hosts_;
    }

    /** All VMs, in id order. */
    const std::vector<std::unique_ptr<Vm>> &vms() const { return vms_; }

    sim::Simulator &simulator() { return simulator_; }

    /** The struct-of-arrays hot state every host/VM view points into. */
    FleetStore &fleet() { return fleet_; }
    const FleetStore &fleet() const { return fleet_; }
    ///@}

    /** @name Placement */
    ///@{
    /**
     * Place an unplaced VM on a host. The host must be On and must have
     * memory headroom; violations are fatal (config error) since initial
     * placement is scripted by the experiment.
     */
    void placeVm(VmId vm, HostId host);

    /**
     * Move a placed VM between hosts instantaneously. This is the
     * mechanism-level primitive used by the MigrationEngine at migration
     * completion; management code must go through the engine instead.
     * The destination must be On and have memory headroom (panic if not —
     * the engine validates before starting).
     */
    void moveVm(VmId vm, HostId dest);

    /** true if @p host has memory headroom for @p vm. */
    bool memoryFits(const Vm &vm, const Host &host) const;

    /**
     * Retire a VM (it departed): remove it from its host and zero its
     * demand. Illegal while the VM is migrating (panic) — callers defer
     * until the migration lands. Unplaced VMs may retire directly.
     */
    void retireVm(VmId vm);
    ///@}

    /** @name Power commands (safety-checked) */
    ///@{
    /**
     * Ask a host to enter a sleep state. Refused (returns false, with a
     * warning) unless the host is On, has no resident VMs, and has no
     * in-flight migrations.
     */
    bool requestHostSleep(HostId host, const std::string &state_name);

    /** Ask a sleeping/suspending host to come back. */
    bool requestHostWake(HostId host);
    ///@}

    /** @name Aggregates */
    ///@{
    /** Sum of all VMs' current demand, in MHz. */
    double totalVmDemandMhz() const;

    /** Sum of CPU capacity over hosts that are On, in MHz. */
    double onCpuCapacityMhz() const;

    /** Sum of CPU capacity over all hosts, in MHz. */
    double totalCpuCapacityMhz() const;

    int hostsOn() const;
    int hostsAsleep() const;
    int hostsTransitioning() const;

    /** Instantaneous total power draw, in watts. */
    double totalPowerWatts() const;

    /** Total energy over all host meters, in joules. */
    double totalEnergyJoules() const;

    /** Total sleep + wake commands accepted across all hosts. */
    std::uint64_t powerActionCount() const;

    /** Close out every host's meter at @p t. */
    void finishMetering(sim::SimTime t);
    ///@}

    /**
     * Monotone counter bumped whenever the membership of the placement
     * problem changes (host added, VM added, placed, or retired). A holder
     * of a derived placement model rebuilds from scratch when the epoch
     * moved and refreshes in place otherwise; moves and power transitions
     * are per-entity field changes, not membership changes.
     */
    std::uint64_t placementEpoch() const { return placementEpoch_; }

  private:
    sim::Simulator &simulator_;
    /** Declared before the views that point into it. */
    FleetStore fleet_;
    std::vector<std::unique_ptr<Host>> hosts_;
    std::vector<std::unique_ptr<Vm>> vms_;
    /** One entry per distinct spec; a deque so references stay put. */
    std::deque<power::HostPowerSpec> powerSpecs_;
    std::uint64_t placementEpoch_ = 0;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_CLUSTER_HPP
