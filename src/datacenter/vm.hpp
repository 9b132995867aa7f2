/**
 * @file
 * Virtual machine model.
 *
 * A Vm couples a workload spec (size + demand trace) with runtime placement
 * state. Demand is what the trace asks for; the granted amount is computed
 * by the host-level allocator each evaluation interval and may be lower when
 * capacity is short — the gap is the performance cost the SLA tracker
 * records.
 *
 * Since the FleetStore refactor the Vm is a thin view: all hot fields
 * (demand, granted, resident-host id, trace-span horizon) live in dense
 * columns of a FleetStore, indexed by the VM's id. Cluster-owned VMs share
 * the cluster's store; a standalone Vm (unit tests) owns a private
 * single-row store so the historical constructor keeps working.
 */

#ifndef VPM_DATACENTER_VM_HPP
#define VPM_DATACENTER_VM_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "datacenter/fleet_store.hpp"
#include "simcore/sim_time.hpp"
#include "workload/mix.hpp"

namespace vpm::dc {

class Host;

/** A virtual machine: immutable workload spec plus a view of its row in
 *  the fleet's hot-state columns. */
class Vm
{
  public:
    /**
     * Standalone constructor (unit tests): the Vm owns a private store.
     * @param id Cluster-assigned identifier.
     * @param spec Workload half (name, size, trace); trace must be non-null.
     */
    Vm(VmId id, workload::VmWorkloadSpec spec);

    /** Cluster constructor: the row @p id must already be registered in
     *  @p store (the cluster registers it before constructing the view). */
    Vm(VmId id, workload::VmWorkloadSpec spec, FleetStore &store);

    Vm(const Vm &) = delete;
    Vm &operator=(const Vm &) = delete;

    VmId id() const { return id_; }
    const std::string &name() const { return spec_.name; }

    /** CPU size (demand at trace level 1.0), in MHz. */
    double cpuMhz() const { return spec_.cpuMhz; }

    /** Memory footprint, in MB; drives live-migration duration. */
    double memoryMb() const { return spec_.memoryMb; }

    /** Demanded CPU at time @p t, in MHz. */
    double demandMhzAt(sim::SimTime t) const;

    /** @name Placement (maintained by Cluster) */
    ///@{
    HostId host() const { return store_->vmHost(id_); }
    bool placed() const { return host() != invalidHostId; }
    void setHost(HostId host) { store_->setVmHost(id_, host); }

    /**
     * Direct pointer to the resident host, kept in lockstep with addVm /
     * removeVm so demand and grant writes can invalidate the host's cached
     * aggregates without a cluster lookup. Null while unplaced.
     */
    Host *residentHost() const { return hostPtr_; }
    void setResidentHost(Host *host) { hostPtr_ = host; }
    ///@}

    /** @name Per-interval allocation (maintained by DatacenterSim) */
    ///@{
    /** Demand captured at the last evaluation, in MHz. */
    double currentDemandMhz() const { return store_->vmDemandMhz(id_); }

    /** Overwrite the captured demand, dropping any cached trace span. */
    void setCurrentDemandMhz(double mhz);

    /** End of the cached demand span, exclusive (exposed for tests). */
    sim::SimTime demandValidUntil() const
    {
        return sim::SimTime::micros(store_->vmValidUntilUs(id_));
    }

    /** CPU granted at the last evaluation, in MHz. */
    double grantedMhz() const { return store_->vmGrantedMhz(id_); }
    void setGrantedMhz(double mhz);
    ///@}

    /** @name Migration state (maintained by MigrationEngine) */
    ///@{
    bool migrating() const { return migrating_; }
    void setMigrating(bool migrating) { migrating_ = migrating; }
    ///@}

    /** @name Lifecycle (maintained by Cluster) */
    ///@{
    /** true once the VM has departed; it no longer demands anything. */
    bool retired() const { return retired_; }
    void setRetired() { retired_ = true; }
    ///@}

  private:
    void validateSpec() const;

    // Hot members first: the lazy host-aggregate recomputes walk Vm
    // objects reading only id_ + store_, so those sit in the first cache
    // line of the object.
    VmId id_;
    FleetStore *store_;
    Host *hostPtr_ = nullptr;
    bool migrating_ = false;
    bool retired_ = false;
    workload::VmWorkloadSpec spec_;
    std::unique_ptr<FleetStore> ownedStore_; ///< standalone ctor only
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_VM_HPP
