/**
 * @file
 * Physical host model: capacities, resident VMs, power FSM and energy meter.
 *
 * The host is where the power substrate meets the virtualization substrate:
 * its PowerStateMachine says whether VMs can run, and its EnergyMeter
 * integrates the exact piecewise-constant power draw (re-held on every
 * demand re-evaluation and every FSM phase change).
 *
 * Since the FleetStore refactor the Host is a thin view: the hot fields
 * (aggregate caches + dirty flags, migration overhead, frequency fraction,
 * phase byte, held-watts mirror) live in dense columns of a FleetStore
 * indexed by the host's id. Cluster-owned hosts share the cluster's store;
 * a standalone Host (unit tests) owns a private store so the historical
 * constructor keeps working. The lazy aggregate recomputes iterate the
 * resident Vm objects — never vmIds() — so they stay correct even when a
 * standalone VM from a foreign store is added; the id list is for the
 * shared-store fast paths in DatacenterSim only.
 */

#ifndef VPM_DATACENTER_HOST_HPP
#define VPM_DATACENTER_HOST_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "power/energy_meter.hpp"
#include "power/power_state_machine.hpp"
#include "simcore/simulator.hpp"
#include "datacenter/vm.hpp"

namespace vpm::power {
class IdleHierarchy;
}

namespace vpm::dc {

/** Sizing of a host (identical across a homogeneous cluster). */
struct HostConfig
{
    /** Total CPU capacity, in MHz (e.g. 16 cores x 2 GHz = 32000). */
    double cpuCapacityMhz = 32000.0;

    /** Total memory, in MB. */
    double memoryCapacityMb = 131072.0;
};

/** A physical server: capacity + resident VMs + power state + energy. */
class Host
{
  public:
    /**
     * Standalone constructor (unit tests): the host owns a private store.
     * @param simulator Owning event loop.
     * @param id Cluster-assigned identifier.
     * @param name Stable name, e.g. "host07".
     * @param config Capacities.
     * @param power_spec Power model; must outlive the host.
     */
    Host(sim::Simulator &simulator, HostId id, std::string name,
         const HostConfig &config, const power::HostPowerSpec &power_spec);

    /** Cluster constructor: the row @p id must already be registered in
     *  @p store (the cluster registers it before constructing the view). */
    Host(sim::Simulator &simulator, HostId id, std::string name,
         const HostConfig &config, const power::HostPowerSpec &power_spec,
         FleetStore &store);

    Host(const Host &) = delete;
    Host &operator=(const Host &) = delete;

    ~Host(); // out-of-line: idleHierarchy_ is an incomplete type here

    HostId id() const { return id_; }
    const std::string &name() const { return name_; }

    double cpuCapacityMhz() const { return config_.cpuCapacityMhz; }
    double memoryCapacityMb() const { return config_.memoryCapacityMb; }

    /** The store this host's row lives in (the cluster's, or private). */
    FleetStore &fleet() { return *store_; }
    const FleetStore &fleet() const { return *store_; }

    /** @name Power */
    ///@{
    power::PowerStateMachine &powerFsm() { return fsm_; }
    const power::PowerStateMachine &powerFsm() const { return fsm_; }

    /** true iff the host can run VMs right now: the store's phase byte,
     *  which this host's first FSM observer keeps equal to
     *  powerFsm().isOn(). */
    bool isOn() const { return store_->hostIsOn(id_); }

    /** Lifetime energy, integrated exactly. */
    const power::EnergyMeter &meter() const { return meter_; }

    /**
     * Re-hold the energy meter at the current power draw. Must be called
     * whenever granted CPU changes; FSM phase changes re-hold automatically.
     */
    void updatePowerDraw();

    /** Instantaneous power draw at the current utilization, in watts. */
    double powerWatts() const;

    /** Close out the meter at @p t (end of a measurement window). */
    void finishMetering(sim::SimTime t);

    /**
     * Attach a per-host idle-state hierarchy (core C-states + package
     * states nested under the FSM — see power/idle_hierarchy.hpp). The
     * host wires it up: transition energy impulses charge the meter,
     * hierarchy savings subtract from the On power draw, and the FSM's
     * phase changes pause/resume it. At most one hierarchy per host.
     */
    void attachIdleHierarchy(std::unique_ptr<power::IdleHierarchy> hierarchy);

    /** The attached hierarchy, or nullptr. */
    power::IdleHierarchy *idleHierarchy() { return idleHierarchy_.get(); }
    const power::IdleHierarchy *idleHierarchy() const
    {
        return idleHierarchy_.get();
    }

    /**
     * One idle-governor tick, the OS tick of a per-host governor: report
     * the busy cores implied by granted utilization to the attached
     * hierarchy and ask for full descent of the rest (the hierarchy
     * clamps and gates). No-op without an active hierarchy, and a tick
     * that would change nothing commands nothing, so steady-state ticks
     * journal no phantom transitions. Callers own the tick cadence.
     */
    void idleGovernorTick();
    ///@}

    /** @name DVFS (maintained by the frequency controller) */
    ///@{
    /**
     * Current frequency as a fraction of nominal, in (0, 1]. Scales the
     * usable CPU capacity linearly and the *dynamic* power quadratically:
     * P = idle + (curve(util) - idle) x f^2, with util measured against
     * the scaled capacity. f = 1 reproduces the plain curve.
     */
    double frequencyFraction() const
    {
        return store_->hostFrequencyFraction(id_);
    }

    /** Set the frequency fraction; must be in (0, 1]. Re-holds power. */
    void setFrequencyFraction(double fraction);

    /** Usable CPU capacity at the current frequency, in MHz. */
    double effectiveCpuCapacityMhz() const
    {
        return store_->hostEffectiveCapacityMhz(id_);
    }
    ///@}

    /** @name Resident VMs (maintained by Cluster) */
    ///@{
    const std::vector<Vm *> &vms() const { return vms_; }

    /** Resident VM ids, in the same order as vms(). Only meaningful when
     *  every resident VM shares this host's store (cluster-owned fleets);
     *  DatacenterSim's store-direct allocator iterates this instead of
     *  the object list. */
    const std::vector<VmId> &vmIds() const { return vmIds_; }

    void addVm(Vm &vm);
    void removeVm(Vm &vm);
    bool empty() const { return vms_.empty(); }
    ///@}

    /** @name Aggregate load */
    ///@{
    /** Sum of resident VMs' current demand, in MHz (excludes overhead). */
    double vmDemandMhz() const;

    /** Sum of resident VMs' granted CPU, in MHz: the store's cached
     *  aggregate, recomputed only while kGrantedDirty is set. */
    double grantedMhz() const
    {
        if (store_->hostFlags(id_) & FleetStore::kGrantedDirty)
            return recomputeGrantedMhz();
        return store_->hostGrantedCacheMhz(id_);
    }

    /** Sum of resident VMs' memory, in MB. */
    double committedMemoryMb() const;

    /**
     * Memory reserved for in-flight inbound migrations, in MB. Counted by
     * every placement-side memory check so concurrent inbound migrations
     * and new-VM placements cannot jointly overcommit the host.
     */
    double inboundReservedMemoryMb() const
    {
        return inboundReservedMemoryMb_;
    }
    void adjustInboundReservedMemoryMb(double delta_mb);

    /** Migration CPU overhead currently charged to this host, in MHz. */
    double migrationOverheadMhz() const
    {
        return store_->hostMigrationOverheadMhz(id_);
    }
    void addMigrationOverheadMhz(double mhz);

    /**
     * Utilization used for the power curve: (granted + migration overhead)
     * / capacity, clamped to [0, 1]. Zero when the host is not On. Reads
     * only store columns (phase, flags, granted, overhead, capacity).
     */
    double utilization() const
    {
        if (!isOn())
            return 0.0;
        const double busy = grantedMhz() + migrationOverheadMhz();
        return std::clamp(busy / effectiveCpuCapacityMhz(), 0.0, 1.0);
    }

    /** Demand-based utilization (requested / capacity), for the manager. */
    double demandUtilization() const;

    /** Number of in-flight migrations touching this host (src or dst). */
    int activeMigrations() const { return activeMigrations_; }
    void adjustActiveMigrations(int delta);
    ///@}

    /**
     * Admission epoch: bumped whenever an input of the migration engine's
     * admission checks on this host may have changed — membership,
     * in-flight migration count, inbound memory reservation, power phase,
     * and (through bumpAdmissionEpoch) the engine's own bookkeeping of a
     * resident VM. A queued migration whose endpoints' epochs have not
     * moved since it last waited would wait again (see DESIGN.md).
     */
    std::uint64_t admissionEpoch() const { return admissionEpoch_; }
    void bumpAdmissionEpoch() { ++admissionEpoch_; }

    /** @name Incremental bookkeeping (see DESIGN.md) */
    ///@{
    /** A resident VM's demand changed: demand aggregate + grants stale.
     *  Main-thread entry point, so it also queues the host for the next
     *  reallocate() drain (the sharded refresh kernel marks flags only —
     *  evaluate() itself services those). */
    void markLoadChanged()
    {
        store_->markHost(id_,
                         FleetStore::kDemandDirty | FleetStore::kAllocDirty);
        store_->queueAllocDirty(id_);
    }

    /** A resident VM's granted CPU changed: granted aggregate stale. */
    void markGrantedChanged()
    {
        store_->markHost(id_, FleetStore::kGrantedDirty);
    }

    /**
     * true when the per-VM grants may differ from what an allocation pass
     * would produce now — set by demand, membership, migration-overhead,
     * frequency, and power-phase changes; cleared by DatacenterSim after
     * it re-runs the allocator on this host.
     */
    bool allocDirty() const
    {
        return (store_->hostFlags(id_) & FleetStore::kAllocDirty) != 0;
    }
    void clearAllocDirty()
    {
        store_->clearHostFlags(id_, FleetStore::kAllocDirty);
    }
    ///@}

  private:
    void init(const power::HostPowerSpec &power_spec);

    /** grantedMhz()'s dirty branch: re-sum the resident VMs' grants into
     *  the store (marking it clean) and return the sum. */
    double recomputeGrantedMhz() const;

    /** A VM arrived or departed: every cached aggregate is stale. */
    void markMembershipChanged()
    {
        store_->markHost(id_, FleetStore::kAllDirty);
        store_->queueAllocDirty(id_);
    }

    // The idle governor's tick reads only these three (the rest of its
    // state is in store columns), so they lead the object: one cache line.
    HostId id_;
    FleetStore *store_;
    std::unique_ptr<power::IdleHierarchy> idleHierarchy_;
    sim::Simulator &simulator_;
    std::string name_;
    HostConfig config_;
    power::PowerStateMachine fsm_;
    power::EnergyMeter meter_;
    std::unique_ptr<FleetStore> ownedStore_; ///< standalone ctor only
    std::vector<Vm *> vms_;
    std::vector<VmId> vmIds_; ///< parallel to vms_
    double inboundReservedMemoryMb_ = 0.0;
    int activeMigrations_ = 0;
    std::uint64_t admissionEpoch_ = 0;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_HOST_HPP
