/**
 * @file
 * FleetStore: the dense struct-of-arrays home of all per-host and per-VM
 * hot state.
 *
 * The per-tick evaluation passes used to chase `Host*`/`Vm*` pointers
 * through per-object caches; at 100k hosts that walk is a TLB/cache-miss
 * parade. The store keeps every field those passes touch — per-VM demand,
 * granted CPU, resident host, trace-span horizon; per-host aggregate
 * caches, dirty flags, latency factor, capacity, power-phase byte — in
 * parallel arrays indexed by the cluster's dense `HostId`/`VmId`, so the
 * sharded scans in DatacenterSim::evaluate() become branch-light linear
 * sweeps over contiguous memory. `Host` and `Vm` stay as thin views over
 * the store (see host.hpp / vm.hpp), so the manager, migration engine and
 * telemetry APIs are unchanged.
 *
 * Allocation is slab-wise: all columns of an entity kind grow together
 * under one geometric capacity, so registering N entities costs O(log N)
 * allocations total and the columns stay individually contiguous.
 *
 * Thread-safety contract (matches the evaluation engine's sharding):
 *  - registration and the alloc-dirty queue are main-thread only;
 *  - the per-host flag bytes are atomic — the flat VM demand-refresh pass
 *    marks hosts from VM-id-sharded workers, i.e. across host shards;
 *  - all other columns follow the owner-shard rule: a worker touches only
 *    rows of the entities its shard owns.
 */

#ifndef VPM_DATACENTER_FLEET_STORE_HPP
#define VPM_DATACENTER_FLEET_STORE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vpm::workload {
class DemandTrace;
}

namespace vpm::dc {

/** Dense, stable VM identifier within a Cluster. */
using VmId = int;

/** Dense, stable host identifier within a Cluster. */
using HostId = int;

/** Sentinel for "no host". */
inline constexpr HostId invalidHostId = -1;

/** Struct-of-arrays hot state for one fleet of hosts and VMs. */
class FleetStore
{
  public:
    /** @name Per-host dirty-flag bits (see DESIGN.md) */
    ///@{
    static constexpr std::uint8_t kDemandDirty = 1u << 0;
    static constexpr std::uint8_t kGrantedDirty = 1u << 1;
    static constexpr std::uint8_t kMemoryDirty = 1u << 2;
    static constexpr std::uint8_t kAllocDirty = 1u << 3;
    /**
     * The host's latency factor must be recomputed, but its allocation is
     * still valid. Set by mutations that move a factor input without
     * touching grants — today only idle-hierarchy state transitions, whose
     * wake latency feeds the factor. Deliberately NOT part of kAllDirty:
     * forcing a reallocation would insert extra power-meter updates and
     * change the energy integral's summation points.
     */
    static constexpr std::uint8_t kFactorDirty = 1u << 4;
    static constexpr std::uint8_t kAllDirty =
        kDemandDirty | kGrantedDirty | kMemoryDirty | kAllocDirty;
    ///@}

    FleetStore() = default;
    FleetStore(const FleetStore &) = delete;
    FleetStore &operator=(const FleetStore &) = delete;

    /** @name Registration (main thread)
     *
     * Clusters register ids densely in order; a standalone Host/Vm (unit
     * tests) registers a single possibly-nonzero id into its private store
     * and any gap rows stay at their defaults.
     */
    ///@{
    void registerHost(HostId id, double cpu_capacity_mhz);
    void registerVm(VmId id, double cpu_mhz, double memory_mb,
                    const workload::DemandTrace *trace);
    ///@}

    std::size_t hostCount() const { return hostCount_; }
    std::size_t vmCount() const { return vmCount_; }

    /** @name Per-VM columns */
    ///@{
    double vmDemandMhz(VmId v) const { return vmDemand_[idx(v)]; }
    void setVmDemandMhz(VmId v, double mhz) { vmDemand_[idx(v)] = mhz; }

    double vmGrantedMhz(VmId v) const { return vmGranted_[idx(v)]; }
    void setVmGrantedMhz(VmId v, double mhz) { vmGranted_[idx(v)] = mhz; }

    HostId vmHost(VmId v) const { return vmHost_[idx(v)]; }
    void setVmHost(VmId v, HostId h) { vmHost_[idx(v)] = h; }

    std::int64_t vmValidUntilUs(VmId v) const
    {
        return vmValidUntilUs_[idx(v)];
    }
    void setVmValidUntilUs(VmId v, std::int64_t us)
    {
        vmValidUntilUs_[idx(v)] = us;
    }

    double vmCpuMhz(VmId v) const { return vmCpuMhz_[idx(v)]; }
    const workload::DemandTrace *vmTrace(VmId v) const
    {
        return vmTrace_[idx(v)];
    }
    ///@}

    /**
     * The flat demand-refresh kernel: re-sample each listed VM's demand
     * from its trace unless the cached span still covers @p now_us, and
     * mark the resident host demand+alloc dirty when the value changed.
     * Re-samples are per-VM independent and idempotent, so any shard
     * partition of the placed-VM list yields identical columns and flags.
     * Host marking crosses host shards, hence the atomic flag bytes.
     */
    void refreshPlacedDemand(const VmId *ids, std::size_t n,
                             std::int64_t now_us);

    /** @name Per-host columns */
    ///@{
    double hostCpuCapacityMhz(HostId h) const { return hostCapMhz_[idx(h)]; }

    double hostFrequencyFraction(HostId h) const
    {
        return hostFreqFraction_[idx(h)];
    }
    void setHostFrequencyFraction(HostId h, double f)
    {
        hostFreqFraction_[idx(h)] = f;
    }

    /** Usable CPU capacity at the current frequency, in MHz. */
    double hostEffectiveCapacityMhz(HostId h) const
    {
        return hostCapMhz_[idx(h)] * hostFreqFraction_[idx(h)];
    }

    double hostMigrationOverheadMhz(HostId h) const
    {
        return hostMigOverheadMhz_[idx(h)];
    }
    void setHostMigrationOverheadMhz(HostId h, double mhz)
    {
        hostMigOverheadMhz_[idx(h)] = mhz;
    }

    /** @name Memoized per-host aggregates (see Host's lazy recomputes) */
    ///@{
    double hostDemandCacheMhz(HostId h) const
    {
        return hostDemandCache_[idx(h)];
    }
    /** Install a freshly recomputed demand aggregate and mark it clean. */
    void setHostDemandCacheClean(HostId h, double mhz)
    {
        hostDemandCache_[idx(h)] = mhz;
        clearHostFlags(h, kDemandDirty);
    }

    double hostGrantedCacheMhz(HostId h) const
    {
        return hostGrantedCache_[idx(h)];
    }
    void setHostGrantedCacheClean(HostId h, double mhz)
    {
        hostGrantedCache_[idx(h)] = mhz;
        clearHostFlags(h, kGrantedDirty);
    }

    double hostMemoryCacheMb(HostId h) const
    {
        return hostMemoryCache_[idx(h)];
    }
    void setHostMemoryCacheClean(HostId h, double mb)
    {
        hostMemoryCache_[idx(h)] = mb;
        clearHostFlags(h, kMemoryDirty);
    }
    ///@}

    /** Mirror of EnergyMeter::heldWatts(), maintained by
     *  Host::updatePowerDraw so telemetry sweeps read a contiguous
     *  column instead of chasing meters. */
    double hostHeldWatts(HostId h) const { return hostHeldWatts_[idx(h)]; }
    void setHostHeldWatts(HostId h, double watts)
    {
        hostHeldWatts_[idx(h)] = watts;
    }

    /** Latency-factor scratch written by the evaluate() host pass and
     *  gathered by the VM sampling pass; sized at registration, not per
     *  tick. */
    double latencyFactor(HostId h) const { return latencyFactor_[idx(h)]; }
    void setLatencyFactor(HostId h, double f) { latencyFactor_[idx(h)] = f; }

    bool hostHasHierarchy(HostId h) const
    {
        return hostHasHierarchy_[idx(h)] != 0;
    }
    void setHostHasHierarchy(HostId h, bool has)
    {
        hostHasHierarchy_[idx(h)] = has ? 1 : 0;
    }

    /**
     * Mirror of IdleHierarchy::wakeLatency() in seconds; 0 for hosts
     * without a hierarchy. Only Host::attachIdleHierarchy writes it: it
     * seeds the row and installs the hook that
     * IdleHierarchy::refreshDerived() calls after every change of the
     * latency. The evaluate() host pass reads it here instead of chasing
     * Host -> IdleHierarchy. Derived state: left out of appendSnapshot().
     */
    double hostWakeLatencyS(HostId h) const
    {
        return hostWakeLatencyS_[idx(h)];
    }
    void setHostWakeLatencyS(HostId h, double seconds)
    {
        hostWakeLatencyS_[idx(h)] = seconds;
    }
    ///@}

    /** @name Power-phase byte + O(1) fleet counts
     *
     * Maintained by the Host's own FSM observer (registered first, so any
     * later observer already sees updated counts). The byte holds the
     * power::PowerPhase enumerator value.
     */
    ///@{
    void setHostPhase(HostId h, std::uint8_t phase);
    std::uint8_t hostPhase(HostId h) const { return hostPhase_[idx(h)]; }
    bool hostIsOn(HostId h) const { return hostPhase_[idx(h)] == kPhaseOn; }

    int hostsOn() const { return hostsOn_; }
    int hostsAsleep() const { return hostsAsleep_; }
    int hostsTransitioning() const { return hostsTransitioning_; }
    ///@}

    /** @name Dirty flags (atomic: marked across shards) */
    ///@{
    std::uint8_t hostFlags(HostId h) const
    {
        return hostFlags_[idx(h)].load(std::memory_order_relaxed);
    }
    void markHost(HostId h, std::uint8_t bits)
    {
        hostFlags_[idx(h)].fetch_or(bits, std::memory_order_relaxed);
        if (rackWidth_ != 0)
            rackDirty_[idx(h) / rackWidth_].store(
                1, std::memory_order_relaxed);
    }
    void clearHostFlags(HostId h, std::uint8_t bits)
    {
        hostFlags_[idx(h)].fetch_and(
            static_cast<std::uint8_t>(~bits), std::memory_order_relaxed);
    }
    /** Mark kFactorDirty without touching the rack dirty bit: the rack
     *  aggregates carry no factor input, so hierarchy transitions must
     *  not defeat the tree's incremental maintenance. */
    void markHostFactorDirty(HostId h)
    {
        hostFlags_[idx(h)].fetch_or(kFactorDirty,
                                    std::memory_order_relaxed);
    }
    ///@}

    /** @name Alloc-dirty queue (main thread)
     *
     * Every main-thread mutation that sets kAllocDirty also enqueues the
     * host here (deduplicated), so reallocate() visits O(dirty hosts)
     * instead of sweeping the fleet. The evaluate() host pass services
     * every host, so it clears the queue wholesale afterwards. The only
     * kAllocDirty producer that does not enqueue is the sharded demand-
     * refresh kernel, which runs inside evaluate() and is therefore always
     * serviced by the very pass that follows it.
     */
    ///@{
    void queueAllocDirty(HostId h)
    {
        if (hostQueued_[idx(h)])
            return;
        hostQueued_[idx(h)] = 1;
        allocQueue_.push_back(h);
    }

    /** Hosts queued since the last drain/clear, in enqueue order. */
    const std::vector<HostId> &allocQueue() const { return allocQueue_; }

    /** Empty the queue and reset the membership bytes. */
    void clearAllocQueue()
    {
        for (const HostId h : allocQueue_)
            hostQueued_[idx(h)] = 0;
        allocQueue_.clear();
    }
    ///@}

    /** @name Rack dirtiness (consumed by FleetTree)
     *
     * With a rack width configured, markHost() also marks the host's rack,
     * so hierarchical management recomputes only aggregates whose inputs
     * moved. Width 0 (the default) disables the bookkeeping.
     */
    ///@{
    void setRackWidth(std::size_t hosts_per_rack);
    std::size_t rackWidth() const { return rackWidth_; }
    std::size_t rackCount() const { return rackDirty_.size(); }
    bool rackDirty(std::size_t rack) const
    {
        return rackDirty_[rack].load(std::memory_order_relaxed) != 0;
    }
    void clearRackDirty(std::size_t rack)
    {
        rackDirty_[rack].store(0, std::memory_order_relaxed);
    }
    void markAllRacksDirty()
    {
        for (auto &d : rackDirty_)
            d.store(1, std::memory_order_relaxed);
    }
    ///@}

    /**
     * Append every simulation-visible column to @p out in a fixed,
     * documented order (vpm-ckpt-1 "fleet" section). Byte-stable: two
     * stores that went through identical mutation histories produce
     * identical bytes. The atomic flag bytes are read relaxed — callers
     * capture between evaluation passes, when no shard workers run. The
     * trace pointers are excluded (addresses are not reproducible);
     * per-VM trace identity is carried by the replay spec instead. The
     * wake-latency mirror is left out too: it is derived from the
     * hierarchies, and a restore re-executes the run, which rebuilds it.
     */
    void appendSnapshot(std::vector<std::uint8_t> &out) const;

    /** @name Raw column access (read-only, for linear sweeps) */
    ///@{
    const double *vmDemandData() const { return vmDemand_.get(); }
    const double *vmGrantedData() const { return vmGranted_.get(); }
    const double *hostHeldWattsData() const { return hostHeldWatts_.get(); }
    const double *hostDemandCacheData() const
    {
        return hostDemandCache_.get();
    }
    const HostId *vmHostData() const { return vmHost_.get(); }
    const double *latencyFactorData() const { return latencyFactor_.get(); }
    ///@}

  private:
    /** power::PowerPhase::On as a byte (static_asserted in the .cpp). */
    static constexpr std::uint8_t kPhaseOn = 0;
    static constexpr std::uint8_t kPhaseEntering = 1;
    static constexpr std::uint8_t kPhaseAsleep = 2;
    static constexpr std::uint8_t kPhaseExiting = 3;

    static std::size_t idx(int id) { return static_cast<std::size_t>(id); }

    /** Grow every host (resp. VM) column to hold at least @p n rows,
     *  slab-wise: one geometric capacity shared by all columns of the
     *  kind. New rows get the documented defaults. */
    void growHosts(std::size_t n);
    void growVms(std::size_t n);

    template <typename T>
    static void growColumn(std::unique_ptr<T[]> &col, std::size_t old_count,
                           std::size_t new_cap, T fill);

    std::size_t hostCount_ = 0;
    std::size_t hostCap_ = 0;
    std::size_t vmCount_ = 0;
    std::size_t vmCap_ = 0;

    // Per-VM columns.
    std::unique_ptr<double[]> vmDemand_;
    std::unique_ptr<double[]> vmGranted_;
    std::unique_ptr<double[]> vmCpuMhz_;
    std::unique_ptr<std::int64_t[]> vmValidUntilUs_;
    std::unique_ptr<HostId[]> vmHost_;
    std::unique_ptr<const workload::DemandTrace *[]> vmTrace_;
    /** 1 when the trace is point-span (DemandTrace::pointSpan()): the
     *  refresh kernel then resamples unconditionally and skips the span
     *  struct and the validity column. */
    std::unique_ptr<std::uint8_t[]> vmPointSpan_;
    /** 1 when the trace has a span prefetch
     *  (DemandTrace::hasSpanPrefetch()): only these VMs get the refresh
     *  kernel's look-ahead. Derived at registration, so not snapshotted. */
    std::unique_ptr<std::uint8_t[]> vmSpanPrefetch_;

    // Per-host columns.
    std::unique_ptr<double[]> hostCapMhz_;
    std::unique_ptr<double[]> hostFreqFraction_;
    std::unique_ptr<double[]> hostMigOverheadMhz_;
    std::unique_ptr<double[]> hostDemandCache_;
    std::unique_ptr<double[]> hostGrantedCache_;
    std::unique_ptr<double[]> hostMemoryCache_;
    std::unique_ptr<double[]> hostHeldWatts_;
    std::unique_ptr<double[]> latencyFactor_;
    std::unique_ptr<double[]> hostWakeLatencyS_;
    std::unique_ptr<std::atomic<std::uint8_t>[]> hostFlags_;
    std::unique_ptr<std::uint8_t[]> hostQueued_;
    std::unique_ptr<std::uint8_t[]> hostPhase_;
    std::unique_ptr<std::uint8_t[]> hostHasHierarchy_;

    int hostsOn_ = 0;
    int hostsAsleep_ = 0;
    int hostsTransitioning_ = 0;

    std::vector<HostId> allocQueue_;

    std::size_t rackWidth_ = 0;
    std::vector<std::atomic<std::uint8_t>> rackDirty_;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_FLEET_STORE_HPP
