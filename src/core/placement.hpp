/**
 * @file
 * Placement planning: the bin-packing and load-balancing algorithms of the
 * management layer.
 *
 * Planning runs on a PlacementModel — a snapshot of hosts and VMs sized by
 * *predicted* demand — so the algorithms are pure, deterministic and unit
 * testable, decoupled from the live Cluster. The caller turns the returned
 * moves into live-migration requests.
 */

#ifndef VPM_CORE_PLACEMENT_HPP
#define VPM_CORE_PLACEMENT_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "datacenter/vm.hpp"

namespace vpm::mgmt {

using dc::HostId;
using dc::VmId;

/** A host as the planner sees it. */
struct PlannedHost
{
    HostId id = dc::invalidHostId;
    double cpuCapacityMhz = 0.0;
    double memoryCapacityMb = 0.0;

    /** false for hosts that are off, transitioning, or draining — they can
     *  neither receive VMs nor count as capacity. */
    bool usable = true;

    /** Rack assignment; planners with rack affinity prefer same-rack
     *  destinations. 0 everywhere models a flat network. */
    int rack = 0;
};

/** A VM as the planner sees it; cpuMhz is its *predicted* demand. */
struct PlannedVm
{
    VmId id = -1;
    HostId host = dc::invalidHostId;
    double cpuMhz = 0.0;
    double memoryMb = 0.0;

    /** false pins the VM (e.g. it is already migrating): its load counts
     *  but planners will not select it as a move candidate. */
    bool movable = true;
};

/** One planned relocation. */
struct Move
{
    VmId vm = -1;
    HostId from = dc::invalidHostId;
    HostId to = dc::invalidHostId;

    bool operator==(const Move &) const = default;
};

/** Bin-packing heuristics for choosing a destination host (A2 ablation). */
enum class PackingHeuristic
{
    FirstFitDecreasing, ///< first host with room, largest VMs first
    BestFitDecreasing,  ///< tightest-fitting host, largest VMs first
    WorstFit,           ///< roomiest host (spreads load)
};

/** Human-readable heuristic name for tables. */
const char *toString(PackingHeuristic heuristic);

/**
 * Mutable planning snapshot with incremental usage bookkeeping.
 *
 * Host and VM ids may be sparse; lookups go through dense slot tables
 * sized by the largest id (cluster ids are sequential, so the tables are
 * compact in practice).
 */
class PlacementModel
{
  public:
    /** Empty model; assign or rebuild before use. */
    PlacementModel() = default;

    PlacementModel(std::vector<PlannedHost> hosts,
                   std::vector<PlannedVm> vms);

    /** @name Queries */
    ///@{
    const std::vector<PlannedHost> &hosts() const { return hosts_; }
    const std::vector<PlannedVm> &vms() const { return vms_; }

    double cpuUsedMhz(HostId host) const;
    double memoryUsedMb(HostId host) const;

    /** Predicted CPU utilization of a host, in [0, inf). */
    double cpuUtilization(HostId host) const;

    /** VMs currently assigned to @p host, in model (vms()) order. Reads
     *  the per-host resident index, not a scan of every VM. */
    std::vector<VmId> vmsOn(HostId host) const;

    /**
     * true if adding @p vm to @p host keeps predicted CPU below
     * @p cpu_limit_fraction of capacity and memory below capacity.
     * The host must be usable.
     */
    bool fits(const PlannedVm &vm, HostId host,
              double cpu_limit_fraction) const;

    const PlannedVm &vm(VmId id) const;
    const PlannedHost &host(HostId id) const;
    ///@}

    /** Apply a move (bookkeeping only). The move must be consistent. It
     *  is logged, so rollback() can undo it exactly. */
    void apply(const Move &move);

    /** @name Trial planning */
    ///@{
    /** The current point of the move log; moves applied after it can be
     *  undone with rollback(). */
    std::size_t mark() const { return log_.size(); }

    /**
     * Undo every move applied since @p mark, newest first, restoring the
     * saved usage rows and VM hosts: the model is then bit-identical to
     * what it was at the mark. Pins are not undone.
     */
    void rollback(std::size_t mark);
    ///@}

    /**
     * Audit the incremental state against a from-scratch recompute. The
     * resident index must equal one rebuilt from vms(). The usage rows
     * must equal, bit for bit, rebuildUsage() on the assignment before
     * the logged moves followed by those moves' arithmetic. Panics,
     * naming the host or VM id, on the first mismatch.
     */
    void audit() const;

    /**
     * Mark a VM unmovable for the rest of this model's lifetime. Planners
     * pin each VM they move so later planning passes in the same
     * management cycle cannot plan a second (un-executable) move for it.
     */
    void pin(VmId id);

    /**
     * Declare anti-affinity groups: VMs sharing a group must land on
     * pairwise distinct hosts (HA replicas, quorum members). fits() then
     * refuses a host already holding a group sibling. A VM may belong to
     * at most one group; unknown ids are ignored (churned-away VMs).
     * Pre-existing violations are tolerated (the planner will not move a
     * VM onto a conflict, but it does not repair history).
     */
    void
    setAntiAffinityGroups(const std::vector<std::vector<VmId>> &groups);

    /** Anti-affinity group of a VM, or -1. */
    int groupOf(VmId id) const;

    /** @name In-place refresh (same membership, new field values) */
    ///@{
    /**
     * Direct access to the planned entities for a holder refreshing the
     * model between management cycles. The id fields and the entry order
     * must not change — only per-entity values (usable, cpuMhz, host,
     * movable, ...). Call rebuildUsage() after editing VM assignments.
     */
    std::vector<PlannedHost> &mutableHosts() { return hosts_; }
    std::vector<PlannedVm> &mutableVms() { return vms_; }

    /**
     * Recompute the per-host usage accumulators and the resident index
     * from vms_, in the same order as construction (so a refreshed model
     * is bit-identical to a freshly built one), and clear the move log.
     */
    void rebuildUsage();
    ///@}

  private:
    /** One applied move, with the usage rows it overwrote. */
    struct LoggedMove
    {
        std::uint32_t vm;   ///< index into vms_
        std::uint32_t from; ///< index into hosts_
        std::uint32_t to;   ///< index into hosts_
        double fromCpu, fromMem, toCpu, toMem;
    };

    std::size_t hostIndex(HostId id) const;
    std::size_t vmIndex(VmId id) const;

    /** Move VM index @p v between the resident lists of two host
     *  indices, keeping each list in ascending VM-index order. */
    void relocate(std::uint32_t v, std::uint32_t from, std::uint32_t to);

    std::vector<PlannedHost> hosts_;
    std::vector<PlannedVm> vms_;
    /** id -> index into hosts_/vms_; -1 = unknown id. */
    std::vector<std::int32_t> hostSlot_;
    std::vector<std::int32_t> vmSlot_;
    std::vector<double> cpuUsed_;
    std::vector<double> memUsed_;
    /** Per host index: resident VM indices, ascending. */
    std::vector<std::vector<std::uint32_t>> residents_;
    /** Moves applied since the last rebuildUsage(). */
    std::vector<LoggedMove> log_;

    /** VM id -> anti-affinity group (absent = unconstrained). */
    std::unordered_map<VmId, int> vmGroup_;
    /** Per host index: group -> number of resident members. */
    std::vector<std::unordered_map<int, int>> hostGroupCount_;
};

/**
 * Plan the evacuation of @p victim: pack all of its VMs onto other usable
 * hosts, keeping every destination under @p target_utilization predicted
 * CPU and within memory.
 *
 * Plans in place on the model's move log. On success the model is updated
 * (moved VMs pinned) and the move list returned; on failure the logged
 * moves are rolled back, leaving the model bit-identical, and nullopt is
 * returned.
 */
std::optional<std::vector<Move>>
planEvacuation(PlacementModel &model, HostId victim,
               double target_utilization, PackingHeuristic heuristic,
               bool rack_affinity = false);

/**
 * Plan load-balancing moves (DRS-style):
 *  1. relieve hosts whose predicted utilization exceeds
 *     @p target_utilization, largest-offender first;
 *  2. then, if max-min utilization spread still exceeds
 *     @p imbalance_threshold, shift one VM at a time from the most to the
 *     least loaded host.
 *
 * The model is updated in place. At most @p max_moves moves are returned.
 */
std::vector<Move>
planRebalance(PlacementModel &model, double target_utilization,
              double imbalance_threshold, int max_moves,
              PackingHeuristic heuristic, bool rack_affinity = false);

} // namespace vpm::mgmt

#endif // VPM_CORE_PLACEMENT_HPP
