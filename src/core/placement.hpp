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

    /** @name Indexed host queries
     *
     * Each returns exactly what the id-order scan of hosts() it replaces
     * returned, ties included (DESIGN.md "Planner host indexes"). The
     * indexes are built on first use after construction, rebuildUsage()
     * or mutableHosts(), and follow every apply() and rollback().
     */
    ///@{
    /**
     * The usable host that fits() @p vm under @p cpu_limit with the least
     * (@p tightest, best fit) or most (worst fit) headroom
     * `cpu_limit * capacity - used - vm.cpuMhz`, skipping @p exclude_a,
     * @p exclude_b and, when @p only_rack >= 0, hosts of other racks.
     * Ties go to the lowest host index; invalidHostId if nothing fits.
     */
    HostId fitByHeadroom(const PlannedVm &vm, double cpu_limit,
                         bool tightest, HostId exclude_a, HostId exclude_b,
                         int only_rack) const;

    /**
     * The end of the chain an id-order scan of usable hosts builds from
     * @p floor: a host replaces the running pick when its utilization
     * exceeds the pick's (initially @p floor) by more than 1e-9. This is
     * not a plain argmax — a host within 1e-9 of the running pick does
     * not replace it. invalidHostId if no host exceeds @p floor + 1e-9.
     */
    HostId worstOverloaded(double floor) const;

    /** The lowest-index usable host of highest / lowest utilization, or
     *  invalidHostId if no host is usable. */
    HostId mostUtilized() const;
    HostId leastUtilized() const;

    /**
     * Mark a host as a possible (or no longer possible) evacuation victim.
     * rebuildUsage() makes exactly the usable hosts evacuable; a holder
     * whose own host membership changes after that (a drain started or
     * abandoned during planning) keeps it in step here without touching
     * `usable`, which stays a snapshot.
     */
    void setEvacuable(HostId id, bool evacuable);

    /** The lowest-index evacuable host of least CPU use, or invalidHostId. */
    HostId lightestEvacuable() const;
    ///@}

    /**
     * Audit the incremental state against a from-scratch recompute. The
     * resident index must equal one rebuilt from vms(). The usage rows
     * must equal, bit for bit, rebuildUsage() on the assignment before
     * the logged moves followed by those moves' arithmetic. Every built
     * host index must hold, bit for bit, the keys a recompute from the
     * usage rows gives, in order. Panics, naming the host or VM id, on the
     * first mismatch.
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
     * mutableHosts() drops the host indexes; they rebuild on next use.
     */
    std::vector<PlannedHost> &mutableHosts()
    {
        dropIndexes();
        return hosts_;
    }
    std::vector<PlannedVm> &mutableVms() { return vms_; }
    PlannedVm &mutableVm(VmId id) { return vms_[vmIndex(id)]; }

    /**
     * Recompute the per-host usage accumulators and the resident index
     * from vms_, in the same order as construction (so a refreshed model
     * is bit-identical to a freshly built one), clear the move log, make
     * exactly the usable hosts evacuable and drop the host indexes.
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

    /** One free-CPU index entry, ordered by (rack, key, host). */
    struct HeadroomEntry
    {
        int rack;           ///< the host's rack, or 0 in the flat index
        std::uint32_t host; ///< index into hosts_
        double key;         ///< limit * capacity - used
        /** The host's memory row and `capacity + 1e-9`: fits()'s own
         *  memory test, read without leaving the walk. */
        double memUsed;
        double memBound;
    };

    /** Usable hosts sorted by free CPU under one CPU limit. */
    struct HeadroomIndex
    {
        bool built = false;
        std::vector<HeadroomEntry> entries;
    };

    /** Per segment-tree node: the extremes of its leaves' hosts. */
    struct LoadExtremes
    {
        double maxUtil; ///< usable hosts; -inf otherwise
        double minUtil; ///< usable hosts; +inf otherwise
        double minLoad; ///< evacuable hosts' CPU use; +inf otherwise
    };

    std::size_t hostIndex(HostId id) const;
    std::size_t vmIndex(VmId id) const;

    /** fits() for host index @p h. */
    bool fitsAt(const PlannedVm &vm, std::size_t h,
                double cpu_limit) const;

    /** Forget every host index (they rebuild on next use). */
    void dropIndexes();

    /** Host index @p h's free-CPU entry, from its current rows. */
    HeadroomEntry headroomEntry(std::size_t h, bool by_rack) const;

    /** The free-CPU index keyed on @p cpu_limit, flat or by rack. */
    const HeadroomIndex &headroomIndex(double cpu_limit, bool by_rack) const;

    /** The load-extremes tree, built if needed. */
    const std::vector<LoadExtremes> &extremes() const;
    LoadExtremes leafOf(std::size_t h) const;
    void updateLeaf(std::size_t h) const;

    /** Follow a usage-row change of host index @p h in every built index. */
    void reindex(std::size_t h);

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

    /** Per host index: may be picked as an evacuation victim. */
    std::vector<std::uint8_t> evacuable_;

    /** @name Host indexes (caches; see DESIGN.md "Planner host indexes") */
    ///@{
    mutable HeadroomIndex byHeadroom_;     ///< every usable host, rack 0
    mutable HeadroomIndex byRackHeadroom_; ///< keyed by rack first
    mutable double headroomLimit_ = 0.0;   ///< the limit both are keyed on
    /** Largest |limit * capacity|: scales the walk floor's slack. */
    mutable double maxLimitCapacity_ = 0.0;
    /** Per host index: its key in the free-CPU indexes. */
    mutable std::vector<double> headroomKey_;
    /** Segment tree over host index: node 1 is the root, leaf h sits at
     *  extremesLeaves_ + h. Empty when not built. */
    mutable std::vector<LoadExtremes> extremes_;
    mutable std::size_t extremesLeaves_ = 0;
    ///@}
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
