/**
 * @file
 * VpmManager: the end-to-end power-aware virtualization manager — the
 * paper's primary contribution.
 *
 * Every management period the manager:
 *   1. feeds per-VM and aggregate demand into its predictors;
 *   2. restores capacity if a shortfall is predicted — first by cancelling
 *      in-progress drains (free: those hosts are still on), then by waking
 *      sleeping hosts, lowest-exit-latency states first;
 *   3. rebalances load across usable hosts (the DRM baseline behaviour);
 *   4. after a hysteresis streak of surplus cycles, evacuates the least
 *      loaded host via live migration and marks it draining;
 *   5. puts fully drained hosts to sleep, choosing the state either by
 *      policy fiat ("S3"/"S5") or by break-even analysis against the
 *      observed idle-interval estimate.
 *
 * Configured with loadBalance only it *is* the DRM baseline; with neither
 * flag it is the static NoPM baseline. This is how the paper's policy
 * comparison stays apples-to-apples: one code path, different knobs.
 */

#ifndef VPM_CORE_MANAGER_HPP
#define VPM_CORE_MANAGER_HPP

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/placement.hpp"
#include "core/predictor.hpp"
#include "datacenter/datacenter_sim.hpp"
#include "datacenter/fleet_tree.hpp"
#include "datacenter/provisioning.hpp"
#include "power/breakeven.hpp"

namespace vpm::mgmt {

/** Full policy configuration of the manager. */
struct VpmConfig
{
    /** Management period; must be a multiple of the evaluation interval. */
    sim::SimTime period = sim::SimTime::minutes(5.0);

    /** Enable DRS-style load balancing (step 3). */
    bool loadBalance = true;

    /** Enable power management (steps 2, 4, 5). */
    bool powerManage = true;

    /** Predictor family used for per-VM sizing and the aggregate. */
    PredictorKind predictor = PredictorKind::WindowMax;

    /** Destination-choice heuristic for packing and balancing. */
    PackingHeuristic heuristic = PackingHeuristic::BestFitDecreasing;

    /** @name DRM knobs */
    ///@{
    /** Per-host predicted-utilization cap enforced by placement. */
    double targetUtilization = 0.80;

    /** Max-min predicted-utilization spread tolerated before balancing. */
    double imbalanceThreshold = 0.25;

    /** Migration budget per management cycle (balancing + evacuation). */
    int maxMigrationsPerCycle = 10;
    ///@}

    /** @name Power-management knobs */
    ///@{
    /** Extra fraction of predicted demand kept as powered-on capacity. */
    double capacityBuffer = 0.15;

    /** Consecutive surplus cycles required before an evacuation starts. */
    int hysteresisCycles = 3;

    /** Max evacuations initiated per cycle. */
    int maxEvacuationsPerCycle = 1;

    /**
     * Sleep state to use ("S3", "S5", ...); empty string selects the state
     * adaptively by break-even analysis against the idle-interval estimate.
     */
    std::string sleepState = "S3";

    /**
     * Heterogeneity-aware victim choice: score evacuation candidates by
     * parkable watts per unit of load to move, instead of load alone, so
     * mixed clusters park their power-hungry generation first.
     */
    bool heterogeneityAware = false;

    /**
     * Prefer same-rack migration destinations (needs a Topology attached
     * via attachTopology); falls back to any rack when the home rack is
     * full. Keeps consolidation traffic off the slow shared uplinks.
     */
    bool rackAffinity = false;

    /**
     * Cluster power cap in watts; 0 disables. Enforcement is on the
     * admission side: a wake is denied while the projected worst case
     * (peak power of every committed host plus the sleep floors) would
     * exceed the cap. Demand on already-running hosts is never throttled
     * — denials trade SLA for the cap, which is the E4 experiment.
     */
    double clusterPowerCapWatts = 0.0;

    /** Seed/floor for the observed idle-interval estimate (adaptive mode).*/
    sim::SimTime expectedIdleSeed = sim::SimTime::minutes(20.0);

    /**
     * Issue S-state sleep commands for drained hosts. When false the
     * manager *parks* them instead: the host stays On with its idle
     * hierarchy fully descended, is excluded from placement, balancing
     * and consolidation like a maintenance host, and is reclaimed
     * instantly (no boot transition) on a capacity shortfall. Models
     * consolidation on hardware whose only idle mechanism is C-states;
     * without an attached hierarchy a parked host just burns idle watts.
     */
    bool hostSleep = true;

    /**
     * With hostSleep on: drained hosts park first, and only once more
     * than this many are parked does the oldest escalate to a real
     * S-state sleep. The reserve absorbs surges with zero boot latency
     * (a parked host is usable in the same management cycle) while the
     * overflow still reaches deep-sleep watts — the host-level tier of
     * the idle hierarchy. 0 keeps the classic behavior: every drained
     * host is slept immediately.
     */
    int parkedReserve = 0;
    ///@}

    /** @name Hierarchical fleet mode */
    ///@{
    /**
     * Manage through the rack → pod → cluster aggregate tree instead of
     * per-VM scans: demand is predicted from the tree's root row alone,
     * capacity decisions descend only into racks whose aggregates changed
     * or that report relevant members (asleep hosts for wakes, empty On
     * hosts for sleeps), and per-cycle cost is O(dirty racks x rack
     * width), not O(VMs). Consolidation is wake/sleep of naturally empty
     * hosts only — no balancing or evacuation migrations — which is the
     * regime that scales to 100k hosts (F12). Off by default: the tree's
     * rack-wise demand fold changes FP summation order versus the flat
     * walk, so enabling it is a (tiny but real) policy change.
     */
    bool hierarchical = false;

    /** Contiguous hosts per rack for the aggregate tree. */
    std::size_t hostsPerRack = 32;

    /** Contiguous racks per pod for the aggregate tree. */
    std::size_t racksPerPod = 16;
    ///@}

    /**
     * Anti-affinity groups: VMs within a group are never placed on the
     * same host by the planner (HA replicas). Ids referring to departed
     * VMs are ignored.
     */
    std::vector<std::vector<dc::VmId>> antiAffinityGroups;

    /** @name High availability */
    ///@{
    /**
     * Restart VMs stranded on a non-On host (crash) onto live hosts at
     * the start of every management cycle. On by default: HA restart is
     * part of the base management stack the paper builds on.
     */
    bool haRestart = true;

    /**
     * Keep this many hosts' worth of spare powered-on capacity beyond
     * predicted demand (N+k failover headroom). Consolidation will not
     * dig into the spare, and wakes trigger when it erodes — e.g. after
     * a crash. Assumes roughly uniform host sizes.
     */
    int spareHostsFloor = 0;
    ///@}
};

/** Counters exposed for the overhead comparisons (F4/F7). */
struct ManagerStats
{
    std::uint64_t cycles = 0;
    std::uint64_t migrationsRequested = 0;
    std::uint64_t balanceMoves = 0;
    std::uint64_t evacuationsStarted = 0;
    std::uint64_t evacuationsAbandoned = 0;
    std::uint64_t drainsCancelled = 0;
    std::uint64_t sleepsIssued = 0;
    std::uint64_t wakesIssued = 0;
    std::uint64_t hostsParked = 0;
    std::uint64_t hostsUnparked = 0;
    std::uint64_t wakesDeniedByCap = 0;
    std::uint64_t shortfallCycles = 0;
    std::uint64_t haRestarts = 0;
};

/** The periodic power-aware virtualization management controller. */
class VpmManager
{
  public:
    VpmManager(sim::Simulator &simulator, dc::Cluster &cluster,
               dc::MigrationEngine &migration, dc::DatacenterSim &dcsim,
               const VpmConfig &config = {});

    VpmManager(const VpmManager &) = delete;
    VpmManager &operator=(const VpmManager &) = delete;

    /**
     * Hook the manager onto the datacenter's evaluation cadence. The
     * management cycle runs right after every (period / evaluation
     * interval)-th evaluation, so it always acts on fresh demand.
     * Call exactly once, before the simulation runs.
     */
    void start();

    /** Run one management cycle immediately (tests drive this directly). */
    void managementCycle();

    /**
     * Couple a provisioning engine: the manager counts arrivals waiting
     * for a host as required capacity, so it wakes hosts for them instead
     * of leaving placement to starve against a consolidated cluster.
     */
    void attachProvisioning(dc::ProvisioningEngine &provisioning);

    /**
     * Couple the network topology so planners know rack assignments
     * (enables the rackAffinity policy knob). Must outlive the manager.
     */
    void attachTopology(const dc::Topology &topology);

    const ManagerStats &stats() const { return stats_; }
    const VpmConfig &config() const { return config_; }

    /** @name Operator maintenance mode */
    ///@{
    /**
     * Put a host into maintenance: the manager evacuates it (retrying
     * every cycle until the cluster can absorb its VMs) and then holds it
     * On but excluded from placement, balancing, consolidation and wake
     * candidates, until endMaintenance(). A sleeping host may also enter
     * maintenance; it simply stays asleep and will not be woken.
     * @return false if the host is already in maintenance.
     */
    bool requestMaintenance(dc::HostId host);

    /**
     * Release a host from maintenance; it becomes ordinary capacity
     * again (the next cycles will balance load onto it as needed).
     * @return false if the host was not in maintenance.
     */
    bool endMaintenance(dc::HostId host);

    /** true once a maintenance host is On and fully evacuated. */
    bool maintenanceReady(dc::HostId host) const;

    const std::set<dc::HostId> &maintenanceHosts() const
    {
        return maintenance_;
    }
    ///@}

    /** Hosts currently being evacuated for consolidation. */
    const std::set<dc::HostId> &drainingHosts() const { return draining_; }

    /** Drained hosts held On in deep idle (hostSleep = false mode). */
    const std::set<dc::HostId> &parkedHosts() const { return parked_; }

    /** Current estimate of a sleeping host's idle interval. */
    sim::SimTime expectedIdle() const { return expectedIdle_; }

    /** @name Replay / checkpoint support */
    ///@{
    /** The aggregate tree (configured only in hierarchical mode). */
    const dc::FleetTree &fleetTree() const { return tree_; }

    /**
     * Append the manager's complete mutable policy state — per-VM and
     * aggregate predictors, drain/maintenance/park sets and timestamps,
     * hysteresis streak, idle estimate, cycle counters, stats — to
     * @p out as raw bytes. Byte-stable given identical history; replay
     * checkpoints compare this against a deterministically re-executed
     * run (it is never loaded back).
     */
    void serializeState(std::vector<std::uint8_t> &out) const;

    /**
     * What-if branching: overwrite the runtime-safe knob subset of the
     * live config with @p next. Structural knobs are deliberately kept —
     * period (baked into the evaluation cadence), predictor family and
     * PeriodicProfile geometry (built state), hierarchical mode and rack
     * geometry (tree already configured), anti-affinity groups and the
     * expectedIdle seed (already consumed). Everything else (balancing,
     * power management, sleep state, parking, caps, buffers) takes
     * effect from the next management cycle.
     */
    void applyPolicyDelta(const VpmConfig &next);
    ///@}

    /**
     * Test-only: refresh the planning model as a planning pass would and
     * compare it bit for bit with freshModel() — host usable flags and
     * usage rows, VM CPU, host and movability. @return "" or the first
     * mismatch with its host or VM id. Meaningful while the placement
     * epoch is unchanged since the last build (else both are fresh).
     */
    std::string auditModel() const;

  private:
    /** Bank row of the aggregate predictor; VM v owns row vmRow(v). */
    static constexpr std::size_t kAggregateRow = 0;
    static std::size_t vmRow(dc::VmId vm)
    {
        return static_cast<std::size_t>(vm) + 1;
    }

    /** Feed predictors with this cycle's demand. */
    void observeDemand();

    /**
     * The whole management cycle in hierarchical mode: refresh the
     * aggregate tree, predict from its root row, then triage — wake
     * asleep hosts rack by rack on a shortfall, sleep empty On hosts
     * rack by rack on a sustained surplus. Never walks a rack whose
     * aggregate rules it out.
     */
    void hierarchicalCycle();

    /** Rack-triage wake loop; updates @p committed as hosts are issued. */
    void wakeHierarchical(double required, double limit, double committed);

    /** Rack-triage sleep loop over empty On hosts. */
    void sleepHierarchical(double required, double limit, double committed);

    /** Predicted demand of one VM, clamped to its size, in MHz. */
    double predictedVmMhz(dc::VmId vm) const;

    /** Predicted aggregate demand with the capacity buffer, in MHz. */
    double requiredCapacityMhz() const;

    /** Capacity that is on or inbound (exiting / pending wake), in MHz. */
    double committedCapacityMhz() const;

    /** Restart VMs stranded on crashed hosts onto live capacity. */
    void restartStrandedVms();

    /** Spare powered-on capacity the floor demands, in MHz. */
    double spareFloorMhz() const;

    /** Steps 2: ensure enough capacity is on or on the way. */
    void ensureCapacity();

    /** Wake a host if a pending arrival has no memory-feasible home. */
    void ensurePlacementHeadroom();

    /** Step 3 + 4: plan and issue migrations; returns evacuation victims. */
    void rebalanceAndConsolidate();

    /** Step 5: put fully drained hosts to sleep. */
    void completeDrains();

    /**
     * Return the planning snapshot of the current cluster state. The model
     * is persistent: it is rebuilt from scratch only on first use or when
     * the cluster's placement epoch moved (membership change); otherwise
     * the per-entity fields and usage accumulators are refreshed in place,
     * which yields a bit-identical model without reallocating. Any pins or
     * applied moves from a previous pass are overwritten.
     */
    PlacementModel &buildModel() const;

    /** The planning model built from scratch: the reference that
     *  buildModel()'s in-place refresh reproduces. */
    PlacementModel freshModel() const;

    /** Pick the sleep state for @p host; nullptr means "stay on". */
    const power::SleepStateSpec *chooseSleepState(const dc::Host &host) const;

    /**
     * Pick the next evacuation victim among on, non-draining hosts, or
     * nullptr if none qualify. Least predicted load by default;
     * watts-per-load scoring when heterogeneity-aware.
     */
    const dc::Host *chooseEvacuationCandidate(const PlacementModel &model)
        const;

    /** The most attractive wakeable host, or nullptr. */
    dc::Host *findWakeCandidate() const;

    /**
     * Worst-case committed power if @p extra additionally turns on:
     * peak watts for every on/arriving host, sleep floor for the rest.
     */
    double projectedPeakWatts(const dc::Host *extra) const;

    /**
     * Flat wake planner: reclaim a parked host, else wake the wakeable
     * host with the fastest exit. False if none exists, the power cap
     * denies it, or the hardware refuses (warned).
     * @param reason Why the wake was needed; journaled with the decision.
     */
    bool wakeOneHost(const char *reason);

    /** Outcome of one wakeHost() command. */
    enum class WakeResult
    {
        Issued,    ///< wake commanded and journaled
        CapDenied, ///< the power cap denies it (counted in wakesDeniedByCap)
        Refused,   ///< the cluster refused the command (e.g. it crashed)
    };

    /**
     * The one wake actuator both planners call: power-cap admission, then
     * a decision id, the wake command, the wake_decision record and the
     * idle-interval estimate update from the finished sleep episode.
     */
    WakeResult wakeHost(dc::Host &host, const char *reason);

    /**
     * The one sleep actuator both planners call: a decision id, full
     * idle-hierarchy descent, the sleep command, the sleep_decision record
     * and the sleep-episode timestamp. False if the cluster refused.
     */
    bool sleepHost(dc::Host &host, const power::SleepStateSpec &state);

    void cancelDrain(dc::HostId host);

    sim::Simulator &simulator_;
    dc::Cluster &cluster_;
    dc::MigrationEngine &migration_;
    dc::DatacenterSim &dcsim_;
    dc::ProvisioningEngine *provisioning_ = nullptr;
    const dc::Topology *topology_ = nullptr;
    VpmConfig config_;

    /** The aggregate row, then one row per VM id; a VM's row is active
     *  from its first placed observation until it retires. */
    PredictorBank predictors_;
    ForecastTracker forecastTracker_;

    /** Aggregate tree driving hierarchical mode (configured in start()). */
    dc::FleetTree tree_;

    /** Persistent planning model; see buildModel(). */
    mutable PlacementModel model_;
    mutable std::uint64_t modelEpoch_ = 0;
    mutable bool modelValid_ = false;

    /** true iff the host can hold VMs and take new ones: it is in none
     *  of draining_, maintenance_ and parked_. */
    bool hostUsable(dc::HostId host) const
    {
        const auto id = static_cast<std::size_t>(host);
        return id >= membership_.size() || membership_[id] == 0;
    }

    /** Bits of membership_, one per host set. */
    enum : std::uint8_t
    {
        kDraining = 1,
        kMaintenance = 2,
        kParked = 4,
    };

    /** true iff @p host is in maintenance_ (one byte read). */
    bool inMaintenance(dc::HostId host) const
    {
        const auto id = static_cast<std::size_t>(host);
        return id < membership_.size() && (membership_[id] & kMaintenance);
    }

    /** Insert @p host into / erase it from @p set, whose bit in
     *  membership_ is @p bit. @return whether the set changed. */
    bool joinSet(std::set<dc::HostId> &set, std::uint8_t bit,
                 dc::HostId host);
    bool leaveSet(std::set<dc::HostId> &set, std::uint8_t bit,
                  dc::HostId host);

    std::set<dc::HostId> draining_;
    std::set<dc::HostId> maintenance_;
    std::set<dc::HostId> parked_;
    /** Per host id: which of the three sets above hold it, kept in step
     *  by joinSet()/leaveSet(). */
    std::vector<std::uint8_t> membership_;
    std::map<dc::HostId, sim::SimTime> parkedAt_; ///< for oldest-first escalation
    std::map<dc::HostId, sim::SimTime> sleepStartedAt_;
    sim::SimTime expectedIdle_;
    int surplusStreak_ = 0;
    bool started_ = false;
    std::uint64_t evaluationsSeen_ = 0;
    std::uint64_t evaluationsPerCycle_ = 1;

    ManagerStats stats_;
};

} // namespace vpm::mgmt

#endif // VPM_CORE_MANAGER_HPP
