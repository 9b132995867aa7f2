/**
 * @file
 * Multi-level idle-state hierarchy: per-core C-states nested under package
 * states, layered beneath the whole-server power FSM.
 *
 * The source paper's FSM models only whole-server states (S0/S3/S5). A
 * decade of follow-on work (AgilePkgC, AgileWatts — see PAPERS.md) shows
 * the interesting policy space lives between those states: cores drop into
 * µs-exit C-states the moment they idle, the uncore follows into a package
 * state once every core is deep enough, and the server state machine stays
 * the outermost level. This module models that tree with the two rules the
 * hierarchy papers establish:
 *
 *  - *descent gating*: a level may only descend once ALL of its children
 *    are resident in a deep-enough state (package PC6 requires every core
 *    in C6; the server S3/S5 request is refused by the cluster unless the
 *    hierarchy is fully descended);
 *
 *  - *wake latency = max along the resume path*: levels power up in
 *    parallel, so resuming from (PC6 + C6) costs max(exit PC6, exit C6),
 *    not the sum.
 *
 * Threading contract (PR 5 determinism): all mutating calls happen on the
 * main thread (policy control cycles, FSM observers). The sharded
 * evaluation passes only read powerSavingsWatts(), a plain field read, and
 * the wake latency as the update hook mirrored it into the fleet store —
 * no label interning, no journaling from shard bodies.
 */

#ifndef VPM_POWER_IDLE_HIERARCHY_HPP
#define VPM_POWER_IDLE_HIERARCHY_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"

namespace vpm::power {

/** Levels of the idle tree (the server S-states stay in the power FSM). */
enum class IdleLevel : std::uint8_t
{
    Core,    ///< per-core C-states (C1, C6, ...)
    Package, ///< uncore/package states (PC6, ...)
};

const char *toString(IdleLevel level);

/**
 * One idle state at one level of the tree. Depth is positional: states are
 * listed shallowest-first, and depth d refers to the d-th listed state
 * (depth 0 is the implicit active state, "C0").
 *
 * Transition energies are given directly in joules rather than as a power
 * draw over the latency: at µs scale the interesting quantity is the
 * energy impulse itself (it is charged to the host meter as an impulse,
 * not integrated).
 */
struct IdleStateSpec
{
    /** Short name, e.g. "C1", "C6", "PC6". Unique within its level. */
    std::string name;

    /** Draw while resident: per-core watts at Core level, uncore watts at
     *  Package level. Must be below the level's active (C0) draw. */
    double powerWatts = 0.0;

    sim::SimTime entryLatency;
    sim::SimTime exitLatency;

    /** Energy of one entry transition (one core / one package), joules. */
    double entryEnergyJoules = 0.0;

    /** Energy of one exit transition, joules. */
    double exitEnergyJoules = 0.0;

    /**
     * Package states only: the minimum core depth every core must be
     * resident at before this state may be entered (1-based index into
     * coreStates; 0 means "no requirement"). This is the descent gate.
     */
    int requiredChildDepth = 0;

    double
    roundTripEnergyJoules() const
    {
        return entryEnergyJoules + exitEnergyJoules;
    }

    sim::SimTime
    roundTripLatency() const
    {
        return entryLatency + exitLatency;
    }
};

/**
 * Static description of a host's idle tree: how the S0-idle power
 * decomposes into cores + uncore, and which states each level offers.
 * The decomposition ties the hierarchy to the host's power curve:
 * coreCount * corePowerC0Watts + uncorePowerC0Watts should equal the
 * spec's idle watts (the curve at zero utilization), so a fully-awake
 * hierarchy saves exactly nothing.
 */
struct IdleHierarchySpec
{
    /** Most states one level may list. The runtime keeps one residency
     *  accumulator per depth inline, so validate() refuses deeper trees;
     *  real parts list at most C1..C10 and PC2..PC10. */
    static constexpr std::size_t kMaxStatesPerLevel = 8;

    int coreCount = 0;

    /** Per-core draw when active-idle (C0, nothing scheduled), watts. */
    double corePowerC0Watts = 0.0;

    /** Uncore (caches, fabric, memory PHY, ...) draw when awake, watts. */
    double uncorePowerC0Watts = 0.0;

    /** Core states, shallowest first (ascending depth). */
    std::vector<IdleStateSpec> coreStates;

    /** Package states, shallowest first (ascending depth). */
    std::vector<IdleStateSpec> packageStates;

    /** Fatal on structural nonsense (empty tree, non-descending powers,
     *  out-of-range requiredChildDepth, non-positive core count, more
     *  than kMaxStatesPerLevel states at a level). */
    void validate() const;

    /** Every field equal bit for bit: two such specs drive a hierarchy
     *  through exactly the same arithmetic. */
    bool sameAs(const IdleHierarchySpec &other) const;

    /**
     * The process-wide shared, immutable copy of @p spec: a validated
     * copy the first time an equal spec is asked for, the same object
     * afterwards for as long as some holder keeps it alive. Safe from any
     * thread (a mutex guards the table). An equal spec already shared
     * costs no allocation.
     */
    static std::shared_ptr<const IdleHierarchySpec>
    shared(const IdleHierarchySpec &spec);

    /** Savings at full descent (every core and the package at their
     *  deepest states) versus the all-C0 idle draw, watts. */
    double maxSavingsWatts() const;
};

/**
 * Runtime state of one host's idle tree.
 *
 * The spec is not copied: the hierarchy holds the shared copy from
 * IdleHierarchySpec::shared(), so a fleet of hierarchies built from one
 * spec points at one object. The hot state a governor tick reads (spec,
 * active, busy cores, the two depths) leads the object, and the
 * residency accumulators are inline arrays, so a hierarchy is a single
 * allocation (see DESIGN.md "Per-host memory layout").
 *
 * The hierarchy is active while the host is On; the power FSM's Entering/
 * Asleep/Exiting phases pause it (pause() closes the residency spans and
 * returns every level to depth 0 — the forced exits ride the system
 * transition, whose energy the FSM already charges). Policy commands
 * (setBusyCores / requestDepth / descendFully) are clamped to the legal
 * region: busy cores pin at depth 0, and the package can never be deeper
 * than its requiredChildDepth gate allows.
 *
 * Every state change journals one `idle_transition` record per (level,
 * from, to) group with the count of cores affected, the seconds the group
 * spent in the from-state, and the transition energy charged — stamped
 * with the ambient decision id, so trace analysis can attribute C-state
 * churn to the decision that caused it.
 */
class IdleHierarchy
{
  public:
    IdleHierarchy(sim::Simulator &simulator, const IdleHierarchySpec &spec);

    IdleHierarchy(const IdleHierarchy &) = delete;
    IdleHierarchy &operator=(const IdleHierarchy &) = delete;

    /** The shared spec (equal specs give hierarchies the same object). */
    const IdleHierarchySpec &spec() const { return *spec_; }

    /** @name Policy commands (main thread only) */
    ///@{
    /**
     * Report how many cores have work scheduled. Busy cores are forced to
     * depth 0; idle cores keep the commanded depth. Clamped to
     * [0, coreCount].
     */
    void setBusyCores(int busy);

    /**
     * Command the idle cores to @p core_depth and the package to
     * @p pkg_depth (0 = awake, d = d-th listed state). The package depth
     * is clamped down to the deepest state whose requiredChildDepth gate
     * the commanded core residency satisfies (all cores idle AND at least
     * that deep); it never errors, because the legal region moves with
     * the load.
     */
    void requestDepth(int core_depth, int pkg_depth);

    /** Descend every level as deep as the gates allow (pre-S3/S5 step).
     *  With busy cores this cannot reach full descent. */
    void descendFully();

    /** Return every level to depth 0 (demand arrived / host resumed). */
    void wakeAll();

    /**
     * The power FSM left On: close residency spans and return to depth 0
     * without charging exit energy (the forced exits ride the system
     * transition the FSM charges). Commands are ignored until resume().
     */
    void pause();

    /** The power FSM reached On again: resume residency accounting at
     *  depth 0 (reboot/resume wakes every core). */
    void resume();
    ///@}

    /** @name Read-only queries (safe from sharded evaluation code) */
    ///@{
    bool active() const { return active_; }
    int busyCores() const { return busyCores_; }
    int coreDepth() const { return coreDepth_; }
    int packageDepth() const { return packageDepth_; }

    /** Every core idle and at max depth, package at its max gated depth. */
    bool fullyDescended() const;

    /** Would applying (busy, core_depth, pkg_depth) — after clamping and
     *  gating — move any level? Lets policies mint a decision id only for
     *  cycles that actually transition. False while paused. */
    bool wouldChange(int busy, int core_depth, int pkg_depth) const;

    /** Draw saved versus the all-C0 idle decomposition, watts. Zero when
     *  paused (the FSM's phase power governs then). */
    double powerSavingsWatts() const { return savingsWatts_; }

    /**
     * Resume-to-C0 latency from the current residency: the MAX of the
     * resident states' exit latencies along the wake path (levels power
     * up in parallel), not the sum. Zero when awake or paused.
     */
    sim::SimTime wakeLatency() const { return wakeLatency_; }
    ///@}

    /** @name Accounting */
    ///@{
    /** Total transition energy charged so far, joules. */
    double transitionEnergyJoules() const { return transitionJoules_; }

    /** State-change commands that moved at least one level. */
    std::uint64_t transitions() const { return transitions_; }

    /** Core-seconds of residency at @p depth (0 = C0/busy), closed as of
     *  the last state change; call finish() to close at a given time. */
    double coreResidencySeconds(int depth) const;

    /** Package-seconds of residency at @p depth. */
    double packageResidencySeconds(int depth) const;

    /** Close the residency accounting at @p t (end of run). */
    void finish(sim::SimTime t);
    ///@}

    /** What the owner's hook hears after each refresh of the derived
     *  state (see setUpdateHook()). */
    struct Update
    {
        /** wakeLatency() as of this refresh. */
        sim::SimTime wakeLatency;
        /** A command moved at least one level. */
        bool transitioned = false;
        /** Transition energy of that move, joules: 0 without a move, and
         *  for the forced exits of pause(). */
        double joules = 0.0;
    };

    /**
     * The owner's one hook: the host wires it to its meter (the energy
     * impulse), its power re-hold and its FleetStore rows. It runs at the
     * end of every refresh of savings and wake latency — after every
     * command, pause() and resume() — so a mirror of wakeLatency() kept
     * by the hook is never stale.
     */
    void setUpdateHook(std::function<void(const Update &)> hook);

    /** Journal this hierarchy's idle_transition records under the given
     *  host track id (same id space as the power FSM's track). */
    void setTelemetryTrack(std::int32_t track) { track_ = track; }

  private:
    /** Apply a (busy, coreDepth, pkgDepth) target: journal the per-level
     *  group transitions, charge energy, refresh cached savings/latency. */
    void applyTarget(int busy, int core_depth, int pkg_depth,
                     bool charge_energy);

    /** Deepest package depth allowed by the gates for the given core
     *  residency. */
    int gatedPackageDepth(int wanted, int busy, int core_depth) const;

    /** Recompute savings and wake latency, then call the update hook
     *  with them and the given transition (the one writer of both). */
    void refreshDerived(bool transitioned, double joules);
    void accrueResidency(sim::SimTime now);
    const std::string &coreStateName(int depth) const;
    const std::string &packageStateName(int depth) const;

    /** One accumulator per depth: [0] is C0, [d] the d-th listed state. */
    using Residency =
        std::array<double, IdleHierarchySpec::kMaxStatesPerLevel + 1>;

    // Hot state first: a governor tick reads the spec, active_, the busy
    // count and the two depths, all in the object's first cache line.
    std::shared_ptr<const IdleHierarchySpec> spec_;
    bool active_ = true;
    int busyCores_ = 0;
    int coreDepth_ = 0;    ///< depth of the idle cores
    int packageDepth_ = 0;
    std::int32_t track_ = -1;

    double savingsWatts_ = 0.0;
    sim::SimTime wakeLatency_;

    double transitionJoules_ = 0.0;
    std::uint64_t transitions_ = 0;

    sim::Simulator &simulator_;
    std::function<void(const Update &)> onUpdate_;

    sim::SimTime lastAccrual_;
    /** Seconds the current (core-idle, package) residency has held, fed
     *  into the journal records' dur_s on the next change. */
    sim::SimTime coreSpanStart_;
    sim::SimTime packageSpanStart_;

    Residency coreResidencyS_{};    ///< per depth, core-seconds
    Residency packageResidencyS_{}; ///< per depth, pkg-seconds

    static const std::string kC0;
};

} // namespace vpm::power

#endif // VPM_POWER_IDLE_HIERARCHY_HPP
