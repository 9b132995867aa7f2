/**
 * @file
 * Joint speed/sleep policy: the SleepScale control law on top of the idle
 * hierarchy.
 *
 * SleepScale's observation (PAPERS.md) is that frequency scaling and sleep
 * states are one decision, not two: the DVFS operating point changes how
 * long the idle intervals are (slower cores idle less), and the chosen
 * idle state changes what an idle interval is worth. This controller
 * therefore picks, per host per control period, the pair
 *
 *     (DVFS level  x  deepest-allowed idle state per hierarchy level)
 *
 * from a predicted idle-interval length: it EWMA-smooths the host's demand
 * utilization, predicts the expected idle interval as the un-utilized
 * share of the control period, and descends each hierarchy level to the
 * deepest state whose break-even interval (power/breakeven.hpp math, on
 * the level's own baseline watts) fits inside the prediction — subject to
 * a wake-latency bound, the agility knob the source paper sweeps.
 *
 * Busy-core count is provisioned from demand at the chosen frequency, so
 * slowing down concentrates work onto more-busy cores while the remainder
 * sleep — exactly the coupling that makes the joint choice beat either
 * knob alone.
 *
 * Threading: control cycles run from the evaluation hook on the main
 * thread, mutating hierarchies and frequencies there only (PR 5 contract).
 */

#ifndef VPM_CORE_JOINT_POLICY_HPP
#define VPM_CORE_JOINT_POLICY_HPP

#include <cstdint>
#include <vector>

#include "datacenter/datacenter_sim.hpp"

namespace vpm::power {
struct IdleHierarchySpec;
}

namespace vpm::mgmt {

/** Joint policy knobs. */
struct JointPolicyConfig
{
    /** Selectable frequency fractions, ascending, each in (0, 1], last
     *  must be 1.0 (nominal). Ignored when controlSpeed is false. */
    std::vector<double> speedLevels{0.6, 0.7, 0.8, 0.9, 1.0};

    /** Demand headroom at the chosen level: pick the lowest f with
     *  demand <= target * capacity * f. */
    double targetUtilization = 0.85;

    /** Control period; must be a multiple of the evaluation interval. */
    sim::SimTime period = sim::SimTime::minutes(1.0);

    /** Wake-latency bound: never pick an idle state whose exit latency
     *  exceeds this (the agility constraint). */
    sim::SimTime latencyBound = sim::SimTime::millis(1);

    /** Drive the DVFS knob (false = C-states-only ablation). */
    bool controlSpeed = true;

    /** Drive the idle-state knob (false = speed-only ablation). */
    bool controlIdle = true;

    /** EWMA smoothing of per-host utilization, in (0, 1]. */
    double idleEwmaAlpha = 0.3;

    /**
     * The speed choice covers the PEAK demand of the last this-many
     * control cycles, not just the current sample. 1 is purely reactive
     * (cheapest, but a demand step lands on a stale low frequency and is
     * served degraded for one period); larger windows trade a little
     * dynamic energy for surge robustness. Ignored when controlSpeed is
     * false.
     */
    int speedWindowCycles = 1;

    /**
     * Downshift insurance: the chosen level must also fit this multiple
     * of the window's peak inside FULL capacity, so a demand step up to
     * the guard factor lands without saturating even before the next
     * upshift. 1.0 disables the guard (the targetUtilization headroom is
     * then the only margin). Ignored when controlSpeed is false.
     */
    double speedSurgeGuard = 1.0;
};

/**
 * Per-host joint (frequency x idle-state) governor driven off the
 * evaluation cadence. Hosts without an attached IdleHierarchy get the
 * speed knob only.
 */
class JointPolicyController
{
  public:
    JointPolicyController(dc::Cluster &cluster, dc::DatacenterSim &dcsim,
                          const JointPolicyConfig &config = {});

    JointPolicyController(const JointPolicyController &) = delete;
    JointPolicyController &operator=(const JointPolicyController &) = delete;

    /** Hook onto the evaluation cadence. Call exactly once. */
    void start();

    /** Run one control step immediately (tests drive this directly). */
    void controlCycle();

    /** Frequency-change commands issued so far. */
    std::uint64_t speedTransitions() const { return speedTransitions_; }

    /** Idle-hierarchy group transitions caused by this policy. */
    std::uint64_t idleTransitions() const { return idleTransitions_; }

    /** Control cycles executed. */
    std::uint64_t cycles() const { return cycles_; }

    const JointPolicyConfig &config() const { return config_; }

    /** @name Replay / what-if branching
     *
     * Branch variants reuse one fully-built session (manager + joint
     * controller + hierarchies) and switch knobs at the fork point
     * instead of rebuilding, so the pre-fork history is shared by
     * construction. An inactive controller still counts cycles — the
     * evaluation cadence must stay identical across variants — but
     * touches neither knob.
     */
    ///@{
    /** Enable/disable the whole controller at a branch point. */
    void setActive(bool active) { active_ = active; }
    bool active() const { return active_; }

    /** Toggle just the DVFS knob (C-states-only variants). The caller
     *  owns resetting frequencies already lowered before the switch. */
    void setControlSpeed(bool on) { config_.controlSpeed = on; }

    /**
     * Append the controller's mutable state to @p out, byte-stable.
     * Captured by replay checkpoints for equality proofs; never loaded
     * back (restore re-executes the prefix).
     */
    void serializeState(std::vector<std::uint8_t> &out) const;
    ///@}

  private:
    /**
     * Break-even seconds per level of one shared idle spec under the
     * latency bound, shallowest state first. A level's list stops at its
     * first state whose exit latency exceeds the bound or that has no
     * break-even, so a cycle descends while the prediction covers the
     * next entry.
     */
    struct Ladder
    {
        const power::IdleHierarchySpec *spec = nullptr;
        std::vector<double> core;
        std::vector<double> package;
    };

    /** The ladder of @p spec, built on first use. Keyed by address:
     *  equal specs share one object (IdleHierarchySpec::shared), and a
     *  spec outlives the hierarchies of the cluster that point at it. */
    const Ladder &ladderFor(const power::IdleHierarchySpec &spec);

    dc::Cluster &cluster_;
    dc::DatacenterSim &dcsim_;
    JointPolicyConfig config_;
    bool started_ = false;
    bool active_ = true;
    std::uint64_t evaluationsSeen_ = 0;
    std::uint64_t evaluationsPerCycle_ = 1;
    std::uint64_t speedTransitions_ = 0;
    std::uint64_t idleTransitions_ = 0;
    std::uint64_t cycles_ = 0;

    /** Per-host EWMA of demand utilization (index = HostId); negative
     *  means "not yet seeded" (first sample seeds it directly). */
    std::vector<double> rhoEwma_;

    /** Per-host ring of recent demand samples (speedWindowCycles wide),
     *  backing the windowed-peak speed choice. */
    std::vector<std::vector<double>> demandWindow_;

    std::vector<Ladder> ladders_; ///< one per distinct spec seen
};

} // namespace vpm::mgmt

#endif // VPM_CORE_JOINT_POLICY_HPP
