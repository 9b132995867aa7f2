/**
 * @file
 * Scenario harness: one-call construction and execution of a complete
 * experiment (cluster + fleet + policy), shared by the benches, examples
 * and integration tests.
 *
 * A scenario builds a homogeneous cluster, draws a VM fleet from the
 * enterprise mix, places it statically (first-fit decreasing by VM size),
 * runs the chosen management policy for the configured duration, and
 * returns the run metrics plus manager counters and the ideal
 * energy-proportional reference energy.
 *
 * Everything around the placed fleet — idle hierarchies, engines,
 * idle-governor cohort, reference trackers, close-out — is one Rig,
 * which the replay session and the hyperscale bench build on their own
 * fleets too.
 */

#ifndef VPM_CORE_SCENARIO_HPP
#define VPM_CORE_SCENARIO_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/dvfs.hpp"
#include "core/joint_policy.hpp"
#include "core/manager.hpp"
#include "core/policies.hpp"
#include "datacenter/datacenter_sim.hpp"
#include "datacenter/failure.hpp"
#include "datacenter/provisioning.hpp"
#include "datacenter/topology.hpp"
#include "power/server_models.hpp"
#include "stats/summary.hpp"
#include "workload/mix.hpp"

namespace vpm::mgmt {

/** Everything needed to run one experiment. */
struct ScenarioConfig
{
    int hostCount = 8;
    int vmCount = 40;

    dc::HostConfig hostConfig{};
    power::HostPowerSpec powerSpec = power::enterpriseBlade2013();

    /**
     * When non-empty, host i uses heterogeneousSpecs[i % size()] instead
     * of powerSpec (capacities stay uniform). The ideal-proportional
     * reference then uses the specs' mean peak power.
     */
    std::vector<power::HostPowerSpec> heterogeneousSpecs;

    workload::MixConfig mix{};
    dc::MigrationConfig migration{};
    dc::DatacenterConfig datacenter{};
    VpmConfig manager{};

    sim::SimTime duration = sim::SimTime::hours(24.0);
    std::uint64_t seed = 42;

    /** When set, VM lifecycle churn runs on top of the static fleet and
     *  the manager counts pending arrivals as required capacity. */
    std::optional<dc::ProvisioningConfig> provisioning;

    /** When set, a DVFS governor scales host frequencies to demand. */
    std::optional<DvfsConfig> dvfs;

    /** When set, every host gets this idle-state hierarchy attached under
     *  its power FSM (core C-states + package states). */
    std::optional<power::IdleHierarchySpec> idleHierarchy;

    /** When set, a joint speed/sleep governor runs each control period
     *  (requires idleHierarchy for the sleep half to do anything).
     *  Mutually exclusive with dvfs — the joint policy owns the speed
     *  knob via controlSpeed. */
    std::optional<JointPolicyConfig> jointPolicy;

    /** When set, hosts crash and get repaired per the failure process;
     *  the manager's HA restart and spare floor handle the fallout. */
    std::optional<dc::FailureConfig> failures;

    /** When set, the network has racks: migrations pay locality-dependent
     *  bandwidth and share per-rack uplink slots; the manager's
     *  rackAffinity knob becomes meaningful. */
    std::optional<dc::TopologyConfig> topology;

    /**
     * Optional fleet post-processing hook, applied after the mix is drawn
     * and before VMs are created — e.g. to overlay a load spike (F6).
     */
    std::function<void(std::vector<workload::VmWorkloadSpec> &)>
        transformFleet;

    /**
     * Optional probe fired after every demand evaluation with the cluster
     * state and the current simulated time — lets benches record time
     * series (power timelines, recovery times) without owning the rig.
     */
    std::function<void(const dc::Cluster &, sim::SimTime)> evaluationProbe;
};

/** Results of one scenario run. */
struct ScenarioResult
{
    dc::RunMetrics metrics;
    ManagerStats manager;

    /** Time-weighted mean of total demand / total capacity. */
    double offeredLoadFraction = 0.0;

    /** Energy of an ideal energy-proportional cluster serving the same
     *  demand, in kWh — the reference line of the proportionality figure.*/
    double idealProportionalKwh = 0.0;

    /** Mean live-migration duration, in seconds (0 if none completed). */
    double meanMigrationSeconds = 0.0;

    /** @name Churn outcomes (zero unless provisioning was enabled) */
    ///@{
    std::uint64_t vmArrivals = 0;
    std::uint64_t vmDepartures = 0;

    /** Mean wait between a VM's arrival and its placement, in seconds. */
    double meanPlacementDelaySeconds = 0.0;

    /** Worst single placement wait, in seconds. */
    double maxPlacementDelaySeconds = 0.0;
    ///@}

    /** Frequency-change commands (zero unless DVFS was enabled). */
    std::uint64_t dvfsTransitions = 0;

    /** @name Joint-policy outcomes (zero unless jointPolicy was set) */
    ///@{
    std::uint64_t jointSpeedTransitions = 0;
    std::uint64_t jointIdleTransitions = 0;
    ///@}

    /** Idle-hierarchy group transitions fleet-wide (policy + manager
     *  descents; zero unless idleHierarchy was set). */
    std::uint64_t idleTransitions = 0;

    /** Fleet-wide C-state transition energy, joules (part of totalKwh). */
    double idleTransitionJoules = 0.0;

    /** Completed migrations that crossed racks (zero on flat networks). */
    std::uint64_t crossRackMigrations = 0;

    /** @name Failure outcomes (zero unless failures were enabled) */
    ///@{
    std::uint64_t hostCrashes = 0;
    std::uint64_t hostRepairs = 0;
    ///@}

    /** @name Wake agility (fleet-wide, from the power FSM wake samples) */
    ///@{
    std::uint64_t wakes = 0;         ///< completed host wakes
    double meanWakeSeconds = 0.0;    ///< mean end-to-end wake latency
    double wakeP99Seconds = 0.0;     ///< 99th pct end-to-end wake latency
    ///@}

    /** Simulator events dispatched by this run (per-instance counter, so
     *  concurrent sweep cells attribute throughput correctly). */
    std::uint64_t eventsProcessed = 0;
};

/**
 * Place every VM with first-fit decreasing by full VM size (CPU limit 1.0,
 * memory limit enforced, anti-affinity groups respected). Fatal if the
 * fleet does not fit — that is a scenario configuration error.
 */
void staticInitialPlacement(
    dc::Cluster &cluster,
    const std::vector<std::vector<dc::VmId>> &anti_affinity_groups = {});

/**
 * The simulation rig around a placed fleet: the one place that attaches
 * idle hierarchies, builds and starts the engines, runs the idle-governor
 * cohort and closes a run out into a ScenarioResult.
 *
 * Borrows the simulator and a cluster whose fleet the caller has already
 * added and placed, and reads only the config's control fields
 * (idleHierarchy, migration, datacenter, manager, topology, provisioning,
 * dvfs, jointPolicy, failures, powerSpec/heterogeneousSpecs,
 * evaluationProbe). Hierarchies attach before any engine registers a
 * power-FSM observer; every engine but dcsim starts at construction.
 * dcsim().start() schedules the first evaluation, so the caller orders
 * it against startIdleGovernors(). Closures hold `this`: not movable.
 */
class Rig
{
  public:
    /** Fatal when both dvfs and jointPolicy are set — the joint policy
     *  owns the speed knob. */
    Rig(sim::Simulator &simulator, dc::Cluster &cluster,
        const ScenarioConfig &config);
    ~Rig();

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /**
     * Give every host a self-rescheduling idle-governor tick on
     * @p period: the OS tick that reports busy cores to the C-state
     * hierarchy and demotes the idle ones. First ticks are staggered over
     * one period in contiguous host blocks, so governors that fire
     * together walk sequential fleet-store rows. Call at most once.
     */
    void startIdleGovernors(sim::SimTime period);

    /** Close the run out at the current instant: metrics, engine
     *  counters, reference trackers, every attached idle hierarchy and
     *  fleet-wide wake agility. Call exactly once. */
    ScenarioResult collect();

    dc::MigrationEngine &migration() { return *migration_; }
    dc::DatacenterSim &dcsim() { return *dcsim_; }
    VpmManager &manager() { return *manager_; }

    /** The joint speed/sleep governor; nullptr unless jointPolicy. */
    JointPolicyController *joint() { return joint_.get(); }

  private:
    void governorTick(dc::HostId h);

    sim::Simulator &simulator_;
    dc::Cluster &cluster_;
    std::unique_ptr<dc::MigrationEngine> migration_;
    std::unique_ptr<dc::DatacenterSim> dcsim_;
    std::unique_ptr<VpmManager> manager_;
    std::unique_ptr<dc::Topology> topology_;
    std::unique_ptr<dc::ProvisioningEngine> provisioning_;
    std::unique_ptr<DvfsController> dvfs_;
    std::unique_ptr<JointPolicyController> joint_;
    std::unique_ptr<dc::FailureInjector> failures_;
    stats::TimeWeighted offeredLoad_; ///< demand / capacity
    stats::TimeWeighted idealPower_;  ///< energy-proportional reference
    sim::SimTime governorPeriod_;
};

/** Build, run and tear down one scenario. Deterministic given the seed. */
ScenarioResult runScenario(const ScenarioConfig &config);

/**
 * The surge workload of F9, F11 and the sweep's "surge" column, shaped
 * for ScenarioConfig::transformFleet: every VM spikes to 80% for 30 min
 * at 03:00, 09:00, 15:00 and 21:00, outside the predictor's memory, so
 * wake latency is on the critical path.
 */
void addSurgeSchedule(std::vector<workload::VmWorkloadSpec> &fleet);

/** The idle-management arms F11 compares (and the sweep's PM columns). */
enum class IdleArm
{
    S3Only,      ///< consolidate and sleep whole hosts; no hierarchy
    CStatesOnly, ///< same manager, drained hosts park at C-state depth
    Joint,       ///< hierarchy + speed/sleep governor + parked reserve
};

/** Configure @p config as one arm: each runs PM+S3 on a 1-minute period,
 *  sleeping through "SYNTH" — the caller sets powerSpec to
 *  power::bladeWithSyntheticState at the swept exit latency. */
void applyIdleArm(ScenarioConfig &config, IdleArm arm);

} // namespace vpm::mgmt

#endif // VPM_CORE_SCENARIO_HPP
