#include "core/scenario.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "power/idle_hierarchy.hpp"
#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::mgmt {

void
staticInitialPlacement(
    dc::Cluster &cluster,
    const std::vector<std::vector<dc::VmId>> &anti_affinity_groups)
{
    std::unordered_map<dc::VmId, int> group_of;
    for (std::size_t g = 0; g < anti_affinity_groups.size(); ++g) {
        for (const dc::VmId id : anti_affinity_groups[g])
            group_of.emplace(id, static_cast<int>(g));
    }

    // First-fit decreasing by full VM CPU size: the static placement an
    // administrator would configure once, with no knowledge of demand.
    std::vector<dc::VmId> order;
    for (const auto &vm_ptr : cluster.vms()) {
        if (!vm_ptr->placed())
            order.push_back(vm_ptr->id());
    }
    std::sort(order.begin(), order.end(), [&](dc::VmId a, dc::VmId b) {
        const double ca = cluster.vm(a).cpuMhz();
        const double cb = cluster.vm(b).cpuMhz();
        if (ca != cb)
            return ca > cb;
        return a < b;
    });

    std::vector<double> cpu_used(cluster.hostCount(), 0.0);
    std::vector<std::set<int>> groups_on(cluster.hostCount());
    for (dc::VmId vm_id : order) {
        const dc::Vm &vm = cluster.vm(vm_id);
        const auto group_it = group_of.find(vm_id);
        bool placed = false;
        for (std::size_t h = 0; h < cluster.hostCount(); ++h) {
            const dc::Host &host = cluster.host(static_cast<dc::HostId>(h));
            if (cpu_used[h] + vm.cpuMhz() > host.cpuCapacityMhz())
                continue;
            if (!cluster.memoryFits(vm, host))
                continue;
            if (group_it != group_of.end() &&
                groups_on[h].contains(group_it->second)) {
                continue; // an anti-affinity sibling already lives here
            }
            cluster.placeVm(vm_id, static_cast<dc::HostId>(h));
            cpu_used[h] += vm.cpuMhz();
            if (group_it != group_of.end())
                groups_on[h].insert(group_it->second);
            placed = true;
            break;
        }
        if (!placed)
            sim::fatal("staticInitialPlacement: VM '%s' (%g MHz, %g MB) "
                       "does not fit anywhere; shrink the fleet or grow "
                       "the cluster", vm.name().c_str(), vm.cpuMhz(),
                       vm.memoryMb());
    }
}

Rig::Rig(sim::Simulator &simulator, dc::Cluster &cluster,
         const ScenarioConfig &config)
    : simulator_(simulator), cluster_(cluster)
{
    if (config.dvfs && config.jointPolicy)
        sim::fatal("Rig: dvfs and jointPolicy both set — the "
                   "joint policy owns the speed knob");

    // Hierarchies first: each registers its host's second power-FSM
    // observer, behind only the host's own (which carries the admission
    // epoch), and ahead of every engine's.
    if (config.idleHierarchy) {
        for (const auto &host_ptr : cluster_.hosts())
            host_ptr->attachIdleHierarchy(
                std::make_unique<power::IdleHierarchy>(
                    simulator_, *config.idleHierarchy));
    }

    migration_ = std::make_unique<dc::MigrationEngine>(simulator_, cluster_,
                                                       config.migration);
    dcsim_ = std::make_unique<dc::DatacenterSim>(simulator_, cluster_,
                                                 *migration_,
                                                 config.datacenter);
    manager_ = std::make_unique<VpmManager>(simulator_, cluster_,
                                            *migration_, *dcsim_,
                                            config.manager);

    if (config.topology) {
        topology_ = std::make_unique<dc::Topology>(
            static_cast<int>(cluster_.hostCount()), *config.topology);
        migration_->setTopology(topology_.get());
        manager_->attachTopology(*topology_);
    }

    if (config.provisioning) {
        provisioning_ = std::make_unique<dc::ProvisioningEngine>(
            simulator_, cluster_, *config.provisioning);
        manager_->attachProvisioning(*provisioning_);
        provisioning_->start();
    }
    manager_->start();

    if (config.dvfs) {
        dvfs_ = std::make_unique<DvfsController>(cluster_, *dcsim_,
                                                 *config.dvfs);
        dvfs_->start();
    }

    if (config.jointPolicy) {
        joint_ = std::make_unique<JointPolicyController>(
            cluster_, *dcsim_, *config.jointPolicy);
        joint_->start();
    }

    if (config.failures) {
        failures_ = std::make_unique<dc::FailureInjector>(
            simulator_, cluster_, *config.failures);
        failures_->start();
    }

    // Reference trackers, sampled on the evaluation cadence.
    const double total_capacity = cluster_.totalCpuCapacityMhz();
    const double per_host_capacity = cluster_.host(0).cpuCapacityMhz();
    double per_host_peak = config.powerSpec.peakPowerWatts();
    if (!config.heterogeneousSpecs.empty()) {
        per_host_peak = 0.0;
        for (const power::HostPowerSpec &spec : config.heterogeneousSpecs)
            per_host_peak += spec.peakPowerWatts();
        per_host_peak /= static_cast<double>(
            config.heterogeneousSpecs.size());
    }
    offeredLoad_ = stats::TimeWeighted(simulator_.now(), 0.0);
    idealPower_ = stats::TimeWeighted(simulator_.now(), 0.0);
    dcsim_->addEvaluationHook([this, total_capacity, per_host_capacity,
                               per_host_peak,
                               probe = config.evaluationProbe] {
        PROF_ZONE("mgmt.offered_load");
        const double demand = cluster_.totalVmDemandMhz();
        offeredLoad_.update(simulator_.now(), demand / total_capacity);
        idealPower_.update(simulator_.now(),
                           demand / per_host_capacity * per_host_peak);
        if (probe)
            probe(cluster_, simulator_.now());
    });
}

Rig::~Rig() = default;

void
Rig::startIdleGovernors(sim::SimTime period)
{
    // Scheduled from the main thread, so the event stream — and every
    // replay checkpoint — is deterministic. The offset is non-decreasing
    // in h, so one pass splits the fleet into its cohorts.
    governorPeriod_ = period;
    const std::size_t count = cluster_.hostCount();
    const auto spread =
        static_cast<std::size_t>(std::max(1.0, period.toSeconds()));
    std::size_t begin = 0;
    while (begin < count) {
        const std::size_t slot = begin * spread / count;
        std::size_t end = begin + 1;
        while (end < count && end * spread / count == slot)
            ++end;
        const auto first = static_cast<dc::HostId>(begin);
        const auto last = static_cast<dc::HostId>(end);
        simulator_.schedule(
            sim::SimTime::seconds(static_cast<double>(slot)),
            [this, first, last] { governorSweep(first, last); },
            "idle-governor");
        begin = end;
    }
}

void
Rig::governorSweep(dc::HostId begin, dc::HostId end)
{
    // Host-id order on the main thread, as the per-host events fired. A
    // tick that would change nothing commands nothing: a steady host
    // costs a read.
    const auto &hosts = cluster_.hosts();
    for (auto h = static_cast<std::size_t>(begin);
         h < static_cast<std::size_t>(end); ++h)
        hosts[h]->idleGovernorTick();
    simulator_.schedule(governorPeriod_,
                        [this, begin, end] { governorSweep(begin, end); },
                        "idle-governor");
}

ScenarioResult
Rig::collect()
{
    const sim::SimTime end = simulator_.now();
    ScenarioResult result;
    result.metrics = dcsim_->metrics();
    offeredLoad_.finish(end);
    idealPower_.finish(end);

    result.manager = manager_->stats();
    result.offeredLoadFraction = offeredLoad_.average();
    result.idealProportionalKwh = idealPower_.integralSeconds() / 3.6e6;
    result.meanMigrationSeconds = migration_->completedCount() > 0
                                      ? migration_->durations().mean()
                                      : 0.0;
    result.crossRackMigrations = migration_->crossRackCount();
    if (dvfs_)
        result.dvfsTransitions = dvfs_->transitions();
    if (joint_) {
        result.jointSpeedTransitions = joint_->speedTransitions();
        result.jointIdleTransitions = joint_->idleTransitions();
    }
    if (failures_) {
        result.hostCrashes = failures_->crashes();
        result.hostRepairs = failures_->repairs();
    }
    if (provisioning_) {
        result.vmArrivals = provisioning_->arrivals();
        result.vmDepartures = provisioning_->departures();
        result.meanPlacementDelaySeconds =
            provisioning_->placementDelays().mean();
        result.maxPlacementDelaySeconds =
            provisioning_->placementDelays().max();
    }

    // Fleet-wide wake agility: every completed wake's end-to-end latency,
    // pooled across hosts. The p99 is exact (per-wake samples, not
    // buckets) — it is the sweep orchestrator's agility objective.
    std::vector<double> wake_latencies;
    for (const auto &host_ptr : cluster_.hosts()) {
        if (power::IdleHierarchy *hier = host_ptr->idleHierarchy()) {
            hier->finish(end);
            result.idleTransitions += hier->transitions();
            result.idleTransitionJoules += hier->transitionEnergyJoules();
        }
        const std::vector<double> &samples =
            host_ptr->powerFsm().wakeLatenciesSeconds();
        wake_latencies.insert(wake_latencies.end(), samples.begin(),
                              samples.end());
    }
    result.wakes = wake_latencies.size();
    if (!wake_latencies.empty()) {
        stats::Summary wake_summary;
        for (const double s : wake_latencies)
            wake_summary.add(s);
        result.meanWakeSeconds = wake_summary.mean();
        result.wakeP99Seconds =
            stats::percentileExact(std::move(wake_latencies), 0.99);
    }
    result.eventsProcessed = simulator_.eventsProcessed();
    return result;
}

ScenarioResult
runScenario(const ScenarioConfig &config)
{
    if (config.hostCount < 1)
        sim::fatal("runScenario: need at least one host");
    if (config.duration <= sim::SimTime())
        sim::fatal("runScenario: duration must be positive");

    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    for (int h = 0; h < config.hostCount; ++h) {
        const power::HostPowerSpec &spec =
            config.heterogeneousSpecs.empty()
                ? config.powerSpec
                : config.heterogeneousSpecs[static_cast<std::size_t>(h) %
                                            config.heterogeneousSpecs
                                                .size()];
        cluster.addHost(config.hostConfig, spec);
    }

    sim::Rng rng(config.seed);
    std::vector<workload::VmWorkloadSpec> fleet =
        workload::makeEnterpriseMix(rng, config.vmCount, config.mix);
    if (config.transformFleet)
        config.transformFleet(fleet);
    for (workload::VmWorkloadSpec &spec : fleet)
        cluster.addVm(std::move(spec));
    staticInitialPlacement(cluster, config.manager.antiAffinityGroups);

    Rig rig(simulator, cluster, config);
    rig.dcsim().start();
    simulator.runUntil(simulator.now() + config.duration);
    return rig.collect();
}

void
addSurgeSchedule(std::vector<workload::VmWorkloadSpec> &fleet)
{
    for (workload::VmWorkloadSpec &spec : fleet) {
        for (const double hour : {3.0, 9.0, 15.0, 21.0}) {
            spec.trace = std::make_shared<workload::SpikeTrace>(
                spec.trace, sim::SimTime::hours(hour),
                sim::SimTime::minutes(30.0), 0.80);
        }
    }
}

void
applyIdleArm(ScenarioConfig &config, IdleArm arm)
{
    config.manager = makePolicy(PolicyKind::PmS3);
    config.manager.sleepState = "SYNTH";
    config.manager.period = sim::SimTime::minutes(1.0);
    switch (arm) {
    case IdleArm::S3Only:
        return;
    case IdleArm::CStatesOnly: {
        // Drained hosts park at the bottom of the hierarchy instead of
        // sleeping: hardware whose only idle mechanism is C-states.
        config.manager.hostSleep = false;
        config.idleHierarchy = power::modernIdleHierarchy();
        JointPolicyConfig idle_only;
        idle_only.controlSpeed = false;
        config.jointPolicy = idle_only;
        return;
    }
    case IdleArm::Joint: {
        // Drained hosts park first (instant reclaim) and the oldest
        // escalate to the deep S-state once the reserve is full, while
        // the speed/sleep governor harvests the idle gaps on hosts still
        // serving load.
        config.idleHierarchy = power::modernIdleHierarchy();
        JointPolicyConfig joint_policy;
        joint_policy.speedWindowCycles = 15;
        joint_policy.speedSurgeGuard = 2.0;
        config.jointPolicy = joint_policy;
        config.manager.parkedReserve = 3;
        return;
    }
    }
}

} // namespace vpm::mgmt
