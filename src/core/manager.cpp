#include "core/manager.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "power/idle_hierarchy.hpp"
#include "simcore/byte_append.hpp"
#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::mgmt {

namespace {

/** Heading for On: exiting, or still entering with a wake latched. */
bool
arriving(const power::PowerStateMachine &fsm)
{
    const power::PowerPhase phase = fsm.phase();
    return phase == power::PowerPhase::Exiting ||
           (phase == power::PowerPhase::Entering && fsm.wakePending());
}

/** A wake would bring the host back: asleep, or still entering without a
 *  latched wake — and not crashed hardware under repair. */
bool
wakeable(const power::PowerStateMachine &fsm)
{
    if (fsm.wakeInhibited())
        return false;
    const power::PowerPhase phase = fsm.phase();
    return phase == power::PowerPhase::Asleep ||
           (phase == power::PowerPhase::Entering && !fsm.wakePending());
}

/** The manager's predictor family; a periodic profile spans 24 h of
 *  management cycles. Runs ahead of the constructor's other checks. */
PredictorParams
configuredPredictor(const VpmConfig &config)
{
    if (config.period <= sim::SimTime())
        sim::fatal("VpmManager: period must be positive");
    PredictorParams params;
    params.kind = config.predictor;
    if (config.predictor == PredictorKind::PeriodicProfile) {
        const auto slots = static_cast<std::size_t>(
            sim::SimTime::hours(24.0).micros() / config.period.micros());
        params.slotsPerPeriod = std::max<std::size_t>(slots, 2);
    }
    return params;
}

} // namespace

VpmManager::VpmManager(sim::Simulator &simulator, dc::Cluster &cluster,
                       dc::MigrationEngine &migration,
                       dc::DatacenterSim &dcsim, const VpmConfig &config)
    : simulator_(simulator), cluster_(cluster), migration_(migration),
      dcsim_(dcsim), config_(config),
      predictors_(configuredPredictor(config), kAggregateRow + 1),
      forecastTracker_(toString(config.predictor)),
      expectedIdle_(config.expectedIdleSeed)
{
    const std::int64_t period_us = config_.period.micros();
    const std::int64_t eval_us =
        dcsim_.config().evaluationInterval.micros();
    if (period_us % eval_us != 0)
        sim::fatal("VpmManager: period (%lld us) must be a multiple of the "
                   "evaluation interval (%lld us)",
                   static_cast<long long>(period_us),
                   static_cast<long long>(eval_us));
    if (config_.targetUtilization <= 0.0 || config_.targetUtilization > 1.0)
        sim::fatal("VpmManager: target utilization %g outside (0, 1]",
                   config_.targetUtilization);
    if (config_.capacityBuffer < 0.0)
        sim::fatal("VpmManager: negative capacity buffer %g",
                   config_.capacityBuffer);
    if (config_.hysteresisCycles < 1)
        sim::fatal("VpmManager: hysteresis must be >= 1 cycle");
    if (config_.maxMigrationsPerCycle < 1)
        sim::fatal("VpmManager: need at least one migration per cycle");
    if (config_.maxEvacuationsPerCycle < 0)
        sim::fatal("VpmManager: negative evacuation budget");
    if (config_.spareHostsFloor < 0)
        sim::fatal("VpmManager: negative spare-hosts floor");
    if (config_.hierarchical &&
        (config_.hostsPerRack == 0 || config_.racksPerPod == 0))
        sim::fatal("VpmManager: hierarchical mode needs positive rack and "
                   "pod widths");
}

void
VpmManager::start()
{
    if (started_)
        sim::panic("VpmManager::start called twice");
    started_ = true;

    evaluationsPerCycle_ = static_cast<std::uint64_t>(
        config_.period.micros() /
        dcsim_.config().evaluationInterval.micros());

    if (config_.hierarchical)
        tree_.configure(cluster_, config_.hostsPerRack,
                        config_.racksPerPod);

    dcsim_.addEvaluationHook([this] {
        ++evaluationsSeen_;
        if ((evaluationsSeen_ - 1) % evaluationsPerCycle_ == 0)
            managementCycle();
    });
}

void
VpmManager::attachProvisioning(dc::ProvisioningEngine &provisioning)
{
    provisioning_ = &provisioning;
}

void
VpmManager::attachTopology(const dc::Topology &topology)
{
    topology_ = &topology;
}

void
VpmManager::managementCycle()
{
    if (config_.hierarchical) {
        hierarchicalCycle();
        return;
    }
    PROF_ZONE("mgmt.cycle");
    ++stats_.cycles;
    observeDemand();
    if (config_.haRestart)
        restartStrandedVms();
    if (config_.powerManage) {
        ensureCapacity();
        ensurePlacementHeadroom();
    }
    rebalanceAndConsolidate();
    if (config_.powerManage)
        completeDrains();
}

void
VpmManager::hierarchicalCycle()
{
    PROF_ZONE("mgmt.hier_cycle");
    ++stats_.cycles;
    // Tests drive managementCycle() directly without start(); lazily
    // configure the tree so they get the same path.
    if (!tree_.configured())
        tree_.configure(cluster_, config_.hostsPerRack,
                        config_.racksPerPod);
    tree_.refresh();
    const dc::FleetAggregate &root = tree_.root();

    // Aggregate-only prediction: the root row replaces the per-VM scan
    // and the per-VM predictor slots entirely.
    predictors_.observe(kAggregateRow, root.demandMhz);
    forecastTracker_.observe(simulator_.now().micros(), root.demandMhz,
                             predictors_.predict(kAggregateRow));
    if (!config_.powerManage)
        return;

    const double required = requiredCapacityMhz() + spareFloorMhz();
    const double limit = config_.targetUtilization;

    // Committed = On capacity straight off the root row, plus arriving
    // hosts found by descending only into racks reporting transitioning
    // members.
    double committed = root.onEffectiveCapMhz;
    for (const dc::FleetAggregate &rack : tree_.racks()) {
        if (rack.hostsTransitioning == 0)
            continue;
        for (std::size_t i = rack.begin; i < rack.end; ++i) {
            const dc::Host &host =
                cluster_.host(static_cast<dc::HostId>(i));
            if (arriving(host.powerFsm()))
                committed += host.cpuCapacityMhz();
        }
    }

    if (required > limit * committed) {
        ++stats_.shortfallCycles;
        surplusStreak_ = 0;
        wakeHierarchical(required, limit, committed);
        return;
    }

    // Sustained surplus: sleep naturally empty hosts. The same
    // hysteresis knob as flat mode gates the first sleep of a streak.
    ++surplusStreak_;
    if (surplusStreak_ >= config_.hysteresisCycles && config_.hostSleep)
        sleepHierarchical(required, limit, committed);
}

void
VpmManager::wakeHierarchical(double required, double limit,
                             double committed)
{
    // Racks with the most sleeping hosts first: reclaimed capacity
    // concentrates, so later cycles touch fewer racks. Ties resolve to
    // the lower rack index, keeping the order deterministic.
    std::vector<std::size_t> candidates;
    const std::vector<dc::FleetAggregate> &racks = tree_.racks();
    for (std::size_t r = 0; r < racks.size(); ++r)
        if (racks[r].hostsAsleep > 0)
            candidates.push_back(r);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&racks](std::size_t a, std::size_t b) {
                         return racks[a].hostsAsleep > racks[b].hostsAsleep;
                     });

    for (const std::size_t r : candidates) {
        for (std::size_t i = racks[r].begin; i < racks[r].end; ++i) {
            if (required <= limit * committed)
                return;
            const auto host_id = static_cast<dc::HostId>(i);
            dc::Host &host = cluster_.host(host_id);
            if (inMaintenance(host_id) || !wakeable(host.powerFsm()))
                continue;
            const WakeResult result = wakeHost(host, "capacity-shortfall");
            if (result == WakeResult::CapDenied)
                return; // the cap binds; more wakes only project higher
            if (result == WakeResult::Issued)
                committed += host.cpuCapacityMhz();
        }
    }
}

void
VpmManager::sleepHierarchical(double required, double limit,
                              double committed)
{
    // Only racks advertising empty On hosts are walked; each sleep must
    // leave the committed margin intact, so the loop self-limits.
    const std::vector<dc::FleetAggregate> &racks = tree_.racks();
    for (const dc::FleetAggregate &rack : racks) {
        if (rack.emptyOn == 0)
            continue;
        for (std::size_t i = rack.begin; i < rack.end; ++i) {
            const auto host_id = static_cast<dc::HostId>(i);
            if (inMaintenance(host_id))
                continue;
            dc::Host &host = cluster_.host(host_id);
            if (!host.isOn() || !host.empty() ||
                host.activeMigrations() > 0)
                continue;
            if (required >
                limit * (committed - host.effectiveCpuCapacityMhz()))
                return; // sleeping this host would dip below the margin
            const power::SleepStateSpec *state = chooseSleepState(host);
            if (state && sleepHost(host, *state))
                committed -= host.effectiveCpuCapacityMhz();
        }
    }
}

void
VpmManager::observeDemand()
{
    PROF_ZONE("mgmt.observe");
    const dc::FleetStore &fleet = cluster_.fleet();
    const std::size_t vm_count = fleet.vmCount();
    predictors_.grow(vmRow(static_cast<dc::VmId>(vm_count)));
    const dc::HostId *vm_host = fleet.vmHostData();
    const double *demand = fleet.vmDemandData();
    double total = 0.0;
    for (std::size_t v = 0; v < vm_count; ++v) {
        const std::size_t row = vmRow(static_cast<dc::VmId>(v));
        if (vm_host[v] == dc::invalidHostId) {
            // Pending arrivals count via the provisioning hook; a row
            // that lost its host is a departure (only retirement
            // unplaces a VM).
            if (predictors_.active(row) &&
                cluster_.vm(static_cast<dc::VmId>(v)).retired())
                predictors_.reset(row);
            continue;
        }
        predictors_.observe(row, demand[v]);
        total += demand[v];
    }
    predictors_.observe(kAggregateRow, total);
    // Score last cycle's aggregate forecast against what actually arrived
    // and stage the fresh forecast for next cycle's scoring.
    forecastTracker_.observe(simulator_.now().micros(), total,
                             predictors_.predict(kAggregateRow));
}

double
VpmManager::predictedVmMhz(dc::VmId vm) const
{
    const dc::FleetStore &fleet = cluster_.fleet();
    const std::size_t row = vmRow(vm);
    if (row >= predictors_.rows() || !predictors_.active(row))
        return fleet.vmDemandMhz(vm);
    return std::clamp(predictors_.predict(row), 0.0, fleet.vmCpuMhz(vm));
}

double
VpmManager::requiredCapacityMhz() const
{
    double required = predictors_.predict(kAggregateRow) *
                      (1.0 + config_.capacityBuffer);
    // Arrivals waiting for a host need full-size room right now.
    if (provisioning_)
        required += provisioning_->pendingDemandMhz();
    return required;
}

double
VpmManager::committedCapacityMhz() const
{
    // On and staying, or arriving: the phase byte decides all but an
    // entering host, whose latched wake only its FSM knows.
    const dc::FleetStore &fleet = cluster_.fleet();
    double total = 0.0;
    for (std::size_t h = 0; h < fleet.hostCount(); ++h) {
        const auto id = static_cast<dc::HostId>(h);
        const auto phase = static_cast<power::PowerPhase>(fleet.hostPhase(id));
        if (phase == power::PowerPhase::On
                ? hostUsable(id)
                : phase == power::PowerPhase::Exiting ||
                      (phase == power::PowerPhase::Entering &&
                       cluster_.host(id).powerFsm().wakePending()))
            total += fleet.hostCpuCapacityMhz(id);
    }
    return total;
}

void
VpmManager::restartStrandedVms()
{
    // VMs on a host that is Asleep or Entering are dead in the water
    // (crash, or a scripted fault); VMs on an Exiting host will be served
    // again within one boot, so leave them be.
    const dc::FleetStore &fleet = cluster_.fleet();
    const dc::HostId *vm_host = fleet.vmHostData();
    std::vector<dc::VmId> stranded;
    for (std::size_t v = 0; v < fleet.vmCount(); ++v) {
        if (vm_host[v] == dc::invalidHostId)
            continue; // unplaced or retired
        const auto phase =
            static_cast<power::PowerPhase>(fleet.hostPhase(vm_host[v]));
        if (phase != power::PowerPhase::Asleep &&
            phase != power::PowerPhase::Entering)
            continue;
        const auto vm_id = static_cast<dc::VmId>(v);
        if (migration_.involved(vm_id))
            continue; // the engine aborts and we catch it next cycle
        stranded.push_back(vm_id);
    }
    if (stranded.empty())
        return;

    PlacementModel &model = buildModel();
    for (const dc::VmId vm_id : stranded) {
        const PlannedVm &planned = model.vm(vm_id);
        dc::HostId dest = dc::invalidHostId;
        for (const auto &host_ptr : cluster_.hosts()) {
            if (!host_ptr->isOn() || !hostUsable(host_ptr->id()))
                continue;
            if (model.fits(planned, host_ptr->id(),
                           config_.targetUtilization)) {
                dest = host_ptr->id();
                break;
            }
        }
        if (dest == dc::invalidHostId) {
            // No live home yet; ensureCapacity below will wake hosts
            // (the floor erosion shows up as a shortfall) — retry next
            // cycle.
            surplusStreak_ = 0;
            wakeOneHost("ha-restart");
            continue;
        }
        model.apply({vm_id, planned.host, dest});
        model.pin(vm_id);
        cluster_.moveVm(vm_id, dest); // HA restart: instant re-place
        ++stats_.haRestarts;
        sim::inform("HA restarted VM '%s' onto '%s'",
                    cluster_.vm(vm_id).name().c_str(),
                    cluster_.host(dest).name().c_str());
    }
    dcsim_.reallocate();
}

double
VpmManager::spareFloorMhz() const
{
    if (config_.spareHostsFloor == 0 || cluster_.hostCount() == 0)
        return 0.0;
    // Homogeneous-size assumption, documented on the knob.
    return config_.spareHostsFloor * cluster_.host(0).cpuCapacityMhz() *
           config_.targetUtilization;
}

void
VpmManager::ensureCapacity()
{
    PROF_ZONE("mgmt.capacity");
    const double required = requiredCapacityMhz() + spareFloorMhz();
    const double limit = config_.targetUtilization;
    double committed = committedCapacityMhz();

    if (required <= limit * committed)
        return;

    ++stats_.shortfallCycles;
    surplusStreak_ = 0;

    // Cheapest capacity first: draining hosts are still on — keep them.
    const std::vector<dc::HostId> draining_now(draining_.begin(),
                                               draining_.end());
    for (dc::HostId host_id : draining_now) {
        if (required <= limit * committed)
            return;
        cancelDrain(host_id);
        committed += cluster_.host(host_id).cpuCapacityMhz();
    }

    // Then wake sleeping hosts, fastest exit first.
    while (required > limit * committed) {
        if (!wakeOneHost("capacity-shortfall"))
            break; // nothing left to wake; DRM absorbs the overload
        committed = committedCapacityMhz();
    }
}

void
VpmManager::ensurePlacementHeadroom()
{
    // CPU arithmetic alone can miss a memory-bound placement stall: an
    // arrival can find no host with memory headroom even though the
    // cluster has plenty of spare cycles. If any pending VM fits nowhere,
    // wake a host (which arrives with zero committed memory).
    if (!provisioning_ || provisioning_->pendingCount() == 0)
        return;

    for (dc::VmId vm_id : provisioning_->pendingVms()) {
        const dc::Vm &vm = cluster_.vm(vm_id);
        bool fits_somewhere = false;
        for (const auto &host_ptr : cluster_.hosts()) {
            if (!host_ptr->isOn() || !hostUsable(host_ptr->id()))
                continue;
            if (cluster_.memoryFits(vm, *host_ptr)) {
                fits_somewhere = true;
                break;
            }
        }
        if (!fits_somewhere) {
            surplusStreak_ = 0; // capacity is tight; hold consolidation
            wakeOneHost("placement-headroom");
            return; // one per cycle; re-check next cycle
        }
    }
}

dc::Host *
VpmManager::findWakeCandidate() const
{
    // Candidates: asleep, or still entering without a latched wake.
    // Maintenance hosts are never woken on the manager's initiative.
    dc::Host *best = nullptr;
    for (const auto &host_ptr : cluster_.hosts()) {
        const auto &fsm = host_ptr->powerFsm();
        if (inMaintenance(host_ptr->id()) || !wakeable(fsm))
            continue;
        if (!best ||
            fsm.timeToAvailable() < best->powerFsm().timeToAvailable()) {
            best = host_ptr.get();
        }
    }
    return best;
}

double
VpmManager::projectedPeakWatts(const dc::Host *extra) const
{
    double total = 0.0;
    for (const auto &host_ptr : cluster_.hosts()) {
        const auto &fsm = host_ptr->powerFsm();
        if (host_ptr.get() == extra || fsm.isOn() || arriving(fsm)) {
            total += fsm.spec().peakPowerWatts();
        } else if (fsm.sleepState()) {
            total += fsm.sleepState()->sleepPowerWatts;
        } else {
            total += fsm.spec().idlePowerWatts();
        }
    }
    return total;
}

bool
VpmManager::wakeOneHost(const char *reason)
{
    // Parked capacity is free and instant — always reclaim it before
    // paying for a power-state exit. (A parked host that crashed is no
    // longer On; drop it and let the repair path handle it.)
    while (!parked_.empty()) {
        const dc::HostId host_id = *parked_.begin();
        leaveSet(parked_, kParked, host_id);
        parkedAt_.erase(host_id);
        dc::Host &host = cluster_.host(host_id);
        if (!host.isOn())
            continue;
        const std::uint64_t decision = telemetry::newDecisionId();
        telemetry::TraceScope scope(decision);
        if (power::IdleHierarchy *hier = host.idleHierarchy())
            hier->wakeAll();
        ++stats_.hostsUnparked;
        sim::inform("host '%s' unparked (%s)", host.name().c_str(),
                    reason);
        return true;
    }

    dc::Host *best = findWakeCandidate();
    if (!best)
        return false;
    const WakeResult result = wakeHost(*best, reason);
    if (result == WakeResult::Refused) {
        // The hardware died between selection and command (or a similar
        // race); skip this cycle rather than crash.
        sim::warn("VpmManager: wake of '%s' refused", best->name().c_str());
    }
    return result == WakeResult::Issued;
}

VpmManager::WakeResult
VpmManager::wakeHost(dc::Host &host, const char *reason)
{
    // The cap check comes first, so a denied wake mints no decision id.
    if (config_.clusterPowerCapWatts > 0.0 &&
        projectedPeakWatts(&host) > config_.clusterPowerCapWatts) {
        ++stats_.wakesDeniedByCap;
        return WakeResult::CapDenied;
    }

    // Every FSM transition and event this wake triggers — including a
    // latched exit fired from the entry-completion event — is attributed
    // to this decision id.
    const std::uint64_t decision = telemetry::newDecisionId();
    telemetry::TraceScope scope(decision);
    if (!cluster_.requestHostWake(host.id()))
        return WakeResult::Refused;
    ++stats_.wakesIssued;
    telemetry::global().journal().wakeDecision(simulator_.now().micros(),
                                               host.id(), reason);

    // Update the idle-interval estimate from the completed sleep episode.
    if (const auto it = sleepStartedAt_.find(host.id());
        it != sleepStartedAt_.end()) {
        const sim::SimTime observed = simulator_.now() - it->second;
        expectedIdle_ = expectedIdle_ * 0.7 + observed * 0.3;
        sleepStartedAt_.erase(it);
    }
    return WakeResult::Issued;
}

bool
VpmManager::sleepHost(dc::Host &host, const power::SleepStateSpec &state)
{
    // The entry transition (and its completion event) inherit this
    // decision id; the power rates in the record let an analyzer compute
    // the episode's energy saving without the host spec.
    const std::uint64_t decision = telemetry::newDecisionId();
    telemetry::TraceScope scope(decision);
    // The S-states sit above the idle hierarchy: descend it fully first
    // (the cluster refuses the sleep otherwise, and the joint policy may
    // have lifted a parked host since it parked). The resulting
    // idle_transition records carry this decision id.
    if (power::IdleHierarchy *hier = host.idleHierarchy())
        hier->descendFully();
    if (!cluster_.requestHostSleep(host.id(), state.name))
        return false;
    ++stats_.sleepsIssued;
    telemetry::global().journal().sleepDecision(
        simulator_.now().micros(), host.id(), state.name,
        expectedIdle_.toSeconds(), host.powerFsm().spec().idlePowerWatts(),
        state.sleepPowerWatts);
    sleepStartedAt_[host.id()] = simulator_.now();
    return true;
}

PlacementModel
VpmManager::freshModel() const
{
    std::vector<PlannedHost> hosts;
    hosts.reserve(cluster_.hostCount());
    for (const auto &host_ptr : cluster_.hosts()) {
        PlannedHost planned;
        planned.id = host_ptr->id();
        planned.cpuCapacityMhz = host_ptr->cpuCapacityMhz();
        planned.memoryCapacityMb = host_ptr->memoryCapacityMb();
        planned.usable = host_ptr->isOn() && hostUsable(planned.id);
        planned.rack = topology_ ? topology_->rackOf(planned.id) : 0;
        hosts.push_back(planned);
    }

    std::vector<PlannedVm> vms;
    vms.reserve(cluster_.vmCount());
    for (const auto &vm_ptr : cluster_.vms()) {
        if (!vm_ptr->placed())
            continue;
        PlannedVm planned;
        planned.id = vm_ptr->id();
        planned.cpuMhz = predictedVmMhz(planned.id);
        planned.memoryMb = vm_ptr->memoryMb();
        // Plan a VM that is already heading somewhere at its destination
        // (pinned), so its CPU and memory are not double-booked there.
        const dc::HostId inbound = migration_.destinationOf(planned.id);
        planned.movable = inbound == dc::invalidHostId;
        planned.host = planned.movable ? vm_ptr->host() : inbound;
        vms.push_back(planned);
    }
    PlacementModel model(std::move(hosts), std::move(vms));
    if (!config_.antiAffinityGroups.empty())
        model.setAntiAffinityGroups(config_.antiAffinityGroups);
    return model;
}

PlacementModel &
VpmManager::buildModel() const
{
    PROF_ZONE("mgmt.build_model");
    const std::uint64_t epoch = cluster_.placementEpoch();
    if (!modelValid_ || epoch != modelEpoch_) {
        // Membership changed (or first use): rebuild from scratch. The
        // child zone counts how often this actually happens.
        PROF_ZONE("mgmt.model_rebuild");
        model_ = freshModel();
        modelEpoch_ = epoch;
        modelValid_ = true;
        return model_;
    }

    // Same membership: refresh per-entity fields in place from the store
    // columns. Capacities and racks are immutable per entity; usable,
    // predictions, placement and movability are live state. This also
    // discards any pins or moves a previous planning pass applied.
    const dc::FleetStore &fleet = cluster_.fleet();
    std::vector<PlannedHost> &hosts = model_.mutableHosts();
    for (std::size_t h = 0; h < hosts.size(); ++h) {
        const auto id = static_cast<dc::HostId>(h);
        hosts[h].usable = fleet.hostIsOn(id) && hostUsable(id);
    }

    std::vector<PlannedVm> &vms = model_.mutableVms();
    const dc::HostId *vm_host = fleet.vmHostData();
    std::size_t vi = 0;
    for (std::size_t v = 0; v < fleet.vmCount(); ++v) {
        if (vm_host[v] == dc::invalidHostId)
            continue;
        PlannedVm &planned = vms[vi++];
        planned.cpuMhz = predictedVmMhz(static_cast<dc::VmId>(v));
        planned.movable = true;
        planned.host = vm_host[v];
    }
    if (hosts.size() != fleet.hostCount() || vi != vms.size())
        sim::panic("VpmManager::buildModel: %zu/%zu hosts and %zu/%zu VMs "
                   "despite an unchanged epoch",
                   fleet.hostCount(), hosts.size(), vi, vms.size());
    // Then pin the VMs already heading somewhere at their destination,
    // as freshModel() plans them. A queued VM may have retired since it
    // was booked; it is in neither model.
    for (const auto &[vm, inbound] : migration_.involvedVms()) {
        if (vm_host[static_cast<std::size_t>(vm)] == dc::invalidHostId)
            continue;
        PlannedVm &planned = model_.mutableVm(vm);
        planned.movable = false;
        planned.host = inbound;
    }
    model_.rebuildUsage();
    if (!config_.antiAffinityGroups.empty())
        model_.setAntiAffinityGroups(config_.antiAffinityGroups);
    return model_;
}

std::string
VpmManager::auditModel() const
{
    const PlacementModel &model = buildModel();
    const PlacementModel fresh = freshModel();
    const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    const auto differs = [](const char *entity, int id, const char *field) {
        return std::string(entity) + " " + std::to_string(id) + ": " +
               field + " differs from a fresh build";
    };
    if (model.hosts().size() != fresh.hosts().size() ||
        model.vms().size() != fresh.vms().size())
        return "host or VM count differs from a fresh build";
    for (const PlannedHost &host : fresh.hosts()) {
        if (model.host(host.id).usable != host.usable)
            return differs("host", host.id, "usable");
        if (!same(model.cpuUsedMhz(host.id), fresh.cpuUsedMhz(host.id)) ||
            !same(model.memoryUsedMb(host.id), fresh.memoryUsedMb(host.id)))
            return differs("host", host.id, "usage row");
    }
    for (std::size_t i = 0; i < fresh.vms().size(); ++i) {
        const PlannedVm &vm = model.vms()[i];
        const PlannedVm &want = fresh.vms()[i];
        if (vm.id != want.id)
            return differs("VM", want.id, "id");
        if (!same(vm.cpuMhz, want.cpuMhz))
            return differs("VM", want.id, "cpu");
        if (vm.host != want.host || vm.movable != want.movable)
            return differs("VM", want.id, "host or movable");
    }
    return "";
}

void
VpmManager::rebalanceAndConsolidate()
{
    PROF_ZONE("mgmt.rebalance");
    PlacementModel &model = buildModel();
    int budget = config_.maxMigrationsPerCycle;

    // One decision id covers one planned batch (a rebalance pass or one
    // host's evacuation); every migration in the batch — started now or
    // queued — carries it, so an analyzer can group the resulting
    // migration spans back under the decision that planned them.
    const auto issue = [&](const std::vector<Move> &moves,
                           const char *reason, dc::HostId subject) {
        if (moves.empty())
            return 0;
        const std::uint64_t decision = telemetry::newDecisionId();
        telemetry::TraceScope scope(decision);
        const std::uint64_t seq =
            telemetry::global().journal().migrateDecision(
                simulator_.now().micros(), reason,
                static_cast<int>(moves.size()), subject);
        scope.setCauseSeq(seq);

        int issued = 0;
        for (const Move &move : moves) {
            if (budget <= 0)
                break;
            // Belt-and-braces: planners pin moved VMs, so a duplicate
            // here indicates a planning bug, not expected churn.
            if (migration_.involved(move.vm)) {
                sim::warn("VpmManager: duplicate move planned for VM %d",
                          move.vm);
                continue;
            }
            if (migration_.request(move.vm, move.to)) {
                ++stats_.migrationsRequested;
                --budget;
                ++issued;
            }
        }
        return issued;
    };

    if (config_.loadBalance) {
        const std::vector<Move> moves =
            planRebalance(model, config_.targetUtilization,
                          config_.imbalanceThreshold, budget,
                          config_.heuristic, config_.rackAffinity);
        stats_.balanceMoves += static_cast<std::uint64_t>(
            issue(moves, "balance", dc::invalidHostId));
    }

    if (!config_.powerManage)
        return;

    // Continue evacuating hosts already draining (a prior cycle may have
    // run out of budget, or a queued migration may have been dropped) and
    // hosts the operator wants empty for maintenance.
    std::vector<dc::HostId> evacuating(draining_.begin(), draining_.end());
    evacuating.insert(evacuating.end(), maintenance_.begin(),
                      maintenance_.end());
    for (dc::HostId host_id : evacuating) {
        const dc::Host &host = cluster_.host(host_id);
        if (host.empty() || !host.isOn())
            continue;
        const auto plan = planEvacuation(model, host_id,
                                         config_.targetUtilization,
                                         config_.heuristic,
                                         config_.rackAffinity);
        if (plan) {
            issue(*plan,
                  draining_.contains(host_id) ? "evacuate" : "maintenance",
                  host_id);
        } else if (host.activeMigrations() == 0 &&
                   draining_.contains(host_id)) {
            // Stuck with no migrations in flight: the cluster can no
            // longer absorb this host's VMs. Abandon the drain.
            // (Maintenance evacuations are operator orders: keep trying.)
            cancelDrain(host_id);
            model.setEvacuable(host_id, true);
            ++stats_.evacuationsAbandoned;
        }
    }

    // Consider a new evacuation only after a sustained surplus.
    const double required = requiredCapacityMhz();
    double staying_capacity = 0.0;
    for (const auto &host_ptr : cluster_.hosts()) {
        if (host_ptr->isOn() && hostUsable(host_ptr->id()))
            staying_capacity += host_ptr->cpuCapacityMhz();
    }

    const dc::Host *candidate = chooseEvacuationCandidate(model);
    const bool surplus =
        candidate &&
        required + spareFloorMhz() <=
            config_.targetUtilization *
                (staying_capacity - candidate->cpuCapacityMhz());
    if (!surplus) {
        surplusStreak_ = 0;
        return;
    }
    ++surplusStreak_;
    if (surplusStreak_ < config_.hysteresisCycles)
        return;

    int evacuations = 0;
    while (evacuations < config_.maxEvacuationsPerCycle && candidate) {
        // Adaptive mode may conclude sleeping cannot pay off right now.
        if (!chooseSleepState(*candidate))
            break;

        const auto plan = planEvacuation(model, candidate->id(),
                                         config_.targetUtilization,
                                         config_.heuristic,
                                         config_.rackAffinity);
        if (!plan || static_cast<int>(plan->size()) > budget)
            break; // retry next cycle with a fresh budget

        issue(*plan, "evacuate", candidate->id());
        joinSet(draining_, kDraining, candidate->id());
        // The model keeps the host usable as a destination for the rest
        // of this cycle (a recorded defect, DESIGN.md "Planner host
        // indexes"); it only stops being a victim.
        model.setEvacuable(candidate->id(), false);
        ++stats_.evacuationsStarted;
        ++evacuations;

        // Find the next candidate, if the surplus is deep enough.
        staying_capacity -= candidate->cpuCapacityMhz();
        candidate = chooseEvacuationCandidate(model);
        if (candidate &&
            required + spareFloorMhz() >
                config_.targetUtilization *
                    (staying_capacity - candidate->cpuCapacityMhz())) {
            candidate = nullptr;
        }
    }
}

const dc::Host *
VpmManager::chooseEvacuationCandidate(const PlacementModel &model) const
{
    // Pass 1: the lightest on, usable host. The model's evacuable hosts
    // are exactly those: buildModel() made the on, usable hosts evacuable
    // and every drain started or abandoned since updated the flag.
    const dc::HostId lightest_id = model.lightestEvacuable();
    if (lightest_id == dc::invalidHostId)
        return nullptr;
    const dc::Host *lightest = &cluster_.host(lightest_id);
    if (!config_.heterogeneityAware)
        return lightest;
    const double min_load = model.cpuUsedMhz(lightest_id);

    // Pass 2 (heterogeneity-aware): among hosts whose load is comparable
    // to the lightest (so evacuation stays cheap and feasible), prefer
    // the one with the most parkable watts. A power-hungry relic beats a
    // slightly emptier efficient host; a heavily loaded one never does.
    const auto savable_watts = [](const dc::Host &host) {
        const power::HostPowerSpec &spec = host.powerFsm().spec();
        double floor_w = spec.idlePowerWatts();
        for (const power::SleepStateSpec &state : spec.sleepStates())
            floor_w = std::min(floor_w, state.sleepPowerWatts);
        return spec.idlePowerWatts() - floor_w;
    };

    const dc::Host *best = lightest;
    double best_watts = savable_watts(*lightest);
    for (const auto &host_ptr : cluster_.hosts()) {
        if (!host_ptr->isOn() || !hostUsable(host_ptr->id()))
            continue;
        const double load = model.cpuUsedMhz(host_ptr->id());
        const double slack = 0.15 * host_ptr->cpuCapacityMhz();
        if (load > min_load + slack)
            continue;
        const double watts = savable_watts(*host_ptr);
        if (watts > best_watts + 1e-9) {
            best = host_ptr.get();
            best_watts = watts;
        }
    }
    return best;
}

const power::SleepStateSpec *
VpmManager::chooseSleepState(const dc::Host &host) const
{
    const power::HostPowerSpec &spec = host.powerFsm().spec();
    if (!config_.sleepState.empty()) {
        const power::SleepStateSpec *state =
            spec.findSleepState(config_.sleepState);
        if (!state)
            sim::warn("VpmManager: host '%s' lacks sleep state '%s'",
                      host.name().c_str(), config_.sleepState.c_str());
        return state;
    }
    // Adaptive: deepest state whose break-even beats the idle estimate.
    return power::bestStateForInterval(spec, expectedIdle_.toSeconds());
}

void
VpmManager::completeDrains()
{
    PROF_ZONE("mgmt.drains");
    const std::vector<dc::HostId> draining_now(draining_.begin(),
                                               draining_.end());
    for (dc::HostId host_id : draining_now) {
        dc::Host &host = cluster_.host(host_id);
        if (!host.empty() || host.activeMigrations() > 0 || !host.isOn())
            continue;

        if (!config_.hostSleep || config_.parkedReserve > 0) {
            // Park instead of (or before) sleeping: hold the host On at
            // the bottom of its idle hierarchy, out of placement's
            // reach. Reclaiming it later is instant, so no boot latency
            // is ever risked. With a parkedReserve, the overflow
            // escalates to a real sleep below.
            const std::uint64_t decision = telemetry::newDecisionId();
            telemetry::TraceScope scope(decision);
            if (power::IdleHierarchy *hier = host.idleHierarchy())
                hier->descendFully();
            joinSet(parked_, kParked, host_id);
            parkedAt_.emplace(host_id, simulator_.now());
            leaveSet(draining_, kDraining, host_id);
            ++stats_.hostsParked;
            sim::inform("host '%s' parked (On, deepest idle state)",
                        host.name().c_str());
            continue;
        }

        const power::SleepStateSpec *state = chooseSleepState(host);
        if (!state)
            cancelDrain(host_id);
        else if (sleepHost(host, *state))
            leaveSet(draining_, kDraining, host_id);
    }

    // Reserve overflow: the oldest parked hosts graduate to a real
    // S-state — they have proven idle the longest, so they are the least
    // likely to be reclaimed before the sleep's break-even passes.
    while (config_.hostSleep &&
           static_cast<int>(parked_.size()) > config_.parkedReserve) {
        dc::HostId oldest = *parked_.begin();
        for (const dc::HostId host_id : parked_) {
            if (parkedAt_[host_id] < parkedAt_[oldest])
                oldest = host_id;
        }
        leaveSet(parked_, kParked, oldest);
        parkedAt_.erase(oldest);

        dc::Host &host = cluster_.host(oldest);
        if (!host.isOn() || !host.empty())
            continue; // crashed or repurposed under us; nothing to sleep
        // Without a worthwhile state the host stays ordinary capacity.
        if (const power::SleepStateSpec *state = chooseSleepState(host))
            sleepHost(host, *state);
    }
}

bool
VpmManager::joinSet(std::set<dc::HostId> &set, std::uint8_t bit,
                    dc::HostId host)
{
    if (!set.insert(host).second)
        return false;
    const auto id = static_cast<std::size_t>(host);
    if (id >= membership_.size())
        membership_.resize(id + 1, 0);
    membership_[id] |= bit;
    return true;
}

bool
VpmManager::leaveSet(std::set<dc::HostId> &set, std::uint8_t bit,
                     dc::HostId host)
{
    if (set.erase(host) == 0)
        return false;
    membership_[static_cast<std::size_t>(host)] &=
        static_cast<std::uint8_t>(~bit);
    return true;
}

bool
VpmManager::requestMaintenance(dc::HostId host)
{
    if (!joinSet(maintenance_, kMaintenance, host))
        return false;
    // Maintenance supersedes any in-progress consolidation drain or park.
    leaveSet(draining_, kDraining, host);
    leaveSet(parked_, kParked, host);
    parkedAt_.erase(host);
    sim::inform("host '%s' entering maintenance",
                cluster_.host(host).name().c_str());
    return true;
}

bool
VpmManager::endMaintenance(dc::HostId host)
{
    if (!leaveSet(maintenance_, kMaintenance, host))
        return false;
    sim::inform("host '%s' left maintenance",
                cluster_.host(host).name().c_str());
    return true;
}

bool
VpmManager::maintenanceReady(dc::HostId host) const
{
    if (!inMaintenance(host))
        return false;
    const dc::Host &host_ref = cluster_.host(host);
    return host_ref.isOn() && host_ref.empty() &&
           host_ref.activeMigrations() == 0;
}

void
VpmManager::cancelDrain(dc::HostId host)
{
    if (leaveSet(draining_, kDraining, host))
        ++stats_.drainsCancelled;
}

namespace {

using sim::appendBytes;
using sim::appendPod;

void
appendDoubles(std::vector<std::uint8_t> &out,
              const std::vector<double> &values)
{
    appendPod<std::uint64_t>(out, values.size());
    appendBytes(out, values.data(), values.size() * sizeof(double));
}

void
appendHostSet(std::vector<std::uint8_t> &out,
              const std::set<dc::HostId> &hosts)
{
    appendPod<std::uint64_t>(out, hosts.size());
    for (const dc::HostId h : hosts)
        appendPod<std::int64_t>(out, h);
}

void
appendHostTimeMap(std::vector<std::uint8_t> &out,
                  const std::map<dc::HostId, sim::SimTime> &entries)
{
    appendPod<std::uint64_t>(out, entries.size());
    for (const auto &[host, when] : entries) {
        appendPod<std::int64_t>(out, host);
        appendPod<std::int64_t>(out, when.micros());
    }
}

} // namespace

void
VpmManager::serializeState(std::vector<std::uint8_t> &out) const
{
    // Per VM row a presence flag and the active row's state; then the
    // aggregate, always present.
    std::vector<double> scratch;
    const std::size_t vm_rows = predictors_.rows() - vmRow(0);
    appendPod<std::uint64_t>(out, vm_rows);
    for (std::size_t v = 0; v < vm_rows; ++v) {
        const std::size_t row = vmRow(static_cast<dc::VmId>(v));
        appendPod<std::uint64_t>(out, predictors_.active(row) ? 1 : 0);
        if (predictors_.active(row)) {
            scratch.clear();
            predictors_.appendState(row, scratch);
            appendDoubles(out, scratch);
        }
    }
    appendPod<std::uint64_t>(out, 1);
    scratch.clear();
    predictors_.appendState(kAggregateRow, scratch);
    appendDoubles(out, scratch);

    appendHostSet(out, draining_);
    appendHostSet(out, maintenance_);
    appendHostSet(out, parked_);
    appendHostTimeMap(out, parkedAt_);
    appendHostTimeMap(out, sleepStartedAt_);

    appendPod<std::int64_t>(out, expectedIdle_.micros());
    appendPod<std::int64_t>(out, surplusStreak_);
    appendPod<std::uint64_t>(out, evaluationsSeen_);
    appendPod<std::uint64_t>(out, evaluationsPerCycle_);

    appendPod<std::uint64_t>(out, stats_.cycles);
    appendPod<std::uint64_t>(out, stats_.migrationsRequested);
    appendPod<std::uint64_t>(out, stats_.balanceMoves);
    appendPod<std::uint64_t>(out, stats_.evacuationsStarted);
    appendPod<std::uint64_t>(out, stats_.evacuationsAbandoned);
    appendPod<std::uint64_t>(out, stats_.drainsCancelled);
    appendPod<std::uint64_t>(out, stats_.sleepsIssued);
    appendPod<std::uint64_t>(out, stats_.wakesIssued);
    appendPod<std::uint64_t>(out, stats_.hostsParked);
    appendPod<std::uint64_t>(out, stats_.hostsUnparked);
    appendPod<std::uint64_t>(out, stats_.wakesDeniedByCap);
    appendPod<std::uint64_t>(out, stats_.shortfallCycles);
    appendPod<std::uint64_t>(out, stats_.haRestarts);
}

void
VpmManager::applyPolicyDelta(const VpmConfig &next)
{
    config_.loadBalance = next.loadBalance;
    config_.powerManage = next.powerManage;
    config_.targetUtilization = next.targetUtilization;
    config_.imbalanceThreshold = next.imbalanceThreshold;
    config_.maxMigrationsPerCycle = next.maxMigrationsPerCycle;
    config_.capacityBuffer = next.capacityBuffer;
    config_.hysteresisCycles = next.hysteresisCycles;
    config_.maxEvacuationsPerCycle = next.maxEvacuationsPerCycle;
    config_.sleepState = next.sleepState;
    config_.heterogeneityAware = next.heterogeneityAware;
    config_.rackAffinity = next.rackAffinity;
    config_.clusterPowerCapWatts = next.clusterPowerCapWatts;
    config_.hostSleep = next.hostSleep;
    config_.parkedReserve = next.parkedReserve;
    config_.haRestart = next.haRestart;
    config_.spareHostsFloor = next.spareHostsFloor;
}

} // namespace vpm::mgmt
