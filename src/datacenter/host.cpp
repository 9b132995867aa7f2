#include "datacenter/host.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "power/idle_hierarchy.hpp"
#include "simcore/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::dc {

Host::Host(sim::Simulator &simulator, HostId id, std::string name,
           const HostConfig &config, const power::HostPowerSpec &power_spec)
    : id_(id), store_(nullptr), simulator_(simulator),
      name_(std::move(name)), config_(config), fsm_(simulator, power_spec),
      meter_(simulator.now(), power_spec.idlePowerWatts())
{
    ownedStore_ = std::make_unique<FleetStore>();
    store_ = ownedStore_.get();
    store_->registerHost(id_, config_.cpuCapacityMhz);
    init(power_spec);
}

Host::Host(sim::Simulator &simulator, HostId id, std::string name,
           const HostConfig &config, const power::HostPowerSpec &power_spec,
           FleetStore &store)
    : id_(id), store_(&store), simulator_(simulator),
      name_(std::move(name)), config_(config), fsm_(simulator, power_spec),
      meter_(simulator.now(), power_spec.idlePowerWatts())
{
    // The cluster registers the row before constructing the view.
    if (static_cast<std::size_t>(id_) >= store_->hostCount())
        sim::panic("Host '%s': id %d not registered in the fleet store",
                   name_.c_str(), id_);
    init(power_spec);
}

void
Host::init(const power::HostPowerSpec &power_spec)
{
    (void)power_spec;
    if (config_.cpuCapacityMhz <= 0.0)
        sim::fatal("Host '%s': CPU capacity must be positive", name_.c_str());
    if (config_.memoryCapacityMb <= 0.0)
        sim::fatal("Host '%s': memory capacity must be positive",
                   name_.c_str());

    // Seed the store's phase byte and power mirror from the live objects
    // (registerHost defaults assume a host born On at idle draw).
    store_->setHostPhase(id_, static_cast<std::uint8_t>(fsm_.phase()));
    store_->setHostHeldWatts(id_, meter_.heldWatts());

    // Keep the meter exact across phase changes. A phase change also
    // flips the allocator's on/off branch, so the grants are stale. This
    // observer is registered before any outside observer, so the store's
    // phase byte and O(1) counts are already updated when later observers
    // (e.g. DatacenterSim's hosts-on tracker) read them.
    fsm_.addObserver([this](power::PowerPhase, power::PowerPhase to) {
        store_->setHostPhase(id_, static_cast<std::uint8_t>(to));
        store_->markHost(id_, FleetStore::kAllocDirty);
        store_->queueAllocDirty(id_);
        ++admissionEpoch_; // isOn() gates migration admission
        updatePowerDraw();
    });

    // Journal this host's power timeline under its cluster id/name, and
    // mirror the meter into a per-host watts gauge when per-tick metric
    // rows are collected (the only consumer of per-host gauges).
    fsm_.setTelemetryTrack(id_, name_);
    telemetry::Telemetry &tel = telemetry::global();
    if (tel.enabled() && tel.config().seriesRowsEnabled)
        meter_.attachTelemetry(
            &tel.metrics().gauge("host." + name_ + ".watts"));
}

Host::~Host() = default;

void
Host::updatePowerDraw()
{
    const double watts = powerWatts();
    meter_.update(simulator_.now(), watts);
    // heldWatts() may differ from the requested watts (the meter clamps
    // backwards time); mirror what the meter actually holds.
    store_->setHostHeldWatts(id_, meter_.heldWatts());
}

double
Host::powerWatts() const
{
    double watts;
    const double freq = frequencyFraction();
    if (!isOn() || freq >= 1.0) {
        watts = fsm_.powerWatts(utilization());
    } else {
        // DVFS model: static (idle) power is frequency-independent; the
        // dynamic part scales ~quadratically with frequency (voltage
        // tracks frequency). Utilization is already relative to scaled
        // capacity.
        const power::HostPowerSpec &spec = fsm_.spec();
        const double idle = spec.idlePowerWatts();
        const double at_full = spec.activePowerWatts(utilization());
        watts = idle + (at_full - idle) * freq * freq;
    }
    // Idle-hierarchy residency shaves the static share while On (the
    // hierarchy reports zero savings when paused, i.e. off-phase power
    // is entirely the FSM's business).
    if (idleHierarchy_ && isOn())
        watts = std::max(0.0, watts - idleHierarchy_->powerSavingsWatts());
    return watts;
}

void
Host::attachIdleHierarchy(std::unique_ptr<power::IdleHierarchy> hierarchy)
{
    if (idleHierarchy_)
        sim::panic("Host '%s': idle hierarchy attached twice",
                   name_.c_str());
    idleHierarchy_ = std::move(hierarchy);
    store_->setHostHasHierarchy(id_, true);

    // The store mirrors the wake latency for the evaluate host pass.
    // Transition energy is an impulse on the meter; any residency change
    // also moves the On draw, so re-hold.
    store_->setHostWakeLatencyS(id_,
                                idleHierarchy_->wakeLatency().toSeconds());
    idleHierarchy_->setUpdateHook(
        [this](const power::IdleHierarchy::Update &update) {
            store_->setHostWakeLatencyS(id_,
                                        update.wakeLatency.toSeconds());
            if (!update.transitioned)
                return;
            meter_.addEnergyJoules(update.joules);
            updatePowerDraw();
            // Depth changes move the wake latency, a latency-factor input
            // the evaluate pass otherwise has no way to see (busy-count
            // and pause/resume changes all ride host events that mark the
            // flags themselves).
            store_->markHostFactorDirty(id_);
        });
    idleHierarchy_->setTelemetryTrack(id_);

    // The hierarchy lives under the FSM: leaving On pauses it (forced
    // exits ride the system transition), reaching On resumes it at C0.
    fsm_.addObserver([this](power::PowerPhase, power::PowerPhase to) {
        if (to == power::PowerPhase::On)
            idleHierarchy_->resume();
        else if (idleHierarchy_->active())
            idleHierarchy_->pause();
    });
    if (!isOn())
        idleHierarchy_->pause();
}

void
Host::idleGovernorTick()
{
    power::IdleHierarchy *hier = idleHierarchy_.get();
    if (hier == nullptr || !hier->active())
        return;
    const int cores = hier->spec().coreCount;
    const int busy = std::min(
        cores, static_cast<int>(std::ceil(utilization() * cores)));
    const int core_depth = static_cast<int>(hier->spec().coreStates.size());
    const int pkg_depth = static_cast<int>(hier->spec().packageStates.size());
    // Each command is issued only when it moves a level. Both would run
    // at this instant, so a skipped one's residency accrual adds nothing
    // and its refresh rewrites the same wake latency: skipping is exact.
    if (busy != hier->busyCores())
        hier->setBusyCores(busy);
    if (hier->wouldChange(busy, core_depth, pkg_depth))
        hier->requestDepth(core_depth, pkg_depth);
}

void
Host::setFrequencyFraction(double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        sim::panic("Host '%s': frequency fraction %g outside (0, 1]",
                   name_.c_str(), fraction);
    store_->setHostFrequencyFraction(id_, fraction);
    // Effective capacity moved; grants must respread.
    store_->markHost(id_, FleetStore::kAllocDirty);
    store_->queueAllocDirty(id_);
    updatePowerDraw();
}

void
Host::finishMetering(sim::SimTime t)
{
    meter_.finish(t);
}

void
Host::addVm(Vm &vm)
{
    if (std::find(vms_.begin(), vms_.end(), &vm) != vms_.end())
        sim::panic("Host '%s': VM '%s' added twice", name_.c_str(),
                   vm.name().c_str());
    vms_.push_back(&vm);
    vmIds_.push_back(vm.id());
    vm.setResidentHost(this);
    markMembershipChanged();
    ++admissionEpoch_;
}

void
Host::removeVm(Vm &vm)
{
    const auto it = std::find(vms_.begin(), vms_.end(), &vm);
    if (it == vms_.end())
        sim::panic("Host '%s': VM '%s' not resident", name_.c_str(),
                   vm.name().c_str());
    vmIds_.erase(vmIds_.begin() + (it - vms_.begin()));
    vms_.erase(it);
    vm.setResidentHost(nullptr);
    markMembershipChanged();
    ++admissionEpoch_;
}

double
Host::vmDemandMhz() const
{
    if (store_->hostFlags(id_) & FleetStore::kDemandDirty) {
        double total = 0.0;
        for (const Vm *vm : vms_)
            total += vm->currentDemandMhz();
        store_->setHostDemandCacheClean(id_, total);
    }
    return store_->hostDemandCacheMhz(id_);
}

double
Host::recomputeGrantedMhz() const
{
    double total = 0.0;
    for (const Vm *vm : vms_)
        total += vm->grantedMhz();
    store_->setHostGrantedCacheClean(id_, total);
    return store_->hostGrantedCacheMhz(id_);
}

double
Host::committedMemoryMb() const
{
    if (store_->hostFlags(id_) & FleetStore::kMemoryDirty) {
        double total = 0.0;
        for (const Vm *vm : vms_)
            total += vm->memoryMb();
        store_->setHostMemoryCacheClean(id_, total);
    }
    return store_->hostMemoryCacheMb(id_);
}

void
Host::addMigrationOverheadMhz(double mhz)
{
    double overhead = store_->hostMigrationOverheadMhz(id_) + mhz;
    if (overhead < -1e-6)
        sim::panic("Host '%s': migration overhead went negative (%g MHz)",
                   name_.c_str(), overhead);
    // Snap accumulation residue so an idle host reads exactly zero.
    if (overhead < 1e-9)
        overhead = 0.0;
    store_->setHostMigrationOverheadMhz(id_, overhead);
    // Overhead competes with VM grants for capacity.
    store_->markHost(id_, FleetStore::kAllocDirty);
    store_->queueAllocDirty(id_);
}

double
Host::demandUtilization() const
{
    const double demand = vmDemandMhz() + migrationOverheadMhz();
    return demand / effectiveCpuCapacityMhz();
}

void
Host::adjustInboundReservedMemoryMb(double delta_mb)
{
    inboundReservedMemoryMb_ += delta_mb;
    if (inboundReservedMemoryMb_ < -1e-6)
        sim::panic("Host '%s': inbound memory reservation went negative "
                   "(%g MB)", name_.c_str(), inboundReservedMemoryMb_);
    // Snap accumulation residue so a quiescent host reads exactly zero.
    if (inboundReservedMemoryMb_ < 1e-9)
        inboundReservedMemoryMb_ = 0.0;
    ++admissionEpoch_;
}

void
Host::adjustActiveMigrations(int delta)
{
    activeMigrations_ += delta;
    if (activeMigrations_ < 0)
        sim::panic("Host '%s': active migration count went negative",
                   name_.c_str());
    ++admissionEpoch_;
}

} // namespace vpm::dc
