#include "datacenter/cluster.hpp"

#include <cstdio>
#include <string>
#include <utility>

#include "power/idle_hierarchy.hpp"
#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::dc {

namespace {

/** A cluster host's name, which is also its journal track's name. */
std::string
hostName(std::int32_t id)
{
    char name[32];
    std::snprintf(name, sizeof(name), "host%03d", id);
    return name;
}

} // namespace

Cluster::Cluster(sim::Simulator &simulator) : simulator_(simulator) {}

Host &
Cluster::addHost(const HostConfig &config,
                 const power::HostPowerSpec &power_spec)
{
    const HostId id = static_cast<HostId>(hosts_.size());
    // Distinct specs are few (one per host model), so a scan suffices.
    const power::HostPowerSpec *spec = nullptr;
    for (const power::HostPowerSpec &kept : powerSpecs_) {
        if (kept.sameAs(power_spec)) {
            spec = &kept;
            break;
        }
    }
    if (spec == nullptr)
        spec = &powerSpecs_.emplace_back(power_spec);
    fleet_.registerHost(id, config.cpuCapacityMhz);
    hosts_.push_back(std::make_unique<Host>(simulator_, id, hostName(id),
                                            config, *spec, fleet_));
    telemetry::global().journal().registerHostTrackLazily(id, &hostName);
    ++placementEpoch_;
    return *hosts_.back();
}

Vm &
Cluster::addVm(workload::VmWorkloadSpec spec)
{
    const VmId id = static_cast<VmId>(vms_.size());
    fleet_.registerVm(id, spec.cpuMhz, spec.memoryMb, spec.trace.get());
    vms_.push_back(std::make_unique<Vm>(id, std::move(spec), fleet_));
    ++placementEpoch_;
    return *vms_.back();
}

Host &
Cluster::host(HostId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= hosts_.size())
        sim::panic("Cluster::host: invalid host id %d", id);
    return *hosts_[static_cast<std::size_t>(id)];
}

const Host &
Cluster::host(HostId id) const
{
    return const_cast<Cluster *>(this)->host(id);
}

Vm &
Cluster::vm(VmId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= vms_.size())
        sim::panic("Cluster::vm: invalid VM id %d", id);
    return *vms_[static_cast<std::size_t>(id)];
}

const Vm &
Cluster::vm(VmId id) const
{
    return const_cast<Cluster *>(this)->vm(id);
}

bool
Cluster::memoryFits(const Vm &vm_ref, const Host &host_ref) const
{
    return host_ref.committedMemoryMb() +
               host_ref.inboundReservedMemoryMb() + vm_ref.memoryMb() <=
           host_ref.memoryCapacityMb() + 1e-6;
}

void
Cluster::placeVm(VmId vm_id, HostId host_id)
{
    Vm &vm_ref = vm(vm_id);
    Host &host_ref = host(host_id);

    if (vm_ref.placed())
        sim::fatal("placeVm: VM '%s' is already placed",
                   vm_ref.name().c_str());
    if (!host_ref.isOn())
        sim::fatal("placeVm: host '%s' is not on", host_ref.name().c_str());
    if (!memoryFits(vm_ref, host_ref))
        sim::fatal("placeVm: VM '%s' (%g MB) does not fit on host '%s'",
                   vm_ref.name().c_str(), vm_ref.memoryMb(),
                   host_ref.name().c_str());

    host_ref.addVm(vm_ref);
    vm_ref.setHost(host_id);
    ++placementEpoch_;
}

void
Cluster::moveVm(VmId vm_id, HostId dest_id)
{
    PROF_ZONE("cluster.move_vm");
    Vm &vm_ref = vm(vm_id);
    Host &dest = host(dest_id);

    if (!vm_ref.placed())
        sim::panic("moveVm: VM '%s' is not placed", vm_ref.name().c_str());
    if (!dest.isOn())
        sim::panic("moveVm: destination '%s' is not on", dest.name().c_str());
    if (!memoryFits(vm_ref, dest))
        sim::panic("moveVm: VM '%s' does not fit on host '%s'",
                   vm_ref.name().c_str(), dest.name().c_str());

    Host &source = host(vm_ref.host());
    source.removeVm(vm_ref);
    dest.addVm(vm_ref);
    vm_ref.setHost(dest_id);
}

void
Cluster::retireVm(VmId vm_id)
{
    Vm &vm_ref = vm(vm_id);
    if (vm_ref.retired())
        sim::panic("retireVm: VM '%s' already retired",
                   vm_ref.name().c_str());
    if (vm_ref.migrating())
        sim::panic("retireVm: VM '%s' is mid-migration",
                   vm_ref.name().c_str());

    if (vm_ref.placed()) {
        Host &host_ref = host(vm_ref.host());
        host_ref.removeVm(vm_ref);
        vm_ref.setHost(invalidHostId);
        vm_ref.setCurrentDemandMhz(0.0);
        vm_ref.setGrantedMhz(0.0);
        vm_ref.setRetired();
        host_ref.updatePowerDraw();
    } else {
        vm_ref.setCurrentDemandMhz(0.0);
        vm_ref.setGrantedMhz(0.0);
        vm_ref.setRetired();
    }
    ++placementEpoch_;
}

bool
Cluster::requestHostSleep(HostId host_id, const std::string &state_name)
{
    Host &host_ref = host(host_id);
    if (!host_ref.isOn()) {
        sim::warn("requestHostSleep: host '%s' is not on",
                  host_ref.name().c_str());
        return false;
    }
    if (!host_ref.empty()) {
        sim::warn("requestHostSleep: host '%s' still has %zu VMs",
                  host_ref.name().c_str(), host_ref.vms().size());
        return false;
    }
    if (host_ref.activeMigrations() > 0) {
        sim::warn("requestHostSleep: host '%s' has in-flight migrations",
                  host_ref.name().c_str());
        return false;
    }
    // Descent gating, outermost level: the server S-states sit above the
    // idle hierarchy, so the whole tree must be resident at its deepest
    // states before the host itself may leave On.
    if (const power::IdleHierarchy *hier = host_ref.idleHierarchy();
        hier != nullptr && !hier->fullyDescended()) {
        sim::warn("requestHostSleep: host '%s' idle hierarchy not fully "
                  "descended (busy=%d core=%d pkg=%d)",
                  host_ref.name().c_str(), hier->busyCores(),
                  hier->coreDepth(), hier->packageDepth());
        return false;
    }
    return host_ref.powerFsm().requestSleep(state_name);
}

bool
Cluster::requestHostWake(HostId host_id)
{
    return host(host_id).powerFsm().requestWake();
}

double
Cluster::totalVmDemandMhz() const
{
    // Linear sweep of the store's demand column in VM-id order — the same
    // values, in the same summation order, as the historical walk over Vm
    // objects (retired VMs hold demand 0).
    double total = 0.0;
    const double *demand = fleet_.vmDemandData();
    const std::size_t n = fleet_.vmCount();
    for (std::size_t v = 0; v < n; ++v)
        total += demand[v];
    return total;
}

double
Cluster::onCpuCapacityMhz() const
{
    double total = 0.0;
    const std::size_t n = fleet_.hostCount();
    for (std::size_t h = 0; h < n; ++h) {
        if (fleet_.hostIsOn(static_cast<HostId>(h)))
            total += fleet_.hostCpuCapacityMhz(static_cast<HostId>(h));
    }
    return total;
}

double
Cluster::totalCpuCapacityMhz() const
{
    double total = 0.0;
    const std::size_t n = fleet_.hostCount();
    for (std::size_t h = 0; h < n; ++h)
        total += fleet_.hostCpuCapacityMhz(static_cast<HostId>(h));
    return total;
}

int
Cluster::hostsOn() const
{
    return fleet_.hostsOn();
}

int
Cluster::hostsAsleep() const
{
    return fleet_.hostsAsleep();
}

int
Cluster::hostsTransitioning() const
{
    return fleet_.hostsTransitioning();
}

double
Cluster::totalPowerWatts() const
{
    PROF_ZONE("cluster.power_accounting");
    double total = 0.0;
    for (const auto &host_ptr : hosts_)
        total += host_ptr->powerWatts();
    return total;
}

double
Cluster::totalEnergyJoules() const
{
    double total = 0.0;
    for (const auto &host_ptr : hosts_)
        total += host_ptr->meter().joules();
    return total;
}

std::uint64_t
Cluster::powerActionCount() const
{
    std::uint64_t total = 0;
    for (const auto &host_ptr : hosts_) {
        total += host_ptr->powerFsm().sleepCount() +
                 host_ptr->powerFsm().wakeCount();
    }
    return total;
}

void
Cluster::finishMetering(sim::SimTime t)
{
    for (const auto &host_ptr : hosts_)
        host_ptr->finishMetering(t);
}

} // namespace vpm::dc
