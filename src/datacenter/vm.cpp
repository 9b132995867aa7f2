#include "datacenter/vm.hpp"

#include <utility>

#include "simcore/logging.hpp"
#include "datacenter/host.hpp"

namespace vpm::dc {

void
Vm::validateSpec() const
{
    if (!spec_.trace)
        sim::fatal("Vm '%s': demand trace must be non-null",
                   spec_.name.c_str());
    if (spec_.cpuMhz <= 0.0)
        sim::fatal("Vm '%s': CPU size must be positive (got %g MHz)",
                   spec_.name.c_str(), spec_.cpuMhz);
    if (spec_.memoryMb <= 0.0)
        sim::fatal("Vm '%s': memory must be positive (got %g MB)",
                   spec_.name.c_str(), spec_.memoryMb);
}

Vm::Vm(VmId id, workload::VmWorkloadSpec spec)
    : id_(id), store_(nullptr), spec_(std::move(spec))
{
    validateSpec();
    ownedStore_ = std::make_unique<FleetStore>();
    store_ = ownedStore_.get();
    store_->registerVm(id_, spec_.cpuMhz, spec_.memoryMb,
                       spec_.trace.get());
}

Vm::Vm(VmId id, workload::VmWorkloadSpec spec, FleetStore &store)
    : id_(id), store_(&store), spec_(std::move(spec))
{
    validateSpec();
    // The cluster registers the row before constructing the view.
    if (static_cast<std::size_t>(id_) >= store_->vmCount())
        sim::panic("Vm '%s': id %d not registered in the fleet store",
                   spec_.name.c_str(), id_);
}

double
Vm::demandMhzAt(sim::SimTime t) const
{
    return spec_.trace->utilizationAt(t) * spec_.cpuMhz;
}

void
Vm::setCurrentDemandMhz(double mhz)
{
    store_->setVmDemandMhz(id_, mhz);
    // External writes bypass the trace, so any cached span is void.
    store_->setVmValidUntilUs(
        id_, std::numeric_limits<std::int64_t>::min());
    if (hostPtr_)
        hostPtr_->markLoadChanged();
}

void
Vm::setGrantedMhz(double mhz)
{
    store_->setVmGrantedMhz(id_, mhz);
    if (hostPtr_)
        hostPtr_->markGrantedChanged();
}

} // namespace vpm::dc
