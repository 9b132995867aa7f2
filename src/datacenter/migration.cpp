#include "datacenter/migration.hpp"

#include <algorithm>
#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::dc {

namespace {

/** Completed-migration durations, fleet-wide. 0-120 s in 2 s buckets spans
 *  the regimes the paper's workloads produce. Handle resolved once. */
telemetry::HistogramMetric &
migrationSecondsHistogram()
{
    static telemetry::HistogramMetric &h =
        telemetry::global().metrics().histogram("migration.seconds", 0.0,
                                                120.0, 60);
    return h;
}

} // namespace

MigrationEngine::MigrationEngine(sim::Simulator &simulator, Cluster &cluster,
                                 const MigrationConfig &config)
    : simulator_(simulator), cluster_(cluster), config_(config)
{
    if (config_.bandwidthMbPerSec <= 0.0)
        sim::fatal("MigrationEngine: bandwidth must be positive");
    if (config_.dirtyPageFactor < 1.0)
        sim::fatal("MigrationEngine: dirty-page factor must be >= 1");
    if (config_.maxConcurrentPerHost < 1)
        sim::fatal("MigrationEngine: need at least one migration slot");
    if (config_.utilizationDirtyFactor < 0.0)
        sim::fatal("MigrationEngine: negative utilization dirty factor");
    if (config_.cpuTaxFraction < 0.0 || config_.cpuTaxFraction > 1.0)
        sim::fatal("MigrationEngine: CPU tax fraction %g outside [0, 1]",
                   config_.cpuTaxFraction);
    if (config_.fixedOverhead < sim::SimTime())
        sim::fatal("MigrationEngine: negative fixed overhead");
}

sim::SimTime
MigrationEngine::expectedDuration(const Vm &vm) const
{
    const double utilization =
        vm.cpuMhz() > 0.0
            ? std::min(vm.currentDemandMhz() / vm.cpuMhz(), 1.0)
            : 0.0;
    const double dirty_factor =
        config_.dirtyPageFactor +
        config_.utilizationDirtyFactor * utilization;
    const double copy_seconds =
        vm.memoryMb() * dirty_factor / config_.bandwidthMbPerSec;
    return config_.fixedOverhead + sim::SimTime::seconds(copy_seconds);
}

sim::SimTime
MigrationEngine::expectedDuration(const Vm &vm, HostId source,
                                  HostId dest) const
{
    if (!topology_)
        return expectedDuration(vm);
    const double bandwidth = topology_->bandwidthBetween(source, dest);
    const double flat = config_.bandwidthMbPerSec;
    const sim::SimTime flat_duration = expectedDuration(vm);
    // Rescale only the copy portion by the locality bandwidth.
    const sim::SimTime copy = flat_duration - config_.fixedOverhead;
    return config_.fixedOverhead + copy * (flat / bandwidth);
}

const char *
MigrationEngine::invalidReason(const Vm &vm, HostId dest) const
{
    if (!vm.placed())
        return "VM unplaced";
    if (vm.host() == dest)
        return "already on destination";
    if (!cluster_.host(dest).isOn())
        return "destination is not on";
    if (!memoryFitsAfterPending(vm, dest))
        return "no memory headroom on destination even after pending "
               "departures";
    return nullptr;
}

bool
MigrationEngine::validate(const Vm &vm, HostId dest,
                          bool is_queued_retry) const
{
    const char *reason = invalidReason(vm, dest);
    if (reason == nullptr)
        return true;
    sim::warn("%s of '%s' to host %d invalid: %s",
              is_queued_retry ? "queued migration" : "migration",
              vm.name().c_str(), dest, reason);
    return false;
}

bool
MigrationEngine::memoryFitsAfterPending(const Vm &vm, HostId dest) const
{
    // Headroom once every resident VM already booked to leave has left;
    // in-flight inbound reservations still count.
    const Host &dest_ref = cluster_.host(dest);
    double departing_mb = 0.0;
    for (const Vm *resident : dest_ref.vms()) {
        const auto it = involved_.find(resident->id());
        if (it != involved_.end() && it->second != dest)
            departing_mb += resident->memoryMb();
    }
    return dest_ref.committedMemoryMb() +
               dest_ref.inboundReservedMemoryMb() - departing_mb +
               vm.memoryMb() <=
           dest_ref.memoryCapacityMb() + 1e-6;
}

bool
MigrationEngine::memoryFitsNow(const Vm &vm, HostId dest) const
{
    // The host's reservation already covers concurrent inbound flights.
    return cluster_.memoryFits(vm, cluster_.host(dest));
}

bool
MigrationEngine::slotsFree(HostId source, HostId dest) const
{
    if (cluster_.host(source).activeMigrations() >=
            config_.maxConcurrentPerHost ||
        cluster_.host(dest).activeMigrations() >=
            config_.maxConcurrentPerHost) {
        return false;
    }
    return !topology_ || topology_->uplinkSlotsFree(source, dest);
}

bool
MigrationEngine::request(VmId vm_id, HostId dest)
{
    PROF_ZONE("migration.request");
    const Vm &vm = cluster_.vm(vm_id);
    if (involved_.contains(vm_id)) {
        sim::warn("migration of '%s' rejected: already migrating or queued",
                  vm.name().c_str());
        return false;
    }
    if (!validate(vm, dest, false))
        return false;

    book(vm_id, dest);
    const HostId source = vm.host();
    if (slotsFree(source, dest) && memoryFitsNow(vm, dest)) {
        start(vm_id, dest);
    } else {
        // Waits for a migration slot, or for a departing VM to free
        // memory on the destination (dependent moves serialize here).
        queue_.push_back({vm_id, dest, telemetry::currentContext(), source,
                          stampOf(source, dest)});
    }
    return true;
}

void
MigrationEngine::setTopology(Topology *topology)
{
    topology_ = topology;
    for (Request &req : queue_)
        req.source = invalidHostId;
}

void
MigrationEngine::book(VmId vm_id, HostId dest)
{
    involved_.emplace(vm_id, dest);
    cluster_.host(cluster_.vm(vm_id).host()).bumpAdmissionEpoch();
}

void
MigrationEngine::unbook(VmId vm_id)
{
    involved_.erase(vm_id);
    const Vm &vm = cluster_.vm(vm_id);
    if (vm.placed())
        cluster_.host(vm.host()).bumpAdmissionEpoch();
}

MigrationEngine::AdmissionStamp
MigrationEngine::stampOf(HostId source, HostId dest) const
{
    AdmissionStamp stamp;
    stamp.source = cluster_.host(source).admissionEpoch();
    stamp.dest = cluster_.host(dest).admissionEpoch();
    if (topology_) {
        stamp.sourceUplink = topology_->uplinkEpoch(topology_->rackOf(source));
        stamp.destUplink = topology_->uplinkEpoch(topology_->rackOf(dest));
    }
    return stamp;
}

bool
MigrationEngine::admissionInputsMoved(const Request &req) const
{
    return req.source == invalidHostId ||
           stampOf(req.source, req.dest) != req.stamp;
}

bool
MigrationEngine::involved(VmId vm) const
{
    return involved_.contains(vm);
}

HostId
MigrationEngine::destinationOf(VmId vm) const
{
    const auto it = involved_.find(vm);
    return it != involved_.end() ? it->second : invalidHostId;
}

void
MigrationEngine::start(VmId vm_id, HostId dest)
{
    PROF_ZONE("migration.start");
    Vm &vm = cluster_.vm(vm_id);
    const HostId source = vm.host();
    Host &src_ref = cluster_.host(source);
    Host &dest_ref = cluster_.host(dest);

    vm.setMigrating(true);
    src_ref.adjustActiveMigrations(1);
    dest_ref.adjustActiveMigrations(1);
    dest_ref.adjustInboundReservedMemoryMb(vm.memoryMb());

    // Charge the pre-copy CPU tax to both endpoints for the duration.
    const double tax = config_.cpuTaxFraction * vm.cpuMhz();
    src_ref.addMigrationOverheadMhz(tax);
    dest_ref.addMigrationOverheadMhz(tax);
    src_ref.updatePowerDraw();
    dest_ref.updatePowerDraw();

    ++started_;
    ++activeCount_;

    if (topology_)
        topology_->acquireUplink(source, dest);

    // Freeze the duration at start: the VM's activity at departure is
    // what determined the pre-copy effort.
    const sim::SimTime duration = expectedDuration(vm, source, dest);
    sim::debug("migration of '%s' %s -> %s started (%s)",
               vm.name().c_str(), src_ref.name().c_str(),
               dest_ref.name().c_str(), duration.toString().c_str());

    telemetry::Telemetry &tel = telemetry::global();
    if (tel.enabled()) {
        tel.journal().registerTrack(telemetry::TrackDomain::Vm, vm_id,
                                    vm.name());
        tel.journal().migrationStart(simulator_.now().micros(), vm_id,
                                     source, dest, duration.toSeconds());
    }

    activeDurations_[vm_id] = duration;
    simulator_.schedule(
        duration,
        [this, vm_id, source, dest] { complete(vm_id, source, dest); },
        "migration.complete");
}

void
MigrationEngine::complete(VmId vm_id, HostId source, HostId dest)
{
    PROF_ZONE("migration.complete");
    Vm &vm = cluster_.vm(vm_id);
    Host &src_ref = cluster_.host(source);
    Host &dest_ref = cluster_.host(dest);

    const double tax = config_.cpuTaxFraction * vm.cpuMhz();
    src_ref.addMigrationOverheadMhz(-tax);
    dest_ref.addMigrationOverheadMhz(-tax);
    src_ref.adjustActiveMigrations(-1);
    dest_ref.adjustActiveMigrations(-1);
    dest_ref.adjustInboundReservedMemoryMb(-vm.memoryMb());

    if (topology_) {
        topology_->releaseUplink(source, dest);
        if (!topology_->sameRack(source, dest))
            ++crossRack_;
    }

    vm.setMigrating(false);
    unbook(vm_id);
    --activeCount_;

    // A crash on either endpoint mid-copy kills the stream: abort, the
    // VM stays wherever it physically is (the source).
    if (!src_ref.isOn() || !dest_ref.isOn()) {
        ++aborted_;
        activeDurations_.erase(vm_id);
        telemetry::global().journal().migrationAbort(
            simulator_.now().micros(), vm_id, source, dest,
            "endpoint lost power");
        sim::warn("migration of '%s' aborted: endpoint lost power",
                  vm.name().c_str());
        src_ref.updatePowerDraw();
        dest_ref.updatePowerDraw();
        drainQueue();
        return;
    }

    ++completed_;
    const double actual_seconds = activeDurations_.at(vm_id).toSeconds();
    durations_.add(actual_seconds);
    migrationSecondsHistogram().observe(actual_seconds);
    telemetry::global().journal().migrationFinish(
        simulator_.now().micros(), vm_id, source, dest, actual_seconds);
    activeDurations_.erase(vm_id);

    cluster_.moveVm(vm_id, dest);
    src_ref.updatePowerDraw();
    dest_ref.updatePowerDraw();

    if (onComplete_)
        onComplete_(vm_id, source, dest);

    drainQueue();
}

void
MigrationEngine::drainQueue()
{
    PROF_ZONE("migration.drain_queue");
    // Start every queued request whose endpoints now have slots, in FIFO
    // order. One pass is enough: slots only free up on completion, which
    // re-drains. A request whose admission inputs did not move since it
    // last waited would wait again with no side effect, so it is kept
    // without re-examination; starts and drops earlier in the pass bump
    // the epochs they touch, so later requests see them.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        Request &req = queue_[i];
        if (admissionInputsMoved(req)) {
            const Vm &vm = cluster_.vm(req.vm);
            if (!validate(vm, req.dest, true)) {
                unbook(req.vm);
                ++dropped_;
                continue;
            }
            const HostId source = vm.host();
            if (slotsFree(source, req.dest) && memoryFitsNow(vm, req.dest)) {
                // We are inside some other migration's completion event;
                // restore the context of the decision that queued this
                // one.
                telemetry::TraceScope scope(req.context);
                start(req.vm, req.dest);
                continue;
            }
            req.source = source;
            req.stamp = stampOf(source, req.dest);
        }
        if (kept != i)
            queue_[kept] = std::move(req);
        ++kept;
    }
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
                 queue_.end());
}

void
MigrationEngine::auditQueue() const
{
    for (const Request &req : queue_) {
        const auto booked = involved_.find(req.vm);
        if (booked == involved_.end() || booked->second != req.dest)
            sim::panic("MigrationEngine audit: queued VM %d -> host %d is "
                       "not booked to that destination", req.vm, req.dest);
        if (admissionInputsMoved(req))
            continue; // the next drain re-examines it
        const Vm &vm = cluster_.vm(req.vm);
        if (const char *reason = invalidReason(vm, req.dest))
            sim::panic("MigrationEngine audit: queued VM %d (host %d) -> "
                       "host %d should have been dropped (%s), but its "
                       "admission epochs did not move", req.vm, vm.host(),
                       req.dest, reason);
        if (slotsFree(vm.host(), req.dest) && memoryFitsNow(vm, req.dest))
            sim::panic("MigrationEngine audit: queued VM %d (host %d) -> "
                       "host %d should have started, but its admission "
                       "epochs did not move", req.vm, vm.host(), req.dest);
    }
}

void
MigrationEngine::setOnComplete(CompletionHandler handler)
{
    onComplete_ = std::move(handler);
}

} // namespace vpm::dc
