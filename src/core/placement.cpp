#include "core/placement.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"

namespace vpm::mgmt {

const char *
toString(PackingHeuristic heuristic)
{
    switch (heuristic) {
      case PackingHeuristic::FirstFitDecreasing:
        return "first-fit-decreasing";
      case PackingHeuristic::BestFitDecreasing:
        return "best-fit-decreasing";
      case PackingHeuristic::WorstFit:
        return "worst-fit";
    }
    sim::panic("toString: invalid PackingHeuristic %d",
               static_cast<int>(heuristic));
}

namespace {

/**
 * Register @p id -> @p index in a dense slot table, growing it on demand.
 * @return false if the id was already present.
 */
bool
assignSlot(std::vector<std::int32_t> &slots, int id, std::size_t index)
{
    if (id < 0)
        return true; // negative ids panic on lookup, as before
    if (static_cast<std::size_t>(id) >= slots.size())
        slots.resize(static_cast<std::size_t>(id) + 1, -1);
    if (slots[static_cast<std::size_t>(id)] >= 0)
        return false;
    slots[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(index);
    return true;
}

} // namespace

PlacementModel::PlacementModel(std::vector<PlannedHost> hosts,
                               std::vector<PlannedVm> vms)
    : hosts_(std::move(hosts)), vms_(std::move(vms))
{
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        if (!assignSlot(hostSlot_, hosts_[i].id, i))
            sim::panic("PlacementModel: duplicate host id %d", hosts_[i].id);
        if (hosts_[i].cpuCapacityMhz <= 0.0 ||
            hosts_[i].memoryCapacityMb <= 0.0) {
            sim::panic("PlacementModel: host %d has non-positive capacity",
                       hosts_[i].id);
        }
    }
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        if (!assignSlot(vmSlot_, vms_[i].id, i))
            sim::panic("PlacementModel: duplicate VM id %d", vms_[i].id);
    }
    rebuildUsage();
}

void
PlacementModel::rebuildUsage()
{
    cpuUsed_.assign(hosts_.size(), 0.0);
    memUsed_.assign(hosts_.size(), 0.0);
    residents_.resize(hosts_.size());
    for (std::vector<std::uint32_t> &list : residents_)
        list.clear(); // keeps capacity across management cycles
    log_.clear();
    for (std::size_t v = 0; v < vms_.size(); ++v) {
        const PlannedVm &vm_ref = vms_[v];
        const std::size_t h = hostIndex(vm_ref.host);
        cpuUsed_[h] += vm_ref.cpuMhz;
        memUsed_[h] += vm_ref.memoryMb;
        residents_[h].push_back(static_cast<std::uint32_t>(v));
    }
}

std::size_t
PlacementModel::hostIndex(HostId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= hostSlot_.size() ||
        hostSlot_[static_cast<std::size_t>(id)] < 0)
        sim::panic("PlacementModel: unknown host id %d", id);
    return static_cast<std::size_t>(hostSlot_[static_cast<std::size_t>(id)]);
}

std::size_t
PlacementModel::vmIndex(VmId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= vmSlot_.size() ||
        vmSlot_[static_cast<std::size_t>(id)] < 0)
        sim::panic("PlacementModel: unknown VM id %d", id);
    return static_cast<std::size_t>(vmSlot_[static_cast<std::size_t>(id)]);
}

double
PlacementModel::cpuUsedMhz(HostId host) const
{
    return cpuUsed_[hostIndex(host)];
}

double
PlacementModel::memoryUsedMb(HostId host) const
{
    return memUsed_[hostIndex(host)];
}

double
PlacementModel::cpuUtilization(HostId host) const
{
    const std::size_t h = hostIndex(host);
    return cpuUsed_[h] / hosts_[h].cpuCapacityMhz;
}

std::vector<VmId>
PlacementModel::vmsOn(HostId host) const
{
    const std::vector<std::uint32_t> &list = residents_[hostIndex(host)];
    std::vector<VmId> result;
    result.reserve(list.size());
    for (const std::uint32_t v : list)
        result.push_back(vms_[v].id);
    return result;
}

bool
PlacementModel::fits(const PlannedVm &vm_ref, HostId host,
                     double cpu_limit_fraction) const
{
    const std::size_t h = hostIndex(host);
    const PlannedHost &host_ref = hosts_[h];
    if (!host_ref.usable)
        return false;

    // Anti-affinity: refuse a host already holding a group sibling.
    if (const int group = groupOf(vm_ref.id); group >= 0) {
        if (!hostGroupCount_.empty()) {
            const auto &counts = hostGroupCount_[h];
            if (const auto it = counts.find(group);
                it != counts.end() && it->second > 0) {
                return false;
            }
        }
    }

    return cpuUsed_[h] + vm_ref.cpuMhz <=
               cpu_limit_fraction * host_ref.cpuCapacityMhz + 1e-9 &&
           memUsed_[h] + vm_ref.memoryMb <=
               host_ref.memoryCapacityMb + 1e-9;
}

void
PlacementModel::setAntiAffinityGroups(
    const std::vector<std::vector<VmId>> &groups)
{
    vmGroup_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const VmId id : groups[g]) {
            if (id < 0 || static_cast<std::size_t>(id) >= vmSlot_.size() ||
                vmSlot_[static_cast<std::size_t>(id)] < 0)
                continue; // VM churned away; constraint is moot
            if (!vmGroup_.emplace(id, static_cast<int>(g)).second)
                sim::panic("PlacementModel: VM %d in two anti-affinity "
                           "groups", id);
        }
    }

    hostGroupCount_.assign(hosts_.size(), {});
    for (const PlannedVm &vm_ref : vms_) {
        const int group = groupOf(vm_ref.id);
        if (group >= 0)
            ++hostGroupCount_[hostIndex(vm_ref.host)][group];
    }
}

int
PlacementModel::groupOf(VmId id) const
{
    if (vmGroup_.empty())
        return -1; // common case: no anti-affinity configured
    const auto it = vmGroup_.find(id);
    return it != vmGroup_.end() ? it->second : -1;
}

const PlannedVm &
PlacementModel::vm(VmId id) const
{
    return vms_[vmIndex(id)];
}

const PlannedHost &
PlacementModel::host(HostId id) const
{
    return hosts_[hostIndex(id)];
}

void
PlacementModel::apply(const Move &move)
{
    PlannedVm &vm_ref = vms_[vmIndex(move.vm)];
    if (vm_ref.host != move.from)
        sim::panic("PlacementModel::apply: VM %d is on host %d, not %d",
                   move.vm, vm_ref.host, move.from);

    const std::size_t from = hostIndex(move.from);
    const std::size_t to = hostIndex(move.to);
    const std::size_t v = vmIndex(move.vm);
    log_.push_back({static_cast<std::uint32_t>(v),
                    static_cast<std::uint32_t>(from),
                    static_cast<std::uint32_t>(to), cpuUsed_[from],
                    memUsed_[from], cpuUsed_[to], memUsed_[to]});
    cpuUsed_[from] -= vm_ref.cpuMhz;
    memUsed_[from] -= vm_ref.memoryMb;
    cpuUsed_[to] += vm_ref.cpuMhz;
    memUsed_[to] += vm_ref.memoryMb;
    vm_ref.host = move.to;
    relocate(static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(from),
             static_cast<std::uint32_t>(to));

    if (const int group = groupOf(move.vm);
        group >= 0 && !hostGroupCount_.empty()) {
        --hostGroupCount_[from][group];
        ++hostGroupCount_[to][group];
    }
}

void
PlacementModel::relocate(std::uint32_t v, std::uint32_t from,
                         std::uint32_t to)
{
    std::vector<std::uint32_t> &src = residents_[from];
    src.erase(std::lower_bound(src.begin(), src.end(), v));
    std::vector<std::uint32_t> &dst = residents_[to];
    dst.insert(std::lower_bound(dst.begin(), dst.end(), v), v);
}

void
PlacementModel::rollback(std::size_t mark)
{
    if (mark > log_.size())
        sim::panic("PlacementModel::rollback: mark %zu beyond the %zu "
                   "logged moves", mark, log_.size());
    while (log_.size() > mark) {
        const LoggedMove &entry = log_.back();
        PlannedVm &vm_ref = vms_[entry.vm];
        // Restore the saved rows: undoing the arithmetic would not be
        // bit-exact.
        cpuUsed_[entry.from] = entry.fromCpu;
        memUsed_[entry.from] = entry.fromMem;
        cpuUsed_[entry.to] = entry.toCpu;
        memUsed_[entry.to] = entry.toMem;
        vm_ref.host = hosts_[entry.from].id;
        relocate(entry.vm, entry.to, entry.from);
        if (const int group = groupOf(vm_ref.id);
            group >= 0 && !hostGroupCount_.empty()) {
            ++hostGroupCount_[entry.from][group];
            --hostGroupCount_[entry.to][group];
        }
        log_.pop_back();
    }
}

namespace {

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

} // namespace

void
PlacementModel::audit() const
{
    // The resident index, rebuilt from the VM rows.
    std::vector<std::vector<std::uint32_t>> residents(hosts_.size());
    for (std::size_t v = 0; v < vms_.size(); ++v)
        residents[hostIndex(vms_[v].host)].push_back(
            static_cast<std::uint32_t>(v));
    if (residents_.size() != hosts_.size())
        sim::panic("PlacementModel audit: resident index covers %zu of %zu "
                   "hosts", residents_.size(), hosts_.size());
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (residents_[h] != residents[h])
            sim::panic("PlacementModel audit: resident index of host %d "
                       "holds %zu VMs, the VM rows place %zu there (or in "
                       "another order)", hosts_[h].id, residents_[h].size(),
                       residents[h].size());
    }

    // The assignment before the logged moves, summed like rebuildUsage().
    std::vector<std::size_t> host_of(vms_.size());
    for (std::size_t v = 0; v < vms_.size(); ++v)
        host_of[v] = hostIndex(vms_[v].host);
    for (auto it = log_.rbegin(); it != log_.rend(); ++it)
        host_of[it->vm] = it->from;
    std::vector<double> cpu(hosts_.size(), 0.0);
    std::vector<double> mem(hosts_.size(), 0.0);
    for (std::size_t v = 0; v < vms_.size(); ++v) {
        cpu[host_of[v]] += vms_[v].cpuMhz;
        mem[host_of[v]] += vms_[v].memoryMb;
    }

    // Replay the logged moves' arithmetic, checking each saved row.
    for (const LoggedMove &entry : log_) {
        const PlannedVm &vm_ref = vms_[entry.vm];
        if (!sameBits(cpu[entry.from], entry.fromCpu) ||
            !sameBits(mem[entry.from], entry.fromMem) ||
            !sameBits(cpu[entry.to], entry.toCpu) ||
            !sameBits(mem[entry.to], entry.toMem))
            sim::panic("PlacementModel audit: logged move of VM %d from "
                       "host %d to host %d saved rows a recompute does not "
                       "give", vm_ref.id, hosts_[entry.from].id,
                       hosts_[entry.to].id);
        cpu[entry.from] -= vm_ref.cpuMhz;
        mem[entry.from] -= vm_ref.memoryMb;
        cpu[entry.to] += vm_ref.cpuMhz;
        mem[entry.to] += vm_ref.memoryMb;
    }
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (!sameBits(cpuUsed_[h], cpu[h]) || !sameBits(memUsed_[h], mem[h]))
            sim::panic("PlacementModel audit: host %d uses %.17g MHz / "
                       "%.17g MB, a recompute gives %.17g MHz / %.17g MB",
                       hosts_[h].id, cpuUsed_[h], memUsed_[h], cpu[h],
                       mem[h]);
    }
}

void
PlacementModel::pin(VmId id)
{
    vms_[vmIndex(id)].movable = false;
}

namespace {

/**
 * Choose a destination for @p vm among usable hosts, excluding
 * @p exclude_a/@p exclude_b, under the CPU limit.
 * @return The chosen host id, or invalidHostId if nothing fits.
 */
HostId
chooseDestinationPass(const PlacementModel &model, const PlannedVm &vm,
                      double cpu_limit, PackingHeuristic heuristic,
                      HostId exclude_a, HostId exclude_b, int only_rack)
{
    HostId best = dc::invalidHostId;
    double best_key = 0.0;

    for (const PlannedHost &host : model.hosts()) {
        if (host.id == exclude_a || host.id == exclude_b || !host.usable)
            continue;
        if (only_rack >= 0 && host.rack != only_rack)
            continue;
        if (!model.fits(vm, host.id, cpu_limit))
            continue;

        const double headroom = cpu_limit * host.cpuCapacityMhz -
                                model.cpuUsedMhz(host.id) - vm.cpuMhz;
        switch (heuristic) {
          case PackingHeuristic::FirstFitDecreasing:
            return host.id; // hosts are scanned in id order
          case PackingHeuristic::BestFitDecreasing:
            if (best == dc::invalidHostId || headroom < best_key) {
                best = host.id;
                best_key = headroom;
            }
            break;
          case PackingHeuristic::WorstFit:
            if (best == dc::invalidHostId || headroom > best_key) {
                best = host.id;
                best_key = headroom;
            }
            break;
        }
    }
    return best;
}

/**
 * Choose a destination; with rack affinity, a same-rack home (relative to
 * the VM's current host) is preferred and other racks are the fallback.
 */
HostId
chooseDestination(const PlacementModel &model, const PlannedVm &vm,
                  double cpu_limit, PackingHeuristic heuristic,
                  HostId exclude_a, HostId exclude_b = dc::invalidHostId,
                  bool rack_affinity = false)
{
    if (rack_affinity && vm.host != dc::invalidHostId) {
        const int home_rack = model.host(vm.host).rack;
        const HostId local = chooseDestinationPass(
            model, vm, cpu_limit, heuristic, exclude_a, exclude_b,
            home_rack);
        if (local != dc::invalidHostId)
            return local;
    }
    return chooseDestinationPass(model, vm, cpu_limit, heuristic,
                                 exclude_a, exclude_b, -1);
}

/** Movable VM ids on @p host sorted by descending predicted CPU. */
std::vector<VmId>
vmsByDescendingCpu(const PlacementModel &model, HostId host)
{
    std::vector<VmId> ids = model.vmsOn(host);
    std::erase_if(ids, [&](VmId id) { return !model.vm(id).movable; });
    std::sort(ids.begin(), ids.end(), [&](VmId a, VmId b) {
        const double ca = model.vm(a).cpuMhz;
        const double cb = model.vm(b).cpuMhz;
        if (ca != cb)
            return ca > cb;
        return a < b; // deterministic tie-break
    });
    return ids;
}

} // namespace

std::optional<std::vector<Move>>
planEvacuation(PlacementModel &model, HostId victim,
               double target_utilization, PackingHeuristic heuristic,
               bool rack_affinity)
{
    PROF_ZONE("placement.evacuate");
    // A pinned VM on the victim makes full evacuation impossible.
    for (VmId vm_id : model.vmsOn(victim)) {
        if (!model.vm(vm_id).movable)
            return std::nullopt;
    }

    // Plan in place; a failure rolls the logged moves back, so the
    // caller's model is left bit-identical.
    const std::size_t mark = model.mark();
    std::vector<Move> moves;

    for (VmId vm_id : vmsByDescendingCpu(model, victim)) {
        const PlannedVm &vm_ref = model.vm(vm_id);
        const HostId dest = chooseDestination(
            model, vm_ref, target_utilization, heuristic, victim,
            dc::invalidHostId, rack_affinity);
        if (dest == dc::invalidHostId) {
            model.rollback(mark);
            return std::nullopt;
        }
        const Move move{vm_id, victim, dest};
        model.apply(move);
        moves.push_back(move);
    }

    for (const Move &move : moves)
        model.pin(move.vm); // one planned move per VM per cycle
    return moves;
}

std::vector<Move>
planRebalance(PlacementModel &model, double target_utilization,
              double imbalance_threshold, int max_moves,
              PackingHeuristic heuristic, bool rack_affinity)
{
    PROF_ZONE("placement.plan");
    std::vector<Move> moves;

    // Phase 1: relieve hosts over the target, worst offender first.
    while (static_cast<int>(moves.size()) < max_moves) {
        HostId worst = dc::invalidHostId;
        double worst_util = target_utilization;
        for (const PlannedHost &host : model.hosts()) {
            if (!host.usable)
                continue;
            const double util = model.cpuUtilization(host.id);
            if (util > worst_util + 1e-9) {
                worst = host.id;
                worst_util = util;
            }
        }
        if (worst == dc::invalidHostId)
            break;

        // Move the largest VM that has a home elsewhere.
        bool moved = false;
        for (VmId vm_id : vmsByDescendingCpu(model, worst)) {
            const HostId dest = chooseDestination(
                model, model.vm(vm_id), target_utilization, heuristic,
                worst, dc::invalidHostId, rack_affinity);
            if (dest == dc::invalidHostId)
                continue;
            const Move move{vm_id, worst, dest};
            model.apply(move);
            model.pin(move.vm);
            moves.push_back(move);
            moved = true;
            break;
        }
        if (!moved)
            break; // overload exists but nothing can move
    }

    // Phase 2: narrow the spread between the most and least loaded hosts.
    while (static_cast<int>(moves.size()) < max_moves) {
        HostId hi = dc::invalidHostId, lo = dc::invalidHostId;
        double hi_util = -1.0;
        double lo_util = std::numeric_limits<double>::infinity();
        for (const PlannedHost &host : model.hosts()) {
            if (!host.usable)
                continue;
            const double util = model.cpuUtilization(host.id);
            if (util > hi_util) {
                hi = host.id;
                hi_util = util;
            }
            if (util < lo_util) {
                lo = host.id;
                lo_util = util;
            }
        }
        if (hi == dc::invalidHostId || lo == dc::invalidHostId || hi == lo)
            break;
        if (hi_util - lo_util <= imbalance_threshold)
            break;

        // Move a VM small enough not to invert the imbalance.
        bool moved = false;
        const double gap_mhz = (hi_util - lo_util) *
                               model.host(lo).cpuCapacityMhz;
        for (VmId vm_id : vmsByDescendingCpu(model, hi)) {
            const PlannedVm &vm_ref = model.vm(vm_id);
            if (vm_ref.cpuMhz > gap_mhz * 0.75)
                continue; // too big: would just swap the imbalance
            if (!model.fits(vm_ref, lo, target_utilization))
                continue;
            const Move move{vm_id, hi, lo};
            model.apply(move);
            model.pin(move.vm);
            moves.push_back(move);
            moved = true;
            break;
        }
        if (!moved)
            break;
    }

    return moves;
}

} // namespace vpm::mgmt
