#include "core/placement.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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
    evacuable_.resize(hosts_.size());
    for (std::size_t h = 0; h < hosts_.size(); ++h)
        evacuable_[h] = hosts_[h].usable ? 1 : 0;
    dropIndexes();
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
    return fitsAt(vm_ref, hostIndex(host), cpu_limit_fraction);
}

bool
PlacementModel::fitsAt(const PlannedVm &vm_ref, std::size_t h,
                       double cpu_limit_fraction) const
{
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
    reindex(from);
    reindex(to);

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
        reindex(entry.from);
        reindex(entry.to);
        if (const int group = groupOf(vm_ref.id);
            group >= 0 && !hostGroupCount_.empty()) {
            ++hostGroupCount_[entry.from][group];
            --hostGroupCount_[entry.to][group];
        }
        log_.pop_back();
    }
}

namespace {

constexpr std::size_t kNoLeaf = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Free-CPU index order: rack, then key, then host index. */
template <class Entry>
bool
entryLess(const Entry &a, const Entry &b)
{
    if (a.rack != b.rack)
        return a.rack < b.rack;
    if (a.key != b.key)
        return a.key < b.key;
    return a.host < b.host;
}

/**
 * The lowest leaf index >= @p from under @p node (covering leaves
 * [@p lo, @p hi)) whose node satisfies @p pred, where @p pred holds for a
 * node whenever it holds for one of its leaves; kNoLeaf if none does.
 */
template <class Node, class Pred>
std::size_t
firstLeaf(const std::vector<Node> &tree, std::size_t node, std::size_t lo,
          std::size_t hi, std::size_t from, Pred pred)
{
    if (hi <= from || !pred(tree[node]))
        return kNoLeaf;
    if (hi - lo == 1)
        return lo;
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::size_t left = firstLeaf(tree, 2 * node, lo, mid, from, pred);
    return left != kNoLeaf
               ? left
               : firstLeaf(tree, 2 * node + 1, mid, hi, from, pred);
}

} // namespace

void
PlacementModel::dropIndexes()
{
    byHeadroom_.built = false;
    byRackHeadroom_.built = false;
    extremes_.clear();
}

const PlacementModel::HeadroomIndex &
PlacementModel::headroomIndex(double cpu_limit, bool by_rack) const
{
    if (cpu_limit != headroomLimit_) {
        byHeadroom_.built = false;
        byRackHeadroom_.built = false;
    }
    HeadroomIndex &index = by_rack ? byRackHeadroom_ : byHeadroom_;
    if (index.built)
        return index;

    // Recomputing every key also gives the other index, if built, the
    // keys it already holds.
    headroomLimit_ = cpu_limit;
    headroomKey_.resize(hosts_.size());
    maxLimitCapacity_ = 0.0;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        const double limit_cap = cpu_limit * hosts_[h].cpuCapacityMhz;
        headroomKey_[h] = limit_cap - cpuUsed_[h];
        maxLimitCapacity_ = std::max(maxLimitCapacity_, std::abs(limit_cap));
    }
    index.entries.clear();
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (hosts_[h].usable)
            index.entries.push_back(headroomEntry(h, by_rack));
    }
    std::sort(index.entries.begin(), index.entries.end(),
              entryLess<HeadroomEntry>);
    index.built = true;
    return index;
}

PlacementModel::HeadroomEntry
PlacementModel::headroomEntry(std::size_t h, bool by_rack) const
{
    return {by_rack ? hosts_[h].rack : 0, static_cast<std::uint32_t>(h),
            headroomKey_[h], memUsed_[h], hosts_[h].memoryCapacityMb + 1e-9};
}

PlacementModel::LoadExtremes
PlacementModel::leafOf(std::size_t h) const
{
    if (h >= hosts_.size())
        return {-kInf, kInf, kInf};
    // The same division as cpuUtilization(), so the bits agree.
    const double util = cpuUsed_[h] / hosts_[h].cpuCapacityMhz;
    const bool usable = hosts_[h].usable;
    return {usable ? util : -kInf, usable ? util : kInf,
            evacuable_[h] ? cpuUsed_[h] : kInf};
}

namespace {

/** A segment-tree node from its two children. */
template <class Extremes>
Extremes
combine(const Extremes &a, const Extremes &b)
{
    return {std::max(a.maxUtil, b.maxUtil), std::min(a.minUtil, b.minUtil),
            std::min(a.minLoad, b.minLoad)};
}

} // namespace

const std::vector<PlacementModel::LoadExtremes> &
PlacementModel::extremes() const
{
    if (!extremes_.empty())
        return extremes_;
    extremesLeaves_ = std::bit_ceil(std::max<std::size_t>(hosts_.size(), 1));
    extremes_.resize(2 * extremesLeaves_);
    for (std::size_t h = 0; h < extremesLeaves_; ++h)
        extremes_[extremesLeaves_ + h] = leafOf(h);
    for (std::size_t n = extremesLeaves_ - 1; n >= 1; --n)
        extremes_[n] = combine(extremes_[2 * n], extremes_[2 * n + 1]);
    return extremes_;
}

void
PlacementModel::updateLeaf(std::size_t h) const
{
    std::size_t n = extremesLeaves_ + h;
    extremes_[n] = leafOf(h);
    for (n /= 2; n >= 1; n /= 2)
        extremes_[n] = combine(extremes_[2 * n], extremes_[2 * n + 1]);
}

void
PlacementModel::reindex(std::size_t h)
{
    if (!extremes_.empty())
        updateLeaf(h);
    if (!hosts_[h].usable || (!byHeadroom_.built && !byRackHeadroom_.built))
        return;
    const double old_key = headroomKey_[h];
    const double new_key =
        headroomLimit_ * hosts_[h].cpuCapacityMhz - cpuUsed_[h];
    headroomKey_[h] = new_key;
    for (HeadroomIndex *index : {&byHeadroom_, &byRackHeadroom_}) {
        if (!index->built)
            continue;
        std::vector<HeadroomEntry> &entries = index->entries;
        const HeadroomEntry entry =
            headroomEntry(h, index == &byRackHeadroom_);
        HeadroomEntry old_entry = entry;
        old_entry.key = old_key;
        const auto at = std::lower_bound(entries.begin(), entries.end(),
                                         old_entry, entryLess<HeadroomEntry>);
        const auto to = std::lower_bound(entries.begin(), entries.end(),
                                         entry, entryLess<HeadroomEntry>);
        // Slide the entry to its new place, shifting the ones between.
        if (to > at) {
            std::rotate(at, at + 1, to);
            *(to - 1) = entry;
        } else {
            std::rotate(to, at, at + 1);
            *to = entry;
        }
    }
}

HostId
PlacementModel::fitByHeadroom(const PlannedVm &vm_ref, double cpu_limit,
                              bool tightest, HostId exclude_a,
                              HostId exclude_b, int only_rack) const
{
    const bool by_rack = only_rack >= 0;
    const std::vector<HeadroomEntry> &entries =
        headroomIndex(cpu_limit, by_rack).entries;
    const int rack = by_rack ? only_rack : 0;
    const auto rack_less = [](const HeadroomEntry &e, int r) {
        return e.rack < r;
    };
    const auto rack_end = [](int r, const HeadroomEntry &e) {
        return r < e.rack;
    };
    const auto first = std::lower_bound(entries.begin(), entries.end(),
                                        rack, rack_less);
    const auto last = std::upper_bound(first, entries.end(), rack,
                                       rack_end);

    // fits() tests `used + vm <= limit * capacity + 1e-9`, which rounds
    // differently from the key: a host that fits has a key within a few
    // ulps of the capacity of vm - 1e-9 or above. Hosts below the floor
    // cannot fit; those above it are tested with fits() itself.
    const double slack =
        1e-9 + 1e-12 * (maxLimitCapacity_ + std::abs(vm_ref.cpuMhz));
    const double floor_key = vm_ref.cpuMhz - 1e-9 - slack;
    const auto floor = std::lower_bound(
        first, last, floor_key,
        [](const HeadroomEntry &e, double k) { return e.key < k; });

    // Memory-bound hosts are common among the tight ones; their inline
    // memory test fails before fits() touches the host rows.
    const auto eligible = [&](const HeadroomEntry &e) {
        if (!(e.memUsed + vm_ref.memoryMb <= e.memBound))
            return false;
        const HostId id = hosts_[e.host].id;
        return id != exclude_a && id != exclude_b &&
               fitsAt(vm_ref, e.host, cpu_limit);
    };

    // The first eligible entry in the walk direction has the extreme
    // headroom. Rounding is monotone, so hosts of equal headroom
    // `key - vm` form a contiguous run from it; the scan kept the lowest
    // host index among them.
    std::size_t best = kNoLeaf;
    double best_headroom = 0.0;
    const auto consider = [&](const HeadroomEntry &e) {
        const double headroom = e.key - vm_ref.cpuMhz;
        if (best != kNoLeaf && headroom != best_headroom)
            return false; // past the run of equal headroom
        if ((best == kNoLeaf || e.host < best) && eligible(e)) {
            best = e.host;
            best_headroom = headroom;
        }
        return true;
    };
    if (tightest) {
        for (auto it = floor; it != last && consider(*it); ++it) {
        }
    } else {
        for (auto it = last; it != floor && consider(*(it - 1)); --it) {
        }
    }
    return best == kNoLeaf ? dc::invalidHostId : hosts_[best].id;
}

HostId
PlacementModel::worstOverloaded(double floor) const
{
    const std::vector<LoadExtremes> &tree = extremes();
    std::size_t worst = kNoLeaf;
    double worst_util = floor;
    for (std::size_t from = 0;;) {
        const double bar = worst_util + 1e-9;
        const std::size_t h =
            firstLeaf(tree, 1, 0, extremesLeaves_, from,
                      [bar](const LoadExtremes &n) { return n.maxUtil > bar; });
        if (h == kNoLeaf)
            break;
        worst = h;
        worst_util = tree[extremesLeaves_ + h].maxUtil;
        from = h + 1;
    }
    return worst == kNoLeaf ? dc::invalidHostId : hosts_[worst].id;
}

HostId
PlacementModel::mostUtilized() const
{
    // The scan started below every utilization (-1) and kept the first
    // strictly greater one: the lowest index attaining the maximum.
    const std::vector<LoadExtremes> &tree = extremes();
    const double top = tree[1].maxUtil;
    if (!(top > -1.0))
        return dc::invalidHostId;
    const std::size_t h =
        firstLeaf(tree, 1, 0, extremesLeaves_, 0,
                  [top](const LoadExtremes &n) { return n.maxUtil >= top; });
    return hosts_[h].id;
}

HostId
PlacementModel::leastUtilized() const
{
    const std::vector<LoadExtremes> &tree = extremes();
    const double bottom = tree[1].minUtil;
    if (!(bottom < kInf))
        return dc::invalidHostId;
    const std::size_t h = firstLeaf(
        tree, 1, 0, extremesLeaves_, 0,
        [bottom](const LoadExtremes &n) { return n.minUtil <= bottom; });
    return hosts_[h].id;
}

void
PlacementModel::setEvacuable(HostId id, bool evacuable)
{
    const std::size_t h = hostIndex(id);
    evacuable_[h] = evacuable ? 1 : 0;
    if (!extremes_.empty())
        updateLeaf(h);
}

HostId
PlacementModel::lightestEvacuable() const
{
    const std::vector<LoadExtremes> &tree = extremes();
    const double lightest = tree[1].minLoad;
    if (!(lightest < kInf))
        return dc::invalidHostId;
    const std::size_t h = firstLeaf(
        tree, 1, 0, extremesLeaves_, 0,
        [lightest](const LoadExtremes &n) { return n.minLoad <= lightest; });
    return hosts_[h].id;
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

    // The free-CPU indexes: every usable host once, keyed by its
    // recomputed headroom, in order.
    for (const HeadroomIndex *index : {&byHeadroom_, &byRackHeadroom_}) {
        if (!index->built)
            continue;
        const bool by_rack = index == &byRackHeadroom_;
        std::vector<HeadroomEntry> expected;
        for (std::size_t h = 0; h < hosts_.size(); ++h) {
            if (!hosts_[h].usable)
                continue;
            HeadroomEntry entry = headroomEntry(h, by_rack);
            entry.key =
                headroomLimit_ * hosts_[h].cpuCapacityMhz - cpuUsed_[h];
            expected.push_back(entry);
        }
        std::sort(expected.begin(), expected.end(),
                  entryLess<HeadroomEntry>);
        if (index->entries.size() != expected.size())
            sim::panic("PlacementModel audit: %s free-CPU index holds %zu "
                       "hosts, %zu are usable", by_rack ? "rack" : "flat",
                       index->entries.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const HeadroomEntry &have = index->entries[i];
            const HeadroomEntry &want = expected[i];
            if (have.host != want.host || have.rack != want.rack ||
                !sameBits(have.key, want.key) ||
                !sameBits(have.memUsed, want.memUsed) ||
                !sameBits(have.memBound, want.memBound))
                sim::panic("PlacementModel audit: %s free-CPU index entry "
                           "%zu is host %d key %.17g, a recompute gives "
                           "host %d key %.17g", by_rack ? "rack" : "flat", i,
                           hosts_[have.host].id, have.key,
                           hosts_[want.host].id, want.key);
        }
    }

    // The load-extremes tree: leaves from the usage rows, nodes from
    // their children.
    if (!extremes_.empty()) {
        for (std::size_t h = 0; h < extremesLeaves_; ++h) {
            const LoadExtremes have = extremes_[extremesLeaves_ + h];
            const LoadExtremes want = leafOf(h);
            if (!sameBits(have.maxUtil, want.maxUtil) ||
                !sameBits(have.minUtil, want.minUtil) ||
                !sameBits(have.minLoad, want.minLoad))
                sim::panic("PlacementModel audit: load-extremes leaf of "
                           "host index %zu is stale", h);
        }
        for (std::size_t n = extremesLeaves_ - 1; n >= 1; --n) {
            const LoadExtremes want =
                combine(extremes_[2 * n], extremes_[2 * n + 1]);
            if (!sameBits(extremes_[n].maxUtil, want.maxUtil) ||
                !sameBits(extremes_[n].minUtil, want.minUtil) ||
                !sameBits(extremes_[n].minLoad, want.minLoad))
                sim::panic("PlacementModel audit: load-extremes node %zu "
                           "disagrees with its children", n);
        }
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
    switch (heuristic) {
      case PackingHeuristic::FirstFitDecreasing:
        // An id-order scan already stops at the first fit.
        for (const PlannedHost &host : model.hosts()) {
            if (host.id == exclude_a || host.id == exclude_b || !host.usable)
                continue;
            if (only_rack >= 0 && host.rack != only_rack)
                continue;
            if (model.fits(vm, host.id, cpu_limit))
                return host.id;
        }
        return dc::invalidHostId;
      case PackingHeuristic::BestFitDecreasing:
      case PackingHeuristic::WorstFit:
        return model.fitByHeadroom(
            vm, cpu_limit,
            heuristic == PackingHeuristic::BestFitDecreasing, exclude_a,
            exclude_b, only_rack);
    }
    sim::panic("chooseDestinationPass: invalid PackingHeuristic %d",
               static_cast<int>(heuristic));
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
        const HostId worst = model.worstOverloaded(target_utilization);
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
        const HostId hi = model.mostUtilized();
        const HostId lo = model.leastUtilized();
        if (hi == dc::invalidHostId || lo == dc::invalidHostId || hi == lo)
            break;
        const double hi_util = model.cpuUtilization(hi);
        const double lo_util = model.cpuUtilization(lo);
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
