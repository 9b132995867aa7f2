#include "datacenter/fleet_store.hpp"

#include <algorithm>
#include <limits>

#include "power/power_state_machine.hpp"
#include "simcore/byte_append.hpp"
#include "simcore/logging.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {

// The phase byte stores the PowerPhase enumerator directly; the O(1)
// count bookkeeping below keys off these values.
static_assert(static_cast<int>(power::PowerPhase::On) == 0,
              "FleetStore phase byte encoding must match PowerPhase");
static_assert(static_cast<int>(power::PowerPhase::Entering) == 1,
              "FleetStore phase byte encoding must match PowerPhase");
static_assert(static_cast<int>(power::PowerPhase::Asleep) == 2,
              "FleetStore phase byte encoding must match PowerPhase");
static_assert(static_cast<int>(power::PowerPhase::Exiting) == 3,
              "FleetStore phase byte encoding must match PowerPhase");

/** How many VMs ahead the demand-refresh kernel hints the next due span
 *  lookup, so a streamed trace's payload fetch overlaps the VMs between. */
static constexpr std::size_t kRefreshLookAhead = 16;

template <typename T>
void
FleetStore::growColumn(std::unique_ptr<T[]> &col, std::size_t old_count,
                       std::size_t new_cap, T fill)
{
    std::unique_ptr<T[]> grown(new T[new_cap]);
    for (std::size_t i = 0; i < old_count; ++i)
        grown[i] = col[i];
    for (std::size_t i = old_count; i < new_cap; ++i)
        grown[i] = fill;
    col = std::move(grown);
}

// std::atomic is not copyable; relaxed value copies are fine because
// growth is main-thread only (registration happens between parallel
// passes, never inside one).
static void
growAtomicColumn(std::unique_ptr<std::atomic<std::uint8_t>[]> &col,
                 std::size_t old_count, std::size_t new_cap,
                 std::uint8_t fill)
{
    std::unique_ptr<std::atomic<std::uint8_t>[]> grown(
        new std::atomic<std::uint8_t>[new_cap]);
    for (std::size_t i = 0; i < old_count; ++i)
        grown[i].store(col[i].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    for (std::size_t i = old_count; i < new_cap; ++i)
        grown[i].store(fill, std::memory_order_relaxed);
    col = std::move(grown);
}

void
FleetStore::growHosts(std::size_t n)
{
    if (n <= hostCap_)
        return;
    const std::size_t cap = std::max({n, hostCap_ * 2, std::size_t{16}});
    growColumn(hostCapMhz_, hostCount_, cap, 0.0);
    growColumn(hostFreqFraction_, hostCount_, cap, 1.0);
    growColumn(hostMigOverheadMhz_, hostCount_, cap, 0.0);
    growColumn(hostDemandCache_, hostCount_, cap, 0.0);
    growColumn(hostGrantedCache_, hostCount_, cap, 0.0);
    growColumn(hostMemoryCache_, hostCount_, cap, 0.0);
    growColumn(hostHeldWatts_, hostCount_, cap, 0.0);
    growColumn(latencyFactor_, hostCount_, cap, 0.0);
    growColumn(hostWakeLatencyS_, hostCount_, cap, 0.0);
    // Born kFactorDirty as well: the latency factor column holds garbage
    // until the first evaluate pass writes it, and only that write may
    // clear the bit — which is what makes the pass's skip-if-clean gate
    // safe against pre-tick flag clears (reallocate + a lazy memory read
    // can zero every kAllDirty bit before the first tick).
    growAtomicColumn(hostFlags_, hostCount_, cap, kAllDirty | kFactorDirty);
    growColumn(hostQueued_, hostCount_, cap, std::uint8_t{0});
    growColumn(hostPhase_, hostCount_, cap, kPhaseOn);
    growColumn(hostHasHierarchy_, hostCount_, cap, std::uint8_t{0});
    hostCap_ = cap;
}

void
FleetStore::growVms(std::size_t n)
{
    if (n <= vmCap_)
        return;
    const std::size_t cap = std::max({n, vmCap_ * 2, std::size_t{16}});
    growColumn(vmDemand_, vmCount_, cap, 0.0);
    growColumn(vmGranted_, vmCount_, cap, 0.0);
    growColumn(vmCpuMhz_, vmCount_, cap, 0.0);
    growColumn(vmValidUntilUs_, vmCount_, cap,
               std::numeric_limits<std::int64_t>::min());
    growColumn(vmHost_, vmCount_, cap, invalidHostId);
    growColumn<const workload::DemandTrace *>(vmTrace_, vmCount_, cap,
                                              nullptr);
    growColumn(vmPointSpan_, vmCount_, cap, std::uint8_t{0});
    growColumn(vmSpanPrefetch_, vmCount_, cap, std::uint8_t{0});
    vmCap_ = cap;
}

void
FleetStore::registerHost(HostId id, double cpu_capacity_mhz)
{
    if (id < 0)
        sim::panic("FleetStore::registerHost: negative host id %d", id);
    const std::size_t want = idx(id) + 1;
    growHosts(want);
    // Gap rows (standalone Hosts with nonzero ids) keep column defaults;
    // they are Off-the-books and never iterated by a cluster.
    while (hostCount_ < want) {
        // Hosts are born On (PowerStateMachine's initial phase).
        ++hostsOn_;
        ++hostCount_;
    }
    hostCapMhz_[idx(id)] = cpu_capacity_mhz;
    hostFlags_[idx(id)].store(kAllDirty | kFactorDirty,
                              std::memory_order_relaxed);
    queueAllocDirty(id);
}

void
FleetStore::registerVm(VmId id, double cpu_mhz, double memory_mb,
                       const workload::DemandTrace *trace)
{
    if (id < 0)
        sim::panic("FleetStore::registerVm: negative VM id %d", id);
    (void)memory_mb; // sized columns may want it later; spec keeps it now
    const std::size_t want = idx(id) + 1;
    growVms(want);
    vmCount_ = std::max(vmCount_, want);
    vmCpuMhz_[idx(id)] = cpu_mhz;
    vmTrace_[idx(id)] = trace;
    vmPointSpan_[idx(id)] = trace != nullptr && trace->pointSpan() ? 1 : 0;
    vmSpanPrefetch_[idx(id)] =
        trace != nullptr && trace->hasSpanPrefetch() ? 1 : 0;
}

void
FleetStore::setHostPhase(HostId h, std::uint8_t phase)
{
    const std::uint8_t old = hostPhase_[idx(h)];
    if (old == phase)
        return;
    const auto counts = [this](std::uint8_t p) -> int * {
        switch (p) {
        case kPhaseOn: return &hostsOn_;
        case kPhaseAsleep: return &hostsAsleep_;
        default: return &hostsTransitioning_;
        }
    };
    --*counts(old);
    ++*counts(phase);
    hostPhase_[idx(h)] = phase;
}

void
FleetStore::refreshPlacedDemand(const VmId *ids, std::size_t n,
                                std::int64_t now_us)
{
    const sim::SimTime now = sim::SimTime::micros(now_us);
    for (std::size_t k = 0; k < n; ++k) {
        // Look ahead within this call's id range only (the owner-shard
        // rule: a VM's trace cursor belongs to the shard that lists it).
        // Gating on the prefetch column rather than on !point keeps the
        // branch predictable on fleets that mix point and span traces.
        if (k + kRefreshLookAhead < n) {
            const std::size_t ahead = idx(ids[k + kRefreshLookAhead]);
            if (vmSpanPrefetch_[ahead] && now_us >= vmValidUntilUs_[ahead])
                vmTrace_[ahead]->prefetchSpan();
        }
        const std::size_t v = idx(ids[k]);
        double demand;
        if (vmPointSpan_[v]) {
            // Point-span traces (the diurnal workhorse) need a fresh
            // sample every tick by definition: same utilizationAt() value
            // the span path would produce, minus the span struct and the
            // validity read/write.
            demand = vmTrace_[v]->utilizationAt(now) * vmCpuMhz_[v];
        } else {
            if (now_us < vmValidUntilUs_[v])
                continue;
            const workload::DemandSpan span = vmTrace_[v]->spanAt(now);
            vmValidUntilUs_[v] = span.validUntil.micros();
            demand = span.utilization * vmCpuMhz_[v];
        }
        if (demand == vmDemand_[v])
            continue;
        vmDemand_[v] = demand;
        // Guard against corrupt/stale placement records (negative or
        // out-of-range ids), like the sampling pass's starved fallback.
        const HostId h = vmHost_[v];
        if (h >= 0 && idx(h) < hostCount_) {
            // Several co-resident VMs re-mark the same host every tick; a
            // relaxed pre-check skips the RMW (and the rack re-mark) once
            // the bits are already set. Safe for the rack bookkeeping:
            // kDemandDirty can only be set by a markHost() that also
            // dirtied the rack, and FleetTree::refresh() clears members'
            // kDemandDirty before a rack bit is cleared, so "kDemandDirty
            // set" implies "rack already dirty".
            constexpr std::uint8_t bits = kDemandDirty | kAllocDirty;
            if ((hostFlags_[idx(h)].load(std::memory_order_relaxed) &
                 bits) != bits)
                markHost(h, bits);
        }
    }
}

void
FleetStore::appendSnapshot(std::vector<std::uint8_t> &out) const
{
    using sim::appendPod;
    const auto appendColumn = [&out](const auto &col, std::size_t n,
                                     std::size_t elem) {
        if (n > 0)
            sim::appendBytes(out, col.get(), n * elem);
    };

    appendPod<std::uint64_t>(out, vmCount_);
    appendColumn(vmDemand_, vmCount_, sizeof(double));
    appendColumn(vmGranted_, vmCount_, sizeof(double));
    appendColumn(vmCpuMhz_, vmCount_, sizeof(double));
    appendColumn(vmValidUntilUs_, vmCount_, sizeof(std::int64_t));
    appendColumn(vmHost_, vmCount_, sizeof(HostId));
    appendColumn(vmPointSpan_, vmCount_, sizeof(std::uint8_t));

    appendPod<std::uint64_t>(out, hostCount_);
    appendColumn(hostCapMhz_, hostCount_, sizeof(double));
    appendColumn(hostFreqFraction_, hostCount_, sizeof(double));
    appendColumn(hostMigOverheadMhz_, hostCount_, sizeof(double));
    appendColumn(hostDemandCache_, hostCount_, sizeof(double));
    appendColumn(hostGrantedCache_, hostCount_, sizeof(double));
    appendColumn(hostMemoryCache_, hostCount_, sizeof(double));
    appendColumn(hostHeldWatts_, hostCount_, sizeof(double));
    appendColumn(latencyFactor_, hostCount_, sizeof(double));
    for (std::size_t i = 0; i < hostCount_; ++i)
        out.push_back(hostFlags_[i].load(std::memory_order_relaxed));
    appendColumn(hostQueued_, hostCount_, sizeof(std::uint8_t));
    appendColumn(hostPhase_, hostCount_, sizeof(std::uint8_t));
    appendColumn(hostHasHierarchy_, hostCount_, sizeof(std::uint8_t));

    appendPod<std::uint64_t>(out, hostsOn_);
    appendPod<std::uint64_t>(out, hostsAsleep_);
    appendPod<std::uint64_t>(out, hostsTransitioning_);

    appendPod<std::uint64_t>(out, allocQueue_.size());
    if (!allocQueue_.empty())
        sim::appendBytes(out, allocQueue_.data(),
                         allocQueue_.size() * sizeof(HostId));
}

void
FleetStore::setRackWidth(std::size_t hosts_per_rack)
{
    if (hosts_per_rack == 0)
        sim::panic("FleetStore::setRackWidth: width must be positive");
    rackWidth_ = hosts_per_rack;
    const std::size_t racks =
        (hostCount_ + hosts_per_rack - 1) / hosts_per_rack;
    rackDirty_ = std::vector<std::atomic<std::uint8_t>>(racks);
    markAllRacksDirty();
}

} // namespace vpm::dc
