#include "datacenter/datacenter_sim.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "datacenter/sample_pass.hpp"
#include "power/idle_hierarchy.hpp"
#include "simcore/logging.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {

namespace {

/**
 * Sharding grains for the per-tick parallel passes. These are part of the
 * determinism contract: ThreadPool::shardCount depends only on the item
 * count and the grain, so every run of the same scenario — at any
 * --threads value — sees the same shard structure and therefore the same
 * reduction order (and bytes). Sized so unit-test clusters collapse to a
 * single shard (the exact sequential accumulation path) while f7-scale
 * cells fan out.
 */
constexpr std::size_t kHostShardGrain = 8;
constexpr std::size_t kVmShardGrain = 64;

/**
 * Grain of the flat demand-refresh pass. Unlike the SLA sampling pass,
 * the refresh kernel folds nothing — re-samples are per-VM independent
 * and idempotent — so its shard structure is not part of the determinism
 * contract and can use a coarse grain that keeps per-shard dispatch
 * overhead negligible at millions of VMs.
 */
constexpr std::size_t kVmRefreshShardGrain = 4096;

} // namespace

DatacenterSim::DatacenterSim(sim::Simulator &simulator, Cluster &cluster,
                             MigrationEngine &migration,
                             const DatacenterConfig &config)
    : simulator_(simulator), cluster_(cluster), migration_(migration),
      config_(config), sla_(config.slaThreshold),
      hostsOnTracker_(simulator.now(), 0.0)
{
    if (config_.evaluationInterval <= sim::SimTime())
        sim::fatal("DatacenterSim: evaluation interval must be positive");
}

void
DatacenterSim::start()
{
    if (started_)
        sim::panic("DatacenterSim::start called twice");
    started_ = true;
    startedAt_ = simulator_.now();
    hostsOnTracker_ =
        stats::TimeWeighted(simulator_.now(),
                            static_cast<double>(cluster_.hostsOn()));

    // Track the hosts-on signal exactly: it changes only on phase edges.
    for (const auto &host_ptr : cluster_.hosts()) {
        host_ptr->powerFsm().addObserver(
            [this](power::PowerPhase, power::PowerPhase) {
                hostsOnTracker_.update(
                    simulator_.now(),
                    static_cast<double>(cluster_.hostsOn()));
                hostCountsDirty_ = true;
            });
    }

    migration_.setOnComplete(
        [this](VmId, HostId, HostId) { reallocate(); });

    simulator_.schedule(sim::SimTime(), [this] { evaluationTick(); },
                        "dcsim.evaluate");
}

void
DatacenterSim::evaluationTick()
{
    PROF_ZONE("dcsim.tick");
    evaluate();
    if (!feedError_.empty())
        return;
    for (const EvaluationHook &hook : hooks_)
        hook();
    sampleTelemetry();
    simulator_.schedule(config_.evaluationInterval,
                        [this] { evaluationTick(); }, "dcsim.evaluate");
}

std::size_t
DatacenterSim::idleOccSlot(const std::string &name)
{
    const auto it = idleOccIndex_.find(name);
    if (it != idleOccIndex_.end())
        return it->second;
    const std::size_t idx = idleOccSlots_.size();
    IdleOccSlot slot;
    slot.name = name;
    slot.gauge = &telemetry::global().metrics().gauge(name);
    idleOccSlots_.push_back(std::move(slot));
    idleOccIndex_.emplace(name, idx);
    idleOccOrder_.push_back(idx);
    // Slot creation is rare (new level name); re-sorting here keeps every
    // per-tick visit a plain ordered walk.
    std::sort(idleOccOrder_.begin(), idleOccOrder_.end(),
              [this](std::size_t a, std::size_t b) {
                  return idleOccSlots_[a].name < idleOccSlots_[b].name;
              });
    return idx;
}

void
DatacenterSim::sampleTelemetry()
{
    PROF_ZONE("dcsim.sample_telemetry");
    telemetry::Telemetry &tel = telemetry::global();
    if (!tel.enabled())
        return;

    // O(hosts) of plain loads: the evaluate pass just pushed each host's
    // power into its energy meter (updatePowerDraw) and refreshed the
    // per-host demand cache, so summing heldWatts()/vmDemandMhz() here
    // reads memoized values instead of recomputing the power model per
    // host — and reports exactly the power the energy accounting is
    // integrating.
    double watts = 0.0;
    double demand_mhz = 0.0;
    // Per-level idle-hierarchy occupancy across the fleet: how many cores
    // (and packages) are resident at each named state right now. A slot
    // whose epoch matches this tick was touched; everything else reads 0.
    ++idleOccEpoch_;
    const auto touch = [this](std::size_t idx, double v) {
        IdleOccSlot &slot = idleOccSlots_[idx];
        if (slot.epoch != idleOccEpoch_) {
            slot.epoch = idleOccEpoch_;
            slot.value = 0.0;
        }
        slot.value += v;
    };
    bool any_hierarchy = false;
    const FleetStore &fleet = cluster_.fleet();
    const auto &hosts = cluster_.hosts();
    const double *held_watts = fleet.hostHeldWattsData();
    const double *demand_cache = fleet.hostDemandCacheData();
    const std::size_t host_count = fleet.hostCount();
    for (std::size_t i = 0; i < host_count; ++i) {
        const HostId h = static_cast<HostId>(i);
        // The evaluate pass leaves every allocator-serviced host's demand
        // cache clean; hosts it skipped (e.g. off hosts with residents,
        // from failure injection) recompute lazily here, exactly like the
        // historical vmDemandMhz() walk.
        if (fleet.hostFlags(h) & FleetStore::kDemandDirty)
            (void)hosts[i]->vmDemandMhz();
        watts += held_watts[i];
        demand_mhz += demand_cache[i];
        if (!fleet.hostHasHierarchy(h))
            continue;
        const Host *host_ptr = hosts[i].get();
        if (const power::IdleHierarchy *hier = host_ptr->idleHierarchy()) {
            any_hierarchy = true;
            if (!hier->active())
                continue;
            const power::IdleHierarchySpec &spec = hier->spec();
            auto spec_it = idleSpecSlots_.find(&spec);
            if (spec_it == idleSpecSlots_.end()) {
                SpecOccSlots fresh;
                fresh.coreC0 = idleOccSlot("cluster.idle.core.C0");
                fresh.pkgC0 = idleOccSlot("cluster.idle.pkg.C0");
                for (const auto &state : spec.coreStates)
                    fresh.coreByDepth.push_back(
                        idleOccSlot("cluster.idle.core." + state.name));
                for (const auto &state : spec.packageStates)
                    fresh.pkgByDepth.push_back(
                        idleOccSlot("cluster.idle.pkg." + state.name));
                spec_it =
                    idleSpecSlots_.emplace(&spec, std::move(fresh)).first;
            }
            const SpecOccSlots &slots = spec_it->second;
            const int idle_cores = spec.coreCount - hier->busyCores();
            if (hier->coreDepth() > 0) {
                touch(slots.coreByDepth[static_cast<std::size_t>(
                          hier->coreDepth() - 1)],
                      static_cast<double>(idle_cores));
                touch(slots.coreC0, static_cast<double>(hier->busyCores()));
            } else {
                touch(slots.coreC0, static_cast<double>(spec.coreCount));
            }
            if (hier->packageDepth() > 0)
                touch(slots.pkgByDepth[static_cast<std::size_t>(
                          hier->packageDepth() - 1)],
                      1.0);
            else
                touch(slots.pkgC0, 1.0);
        }
    }
    if (hostCountsDirty_) {
        cachedHostsOn_ = cluster_.hostsOn();
        cachedHostsAsleep_ = cluster_.hostsAsleep();
        hostCountsDirty_ = false;
    }
    if (wattsGauge_ == nullptr) {
        wattsGauge_ = &tel.metrics().gauge("cluster.power.watts");
        hostsOnGauge_ = &tel.metrics().gauge("cluster.hosts.on");
        demandGauge_ = &tel.metrics().gauge("cluster.demand.mhz");
    }
    wattsGauge_->set(watts);
    hostsOnGauge_->set(static_cast<double>(cachedHostsOn_));
    demandGauge_->set(demand_mhz);
    if (any_hierarchy) {
        // A level nobody occupies this tick must read 0, not its last
        // value.
        for (const std::size_t idx : idleOccOrder_) {
            IdleOccSlot &slot = idleOccSlots_[idx];
            slot.gauge->set(slot.epoch == idleOccEpoch_ ? slot.value : 0.0);
        }
    }
    // Downsampling store: the same cluster aggregates, plus queue/
    // migration pressure, folded into compressed bucket history the
    // watchdog and vpm_top read.
    telemetry::TimeSeriesStore &tstore = tel.timeseries();
    if (tstore.enabled()) {
        const std::int64_t t_us = simulator_.now().micros();
        if (!tsMainResolved_) {
            tsPower_ = tstore.seriesId("cluster.power.watts");
            tsDemand_ = tstore.seriesId("cluster.demand.mhz");
            tsHostsOn_ = tstore.seriesId("cluster.hosts.on");
            tsHostsAsleep_ = tstore.seriesId("cluster.hosts.asleep");
            tsQueueDepth_ = tstore.seriesId("sim.queue.depth");
            tsMigInflight_ = tstore.seriesId("migration.inflight");
            tsBackClamps_ = tstore.seriesId("power.meter.backwards_clamps");
            backClampsCounter_ =
                &tel.metrics().counter("power.meter.backwards_clamps");
            tsMainResolved_ = true;
        }
        tstore.record(tsPower_, t_us, watts);
        tstore.record(tsDemand_, t_us, demand_mhz);
        tstore.record(tsHostsOn_, t_us,
                      static_cast<double>(cachedHostsOn_));
        tstore.record(tsHostsAsleep_, t_us,
                      static_cast<double>(cachedHostsAsleep_));
        tstore.record(tsQueueDepth_, t_us,
                      static_cast<double>(simulator_.pendingCount()));
        tstore.record(tsMigInflight_, t_us,
                      static_cast<double>(migration_.activeCount()));
        tstore.record(tsBackClamps_, t_us,
                      static_cast<double>(backClampsCounter_->value()));
        // Idle-hierarchy occupancy reuses the gauge names; levels nobody
        // occupies this tick simply record nothing (gaps, not zeros).
        // Name order keeps series registration deterministic.
        for (const std::size_t idx : idleOccOrder_) {
            IdleOccSlot &slot = idleOccSlots_[idx];
            if (slot.epoch != idleOccEpoch_)
                continue;
            if (!slot.seriesResolved) {
                slot.series = tstore.seriesId(slot.name);
                slot.seriesResolved = true;
            }
            tstore.record(slot.series, t_us, slot.value);
        }
    }
    tel.sampleSeries(simulator_.now().micros());
    // Seal finished buckets and run the watchdog over them; a no-op when
    // the store is disabled.
    tel.flushTimeseries(simulator_.now().micros());
}

void
DatacenterSim::evaluate()
{
    PROF_ZONE("dcsim.evaluate");
    const sim::SimTime now = simulator_.now();
    bool fed = true;
    if (demandFeed_) {
        PROF_ZONE("dcsim.evaluate.feed");
        fed = feedError_.empty() && demandFeed_(now, &feedError_);
    }
    if (!fed) {
        if (feedError_.empty())
            feedError_ = "demand feed failed";
        simulator_.requestStop();
        return;
    }
    // Only placed VMs demand CPU: retired VMs are gone, and pending
    // arrivals have not started working (their wait shows up in the
    // provisioning engine's placement-delay stats, not in the SLA).
    const std::vector<Vm *> &placed = placedVms();
    const auto &hosts = cluster_.hosts();
    FleetStore &fleet = cluster_.fleet();
    sim::ThreadPool &pool = sim::globalPool();

    // Demand-refresh pass: a flat linear scan of the placed-VM id list
    // against the store's trace/span/demand columns. Re-samples are
    // per-VM independent and idempotent, and a changed demand marks the
    // resident host through the store's atomic flag bytes (a VM shard may
    // touch hosts of any host shard), so this partitioning produces the
    // identical columns and flags as the historical per-host interleaved
    // refresh.
    //
    // A shard whose cached expiry lies after now holds no VM due for a
    // re-sample, so the kernel would change nothing there and is skipped.
    // The cache goes when the placed list is rebuilt (placedVms()), the
    // shard count moves, or a validity write outside the kernel moves
    // the store's span generation. Each shard writes only its own slot.
    const std::int64_t now_us = now.micros();
    {
        PROF_ZONE("dcsim.evaluate.refresh");
        const std::size_t refresh_shards =
            sim::ThreadPool::shardCount(placed.size(), kVmRefreshShardGrain);
        if (refreshExpiry_.size() != refresh_shards ||
            refreshGeneration_ != fleet.spanGeneration()) {
            refreshExpiry_.assign(refresh_shards,
                                  std::numeric_limits<std::int64_t>::min());
            refreshGeneration_ = fleet.spanGeneration();
        }
        pool.parallelFor(
            placed.size(), kVmRefreshShardGrain,
            [&](std::size_t shard, std::size_t begin, std::size_t end) {
                if (now_us < refreshExpiry_[shard])
                    return;
                refreshExpiry_[shard] = fleet.refreshPlacedDemand(
                    placedIds_.data() + begin, end - begin, now_us);
            });
    }

    // Host pass, sharded over host-id ranges. Everything here is a pure
    // per-host computation — the dirty-gated allocation and the latency
    // factor — so shards share nothing and the results are bit-identical
    // to the sequential sweep in any order. A host whose allocation is
    // valid reads only store columns (the flag byte, the phase byte, the
    // memoized granted sum, the wake-latency mirror); the Host object is
    // dereferenced only to reallocate alloc-dirty hosts and to recompute
    // a dirty granted sum.
    {
        PROF_ZONE("dcsim.evaluate.hostpass");
        const double interval_s = config_.evaluationInterval.toSeconds();
        pool.parallelFor(
            hosts.size(), kHostShardGrain,
            [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    const HostId h = static_cast<HostId>(i);
                    // The VM pass below gathers latencyFactor by HostId, so
                    // the cluster's dense-id invariant is what makes that
                    // lookup (and this loop's write) line up.
                    assert(hosts[i]->id() == h &&
                           "cluster host ids must be dense and in order");
                    std::uint8_t flags = fleet.hostFlags(h);
                    // No flag set means no factor input moved since the last
                    // service: the stored factor is exactly what this pass
                    // would recompute (hierarchy wake-latency drift marks
                    // kFactorDirty), so skip the host entirely.
                    if (flags == 0)
                        continue;
                    if (flags & FleetStore::kAllocDirty) {
                        allocateHost(*hosts[i]);
                        fleet.clearHostFlags(h, FleetStore::kAllocDirty);
                        flags = fleet.hostFlags(h);
                    }
                    // The latency factor is a per-host quantity; evaluate it
                    // once per host so each VM reads an identical value.
                    double factor;
                    if (!fleet.hostIsOn(h)) {
                        factor = kStarvedLatencyFactor;
                    } else {
                        // Same arithmetic as Host::utilization(): the granted
                        // cache is clean on every On host once the allocator
                        // has serviced it (the off-branch presets it too), so
                        // the store read equals the lazy recompute.
                        const double busy =
                            (flags & FleetStore::kGrantedDirty)
                                ? hosts[i]->grantedMhz() +
                                      fleet.hostMigrationOverheadMhz(h)
                                : fleet.hostGrantedCacheMhz(h) +
                                      fleet.hostMigrationOverheadMhz(h);
                        const double util = std::clamp(
                            busy / fleet.hostEffectiveCapacityMhz(h), 0.0, 1.0);
                        const double rho = std::min(util, kUtilizationCap);
                        factor = 1.0 / (1.0 - rho);
                        // C-state exit adds a latency term: demand arriving
                        // this interval waits on the deepest resident exit
                        // before the cores can serve it, amortized over the
                        // interval. The mirror reads 0 without a hierarchy,
                        // and factor + 0.0 is exactly factor.
                        factor += fleet.hostWakeLatencyS(h) / interval_s;
                    }
                    fleet.setLatencyFactor(h, factor);
                    if (flags & FleetStore::kFactorDirty)
                        fleet.clearHostFlags(h, FleetStore::kFactorDirty);
                }
            });
        // Every host was just serviced, so the reallocate() work queue holds
        // nothing the pass above did not already handle.
        fleet.clearAllocQueue();
    }
    PROF_ZONE("dcsim.evaluate.sample");

    // Latency histogram, one add per host: every VM on host h samples the
    // same factor and the counts are integers, so one copy per VM on h
    // leaves the buckets exactly as one add per VM did. Placed VMs whose
    // host id lies outside [0, hostCount) read the starved ceiling.
    {
        const double *factor_col = fleet.latencyFactorData();
        const std::uint32_t *count_col = fleet.hostVmCountData();
        const std::size_t host_count = fleet.hostCount();
        stats::Histogram::Batch hist(latencyHist_);
        std::size_t hosted = 0;
        for (std::size_t i = 0; i < host_count; ++i) {
            if (count_col[i] == 0)
                continue;
            hist.add(factor_col[i], count_col[i]);
            hosted += count_col[i];
        }
        assert(hosted <= placed.size() &&
               "a VM with a host id is missing from the placed list");
        if (placed.size() > hosted)
            hist.add(kStarvedLatencyFactor, placed.size() - hosted);
        hist.commit();
    }

    // VM pass: one SLA sample per placed VM, sharded over VM ranges into
    // per-shard accumulators. The shard structure depends only on the VM
    // count, never the thread count. Stats accumulate in the per-shard
    // partials across ticks — O(samples), no per-tick histogram traffic —
    // and are folded into the persistent trackers in shard index order by
    // collectShardSamples() when somebody reads them; staged journal
    // events, whose order is observable per tick, flush in shard index
    // order here, reproducing the sequential record sequence exactly.
    telemetry::EventJournal &journal = telemetry::global().journal();
    const bool journal_on = journal.enabled();
    // Series ids are interned here on the main thread, before any shard
    // can touch a recorder: SeriesRecorder keys partials by id, and the
    // store's intern map is not shard-safe.
    telemetry::TimeSeriesStore &tstore = telemetry::global().timeseries();
    const bool ts_on = tstore.enabled();
    if (ts_on && !tsViolResolved_) {
        tsViolSat_ = tstore.seriesId("sla.violation.sat");
        tsViolResolved_ = true;
    }
    const std::size_t shards =
        sim::ThreadPool::shardCount(placed.size(), kVmShardGrain);
    if (shards <= 1) {
        // Single shard: record straight into the persistent accumulators,
        // the exact code path (and FP summation order) of the historical
        // sequential implementation.
        sampleVmRange(fleet, placedIds_.data(), placedIds_.size(), now_us,
                      {sla_, latency_, nullptr, journal_on,
                       ts_on ? &seqSeriesRec_ : nullptr, tsViolSat_});
        if (ts_on)
            tstore.mergeRecorder(seqSeriesRec_, now.micros());
        return;
    }

    while (shardSamples_.size() < shards)
        shardSamples_.emplace_back(config_.slaThreshold);
    pool.parallelFor(
        placed.size(), kVmShardGrain,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
            ShardSample &acc = shardSamples_[shard];
            sampleVmRange(fleet, placedIds_.data() + begin, end - begin,
                          now_us,
                          {acc.sla, acc.latency, &acc.stage, journal_on,
                           ts_on ? &acc.seriesRec : nullptr, tsViolSat_});
        });
    for (std::size_t shard = 0; shard < shards; ++shard)
        journal.flush(shardSamples_[shard].stage);
    // Same shard-index-order fold as the journal stages: the bucket the
    // partials land in is a pure function of `now`, so the store's bytes
    // stay thread-count-independent.
    if (ts_on) {
        for (std::size_t shard = 0; shard < shards; ++shard)
            tstore.mergeRecorder(shardSamples_[shard].seriesRec,
                                 now.micros());
    }
}

void
DatacenterSim::collectShardSamples()
{
    // Fold every shard's pending partials into the persistent trackers,
    // in shard index order (merge() is FP-order-sensitive), and leave the
    // partials empty for the next accumulation window. Callers (metrics
    // reads) occur at simulation-determined points, so the fold schedule —
    // and therefore every summation order — is identical at any thread
    // count.
    for (ShardSample &acc : shardSamples_) {
        sla_.merge(acc.sla);
        acc.sla.reset();
        latency_.merge(acc.latency);
        acc.latency = {};
    }
}

std::string
DatacenterSim::auditRefreshExpiry() const
{
    const FleetStore &fleet = cluster_.fleet();
    const std::size_t shards = refreshExpiry_.size();
    if (shards == 0 || refreshGeneration_ != fleet.spanGeneration() ||
        placedEpoch_ != cluster_.placementEpoch() ||
        shards != sim::ThreadPool::shardCount(placedIds_.size(),
                                              kVmRefreshShardGrain))
        return {};
    for (std::size_t shard = 0; shard < shards; ++shard) {
        const auto [begin, end] =
            sim::ThreadPool::shardRange(placedIds_.size(), shards, shard);
        std::int64_t expiry = std::numeric_limits<std::int64_t>::max();
        VmId earliest = -1;
        for (std::size_t k = begin; k < end; ++k) {
            const VmId v = placedIds_[k];
            const workload::DemandTrace *trace = fleet.vmTrace(v);
            const std::int64_t until =
                trace != nullptr && trace->pointSpan()
                    ? std::numeric_limits<std::int64_t>::min()
                    : fleet.vmValidUntilUs(v);
            if (until < expiry) {
                expiry = until;
                earliest = v;
            }
        }
        if (expiry != refreshExpiry_[shard])
            return "refresh range " + std::to_string(shard) +
                   " caches expiry " + std::to_string(refreshExpiry_[shard]) +
                   " us, but VM " + std::to_string(earliest) +
                   " is valid until " + std::to_string(expiry) + " us";
    }
    return {};
}

const std::vector<Vm *> &
DatacenterSim::placedVms()
{
    const std::uint64_t epoch = cluster_.placementEpoch();
    if (epoch != placedEpoch_) {
        placedVms_.clear();
        placedIds_.clear();
        for (const auto &vm_ptr : cluster_.vms()) {
            if (vm_ptr->placed()) {
                placedVms_.push_back(vm_ptr.get());
                placedIds_.push_back(vm_ptr->id());
            }
        }
        placedEpoch_ = epoch;
        refreshExpiry_.clear();
    }
    return placedVms_;
}

void
DatacenterSim::reallocate()
{
    // Queue drain: every main-thread mutation that dirtied a host's
    // allocation inputs (membership, demand, overhead, frequency, power
    // phase) also enqueued it, so this visits O(dirty hosts) instead of
    // sweeping the fleet — a migration landing re-spreads just its source
    // and destination even at 100k hosts. Allocation is per-host state,
    // so the drain order cannot affect results; the queue's enqueue order
    // is event-driven and thus deterministic anyway.
    PROF_ZONE("dcsim.reallocate");
    FleetStore &fleet = cluster_.fleet();
    const auto &hosts = cluster_.hosts();
    for (const HostId h : fleet.allocQueue()) {
        if (fleet.hostFlags(h) & FleetStore::kAllocDirty) {
            allocateHost(*hosts[static_cast<std::size_t>(h)]);
            fleet.clearHostFlags(h, FleetStore::kAllocDirty);
        }
    }
    fleet.clearAllocQueue();
}

void
DatacenterSim::allocateHost(Host &host)
{
    // Store-direct: the inner loops read and write the fleet columns via
    // the host's resident-id list, never the Vm objects. vmIds() is in
    // vms() order, so every sum below reproduces the FP summation order
    // of the historical object walk (and of the lazy cache recomputes it
    // presets). Cluster-owned hosts share the cluster store, which is
    // what makes the id-based access equivalent.
    FleetStore &fleet = cluster_.fleet();
    const HostId h = host.id();
    const std::vector<VmId> &ids = host.vmIds();

    if (!host.isOn()) {
        // VMs cannot run on a host that is not On. The management layer
        // never suspends occupied hosts; this branch covers hand-scripted
        // experiments and failure injection.
        for (const VmId v : ids)
            fleet.setVmGrantedMhz(v, 0.0);
        fleet.setHostGrantedCacheClean(h, 0.0);
        return;
    }

    const double available = std::max(
        fleet.hostEffectiveCapacityMhz(h) -
            fleet.hostMigrationOverheadMhz(h), 0.0);
    double demand;
    if (fleet.hostFlags(h) & FleetStore::kDemandDirty) {
        demand = 0.0;
        for (const VmId v : ids)
            demand += fleet.vmDemandMhz(v);
        fleet.setHostDemandCacheClean(h, demand);
    } else {
        demand = fleet.hostDemandCacheMhz(h);
    }

    double granted_total = 0.0;
    if (demand <= available) {
        for (const VmId v : ids) {
            const double g = fleet.vmDemandMhz(v);
            fleet.setVmGrantedMhz(v, g);
            granted_total += g;
        }
    } else {
        // Proportional share under contention, hypervisor-style.
        const double share = demand > 0.0 ? available / demand : 0.0;
        for (const VmId v : ids) {
            const double g = fleet.vmDemandMhz(v) * share;
            fleet.setVmGrantedMhz(v, g);
            granted_total += g;
        }
    }
    fleet.setHostGrantedCacheClean(h, granted_total);
    host.updatePowerDraw();
}

RunMetrics
DatacenterSim::metrics()
{
    const sim::SimTime now = simulator_.now();
    cluster_.finishMetering(now);
    hostsOnTracker_.finish(now);
    collectShardSamples();

    RunMetrics m;
    m.energyKwh = cluster_.totalEnergyJoules() / 3.6e6;
    const double span_s = (now - startedAt_).toSeconds();
    m.averagePowerWatts =
        span_s > 0.0 ? cluster_.totalEnergyJoules() / span_s : 0.0;
    m.satisfaction = sla_.satisfaction();
    m.violationFraction = sla_.violationFraction();
    m.p5Performance = sla_.performancePercentile(0.05);
    m.worstPerformance = sla_.worstPerformance();
    m.meanLatencyFactor =
        latency_.count > 0
            ? latency_.sum / static_cast<double>(latency_.count)
            : 1.0;
    m.p95LatencyFactor =
        latencyHist_.count() > 0 ? latencyHist_.percentile(0.95) : 1.0;
    m.averageHostsOn = hostsOnTracker_.average();
    m.migrations = migration_.completedCount();
    m.powerActions = cluster_.powerActionCount();
    m.simulatedHours = (now - startedAt_).toHours();
    return m;
}

RunMetrics
DatacenterSim::runFor(sim::SimTime duration)
{
    if (!started_)
        start();
    simulator_.runUntil(simulator_.now() + duration);
    return metrics();
}

void
DatacenterSim::addEvaluationHook(EvaluationHook hook)
{
    if (!hook)
        sim::panic("DatacenterSim::addEvaluationHook: null hook");
    hooks_.push_back(std::move(hook));
}

} // namespace vpm::dc
