/**
 * @file
 * Experiment glue: periodic demand evaluation, CPU allocation, SLA and
 * power accounting over a Cluster.
 *
 * Every evaluation interval the sim refreshes each VM's demand from its
 * trace, runs the per-host proportional-share allocator, records one SLA
 * sample per VM, and re-holds every host's energy meter. Management
 * policies (vpm::mgmt) run on their own cadence and act on the same
 * Cluster; the sim exposes hooks so a policy can observe evaluations.
 */

#ifndef VPM_DATACENTER_DATACENTER_SIM_HPP
#define VPM_DATACENTER_DATACENTER_SIM_HPP

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "datacenter/cluster.hpp"
#include "datacenter/migration.hpp"
#include "datacenter/sample_pass.hpp"
#include "simcore/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/sla_tracker.hpp"
#include "stats/summary.hpp"
#include "telemetry/event_journal.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/timeseries.hpp"

namespace vpm::power {
struct IdleHierarchySpec;
}

namespace vpm::dc {

/** Evaluation knobs. */
struct DatacenterConfig
{
    /** How often demand is re-read and capacity re-allocated. */
    sim::SimTime evaluationInterval = sim::SimTime::minutes(1.0);

    /** SLA-violation threshold on granted/requested per VM-interval. */
    double slaThreshold = 0.99;
};

/** End-of-run aggregate metrics for one simulated experiment. */
struct RunMetrics
{
    double energyKwh = 0.0;          ///< cluster energy over the run
    double averagePowerWatts = 0.0;  ///< cluster mean power
    double satisfaction = 1.0;       ///< total granted / total requested
    double violationFraction = 0.0;  ///< VM-intervals under the threshold
    double p5Performance = 1.0;      ///< 5th pct of per-sample performance
    double worstPerformance = 1.0;   ///< minimum per-sample performance

    /**
     * Queueing-theoretic response-time inflation (M/M/1 intuition): a VM
     * on a host at utilization rho sees service times stretched by
     * roughly 1/(1 - rho). 1.0 = an idle machine; large values mean the
     * consolidation packed hosts so tight that latency suffers even when
     * throughput (satisfaction) is still fine.
     *
     * meanLatencyFactor averages the VM samples with demand > 0 as a
     * plain sum / count, accumulated in VM order and merged in shard
     * order.
     */
    double meanLatencyFactor = 1.0;  ///< demand-weighted mean inflation
    double p95LatencyFactor = 1.0;   ///< 95th pct of per-VM inflation
    double averageHostsOn = 0.0;     ///< time-weighted mean of on hosts
    std::uint64_t migrations = 0;    ///< completed live migrations
    std::uint64_t powerActions = 0;  ///< accepted sleep + wake commands
    double simulatedHours = 0.0;     ///< wall span of the run
};

/** Drives periodic evaluation and collects run-level metrics. */
class DatacenterSim
{
  public:
    /** Observer fired after each periodic evaluation completes. */
    using EvaluationHook = std::function<void()>;

    /**
     * Advances the span slots some VMs' traces publish
     * (DemandTrace::spanSlot()) to the given instant. @return false with
     * the error set when it cannot (e.g. a corrupt trace block).
     */
    using DemandFeed = std::function<bool(sim::SimTime, std::string *)>;

    DatacenterSim(sim::Simulator &simulator, Cluster &cluster,
                  MigrationEngine &migration,
                  const DatacenterConfig &config = {});

    DatacenterSim(const DatacenterSim &) = delete;
    DatacenterSim &operator=(const DatacenterSim &) = delete;

    /**
     * Begin periodic evaluation: the first evaluation runs at the current
     * simulated time, then every evaluationInterval. Also wires migration
     * completions to reallocation. Call exactly once.
     */
    void start();

    /**
     * Convenience driver: start() if needed, run the simulator for
     * @p duration, then close out all meters.
     * @return The aggregate metrics of the window just simulated.
     */
    RunMetrics runFor(sim::SimTime duration);

    /**
     * Refresh demand from traces and reallocate, recording SLA samples.
     * Called automatically on the periodic cadence.
     */
    void evaluate();

    /**
     * Reallocate grants from already-captured demand without recording SLA
     * samples (used after mid-interval topology changes, e.g. a migration
     * landing, so energy stays exact without double-counting SLA).
     */
    void reallocate();

    /** Snapshot the aggregate metrics so far (meters closed at now()). */
    RunMetrics metrics();

    /** The SLA tracker, with any pending per-shard partials folded in. */
    stats::SlaTracker &sla()
    {
        collectShardSamples();
        return sla_;
    }
    /** Const view: current as of the last metrics()/sla() fold. Fleets
     *  small enough for the single-shard path (the tests) are always
     *  current. */
    const stats::SlaTracker &sla() const { return sla_; }

    /** Latency factor of every VM sample so far; current after every
     *  evaluation (it has no per-shard partials). */
    const stats::Histogram &latencyHistogram() const { return latencyHist_; }

    /**
     * Audit of the refresh-range expiry cache (see evaluate()): recompute
     * each range's earliest validUntil from the store and compare with
     * the cached value. "" when they match or nothing is cached, else the
     * first range that differs and its earliest VM. A range skipped with
     * a VM due (validUntil <= now) shows up here as a cached expiry past
     * that VM's. Call between evaluations.
     */
    std::string auditRefreshExpiry() const;

    /** Register a hook fired after every periodic evaluation. */
    void addEvaluationHook(EvaluationHook hook);

    /**
     * Set the feed evaluate() runs on the main thread before the demand
     * refresh, so every span slot holds its span at now. A failed feed
     * stops the simulator and ends the periodic evaluation; feedError()
     * then says why.
     */
    void setDemandFeed(DemandFeed feed) { demandFeed_ = std::move(feed); }

    /** What stopped the demand feed, "" while it runs. */
    const std::string &feedError() const { return feedError_; }

    const DatacenterConfig &config() const { return config_; }

  private:
    void evaluationTick();

    /** Allocate grants on one host from its VMs' current demand.
     *  Touches only that host's state (plus its resident VMs), so hosts
     *  in different shards may run this concurrently. */
    void allocateHost(Host &host);

    /**
     * The placed VMs in VM-id order. The set only changes when the
     * cluster's placement epoch moves (place, retire, membership), so the
     * list is rebuilt exactly then; moves keep a VM placed and need no
     * rebuild. Iteration order matches the full-sweep filter it replaces.
     */
    const std::vector<Vm *> &placedVms();

    /** Refresh cluster-level gauges and snapshot the metric series; no-op
     *  when global telemetry is disabled. */
    void sampleTelemetry();

    /**
     * Fold every shard's pending stats partials into sla_ / latency_ in
     * shard index order and reset the partials. Deliberately lazy —
     * called from metrics() and sla(), not per tick — because merging the
     * SLA trackers' multi-thousand-bucket histograms every tick dominates
     * the evaluation loop. Fold points are simulation-event-driven, so
     * the summation order is still independent of the thread count.
     */
    void collectShardSamples();

    sim::Simulator &simulator_;
    Cluster &cluster_;
    MigrationEngine &migration_;
    DatacenterConfig config_;

    stats::SlaTracker sla_;
    stats::TimeWeighted hostsOnTracker_;
    LatencySum latency_;
    /** Filled once per host per tick, with the host's VM count as the
     *  copy count (see evaluate()). */
    stats::Histogram latencyHist_{1.0, 21.0, 800};
    bool started_ = false;
    sim::SimTime startedAt_;
    std::vector<EvaluationHook> hooks_;
    DemandFeed demandFeed_;
    std::string feedError_;

    /** Cached placed-VM list (and the parallel id list the store-direct
     *  passes index with); valid while the epoch matches. */
    std::vector<Vm *> placedVms_;
    std::vector<VmId> placedIds_;
    std::uint64_t placedEpoch_ = ~0ull;

    /**
     * Refresh-range expiry: per shard of the demand-refresh pass, the
     * earliest validUntil its last refreshPlacedDemand() call returned;
     * the pass skips the shard while now is before it. Emptied when the
     * placed list is rebuilt, and rebuilt when the shard count or the
     * store's span generation (refreshGeneration_) no longer matches.
     */
    std::vector<std::int64_t> refreshExpiry_;
    std::uint64_t refreshGeneration_ = 0;

    /**
     * @name Idle-hierarchy occupancy accumulation, allocation-free per tick
     *
     * Every distinct occupancy gauge ("cluster.idle.core.C6", ...) gets
     * one slot caching the gauge handle and time-series id, and every
     * hierarchy spec caches the slot index for each depth, so the
     * per-host sampling loop is pure integer indexing — no string
     * concatenation, no map of strings. A slot whose epoch matches the
     * current tick was touched this tick; stale slots read 0 (a level
     * nobody occupies must not hold its last sample). Slots are visited
     * in name order, reproducing the iteration order of the
     * std::map<std::string, double> accumulator this replaced, which is
     * observable as series registration order in snapshots.
     */
    ///@{
    struct IdleOccSlot
    {
        std::string name;
        telemetry::Gauge *gauge = nullptr;
        std::uint32_t series = 0;
        bool seriesResolved = false;
        double value = 0.0;
        std::uint64_t epoch = 0;
    };
    struct SpecOccSlots
    {
        std::vector<std::size_t> coreByDepth; ///< [depth-1] -> slot index
        std::vector<std::size_t> pkgByDepth;
        std::size_t coreC0 = 0;
        std::size_t pkgC0 = 0;
    };
    /** Find or create the slot for @p name (registers the gauge). */
    std::size_t idleOccSlot(const std::string &name);
    std::vector<IdleOccSlot> idleOccSlots_;
    std::vector<std::size_t> idleOccOrder_; ///< slot indices, name-sorted
    std::unordered_map<std::string, std::size_t> idleOccIndex_;
    std::unordered_map<const power::IdleHierarchySpec *, SpecOccSlots>
        idleSpecSlots_;
    std::uint64_t idleOccEpoch_ = 0;
    ///@}

    /**
     * One shard's private accumulators for the parallel sampling pass.
     * Stats partials accumulate across ticks and are folded into the
     * persistent trackers only by collectShardSamples(); the journal
     * stage is flushed (and thereby emptied) every tick, because record
     * order is observable per tick while stats merges commute across
     * ticks as long as the shard order is fixed. The tracker threshold
     * must match sla_, or merge() panics.
     */
    struct ShardSample
    {
        explicit ShardSample(double threshold) : sla(threshold) {}
        stats::SlaTracker sla;
        LatencySum latency;
        telemetry::JournalStage stage;
        /** Time-series partials (violation satisfaction); folded into the
         *  store in shard index order every tick, like the stage. */
        telemetry::SeriesRecorder seriesRec;
    };
    std::vector<ShardSample> shardSamples_;

    /** Single-shard counterpart of ShardSample::seriesRec, so both VM-pass
     *  paths fold series partials through the identical merge. */
    telemetry::SeriesRecorder seqSeriesRec_;

    /** @name Lazily interned time-series ids (store registrations survive
     *  reconfiguration, so resolving once per sim is safe). */
    ///@{
    bool tsViolResolved_ = false;
    std::uint32_t tsViolSat_ = 0;
    bool tsMainResolved_ = false;
    std::uint32_t tsPower_ = 0;
    std::uint32_t tsDemand_ = 0;
    std::uint32_t tsHostsOn_ = 0;
    std::uint32_t tsHostsAsleep_ = 0;
    std::uint32_t tsQueueDepth_ = 0;
    std::uint32_t tsMigInflight_ = 0;
    std::uint32_t tsBackClamps_ = 0;
    /** `power.meter.backwards_clamps` counter handle (stable). */
    telemetry::Counter *backClampsCounter_ = nullptr;
    /** Cluster-aggregate gauge handles (registry storage is stable). */
    telemetry::Gauge *wattsGauge_ = nullptr;
    telemetry::Gauge *hostsOnGauge_ = nullptr;
    telemetry::Gauge *demandGauge_ = nullptr;
    ///@}

    /** hostsOn/hostsAsleep are O(hosts) scans; phases change orders of
     *  magnitude less often than ticks, so the phase-edge observer marks
     *  the counts dirty and sampleTelemetry() rescans only then. */
    bool hostCountsDirty_ = true;
    int cachedHostsOn_ = 0;
    int cachedHostsAsleep_ = 0;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_DATACENTER_SIM_HPP
