/**
 * @file
 * DatacenterSim::evaluate() against the per-VM kernel it replaced. The
 * latency histogram, filled once per host with the host's VM count as
 * the copy count, must equal one Histogram::add per placed VM, bucket
 * for bucket. The SLA tracker and p95 latency factor must match bit for
 * bit. The plain latency-factor sum must give the Welford mean to within
 * 1e-12 relative. After every tick the refresh-range skip must leave
 * the store exactly as a full refresh would: a full refresh run at that
 * instant must change no demand, validity or flag byte. Both audit hooks
 * (FleetStore::auditHostVmCounts, DatacenterSim::auditRefreshExpiry)
 * must come back clean after every tick.
 *
 * The fleets cover one sampling shard and several refresh shards; stale
 * and negative host ids; asleep hosts; in-flight migrations; retired
 * VMs; arrivals through the provisioning engine; and step, constant,
 * diurnal point-span and streamed TraceFile demand (cursor views and the
 * fed span table), with a mid-run setCurrentDemandMhz. Each fleet runs
 * at pool sizes 1, 2 and 8, and the results must match across pool
 * sizes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "datacenter/datacenter_sim.hpp"
#include "datacenter/provisioning.hpp"
#include "power/server_models.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "stats/summary.hpp"
#include "workload/demand_trace.hpp"
#include "workload/diurnal.hpp"

namespace vpm::dc {
namespace {

using sim::SimTime;

/** DatacenterSim's sampling and refresh grains (datacenter_sim.cpp). */
constexpr std::size_t kVmShardGrain = 64;
constexpr std::size_t kVmRefreshShardGrain = 4096;

const SimTime kInterval = SimTime::minutes(5.0);

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

#define EXPECT_SAME_BITS(a, b)                                               \
    EXPECT_TRUE(sameBits((a), (b))) << #a << ": " << (a) << " vs " << (b)

void
expectSameHistogram(const stats::Histogram &a, const stats::Histogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.buckets(), b.buckets());
}

void
expectSameSla(const stats::SlaTracker &a, const stats::SlaTracker &b)
{
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.violations(), b.violations());
    EXPECT_SAME_BITS(a.totalRequestedMhz(), b.totalRequestedMhz());
    EXPECT_SAME_BITS(a.totalGrantedMhz(), b.totalGrantedMhz());
    EXPECT_SAME_BITS(a.meanPerformance(), b.meanPerformance());
    EXPECT_SAME_BITS(a.worstPerformance(), b.worstPerformance());
    expectSameHistogram(a.ratioHistogram(), b.ratioHistogram());
}

/** The placed VMs in id order: DatacenterSim's placed list. */
std::vector<VmId>
placedIds(const Cluster &cluster)
{
    std::vector<VmId> ids;
    for (const auto &vm : cluster.vms())
        if (vm->placed())
            ids.push_back(vm->id());
    return ids;
}

/**
 * The sampling kernel before the per-host histogram: per placed VM one
 * Histogram::add of its latency factor, one Welford Summary::add when its
 * demand is > 0 and one SlaTracker::record, the latter two into
 * per-shard partials folded in shard index order (DatacenterSim's
 * schedule, so the SLA tracker must come out bit-identical).
 */
class PerVmKernel
{
  public:
    explicit PerVmKernel(double threshold)
        : threshold_(threshold), sla_(threshold)
    {
    }

    void
    sample(const FleetStore &fleet, const std::vector<VmId> &ids)
    {
        const std::size_t n = ids.size();
        const std::size_t shards =
            sim::ThreadPool::shardCount(n, kVmShardGrain);
        if (shards <= 1) {
            record(fleet, ids, 0, n, sla_, weighted_);
            return;
        }
        while (partials_.size() < shards)
            partials_.emplace_back(threshold_);
        for (std::size_t s = 0; s < shards; ++s) {
            const auto [begin, end] = sim::ThreadPool::shardRange(n, shards, s);
            record(fleet, ids, begin, end, partials_[s].sla,
                   partials_[s].weighted);
        }
    }

    /** collectShardSamples(), for the reference trackers. */
    void
    fold()
    {
        for (Partial &p : partials_) {
            sla_.merge(p.sla);
            p.sla.reset();
            weighted_.merge(p.weighted);
            p.weighted.reset();
        }
    }

    const stats::Histogram &hist() const { return hist_; }
    const stats::SlaTracker &sla() const { return sla_; }
    const stats::Summary &weighted() const { return weighted_; }

  private:
    struct Partial
    {
        explicit Partial(double threshold) : sla(threshold) {}
        stats::SlaTracker sla;
        stats::Summary weighted;
    };

    void
    record(const FleetStore &fleet, const std::vector<VmId> &ids,
           std::size_t begin, std::size_t end, stats::SlaTracker &sla,
           stats::Summary &weighted)
    {
        for (std::size_t k = begin; k < end; ++k) {
            const VmId v = ids[k];
            const double demand = fleet.vmDemandMhz(v);
            sla.record(demand, fleet.vmGrantedMhz(v));
            const HostId h = fleet.vmHost(v);
            const double factor =
                h >= 0 && static_cast<std::size_t>(h) < fleet.hostCount()
                    ? fleet.latencyFactor(h)
                    : kStarvedLatencyFactor;
            hist_.add(factor);
            if (demand > 0.0)
                weighted.add(factor);
        }
    }

    double threshold_;
    stats::SlaTracker sla_;
    stats::Summary weighted_;
    stats::Histogram hist_{1.0, 21.0, 800};
    std::vector<Partial> partials_;
};

/**
 * Run a full refresh of @p ids at @p now_us on @p fleet and report the
 * first demand, validity or flag byte it changed ("" for none). After a
 * correct evaluate() at the same instant it changes nothing: every VM
 * due was re-sampled, and a point-span re-sample reproduces its value.
 */
std::string
fullRefreshChanges(FleetStore &fleet, const std::vector<VmId> &ids,
                   std::int64_t now_us)
{
    std::vector<double> demand;
    std::vector<std::int64_t> until;
    for (VmId v = 0; static_cast<std::size_t>(v) < fleet.vmCount(); ++v) {
        demand.push_back(fleet.vmDemandMhz(v));
        until.push_back(fleet.vmValidUntilUs(v));
    }
    std::vector<std::uint8_t> flags;
    for (HostId h = 0; static_cast<std::size_t>(h) < fleet.hostCount(); ++h)
        flags.push_back(fleet.hostFlags(h));

    fleet.refreshPlacedDemand(ids.data(), ids.size(), now_us);

    for (VmId v = 0; static_cast<std::size_t>(v) < fleet.vmCount(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        if (!sameBits(demand[i], fleet.vmDemandMhz(v)))
            return "vm " + std::to_string(v) + " demand";
        if (until[i] != fleet.vmValidUntilUs(v))
            return "vm " + std::to_string(v) + " validUntil";
    }
    for (HostId h = 0; static_cast<std::size_t>(h) < fleet.hostCount(); ++h)
        if (flags[static_cast<std::size_t>(h)] != fleet.hostFlags(h))
            return "host " + std::to_string(h) + " flags";
    return {};
}

/** Refresh ranges whose every VM stays valid past @p next_us, i.e. the
 *  ranges the next tick may skip. */
std::size_t
skippableRanges(const FleetStore &fleet, const std::vector<VmId> &ids,
                std::int64_t next_us)
{
    const std::size_t shards =
        sim::ThreadPool::shardCount(ids.size(), kVmRefreshShardGrain);
    std::size_t skippable = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] =
            sim::ThreadPool::shardRange(ids.size(), shards, s);
        bool due = false;
        for (std::size_t k = begin; k < end && !due; ++k) {
            const VmId v = ids[k];
            due = fleet.vmTrace(v)->pointSpan() ||
                  next_us >= fleet.vmValidUntilUs(v);
        }
        if (!due)
            ++skippable;
    }
    return skippable;
}

/** A streamed trace file whose series change every few minutes for the
 *  first few hours, then hold. */
std::shared_ptr<replay::TraceFile>
writeTraceFile(const std::string &path, std::uint32_t series)
{
    sim::Rng rng(17);
    replay::TraceFileWriter writer(path, series, 10000, 600'000'000);
    for (std::uint32_t v = 0; v < series; ++v) {
        std::int64_t ts = 0;
        for (int i = 0; i < 30; ++i) {
            writer.append(v, ts, rng.uniform(0.0, 1.0));
            ts += static_cast<std::int64_t>(rng.uniformInt(60, 1200)) *
                  1'000'000;
        }
    }
    std::string error;
    if (!writer.finish(&error))
        return nullptr;
    return replay::TraceFile::open(path, 1, &error);
}

workload::VmWorkloadSpec
makeSpec(VmId v, double cpu_mhz, double memory_mb, workload::TracePtr trace)
{
    workload::VmWorkloadSpec spec;
    spec.name = "vm" + std::to_string(v);
    spec.cpuMhz = cpu_mhz;
    spec.memoryMb = memory_mb;
    spec.trace = std::move(trace);
    return spec;
}

/** Day/night steps shared by four ramp groups, so that a refresh range
 *  of step VMs has few distinct expiries. */
workload::TracePtr
stepTrace(VmId v, double peak)
{
    const double shift = static_cast<double>(v % 4);
    return std::make_shared<workload::StepTrace>(
        std::vector<workload::StepTrace::Step>{
            {SimTime(), 0.1 + 0.01 * (v % 7)},
            {SimTime::hours(1.0 + shift), peak},
            {SimTime::hours(5.0 + shift), 0.2}});
}

workload::TracePtr
diurnalTrace(VmId v)
{
    workload::DiurnalConfig diurnal;
    diurnal.seed = static_cast<std::uint64_t>(v) + 1;
    diurnal.period = SimTime::hours(6.0);
    return std::make_shared<workload::DiurnalTrace>(diurnal);
}

enum class Fleet
{
    /** 3 hosts, 40 VMs of step and constant demand: one sampling
     *  shard, one refresh range. */
    Small,
    /** 64 hosts, 9000 VMs plus arrivals: many sampling shards, three
     *  refresh ranges, migrations, retirements and sleeping hosts. */
    Large,
};

/** What one run leaves, compared across pool sizes. */
struct Outcome
{
    std::vector<std::uint64_t> latencyBuckets;
    std::uint64_t latencyCount = 0;
    double meanLatency = 0.0;
    double p95Latency = 0.0;
    double totalRequested = 0.0;
    double totalGranted = 0.0;
    std::uint64_t violations = 0;
    double energyKwh = 0.0;
};

class EvaluationPassEquivalenceTest : public ::testing::TestWithParam<Fleet>
{
  protected:
    void TearDown() override { sim::setGlobalThreads(1); }

    Outcome run(unsigned threads);

    std::string tracePath_ =
        (std::filesystem::temp_directory_path() / "vpm_evaluation_pass.vpmtrc")
            .string();
};

Outcome
EvaluationPassEquivalenceTest::run(unsigned threads)
{
    SCOPED_TRACE("threads " + std::to_string(threads));
    sim::setGlobalThreads(threads);
    const bool large = GetParam() == Fleet::Large;

    sim::Simulator simulator;
    Cluster cluster(simulator);
    const power::HostPowerSpec power_spec = power::enterpriseBlade2013();
    const int hosts = large ? 64 : 3;
    for (int h = 0; h < hosts; ++h)
        cluster.addHost(HostConfig{}, power_spec);

    constexpr std::uint32_t kSeries = 16;
    std::shared_ptr<replay::TraceFile> file;
    if (large) {
        file = writeTraceFile(tracePath_, kSeries);
        EXPECT_NE(file, nullptr);
        if (!file)
            return {};
    }

    // Large: ids [0, 3100) step and constant traces, which keep the first
    // refresh range (about 3000 VMs) to a few expiries; [3100, 6000)
    // streamed TraceFile views (bare and scaled) and table-fed series
    // traces among steps; [6000, 9000) diurnal point spans among steps.
    // One host per fleet carries big VMs and is overloaded at peak.
    // Large hosts 56-63 start empty, and 60-63 go to sleep.
    const int vms = large ? 9000 : 40;
    const int loaded = large ? 56 : hosts;
    const int big_host = large ? 3 : 0;
    for (VmId v = 0; v < vms; ++v) {
        workload::TracePtr trace;
        const int group = !large ? v % 3 : v < 3100 ? 0 : v < 6000 ? 1 : 2;
        if (group == 1 && large && v % 6 == 3) {
            trace = file->seriesTrace(static_cast<std::uint32_t>(v) % kSeries);
        } else if (group == 1 && large && v % 3 != 0) {
            trace = file->vmTrace(static_cast<std::uint32_t>(v) % kSeries);
            if (v % 3 == 2)
                trace = std::make_shared<workload::ScaledTrace>(trace, 0.8);
        } else if (group == 2 && large && v % 2 == 0) {
            trace = diurnalTrace(v);
        } else if (v % 5 == 0) {
            trace = std::make_shared<workload::ConstantTrace>(0.3);
        } else {
            trace = stepTrace(v, v % loaded == big_host ? 0.95 : 0.5);
        }
        const bool big = v % loaded == big_host && v < loaded * 20;
        const bool migrated = large && v % loaded == 7 && v < loaded * 6;
        const Vm &vm = cluster.addVm(makeSpec(
            v, big ? 4000.0 : 300.0, migrated ? 8192.0 : 256.0, trace));
        cluster.placeVm(vm.id(), static_cast<HostId>(v % loaded));
    }
    // Corrupt placement records, as in the StaleHostId/NegativeHostId
    // cases: the VMs stay placed and on their host's list.
    cluster.vm(1).setHost(static_cast<HostId>(999));
    cluster.vm(2).setHost(static_cast<HostId>(-7));

    MigrationEngine migration(simulator, cluster);
    DatacenterConfig config;
    config.evaluationInterval = kInterval;
    DatacenterSim dcsim(simulator, cluster, migration, config);
    if (file) {
        dcsim.setDemandFeed([&file](SimTime now, std::string *error) {
            return file->feedTo(now, error);
        });
    }

    std::unique_ptr<ProvisioningEngine> provisioning;
    if (large) {
        ProvisioningConfig prov;
        prov.arrivalsPerHour = 60.0;
        prov.meanLifetime = SimTime::hours(1.0);
        prov.seed = 7;
        provisioning =
            std::make_unique<ProvisioningEngine>(simulator, cluster, prov);
        // Arrivals move the placement epoch, which drops the expiry cache
        // too; starting them after the setCurrentDemandMhz below leaves
        // the span generation as the only invalidator there.
        simulator.schedule(SimTime::hours(2.0),
                           [&] { provisioning->start(); });

        for (HostId h = 60; h < 64; ++h)
            EXPECT_TRUE(cluster.requestHostSleep(h, "S3"));
        // 8 GB VMs requested just before a tick, so that some are still
        // in flight at it.
        simulator.schedule(SimTime::minutes(34.9), [&] {
            for (VmId v = 7; v < loaded * 6; v += loaded)
                migration.request(v, 57);
        });
        simulator.schedule(SimTime::minutes(52.0), [&] {
            for (VmId v = 10; v < loaded * 4; v += loaded)
                cluster.retireVm(v);
        });
    }
    // Between ticks, while the first refresh range is being skipped: the
    // VM's cached span is dropped and the next tick must re-sample it.
    const SimTime poke = large ? SimTime::minutes(92.5) : SimTime::minutes(7.5);
    simulator.schedule(poke, [&] {
        cluster.vm(large ? 17 : 4).setCurrentDemandMhz(123.0);
    });

    PerVmKernel reference(config.slaThreshold);
    std::size_t skippable = 0;
    int ticks = 0;
    dcsim.addEvaluationHook([&] {
        ++ticks;
        const std::int64_t now_us = simulator.now().micros();
        FleetStore &fleet = cluster.fleet();
        const std::vector<VmId> ids = placedIds(cluster);
        reference.sample(fleet, ids);
        SCOPED_TRACE("t " + std::to_string(now_us) + " us");
        expectSameHistogram(dcsim.latencyHistogram(), reference.hist());
        EXPECT_EQ(fleet.auditHostVmCounts(), "");
        EXPECT_EQ(dcsim.auditRefreshExpiry(), "");
        EXPECT_EQ(fullRefreshChanges(fleet, ids, now_us), "");
        skippable += skippableRanges(fleet, ids,
                                     now_us + kInterval.micros());
    });

    const RunMetrics metrics = dcsim.runFor(SimTime::hours(large ? 10.0 : 6.0));
    reference.fold();
    EXPECT_EQ(dcsim.feedError(), "");

    expectSameHistogram(dcsim.latencyHistogram(), reference.hist());
    expectSameSla(dcsim.sla(), reference.sla());
    EXPECT_SAME_BITS(metrics.p95LatencyFactor,
                     reference.hist().percentile(0.95));
    const double welford = reference.weighted().mean();
    EXPECT_LE(std::fabs(metrics.meanLatencyFactor - welford),
              1e-12 * welford)
        << metrics.meanLatencyFactor << " vs " << welford;

    // The run reached what it is meant to cover.
    EXPECT_GT(ticks, 20);
    EXPECT_GT(reference.sla().violations(), 0u);
    EXPECT_GT(metrics.p95LatencyFactor, 1.0);
    EXPECT_GT(skippable, 0u);
    if (large) {
        EXPECT_GT(provisioning->arrivals(), 0u);
        EXPECT_GT(provisioning->departures(), 0u);
        EXPECT_GT(migration.completedCount(), 0u);
        EXPECT_GT(sim::ThreadPool::shardCount(placedIds(cluster).size(),
                                              kVmRefreshShardGrain),
                  1u);
    }

    Outcome out;
    out.latencyBuckets = dcsim.latencyHistogram().buckets();
    out.latencyCount = dcsim.latencyHistogram().count();
    out.meanLatency = metrics.meanLatencyFactor;
    out.p95Latency = metrics.p95LatencyFactor;
    out.totalRequested = dcsim.sla().totalRequestedMhz();
    out.totalGranted = dcsim.sla().totalGrantedMhz();
    out.violations = dcsim.sla().violations();
    out.energyKwh = metrics.energyKwh;
    return out;
}

TEST_P(EvaluationPassEquivalenceTest, MatchesPerVmKernelAtAnyPoolSize)
{
    const Outcome base = run(1);
    for (const unsigned threads : {2u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const Outcome other = run(threads);
        EXPECT_EQ(other.latencyBuckets, base.latencyBuckets);
        EXPECT_EQ(other.latencyCount, base.latencyCount);
        EXPECT_SAME_BITS(other.meanLatency, base.meanLatency);
        EXPECT_SAME_BITS(other.p95Latency, base.p95Latency);
        EXPECT_SAME_BITS(other.totalRequested, base.totalRequested);
        EXPECT_SAME_BITS(other.totalGranted, base.totalGranted);
        EXPECT_EQ(other.violations, base.violations);
        EXPECT_SAME_BITS(other.energyKwh, base.energyKwh);
    }
    std::filesystem::remove(tracePath_);
}

std::string
fleetName(const ::testing::TestParamInfo<Fleet> &param)
{
    return param.param == Fleet::Small ? "Small" : "Large";
}

INSTANTIATE_TEST_SUITE_P(Fleets, EvaluationPassEquivalenceTest,
                         ::testing::Values(Fleet::Small, Fleet::Large),
                         fleetName);

} // namespace
} // namespace vpm::dc
