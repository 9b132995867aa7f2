/**
 * @file The batched VM sampling kernel (sampleVmRange) against the
 * per-sample SlaTracker::record calls and plain latency-factor sum it
 * stands for: every accumulator must come out bit-identical.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "datacenter/sample_pass.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"

namespace vpm::dc {
namespace {

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
expectSameLatency(const LatencySum &a, const LatencySum &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_SAME_BITS(a.sum, b.sum);
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

/** One shard's accumulators, laid out as DatacenterSim's. */
struct Accumulators
{
    explicit Accumulators(double threshold) : sla(threshold) {}

    void
    merge(const Accumulators &shard)
    {
        sla.merge(shard.sla);
        latency.merge(shard.latency);
    }

    stats::SlaTracker sla;
    LatencySum latency;
    telemetry::JournalStage stage;
};

/** The sampling pass as one record() call and one `+=` per sample. */
void
referenceSample(const FleetStore &fleet, const VmId *ids, std::size_t n,
                std::int64_t now_us, Accumulators &acc)
{
    for (std::size_t k = 0; k < n; ++k) {
        const VmId v = ids[k];
        const double demand = fleet.vmDemandMhz(v);
        const double granted = fleet.vmGrantedMhz(v);
        acc.sla.record(demand, granted);
        if (demand > 0.0) {
            const double sat = granted / demand;
            if (sat < acc.sla.threshold())
                acc.stage.slaViolation(now_us, v, sat, demand);
        }
        const HostId h = fleet.vmHost(v);
        const double factor =
            h >= 0 && static_cast<std::size_t>(h) < fleet.hostCount()
                ? fleet.latencyFactor(h)
                : kStarvedLatencyFactor;
        if (demand > 0.0) {
            acc.latency.sum += factor;
            ++acc.latency.count;
        }
    }
}

/** Fresh (demand, granted) for VM @p v: zero demand, full grant, a grant
 *  just under or far under the demand, or nothing granted. */
void
drawSample(sim::Rng &rng, FleetStore &fleet, VmId v)
{
    const double demand = rng.bernoulli(0.3)
                              ? static_cast<double>(rng.uniformInt(1, 4000))
                              : rng.uniform(0.5, 4000.0);
    double granted = demand;
    switch (rng.uniformInt(0, 5)) {
      case 0:
        fleet.setVmDemandMhz(v, 0.0);
        fleet.setVmGrantedMhz(v, 0.0);
        return;
      case 1:
        granted = demand * rng.uniform(0.98, 1.0);
        break;
      case 2:
        granted = demand * rng.uniform(0.0, 0.9);
        break;
      case 3:
        granted = 0.0;
        break;
      default:
        break;
    }
    fleet.setVmDemandMhz(v, demand);
    fleet.setVmGrantedMhz(v, granted);
}

/** A latency factor below lo, at lo, inside, at hi, above hi, or the
 *  starved ceiling. */
double
drawFactor(sim::Rng &rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return rng.uniform(0.1, 0.99);
      case 1:
        return 1.0;
      case 2:
        return 21.0;
      case 3:
        return rng.uniform(21.0, 40.0);
      case 4:
        return kStarvedLatencyFactor;
      default:
        return rng.uniform(1.0, 21.0);
    }
}

class SamplePassEquivalenceTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SamplePassEquivalenceTest, BatchedKernelMatchesPerSampleCalls)
{
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 11);
    // 1.0 included: a ratio of exactly 1 is never a violation.
    const double thresholds[] = {0.99, 0.95, 1.0};
    const double threshold = thresholds[GetParam() % 3];

    // Hosts with factors on and around the histogram's edges; VMs on
    // valid hosts, on host -1 and on ids at or past the host count.
    FleetStore fleet;
    const int host_count = static_cast<int>(rng.uniformInt(3, 40));
    for (HostId h = 0; h < host_count; ++h)
        fleet.registerHost(h, 32000.0);
    const int vm_count = static_cast<int>(rng.uniformInt(50, 2000));
    std::vector<VmId> placed;
    for (VmId v = 0; v < vm_count; ++v) {
        fleet.registerVm(v, 4000.0, 1024.0, nullptr);
        HostId h = static_cast<HostId>(rng.uniformInt(0, host_count - 1));
        if (rng.bernoulli(0.05))
            h = -1;
        else if (rng.bernoulli(0.05))
            h = host_count + static_cast<HostId>(rng.uniformInt(0, 3));
        fleet.setVmHost(v, h);
        if (rng.bernoulli(0.9))
            placed.push_back(v);
    }

    // Several ticks into per-shard accumulators that persist across ticks,
    // staged journal records flushed in shard order every tick, and the
    // shards folded in index order at the end: DatacenterSim's schedule.
    const auto shards = static_cast<std::size_t>(rng.uniformInt(1, 9));
    std::vector<Accumulators> batched(shards, Accumulators(threshold));
    std::vector<Accumulators> reference(shards, Accumulators(threshold));
    telemetry::EventJournal batched_journal;
    telemetry::EventJournal reference_journal;
    batched_journal.configure(1u << 16, true);
    reference_journal.configure(1u << 16, true);
    for (int tick = 0; tick < 3; ++tick) {
        for (HostId h = 0; h < host_count; ++h)
            fleet.setLatencyFactor(h, drawFactor(rng));
        for (VmId v = 0; v < vm_count; ++v)
            drawSample(rng, fleet, v);
        const std::int64_t now_us = 60'000'000ll * tick;
        for (std::size_t s = 0; s < shards; ++s) {
            const auto [begin, end] =
                sim::ThreadPool::shardRange(placed.size(), shards, s);
            Accumulators &acc = batched[s];
            sampleVmRange(fleet, placed.data() + begin, end - begin, now_us,
                          {acc.sla, acc.latency, &acc.stage, true, nullptr,
                           0});
            referenceSample(fleet, placed.data() + begin, end - begin,
                            now_us, reference[s]);
        }
        for (std::size_t s = 0; s < shards; ++s) {
            batched_journal.flush(batched[s].stage);
            reference_journal.flush(reference[s].stage);
        }
    }

    Accumulators batched_total(threshold);
    Accumulators reference_total(threshold);
    for (std::size_t s = 0; s < shards; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        expectSameSla(batched[s].sla, reference[s].sla);
        expectSameLatency(batched[s].latency, reference[s].latency);
        batched_total.merge(batched[s]);
        reference_total.merge(reference[s]);
    }
    expectSameSla(batched_total.sla, reference_total.sla);
    expectSameLatency(batched_total.latency, reference_total.latency);

    // The inputs reached every branch.
    const stats::SlaTracker &sla = reference_total.sla;
    EXPECT_GT(sla.violations(), 0u);
    EXPECT_LT(sla.worstPerformance(), 1.0);
    EXPECT_LT(reference_total.latency.count, sla.samples());

    const auto batched_events = batched_journal.sortedEvents();
    const auto reference_events = reference_journal.sortedEvents();
    ASSERT_EQ(batched_events.size(), reference_events.size());
    EXPECT_EQ(batched_events.size(), sla.violations());
    for (std::size_t i = 0; i < batched_events.size(); ++i) {
        const telemetry::JournalEvent &a = batched_events[i];
        const telemetry::JournalEvent &b = reference_events[i];
        EXPECT_EQ(a.seq, b.seq);
        EXPECT_EQ(a.timeUs, b.timeUs);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.track, b.track);
        EXPECT_SAME_BITS(a.a, b.a);
        EXPECT_SAME_BITS(a.b, b.b);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplePassEquivalenceTest,
                         ::testing::Range(0, 16));

} // namespace
} // namespace vpm::dc
