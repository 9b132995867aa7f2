/**
 * @file The demand-refresh kernel (FleetStore::refreshPlacedDemand)
 * against a plain per-VM spanAt loop: the demand and validity columns and
 * the host flags must come out identical for point, span, streamed-view
 * and fed span-table traces, for short and long id lists, and for any
 * shard partition. The kernel's table-fed VMs read their span slot; the
 * reference reads the same series through a cursor view. Only the
 * table-fed traces report a span slot.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "datacenter/fleet_store.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "workload/demand_trace.hpp"
#include "workload/diurnal.hpp"

namespace vpm::dc {
namespace {

constexpr int kHosts = 6;
constexpr std::uint32_t kFileVms = 16;
constexpr std::int64_t kTickUs = 300'000'000; // 5 min

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A streamed trace file whose series change every few ticks. */
std::shared_ptr<replay::TraceFile>
writeTraceFile(const std::string &path)
{
    sim::Rng rng(5);
    replay::TraceFileWriter writer(path, kFileVms, 10000, 600'000'000);
    for (std::uint32_t v = 0; v < kFileVms; ++v) {
        std::int64_t ts = 0;
        for (int i = 0; i < 30; ++i) {
            writer.append(v, ts, rng.uniform(0.0, 1.0));
            ts += static_cast<std::int64_t>(rng.uniformInt(1, 900)) *
                  1'000'000;
        }
    }
    std::string error;
    if (!writer.finish(&error))
        return nullptr;
    return replay::TraceFile::open(path, 1, &error);
}

/** VM @p v's trace, a fresh object (so a fresh cursor) on every call
 *  except the shared table-fed one, which @p reference replaces with a
 *  view of the same series. */
workload::TracePtr
makeTrace(int v, const replay::TraceFile &file, bool reference)
{
    const std::uint32_t series = static_cast<std::uint32_t>(v) % kFileVms;
    workload::DiurnalConfig diurnal;
    diurnal.seed = static_cast<std::uint64_t>(v) + 1;
    diurnal.period = sim::SimTime::hours(2.0);
    switch (v % 7) {
    case 0: return std::make_shared<workload::DiurnalTrace>(diurnal);
    case 1:
        return std::make_shared<workload::ScaledTrace>(
            std::make_shared<workload::DiurnalTrace>(diurnal), 0.7);
    case 2:
        return std::make_shared<workload::StepTrace>(
            std::vector<workload::StepTrace::Step>{
                {sim::SimTime::minutes(10.0 + v % 7), 0.2},
                {sim::SimTime::minutes(47.0), 0.6},
                {sim::SimTime::minutes(95.0 + v % 11), 0.4}});
    case 3: return std::make_shared<workload::ConstantTrace>(0.05 * (v % 9));
    case 4: return file.vmTrace(series);
    case 5:
        return reference ? file.vmTrace(series) : file.seriesTrace(series);
    default:
        return std::make_shared<workload::ScaledTrace>(file.vmTrace(series),
                                                       1.3);
    }
}

/** The kernel's contract, one VM at a time through spanAt(). */
void
referenceRefresh(FleetStore &fleet, const std::vector<VmId> &ids,
                 std::int64_t now_us)
{
    const sim::SimTime now = sim::SimTime::micros(now_us);
    for (const VmId id : ids) {
        const workload::DemandTrace &trace = *fleet.vmTrace(id);
        if (!trace.pointSpan() && now_us < fleet.vmValidUntilUs(id))
            continue;
        const workload::DemandSpan span = trace.spanAt(now);
        if (!trace.pointSpan())
            fleet.setVmValidUntilUs(id, span.validUntil.micros());
        const double demand = span.utilization * fleet.vmCpuMhz(id);
        if (demand == fleet.vmDemandMhz(id))
            continue;
        fleet.setVmDemandMhz(id, demand);
        const HostId h = fleet.vmHost(id);
        if (h >= 0 && h < kHosts)
            fleet.markHost(h, FleetStore::kDemandDirty |
                                  FleetStore::kAllocDirty);
    }
}

TEST(FleetRefreshTest, KernelMatchesPerVmSpanLoop)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "vpm_fleet_refresh.vpmtrc")
            .string();
    for (const std::size_t n : {5u, 16u, 17u, 300u}) {
        for (const std::size_t shards : {1u, 2u, 8u}) {
            SCOPED_TRACE("n " + std::to_string(n) + ", shards " +
                         std::to_string(shards));
            // A fresh file per case: its span table is fed from t = 0.
            const std::shared_ptr<replay::TraceFile> file =
                writeTraceFile(path);
            ASSERT_NE(file, nullptr);
            FleetStore kernel;
            FleetStore reference;
            std::vector<workload::TracePtr> traces; // keeps both alive
            sim::Rng rng(n * 31 + shards);
            for (HostId h = 0; h < kHosts; ++h) {
                kernel.registerHost(h, 32000.0);
                reference.registerHost(h, 32000.0);
            }
            // More VMs than placed ids, placed in shuffled order, some on
            // no host.
            const int vm_count = static_cast<int>(n) + 7;
            for (VmId v = 0; v < vm_count; ++v) {
                traces.push_back(makeTrace(v, *file, false));
                ASSERT_EQ(traces.back()->spanSlot() != nullptr, v % 7 == 5)
                    << "vm " << v;
                kernel.registerVm(v, 2000.0, 1024.0, traces.back().get());
                traces.push_back(makeTrace(v, *file, true));
                reference.registerVm(v, 2000.0, 1024.0,
                                     traces.back().get());
                const HostId h = rng.bernoulli(0.1)
                                     ? invalidHostId
                                     : static_cast<HostId>(v % kHosts);
                kernel.setVmHost(v, h);
                reference.setVmHost(v, h);
            }
            std::vector<VmId> ids;
            for (VmId v = 0; v < vm_count; ++v)
                ids.push_back(v);
            for (std::size_t i = ids.size() - 1; i > 0; --i)
                std::swap(ids[i], ids[static_cast<std::size_t>(
                                      rng.uniformInt(0, static_cast<int>(i)))]);
            ids.resize(n);

            for (int tick = 0; tick < 40; ++tick) {
                const std::int64_t now_us = kTickUs * tick;
                std::string error;
                ASSERT_TRUE(file->feedTo(sim::SimTime::micros(now_us),
                                         &error))
                    << error;
                for (std::size_t s = 0; s < shards; ++s) {
                    const auto [begin, end] =
                        sim::ThreadPool::shardRange(n, shards, s);
                    kernel.refreshPlacedDemand(ids.data() + begin,
                                               end - begin, now_us);
                }
                referenceRefresh(reference, ids, now_us);
                for (VmId v = 0; v < vm_count; ++v) {
                    ASSERT_TRUE(sameBits(kernel.vmDemandMhz(v),
                                         reference.vmDemandMhz(v)))
                        << "tick " << tick << " vm " << v;
                    ASSERT_EQ(kernel.vmValidUntilUs(v),
                              reference.vmValidUntilUs(v))
                        << "tick " << tick << " vm " << v;
                }
                for (HostId h = 0; h < kHosts; ++h) {
                    ASSERT_EQ(kernel.hostFlags(h), reference.hostFlags(h))
                        << "tick " << tick << " host " << h;
                    kernel.clearHostFlags(h, 0xFF);
                    reference.clearHostFlags(h, 0xFF);
                }
            }
        }
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace vpm::dc
