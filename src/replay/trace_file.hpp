/**
 * @file
 * vpm-trace-2: the time-major demand-trace format.
 *
 * Production replay needs per-VM demand series far larger than RAM: a
 * million VM-days at 15-minute samples is ~100M breakpoints. Recorded
 * traces arrive time-ordered, and a replay consumes them the same way,
 * so the file is time-major: one block per block_us of simulated time
 * holds every breakpoint that starts inside it. A replay streams the
 * blocks once, front to back, as its clock advances (feedTo) and keeps
 * one dense span table of 16 bytes per series; every replayed VM reads
 * its span from that table. Resident trace memory is therefore one block
 * plus the table, whatever the file's size. Per-series views (vmTrace)
 * walk the same blocks through a cache of group slices bounded by the
 * window budget.
 *
 * Layout (all integers host-endian; the file is a single-machine
 * experiment artifact like vpm-ckpt-1, not an interchange format):
 *
 *     header (56 bytes)
 *       char[8]  magic          "vpmtrc2\n"
 *       u32      version        2
 *       u32      series_count
 *       u32      quantum        levels are integers in [0, quantum];
 *                               utilization = level / quantum
 *       u32      group_series   series per block-directory group
 *       i64      block_us       block b covers [b, b + 1) x block_us
 *       i64      unit_us        every stored time is a multiple of it
 *       u64      total_samples  breakpoints stored (after merging)
 *       u32      block_count
 *       u32      reserved       0
 *     block table: (block_count + 1) x u64 file offsets; block b is
 *       [offset[b], offset[b + 1]) and offset[block_count] is the size
 *       of the file
 *     blocks, in time order, each
 *       directory: ceil(series_count / group_series) x u32, the end of
 *                  each group's slice within the payload
 *       payload:   the group slices; a slice lists the records of the
 *                  group's series in (series, start) order:
 *         varint series   delta from the group's first series, then
 *                         from the previous record's series
 *         varint start    (start - block start) / unit_us
 *         varint level
 *         varint end      0: the level holds forever;
 *                         else (end - start) / unit_us
 *
 * A record is one span: its level holds over [start, end), where end is
 * the series' next breakpoint. Each series' first record sits in block 0
 * with start 0 and stands for the backward-extended first span. Span
 * semantics therefore match StepTrace: level i holds over
 * [ts[i], ts[i+1]), the first level also applies before its timestamp,
 * and the last level holds forever. Both read paths are exact over those
 * windows, so the evaluation loop's skip-if-valid fast path stays
 * bit-identical to a fully materialized StepTrace.
 *
 * Every read of file bytes is validated; a truncated or corrupt file
 * yields an error (from open, feedTo or error()), never an abort.
 */

#ifndef VPM_REPLAY_TRACE_FILE_HPP
#define VPM_REPLAY_TRACE_FILE_HPP

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "workload/demand_trace.hpp"

namespace vpm::replay {

/** Parsed header facts of an open trace file. */
struct TraceFileInfo
{
    std::uint32_t vmCount = 0; ///< series in the file
    std::uint32_t quantum = 0;
    std::uint32_t groupSeries = 0;
    std::uint32_t blockCount = 0;
    std::int64_t blockUs = 0;
    std::int64_t unitUs = 0;
    std::uint64_t totalSamples = 0;
};

/**
 * Streaming writer. Feed breakpoints VM-major (vm ids nondecreasing,
 * timestamps >= 0 and strictly increasing within a VM). Records are
 * bucketed by block, and full buckets spill to a temporary file next to
 * the output (removed by finish()), so writer memory is one small buffer
 * per block plus one block while finish() assembles the file. Equal
 * consecutive levels are merged (the earlier breakpoint's span simply
 * extends), which is what makes plateau-heavy traces compress well.
 */
class TraceFileWriter
{
  public:
    /** 15 minutes: one block per sample of the usual trace cadence. */
    static constexpr std::int64_t kDefaultBlockUs = 900'000'000;
    /** Blocks a file may hold; bounds the writer's bucket vector. */
    static constexpr std::int64_t kMaxBlocks = 1 << 20;
    /** Longest block (~51 days): the reader needs every stored time
     *  below INT64_MAX / 2. */
    static constexpr std::int64_t kMaxBlockUs =
        std::numeric_limits<std::int64_t>::max() / 2 / kMaxBlocks;

    /**
     * @param quantum Utilization quantization denominator (>= 1); levels
     *        are round(util * quantum), so 10000 keeps 4 significant
     *        digits.
     * @param block_us Simulated time per block, in [1, kMaxBlockUs].
     */
    TraceFileWriter(const std::string &path, std::uint32_t vm_count,
                    std::uint32_t quantum = 10000,
                    std::int64_t block_us = kDefaultBlockUs);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** True when the output stream opened successfully. */
    bool ok() const { return out_.good(); }

    /**
     * Append one breakpoint: @p vm holds @p utilization (clamped to
     * [0, 1], quantized) from @p ts_us until its next breakpoint.
     * Fatal on ordering violations — those are producer bugs.
     */
    void append(std::uint32_t vm, std::int64_t ts_us, double utilization);

    /**
     * Write the blocks and remove the spill file. @return false with
     * @p error set on I/O failure. The writer is unusable afterwards.
     */
    bool finish(std::string *error);

    std::uint64_t totalSamples() const { return totalSamples_; }

  private:
    /** One block's records in arrival order: spilled segments first,
     *  then the in-memory tail. */
    struct Bucket
    {
        std::vector<std::uint8_t> tail;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> segments;
        std::uint32_t lastSeries = 0;
    };

    /** Bucket one span of @p series. */
    void emit(std::uint32_t series, std::int64_t start, std::uint32_t level,
              std::int64_t end);
    /** Close the open span of currentVm_ (it holds forever). */
    void closeCurrentVm();
    /** Give series [nextSeries_, upto) their empty span (level 0). */
    void emitEmptyUpTo(std::uint32_t upto);
    bool spillBucket(Bucket &bucket);
    bool writeBlock(const Bucket &bucket, std::uint32_t block,
                    std::string *error);
    bool writeAll(std::string *error);

    std::ofstream out_;
    std::string spillPath_;
    std::fstream spill_;
    std::uint64_t spillBytes_ = 0;
    bool spillOk_ = true;
    std::vector<Bucket> buckets_;

    std::uint32_t vmCount_;
    std::uint32_t quantum_;
    std::int64_t blockUs_;
    /** gcd of block_us and every stored offset and length. */
    std::int64_t unitUs_;
    std::int64_t lastLen_ = 0;
    std::uint64_t totalSamples_ = 0;

    std::int64_t currentVm_ = -1;
    /** Series below this one have all their records bucketed. */
    std::uint32_t nextSeries_ = 0;
    std::int64_t openStart_ = 0;
    std::int64_t lastTs_ = 0;
    std::uint32_t openLevel_ = 0;
    bool finished_ = false;
};

namespace detail {
class TraceFileImpl;
}

/**
 * An open vpm-trace-2 file: the sequential block feed with its span
 * table, and per-series views over a bounded slice cache.
 *
 * Two ways to read a series:
 *  - seriesTrace(s): the trace whose spanSlot() is the table entry the
 *    feed keeps. Replay sessions give every VM on series s this one
 *    object; the owning DatacenterSim calls feedTo(now) before each
 *    evaluation (DatacenterSim::setDemandFeed), and the demand refresh
 *    reads the slot with no virtual call. Its spanAt() is exact at any
 *    time: off the fed span it walks the file like a view.
 *  - vmTrace(s): a view with its own forward cursor over group slices
 *    cached within the window (a backward seek restarts at block 0). A
 *    view is owned by one shard (the owner-shard rule); the cache is
 *    shared and locked.
 */
class TraceFile
{
  public:
    /**
     * Open and validate @p path. @return nullptr with @p error set on a
     * missing file, a bad magic or version (a vpm-trace-1 file is named
     * as such), or a header or block table that does not fit the file.
     * @param window_bytes Budget of the slice cache the views share.
     */
    static std::shared_ptr<TraceFile> open(const std::string &path,
                                           std::size_t window_bytes,
                                           std::string *error);

    ~TraceFile();

    const TraceFileInfo &info() const;

    /**
     * A cursor view of series @p vm (fatal if out of range). The view
     * keeps the file alive via shared ownership. A corrupt slice makes
     * spanAt() return {0, forever} and sets error().
     */
    workload::TracePtr vmTrace(std::uint32_t vm) const;

    /** The table-fed trace of series @p series (fatal if out of range);
     *  one shared object per series, alive as long as the file. */
    workload::TracePtr seriesTrace(std::uint32_t series) const;

    /**
     * Decode the blocks up to @p now into the span table, so every
     * seriesTrace()'s slot holds its span at @p now. Main thread only,
     * never concurrently with a read of the slots. @return false with
     * @p error set on a corrupt block or a backward @p now; the feed
     * stays failed after that.
     */
    bool feedTo(sim::SimTime now, std::string *error);

    /** Blocks (feed) and slices (views) read from disk so far
     *  (diagnostics; never part of deterministic outputs — view loads
     *  depend on cache evictions across concurrently walked series). */
    std::uint64_t chunkLoads() const;

    /** The first error a view or off-span walk met ("" if none). */
    std::string error() const;

  private:
    explicit TraceFile(std::shared_ptr<detail::TraceFileImpl> impl);

    std::shared_ptr<detail::TraceFileImpl> impl_;
};

} // namespace vpm::replay

#endif // VPM_REPLAY_TRACE_FILE_HPP
