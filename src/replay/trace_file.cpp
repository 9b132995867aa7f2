#include "replay/trace_file.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "simcore/logging.hpp"

namespace vpm::replay {

namespace {

constexpr char kMagic[8] = {'v', 'p', 'm', 't', 'r', 'c', '2', '\n'};
constexpr char kMagicV1[8] = {'v', 'p', 'm', 't', 'r', 'c', '1', '\n'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderBytes = 56;
constexpr std::uint32_t kGroupSeries = 256;
constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
/** A bucket's tail spills once it holds this many bytes. */
constexpr std::size_t kSpillBytes = 64 << 10;

/** Append one record's four fields as LEB128 varints, in one insert. */
void
putRecord(std::vector<std::uint8_t> &out, std::uint64_t a, std::uint64_t b,
          std::uint64_t c, std::uint64_t d)
{
    std::uint8_t buf[40];
    std::size_t n = 0;
    for (std::uint64_t v : {a, b, c, d}) {
        while (v >= 0x80) {
            buf[n++] = static_cast<std::uint8_t>(v) | 0x80;
            v >>= 7;
        }
        buf[n++] = static_cast<std::uint8_t>(v);
    }
    out.insert(out.end(), buf, buf + n);
}

/** Decode one LEB128 varint from [p, end); false on truncation or a
 *  varint longer than 64 bits' worth of groups. */
inline bool
readVarint(const std::uint8_t *&p, const std::uint8_t *end,
           std::uint64_t &out)
{
    if (p < end && *p < 0x80) {
        out = *p++;
        return true;
    }
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (p >= end)
            return false;
        const std::uint8_t byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            out = v;
            return true;
        }
    }
    return false;
}

template <typename T>
void
putRaw(std::ostream &out, T v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
getRaw(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

// ---------------------------------------------------------------- writer

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint32_t vm_count,
                                 std::uint32_t quantum,
                                 std::int64_t block_us)
    : out_(path, std::ios::binary | std::ios::trunc),
      spillPath_(path + ".spill"), vmCount_(vm_count), quantum_(quantum),
      blockUs_(block_us), unitUs_(block_us)
{
    if (vm_count == 0)
        sim::fatal("TraceFileWriter: need at least one VM");
    if (quantum == 0)
        sim::fatal("TraceFileWriter: quantum must be >= 1");
    if (block_us < 1 || block_us > kMaxBlockUs)
        sim::fatal("TraceFileWriter: block length must be in [1, %lld] us",
                   static_cast<long long>(kMaxBlockUs));
}

TraceFileWriter::~TraceFileWriter()
{
    if (spill_.is_open()) {
        spill_.close();
        std::remove(spillPath_.c_str());
    }
}

bool
TraceFileWriter::spillBucket(Bucket &bucket)
{
    if (!spill_.is_open()) {
        spill_.open(spillPath_, std::ios::binary | std::ios::in |
                                    std::ios::out | std::ios::trunc);
        if (!spill_.is_open())
            return false;
    }
    spill_.seekp(static_cast<std::streamoff>(spillBytes_));
    spill_.write(reinterpret_cast<const char *>(bucket.tail.data()),
                 static_cast<std::streamsize>(bucket.tail.size()));
    bucket.segments.emplace_back(spillBytes_, bucket.tail.size());
    spillBytes_ += bucket.tail.size();
    bucket.tail.clear();
    return spill_.good();
}

void
TraceFileWriter::emit(std::uint32_t series, std::int64_t start,
                      std::uint32_t level, std::int64_t end)
{
    const std::int64_t block = start / blockUs_;
    if (block >= kMaxBlocks)
        sim::fatal("TraceFileWriter: a breakpoint at %lld us lies past "
                   "block %lld; raise the block length",
                   static_cast<long long>(start),
                   static_cast<long long>(kMaxBlocks));
    if (buckets_.size() <= static_cast<std::size_t>(block))
        buckets_.resize(static_cast<std::size_t>(block) + 1);
    Bucket &bucket = buckets_[static_cast<std::size_t>(block)];
    // Spill records keep raw microseconds: unit_us, the gcd of block_us
    // and every offset and length stored, is known only at the end.
    const std::int64_t offset = start - block * blockUs_;
    const std::int64_t len = end == kForever ? 0 : end - start;
    putRecord(bucket.tail, series - bucket.lastSeries,
              static_cast<std::uint64_t>(offset), level,
              static_cast<std::uint64_t>(len));
    bucket.lastSeries = series;
    if (offset != 0)
        unitUs_ = std::gcd(unitUs_, offset);
    // Sampled traces repeat one span length: skip the gcd on a repeat.
    if (len != lastLen_) {
        unitUs_ = std::gcd(unitUs_, len);
        lastLen_ = len;
    }
    if (bucket.tail.size() >= kSpillBytes && spillOk_)
        spillOk_ = spillBucket(bucket);
}

void
TraceFileWriter::closeCurrentVm()
{
    if (currentVm_ < 0)
        return;
    emit(static_cast<std::uint32_t>(currentVm_), openStart_, openLevel_,
         kForever);
    nextSeries_ = static_cast<std::uint32_t>(currentVm_) + 1;
    currentVm_ = -1;
}

void
TraceFileWriter::emitEmptyUpTo(std::uint32_t upto)
{
    // A series without breakpoints holds level 0 forever.
    for (; nextSeries_ < upto; ++nextSeries_)
        emit(nextSeries_, 0, 0, kForever);
}

void
TraceFileWriter::append(std::uint32_t vm, std::int64_t ts_us,
                        double utilization)
{
    if (finished_)
        sim::panic("TraceFileWriter::append after finish");
    if (vm >= vmCount_)
        sim::fatal("TraceFileWriter: vm %u out of range (%u)", vm,
                   vmCount_);
    if (static_cast<std::int64_t>(vm) < currentVm_)
        sim::fatal("TraceFileWriter: vm ids must be nondecreasing "
                   "(%u after %lld)", vm,
                   static_cast<long long>(currentVm_));
    if (ts_us < 0)
        sim::fatal("TraceFileWriter: timestamps must be >= 0 (vm %u, "
                   "%lld)", vm, static_cast<long long>(ts_us));

    const double clamped = std::clamp(utilization, 0.0, 1.0);
    const std::uint32_t level = static_cast<std::uint32_t>(
        std::lround(clamped * static_cast<double>(quantum_)));

    if (static_cast<std::int64_t>(vm) != currentVm_) {
        closeCurrentVm();
        emitEmptyUpTo(vm);
        currentVm_ = static_cast<std::int64_t>(vm);
        // The first span is backward-extended: it starts at 0.
        openStart_ = 0;
        openLevel_ = level;
        lastTs_ = ts_us;
        ++totalSamples_;
        return;
    }
    if (ts_us <= lastTs_)
        sim::fatal("TraceFileWriter: timestamps must be strictly "
                   "increasing within a VM (vm %u, %lld after %lld)", vm,
                   static_cast<long long>(ts_us),
                   static_cast<long long>(lastTs_));
    lastTs_ = ts_us;
    // Run-length merge: an unchanged level just extends the open span.
    if (level == openLevel_)
        return;
    emit(vm, openStart_, openLevel_, ts_us);
    openStart_ = ts_us;
    openLevel_ = level;
    ++totalSamples_;
}

bool
TraceFileWriter::writeBlock(const Bucket &bucket, std::uint32_t block,
                            std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = what;
        return false;
    };
    const std::uint64_t group_count =
        (vmCount_ + std::uint64_t{kGroupSeries} - 1) / kGroupSeries;
    std::vector<std::uint32_t> directory(group_count, 0);
    std::vector<std::uint8_t> payload;
    std::uint64_t open_group = 0;
    std::uint64_t prev_series = 0;
    std::uint32_t series = 0;

    // Re-encode the spilled records with unit_us and the group deltas.
    const auto unit = static_cast<std::uint64_t>(unitUs_);
    const auto encode = [&](const std::vector<std::uint8_t> &bytes) {
        const std::uint8_t *p = bytes.data();
        const std::uint8_t *end = p + bytes.size();
        while (p < end) {
            std::uint64_t ds = 0, off = 0, level = 0, len = 0;
            if (!readVarint(p, end, ds) || !readVarint(p, end, off) ||
                !readVarint(p, end, level) || !readVarint(p, end, len))
                return false;
            series += static_cast<std::uint32_t>(ds);
            const std::uint64_t group = series / kGroupSeries;
            while (open_group < group) {
                directory[open_group++] =
                    static_cast<std::uint32_t>(payload.size());
                prev_series = open_group * kGroupSeries;
            }
            putRecord(payload, series - prev_series, off / unit, level,
                      len / unit);
            prev_series = series;
        }
        return true;
    };
    std::vector<std::uint8_t> segment;
    for (const auto &[offset, bytes] : bucket.segments) {
        segment.resize(static_cast<std::size_t>(bytes));
        spill_.seekg(static_cast<std::streamoff>(offset));
        spill_.read(reinterpret_cast<char *>(segment.data()),
                    static_cast<std::streamsize>(bytes));
        if (!spill_.good() || !encode(segment))
            return fail("trace spill read failed ('" + spillPath_ + "')");
    }
    if (!encode(bucket.tail))
        return fail("trace spill is corrupt");
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        return fail("trace block " + std::to_string(block) +
                    " exceeds 4 GiB; shorten the block length");
    while (open_group < group_count)
        directory[open_group++] = static_cast<std::uint32_t>(payload.size());
    out_.write(reinterpret_cast<const char *>(directory.data()),
               static_cast<std::streamsize>(directory.size() *
                                            sizeof(std::uint32_t)));
    out_.write(reinterpret_cast<const char *>(payload.data()),
               static_cast<std::streamsize>(payload.size()));
    return true;
}

bool
TraceFileWriter::writeAll(std::string *error)
{
    if (!spillOk_) {
        if (error != nullptr)
            *error = "cannot write the trace spill '" + spillPath_ + "'";
        return false;
    }
    const auto block_count = static_cast<std::uint32_t>(buckets_.size());
    out_.write(kMagic, sizeof(kMagic));
    putRaw<std::uint32_t>(out_, kVersion);
    putRaw<std::uint32_t>(out_, vmCount_);
    putRaw<std::uint32_t>(out_, quantum_);
    putRaw<std::uint32_t>(out_, kGroupSeries);
    putRaw<std::int64_t>(out_, blockUs_);
    putRaw<std::int64_t>(out_, unitUs_);
    putRaw<std::uint64_t>(out_, totalSamples_);
    putRaw<std::uint32_t>(out_, block_count);
    putRaw<std::uint32_t>(out_, 0);

    // Block offsets are patched in once every block is written.
    std::vector<std::uint64_t> offsets(block_count + 1ull, 0);
    const auto table_at = static_cast<std::streamoff>(out_.tellp());
    out_.write(reinterpret_cast<const char *>(offsets.data()),
               static_cast<std::streamsize>(offsets.size() *
                                            sizeof(std::uint64_t)));
    for (std::uint32_t b = 0; b < block_count; ++b) {
        offsets[b] = static_cast<std::uint64_t>(out_.tellp());
        if (!writeBlock(buckets_[b], b, error))
            return false;
        buckets_[b] = Bucket{};
    }
    offsets[block_count] = static_cast<std::uint64_t>(out_.tellp());
    out_.seekp(table_at);
    out_.write(reinterpret_cast<const char *>(offsets.data()),
               static_cast<std::streamsize>(offsets.size() *
                                            sizeof(std::uint64_t)));
    out_.flush();
    return true;
}

bool
TraceFileWriter::finish(std::string *error)
{
    if (finished_)
        sim::panic("TraceFileWriter::finish called twice");
    finished_ = true;
    closeCurrentVm();
    emitEmptyUpTo(vmCount_);

    const bool written = writeAll(error);
    if (spill_.is_open()) {
        spill_.close();
        std::remove(spillPath_.c_str());
    }
    if (!written)
        return false;
    if (!out_.good()) {
        if (error != nullptr)
            *error = "trace write failed (disk full or unwritable path?)";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- reader

namespace detail {

namespace {

/** One span of one series, as decoded from a block. */
struct Record
{
    std::uint32_t series = 0;
    std::uint32_t level = 0;
    std::int64_t start = 0;
    std::int64_t end = kForever;
};

/** One group's records of one block, decoded and validated, with each
 *  series' first record: series base + i owns [first[i], first[i + 1]). */
struct Slice
{
    std::vector<Record> records;
    std::vector<std::uint32_t> first;
};

/** A view's position: the span of its series that it stands on. */
struct Cursor
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t level = 0;
    bool valid = false;
};

} // namespace

/**
 * The table-fed trace of one series. spanSlot() is the table entry; at
 * the fed instant and until the span ends, spanAt() reads it too, and
 * anywhere else it walks the file from block 0 (exact, just slower).
 */
class SeriesTrace final : public workload::DemandTrace
{
  public:
    SeriesTrace(TraceFileImpl *impl, std::uint32_t series)
        : impl_(impl), series_(series)
    {
    }

    double utilizationAt(sim::SimTime t) const override
    {
        return spanAt(t).utilization;
    }

    workload::DemandSpan spanAt(sim::SimTime t) const override;
    const workload::SpanSlot *spanSlot() const override;

  private:
    TraceFileImpl *impl_;
    std::uint32_t series_;
};

class TraceFileImpl
{
  public:
    TraceFileInfo info;
    std::string path;
    std::vector<std::uint64_t> blockOffsets;
    std::uint64_t groupCount = 0;
    std::uint64_t fileBytes = 0;
    std::size_t windowBytes = 0;
    /** The span of every series at fedUs_ (see feedTo). */
    std::vector<workload::SpanSlot> table;
    /** seriesTrace(s) of every series, reading table[s]. */
    std::vector<SeriesTrace> seriesTraces;

    bool openFile(std::string *error);
    /** Read [offset, offset + n) of the file; false past its end. */
    bool readAt(std::uint64_t offset, void *dst, std::size_t n);

    /** Move @p c onto @p series' span covering @p t. @return false, with
     *  error() set, on a corrupt slice. */
    bool walk(std::uint32_t series, Cursor &c, std::int64_t t);

    bool feedTo(std::int64_t now, std::string *error);

    /** The instant the table holds (kNotFed before the first feed and
     *  after a failed one). */
    std::int64_t fedUs() const { return fedUs_; }

    double utilization(std::uint32_t level) const
    {
        return static_cast<double>(level) /
               static_cast<double>(info.quantum);
    }

    std::uint64_t loads() const
    {
        return loads_.load(std::memory_order_relaxed);
    }

    std::string firstError() const
    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        return error_;
    }

    static constexpr std::int64_t kNotFed = kForever;

  private:
    /** Decode the slice [p, end) of group @p group in block @p block,
     *  calling @p emit(record, continues) per record (continues: the
     *  previous record was the same series'). @return nullptr or what is
     *  wrong with the bytes. */
    template <typename Emit>
    const char *parseSlice(std::uint32_t block, std::uint64_t group,
                           const std::uint8_t *p, const std::uint8_t *end,
                           Emit &&emit) const;

    /** Read and decode group @p group's slice of @p block into @p out.
     *  @return false, with the error recorded, on a corrupt one. */
    bool loadSlice(std::uint32_t block, std::uint64_t group, Slice &out);
    /** Set @p c to @p series' span starting at @p start in @p block,
     *  through the slice cache. */
    bool findSpan(std::uint32_t series, std::uint32_t block,
                  std::int64_t start, Cursor &c);
    void recordError(const std::string &what);

    bool decodeBlock(std::uint32_t block, std::int64_t now,
                     std::string &what);
    void applyPending(std::int64_t now);
    void apply(const Record &r)
    {
        table[r.series] = {utilization(r.level), r.end};
    }

    std::atomic<std::uint64_t> loads_{0};

    // Views: the slice cache, first-in first-out within the window.
    std::mutex cacheMutex_;
    std::unordered_map<std::uint64_t, Slice> cache_;
    std::deque<std::pair<std::uint64_t, std::size_t>> fifo_;
    std::size_t cachedBytes_ = 0;
    mutable std::mutex errorMutex_;
    std::string error_;

    // Feed state (main thread).
    std::int64_t fedUs_ = kNotFed;
    std::uint32_t nextBlock_ = 0;
    /** Set once the feed failed; it stays failed. */
    std::string feedError_;
    std::vector<std::uint8_t> blockBuf_;
    /** Records of the current block that start after fedUs_. */
    std::vector<Record> pending_;
    std::int64_t pendingMin_ = kForever;
    /** Spans ending in each block: each needs its successor there. */
    std::vector<std::uint64_t> endsIn_;


    std::ifstream stream_;
    std::mutex streamMutex_;
};

workload::DemandSpan
SeriesTrace::spanAt(sim::SimTime t) const
{
    const std::int64_t us = t.micros();
    const workload::SpanSlot &slot = impl_->table[series_];
    if (impl_->fedUs() <= us && us < slot.validUntilUs)
        return {slot.utilization, sim::SimTime::micros(slot.validUntilUs)};
    Cursor c;
    if (!impl_->walk(series_, c, us))
        return {0.0, sim::SimTime::max()};
    return {impl_->utilization(c.level), sim::SimTime::micros(c.end)};
}

const workload::SpanSlot *
SeriesTrace::spanSlot() const
{
    return &impl_->table[series_];
}

/**
 * One series as a DemandTrace with its own cursor. spanAt() answers from
 * the cursor while the query stays inside its span, else walks forward
 * (or restarts at block 0 for an earlier time). The cursor is mutable
 * under the owner-shard rule: a VM is only sampled by the shard that
 * owns it, and every VM gets its own view.
 */
class SeriesView final : public workload::DemandTrace
{
  public:
    SeriesView(std::shared_ptr<TraceFileImpl> impl, std::uint32_t series)
        : impl_(std::move(impl)), series_(series)
    {
    }

    double utilizationAt(sim::SimTime t) const override
    {
        return spanAt(t).utilization;
    }

    workload::DemandSpan spanAt(sim::SimTime t) const override
    {
        const std::int64_t us = t.micros();
        if (!(cursor_.valid && cursor_.start <= us && us < cursor_.end) &&
            !impl_->walk(series_, cursor_, us))
            return {0.0, sim::SimTime::max()};
        return {impl_->utilization(cursor_.level),
                sim::SimTime::micros(cursor_.end)};
    }

  private:
    std::shared_ptr<TraceFileImpl> impl_;
    std::uint32_t series_;
    mutable Cursor cursor_;
};

bool
TraceFileImpl::openFile(std::string *error)
{
    // Unbuffered: every read is one exact seek and read, no 8 KiB fill.
    stream_.rdbuf()->pubsetbuf(nullptr, 0);
    stream_.open(path, std::ios::binary | std::ios::ate);
    if (!stream_.good()) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
    fileBytes = static_cast<std::uint64_t>(stream_.tellg());
    return true;
}

bool
TraceFileImpl::readAt(std::uint64_t offset, void *dst, std::size_t n)
{
    if (offset > fileBytes || n > fileBytes - offset)
        return false;
    std::lock_guard<std::mutex> lock(streamMutex_);
    stream_.clear();
    stream_.seekg(static_cast<std::streamoff>(offset));
    stream_.read(static_cast<char *>(dst), static_cast<std::streamsize>(n));
    return stream_.gcount() == static_cast<std::streamsize>(n);
}

void
TraceFileImpl::recordError(const std::string &what)
{
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (error_.empty())
        error_ = "'" + path + "': vpm-trace-2 " + what;
}

template <typename Emit>
const char *
TraceFileImpl::parseSlice(std::uint32_t block, std::uint64_t group,
                          const std::uint8_t *p, const std::uint8_t *end,
                          Emit &&emit) const
{
    const std::uint64_t first = group * info.groupSeries;
    const std::uint64_t limit =
        std::min<std::uint64_t>(first + info.groupSeries, info.vmCount);
    const std::int64_t block_start =
        static_cast<std::int64_t>(block) * info.blockUs;
    // open() bounded blockCount * blockUs by INT64_MAX / 2, so a start
    // inside the file plus a span no longer than it cannot overflow.
    const std::int64_t horizon =
        static_cast<std::int64_t>(info.blockCount) * info.blockUs;
    const auto unit = static_cast<std::uint64_t>(info.unitUs);
    const std::uint64_t max_len = static_cast<std::uint64_t>(horizon) / unit;
    const std::uint64_t units_per_block =
        static_cast<std::uint64_t>(info.blockUs) / unit;
    std::uint64_t series = first;
    bool have = false;
    std::int64_t prev_end = 0;
    while (p < end) {
        std::uint64_t ds = 0, off = 0, level = 0, len = 0;
        if (!readVarint(p, end, ds) || !readVarint(p, end, off) ||
            !readVarint(p, end, level) || !readVarint(p, end, len))
            return "record truncated";
        if (ds >= limit - series)
            return "record names a series outside its group";
        const bool continues = have && ds == 0;
        series += ds;
        if (off >= units_per_block)
            return "span starts outside its block";
        Record r;
        r.series = static_cast<std::uint32_t>(series);
        r.start = block_start + static_cast<std::int64_t>(off * unit);
        if (continues && r.start != prev_end)
            return "spans of a series leave a gap or overlap";
        if (level > info.quantum)
            return "level above the quantum";
        r.level = static_cast<std::uint32_t>(level);
        if (len != 0) {
            r.end = r.start + static_cast<std::int64_t>(
                                  std::min(len, max_len) * unit);
            if (len > max_len || r.end >= horizon)
                return "span ends after the last block";
        }
        if (!emit(r, continues))
            return "span does not start where its predecessor ends";
        have = true;
        prev_end = r.end;
    }
    return nullptr;
}

bool
TraceFileImpl::loadSlice(std::uint32_t block, std::uint64_t group,
                         Slice &out)
{
    const auto fail = [&](const char *what) {
        recordError("block " + std::to_string(block) + " group " +
                    std::to_string(group) + ": " + what);
        return false;
    };
    // The directory entries before and of this group bound its slice.
    const std::uint64_t block_at = blockOffsets[block];
    const std::uint64_t block_bytes = blockOffsets[block + 1] - block_at;
    const std::uint64_t dir_bytes = groupCount * sizeof(std::uint32_t);
    std::uint32_t bounds[2] = {0, 0};
    const bool first = group == 0;
    if (!readAt(block_at + (first ? 0 : (group - 1) * 4),
                first ? &bounds[1] : &bounds[0], first ? 4 : 8))
        return fail("directory unreadable");
    if (bounds[0] > bounds[1] || bounds[1] > block_bytes - dir_bytes)
        return fail("directory out of bounds");
    std::vector<std::uint8_t> bytes(bounds[1] - bounds[0]);
    if (!readAt(block_at + dir_bytes + bounds[0], bytes.data(), bytes.size()))
        return fail("slice unreadable");
    const std::uint64_t base = group * info.groupSeries;
    const char *what = parseSlice(
        block, group, bytes.data(), bytes.data() + bytes.size(),
        [&](const Record &r, bool) {
            while (out.first.size() <= r.series - base)
                out.first.push_back(
                    static_cast<std::uint32_t>(out.records.size()));
            out.records.push_back(r);
            return true;
        });
    if (what != nullptr)
        return fail(what);
    out.first.resize(info.groupSeries + 1ull,
                     static_cast<std::uint32_t>(out.records.size()));
    loads_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
TraceFileImpl::findSpan(std::uint32_t series, std::uint32_t block,
                        std::int64_t start, Cursor &c)
{
    const std::uint64_t group = series / info.groupSeries;
    const std::uint64_t key = (std::uint64_t{block} << 32) | group;
    std::unique_lock<std::mutex> lock(cacheMutex_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        lock.unlock();
        Slice loaded;
        if (!loadSlice(block, group, loaded))
            return false;
        const std::size_t cost = loaded.records.size() * sizeof(Record) +
                                 loaded.first.size() * sizeof(std::uint32_t);
        lock.lock();
        bool inserted = false;
        std::tie(it, inserted) = cache_.emplace(key, std::move(loaded));
        if (inserted) {
            fifo_.emplace_back(key, cost);
            cachedBytes_ += cost;
            // First in, first out, never the slice just loaded.
            while (cachedBytes_ > windowBytes && fifo_.size() > 1) {
                cache_.erase(fifo_.front().first);
                cachedBytes_ -= fifo_.front().second;
                fifo_.pop_front();
            }
        }
    }
    const Slice &slice = it->second;
    const std::uint64_t i = series - group * info.groupSeries;
    const auto begin = slice.records.begin() + slice.first[i];
    const auto end = slice.records.begin() + slice.first[i + 1];
    const auto found = std::find_if(
        begin, end, [start](const Record &r) { return r.start == start; });
    if (found == end) {
        lock.unlock();
        recordError("block " + std::to_string(block) + ": series " +
                    std::to_string(series) + " has no span starting at " +
                    std::to_string(start) + " us");
        return false;
    }
    c.start = found->start;
    c.end = found->end;
    c.level = found->level;
    c.valid = true;
    return true;
}

bool
TraceFileImpl::walk(std::uint32_t series, Cursor &c, std::int64_t t)
{
    if (!c.valid || t < c.start) {
        // Restart on the first span, which block 0 stores at start 0 and
        // which also covers every earlier time.
        if (!findSpan(series, 0, 0, c))
            return (c.valid = false);
        c.start = std::numeric_limits<std::int64_t>::min();
    }
    while (t >= c.end) {
        if (!findSpan(series, static_cast<std::uint32_t>(c.end / info.blockUs),
                      c.end, c))
            return (c.valid = false);
    }
    return true;
}

void
TraceFileImpl::applyPending(std::int64_t now)
{
    if (pending_.empty() || now < pendingMin_)
        return;
    std::size_t keep = 0;
    std::int64_t next_min = kForever;
    for (const Record &r : pending_) {
        if (r.start <= now) {
            apply(r);
        } else {
            pending_[keep++] = r;
            next_min = std::min(next_min, r.start);
        }
    }
    pending_.resize(keep);
    pendingMin_ = next_min;
}

bool
TraceFileImpl::decodeBlock(std::uint32_t block, std::int64_t now,
                           std::string &what)
{
    const std::uint64_t block_at = blockOffsets[block];
    const std::uint64_t bytes = blockOffsets[block + 1] - block_at;
    blockBuf_.resize(static_cast<std::size_t>(bytes));
    if (!readAt(block_at, blockBuf_.data(), blockBuf_.size())) {
        what = "block unreadable";
        return false;
    }
    loads_.fetch_add(1, std::memory_order_relaxed);
    const std::uint8_t *dir = blockBuf_.data();
    const std::uint64_t dir_bytes = groupCount * sizeof(std::uint32_t);
    const std::uint8_t *payload = dir + dir_bytes;
    const std::uint64_t payload_bytes = bytes - dir_bytes;

    const std::int64_t block_end =
        (static_cast<std::int64_t>(block) + 1) * info.blockUs;
    std::uint64_t records = 0;
    std::uint32_t slice_begin = 0;
    for (std::uint64_t g = 0; g < groupCount; ++g) {
        const auto slice_end = getRaw<std::uint32_t>(dir + g * 4);
        if (slice_end < slice_begin || slice_end > payload_bytes) {
            what = "directory out of bounds";
            return false;
        }
        const char *bad = parseSlice(
            block, g, payload + slice_begin, payload + slice_end,
            [&](const Record &r, bool continues) {
                // A series' first span in this block succeeds the one
                // the table holds: every earlier block is applied.
                if (!continues && r.start != table[r.series].validUntilUs)
                    return false;
                ++records;
                // A span mostly ends in this block or the next: compare
                // before dividing.
                if (r.end < block_end)
                    ++endsIn_[block];
                else if (r.end < block_end + info.blockUs)
                    ++endsIn_[block + 1];
                else if (r.end != kForever)
                    ++endsIn_[static_cast<std::size_t>(r.end / info.blockUs)];
                if (r.start <= now) {
                    apply(r);
                } else {
                    pending_.push_back(r);
                    pendingMin_ = std::min(pendingMin_, r.start);
                }
                return true;
            });
        if (bad != nullptr) {
            what = "group " + std::to_string(g) + ": " + bad;
            return false;
        }
        slice_begin = slice_end;
    }
    if (slice_begin != payload_bytes) {
        what = "trailing bytes after the last group";
        return false;
    }
    // Every span that ends in this block has its successor here, and
    // each record succeeds exactly one span, so the counts agree.
    if (records != endsIn_[block]) {
        what = "holds " + std::to_string(records) + " spans, but " +
               std::to_string(endsIn_[block]) + " end in it";
        return false;
    }
    return true;
}

bool
TraceFileImpl::feedTo(std::int64_t now, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        fedUs_ = kNotFed;
        feedError_ = "'" + path + "': vpm-trace-2 " + what;
        if (error != nullptr)
            *error = feedError_;
        return false;
    };
    if (!feedError_.empty()) {
        if (error != nullptr)
            *error = feedError_;
        return false;
    }
    if (now < 0)
        return fail("feed time must be >= 0");
    if (fedUs_ != kNotFed && now < fedUs_)
        return fail("feed cannot move back in time (" +
                    std::to_string(now) + " us after " +
                    std::to_string(fedUs_) + " us)");
    if (endsIn_.empty()) {
        // Every series opens with its first span in block 0.
        endsIn_.assign(info.blockCount, 0);
        endsIn_[0] = info.vmCount;
    }
    const std::int64_t target = std::clamp<std::int64_t>(
        now / info.blockUs, 0, static_cast<std::int64_t>(info.blockCount) - 1);
    while (static_cast<std::int64_t>(nextBlock_) <= target) {
        // The previous block's spans all start before this block.
        applyPending(kForever);
        std::string what;
        if (!decodeBlock(nextBlock_, now, what))
            return fail("block " + std::to_string(nextBlock_) + ": " + what);
        ++nextBlock_;
    }
    applyPending(now);
    fedUs_ = now;
    return true;
}

} // namespace detail

TraceFile::TraceFile(std::shared_ptr<detail::TraceFileImpl> impl)
    : impl_(std::move(impl))
{
}

TraceFile::~TraceFile() = default;

std::shared_ptr<TraceFile>
TraceFile::open(const std::string &path, std::size_t window_bytes,
                std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "'" + path + "': " + what;
        return nullptr;
    };
    auto impl = std::make_shared<detail::TraceFileImpl>();
    impl->path = path;
    impl->windowBytes = window_bytes;
    if (!impl->openFile(error))
        return nullptr;

    std::uint8_t header[kHeaderBytes] = {};
    if (impl->fileBytes >= sizeof(kMagicV1) &&
        impl->readAt(0, header, sizeof(kMagicV1)) &&
        std::memcmp(header, kMagicV1, sizeof(kMagicV1)) == 0)
        return fail("a vpm-trace-1 file; this build reads vpm-trace-2 only "
                    "(regenerate it with `replay gen-trace`)");
    if (!impl->readAt(0, header, sizeof(header)))
        return fail("too short for a vpm-trace-2 header");
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        return fail("not a vpm-trace-2 file (bad magic)");
    const auto version = getRaw<std::uint32_t>(header + 8);
    if (version != kVersion)
        return fail("unsupported vpm-trace-2 version " +
                    std::to_string(version));
    TraceFileInfo &info = impl->info;
    info.vmCount = getRaw<std::uint32_t>(header + 12);
    info.quantum = getRaw<std::uint32_t>(header + 16);
    info.groupSeries = getRaw<std::uint32_t>(header + 20);
    info.blockUs = getRaw<std::int64_t>(header + 24);
    info.unitUs = getRaw<std::int64_t>(header + 32);
    info.totalSamples = getRaw<std::uint64_t>(header + 40);
    info.blockCount = getRaw<std::uint32_t>(header + 48);
    if (info.vmCount == 0 || info.quantum == 0 || info.groupSeries == 0 ||
        info.blockUs < 1 || info.unitUs < 1 ||
        info.blockUs % info.unitUs != 0 || info.blockCount == 0 ||
        info.blockCount >
            std::numeric_limits<std::int64_t>::max() / 2 / info.blockUs)
        return fail("corrupt vpm-trace-2 header");

    // The block table must lie inside the file before anything is sized
    // from block_count or series_count.
    const std::uint64_t table_bytes =
        (std::uint64_t{info.blockCount} + 1) * sizeof(std::uint64_t);
    if (impl->fileBytes - kHeaderBytes < table_bytes)
        return fail("vpm-trace-2 block table extends past the end of the "
                    "file");
    impl->blockOffsets.resize(info.blockCount + 1ull);
    if (!impl->readAt(kHeaderBytes, impl->blockOffsets.data(), table_bytes))
        return fail("truncated vpm-trace-2 block table");
    impl->groupCount =
        (std::uint64_t{info.vmCount} + info.groupSeries - 1) / info.groupSeries;
    const std::uint64_t dir_bytes = impl->groupCount * sizeof(std::uint32_t);
    const std::vector<std::uint64_t> &offsets = impl->blockOffsets;
    if (offsets.front() != kHeaderBytes + table_bytes ||
        offsets.back() != impl->fileBytes)
        return fail("vpm-trace-2 blocks do not span the file (truncated?)");
    for (std::uint32_t b = 0; b < info.blockCount; ++b) {
        if (offsets[b + 1] < offsets[b] ||
            offsets[b + 1] - offsets[b] < dir_bytes)
            return fail("vpm-trace-2 block " + std::to_string(b) +
                        " out of bounds");
    }
    // Block 0 holds every series' first span, at least 4 bytes each.
    if ((offsets[1] - offsets[0] - dir_bytes) / 4 < info.vmCount)
        return fail("vpm-trace-2 block 0 is too small for " +
                    std::to_string(info.vmCount) + " series");

    impl->table.assign(info.vmCount, workload::SpanSlot{});
    impl->seriesTraces.reserve(info.vmCount);
    for (std::uint32_t s = 0; s < info.vmCount; ++s)
        impl->seriesTraces.emplace_back(impl.get(), s);
    return std::shared_ptr<TraceFile>(new TraceFile(std::move(impl)));
}

const TraceFileInfo &
TraceFile::info() const
{
    return impl_->info;
}

workload::TracePtr
TraceFile::vmTrace(std::uint32_t vm) const
{
    if (vm >= impl_->info.vmCount)
        sim::fatal("TraceFile::vmTrace: vm %u out of range (%u)", vm,
                   impl_->info.vmCount);
    return std::make_shared<detail::SeriesView>(impl_, vm);
}

workload::TracePtr
TraceFile::seriesTrace(std::uint32_t series) const
{
    if (series >= impl_->info.vmCount)
        sim::fatal("TraceFile::seriesTrace: series %u out of range (%u)",
                   series, impl_->info.vmCount);
    // Aliasing: the handle shares ownership of the file.
    return workload::TracePtr(impl_, &impl_->seriesTraces[series]);
}

bool
TraceFile::feedTo(sim::SimTime now, std::string *error)
{
    return impl_->feedTo(now.micros(), error);
}

std::uint64_t
TraceFile::chunkLoads() const
{
    return impl_->loads();
}

std::string
TraceFile::error() const
{
    return impl_->firstError();
}

} // namespace vpm::replay
