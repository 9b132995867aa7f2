#include "replay/trace_file.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>

#include "simcore/logging.hpp"
#include "simcore/random.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define VPM_TRACE_HAVE_PREAD 1
#else
#define VPM_TRACE_HAVE_PREAD 0
#endif

namespace vpm::replay {

namespace {

constexpr char kMagic[8] = {'v', 'p', 'm', 't', 'r', 'c', '1', '\n'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kChunkHeaderBytes = 32;
constexpr std::size_t kIndexEntryBytes = 24;
constexpr std::int64_t kOpenEnd =
    std::numeric_limits<std::int64_t>::max();

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Decode one varint; returns false on truncation/overflow. */
bool
getVarint(const std::uint8_t *data, std::size_t n, std::size_t &pos,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (pos >= n)
            return false;
        const std::uint8_t byte = data[pos++];
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
                                 std::uint32_t samples_per_chunk)
    : out_(path, std::ios::binary | std::ios::trunc), vmCount_(vm_count),
      quantum_(quantum), samplesPerChunk_(samples_per_chunk),
      index_(vm_count)
{
    if (vm_count == 0)
        sim::fatal("TraceFileWriter: need at least one VM");
    if (quantum == 0)
        sim::fatal("TraceFileWriter: quantum must be >= 1");
    if (samples_per_chunk < 2)
        sim::fatal("TraceFileWriter: samples per chunk must be >= 2");
    // Placeholder header; finish() seeks back and patches the real one.
    out_.write(kMagic, sizeof(kMagic));
    putRaw<std::uint32_t>(out_, kVersion);
    putRaw<std::uint32_t>(out_, vmCount_);
    putRaw<std::uint32_t>(out_, quantum_);
    putRaw<std::uint32_t>(out_, samplesPerChunk_);
    putRaw<std::uint64_t>(out_, 0); // index_offset
    putRaw<std::uint64_t>(out_, 0); // total_samples
}

void
TraceFileWriter::flushChunk(const PendingChunk &chunk,
                            std::int64_t end_ts_us)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(chunk.ts.size() * 3);
    putVarint(payload, chunk.level[0]);
    for (std::size_t i = 1; i < chunk.ts.size(); ++i) {
        putVarint(payload,
                  static_cast<std::uint64_t>(chunk.ts[i] - chunk.ts[i - 1]));
        putVarint(payload,
                  zigzag(static_cast<std::int64_t>(chunk.level[i]) -
                         static_cast<std::int64_t>(chunk.level[i - 1])));
    }

    IndexEntry &entry = index_[static_cast<std::size_t>(currentVm_)];
    if (entry.chunkCount == 0)
        entry.firstChunkOffset = static_cast<std::uint64_t>(out_.tellp());
    putRaw<std::uint32_t>(out_, static_cast<std::uint32_t>(currentVm_));
    putRaw<std::uint32_t>(out_, static_cast<std::uint32_t>(chunk.ts.size()));
    putRaw<std::uint32_t>(out_, static_cast<std::uint32_t>(payload.size()));
    putRaw<std::uint32_t>(out_, 0);
    putRaw<std::int64_t>(out_, chunk.ts[0]);
    putRaw<std::int64_t>(out_, end_ts_us);
    out_.write(reinterpret_cast<const char *>(payload.data()),
               static_cast<std::streamsize>(payload.size()));

    ++entry.chunkCount;
    entry.totalSamples += static_cast<std::uint32_t>(chunk.ts.size());
    entry.byteLen += kChunkHeaderBytes + payload.size();
    totalSamples_ += chunk.ts.size();
}

void
TraceFileWriter::finishCurrentVm()
{
    if (currentVm_ < 0)
        return;
    // The held chunk's span ends where the open chunk begins; the last
    // chunk of the VM is open-ended (its final level holds forever).
    if (haveHeld_) {
        flushChunk(held_, open_.ts.empty() ? kOpenEnd : open_.ts.front());
        held_ = PendingChunk{};
        haveHeld_ = false;
    }
    if (!open_.ts.empty()) {
        flushChunk(open_, kOpenEnd);
        open_ = PendingChunk{};
    }
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

    if (static_cast<std::int64_t>(vm) != currentVm_) {
        finishCurrentVm();
        currentVm_ = static_cast<std::int64_t>(vm);
        haveLast_ = false;
    }
    if (haveLast_ && ts_us <= lastTs_)
        sim::fatal("TraceFileWriter: timestamps must be strictly "
                   "increasing within a VM (vm %u, %lld after %lld)", vm,
                   static_cast<long long>(ts_us),
                   static_cast<long long>(lastTs_));

    const double clamped = std::clamp(utilization, 0.0, 1.0);
    const std::uint32_t level = static_cast<std::uint32_t>(
        std::lround(clamped * static_cast<double>(quantum_)));

    // Run-length merge: an unchanged level just extends the prior span.
    if (haveLast_ && level == lastLevel_) {
        lastTs_ = ts_us;
        return;
    }
    haveLast_ = true;
    lastTs_ = ts_us;
    lastLevel_ = level;

    open_.ts.push_back(ts_us);
    open_.level.push_back(level);
    if (open_.ts.size() >= samplesPerChunk_) {
        if (haveHeld_)
            flushChunk(held_, open_.ts.front());
        held_ = std::move(open_);
        haveHeld_ = true;
        open_ = PendingChunk{};
    }
}

bool
TraceFileWriter::finish(std::string *error)
{
    if (finished_)
        sim::panic("TraceFileWriter::finish called twice");
    finished_ = true;
    finishCurrentVm();

    const std::uint64_t index_offset =
        static_cast<std::uint64_t>(out_.tellp());
    for (const IndexEntry &entry : index_) {
        putRaw<std::uint64_t>(out_, entry.firstChunkOffset);
        putRaw<std::uint64_t>(out_, entry.byteLen);
        putRaw<std::uint32_t>(out_, entry.chunkCount);
        putRaw<std::uint32_t>(out_, entry.totalSamples);
    }
    out_.seekp(static_cast<std::streamoff>(sizeof(kMagic)) + 16);
    putRaw<std::uint64_t>(out_, index_offset);
    putRaw<std::uint64_t>(out_, totalSamples_);
    out_.flush();
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

/** Longest LEB128 varint getVarint() accepts (64 bits / 7, rounded up). */
constexpr std::uint64_t kMaxVarintBytes = 10;

/** Two's-complement addition without signed-overflow UB: only a corrupt
 *  payload that passes the format checks can make it wrap. */
std::int64_t
wrapAdd(std::int64_t a, std::uint64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + b);
}

/** Decode one varint of a payload already validated on load. */
std::uint64_t
readVarint(const std::uint8_t *&p)
{
    std::uint64_t v = *p++;
    if (v < 0x80)
        return v;
    v &= 0x7f;
    for (int shift = 7;; shift += 7) {
        const std::uint8_t byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
}

} // namespace

/**
 * One chunk exactly as stored — its 32-byte header followed by the raw
 * LEB128 payload — plus the header facts the cursor needs. Validated in
 * full when loaded and immutable afterwards; shared so a cache eviction
 * never invalidates a cursor that still points into it.
 */
struct EncodedChunk
{
    std::uint32_t vm = 0;
    std::uint32_t chunkIdx = 0;
    std::uint32_t sampleCount = 0;
    std::uint32_t firstLevel = 0;
    /** Offset in bytes of the first (dt, dl) pair, after the first level. */
    std::uint32_t pairsBegin = 0;
    std::uint64_t nextOffset = 0; ///< file offset of the next chunk
    std::int64_t firstTs = 0;
    std::int64_t endTs = kOpenEnd;
    std::vector<std::uint8_t> bytes;

    const std::uint8_t *pairs() const { return bytes.data() + pairsBegin; }
};

class TraceFileImpl : public std::enable_shared_from_this<TraceFileImpl>
{
  public:
    TraceFileInfo info;
    struct VmMeta
    {
        std::uint64_t firstChunkOffset = 0;
        std::uint64_t byteLen = 0;
        std::uint32_t chunkCount = 0;
        std::uint32_t totalSamples = 0;
    };
    std::vector<VmMeta> vms;
    std::size_t slotCount = 0;
    /** Size of the file in bytes, as found by openFile(). */
    std::uint64_t fileBytes = 0;

    ~TraceFileImpl()
    {
#if VPM_TRACE_HAVE_PREAD
        if (fd_ >= 0)
            ::close(fd_);
#endif
    }

    bool openFile(const std::string &path, std::string *error);
    bool readAt(std::uint64_t offset, void *dst, std::size_t n);

    /**
     * The encoded chunk (vm, chunk_idx) whose header lives at @p offset.
     * Served from the direct-mapped cache when present; otherwise loaded
     * with one read of header and payload, validated, and cached
     * (evicting the slot's previous occupant). Fatal on a corrupt chunk
     * — by open()-validation this only happens when the file changed
     * underneath a running simulation.
     */
    std::shared_ptr<const EncodedChunk>
    chunkAt(std::uint32_t vm, std::uint32_t chunk_idx,
            std::uint64_t offset);

    std::uint64_t loads() const
    {
        return loads_.load(std::memory_order_relaxed);
    }

    void configureCache(std::size_t window_bytes)
    {
        // Budget 16 bytes per breakpoint (what a decoded i64 ts + double
        // util once cost); a canonically encoded breakpoint takes at most
        // 14 (9-byte dt + 5-byte zigzag dl), so a full cache stays under
        // the budget and the slot count is unchanged.
        const std::size_t per_chunk =
            static_cast<std::size_t>(info.samplesPerChunk) * 16;
        slotCount = std::max<std::size_t>(
            8, per_chunk > 0 ? window_bytes / per_chunk : 8);
        slots_ = std::vector<Slot>(slotCount);
    }

  private:
    struct Slot
    {
        std::shared_ptr<const EncodedChunk> chunk;
    };
    static constexpr std::size_t kStripes = 64;

    /** Check every varint, dt > 0, the level range and trailing bytes of
     *  @p chunk's payload; fill in firstLevel and pairsBegin. */
    void validate(EncodedChunk &chunk, std::uint32_t payload_bytes) const;

    std::vector<Slot> slots_;
    std::mutex stripes_[kStripes];
    std::atomic<std::uint64_t> loads_{0};

#if VPM_TRACE_HAVE_PREAD
    int fd_ = -1;
#else
    std::ifstream stream_;
    std::mutex streamMutex_;
#endif
};

bool
TraceFileImpl::openFile(const std::string &path, std::string *error)
{
#if VPM_TRACE_HAVE_PREAD
    fd_ = ::open(path.c_str(), O_RDONLY);
    struct stat st;
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
    fileBytes = static_cast<std::uint64_t>(st.st_size);
#else
    stream_.open(path, std::ios::binary | std::ios::ate);
    if (!stream_.good()) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
    fileBytes = static_cast<std::uint64_t>(stream_.tellg());
#endif
    return true;
}

bool
TraceFileImpl::readAt(std::uint64_t offset, void *dst, std::size_t n)
{
#if VPM_TRACE_HAVE_PREAD
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got =
            ::pread(fd_, static_cast<char *>(dst) + done, n - done,
                    static_cast<off_t>(offset + done));
        if (got <= 0)
            return false;
        done += static_cast<std::size_t>(got);
    }
    return true;
#else
    std::lock_guard<std::mutex> lock(streamMutex_);
    stream_.clear();
    stream_.seekg(static_cast<std::streamoff>(offset));
    stream_.read(static_cast<char *>(dst),
                 static_cast<std::streamsize>(n));
    return stream_.gcount() == static_cast<std::streamsize>(n);
#endif
}

void
TraceFileImpl::validate(EncodedChunk &chunk,
                        std::uint32_t payload_bytes) const
{
    const std::uint8_t *payload = chunk.bytes.data() + kChunkHeaderBytes;
    std::size_t pos = 0;
    std::uint64_t raw = 0;
    if (!getVarint(payload, payload_bytes, pos, raw) || raw > info.quantum)
        sim::fatal("vpm-trace-1: corrupt payload (vm %u #%u)", chunk.vm,
                   chunk.chunkIdx);
    chunk.firstLevel = static_cast<std::uint32_t>(raw);
    chunk.pairsBegin = static_cast<std::uint32_t>(kChunkHeaderBytes + pos);
    std::int64_t level = static_cast<std::int64_t>(raw);
    for (std::uint32_t i = 1; i < chunk.sampleCount; ++i) {
        std::uint64_t dt = 0, dl = 0;
        if (!getVarint(payload, payload_bytes, pos, dt) ||
            !getVarint(payload, payload_bytes, pos, dl))
            sim::fatal("vpm-trace-1: corrupt payload (vm %u #%u)", chunk.vm,
                       chunk.chunkIdx);
        level = wrapAdd(level, static_cast<std::uint64_t>(unzigzag(dl)));
        if (dt == 0 || level < 0 ||
            level > static_cast<std::int64_t>(info.quantum))
            sim::fatal("vpm-trace-1: corrupt payload (vm %u #%u)", chunk.vm,
                       chunk.chunkIdx);
    }
    if (pos != payload_bytes)
        sim::fatal("vpm-trace-1: trailing payload bytes (vm %u #%u)",
                   chunk.vm, chunk.chunkIdx);
}

std::shared_ptr<const EncodedChunk>
TraceFileImpl::chunkAt(std::uint32_t vm, std::uint32_t chunk_idx,
                       std::uint64_t offset)
{
    const std::size_t slot_idx = static_cast<std::size_t>(
        sim::hashMix(vm, chunk_idx) % slotCount);
    std::mutex &stripe = stripes_[slot_idx % kStripes];
    {
        std::lock_guard<std::mutex> lock(stripe);
        const std::shared_ptr<const EncodedChunk> &cached =
            slots_[slot_idx].chunk;
        if (cached && cached->vm == vm && cached->chunkIdx == chunk_idx)
            return cached;
    }

    // One read covers header and payload: the rest of the VM's run (from
    // the index, which open() bounded inside the file), capped at the
    // largest chunk validate() could accept.
    const VmMeta &meta = vms[vm];
    const std::uint64_t run_end = meta.firstChunkOffset + meta.byteLen;
    const std::uint64_t max_chunk =
        kChunkHeaderBytes + kMaxVarintBytes +
        2 * kMaxVarintBytes * (info.samplesPerChunk - 1ull);
    const std::uint64_t want =
        offset < run_end ? std::min(run_end - offset, max_chunk) : 0;
    auto chunk = std::make_shared<EncodedChunk>();
    chunk->vm = vm;
    chunk->chunkIdx = chunk_idx;
    chunk->bytes.resize(static_cast<std::size_t>(want));
    if (want < kChunkHeaderBytes ||
        !readAt(offset, chunk->bytes.data(), chunk->bytes.size()))
        sim::fatal("vpm-trace-1: short read at chunk header (vm %u #%u)",
                   vm, chunk_idx);
    const std::uint8_t *header = chunk->bytes.data();
    const std::uint32_t header_vm = getRaw<std::uint32_t>(header);
    chunk->sampleCount = getRaw<std::uint32_t>(header + 4);
    const std::uint32_t payload_bytes = getRaw<std::uint32_t>(header + 8);
    chunk->firstTs = getRaw<std::int64_t>(header + 16);
    chunk->endTs = getRaw<std::int64_t>(header + 24);
    if (header_vm != vm || chunk->sampleCount == 0 ||
        chunk->sampleCount > info.samplesPerChunk)
        sim::fatal("vpm-trace-1: corrupt chunk header (vm %u #%u)", vm,
                   chunk_idx);
    const std::uint64_t chunk_bytes = kChunkHeaderBytes + payload_bytes;
    if (chunk_bytes > want)
        sim::fatal("vpm-trace-1: short read at chunk payload (vm %u #%u)",
                   vm, chunk_idx);
    // A non-final chunk's read ran into its successor; keep only its own
    // bytes so a pinned chunk costs what it stores.
    if (chunk_bytes < want) {
        chunk->bytes.resize(static_cast<std::size_t>(chunk_bytes));
        chunk->bytes.shrink_to_fit();
    }
    chunk->nextOffset = offset + chunk_bytes;
    validate(*chunk, payload_bytes);
    loads_.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(stripe);
    slots_[slot_idx].chunk = chunk;
    return chunk;
}

/**
 * One VM's series as a DemandTrace: a forward cursor over its pinned
 * encoded chunk. spanAt() decodes one (dt, dl) pair per breakpoint it
 * passes and reads only the cursor's own fields unless it crosses into
 * another chunk or seeks backward. The cursor is mutable under the
 * owner-shard rule (a VM is only sampled by the shard that owns it, and
 * every VM gets its own view object), mirroring the contract the rest of
 * the evaluation engine already relies on.
 */
class StreamedVmTrace final : public workload::DemandTrace
{
  public:
    StreamedVmTrace(std::shared_ptr<const TraceFileImpl> impl,
                    std::uint32_t vm)
        : impl_(std::move(impl)), vm_(vm)
    {
    }

    double utilizationAt(sim::SimTime t) const override
    {
        return spanAt(t).utilization;
    }

    workload::DemandSpan spanAt(sim::SimTime t) const override
    {
        const std::int64_t us = t.micros();
        if (!chunk_) {
            const TraceFileImpl::VmMeta &meta = impl_->vms[vm_];
            if (meta.chunkCount == 0)
                return {0.0, sim::SimTime::max()};
            load(0, meta.firstChunkOffset);
        }
        if (us < curTs_) {
            // Backward seek (a what-if branch replaying from a checkpoint
            // earlier than this cursor): an earlier chunk restarts from
            // the first chunk, an earlier breakpoint from this chunk's
            // start. Before the VM's first breakpoint the cursor stays on
            // it: StepTrace semantics, the first level applies.
            if (us < chunk_->firstTs && chunkIdx_ > 0)
                load(0, impl_->vms[vm_].firstChunkOffset);
            else
                rewind();
        }
        while (endTs_ != kOpenEnd && us >= endTs_)
            load(chunkIdx_ + 1, chunk_->nextOffset);
        while (left_ > 0 && us >= nextTs_) {
            // Unsigned wrap keeps a corrupt delta free of UB; validation
            // proved every level of the chunk lies in [0, quantum].
            level_ += static_cast<std::uint32_t>(unzigzag(readVarint(pos_)));
            curTs_ = nextTs_;
            seekNext();
        }
        return {static_cast<double>(level_) /
                    static_cast<double>(impl_->info.quantum),
                nextTs_ == kOpenEnd ? sim::SimTime::max()
                                    : sim::SimTime::micros(nextTs_)};
    }

    void prefetchSpan() const override
    {
#if defined(__GNUC__)
        __builtin_prefetch(pos_);
#endif
    }

    bool hasSpanPrefetch() const override { return true; }

  private:
    /** Pin chunk @p idx (header at @p offset) and rewind onto it. */
    void load(std::uint32_t idx, std::uint64_t offset) const
    {
        // chunkAt is const-observable but mutates the shared cache; the
        // impl owns that synchronization.
        chunk_ = const_cast<TraceFileImpl *>(impl_.get())
                     ->chunkAt(vm_, idx, offset);
        chunkIdx_ = idx;
        endTs_ = chunk_->endTs;
        rewind();
    }

    /** Move the cursor onto the pinned chunk's first breakpoint. */
    void rewind() const
    {
        pos_ = chunk_->pairs();
        level_ = chunk_->firstLevel;
        curTs_ = chunk_->firstTs;
        left_ = chunk_->sampleCount;
        seekNext();
    }

    /** Count the current breakpoint off and decode the next one's
     *  timestamp (the chunk's end once none is left). */
    void seekNext() const
    {
        nextTs_ = --left_ > 0 ? wrapAdd(curTs_, readVarint(pos_)) : endTs_;
    }

    // One view per VM, so the cursor is kept small: the chunk's first_ts
    // and first level are read from the chunk on the (cold) rewind path.
    std::shared_ptr<const TraceFileImpl> impl_;
    mutable std::shared_ptr<const EncodedChunk> chunk_;
    /** Next undecoded payload byte: the next breakpoint's dl varint. */
    mutable const std::uint8_t *pos_ = nullptr;
    mutable std::int64_t curTs_ = 0;
    mutable std::int64_t nextTs_ = 0;
    mutable std::int64_t endTs_ = kOpenEnd;
    std::uint32_t vm_;
    mutable std::uint32_t chunkIdx_ = 0;
    /** Breakpoints of the chunk after the current one. */
    mutable std::uint32_t left_ = 0;
    mutable std::uint32_t level_ = 0;
};

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
    auto impl = std::make_shared<detail::TraceFileImpl>();
    if (!impl->openFile(path, error))
        return nullptr;

    std::uint8_t header[kHeaderBytes];
    if (!impl->readAt(0, header, sizeof(header))) {
        if (error != nullptr)
            *error = "'" + path + "': too short for a vpm-trace-1 header";
        return nullptr;
    }
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
        if (error != nullptr)
            *error = "'" + path + "': not a vpm-trace-1 file (bad magic)";
        return nullptr;
    }
    if (getRaw<std::uint32_t>(header + 8) != kVersion) {
        if (error != nullptr)
            *error = "'" + path + "': unsupported vpm-trace-1 version";
        return nullptr;
    }
    impl->info.vmCount = getRaw<std::uint32_t>(header + 12);
    impl->info.quantum = getRaw<std::uint32_t>(header + 16);
    impl->info.samplesPerChunk = getRaw<std::uint32_t>(header + 20);
    const std::uint64_t index_offset = getRaw<std::uint64_t>(header + 24);
    impl->info.totalSamples = getRaw<std::uint64_t>(header + 32);
    if (impl->info.vmCount == 0 || impl->info.quantum == 0 ||
        impl->info.samplesPerChunk < 2 || index_offset < kHeaderBytes) {
        if (error != nullptr)
            *error = "'" + path + "': corrupt vpm-trace-1 header";
        return nullptr;
    }

    // The index must lie inside the file before anything is sized from
    // vm_count: a corrupt count would otherwise allocate a buffer of up
    // to ~100 GB.
    if (index_offset > impl->fileBytes ||
        (impl->fileBytes - index_offset) / kIndexEntryBytes <
            impl->info.vmCount) {
        if (error != nullptr)
            *error = "'" + path + "': vpm-trace-1 index extends past the "
                     "end of the file";
        return nullptr;
    }
    impl->vms.resize(impl->info.vmCount);
    std::vector<std::uint8_t> raw(impl->info.vmCount * kIndexEntryBytes);
    if (!impl->readAt(index_offset, raw.data(), raw.size())) {
        if (error != nullptr)
            *error = "'" + path + "': truncated vpm-trace-1 index";
        return nullptr;
    }
    std::uint64_t sum = 0;
    for (std::uint32_t v = 0; v < impl->info.vmCount; ++v) {
        const std::uint8_t *p = raw.data() + v * kIndexEntryBytes;
        detail::TraceFileImpl::VmMeta &meta = impl->vms[v];
        meta.firstChunkOffset = getRaw<std::uint64_t>(p);
        meta.byteLen = getRaw<std::uint64_t>(p + 8);
        meta.chunkCount = getRaw<std::uint32_t>(p + 16);
        meta.totalSamples = getRaw<std::uint32_t>(p + 20);
        sum += meta.totalSamples;
        if (meta.chunkCount > 0 &&
            (meta.firstChunkOffset < kHeaderBytes ||
             meta.firstChunkOffset + meta.byteLen > index_offset)) {
            if (error != nullptr)
                *error = "'" + path + "': vpm-trace-1 index entry out of "
                         "bounds";
            return nullptr;
        }
    }
    if (sum != impl->info.totalSamples) {
        if (error != nullptr)
            *error = "'" + path + "': vpm-trace-1 sample counts "
                     "inconsistent";
        return nullptr;
    }

    impl->configureCache(window_bytes);
    return std::shared_ptr<TraceFile>(new TraceFile(std::move(impl)));
}

const TraceFileInfo &
TraceFile::info() const
{
    return impl_->info;
}

std::uint64_t
TraceFile::vmSampleCount(std::uint32_t vm) const
{
    if (vm >= impl_->info.vmCount)
        sim::fatal("TraceFile::vmSampleCount: vm %u out of range", vm);
    return impl_->vms[vm].totalSamples;
}

workload::TracePtr
TraceFile::vmTrace(std::uint32_t vm) const
{
    if (vm >= impl_->info.vmCount)
        sim::fatal("TraceFile::vmTrace: vm %u out of range (%u)", vm,
                   impl_->info.vmCount);
    return std::make_shared<detail::StreamedVmTrace>(impl_, vm);
}

std::size_t
TraceFile::cacheSlots() const
{
    return impl_->slotCount;
}

std::uint64_t
TraceFile::chunkLoads() const
{
    return impl_->loads();
}

} // namespace vpm::replay
