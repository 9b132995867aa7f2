#include "replay/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "simcore/byte_append.hpp"

namespace vpm::replay {

namespace {

constexpr char kMagic[8] = {'v', 'p', 'm', 'c', 'k', 'p', '1', '\n'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
bool
readScalar(const std::vector<std::uint8_t> &in, std::size_t &pos, T &out)
{
    if (pos + sizeof(T) > in.size())
        return false;
    std::memcpy(&out, in.data() + pos, sizeof(T));
    pos += sizeof(T);
    return true;
}

} // namespace

const std::vector<std::uint8_t> *
CheckpointData::section(const std::string &name) const
{
    for (const auto &[n, bytes] : sections) {
        if (n == name)
            return &bytes;
    }
    return nullptr;
}

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

bool
writeCheckpoint(const CheckpointData &ckpt, const std::string &path,
                std::string *error)
{
    std::vector<std::uint8_t> buf;
    sim::appendBytes(buf, kMagic, sizeof(kMagic));
    sim::appendPod<std::uint32_t>(buf, kVersion);
    sim::appendPod<std::uint32_t>(
        buf, static_cast<std::uint32_t>(ckpt.sections.size()));
    sim::appendPod<std::int64_t>(buf, ckpt.timeUs);
    sim::appendPod<std::uint64_t>(buf, ckpt.eventsProcessed);
    sim::appendPod<std::uint32_t>(
        buf, static_cast<std::uint32_t>(ckpt.specJson.size()));
    sim::appendBytes(buf, ckpt.specJson.data(), ckpt.specJson.size());
    for (const auto &[name, bytes] : ckpt.sections) {
        sim::appendPod<std::uint32_t>(
            buf, static_cast<std::uint32_t>(name.size()));
        sim::appendBytes(buf, name.data(), name.size());
        sim::appendPod<std::uint64_t>(buf, bytes.size());
        sim::appendBytes(buf, bytes.data(), bytes.size());
    }
    sim::appendPod<std::uint64_t>(
        buf, fnv1a(buf.data(), buf.size()));

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(buf.data()),
                  static_cast<std::streamsize>(buf.size()));
        out.flush();
        if (!out.good()) {
            if (error != nullptr)
                *error = "cannot write checkpoint '" + tmp + "'";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error != nullptr)
            *error = "cannot move checkpoint into place at '" + path + "'";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readCheckpoint(const std::string &path, CheckpointData &out,
               std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
        if (error != nullptr)
            *error = "cannot open checkpoint '" + path + "'";
        return false;
    }
    std::vector<std::uint8_t> buf(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    const auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = "'" + path + "': " + what;
        return false;
    };
    if (buf.size() < sizeof(kMagic) + 8 ||
        std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
        return fail("not a vpm-ckpt-1 file (bad magic)");

    // Trailer first: any flipped bit anywhere fails here with a clear
    // message instead of a confusing parse error downstream.
    std::uint64_t stored = 0;
    std::memcpy(&stored, buf.data() + buf.size() - 8, 8);
    if (fnv1a(buf.data(), buf.size() - 8) != stored)
        return fail("checksum mismatch (file corrupt or truncated)");

    std::size_t pos = sizeof(kMagic);
    std::uint32_t version = 0, section_count = 0, spec_len = 0;
    if (!readScalar(buf, pos, version) || version != kVersion)
        return fail("unsupported vpm-ckpt-1 version");
    if (!readScalar(buf, pos, section_count) ||
        !readScalar(buf, pos, out.timeUs) ||
        !readScalar(buf, pos, out.eventsProcessed) ||
        !readScalar(buf, pos, spec_len) ||
        pos + spec_len > buf.size())
        return fail("truncated header");
    out.specJson.assign(reinterpret_cast<const char *>(buf.data() + pos),
                        spec_len);
    pos += spec_len;

    out.sections.clear();
    for (std::uint32_t s = 0; s < section_count; ++s) {
        std::uint32_t name_len = 0;
        std::uint64_t size = 0;
        if (!readScalar(buf, pos, name_len) ||
            pos + name_len > buf.size())
            return fail("truncated section name");
        std::string name(
            reinterpret_cast<const char *>(buf.data() + pos), name_len);
        pos += name_len;
        if (!readScalar(buf, pos, size) ||
            size > buf.size() - 8 - pos)
            return fail("truncated section payload");
        out.sections.emplace_back(
            std::move(name),
            std::vector<std::uint8_t>(buf.data() + pos,
                                      buf.data() + pos + size));
        pos += size;
    }
    if (pos != buf.size() - 8)
        return fail("trailing bytes before checksum");
    return true;
}

} // namespace vpm::replay
