/**
 * @file
 * Raw byte appends for in-memory state captures (vpm-ckpt-1 sections and
 * the state digests built from them).
 *
 * Values are copied in native byte order with no framing: the same
 * machine writes and compares, and the vpm-ckpt-1 file as a whole is
 * documented as host-endian. Header-only so capture loops inline them.
 * Pass the wire type explicitly (appendPod<std::int64_t>(out, id)) when
 * the source type differs from it; the conversion happens before the
 * copy, exactly as for a typed parameter.
 */

#ifndef VPM_SIMCORE_BYTE_APPEND_HPP
#define VPM_SIMCORE_BYTE_APPEND_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace vpm::sim {

/** Append @p n raw bytes starting at @p data to @p out. */
inline void
appendBytes(std::vector<std::uint8_t> &out, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    out.insert(out.end(), bytes, bytes + n);
}

/** Append the object representation of @p value to @p out. */
template <typename T>
inline void
appendPod(std::vector<std::uint8_t> &out, const T &value)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "appendPod copies raw object bytes");
    appendBytes(out, &value, sizeof(T));
}

} // namespace vpm::sim

#endif // VPM_SIMCORE_BYTE_APPEND_HPP
