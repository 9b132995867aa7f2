/**
 * @file
 * vpm-ckpt-1: versioned binary snapshots of a running replay session.
 *
 * A checkpoint is NOT a resumable core dump — the simulator's event queue
 * holds std::function closures that cannot be serialized. Instead it is a
 * *verified re-execution* anchor: the file embeds the replay spec (the
 * complete recipe for rebuilding the session), the capture time, and a
 * set of named byte sections covering every piece of simulation state
 * that determinism must preserve. Restoring rebuilds the session from the
 * spec, re-runs it to the capture time, re-captures the same sections and
 * byte-compares them — a mismatch means the binary or its inputs changed,
 * and the restore is refused. This trades restore CPU time for an
 * ironclad guarantee: a restored run is not "approximately" the paused
 * run, it IS the paused run, to the byte.
 *
 * Layout (host-endian, single-machine artifact):
 *
 *     char[8] magic "vpmckp1\n"
 *     u32 version (2), u32 section_count
 *     i64 time_us, u64 events_processed
 *     u32 spec_len, spec bytes (vpm-replay-spec-1 JSON)
 *     section_count x { u32 name_len, name bytes, u64 size, bytes }
 *     u64 fnv1a checksum of everything above
 *
 * Section order is fixed by the producer (fleet, tree, events, rng,
 * policy, telemetry) and byte-compared in order on restore. The version
 * moves whenever a section's bytes for the same run change: version 2
 * holds one pending idle-governor event per cohort slot where version 1
 * held one per host, so a version-1 file is refused as written by an
 * older build rather than failing verification.
 */

#ifndef VPM_REPLAY_CHECKPOINT_HPP
#define VPM_REPLAY_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vpm::replay {

/** In-memory form of one checkpoint. */
struct CheckpointData
{
    /** vpm-replay-spec-1 JSON: the full session recipe. */
    std::string specJson;

    /** Simulated capture time, microseconds. */
    std::int64_t timeUs = 0;

    /** Simulator events dispatched when captured. */
    std::uint64_t eventsProcessed = 0;

    /** Named state sections, in capture order. */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections;

    /** The named section, or nullptr. */
    const std::vector<std::uint8_t> *section(const std::string &name) const;
};

/** FNV-1a over @p data, continuing from @p seed (the offset basis by
 *  default). Used for the checkpoint trailer and the state digests the
 *  replay CLI reports. */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t n,
                    std::uint64_t seed = 14695981039346656037ull);

/** Write @p ckpt to @p path. @return false with @p error set on I/O
 *  failure (written via a temp file + rename, so a crash never leaves a
 *  half-written checkpoint under the final name). */
bool writeCheckpoint(const CheckpointData &ckpt, const std::string &path,
                     std::string *error);

/** Read and checksum-verify @p path. @return false with @p error set on
 *  a missing file, bad magic, an older or unknown version, truncation,
 *  or checksum mismatch. */
bool readCheckpoint(const std::string &path, CheckpointData &out,
                    std::string *error);

} // namespace vpm::replay

#endif // VPM_REPLAY_CHECKPOINT_HPP
