/**
 * @file
 * Hostile input for the vpm-trace-2 reader. A small valid file is cut at
 * every header field, block-table entry, block and directory boundary
 * (and one byte either side) and at random offsets, and gets random bits
 * flipped in each section: the header, the block table, and each block's
 * directory and payload. open(), the feed and every series' spanAt()
 * (cursor views and table-fed traces) must return or report an error:
 * no abort, and no undefined behaviour or oversized allocation (the
 * ASan/UBSan CI job runs this case). Any returned span must still be a
 * utilization in [0, 1] that holds past the query time.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "replay/trace_file.hpp"
#include "simcore/random.hpp"

namespace vpm::replay {
namespace {

using sim::SimTime;

constexpr std::uint32_t kSeries = 260; // two directory groups
const SimTime kEnd = SimTime::hours(4.0);

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("vpm_trace_mutation_" + tag + ".vpmtrc"))
        .string();
}

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::uint8_t *data, std::size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(data),
              static_cast<std::streamsize>(n));
}

/** 1200 s blocks over 900 s and 300 s samples, plateaus, late starts. */
void
writeValidTrace(const std::string &path)
{
    TraceFileWriter writer(path, kSeries, 10000, 1'200'000'000);
    ASSERT_TRUE(writer.ok());
    sim::Rng rng(3);
    for (std::uint32_t s = 0; s < kSeries; ++s) {
        if (s % 9 == 8)
            continue; // an empty series
        const std::int64_t step_s = s % 3 == 0 ? 300 : s % 3 == 1 ? 900 : 5400;
        for (std::int64_t t = s % 4 == 3 ? 1234 : 0; t < 3 * 3600;
             t += step_s)
            writer.append(s, t * 1'000'000, rng.uniform(0.0, 1.0));
    }
    std::string error;
    ASSERT_TRUE(writer.finish(&error)) << error;
}

/** What the reader made of one mutant. */
enum class Verdict
{
    Refused,  ///< open() returned nullptr with an error
    Reported, ///< opened, then the feed or a walk reported an error
    Accepted, ///< read through without a complaint
};

/** A span any reader may return: a utilization in [0, 1] that holds
 *  past the query time. */
bool
sane(double utilization, std::int64_t valid_until_us, SimTime t)
{
    return utilization >= 0.0 && utilization <= 1.0 &&
           valid_until_us > t.micros();
}

Verdict
exercise(const std::string &path)
{
    std::string error;
    const std::shared_ptr<TraceFile> file =
        TraceFile::open(path, 1u << 20, &error);
    if (!file) {
        EXPECT_FALSE(error.empty());
        return Verdict::Refused;
    }
    bool reported = false;
    int insane = 0;
    std::vector<workload::TracePtr> fed;
    for (std::uint32_t s = 0; s < file->info().vmCount; ++s)
        fed.push_back(file->seriesTrace(s));
    for (SimTime t; t <= kEnd; t = t + SimTime::minutes(20.0)) {
        if (!file->feedTo(t, &error)) {
            EXPECT_FALSE(error.empty());
            reported = true;
            break;
        }
        for (const workload::TracePtr &trace : fed) {
            const workload::SpanSlot *slot = trace->spanSlot();
            insane += !sane(slot->utilization, slot->validUntilUs, t);
        }
    }
    const auto check = [&](const workload::TracePtr &trace, SimTime t) {
        const workload::DemandSpan span = trace->spanAt(t);
        insane += !sane(span.utilization, span.validUntil.micros(), t);
    };
    for (std::uint32_t s = 0; s < file->info().vmCount; ++s) {
        const workload::TracePtr view = file->vmTrace(s);
        for (SimTime t; t <= kEnd; t = t + SimTime::minutes(50.0)) {
            check(view, t);
            check(fed[s], t);
        }
        // A backward seek restarts the walk.
        check(view, SimTime::minutes(10.0));
    }
    EXPECT_EQ(insane, 0);
    if (!file->error().empty())
        reported = true;
    return reported ? Verdict::Reported : Verdict::Accepted;
}

/** The section boundaries of @p bytes, read from its own header. */
struct Sections
{
    std::vector<std::pair<std::size_t, std::size_t>> ranges; ///< [begin, end)
    std::set<std::size_t> cuts;
};

Sections
sectionsOf(const std::vector<std::uint8_t> &bytes)
{
    Sections out;
    std::uint32_t series = 0, groups_per = 0, blocks = 0;
    std::memcpy(&series, bytes.data() + 12, 4);
    std::memcpy(&groups_per, bytes.data() + 20, 4);
    std::memcpy(&blocks, bytes.data() + 48, 4);
    const std::size_t dir = (series + groups_per - 1) / groups_per * 4;
    for (std::size_t field = 0; field <= 56; field += 4)
        out.cuts.insert(field);
    const std::size_t table_end = 56 + 8 * (blocks + 1ull);
    out.ranges.emplace_back(0, 56);
    out.ranges.emplace_back(56, table_end);
    for (std::size_t b = 0; b <= blocks; ++b)
        out.cuts.insert(56 + 8 * b);
    for (std::size_t b = 0; b < blocks; ++b) {
        std::uint64_t begin = 0, end = 0;
        std::memcpy(&begin, bytes.data() + 56 + 8 * b, 8);
        std::memcpy(&end, bytes.data() + 56 + 8 * (b + 1), 8);
        out.cuts.insert(begin);
        out.cuts.insert(begin + dir);
        for (std::size_t g = 0; g + 4 <= dir; g += 4) {
            std::uint32_t slice_end = 0;
            std::memcpy(&slice_end, bytes.data() + begin + g, 4);
            out.cuts.insert(begin + dir + slice_end);
        }
        out.ranges.emplace_back(begin, begin + dir);
        if (end > begin + dir)
            out.ranges.emplace_back(begin + dir, end);
    }
    return out;
}

TEST(TraceFileMutationTest, TruncationsAndBitFlipsReturnOrReportErrors)
{
    const std::string valid = tempPath("valid");
    writeValidTrace(valid);
    const std::vector<std::uint8_t> bytes = readAll(valid);
    ASSERT_GT(bytes.size(), 1000u);
    ASSERT_EQ(exercise(valid), Verdict::Accepted);
    const Sections sections = sectionsOf(bytes);
    ASSERT_GT(sections.ranges.size(), 10u);

    const std::string mutant = tempPath("mutant");
    sim::Rng rng(11);

    // Every cut short of the whole file is refused at open: the block
    // table names the file's size.
    std::set<std::size_t> cuts;
    for (const std::size_t cut : sections.cuts)
        for (const std::size_t near : {cut - 1, cut, cut + 1})
            if (near < bytes.size())
                cuts.insert(near);
    for (int i = 0; i < 100; ++i)
        cuts.insert(static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size()) - 1)));
    for (const std::size_t cut : cuts) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        writeAll(mutant, bytes.data(), cut);
        EXPECT_EQ(exercise(mutant), Verdict::Refused);
    }

    // Flipped bits: whatever the reader makes of them, it must not crash,
    // and a good share of them must be caught.
    int caught = 0;
    int trials = 0;
    for (const auto &[begin, end] : sections.ranges) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint8_t> flipped = bytes;
            const std::int64_t flips = rng.uniformInt(1, 3);
            for (std::int64_t f = 0; f < flips; ++f) {
                const auto at = static_cast<std::size_t>(rng.uniformInt(
                    static_cast<int>(begin), static_cast<int>(end) - 1));
                flipped[at] ^= static_cast<std::uint8_t>(
                    1u << rng.uniformInt(0, 7));
            }
            SCOPED_TRACE("section [" + std::to_string(begin) + ", " +
                         std::to_string(end) + ") trial " +
                         std::to_string(trial));
            writeAll(mutant, flipped.data(), flipped.size());
            ++trials;
            if (exercise(mutant) != Verdict::Accepted)
                ++caught;
        }
    }
    EXPECT_GT(caught, trials / 2) << caught << " of " << trials;
    std::filesystem::remove(valid);
    std::filesystem::remove(mutant);
}

} // namespace
} // namespace vpm::replay
