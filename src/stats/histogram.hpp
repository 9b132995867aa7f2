/**
 * @file
 * Fixed-range histogram with percentile queries.
 */

#ifndef VPM_STATS_HISTOGRAM_HPP
#define VPM_STATS_HISTOGRAM_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

namespace vpm::stats {

/**
 * Histogram over [lo, hi) with equal-width buckets plus underflow/overflow
 * buckets. Percentiles are estimated by linear interpolation within the
 * containing bucket, which is plenty for reporting p95/p99 of performance
 * ratios.
 */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower edge of the tracked range.
     * @param hi Exclusive upper edge; must be > lo.
     * @param buckets Number of equal-width buckets; must be >= 1.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample (out-of-range samples land in under/overflow).
     *  Inline: called once per VM per evaluation tick, twice. */
    void add(double x)
    {
        ++count_;
        if (x < lo_) {
            ++underflow_;
            return;
        }
        if (x >= hi_) {
            ++overflow_;
            return;
        }
        const auto index = static_cast<std::size_t>((x - lo_) / width_);
        ++counts_[std::min(index, counts_.size() - 1)];
    }

    /**
     * Batch entry point: the counters held in locals across a whole range
     * of samples and written back once by commit(); the buckets are
     * reached through a pointer held in the batch. add() is add()'s exact
     * bucketing. The histogram must not be touched until commit().
     */
    class Batch
    {
      public:
        explicit Batch(Histogram &target)
            : target_(target), lo_(target.lo_), hi_(target.hi_),
              width_(target.width_), counts_(target.counts_.data()),
              last_(target.counts_.size() - 1), count_(target.count_),
              underflow_(target.underflow_), overflow_(target.overflow_)
        {
        }

        /** Record @p copies samples of value @p x. */
        void add(double x, std::uint64_t copies = 1)
        {
            count_ += copies;
            if (x < lo_) {
                underflow_ += copies;
                return;
            }
            if (x >= hi_) {
                overflow_ += copies;
                return;
            }
            const auto index = static_cast<std::size_t>((x - lo_) / width_);
            counts_[std::min(index, last_)] += copies;
        }

        void commit()
        {
            target_.count_ = count_;
            target_.underflow_ = underflow_;
            target_.overflow_ = overflow_;
        }

      private:
        Histogram &target_;
        double lo_;
        double hi_;
        double width_;
        std::uint64_t *counts_;
        std::size_t last_;
        std::uint64_t count_;
        std::uint64_t underflow_;
        std::uint64_t overflow_;
    };

    /**
     * Add another histogram's counts into this one. Both must have been
     * constructed with identical (lo, hi, buckets) — anything else is a
     * vpm bug and panics. Counts are integers, so merging is exact and
     * order-independent; the sharded evaluation loops still merge in
     * shard order for uniformity with the FP accumulators.
     */
    void merge(const Histogram &other);

    /** Zero all counts, keeping the bucket layout (shard-scratch reuse). */
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Value below which @p fraction of the samples fall.
     * @param fraction In [0, 1]. Returns lo/hi edges for samples that fell
     *        in the under/overflow buckets. Returns 0 if empty.
     */
    double percentile(double fraction) const;

    /** Fraction of samples strictly below @p x (bucket-resolution). */
    double fractionBelow(double x) const;

    /** Bucket counts, for dumping distributions in benches. */
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    double lowerEdge() const { return lo_; }
    double upperEdge() const { return hi_; }

  private:
    double bucketWidth() const;

    double lo_;
    double hi_;
    /** (hi - lo) / buckets, fixed at construction (hot path in add()). */
    double width_ = 1.0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

} // namespace vpm::stats

#endif // VPM_STATS_HISTOGRAM_HPP
