/**
 * @file
 * Service-level tracking: how much of the demanded CPU was actually granted.
 *
 * The paper's performance metric for management policies is the degradation
 * VMs experience when capacity is short (because hosts are asleep, booting,
 * or busy migrating). We record one sample per VM per evaluation interval:
 * the ratio granted/requested. satisfaction() is the aggregate ratio;
 * violationFraction() is the share of VM-intervals that fell below a
 * threshold, which corresponds to the paper's "performance impact" series.
 */

#ifndef VPM_STATS_SLA_TRACKER_HPP
#define VPM_STATS_SLA_TRACKER_HPP

#include <algorithm>
#include <cstdint>
#include <limits>

#include "simcore/logging.hpp"
#include "stats/histogram.hpp"

namespace vpm::stats {

/** Aggregates granted-vs-requested CPU samples into SLA metrics. */
class SlaTracker
{
  public:
    /**
     * @param violation_threshold A VM-interval counts as a violation when
     *        granted/requested falls below this ratio.
     */
    explicit SlaTracker(double violation_threshold = 0.99);

    /**
     * Record one VM-interval.
     * @param requested_mhz CPU demanded over the interval (>= 0).
     * @param granted_mhz CPU actually allocated (0 <= granted <= requested).
     *
     * Intervals with zero request are counted as fully satisfied.
     *
     * The reference implementation: the evaluation sweep records through
     * Batch, which must stay bit-identical to a loop of these calls.
     */
    void record(double requested_mhz, double granted_mhz)
    {
        checkSample(requested_mhz, granted_mhz);
        const double ratio =
            requested_mhz > 0.0 ? granted_mhz / requested_mhz : 1.0;

        totalRequested_ += requested_mhz;
        totalGranted_ += granted_mhz;
        ++samples_;
        ratioSum_ += ratio;
        minRatio_ = std::min(minRatio_, ratio);
        ratioHist_.add(ratio);
        if (ratio < threshold_)
            ++violations_;
    }

    /**
     * Batch entry point: the tracker's running state held in locals across
     * a whole range of samples and written back once by commit(). record()
     * makes record()'s checks and leaves the tracker bit-identical to the
     * same record() calls; it skips the divide where the ratio is exactly
     * 1 (granted == requested, finite and > 0) and returns the ratio, so
     * the caller need not divide again. The tracker must not be touched
     * until commit().
     */
    class Batch
    {
      public:
        explicit Batch(SlaTracker &target)
            : target_(target), threshold_(target.threshold_),
              totalRequested_(target.totalRequested_),
              totalGranted_(target.totalGranted_),
              violations_(target.violations_), samples_(target.samples_),
              ratioSum_(target.ratioSum_), minRatio_(target.minRatio_),
              ratioHist_(target.ratioHist_)
        {
        }

        double record(double requested_mhz, double granted_mhz)
        {
            checkSample(requested_mhz, granted_mhz);
            totalRequested_ += requested_mhz;
            totalGranted_ += granted_mhz;
            ++samples_;
            if (!(requested_mhz > 0.0) ||
                (granted_mhz == requested_mhz &&
                 requested_mhz <= std::numeric_limits<double>::max())) {
                // Exactly 1: never a violation (the threshold is at most
                // 1), and its min and bucket fold in once, at commit().
                ratioSum_ += 1.0;
                ++ones_;
                return 1.0;
            }
            const double ratio = granted_mhz / requested_mhz;
            ratioSum_ += ratio;
            minRatio_ = std::min(minRatio_, ratio);
            ratioHist_.add(ratio);
            if (ratio < threshold_)
                ++violations_;
            return ratio;
        }

        void commit()
        {
            if (ones_ > 0) {
                minRatio_ = std::min(minRatio_, 1.0);
                ratioHist_.add(1.0, ones_);
                ones_ = 0;
            }
            target_.totalRequested_ = totalRequested_;
            target_.totalGranted_ = totalGranted_;
            target_.violations_ = violations_;
            target_.samples_ = samples_;
            target_.ratioSum_ = ratioSum_;
            target_.minRatio_ = minRatio_;
            ratioHist_.commit();
        }

      private:
        SlaTracker &target_;
        double threshold_;
        double totalRequested_;
        double totalGranted_;
        std::uint64_t violations_;
        std::uint64_t samples_;
        double ratioSum_;
        double minRatio_;
        std::uint64_t ones_ = 0; ///< samples of ratio 1 not yet binned
        Histogram::Batch ratioHist_;
    };

    /**
     * Fold another tracker's samples into this one, as if every one of
     * its record() calls had been replayed here. Thresholds must match
     * (panic otherwise). The FP totals make merging order-sensitive at
     * the last ulp, so the sharded evaluation loops always merge shard 0,
     * 1, 2, ... in index order — which is what keeps results identical at
     * any thread count.
     */
    void merge(const SlaTracker &other);

    /** Drop all samples, keeping the threshold (shard-scratch reuse). */
    void reset();

    /** Total granted / total requested over all samples; 1 if no demand. */
    double satisfaction() const;

    /** Fraction of VM-intervals whose ratio fell below the threshold. */
    double violationFraction() const;

    /** Percentile of the per-sample performance ratio (e.g. 0.05 for p5). */
    double performancePercentile(double fraction) const;

    /** Mean per-sample performance ratio; 0 without samples. */
    double meanPerformance() const
    {
        return samples_ ? ratioSum_ / static_cast<double>(samples_) : 0.0;
    }

    /** Worst single-sample performance ratio observed. */
    double worstPerformance() const;

    std::uint64_t samples() const { return samples_; }
    std::uint64_t violations() const { return violations_; }

    double threshold() const { return threshold_; }

    /** @name Raw running state (tests compare it bit for bit) */
    ///@{
    double totalRequestedMhz() const { return totalRequested_; }
    double totalGrantedMhz() const { return totalGranted_; }
    const Histogram &ratioHistogram() const { return ratioHist_; }
    ///@}

  private:
    static void checkSample(double requested_mhz, double granted_mhz)
    {
        if (requested_mhz < 0.0 || granted_mhz < 0.0)
            sim::panic("SlaTracker::record: negative sample (%g, %g)",
                       requested_mhz, granted_mhz);
        if (granted_mhz > requested_mhz + 1e-6)
            sim::panic("SlaTracker::record: granted %g exceeds requested %g",
                       granted_mhz, requested_mhz);
    }

    double threshold_;
    double totalRequested_ = 0.0;
    double totalGranted_ = 0.0;
    std::uint64_t violations_ = 0;
    std::uint64_t samples_ = 0;
    /** Sum of the per-sample ratios, for meanPerformance(). */
    double ratioSum_ = 0.0;
    double minRatio_ = std::numeric_limits<double>::infinity();
    Histogram ratioHist_{0.0, 1.0 + 1e-9, 2000};
};

} // namespace vpm::stats

#endif // VPM_STATS_SLA_TRACKER_HPP
