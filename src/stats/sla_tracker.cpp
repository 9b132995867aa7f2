#include "stats/sla_tracker.hpp"

#include "simcore/logging.hpp"

namespace vpm::stats {

SlaTracker::SlaTracker(double violation_threshold)
    : threshold_(violation_threshold)
{
    if (violation_threshold < 0.0 || violation_threshold > 1.0)
        sim::fatal("SlaTracker: threshold %g outside [0, 1]",
                   violation_threshold);
}

void
SlaTracker::merge(const SlaTracker &other)
{
    if (other.threshold_ != threshold_)
        sim::panic("SlaTracker::merge: threshold mismatch (%g vs %g)",
                   threshold_, other.threshold_);
    totalRequested_ += other.totalRequested_;
    totalGranted_ += other.totalGranted_;
    violations_ += other.violations_;
    samples_ += other.samples_;
    ratioSum_ += other.ratioSum_;
    minRatio_ = std::min(minRatio_, other.minRatio_);
    ratioHist_.merge(other.ratioHist_);
}

void
SlaTracker::reset()
{
    totalRequested_ = 0.0;
    totalGranted_ = 0.0;
    violations_ = 0;
    samples_ = 0;
    ratioSum_ = 0.0;
    minRatio_ = std::numeric_limits<double>::infinity();
    ratioHist_.reset();
}

double
SlaTracker::satisfaction() const
{
    if (totalRequested_ <= 0.0)
        return 1.0;
    return totalGranted_ / totalRequested_;
}

double
SlaTracker::violationFraction() const
{
    if (samples_ == 0)
        return 0.0;
    return static_cast<double>(violations_) /
           static_cast<double>(samples_);
}

double
SlaTracker::performancePercentile(double fraction) const
{
    return ratioHist_.percentile(fraction);
}

double
SlaTracker::worstPerformance() const
{
    if (samples_ == 0)
        return 1.0;
    return minRatio_;
}

} // namespace vpm::stats
