#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::mgmt {

PredictorBank::PredictorBank(const PredictorParams &params, std::size_t rows)
    : params_(params), width_(0)
{
    const PredictorKind kind = params_.kind;
    const bool periodic = kind == PredictorKind::PeriodicProfile;
    const std::size_t least_window = kind == PredictorKind::WindowMax ? 1
                                     : kind == PredictorKind::LinearTrend
                                         ? 2
                                         : 0;
    if ((periodic || kind == PredictorKind::Ewma) &&
        !(params_.alpha > 0.0 && params_.alpha <= 1.0))
        sim::fatal("PredictorBank: %s alpha %g outside (0, 1]",
                   toString(kind), params_.alpha);
    if (least_window > 0 &&
        (params_.window < least_window || params_.window > UINT32_MAX))
        sim::fatal("PredictorBank: %s window %zu outside [%zu, 2^32)",
                   toString(kind), params_.window, least_window);
    if (periodic && params_.slotsPerPeriod < 2)
        sim::fatal("PredictorBank: periodic-profile needs >= 2 slots");
    if (periodic && params_.lookahead < 1)
        sim::fatal("PredictorBank: periodic-profile look-ahead must be >= 1");
    width_ = least_window > 0 ? params_.window
             : periodic       ? params_.slotsPerPeriod
                              : 0;
    grow(rows);
}

void
PredictorBank::grow(std::size_t rows)
{
    if (rows <= active_.size())
        return;
    active_.resize(rows, 0);
    count_.resize(rows, 0);
    head_.resize(rows, 0);
    value_.resize(rows, 0.0);
    slots_.resize(rows * width_, 0.0);
}

void
PredictorBank::reset(std::size_t row)
{
    active_[row] = 0;
    count_[row] = 0;
    head_[row] = 0;
    value_[row] = 0.0;
    std::fill_n(slots_.begin() + static_cast<std::ptrdiff_t>(row * width_),
                width_, 0.0);
}

void
PredictorBank::observe(std::size_t row, double value)
{
    active_[row] = 1;
    const double alpha = params_.alpha;
    double *slots = slots_.data() + row * width_;
    switch (params_.kind) {
      case PredictorKind::LastValue:
        value_[row] = value;
        return;
      case PredictorKind::Ewma:
        value_[row] = count_[row] == 0
                          ? value
                          : alpha * value + (1.0 - alpha) * value_[row];
        count_[row] = 1;
        return;
      case PredictorKind::WindowMax:
      case PredictorKind::LinearTrend:
        // Fill slots 0..window-1 in order; once full, overwrite the
        // oldest value and advance the head past it.
        if (count_[row] < width_) {
            slots[count_[row]++] = value;
        } else {
            slots[head_[row]] = value;
            head_[row] = head_[row] + 1 == width_ ? 0 : head_[row] + 1;
        }
        return;
      case PredictorKind::PeriodicProfile: {
        double &slot = slots[count_[row] % width_];
        if (count_[row] < width_)
            slot = value; // first revolution seeds the profile
        else
            slot = alpha * value + (1.0 - alpha) * slot;
        value_[row] = value;
        ++count_[row];
        return;
      }
    }
}

double
PredictorBank::predict(std::size_t row) const
{
    const std::size_t n = count_[row];
    switch (params_.kind) {
      case PredictorKind::LastValue:
      case PredictorKind::Ewma:
        return value_[row];
      case PredictorKind::WindowMax: {
        if (n == 0)
            return 0.0;
        // Oldest first, replacing only on a strictly greater value: the
        // first maximum wins, as std::max_element picks it.
        double best = windowAt(row, 0);
        for (std::size_t i = 1; i < n; ++i)
            if (best < windowAt(row, i))
                best = windowAt(row, i);
        return best;
      }
      case PredictorKind::LinearTrend: {
        if (n == 0)
            return 0.0;
        if (n == 1)
            return windowAt(row, 0);

        // Least squares of value against index; forecast one step past
        // the end.
        const double nn = static_cast<double>(n);
        double sum_x = 0.0, sum_y = 0.0, sum_xy = 0.0, sum_xx = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = static_cast<double>(i);
            const double y = windowAt(row, i);
            sum_x += x;
            sum_y += y;
            sum_xy += x * y;
            sum_xx += x * x;
        }
        const double denom = nn * sum_xx - sum_x * sum_x;
        if (denom == 0.0)
            return windowAt(row, n - 1);
        const double slope = (nn * sum_xy - sum_x * sum_y) / denom;
        const double intercept = (sum_y - slope * sum_x) / nn;
        return std::max(0.0, intercept + slope * nn);
      }
      case PredictorKind::PeriodicProfile: {
        if (!profileComplete(row))
            return value_[row];

        // Max of the learned profile over the upcoming slots, floored by
        // the freshest observation so a today-only anomaly is never
        // forecast away.
        const double *profile = slots_.data() + row * width_;
        double forecast = value_[row];
        for (std::size_t ahead = 0; ahead < params_.lookahead; ++ahead)
            forecast = std::max(forecast, profile[(n + ahead) % width_]);
        return forecast;
      }
    }
    sim::panic("PredictorBank::predict: invalid PredictorKind %d",
               static_cast<int>(params_.kind));
}

// Checkpoint-capture appends: every mutable field, fixed order, flags as
// 0/1 doubles. Comparisons are byte-wise, so ordering is part of the
// vpm-ckpt-1 contract (DESIGN.md).
void
PredictorBank::appendState(std::size_t row, std::vector<double> &out) const
{
    const double count = static_cast<double>(count_[row]);
    switch (params_.kind) {
      case PredictorKind::LastValue:
        out.push_back(value_[row]);
        return;
      case PredictorKind::Ewma:
        out.push_back(value_[row]);
        out.push_back(count);
        return;
      case PredictorKind::WindowMax:
      case PredictorKind::LinearTrend:
        out.push_back(count);
        for (std::size_t i = 0; i < count_[row]; ++i)
            out.push_back(windowAt(row, i));
        return;
      case PredictorKind::PeriodicProfile: {
        out.push_back(count);
        out.push_back(value_[row]);
        const double *profile = slots_.data() + row * width_;
        out.insert(out.end(), profile, profile + width_);
        return;
      }
    }
}

const char *
toString(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::LastValue:
        return "last-value";
      case PredictorKind::Ewma:
        return "ewma";
      case PredictorKind::WindowMax:
        return "window-max";
      case PredictorKind::LinearTrend:
        return "linear-trend";
      case PredictorKind::PeriodicProfile:
        return "periodic-profile";
    }
    sim::panic("toString: invalid PredictorKind %d", static_cast<int>(kind));
}

ForecastTracker::ForecastTracker(std::string predictor_name)
    : name_(std::move(predictor_name))
{
}

void
ForecastTracker::observe(std::int64_t t_us, double actual,
                         double next_forecast)
{
    PROF_ZONE("predictor.track");
    if (hasPending_) {
        ++samples_;
        absErrorSum_ += std::abs(pendingForecast_ - actual);
        errorSum_ += pendingForecast_ - actual;
        telemetry::Telemetry &tel = telemetry::global();
        tel.journal().forecast(t_us, name_, pendingForecast_, actual);
        tel.metrics().gauge("predictor.mae").set(meanAbsoluteError());
        // Per-cycle |error| history: one shared series across trackers, so
        // the watchdog can alarm on forecast quality regardless of which
        // predictor the policy runs.
        telemetry::TimeSeriesStore &store = tel.timeseries();
        if (store.enabled())
            store.record(store.seriesId("forecast.abs_error"), t_us,
                         std::abs(pendingForecast_ - actual));
    }
    pendingForecast_ = next_forecast;
    hasPending_ = true;
}

double
ForecastTracker::meanAbsoluteError() const
{
    return samples_ > 0 ? absErrorSum_ / double(samples_) : 0.0;
}

double
ForecastTracker::meanError() const
{
    return samples_ > 0 ? errorSum_ / double(samples_) : 0.0;
}

} // namespace vpm::mgmt
