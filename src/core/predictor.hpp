/**
 * @file
 * Demand predictors for the management layer.
 *
 * Every management decision — evacuate a host, wake one — is taken against
 * a forecast of near-future demand, because acting on stale demand with
 * slow power states is precisely the failure mode the paper attacks. Five
 * predictor families are provided; the A1 ablation compares them.
 * Aggressive predictors (last-value) maximize savings but get caught by
 * bursts; conservative ones (window-max) protect SLA at some energy cost.
 *
 * The manager runs one forecaster per VM plus one for the aggregate, so
 * the state lives in a PredictorBank: one family, one row per forecaster,
 * every row's state in flat per-family columns.
 */

#ifndef VPM_CORE_PREDICTOR_HPP
#define VPM_CORE_PREDICTOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vpm::mgmt {

/** Predictor families selectable by policy configuration. */
enum class PredictorKind
{
    LastValue, ///< naive persistence: the next cycle repeats this one
    Ewma,      ///< exponentially weighted moving average
    /** Maximum over a sliding window — the conservative choice: bursts
     *  within the window never cause a shortfall. */
    WindowMax,
    /** Least-squares line over a sliding window, extrapolated one step
     *  and clamped non-negative; tracks ramps better than persistence. */
    LinearTrend,
    /**
     * Time-of-day profile learner: observations fold into a circular
     * per-slot EWMA profile (one slot per management cycle, one
     * revolution per period) and the forecast is the profile's maximum
     * over the next few slots, floored by the freshest observation — the
     * proactive wake the paper sketches as the step beyond reactive
     * management. Behaves like last-value until a full period is seen.
     */
    PeriodicProfile,
};

/** Human-readable name for tables. */
const char *toString(PredictorKind kind);

/** A predictor family and its parameters; each family reads its own. */
struct PredictorParams
{
    PredictorKind kind = PredictorKind::WindowMax;

    /** Recent observations kept: window-max (>= 1), linear-trend (>= 2). */
    std::size_t window = 6;

    /** Weight of the newest sample in (0, 1]: ewma, and the per-slot
     *  profile EWMA of periodic-profile. */
    double alpha = 0.3;

    /** periodic-profile: cycles per repetition period (>= 2). The default
     *  is a 24 h day of 5-minute management cycles. */
    std::size_t slotsPerPeriod = 288;

    /** periodic-profile: how far ahead the forecast peeks (>= 1). */
    std::size_t lookahead = 3;
};

/**
 * Online scalar forecasters of one family, one row each: feed a row one
 * observation per management cycle and it forecasts the next. A row is
 * inactive until its first observation and again after reset(), which
 * makes it fresh; rows never influence each other.
 *
 * Layout: flat columns indexed by row. `count` is a window's fill, a
 * profile's observations, or ewma's seeded flag; `head` is a window
 * ring's oldest slot; `value` is the last value or the ewma average; and
 * each row owns `window` slots (a window ring) or `slotsPerPeriod` slots
 * (a profile) of `slots`.
 */
class PredictorBank
{
  public:
    /** Fatal when @p params is out of range for its family. */
    explicit PredictorBank(const PredictorParams &params = {},
                           std::size_t rows = 0);

    std::size_t rows() const { return active_.size(); }

    /** Grow to at least @p rows rows; new rows are fresh and inactive. */
    void grow(std::size_t rows);

    /** true once the row observed something since its last reset. */
    bool active(std::size_t row) const { return active_[row] != 0; }

    /** Record the value observed this cycle; activates the row. */
    void observe(std::size_t row, double value);

    /** Forecast for the next cycle. */
    double predict(std::size_t row) const;

    /** Return the row to the fresh, inactive state (its VM retired). */
    void reset(std::size_t row);

    /**
     * Append the row's mutable state to @p out: last-value {last}; ewma
     * {average, seeded 0/1}; window kinds {count, values oldest first};
     * periodic-profile {observations, last, profile}. Byte-stable given
     * identical histories; replay checkpoints compare these (the
     * vpm-ckpt manager section), nothing loads them back.
     */
    void appendState(std::size_t row, std::vector<double> &out) const;

    /** periodic-profile: true once the row has seen a full period. */
    bool profileComplete(std::size_t row) const
    {
        return count_[row] >= params_.slotsPerPeriod;
    }

  private:
    /** The i-th oldest value of a window row (i < count). */
    double windowAt(std::size_t row, std::size_t i) const
    {
        const std::size_t slot = head_[row] + i;
        return slots_[row * width_ +
                      (slot < width_ ? slot : slot - width_)];
    }

    PredictorParams params_;
    std::size_t width_; ///< slots per row
    std::vector<std::uint8_t> active_;
    std::vector<std::uint64_t> count_;
    std::vector<std::uint32_t> head_;
    std::vector<double> value_;
    std::vector<double> slots_;
};

/**
 * Forecast-quality bookkeeping around a forecaster.
 *
 * Each cycle the owner reports the demand actually observed together with
 * the forecast just produced for the NEXT cycle; the tracker compares the
 * previous cycle's forecast against the new actual, journals the pair as a
 * telemetry Forecast event, and keeps running error statistics. This is
 * how "the predictor said X, reality said Y" becomes visible in traces
 * without the predictors knowing about telemetry.
 */
class ForecastTracker
{
  public:
    /** @param predictor_name Label journaled with every pair. */
    explicit ForecastTracker(std::string predictor_name);

    /**
     * Report this cycle's observed demand and the forecast for the next
     * cycle. The first call only seeds (there is no prior forecast yet).
     */
    void observe(std::int64_t t_us, double actual, double next_forecast);

    /** Forecast/actual pairs scored so far. */
    std::uint64_t samples() const { return samples_; }

    /** Mean |forecast - actual|; 0 before any pair completes. */
    double meanAbsoluteError() const;

    /** Mean (forecast - actual); positive = over-provisioning bias. */
    double meanError() const;

  private:
    std::string name_;
    double pendingForecast_ = 0.0;
    bool hasPending_ = false;
    std::uint64_t samples_ = 0;
    double absErrorSum_ = 0.0;
    double errorSum_ = 0.0;
};

} // namespace vpm::mgmt

#endif // VPM_CORE_PREDICTOR_HPP
