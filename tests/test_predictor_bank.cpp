/**
 * @file
 * Law-level equivalence of PredictorBank rows with the per-object
 * predictors they replaced.
 *
 * The five classes below are the former DemandPredictor hierarchy,
 * written out as the reference: one heap object per forecaster, each
 * with its own std::deque or profile vector. Random observation streams
 * drive a bank and one reference object per row side by side, retiring
 * rows along the way (the bank resets the row, the reference is replaced
 * by a fresh object), and every predict() and appendState() must agree
 * bit for bit — the vpm-ckpt manager section and every planning decision
 * read exactly these values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/predictor.hpp"
#include "simcore/random.hpp"

namespace vpm::mgmt {
namespace {

class ReferencePredictor
{
  public:
    virtual ~ReferencePredictor() = default;
    virtual void observe(double value) = 0;
    virtual double predict() const = 0;
    virtual void appendState(std::vector<double> &out) const = 0;
};

class RefLastValue final : public ReferencePredictor
{
  public:
    void observe(double value) override { last_ = value; }
    double predict() const override { return last_; }
    void appendState(std::vector<double> &out) const override
    {
        out.push_back(last_);
    }

  private:
    double last_ = 0.0;
};

class RefEwma final : public ReferencePredictor
{
  public:
    explicit RefEwma(double alpha) : alpha_(alpha) {}
    void observe(double value) override
    {
        if (!seeded_) {
            value_ = value;
            seeded_ = true;
        } else {
            value_ = alpha_ * value + (1.0 - alpha_) * value_;
        }
    }
    double predict() const override { return value_; }
    void appendState(std::vector<double> &out) const override
    {
        out.push_back(value_);
        out.push_back(seeded_ ? 1.0 : 0.0);
    }

  private:
    double alpha_;
    double value_ = 0.0;
    bool seeded_ = false;
};

class RefWindowMax final : public ReferencePredictor
{
  public:
    explicit RefWindowMax(std::size_t window) : window_(window) {}
    void observe(double value) override
    {
        values_.push_back(value);
        if (values_.size() > window_)
            values_.pop_front();
    }
    double predict() const override
    {
        if (values_.empty())
            return 0.0;
        return *std::max_element(values_.begin(), values_.end());
    }
    void appendState(std::vector<double> &out) const override
    {
        out.push_back(static_cast<double>(values_.size()));
        out.insert(out.end(), values_.begin(), values_.end());
    }

  private:
    std::size_t window_;
    std::deque<double> values_;
};

class RefLinearTrend final : public ReferencePredictor
{
  public:
    explicit RefLinearTrend(std::size_t window) : window_(window) {}
    void observe(double value) override
    {
        values_.push_back(value);
        if (values_.size() > window_)
            values_.pop_front();
    }
    double predict() const override
    {
        const std::size_t n = values_.size();
        if (n == 0)
            return 0.0;
        if (n == 1)
            return values_.front();
        const double nn = static_cast<double>(n);
        double sum_x = 0.0, sum_y = 0.0, sum_xy = 0.0, sum_xx = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = static_cast<double>(i);
            const double y = values_[i];
            sum_x += x;
            sum_y += y;
            sum_xy += x * y;
            sum_xx += x * x;
        }
        const double denom = nn * sum_xx - sum_x * sum_x;
        if (denom == 0.0)
            return values_.back();
        const double slope = (nn * sum_xy - sum_x * sum_y) / denom;
        const double intercept = (sum_y - slope * sum_x) / nn;
        return std::max(0.0, intercept + slope * nn);
    }
    void appendState(std::vector<double> &out) const override
    {
        out.push_back(static_cast<double>(values_.size()));
        out.insert(out.end(), values_.begin(), values_.end());
    }

  private:
    std::size_t window_;
    std::deque<double> values_;
};

class RefPeriodicProfile final : public ReferencePredictor
{
  public:
    RefPeriodicProfile(std::size_t slots, double alpha,
                       std::size_t lookahead)
        : alpha_(alpha), lookahead_(lookahead), profile_(slots, 0.0)
    {
    }
    void observe(double value) override
    {
        const std::size_t slot = count_ % profile_.size();
        if (count_ < profile_.size())
            profile_[slot] = value;
        else
            profile_[slot] = alpha_ * value + (1.0 - alpha_) * profile_[slot];
        last_ = value;
        ++count_;
    }
    double predict() const override
    {
        if (count_ < profile_.size())
            return last_;
        double forecast = last_;
        for (std::size_t ahead = 0; ahead < lookahead_; ++ahead) {
            const std::size_t slot = (count_ + ahead) % profile_.size();
            forecast = std::max(forecast, profile_[slot]);
        }
        return forecast;
    }
    void appendState(std::vector<double> &out) const override
    {
        out.push_back(static_cast<double>(count_));
        out.push_back(last_);
        out.insert(out.end(), profile_.begin(), profile_.end());
    }

  private:
    double alpha_;
    std::size_t lookahead_;
    std::vector<double> profile_;
    std::size_t count_ = 0;
    double last_ = 0.0;
};

std::unique_ptr<ReferencePredictor>
makeReference(const PredictorParams &params)
{
    switch (params.kind) {
      case PredictorKind::LastValue:
        return std::make_unique<RefLastValue>();
      case PredictorKind::Ewma:
        return std::make_unique<RefEwma>(params.alpha);
      case PredictorKind::WindowMax:
        return std::make_unique<RefWindowMax>(params.window);
      case PredictorKind::LinearTrend:
        return std::make_unique<RefLinearTrend>(params.window);
      case PredictorKind::PeriodicProfile:
        return std::make_unique<RefPeriodicProfile>(
            params.slotsPerPeriod, params.alpha, params.lookahead);
    }
    return nullptr;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * A demand-like value: mostly smooth noise, with exact repeats, zeros of
 * both signs and negatives mixed in, so ties (which maximum wins),
 * degenerate fits and the non-negative clamp all occur.
 */
double
drawValue(sim::Rng &rng, double previous)
{
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.10)
        return previous;
    if (u < 0.15)
        return 0.0;
    if (u < 0.20)
        return -0.0;
    if (u < 0.25)
        return -rng.uniform(0.0, 50.0);
    return rng.uniform(0.0, 3000.0);
}

/** Drive @p rows bank rows and reference objects with one seeded random
 *  stream of observations, retirements and checks. */
void
checkEquivalence(const PredictorParams &params, std::uint64_t seed,
                 std::size_t rows, int steps)
{
    PredictorBank bank(params, rows);
    std::vector<std::unique_ptr<ReferencePredictor>> refs(rows);
    std::vector<double> previous(rows, 0.0);
    sim::Rng rng(seed);
    std::vector<double> got, want;
    for (int step = 0; step < steps; ++step) {
        const auto row = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(rows) - 1));
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.03) {
            // Retire the row: the bank resets it, the reference slot
            // empties, and the next observation starts afresh.
            bank.reset(row);
            refs[row].reset();
        } else {
            const double value = drawValue(rng, previous[row]);
            previous[row] = value;
            bank.observe(row, value);
            if (!refs[row])
                refs[row] = makeReference(params);
            refs[row]->observe(value);
        }

        for (std::size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(bank.active(r), refs[r] != nullptr)
                << toString(params.kind) << " step " << step << " row " << r;
            const std::unique_ptr<ReferencePredictor> fresh =
                makeReference(params);
            const ReferencePredictor &ref = refs[r] ? *refs[r] : *fresh;
            ASSERT_EQ(bits(bank.predict(r)), bits(ref.predict()))
                << toString(params.kind) << " step " << step << " row " << r
                << ": bank " << bank.predict(r) << ", reference "
                << ref.predict();
            got.clear();
            want.clear();
            bank.appendState(r, got);
            ref.appendState(want);
            ASSERT_EQ(got.size(), want.size())
                << toString(params.kind) << " step " << step << " row " << r;
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(bits(got[i]), bits(want[i]))
                    << toString(params.kind) << " step " << step << " row "
                    << r << " state double " << i;
        }
    }
}

TEST(PredictorBankTest, RowsMatchTheReferencePredictorsBitForBit)
{
    PredictorParams last;
    last.kind = PredictorKind::LastValue;
    PredictorParams ewma;
    ewma.kind = PredictorKind::Ewma;
    PredictorParams ewma_fast = ewma;
    ewma_fast.alpha = 0.85;
    PredictorParams window_max; // the manager's default
    PredictorParams window_one;
    window_one.window = 1;
    PredictorParams trend;
    trend.kind = PredictorKind::LinearTrend;
    PredictorParams trend_two = trend;
    trend_two.window = 2;
    PredictorParams profile;
    profile.kind = PredictorKind::PeriodicProfile;
    profile.slotsPerPeriod = 7;
    profile.lookahead = 3;
    PredictorParams profile_wide = profile;
    profile_wide.slotsPerPeriod = 24;
    profile_wide.alpha = 0.55;
    profile_wide.lookahead = 30; // peeks past a whole revolution

    std::uint64_t seed = 1;
    for (const PredictorParams &params :
         {last, ewma, ewma_fast, window_max, window_one, trend, trend_two,
          profile, profile_wide}) {
        checkEquivalence(params, seed++, 6, 2000);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(PredictorBankTest, GrowingKeepsRowsAndAddsFreshOnes)
{
    PredictorParams params;
    params.kind = PredictorKind::PeriodicProfile;
    params.slotsPerPeriod = 5;
    PredictorBank bank(params, 1);
    for (int i = 0; i < 12; ++i)
        bank.observe(0, 10.0 + i);
    std::vector<double> before;
    bank.appendState(0, before);

    bank.grow(40); // reallocates every column
    bank.grow(3);  // never shrinks
    ASSERT_EQ(bank.rows(), 40u);
    std::vector<double> after;
    bank.appendState(0, after);
    EXPECT_EQ(after, before);

    std::vector<double> fresh, want;
    bank.appendState(39, fresh);
    RefPeriodicProfile(5, params.alpha, params.lookahead).appendState(want);
    EXPECT_FALSE(bank.active(39));
    EXPECT_EQ(fresh, want);
}

} // namespace
} // namespace vpm::mgmt
