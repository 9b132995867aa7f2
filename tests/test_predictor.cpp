/** @file Unit tests for the demand predictors, one bank row per case. */

#include <gtest/gtest.h>

#include "core/predictor.hpp"

namespace vpm::mgmt {
namespace {

PredictorParams
lastValue()
{
    PredictorParams params;
    params.kind = PredictorKind::LastValue;
    return params;
}

PredictorParams
ewma(double alpha)
{
    PredictorParams params;
    params.kind = PredictorKind::Ewma;
    params.alpha = alpha;
    return params;
}

PredictorParams
windowMax(std::size_t window)
{
    PredictorParams params;
    params.kind = PredictorKind::WindowMax;
    params.window = window;
    return params;
}

PredictorParams
linearTrend(std::size_t window)
{
    PredictorParams params;
    params.kind = PredictorKind::LinearTrend;
    params.window = window;
    return params;
}

PredictorParams
periodicProfile(std::size_t slots, double alpha = 0.3,
                std::size_t lookahead = 3)
{
    PredictorParams params;
    params.kind = PredictorKind::PeriodicProfile;
    params.slotsPerPeriod = slots;
    params.alpha = alpha;
    params.lookahead = lookahead;
    return params;
}

TEST(LastValuePredictorTest, EchoesLastObservation)
{
    PredictorBank p(lastValue(), 1);
    EXPECT_DOUBLE_EQ(p.predict(0), 0.0);
    p.observe(0, 5.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 5.0);
    p.observe(0, 2.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 2.0);
}

TEST(EwmaPredictorTest, SeedsWithFirstObservation)
{
    PredictorBank p(ewma(0.5), 1);
    p.observe(0, 10.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 10.0);
}

TEST(EwmaPredictorTest, BlendsWithConfiguredAlpha)
{
    PredictorBank p(ewma(0.5), 1);
    p.observe(0, 10.0);
    p.observe(0, 20.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 15.0);
    p.observe(0, 15.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 15.0);
}

TEST(EwmaPredictorTest, ConvergesToConstantInput)
{
    PredictorBank p(ewma(0.3), 1);
    for (int i = 0; i < 100; ++i)
        p.observe(0, 7.0);
    EXPECT_NEAR(p.predict(0), 7.0, 1e-9);
}

TEST(EwmaPredictorDeathTest, RejectsBadAlpha)
{
    EXPECT_EXIT(PredictorBank(ewma(0.0)), ::testing::ExitedWithCode(1),
                "alpha");
    EXPECT_EXIT(PredictorBank(ewma(1.1)), ::testing::ExitedWithCode(1),
                "alpha");
}

TEST(WindowMaxPredictorTest, TracksWindowMaximum)
{
    PredictorBank p(windowMax(3), 1);
    p.observe(0, 5.0);
    p.observe(0, 9.0);
    p.observe(0, 3.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 9.0);
    p.observe(0, 2.0); // 9 falls out of the window? No: window {9,3,2}
    EXPECT_DOUBLE_EQ(p.predict(0), 9.0);
    p.observe(0, 1.0); // window {3,2,1}
    EXPECT_DOUBLE_EQ(p.predict(0), 3.0);
}

TEST(WindowMaxPredictorTest, EmptyPredictsZero)
{
    PredictorBank p(windowMax(5), 1);
    EXPECT_DOUBLE_EQ(p.predict(0), 0.0);
}

TEST(WindowMaxPredictorTest, NeverBelowCurrentObservation)
{
    PredictorBank p(windowMax(6), 1);
    for (double x : {1.0, 4.0, 2.0, 8.0, 3.0}) {
        p.observe(0, x);
        EXPECT_GE(p.predict(0), x);
    }
}

TEST(WindowMaxPredictorDeathTest, RejectsZeroWindow)
{
    EXPECT_EXIT(PredictorBank(windowMax(0)), ::testing::ExitedWithCode(1),
                "window");
}

TEST(LinearTrendPredictorTest, ExtrapolatesALine)
{
    PredictorBank p(linearTrend(4), 1);
    for (double x : {1.0, 2.0, 3.0, 4.0})
        p.observe(0, x);
    EXPECT_NEAR(p.predict(0), 5.0, 1e-9);
}

TEST(LinearTrendPredictorTest, FlatInputStaysFlat)
{
    PredictorBank p(linearTrend(5), 1);
    for (int i = 0; i < 5; ++i)
        p.observe(0, 3.0);
    EXPECT_NEAR(p.predict(0), 3.0, 1e-9);
}

TEST(LinearTrendPredictorTest, DecliningInputClampedAtZero)
{
    PredictorBank p(linearTrend(3), 1);
    for (double x : {2.0, 1.0, 0.0})
        p.observe(0, x);
    EXPECT_DOUBLE_EQ(p.predict(0), 0.0);
}

TEST(LinearTrendPredictorTest, SingleObservationEchoes)
{
    PredictorBank p(linearTrend(4), 1);
    p.observe(0, 6.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 6.0);
}

TEST(PeriodicProfilePredictorTest, BehavesLikeLastValueBeforeFirstPeriod)
{
    PredictorBank p(periodicProfile(10), 1);
    p.observe(0, 3.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 3.0);
    p.observe(0, 7.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 7.0);
    EXPECT_FALSE(p.profileComplete(0));
}

TEST(PeriodicProfilePredictorTest, AnticipatesRecurringRamp)
{
    // 10-slot day: low everywhere except a surge in slots 5-6.
    PredictorBank p(periodicProfile(10, 0.3, 2), 1);
    const auto day_value = [](std::size_t slot) {
        return (slot == 5 || slot == 6) ? 9.0 : 1.0;
    };
    for (int day = 0; day < 3; ++day)
        for (std::size_t s = 0; s < 10; ++s)
            p.observe(0, day_value(s));
    EXPECT_TRUE(p.profileComplete(0));

    // Now in day 4, observing slots 0..3: the forecast looking 2 slots
    // ahead from slot 4 must see the learned surge at slot 5.
    for (std::size_t s = 0; s < 4; ++s)
        p.observe(0, day_value(s));
    EXPECT_GT(p.predict(0), 5.0); // anticipation, despite last == 1.0

    // Right after the surge passes, the forecast relaxes again.
    p.observe(0, day_value(4));
    p.observe(0, day_value(5));
    p.observe(0, day_value(6));
    p.observe(0, day_value(7));
    EXPECT_LT(p.predict(0), 3.0);
}

TEST(PeriodicProfilePredictorTest, FlooredByFreshObservation)
{
    PredictorBank p(periodicProfile(4, 0.3, 1), 1);
    for (int day = 0; day < 3; ++day)
        for (int s = 0; s < 4; ++s)
            p.observe(0, 1.0);
    // A today-only anomaly must not be forecast away by the profile.
    p.observe(0, 50.0);
    EXPECT_GE(p.predict(0), 50.0);
}

TEST(PeriodicProfilePredictorTest, ProfileTracksDriftViaEwma)
{
    PredictorBank p(periodicProfile(4, 0.5, 1), 1);
    for (int day = 0; day < 2; ++day)
        for (int s = 0; s < 4; ++s)
            p.observe(0, 2.0);
    // The level doubles; within a few days the profile follows.
    for (int day = 0; day < 6; ++day)
        for (int s = 0; s < 4; ++s)
            p.observe(0, 4.0);
    EXPECT_NEAR(p.predict(0), 4.0, 0.2);
}

TEST(PeriodicProfilePredictorDeathTest, RejectsBadConfig)
{
    EXPECT_EXIT(PredictorBank(periodicProfile(1)),
                ::testing::ExitedWithCode(1), "slots");
    EXPECT_EXIT(PredictorBank(periodicProfile(10, 0.0)),
                ::testing::ExitedWithCode(1), "alpha");
    EXPECT_EXIT(PredictorBank(periodicProfile(10, 0.3, 0)),
                ::testing::ExitedWithCode(1), "look-ahead");
}

TEST(PredictorFactoryTest, MakesEveryKind)
{
    for (const PredictorKind kind :
         {PredictorKind::LastValue, PredictorKind::Ewma,
          PredictorKind::WindowMax, PredictorKind::LinearTrend,
          PredictorKind::PeriodicProfile}) {
        PredictorParams params;
        params.kind = kind;
        PredictorBank p(params, 1);
        EXPECT_FALSE(p.active(0));
        p.observe(0, 4.0);
        EXPECT_TRUE(p.active(0));
        EXPECT_GT(p.predict(0), 0.0);
        EXPECT_NE(toString(kind), nullptr);
    }
}

TEST(PredictorBankTest, RowsAreIndependent)
{
    // Two rows of one bank: observing one leaves the other fresh, and
    // resetting one leaves the other's history intact.
    PredictorBank p(windowMax(3), 2);
    p.observe(0, 100.0);
    EXPECT_TRUE(p.active(0));
    EXPECT_FALSE(p.active(1));
    EXPECT_DOUBLE_EQ(p.predict(1), 0.0); // fresh, no history
    p.observe(1, 5.0);
    EXPECT_DOUBLE_EQ(p.predict(0), 100.0); // first row untouched
    p.reset(0);
    EXPECT_FALSE(p.active(0));
    EXPECT_DOUBLE_EQ(p.predict(0), 0.0);
    EXPECT_DOUBLE_EQ(p.predict(1), 5.0);
}

/** Property: on ramp inputs, trend over-forecasts persistence. */
class PredictorRampSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PredictorRampSweep, TrendLeadsPersistenceOnRamps)
{
    const double slope = GetParam();
    PredictorBank last(lastValue(), 1);
    PredictorBank trend(linearTrend(6), 1);
    for (int i = 0; i < 20; ++i) {
        const double x = 10.0 + slope * i;
        last.observe(0, x);
        trend.observe(0, x);
    }
    EXPECT_GT(trend.predict(0), last.predict(0));
}

INSTANTIATE_TEST_SUITE_P(Slopes, PredictorRampSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0));

} // namespace
} // namespace vpm::mgmt
