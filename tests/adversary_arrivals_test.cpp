// Unit tests for the arrival processes: stream contract (strictly
// increasing slots), totals, and distribution sanity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "adversary/arrivals.hpp"

namespace lowsense {
namespace {

std::vector<ArrivalBurst> drain(ArrivalProcess& p, std::size_t limit = 1 << 20) {
  std::vector<ArrivalBurst> out;
  while (out.size() < limit) {
    auto b = p.next();
    if (!b) break;
    out.push_back(*b);
  }
  return out;
}

std::uint64_t total(const std::vector<ArrivalBurst>& bursts) {
  std::uint64_t n = 0;
  for (const auto& b : bursts) n += b.count;
  return n;
}

void expect_strictly_increasing(const std::vector<ArrivalBurst>& bursts) {
  for (std::size_t i = 1; i < bursts.size(); ++i) {
    ASSERT_GT(bursts[i].slot, bursts[i - 1].slot) << "burst " << i;
  }
}

// ------------------------------------------------------------------ batch

TEST(BatchArrivals, SingleBurstAtSlotZero) {
  BatchArrivals batch(100);
  const auto bursts = drain(batch);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].slot, 0u);
  EXPECT_EQ(bursts[0].count, 100u);
  EXPECT_FALSE(batch.next().has_value());  // exhausted stays exhausted
}

TEST(BatchArrivals, CustomSlot) {
  BatchArrivals batch(5, 42);
  const auto bursts = drain(batch);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].slot, 42u);
}

TEST(BatchArrivals, ZeroPacketsIsEmptyStream) {
  BatchArrivals batch(0);
  EXPECT_FALSE(batch.next().has_value());
}

// --------------------------------------------------------------- schedule

TEST(ScheduleArrivals, ReplaysSchedule) {
  ScheduleArrivals sched({{0, 2}, {10, 1}, {11, 3}});
  const auto bursts = drain(sched);
  ASSERT_EQ(bursts.size(), 3u);
  EXPECT_EQ(bursts[1].slot, 10u);
  EXPECT_EQ(total(bursts), 6u);
}

TEST(ScheduleArrivals, SkipsZeroCountBursts) {
  ScheduleArrivals sched({{0, 0}, {5, 2}});
  const auto bursts = drain(sched);
  ASSERT_EQ(bursts.size(), 1u);
  EXPECT_EQ(bursts[0].slot, 5u);
}

TEST(ScheduleArrivals, RejectsNonIncreasingSlots) {
  EXPECT_THROW(ScheduleArrivals({{5, 1}, {5, 1}}), std::invalid_argument);
  EXPECT_THROW(ScheduleArrivals({{5, 1}, {3, 1}}), std::invalid_argument);
}

// ---------------------------------------------------------------- poisson

TEST(PoissonArrivals, TotalRespectsCap) {
  PoissonArrivals poisson(0.5, 1000, Rng(1));
  const auto bursts = drain(poisson);
  EXPECT_EQ(total(bursts), 1000u);
  expect_strictly_increasing(bursts);
}

TEST(PoissonArrivals, RateMatchesLongRunAverage) {
  const double rate = 0.25;
  PoissonArrivals poisson(rate, 20000, Rng(2));
  const auto bursts = drain(poisson);
  ASSERT_FALSE(bursts.empty());
  const double span = static_cast<double>(bursts.back().slot + 1);
  const double measured = static_cast<double>(total(bursts)) / span;
  EXPECT_NEAR(measured, rate, rate * 0.1);
}

TEST(PoissonArrivals, RejectsBadRate) {
  EXPECT_THROW(PoissonArrivals(0.0, 10, Rng(3)), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(-1.0, 10, Rng(3)), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(std::nan(""), 10, Rng(3)), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(HUGE_VAL, 10, Rng(3)), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(1e300, 10, Rng(3)), std::invalid_argument);
  EXPECT_THROW(PoissonArrivals(std::nextafter(PoissonArrivals::kMaxRate, HUGE_VAL), 10, Rng(3)),
               std::invalid_argument);
}

TEST(PoissonArrivals, HighRatesUpToTheMaximumRun) {
  // Rates past the Knuth range take the normal approximation; every
  // accepted rate, the largest included, yields a capped first burst.
  for (double rate : {1e6, PoissonArrivals::kMaxRate}) {
    PoissonArrivals poisson(rate, 10, Rng(4));
    const auto bursts = drain(poisson);
    ASSERT_EQ(bursts.size(), 1u) << "rate=" << rate;
    EXPECT_EQ(bursts[0].slot, 0u) << "rate=" << rate;
    EXPECT_EQ(bursts[0].count, 10u) << "rate=" << rate;
  }
}

TEST(PoissonArrivals, CanArriveAtSlotZero) {
  // With a high rate, some seed must produce an arrival in slot 0.
  bool saw_zero = false;
  for (std::uint64_t seed = 0; seed < 32 && !saw_zero; ++seed) {
    PoissonArrivals poisson(0.9, 1, Rng(seed));
    const auto b = poisson.next();
    saw_zero = b && b->slot == 0;
  }
  EXPECT_TRUE(saw_zero);
}

// -------------------------------------------------------------------- AQT

class AqtPatternTest : public ::testing::TestWithParam<AqtPattern> {};

TEST_P(AqtPatternTest, StreamContractHolds) {
  AqtArrivals aqt(0.25, 64, GetParam(), 500, Rng(7));
  const auto bursts = drain(aqt);
  EXPECT_EQ(total(bursts), 500u);
  expect_strictly_increasing(bursts);
}

TEST_P(AqtPatternTest, AverageRateDoesNotExceedLambda) {
  const double lambda = 0.25;
  const Slot s = 128;
  AqtArrivals aqt(lambda, s, GetParam(), 4000, Rng(8));
  const auto bursts = drain(aqt);
  const double span = static_cast<double>(bursts.back().slot + 1);
  // The pulse pattern halves the average rate; all others hit ~lambda.
  EXPECT_LE(static_cast<double>(total(bursts)) / span, lambda * 1.1);
}

INSTANTIATE_TEST_SUITE_P(Patterns, AqtPatternTest,
                         ::testing::Values(AqtPattern::kSpread, AqtPattern::kFront,
                                           AqtPattern::kRandom, AqtPattern::kPulse));

TEST(AqtArrivals, FrontPatternBurstsAtWindowStarts) {
  AqtArrivals aqt(0.5, 100, AqtPattern::kFront, 200, Rng(9));
  const auto bursts = drain(aqt);
  for (const auto& b : bursts) {
    EXPECT_EQ(b.slot % 100, 0u);
    EXPECT_LE(b.count, 50u);
  }
}

TEST(AqtArrivals, PulsePatternSkipsAlternateWindows) {
  AqtArrivals aqt(0.5, 100, AqtPattern::kPulse, 150, Rng(10));
  const auto bursts = drain(aqt);
  ASSERT_GE(bursts.size(), 2u);
  // Loaded windows are 200 slots apart.
  EXPECT_EQ(bursts[1].slot - bursts[0].slot, 200u);
}

TEST(AqtArrivals, TinyLambdaStillMakesProgress) {
  AqtArrivals aqt(0.001, 64, AqtPattern::kSpread, 5, Rng(11));  // budget rounds to 0
  const auto bursts = drain(aqt);
  EXPECT_EQ(total(bursts), 5u);
  expect_strictly_increasing(bursts);
}

TEST(AqtArrivals, RejectsBadParameters) {
  EXPECT_THROW(AqtArrivals(0.0, 64, AqtPattern::kSpread, 10, Rng(1)), std::invalid_argument);
  EXPECT_THROW(AqtArrivals(1.5, 64, AqtPattern::kSpread, 10, Rng(1)), std::invalid_argument);
  EXPECT_THROW(AqtArrivals(0.5, 1, AqtPattern::kSpread, 10, Rng(1)), std::invalid_argument);
}

TEST(AqtArrivals, RejectsWindowBudgetAboveTheCeiling) {
  constexpr std::uint64_t kMax = AqtArrivals::kMaxWindowBudget;
  for (const AqtPattern pattern :
       {AqtPattern::kSpread, AqtPattern::kFront, AqtPattern::kRandom, AqtPattern::kPulse}) {
    EXPECT_THROW(AqtArrivals(1.0, kMax + 1, pattern, 10, Rng(1)), std::invalid_argument);
    EXPECT_THROW(AqtArrivals(0.5, 100000000000ULL, pattern, 10, Rng(1)), std::invalid_argument);
    EXPECT_THROW(AqtArrivals(1.0, UINT64_MAX, pattern, 10, Rng(1)), std::invalid_argument);
    EXPECT_NO_THROW(AqtArrivals(1.0, kMax, pattern, 10, Rng(1)));
  }
  // Small lambda with a huge granularity: a budget of 100 per window.
  AqtArrivals sparse(1e-9, 100000000000ULL, AqtPattern::kSpread, 10, Rng(1));
  const auto bursts = drain(sparse);
  EXPECT_EQ(total(bursts), 10u);
  expect_strictly_increasing(bursts);
}

TEST(AqtArrivals, NamesIdentifyPattern) {
  EXPECT_EQ(AqtArrivals(0.5, 8, AqtPattern::kSpread, 1, Rng(1)).name(), "aqt-spread");
  EXPECT_EQ(AqtArrivals(0.5, 8, AqtPattern::kFront, 1, Rng(1)).name(), "aqt-front");
  EXPECT_EQ(AqtArrivals(0.5, 8, AqtPattern::kRandom, 1, Rng(1)).name(), "aqt-random");
  EXPECT_EQ(AqtArrivals(0.5, 8, AqtPattern::kPulse, 1, Rng(1)).name(), "aqt-pulse");
}

}  // namespace
}  // namespace lowsense
