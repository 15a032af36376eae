// Arrival and jammer spec strings are untrusted input (CLI flags, pack
// lines): each malformed value must come back as nullptr — which every
// caller turns into a usage error with exit 2 — rather than abort at run
// time, wrap a sign into 2^64, or quietly run with NaN.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace lowsense {
namespace {

TEST(ArrivalsSpec, NanPoissonRateIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("poisson:nan,10"));
}

TEST(ArrivalsSpec, NegativePoissonRateIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("poisson:-0.5,10"));
}

TEST(ArrivalsSpec, AqtLambdaOutOfRangeIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("aqt:1.5,5,front,10"));
  EXPECT_FALSE(parse_arrivals_spec("aqt:0.1,1,front,10"));  // granularity < 2
}

TEST(ArrivalsSpec, SignedBatchSizeIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("batch:-1"));
  EXPECT_FALSE(parse_arrivals_spec("batch:+1"));
  EXPECT_FALSE(parse_arrivals_spec("batch: -1"));
}

TEST(ArrivalsSpec, SignedAqtGranularityIsRejected) {
  EXPECT_FALSE(parse_arrivals_spec("aqt:0.1,-5,front,10"));
}

TEST(JammerSpec, SignedVictimFieldsAreRejected) {
  EXPECT_TRUE(parse_jammer_spec("victim:1,1"));
  EXPECT_FALSE(parse_jammer_spec("victim:-1,-1"));
  EXPECT_FALSE(parse_jammer_spec("victim:1,-1"));
}

TEST(JammerSpec, NanRandomRateIsRejected) {
  EXPECT_TRUE(parse_jammer_spec("random:0.5"));
  EXPECT_FALSE(parse_jammer_spec("random:nan"));
}

TEST(JammerSpec, NanRandbandRateIsRejected) {
  EXPECT_TRUE(parse_jammer_spec("randband:1,3,0.5"));
  EXPECT_FALSE(parse_jammer_spec("randband:1,3,nan"));
}

TEST(JammerSpec, NanBandEdgeIsRejected) {
  EXPECT_FALSE(parse_jammer_spec("band:1,nan,5"));
  EXPECT_FALSE(parse_jammer_spec("randband:1,nan,0.5"));
}

}  // namespace
}  // namespace lowsense
